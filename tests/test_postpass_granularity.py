"""Tests for fine/middle/coarse transfer planning (paper §5.6, Figure 9)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.analysis.lmad import LMAD
from repro.compiler.postpass.granularity import (
    COARSE,
    FINE,
    MIDDLE,
    Transfer,
    plan_bytes,
    plan_mask,
    plan_transfers,
)
from repro.compiler.postpass.scatter import collect_hazards, stale_collects


def test_transfer_validation():
    with pytest.raises(ValueError):
        Transfer(offset=0, count=0)
    with pytest.raises(ValueError):
        Transfer(offset=0, count=1, stride=0)
    t = Transfer(offset=3, count=4, stride=2)
    assert not t.contiguous
    assert t.last == 9
    assert t.indices().tolist() == [3, 5, 7, 9]


def test_fine_strided_region():
    l = LMAD.from_counts("A", 0, [(3, 5)])  # 0 3 6 9 12
    ts = plan_transfers(l, FINE)
    assert ts == [Transfer(offset=0, count=5, stride=3)]
    assert not ts[0].contiguous


def test_fine_contiguous_region():
    l = LMAD.from_counts("A", 4, [(1, 8)])
    ts = plan_transfers(l, FINE)
    assert ts == [Transfer(offset=4, count=8, stride=1)]
    assert ts[0].contiguous


def test_middle_converts_stride_to_bounding_run():
    l = LMAD.from_counts("A", 0, [(3, 5)])
    ts = plan_transfers(l, MIDDLE)
    assert ts == [Transfer(offset=0, count=13, stride=1)]


def test_coarse_single_bounding_transfer():
    l = LMAD.from_counts("A", 2, [(3, 4), (20, 3)])
    ts = plan_transfers(l, COARSE)
    assert len(ts) == 1
    assert ts[0].offset == l.min_offset
    assert ts[0].count == l.extent
    assert ts[0].contiguous


def test_figure9_regions():
    """Fig 9: stride-3 mapping within groups of 14 across 2 processors.

    Fine: one strided PUT per group; middle: one contiguous run per
    group (redundant bytes); coarse: one big contiguous region."""
    l = LMAD.from_counts("A", 0, [(3, 5), (14, 2)])
    fine = plan_transfers(l, FINE)
    assert len(fine) == 2 and all(t.stride == 3 for t in fine)
    middle = plan_transfers(l, MIDDLE)
    assert len(middle) == 2 and all(t.contiguous for t in middle)
    assert middle[0].count == 13  # span+1 covers the 5 strided elements
    coarse = plan_transfers(l, COARSE)
    assert len(coarse) == 1 and coarse[0].count == l.extent


def test_message_count_formulas():
    """Fine/middle = prod_{j>=2}(count_j); coarse = 1 per region."""
    l = LMAD.from_counts("A", 0, [(2, 6), (20, 4), (100, 3)])
    assert len(plan_transfers(l, FINE)) == 4 * 3
    assert len(plan_transfers(l, MIDDLE)) == 4 * 3
    assert len(plan_transfers(l, COARSE)) == 1


def test_plan_bytes():
    l = LMAD.from_counts("A", 0, [(3, 5)])
    assert plan_bytes(plan_transfers(l, FINE)) == 5 * 8
    assert plan_bytes(plan_transfers(l, MIDDLE)) == 13 * 8
    assert plan_bytes(plan_transfers(l, FINE), itemsize=4) == 20


def test_unknown_grain_rejected():
    with pytest.raises(ValueError):
        plan_transfers(LMAD("A", 0, ()), "extra-chunky")


@settings(max_examples=60)
@given(
    base=st.integers(0, 20),
    dims=st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 5)), min_size=1, max_size=3
    ),
    grain=st.sampled_from([FINE, MIDDLE, COARSE]),
)
def test_property_plans_cover_region(base, dims, grain):
    """Every granularity's transfers cover (at least) the exact region;
    fine covers it exactly."""
    l = LMAD.from_counts("A", base, dims)
    size = l.max_offset + 5
    exact = l.mask(size)
    planned = plan_mask(plan_transfers(l, grain), size)
    assert not (exact & ~planned).any()
    if grain == FINE:
        assert np.array_equal(exact, planned)
    if grain == COARSE:
        # One dense interval.
        idx = np.flatnonzero(planned)
        assert len(idx) == idx[-1] - idx[0] + 1


@settings(max_examples=40)
@given(
    base=st.integers(0, 20),
    dims=st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 5)), min_size=1, max_size=3
    ),
)
def test_property_redundancy_ordering(base, dims):
    """bytes(fine) <= bytes(middle) <= bytes(coarse) for non-degenerate
    descriptors (a self-overlapping LMAD double-sends its duplicates at
    fine grain, which compilers never generate from real subscripts)."""
    l = LMAD.from_counts("A", base, dims)
    if l.nominal_count != l.count_distinct():
        return
    b = {g: plan_bytes(plan_transfers(l, g)) for g in (FINE, MIDDLE, COARSE)}
    m = {g: len(plan_transfers(l, g)) for g in (FINE, MIDDLE, COARSE)}
    # Exact regions move the fewest bytes; approximation only inflates.
    assert b[FINE] <= b[MIDDLE]
    assert b[FINE] <= b[COARSE]
    # Coarse always moves the fewest messages; middle never adds any.
    assert m[COARSE] == 1
    assert m[MIDDLE] == m[FINE]
    # (middle vs coarse bytes can order either way: overlapping inflated
    # runs may exceed the single bounding interval.)


# ---------------------------------------------------------------------------
# The §5.6 collect bound check
# ---------------------------------------------------------------------------


def _no_scatter(size, ranks):
    return {r: np.zeros(size, dtype=bool) for r in ranks}


def collect_demotion(writes, scattered, grain, size):
    """The planner's §5.6 verdict on exact write LMADs collected at
    ``grain``, with no copy valid from before the region: the grain to
    use and the reason for a demotion."""
    written, inflated = {}, {}
    for r, lmads in writes.items():
        written[r] = np.zeros(size, dtype=bool)
        for l in lmads:
            written[r] |= l.mask(size)
        inflated[r] = plan_mask(
            [t for l in lmads for t in plan_transfers(l, grain)], size
        )
    valid = np.zeros((max(writes) + 1, size), dtype=bool)
    for r1, r2, _n in collect_hazards(inflated):
        return FINE, f"{grain} regions of ranks {r1} and {r2} overlap"
    for r, n in stale_collects(inflated, written, valid, scattered):
        return FINE, f"{grain} region of rank {r} has {n} stale element(s)"
    return grain, None


def test_demotion_on_overlapping_coarse_regions():
    """Interleaved rank regions: coarse bounding boxes overlap -> fine."""
    size = 40
    writes = {
        0: [LMAD.from_counts("A", 0, [(2, 10)])],  # evens
        1: [LMAD.from_counts("A", 1, [(2, 10)])],  # odds
    }
    grain, reason = collect_demotion(writes, _no_scatter(size, [0, 1]), COARSE, size)
    assert grain == FINE
    assert "overlap" in reason


def test_no_demotion_for_disjoint_blocks():
    size = 40
    writes = {
        0: [LMAD.from_counts("A", 0, [(1, 10)])],
        1: [LMAD.from_counts("A", 20, [(1, 10)])],
    }
    grain, reason = collect_demotion(writes, _no_scatter(size, [0, 1]), COARSE, size)
    assert grain == COARSE and reason is None


def test_demotion_on_stale_inflation():
    """Middle inflation carries elements the rank neither wrote nor
    received -> fine."""
    size = 40
    writes = {1: [LMAD.from_counts("A", 0, [(3, 5)])]}
    grain, reason = collect_demotion(writes, _no_scatter(size, [1]), MIDDLE, size)
    assert grain == FINE
    assert "stale" in reason


def test_inflation_covered_by_scatter_is_safe():
    size = 40
    writes = {1: [LMAD.from_counts("A", 0, [(3, 5)])]}
    scattered = {1: np.ones(size, dtype=bool)}  # everything was scattered
    grain, reason = collect_demotion(writes, scattered, MIDDLE, size)
    assert grain == MIDDLE and reason is None


def test_inflation_covered_by_own_writes_is_safe():
    """The CFFZINIT pattern: two stride-2 LMADs unioning to full coverage."""
    size = 20
    writes = {
        1: [
            LMAD.from_counts("A", 0, [(2, 10)]),
            LMAD.from_counts("A", 1, [(2, 10)]),
        ]
    }
    grain, reason = collect_demotion(writes, _no_scatter(size, [1]), MIDDLE, size)
    assert grain == MIDDLE and reason is None


def test_fine_never_demoted():
    """Fine transfers are exact, so disjoint writes never trip it."""
    size = 10
    writes = {1: [LMAD.from_counts("A", 0, [(3, 3)])]}
    grain, reason = collect_demotion(writes, _no_scatter(size, [1]), FINE, size)
    assert grain == FINE and reason is None
