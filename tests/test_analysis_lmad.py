"""Tests for the LMAD: construction, algebra, and the paper's examples."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.analysis.access import LoopCtx, ref_lmad, whole_array
from repro.compiler.analysis.lmad import LMAD, Dim
from repro.compiler.frontend.parser import parse

# ---------------------------------------------------------------------------
# Dim / LMAD basics
# ---------------------------------------------------------------------------


def test_dim_count_and_offsets():
    d = Dim(stride=2, span=10)
    assert d.count == 6
    assert d.offsets().tolist() == [0, 2, 4, 6, 8, 10]


def test_dim_validation():
    with pytest.raises(ValueError):
        Dim(stride=-1, span=2)
    with pytest.raises(ValueError):
        Dim(stride=3, span=7)  # span not multiple of stride
    with pytest.raises(ValueError):
        Dim(stride=0, span=4)


def test_from_counts_negative_stride_normalizes():
    # Descending access: base folds to the minimum.
    l = LMAD.from_counts("A", 10, [(-2, 4)])
    assert l.base == 4
    assert l.enumerate().tolist() == [4, 6, 8, 10]


def test_enumerate_multidim():
    l = LMAD.from_counts("A", 0, [(3, 4), (14, 2), (28, 2)])
    pts = l.enumerate()
    expected = sorted(
        k * 3 + j * 14 + i * 28 for k in range(4) for j in range(2) for i in range(2)
    )
    assert pts.tolist() == expected


def test_geometry_properties():
    l = LMAD.from_counts("A", 5, [(2, 3), (10, 2)])
    assert l.min_offset == 5
    assert l.max_offset == 5 + 4 + 10
    assert l.extent == 15
    assert l.nominal_count == 6


def test_mask():
    l = LMAD.from_counts("A", 1, [(2, 3)])
    m = l.mask(8)
    assert m.tolist() == [False, True, False, True, False, True, False, False]
    with pytest.raises(ValueError):
        l.mask(4)


def test_overlaps_and_contains_exact():
    a = LMAD.from_counts("A", 0, [(2, 5)])  # 0 2 4 6 8
    b = LMAD.from_counts("A", 1, [(2, 5)])  # 1 3 5 7 9
    c = LMAD.from_counts("A", 4, [(4, 2)])  # 4 8
    assert not a.overlaps(b)  # interleaved odd/even
    assert a.overlaps(c)
    assert a.contains(c)
    assert not c.contains(a)
    assert not a.overlaps(LMAD.from_counts("B", 0, [(2, 5)]))  # other array


def test_overlaps_gcd_filter():
    a = LMAD.from_counts("A", 0, [(6, 100)])
    b = LMAD.from_counts("A", 3, [(6, 100)])
    assert not a.overlaps(b)  # both ≡ base mod 6, bases differ mod 3


def test_simplify_coalesces_contiguous_dims():
    # Rows of length 4 at stride 1, starting every 4: one dense run.
    l = LMAD.from_counts("A", 0, [(1, 4), (4, 3)])
    s = l.simplify()
    assert len(s.dims) == 1
    assert s.dims[0].stride == 1 and s.dims[0].span == 11
    assert s.is_contiguous
    assert np.array_equal(s.enumerate(), l.enumerate())


def test_simplify_drops_singleton_dims():
    l = LMAD("A", 7, (Dim(0, 0), Dim(2, 4)))
    s = l.simplify()
    assert len(s.dims) == 1


def test_simplify_keeps_gaps():
    l = LMAD.from_counts("A", 0, [(1, 3), (5, 2)])  # 0 1 2, 5 6 7
    s = l.simplify()
    assert not s.is_contiguous
    assert np.array_equal(s.enumerate(), l.enumerate())


def test_bounding():
    l = LMAD.from_counts("A", 3, [(4, 3)])  # 3 7 11
    b = l.bounding()
    assert b.is_contiguous
    assert b.min_offset == 3 and b.max_offset == 11
    assert b.count_distinct() == 9


def test_bounding_single_point():
    l = LMAD("A", 5, ())
    assert l.bounding().enumerate().tolist() == [5]


@settings(max_examples=60)
@given(
    base=st.integers(0, 50),
    dims=st.lists(
        st.tuples(st.integers(-6, 6).filter(lambda s: s != 0), st.integers(1, 6)),
        min_size=0,
        max_size=3,
    ),
)
def test_property_enumerate_matches_bruteforce(base, dims):
    """LMAD enumeration equals brute-force cross-product enumeration."""
    l = LMAD.from_counts("A", base, dims)
    brute = {base}
    for stride, count in dims:
        brute = {b + stride * k for b in brute for k in range(count)}
    assert set(l.enumerate().tolist()) == brute


@settings(max_examples=60)
@given(
    b1=st.integers(0, 30),
    b2=st.integers(0, 30),
    d1=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=2),
    d2=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=2),
)
def test_property_overlaps_contains_vs_sets(b1, b2, d1, d2):
    """overlaps/contains agree with set semantics on small descriptors."""
    x = LMAD.from_counts("A", b1, d1)
    y = LMAD.from_counts("A", b2, d2)
    sx = set(x.enumerate().tolist())
    sy = set(y.enumerate().tolist())
    assert x.overlaps(y) == bool(sx & sy)
    assert x.contains(y) == (sy <= sx)


@settings(max_examples=60)
@given(
    base=st.integers(0, 20),
    dims=st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 5)), min_size=1, max_size=3
    ),
)
def test_property_simplify_preserves_point_set(base, dims):
    l = LMAD.from_counts("A", base, dims)
    assert np.array_equal(l.simplify().enumerate(), l.enumerate())


# ---------------------------------------------------------------------------
# The paper's figures
# ---------------------------------------------------------------------------


def _unit(src):
    return parse(src).main


def test_figure2_stride2_access():
    """Fig 2: DO i=1,11,2 touching A(i) — stride 2, span 10."""
    unit = _unit("""
      PROGRAM P
      REAL*8 A(12)
      DO I = 1, 11, 2
        A(I) = 0.0
      ENDDO
      END
""")
    loop = unit.body[0]
    ctx = LoopCtx("I", 1, 11, 2)
    l = ref_lmad(loop.body[0].lhs, unit.symtab, [ctx])
    assert l.base == 0
    assert l.dims[0].stride == 2 and l.dims[0].span == 10
    assert l.enumerate().tolist() == [0, 2, 4, 6, 8, 10]


def test_figure3_variant_stride_expression():
    """Fig 3: DO i=1,4 touching A(i*2-1) — consistent stride 2."""
    unit = _unit("""
      PROGRAM P
      REAL*8 A(8)
      DO I = 1, 4
        A(I*2-1) = 0.0
      ENDDO
      END
""")
    loop = unit.body[0]
    ctx = LoopCtx("I", 1, 4, 1)
    l = ref_lmad(loop.body[0].lhs, unit.symtab, [ctx])
    assert l.dims[0].stride == 2
    assert l.enumerate().tolist() == [0, 2, 4, 6]


def test_figure4_triple_nest_lmad():
    """Fig 4: REAL A(14,*), A(K, J+2*(I-1)) under DO I/J/K=1,10,3."""
    unit = _unit("""
      PROGRAM P
      REAL*8 A(14,4)
      DO I = 1, 2
        DO J = 1, 2
          DO K = 1, 10, 3
            A(K, J+2*(I-1)) = 0.0
          ENDDO
        ENDDO
      ENDDO
      END
""")
    ctxs = [LoopCtx("I", 1, 2, 1), LoopCtx("J", 1, 2, 1), LoopCtx("K", 1, 10, 3)]
    ref = unit.body[0].body[0].body[0].body[0].lhs
    l = ref_lmad(ref, unit.symtab, ctxs)
    strides = sorted(d.stride for d in l.dims)
    spans = sorted(d.span for d in l.dims)
    assert strides == [3, 14, 28]
    assert spans == [9, 14, 28]
    assert l.base == 0
    assert l.count_distinct() == 16


def test_whole_array_fallback_for_nonaffine():
    unit = _unit("""
      PROGRAM P
      REAL*8 A(10)
      INTEGER IDX(10)
      DO I = 1, 10
        A(IDX(I)) = 0.0
      ENDDO
      END
""")
    ref = unit.body[0].body[0].lhs
    l = ref_lmad(ref, unit.symtab, [LoopCtx("I", 1, 10, 1)])
    assert l.count_distinct() == 10  # whole array
    assert l.is_contiguous


def test_loop_invariant_reference_has_no_dim():
    unit = _unit("""
      PROGRAM P
      REAL*8 A(10)
      DO I = 1, 10
        A(3) = 1.0
      ENDDO
      END
""")
    ref = unit.body[0].body[0].lhs
    l = ref_lmad(ref, unit.symtab, [LoopCtx("I", 1, 10, 1)])
    assert l.dims == ()
    assert l.base == 2


def test_whole_array_helper():
    unit = _unit("""
      PROGRAM P
      REAL*8 B(6,2)
      END
""")
    l = whole_array(unit.symtab.lookup("B"))
    assert l.count_distinct() == 12 and l.is_contiguous


# -- memoized enumeration vs the legacy np.unique reference -----------------
def _reference_points(lm: LMAD) -> np.ndarray:
    """Every offset, by brute-force product then ``np.unique``."""
    pts = np.array([lm.base], dtype=np.int64)
    for d in lm.dims:
        pts = (pts[:, None] + d.offsets()[None, :]).ravel()
    return np.unique(pts)


def test_enumeration_matches_legacy_reference():
    cases = [
        LMAD("A", 0, (Dim(1, 7), Dim(8, 24))),        # dense row-major
        LMAD("A", 5, (Dim(2, 10), Dim(3, 9))),        # overlapping strides
        LMAD("A", 0, (Dim(4, 12), Dim(1, 2), Dim(16, 48))),
        LMAD("A", 100, ()),                            # scalar
        LMAD("A", 0, (Dim(0, 0), Dim(5, 20))),         # degenerate dim
    ]
    for lm in cases:
        fast = lm.enumerate()
        assert not fast.flags.writeable
        np.testing.assert_array_equal(fast, _reference_points(lm))


def test_overlaps_contains_match_legacy_reference():
    a = LMAD("A", 0, (Dim(2, 10), Dim(3, 9)))
    b = LMAD("A", 1, (Dim(2, 10),))
    c = LMAD("A", 0, (Dim(1, 20),))
    pairs = [(a, b), (a, c), (b, c), (c, a), (c, b)]
    fast = [(x.overlaps(y), x.contains(y)) for x, y in pairs]
    reference = []
    for x, y in pairs:
        theirs = _reference_points(y)
        inter = np.intersect1d(_reference_points(x), theirs, assume_unique=True)
        reference.append((len(inter) > 0, len(inter) == len(theirs)))
    assert fast == reference
