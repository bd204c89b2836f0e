"""Tests for the granularity auto-tuner's uniform-grain answers."""

import numpy as np
import pytest

from repro.compiler.pipeline import compile_source
from repro.compiler.postpass.granularity import GRAINS
from repro.runtime.executor import run_program
from repro.tools.tuneplan import TunePlan, tune_per_region
from repro.workloads import cffzinit, mm, source_for


def test_autotune_picks_a_grain_and_returns_program():
    src = mm.source(16)
    plan = tune_per_region(src, nprocs=4, metric="comm", cache_dir=None)
    assert plan.default_grain in GRAINS
    prog = compile_source(src, options=plan.options())
    assert prog.options.granularity == plan.default_grain
    assert "per-region tune plan" in plan.summary()


def test_autotune_cffzinit_prefers_approximate_grains():
    """Stride-2 regions: fine (strided PIO) must never win."""
    plan = tune_per_region(
        cffzinit.source(9), nprocs=4, metric="comm", cache_dir=None
    )
    assert "fine" not in {d.grain for d in plan.decisions}


def test_autotune_comm_cpu_metric_mm():
    """On the CPU metric, MM's coarse aggregation wins (Table 2 shape)."""
    plan = tune_per_region(
        mm.source(48), nprocs=4, metric="comm_cpu", cache_dir=None
    )
    assert plan.default_grain == "coarse" and not plan.mixed


def test_autotuned_program_is_runnable_and_correct():
    src = mm.source(12)
    plan = tune_per_region(src, nprocs=4, cache_dir=None)
    init = mm.init_arrays(12)
    r = run_program(compile_source(src, options=plan.options()), init=init)
    assert np.allclose(r.memory.shaped("C"), mm.reference(init))


def test_autotune_metric_validation():
    with pytest.raises(ValueError):
        tune_per_region(mm.source(8), metric="vibes", cache_dir=None)


def test_counters_stay_out_of_the_artifact():
    plan = tune_per_region(
        source_for("MM-16"), nprocs=4, metric="comm", backend="vbus",
        cache_dir=None,
    )
    assert plan.evaluated_candidates > 0
    row = plan.to_jsonable()
    assert "evaluated_candidates" not in row
    assert "pruned_candidates" not in row
    # ...so round-tripped plans count zero but still compare equal.
    again = TunePlan.from_jsonable(row)
    assert again.evaluated_candidates == 0
    assert again == plan


def test_tune_loop_runs_no_verifier(monkeypatch):
    """The search prices every compiled candidate; `repro check` never
    runs inside it."""
    import repro.tools.check as check_mod

    def verifier(*args, **kwargs):
        raise AssertionError("check_program ran inside the tune loop")

    monkeypatch.setattr(check_mod, "check_program", verifier)
    plan = tune_per_region(
        source_for("MM-24"), backend="gige", tune_partition=True,
        cache_dir=None,
    )
    assert plan.default_grain in GRAINS
    assert plan.pruned_candidates == 0
