"""Tests for the granularity auto-tuner's uniform-grain answers."""

import numpy as np
import pytest

from repro.compiler.pipeline import compile_source
from repro.compiler.postpass.granularity import GRAINS
from repro.runtime.executor import run_program
from repro.tools.tuneplan import tune_per_region
from repro.workloads import cffzinit, mm


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
