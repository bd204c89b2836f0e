"""Wall-clock benchmark of the simulation stack, run through ``repro.sweep``.

Unlike the ``bench_*`` figure reproductions (which report *simulated*
seconds), this script measures **host wall-clock seconds**.  Every run
takes the default batched transfer accounting; the stepwise oracle is
pinned by the equivalence tests, not re-measured here.

The first phase expands a benchmark suite (MM/SWIM/CFFZINIT at nprocs 4
and 16) into a ``repro.sweep`` grid and times it three ways: serially
into a cold result cache, on the ``--jobs 4`` process pool into another
cold cache, and again on the pool against the now-warm cache.  It
asserts the serial and ``--jobs 4`` JSONL outputs are **byte-identical**
(the sweep determinism contract, docs/SWEEP.md), that every warm job is
a content-addressed cache hit, and that every job ends ``ok``.

A second phase benchmarks the **per-region autotuner** (docs/AUTOTUNE.md)
against a 3-recompile global baseline: for each cell the baseline
clears the analysis caches once, then compiles and timing-profiles all
three uniform grains (what a whole-program tuner has to do), then the
per-region search runs cold (analytic model + targeted profiles)
and warm (plan-cache hit).  The tuned plan's comm metric is asserted
never to lose to the best global grain.

A third phase benchmarks the **joint grain x partition search**
(``tune_per_region(tune_partition=True)``, docs/PARTITION.md) against
the naive alternative: compile and profile every grain x strategy
variant (3 x 2 = 6) from cold caches.  The joint tuner shares one
analysis cache across variants and replaces per-variant profiles with
the analytic model plus targeted probes, so its cold wall-clock must
stay at or under ``0.8x`` the naive suite while its tuned plan never
loses the comm metric to the best uniform variant.

A fourth phase benchmarks the **trace-calibrated joint search**
(``tune_per_region(calibration=...)``, docs/AUTOTUNE.md) against the
uncalibrated joint tuner on the same cells: the fitted constants let the
family-arbitration prune skip flip probes in both directions, so the
calibrated search must choose the *same plan* on every cell while
issuing no more instrumented profiles anywhere, strictly fewer on at
least one Ethernet cell, and finishing at or under ``0.85x`` the
uncalibrated suite wall-clock.  The one-time microbenchmark fit is
timed separately (it is a content-address-cached artifact, amortized
across every later tune).

Each ratio gate times its two sides as the **median of interleaved
repeats**, as perfbench does (perfbench/METHOD.md): every cell runs
baseline, tuner, baseline, tuner, ... ``REPEATS`` times, from cleared
analysis caches (and a fresh plan cache for a cold tune), so drift in
host load hits both sides alike.  A suite's ratio is the sum of its
cells' tuner medians over the sum of their baseline medians.

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_wallclock.py [--quick] [-o OUT]

Results are written to ``BENCH_WALLCLOCK.json`` at the repository root
(``DEFAULT_OUTPUT``; ``tools/run_benchmarks.sh`` reads the same name).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import tempfile
import time

from repro.compiler.analysis import lmad as lmad_mod
from repro.compiler.pipeline import clear_compile_cache, compile_source
from repro.runtime.executor import run_program
from repro.sweep import run_sweep, write_jsonl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Where results go unless ``-o`` says otherwise.
DEFAULT_OUTPUT = os.path.join(ROOT, "BENCH_WALLCLOCK.json")

NPROCS = (4, 16)

#: (workload spec, backend) cells for the autotuner phase.  All on
#: switched GigE, where per-message latency vs redundant bytes is the
#: live trade-off (EXPERIMENTS.md); XOVER is the mixed-plan cell.
AUTOTUNE_CELLS = (
    ("XOVER-256", "gige"),
    ("MM-256", "gige"),
    ("SWIM-64x2", "gige"),
)

#: Required tuner-vs-baseline wall-clock ratio (suite-level, cold).
AUTOTUNE_RATIO_TARGET = 0.7

#: (workload spec, backend) cells for the joint grain x partition phase.
#: PXOVER is the partition-crossover kernel (triangular + stencil with
#: opposing §5.3 preferences); MM on switched GigE is the cell where the
#: paper's block-by-default rule loses to cyclic, so the joint tuner has
#: to out-tune ``auto`` there.  MM sits second so ``--quick`` (the first
#: two cells) keeps one MM cell whose shared-analysis-cache savings
#: anchor the ratio: a PXOVER cell alone sits near 1.0x structurally
#: (the joint tuner compiles 7-8 programs vs the naive sweep's 6, and
#: PXOVER compiles are too small for cache sharing to pay that back).
PARTITION_CELLS = (
    ("PXOVER-48", "gige"),
    ("MM-256", "gige"),
    ("PXOVER-48", "ethernet100"),
    ("MM-96", "ethernet100"),
)

#: Required joint-tuner-vs-naive wall-clock ratio (suite-level, cold).
PARTITION_RATIO_TARGET = 0.8

#: Required calibrated-vs-uncalibrated joint-tuner wall-clock ratio
#: (suite-level, cold plan caches, fit time excluded — the fit is a
#: cached one-time artifact shared by every tune of the same backend).
CALIBRATION_RATIO_TARGET = 0.85


def _suite_grid(quick: bool):
    """The suite as a declarative sweep grid (MM-1024 unless ``quick``)."""
    workloads = ["MM-256", "SWIM-64", "CFFZINIT-9"]
    if not quick:
        workloads.insert(1, "MM-1024")
    return {
        "name": "bench-wallclock",
        "axes": {"workload": workloads, "nprocs": list(NPROCS)},
        "defaults": {"backend": "vbus", "granularity": "fine"},
    }


#: Interleaved repeats per ratio-gate cell; each side's time is the
#: median of its repeats.
REPEATS = 5


def _clear_analysis_caches():
    clear_compile_cache()
    lmad_mod._enumerate_impl.cache_clear()
    lmad_mod._intersect_count.cache_clear()


def _interleaved_medians(*sides):
    """Median seconds of each zero-argument callable, and its last result.

    The sides run in turn, ``REPEATS`` rounds, each from cleared
    analysis caches (the clearing is not timed).
    """
    times = [[] for _ in sides]
    results = [None] * len(sides)
    for _ in range(REPEATS):
        for i, side in enumerate(sides):
            _clear_analysis_caches()
            t0 = time.perf_counter()
            results[i] = side()
            times[i].append(time.perf_counter() - t0)
    return [statistics.median(t) for t in times], results


def _timed_sweep(grid, *, jobs, cache_dir):
    t0 = time.perf_counter()
    result = run_sweep(grid, jobs=jobs, cache_dir=cache_dir)
    return result, time.perf_counter() - t0


def _autotune_suite(quick: bool):
    """Per-region search vs the 3-recompile global baseline."""
    from repro.compiler.postpass.granularity import GRAINS
    from repro.sweep.runner import cluster_params
    from repro.tools.tuneplan import tune_per_region
    from repro.workloads import source_for

    cells = AUTOTUNE_CELLS[:2] if quick else AUTOTUNE_CELLS
    rows = []
    baseline_total = tuned_total = 0.0
    cache = tempfile.mkdtemp(prefix="bench-tuneplan-")
    try:
        for spec, backend in cells:
            source = source_for(spec)
            params = cluster_params(backend, 4)

            def baseline():
                return {
                    grain: run_program(
                        compile_source(source, nprocs=4, granularity=grain),
                        cluster_params=params, execute=False,
                    ).comm_max_s
                    for grain in GRAINS
                }

            def tuned():
                plan_dir = tempfile.mkdtemp(dir=cache)  # a cold plan cache
                return plan_dir, tune_per_region(
                    source, nprocs=4, metric="comm", backend=backend,
                    cache_dir=plan_dir,
                )

            (baseline_s, tuned_s), (global_comm, (plan_dir, plan)) = (
                _interleaved_medians(baseline, tuned)
            )

            t2 = time.perf_counter()
            warm = tune_per_region(
                source, nprocs=4, metric="comm", backend=backend,
                cache_dir=plan_dir,
            )
            warm_s = time.perf_counter() - t2
            if not warm.cached:
                raise SystemExit(f"{spec}/{backend}: warm plan-cache miss")

            mixed_prog = compile_source(source, options=plan.options())
            tuned_comm = run_program(
                mixed_prog, cluster_params=params, execute=False
            ).comm_max_s
            best_global = min(global_comm.values())
            if tuned_comm > best_global:
                raise SystemExit(
                    f"{spec}/{backend}: tuned plan loses to best global "
                    f"({tuned_comm} > {best_global})"
                )

            baseline_total += baseline_s
            tuned_total += tuned_s
            ratio = tuned_s / baseline_s
            rows.append({
                "workload": spec,
                "backend": backend,
                "baseline_3recompile_s": round(baseline_s, 4),
                "tuner_cold_s": round(tuned_s, 4),
                "tuner_warm_s": round(warm_s, 4),
                "ratio": round(ratio, 3),
                "profile_runs": plan.profiles,
                "mixed": plan.mixed,
                "tuned_comm_s": tuned_comm,
                "best_global_comm_s": best_global,
                "strict_win": tuned_comm < best_global,
            })
            print(
                f"{spec:12s} {backend:6s} baseline {baseline_s:6.3f}s  "
                f"tuner {tuned_s:6.3f}s ({ratio:4.2f}x)  "
                f"warm {warm_s * 1e3:6.1f}ms  "
                f"profiles {plan.profiles}  "
                f"{'mixed' if plan.mixed else 'uniform'}"
                f"{' STRICT WIN' if tuned_comm < best_global else ''}"
            )
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return rows, baseline_total, tuned_total


def _partition_suite(quick: bool):
    """Joint grain x partition search vs the naive 6-recompile sweep."""
    from repro.compiler.pipeline import CompileOptions
    from repro.compiler.postpass.partition import STRATEGIES
    from repro.sweep.runner import GRANULARITIES, cluster_params
    from repro.tools.tuneplan import tune_per_region
    from repro.workloads import source_for

    cells = PARTITION_CELLS[:2] if quick else PARTITION_CELLS
    rows = []
    baseline_total = tuned_total = 0.0
    cache = tempfile.mkdtemp(prefix="bench-partplan-")
    try:
        for spec, backend in cells:
            source = source_for(spec)
            params = cluster_params(backend, 4)

            # Naive baseline: every grain x strategy variant, compiled
            # and profiled from fully cold caches — what a user without
            # the joint tuner would script.
            def naive():
                comm = {}
                for grain in GRANULARITIES:
                    for strategy in STRATEGIES:
                        _clear_analysis_caches()
                        prog = compile_source(
                            source,
                            options=CompileOptions(
                                nprocs=4, granularity=grain,
                                partition=strategy,
                            ),
                        )
                        rep = run_program(
                            prog, cluster_params=params, execute=False
                        )
                        comm[f"{grain}/{strategy}"] = rep.comm_max_s
                return comm

            def joint():
                plan_dir = tempfile.mkdtemp(dir=cache)  # a cold plan cache
                return plan_dir, tune_per_region(
                    source, nprocs=4, metric="comm", backend=backend,
                    cache_dir=plan_dir, tune_partition=True,
                )

            (baseline_s, tuned_s), (naive_comm, (plan_dir, plan)) = (
                _interleaved_medians(naive, joint)
            )

            t2 = time.perf_counter()
            warm = tune_per_region(
                source, nprocs=4, metric="comm", backend=backend,
                cache_dir=plan_dir, tune_partition=True,
            )
            warm_s = time.perf_counter() - t2
            if not warm.cached:
                raise SystemExit(
                    f"{spec}/{backend}: warm joint plan-cache miss"
                )

            mixed_prog = compile_source(source, options=plan.options())
            tuned_comm = run_program(
                mixed_prog, cluster_params=params, execute=False
            ).comm_max_s
            best_uniform = min(naive_comm.values())
            if tuned_comm > best_uniform * (1 + 1e-9):
                raise SystemExit(
                    f"{spec}/{backend}: joint plan loses to best uniform "
                    f"variant ({tuned_comm} > {best_uniform})"
                )

            baseline_total += baseline_s
            tuned_total += tuned_s
            ratio = tuned_s / baseline_s
            rows.append({
                "workload": spec,
                "backend": backend,
                "baseline_6recompile_s": round(baseline_s, 4),
                "tuner_cold_s": round(tuned_s, 4),
                "tuner_warm_s": round(warm_s, 4),
                "ratio": round(ratio, 3),
                "profile_runs": plan.profiles,
                "mixed": plan.mixed,
                "partition_map": {
                    str(k): v for k, v in sorted(plan.partition_map.items())
                },
                "tuned_comm_s": tuned_comm,
                "best_uniform_comm_s": best_uniform,
                "strict_win": tuned_comm < best_uniform,
            })
            print(
                f"{spec:12s} {backend:12s} naive x6 {baseline_s:6.3f}s  "
                f"joint {tuned_s:6.3f}s ({ratio:4.2f}x)  "
                f"warm {warm_s * 1e3:6.1f}ms  "
                f"profiles {plan.profiles}  "
                f"{'mixed' if plan.mixed else 'uniform'}"
                f"{' STRICT WIN' if tuned_comm < best_uniform else ''}"
            )
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return rows, baseline_total, tuned_total


def _calibration_suite(quick: bool):
    """Calibrated vs uncalibrated joint tuner on the partition cells."""
    from repro.sweep.runner import cluster_params
    from repro.tools.calibrate import calibrate
    from repro.tools.tuneplan import tune_per_region
    from repro.workloads import source_for

    cells = PARTITION_CELLS[:2] if quick else PARTITION_CELLS
    rows = []
    uncal_total = cal_total = fit_total = 0.0
    cache = tempfile.mkdtemp(prefix="bench-calib-")
    try:
        models = {}
        for _spec, backend in cells:
            if backend not in models:
                t0 = time.perf_counter()
                models[backend] = calibrate(backend, nprocs=4, cache_dir=cache)
                fit_total += time.perf_counter() - t0
        for spec, backend in cells:
            source = source_for(spec)
            params = cluster_params(backend, 4)
            model = models[backend]

            (uncal_s, cal_s), (uncal, cal) = _interleaved_medians(
                lambda: tune_per_region(
                    source, nprocs=4, metric="comm", backend=backend,
                    cache_dir=None, tune_partition=True,
                ),
                lambda: tune_per_region(
                    source, nprocs=4, metric="comm", backend=backend,
                    cache_dir=None, tune_partition=True, calibration=model,
                ),
            )

            # Calibration may only change how *fast* the search decides,
            # never what it decides on these cells.
            same_plan = (
                cal.default_grain == uncal.default_grain
                and cal.grain_map == uncal.grain_map
                and cal.partition_map == uncal.partition_map
            )
            if not same_plan:
                raise SystemExit(
                    f"{spec}/{backend}: calibrated plan diverged "
                    f"({cal.options()} != {uncal.options()})"
                )
            prog = compile_source(source, options=cal.options())
            digest = run_program(
                prog, cluster_params=params, execute=True
            ).to_jsonable()["array_digest"]
            uncal_prog = compile_source(source, options=uncal.options())
            uncal_digest = run_program(
                uncal_prog, cluster_params=params, execute=True
            ).to_jsonable()["array_digest"]
            if digest != uncal_digest:
                raise SystemExit(
                    f"{spec}/{backend}: calibrated plan digest diverged"
                )
            if cal.profiles > uncal.profiles:
                raise SystemExit(
                    f"{spec}/{backend}: calibration added profiles "
                    f"({cal.profiles} > {uncal.profiles})"
                )

            uncal_total += uncal_s
            cal_total += cal_s
            ratio = cal_s / uncal_s
            rows.append({
                "workload": spec,
                "backend": backend,
                "uncalibrated_s": round(uncal_s, 4),
                "calibrated_s": round(cal_s, 4),
                "ratio": round(ratio, 3),
                "uncalibrated_profiles": uncal.profiles,
                "calibrated_profiles": cal.profiles,
                "plan_identical": True,
                "digest_identical": True,
            })
            print(
                f"{spec:12s} {backend:12s} uncal {uncal_s:6.3f}s "
                f"({uncal.profiles}p)  cal {cal_s:6.3f}s "
                f"({cal.profiles}p, {ratio:4.2f}x)  plan identical"
            )
        fewer = [
            r for r in rows
            if r["calibrated_profiles"] < r["uncalibrated_profiles"]
        ]
        if not fewer:
            raise SystemExit(
                "calibration pruned zero flip probes on every cell"
            )
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return rows, uncal_total, cal_total, fit_total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="skip the MM-1024 scale (CI smoke run)")
    ap.add_argument("-o", "--output", default=DEFAULT_OUTPUT)
    args = ap.parse_args(argv)

    grid = _suite_grid(args.quick)
    tmp = tempfile.mkdtemp(prefix="bench-sweep-")
    try:
        print("== sweep engine ==")
        serial_dir = os.path.join(tmp, "serial")
        jobs4_dir = os.path.join(tmp, "jobs4")
        serial_res, serial_s = _timed_sweep(grid, jobs=1, cache_dir=serial_dir)
        jobs4_res, jobs4_s = _timed_sweep(grid, jobs=4, cache_dir=jobs4_dir)
        warm_res, warm_s = _timed_sweep(grid, jobs=4, cache_dir=jobs4_dir)

        serial_out = os.path.join(tmp, "serial.jsonl")
        jobs4_out = os.path.join(tmp, "jobs4.jsonl")
        write_jsonl(serial_res.rows, serial_out)
        write_jsonl(jobs4_res.rows, jobs4_out)
        with open(serial_out, "rb") as fh:
            serial_bytes = fh.read()
        with open(jobs4_out, "rb") as fh:
            jobs4_bytes = fh.read()
        if serial_bytes != jobs4_bytes:
            raise SystemExit(
                "sweep determinism violated: serial and --jobs 4 JSONL differ"
            )
        if warm_res.hits != len(warm_res.rows):
            raise SystemExit(
                f"warm sweep expected all cache hits, got "
                f"{warm_res.hits}/{len(warm_res.rows)}"
            )
        bad = [r for r in jobs4_res.rows if r["status"] != "ok"]
        if bad:
            raise SystemExit(f"sweep jobs failed: {bad}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("\n== per-region autotuner vs 3-recompile global baseline ==")
    tune_rows, tune_baseline_s, tune_cold_s = _autotune_suite(args.quick)
    tune_ratio = tune_cold_s / tune_baseline_s
    print(f"autotune suite: baseline {tune_baseline_s:.3f}s, "
          f"per-region tuner {tune_cold_s:.3f}s "
          f"({tune_ratio:.2f}x, target <= {AUTOTUNE_RATIO_TARGET}x)")

    print("\n== joint grain x partition tuner vs naive 6-recompile sweep ==")
    part_rows, part_baseline_s, part_cold_s = _partition_suite(args.quick)
    part_ratio = part_cold_s / part_baseline_s
    print(f"partition suite: naive {part_baseline_s:.3f}s, "
          f"joint tuner {part_cold_s:.3f}s "
          f"({part_ratio:.2f}x, target <= {PARTITION_RATIO_TARGET}x)")

    print("\n== calibrated vs uncalibrated joint tuner ==")
    cal_rows, cal_uncal_s, cal_cold_s, cal_fit_s = _calibration_suite(
        args.quick
    )
    cal_ratio = cal_cold_s / cal_uncal_s
    print(f"calibration suite: uncalibrated {cal_uncal_s:.3f}s, "
          f"calibrated {cal_cold_s:.3f}s "
          f"({cal_ratio:.2f}x, target <= {CALIBRATION_RATIO_TARGET}x; "
          f"one-time fit {cal_fit_s:.3f}s, cached)")

    print(f"sweep serial cold : {serial_s:7.3f}s")
    print(f"sweep --jobs 4    : {jobs4_s:7.3f}s")
    print(f"sweep warm cache  : {warm_s:7.3f}s  "
          f"({warm_res.hits}/{len(warm_res.rows)} hits)")
    print("serial vs --jobs 4 JSONL: byte-identical")

    payload = {
        "benchmark": "bench_wallclock",
        "ratio_method": (f"per side, the median of {REPEATS} interleaved "
                         "repeats per cell, summed over the suite"),
        "metric": "host wall-clock seconds to compile + simulate the suite",
        "sweep": ("repro.sweep grid on a ProcessPoolExecutor with a "
                  "content-addressed result cache (docs/SWEEP.md)"),
        "suite": {
            "configs": len(jobs4_res.rows),
            "sweep_serial_cold_s": round(serial_s, 4),
            "sweep_jobs4_cold_s": round(jobs4_s, 4),
            "sweep_jobs4_warm_s": round(warm_s, 4),
            "parallel_vs_serial_sweep": round(serial_s / jobs4_s, 2),
            "byte_identical": True,
            "warm_cache_hits": warm_res.hits,
        },
        "autotune": {
            "baseline": ("3-recompile global baseline: one analysis-cache "
                         "clear, then compile + timing-mode profile at "
                         "all three uniform grains"),
            "tuner": ("per-region search (docs/AUTOTUNE.md): "
                      "analytic cost model + targeted instrumented "
                      "profiles, plan cache cold"),
            "cells": len(tune_rows),
            "baseline_s": round(tune_baseline_s, 4),
            "tuner_cold_s": round(tune_cold_s, 4),
            "ratio": round(tune_ratio, 3),
            "ratio_target": AUTOTUNE_RATIO_TARGET,
            "rows": tune_rows,
        },
        "partition_autotune": {
            "baseline": ("naive sweep: compile + timing-mode profile of "
                         "every grain x strategy variant (3 x 2 = 6), "
                         "cold caches per variant"),
            "tuner": ("joint per-region grain x partition search "
                      "(docs/PARTITION.md): shared analysis caches, "
                      "analytic cost model with a fence-skew imbalance "
                      "term, targeted probes, plan cache cold"),
            "cells": len(part_rows),
            "baseline_s": round(part_baseline_s, 4),
            "tuner_cold_s": round(part_cold_s, 4),
            "ratio": round(part_ratio, 3),
            "ratio_target": PARTITION_RATIO_TARGET,
            "rows": part_rows,
        },
        "calibration": {
            "baseline": ("uncalibrated joint tuner: static §5.6 analytic "
                         "model, directional family-arbitration prune"),
            "tuner": ("calibrated joint tuner (docs/AUTOTUNE.md): "
                      "trace-fitted constants re-price the family "
                      "champions, symmetric clear-margin prune skips "
                      "flip probes both ways; plans must stay identical"),
            "cells": len(cal_rows),
            "uncalibrated_s": round(cal_uncal_s, 4),
            "calibrated_s": round(cal_cold_s, 4),
            "fit_s": round(cal_fit_s, 4),
            "ratio": round(cal_ratio, 3),
            "ratio_target": CALIBRATION_RATIO_TARGET,
            "profiles_pruned": sum(
                r["uncalibrated_profiles"] - r["calibrated_profiles"]
                for r in cal_rows
            ),
            "rows": cal_rows,
        },
    }
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"\nwrote {args.output}")

    rc = 0
    if tune_ratio > AUTOTUNE_RATIO_TARGET:
        print(f"WARNING: autotune ratio {tune_ratio:.2f}x above the "
              f"{AUTOTUNE_RATIO_TARGET}x target")
        rc = 1
    if part_ratio > PARTITION_RATIO_TARGET:
        print(f"WARNING: partition autotune ratio {part_ratio:.2f}x above "
              f"the {PARTITION_RATIO_TARGET}x target")
        rc = 1
    if cal_ratio > CALIBRATION_RATIO_TARGET:
        print(f"WARNING: calibration ratio {cal_ratio:.2f}x above the "
              f"{CALIBRATION_RATIO_TARGET}x target")
        rc = 1
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
