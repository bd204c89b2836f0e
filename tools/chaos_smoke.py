"""CI chaos smoke: seeded fault plans over real workloads + overhead check.

Two jobs, both fast enough for every CI run:

1. **Chaos sweep** — three seeded fault plans x two workloads, expressed
   as a ``repro.sweep`` grid (``faults`` is a sweep axis; ``null`` is the
   fault-free control).  Each faulted job must end in one of the two
   contracted outcomes (docs/FAULTS.md): *recovered* (its row's
   ``array_digest`` matches the control row's — bit-identical numeric
   state) or a *typed* ``MpiFaultError`` (a ``fault`` row).  Anything
   else — silent corruption, an untyped ``error`` row — fails the smoke.
   The sweep runs uncached: a smoke that replays cached rows would stop
   exercising the fault layer.

2. **Fault-off overhead** — with the fault layer merged but *no* plan
   active, the per-transfer injection hooks must be near-free.  The
   script times the MM-256 fast-path run and compares against the
   ``fast_run_s`` recorded in ``BENCH_PR6.json`` (same machine, measured
   by the per-config phase ``benchmarks/bench_wallclock.py`` had then).
   The <1% target is a soft threshold: wall-clock noise on shared CI
   easily exceeds it, so a miss prints a WARNING instead of failing the
   build.

Run directly (no pytest needed)::

    PYTHONPATH=src python tools/chaos_smoke.py [--skip-overhead] [--jobs N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.compiler.pipeline import compile_source
from repro.faults import FaultPlan, FaultSpec
from repro.runtime.executor import run_program
from repro.sweep import run_sweep
from repro.vbus.params import VBUS_SKWP, cluster_for
from repro.workloads import mm

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

OVERHEAD_SOFT_PCT = 1.0

#: The smoke plans: one pure-loss plan, one corruption+jitter plan, and
#: one availability plan (stall + kill) expected to end in a typed error.
PLANS = [
    (
        "drop5",
        FaultPlan(
            seed=11, specs=(FaultSpec(kind="drop", rate=0.05),), max_sim_s=10.0
        ),
    ),
    (
        "corrupt+delay",
        FaultPlan(
            seed=22,
            specs=(
                FaultSpec(kind="corrupt", rate=0.03),
                FaultSpec(kind="delay", rate=0.2, delay_s=5e-6),
            ),
            max_sim_s=10.0,
        ),
    ),
    (
        "stall+kill",
        FaultPlan(
            seed=33,
            specs=(
                FaultSpec(kind="stall", node=1, t0=0.0, t1=1e-4),
                FaultSpec(kind="kill", node=2, at_s=2e-4),
            ),
            max_sim_s=10.0,
        ),
    ),
]

WORKLOADS = ("JACOBI-16x2", "MM-12")


def _chaos_grid():
    """The smoke as a sweep grid: faults is just another axis."""
    return {
        "name": "chaos-smoke",
        "axes": {
            "workload": list(WORKLOADS),
            # null = the fault-free control each faulted run is compared to.
            "faults": [None] + [json.loads(p.to_json()) for _, p in PLANS],
        },
        "defaults": {
            "nprocs": 4,
            "granularity": "coarse",
            "execute": True,
        },
    }


def _plan_name(faults) -> str:
    if faults is None:
        return "(clean)"
    for name, plan in PLANS:
        if json.loads(plan.to_json()) == faults:
            return name
    return "?"


def chaos_sweep(jobs: int) -> int:
    result = run_sweep(_chaos_grid(), jobs=jobs, cache_dir=None)
    clean_digest = {
        row["workload"]: (row.get("result") or {}).get("array_digest")
        for row in result.rows
        if row["faults"] is None
    }
    failures = 0
    print(f"{'workload':10s} {'plan':14s} {'outcome':34s} detail")
    for row in result.rows:
        wname = row["workload"]
        pname = _plan_name(row["faults"])
        if row["faults"] is None:
            if row["status"] != "ok":
                failures += 1
                err = row.get("error") or {}
                print(
                    f"{wname:10s} {pname:14s} {'CLEAN RUN FAILED (fail)':34s} "
                    f"{err.get('type')}: {err.get('message')}"
                )
            continue
        if row["status"] == "fault":
            err = row["error"]
            print(
                f"{wname:10s} {pname:14s} {'typed error (ok)':34s} "
                f"{err['type']}"
            )
            continue
        if row["status"] == "error":
            failures += 1
            err = row["error"]
            print(
                f"{wname:10s} {pname:14s} {'UNTYPED ERROR (fail)':34s} "
                f"{err['type']}: {err['message']}"
            )
            continue
        res = row["result"]
        fs = res["fault_stats"]
        detail = (
            f"{int(fs.get('fault_dropped_flits', 0))} drop,"
            f" {int(fs.get('fault_corrupt_flits', 0))} corrupt,"
            f" {int(fs.get('fault_retx_rounds', 0))} retx,"
            f" {int(fs.get('fault_stalls', 0))} stall"
        )
        if res["array_digest"] == clean_digest.get(wname):
            print(f"{wname:10s} {pname:14s} {'recovered (ok)':34s} {detail}")
        else:
            failures += 1
            print(
                f"{wname:10s} {pname:14s} "
                f"{'SILENT CORRUPTION (fail)':34s} {detail}"
            )
    return failures


def overhead_check() -> None:
    bench_path = os.path.join(ROOT, "BENCH_PR6.json")
    baseline = None
    if os.path.exists(bench_path):
        with open(bench_path) as fh:
            rows = json.load(fh).get("rows", [])
        for row in rows:
            if row.get("workload") == "MM-256" and row.get("nprocs") == 4:
                baseline = row.get("fast_run_s")
                break
    src = mm.source(256)
    params = cluster_for(4, VBUS_SKWP)
    prog = compile_source(src, nprocs=4, granularity="fine")
    # execute=False matches how the recorded fast_run_s was measured
    # (timing mode: no numeric array work).
    run_program(prog, cluster_params=params, execute=False)  # warm-up
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        run_program(prog, cluster_params=params, execute=False)
        samples.append(time.perf_counter() - t0)
    now_s = min(samples)
    print(f"fault-off MM-256 fast run : {now_s:.4f} s (best of {len(samples)})")
    if baseline is None:
        print("no MM-256 fast_run_s in BENCH_PR6.json; overhead not compared")
        return
    pct = (now_s - baseline) / baseline * 100.0
    print(
        f"BENCH_PR6 fast_run_s      : {baseline:.4f} s "
        f"(fault-off overhead {pct:+.2f}%, soft target <{OVERHEAD_SOFT_PCT:.0f}%)"
    )
    if pct > OVERHEAD_SOFT_PCT:
        print(
            f"WARNING: fault-off overhead {pct:+.2f}% exceeds the "
            f"{OVERHEAD_SOFT_PCT:.0f}% soft target (wall-clock noise or a "
            "real regression in the injection hooks)"
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--skip-overhead",
        action="store_true",
        help="run only the chaos sweep (skip the wall-clock comparison)",
    )
    ap.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="sweep worker processes (output is identical either way)",
    )
    args = ap.parse_args(argv)
    print("== chaos smoke: 3 seeded plans x 2 workloads (repro.sweep) ==")
    failures = chaos_sweep(args.jobs)
    if not args.skip_overhead:
        print()
        print("== fault-off overhead vs BENCH_PR6 ==")
        overhead_check()
    if failures:
        print(f"\n{failures} contract violation(s)")
        return 1
    print("\nchaos smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
