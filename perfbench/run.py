"""Seeded, closed-loop host benchmark of the repro toolchain.

One client, one thread: the next job starts only when the previous one
has finished.  Each job runs compile through report on the public entry
points (see ``jobs.py``); its output is checked as soon as it ends, with
its clock stopped.  ``--trace 1`` runs one round of the seed's job list
twice per job, plain and with span wrappers around every layer, and
prints per-layer metrics instead of end-to-end ones.  METHOD.md explains
the workloads and the metrics.

    python3 perfbench/run.py --workload value --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
job failed its check, 2 when the program could not be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("value", "timing", "tune")

#: Samples that must lie beyond a reported percentile.
MIN_TAIL = 10
#: Setup probes per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Iterations of the reference loop (about 13 ms on a 2.1 GHz Xeon core).
REF_ITERATIONS = 12000
#: Reference-loop seconds that define the normalized time scale.
REF_NOMINAL_S = 0.015
#: How job seconds move with the reference loop's seconds as the load of
#: other tenants changes: job ~ ref ** 0.7 (fitted on 10 s block medians
#: of MM, JACOBI and tuner jobs over 150 s on a shared 2-core Xeon VM,
#: correlation 0.96; the slope held at 0.67-0.75 for all three).
REF_SENSITIVITY = 0.7
#: Reference loops on each side of a job that its scale is the median of.
REF_HALF_WINDOW = 3


# -- statistics -----------------------------------------------------------

def beyond(n: int, pct: int) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile of ``n``."""
    rank = -(-pct * n // 100)  # ceil(pct * n / 100)
    return n - max(1, rank)


def min_samples(pct: int, tail: int = MIN_TAIL) -> int:
    """Fewest samples for which ``tail`` of them lie beyond ``pct``."""
    n = 1
    while beyond(n, pct) < tail:
        n += 1
    return n


def percentile(values, pct: int, tail: int = MIN_TAIL) -> float:
    """Nearest-rank percentile; refuses when fewer than ``tail`` samples
    lie beyond it."""
    n = len(values)
    if beyond(n, pct) < tail:
        raise ValueError(
            f"p{pct} of {n} samples has {max(0, beyond(n, pct))} beyond "
            f"it; need {tail} (at least {min_samples(pct, tail)} samples)"
        )
    return sorted(values)[n - beyond(n, pct) - 1]


MIN_JOBS = min_samples(90)


# -- host speed -----------------------------------------------------------

def reference_loop() -> float:
    """Seconds of a fixed pure-Python workload that imports nothing from
    the program: the yardstick of the host's current speed."""
    t0 = time.perf_counter()
    heap = []
    table = {}
    acc = 0.0
    for i in range(REF_ITERATIONS):
        key = i % 97
        table[key] = table.get(key, 0.0) + i * 0.5
        heapq.heappush(heap, (acc, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[1] * 1e-3
        acc += sum(x * 1.5 for x in (i, key, 3.0))
    return time.perf_counter() - t0


def normalized(seconds: float, refs) -> float:
    """``seconds`` rescaled to a host whose reference loop takes exactly
    ``REF_NOMINAL_S``: host time that a neighbour's load on a shared
    machine moves far less."""
    return seconds * (REF_NOMINAL_S / statistics.median(refs)) ** REF_SENSITIVITY


def job_refs(refs, i: int):
    """The reference loops around job ``i`` (``refs[i]`` ran just before
    it, ``refs[i + 1]`` just after)."""
    return refs[max(0, i + 1 - REF_HALF_WINDOW): i + 1 + REF_HALF_WINDOW]


# -- run context ----------------------------------------------------------

def run_context(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """What makes rows from two commits comparable."""
    import numpy

    commit = None  # outside a git checkout, src_sha256 identifies the code
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- setup ----------------------------------------------------------------

def setup_probe(workload: str) -> None:
    """Child process: time the imports and one warm-up job, print JSON."""
    before = [reference_loop() for _ in range(REF_HALF_WINDOW)]
    t0 = time.perf_counter()
    import jobs

    t1 = time.perf_counter()
    jobs.run_job(jobs.WARMUP[workload])
    t2 = time.perf_counter()
    after = [reference_loop() for _ in range(REF_HALF_WINDOW)]
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1,
                      "refs": before + after}))


def measure_setup(workload: str):
    """Medians over fresh interpreters of import plus one warm-up job:
    (normalized, raw) seconds."""
    norm, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        seconds = probe["import_s"] + probe["warmup_s"]
        raw.append(seconds)
        norm.append(normalized(seconds, probe["refs"]))
    return statistics.median(norm), statistics.median(raw)


# -- the timed and traced runs ---------------------------------------------

def _timed(jobs, cfg, scope=None):
    """(seconds, result, error) of one job; a raise is a failed job.

    Every job starts from a collected heap, so a collection that an
    earlier job's garbage would trigger does not land in its time.
    """
    gc.collect()
    with scope if scope is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            result = jobs.run_job(cfg)
        except Exception:
            return time.perf_counter() - t0, None, traceback.format_exc(limit=4)
        return time.perf_counter() - t0, result, None


def other_path_subset(seed: int, key: str) -> bool:
    """Seeded third of the timing configs rerun on the other transfer path."""
    return hashlib.sha256(f"{seed}:{key}".encode()).digest()[0] % 3 == 0


def _verdict(checker, cfg, result, error, verify_other_path: bool):
    """None when the job passed its check (untimed), else why it failed."""
    if error is not None:
        return "raised " + error.strip().splitlines()[-1]
    try:
        return checker.check(cfg, result, verify_other_path=verify_other_path)
    except Exception:
        return "check raised " + traceback.format_exc(limit=2).strip().splitlines()[-1]


def timed_run(jobs, workload: str, seed: int, seconds: float):
    """End-to-end metrics: jobs in whole rounds until ``seconds`` have
    passed and enough jobs ran for p90.

    Each job is checked as soon as it ends, outside its timing, so no
    result outlives its check.  A reference loop runs between jobs; each
    job's seconds are normalized by the loops around it.
    """
    setup_s, setup_raw_s = measure_setup(workload)
    jobs.run_job(jobs.WARMUP[workload])
    checker = jobs.Checker()
    ran, failures = [], []
    refs = [reference_loop()]
    rounds = jobs.rounds(workload, seed)
    t0 = time.perf_counter()
    while True:
        for cfg in next(rounds):
            dt, result, error = _timed(jobs, cfg)
            why = _verdict(checker, cfg, result, error,
                           other_path_subset(seed, cfg.key))
            del result
            if why is not None:
                failures.append((len(ran), cfg, why))
            ran.append((cfg, dt, error is None))
            refs.append(reference_loop())
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and len(ran) >= MIN_JOBS:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    raw = [dt for _cfg, dt, _ok in ran]
    times = [normalized(dt, job_refs(refs, i)) for i, dt in enumerate(raw)]
    completed = sum(ok for *_x, ok in ran)
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_p50_s": (percentile(times, 50), "s"),
        "job_p90_s": (percentile(times, 90), "s"),
        "jobs_per_s": (completed / sum(times), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "jobs": len(ran),
        "rounds": len(ran) // len(jobs.CATALOGUES[workload]),
        "window_s": elapsed,
        "fail_ratio": len(failures) / len(ran),
        "p90_beyond": beyond(len(ran), 90),
        "raw.setup_s": setup_raw_s,
        "raw.job_p50_s": percentile(raw, 50),
        "raw.job_p90_s": percentile(raw, 90),
        "raw.jobs_per_s": completed / sum(raw),
        "ref_median_s": statistics.median(refs),
    }
    return ran, failures, metrics, notes


def traced_run(jobs, workload: str, seed: int):
    """Per-layer metrics over the first round of the seed's job list.

    Every job runs twice in a row from cleared caches: plain, then with
    spans.  The first round is a fixed job set, so the counts repeat
    exactly for a seed.
    """
    import spans

    log = spans.SpanLog()
    instr = spans.Instrumentation(log)
    jobs.run_job(jobs.WARMUP[workload])
    checker = jobs.Checker()
    ran, failures = [], []
    plain_s = traced_s = 0.0
    hits = misses = 0
    for i, cfg in enumerate(next(jobs.rounds(workload, seed))):
        plain_s += _timed(jobs, cfg)[0]
        log.job_id = i
        with instr:
            dt, result, error = _timed(jobs, cfg, scope=log.root())
        stats = jobs.pipeline.compile_cache_stats()
        hits += stats["hits"]
        misses += stats["misses"]
        traced_s += dt
        why = _verdict(checker, cfg, result, error,
                       other_path_subset(seed, cfg.key))
        del result
        if why is not None:
            failures.append((i, cfg, why))
        ran.append((cfg, dt, error is None))

    os.makedirs(OUT_DIR, exist_ok=True)
    log.save(os.path.join(OUT_DIR, f"spans-{workload}.npz"))
    metrics = layer_metrics(log, checker.seq_s, hits, misses)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    notes = {"jobs": len(ran), "spans": len(log.layer), "plain_s": plain_s,
             "traced_s": traced_s,
             "fail_ratio": len(failures) / len(ran)}
    return ran, failures, metrics, notes


def layer_metrics(log, seq_s: float, hits: int, misses: int) -> dict:
    """The per-layer metrics of METHOD.md from one span log."""
    busy = log.busy_by_layer()
    own = log.self_by_layer()
    calls = log.calls_by_layer()
    c = log.counts
    attempts = c["vbus.fast_legs"] + c["vbus.fast_fallbacks"]
    out = {
        "interp.busy_s": (busy.get("interp", 0.0), "s"),
        "interp.calls": (calls.get("interp", 0), "count"),
        "interp.seq_s": (seq_s, "s"),
        "sim.self_s": (own.get("sim", 0.0), "s"),
        "sim.events": (c["sim.events"], "count"),
        "sim.events_per_msg": (
            c["sim.events"] / c["vbus.messages"] if c["vbus.messages"] else 0.0,
            "ratio",
        ),
        "vbus.busy_s": (busy.get("vbus", 0.0), "s"),
    }
    for key in ("messages", "bytes", "dma_transfers", "pio_elements",
                "hw_broadcasts", "freezes", "fast_legs", "fast_fallbacks",
                "fast_fallback_busy", "fast_fallback_peek",
                "fast_promotions"):
        out[f"vbus.{key}"] = (c[f"vbus.{key}"], "count")
    out["vbus.fast_leg_ratio"] = (
        c["vbus.fast_legs"] / attempts if attempts else 0.0, "ratio"
    )
    out.update({
        "mpi2.busy_s": (busy.get("mpi2", 0.0), "s"),
        "mpi2.calls": (calls.get("mpi2", 0), "count"),
        "executor.self_s": (own.get("executor", 0.0), "s"),
        "frontend.busy_s": (busy.get("frontend", 0.0), "s"),
        "frontend.calls": (calls.get("frontend", 0), "count"),
        "analysis.busy_s": (busy.get("analysis", 0.0), "s"),
        "postpass.busy_s": (busy.get("postpass", 0.0), "s"),
        "postpass.transfers": (c["postpass.transfers"], "count"),
        "pipeline.compile_cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"
        ),
        "tuneplan.self_s": (own.get("tuneplan", 0.0), "s"),
        "tuneplan.compiles": (c["tuneplan.compiles"], "count"),
        "tuneplan.profiles": (c["tuneplan.profiles"], "count"),
        "tuneplan.evaluated_candidates": (
            c["tuneplan.evaluated_candidates"], "count"
        ),
        "tuneplan.pruned_candidates": (
            c["tuneplan.pruned_candidates"], "count"
        ),
        "check.busy_s": (busy.get("check", 0.0), "s"),
        "check.calls": (calls.get("check", 0), "count"),
        "trace.attributed_ratio": (log.attributed_ratio(), "ratio"),
    })
    return out


# -- entry point ----------------------------------------------------------

def _report(context, ran, failures, metrics, notes) -> dict:
    seed = context["seed"]
    print(
        f"perfbench {context['workload']} seed={seed} "
        f"trace={context['trace']} commit={context['commit']} "
        f"src_sha256={context['src_sha256'][:16]} nproc={context['nproc']} "
        f"python={context['python']} numpy={context['numpy']}"
    )
    n = notes["jobs"]
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} (n={n} jobs)")
    print(f"  {'fail_ratio':34s} {notes['fail_ratio']:14.6g} {'ratio':6s} "
          f"({len(failures)}/{n} jobs)")
    for key in sorted(k for k in notes if k not in ("jobs", "fail_ratio")):
        print(f"  # {key} = {notes[key]}")
    for i, cfg, why in failures:
        print(f"FAIL job={i} seed={seed} spec={cfg.key} :: {why}")
    doc = {
        "context": context,
        "notes": notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "job_seconds": [[cfg.key, dt] for cfg, dt, _ok in ran],
        "failures": [
            {"job": i, "seed": seed, "spec": cfg.key, "diff": why}
            for i, cfg, why in failures
        ],
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{context['workload']}-trace{context['trace']}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(doc, fh, indent=1)
    return {
        "correct": not failures,
        "attempted": len(ran),
        "failed": len(failures),
        "metrics": doc["metrics"],
    }


def _one_job(jobs, key: str) -> int:
    """Rerun one config by its key (as printed on a FAIL line) and check it."""
    cfg = next(
        (c for cat in jobs.CATALOGUES.values() for c in cat if c.key == key),
        None,
    )
    if cfg is None:
        print(f"perfbench: no config {key!r}", file=sys.stderr)
        return 2
    dt, result, error = _timed(jobs, cfg)
    why = _verdict(jobs.Checker(), cfg, result, error, True)
    print(f"{'FAIL' if why else 'ok'} spec={cfg.key} seconds={dt:.4f}"
          + (f" :: {why}" if why else ""))
    return 1 if why else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--job", metavar="KEY",
                    help="rerun and check one config (the spec of a FAIL line)")
    ap.add_argument("--write-goldens", action="store_true",
                    help="recompute goldens.json from every catalogue config")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None and not (args.job or args.write_goldens):
        ap.error("--workload is required")

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    try:
        if not os.path.isdir(os.path.join(SRC, "repro")):
            raise ImportError("no src/repro package in this checkout")
        import jobs
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return 2

    if args.write_goldens:
        with open(jobs.GOLDENS_PATH, "w") as fh:
            json.dump(jobs.compute_goldens(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    if args.job:
        return _one_job(jobs, args.job)

    context = run_context(args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        out = traced_run(jobs, args.workload, args.seed)
    else:
        out = timed_run(jobs, args.workload, args.seed, args.seconds)
    line = _report(context, *out)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
