"""Job catalogues, seeded job lists, the timed job body and its checks.

A *config* is one cell of a workload's catalogue (workload spec, rank
count, backend, grain or tuning flag).  A *round* is every config of the
catalogue once, in an order shuffled by the run seed, so any whole
number of rounds measures the same mix whatever the seed; the seed picks
the order, which is what makes two seeds' job lists differ.

Every job goes through the public entry points that ``repro run`` and
``repro autotune --per-region`` call, with the library's default
``ClusterParams`` for its backend, and starts from the in-process cache
state a fresh ``repro`` invocation sees.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.compiler import pipeline
from repro.compiler.analysis import lmad
from repro.compiler.postpass.granularity import GRAINS
from repro.runtime import executor
from repro.sweep.runner import BACKENDS
from repro.tools import check, tuneplan
from repro.vbus import params as P
from repro.workloads import mm, parse_spec, source_for

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "goldens.json")


@dataclass(frozen=True)
class Config:
    """One catalogue cell: everything a job needs besides the seed."""

    workload: str
    spec: str
    nprocs: int
    backend: str
    grain: str = ""
    tune_partition: bool = False

    @property
    def key(self) -> str:
        tail = self.grain or ("joint" if self.tune_partition else "grain")
        return f"{self.workload}|{self.spec}|{self.nprocs}|{self.backend}|{tail}"


def _grid(workload: str, cells) -> Tuple[Config, ...]:
    """Every (spec, ranks) cell on the V-Bus mesh at each grain."""
    return tuple(
        Config(workload, spec, nprocs, "vbus", grain=g)
        for spec, nprocs in cells
        for g in GRAINS
    )


#: value: ``repro run``'s default mode on 4 V-Bus ranks.
VALUE = _grid(
    "value",
    [
        ("CFFZINIT-9", 4),
        ("CFFZINIT-10", 4),
        ("CFFZINIT-11", 4),
        ("XOVER-256", 4),
        ("JACOBI-64", 4),
        ("JACOBI-96", 4),
        ("MM-48", 4),
        ("MM-64", 4),
        ("SWIM-16x2", 4),
        ("SWIM-20x1", 4),
    ],
)

#: timing: Table 1/2-style scale runs on 16-64 mesh ranks, no numerics.
#: The two 64-rank JACOBI cells cost about the same at every grain and
#: well above the rest, so p90 falls inside their group, not on the edge
#: between two groups where it would jump from run to run.
TIMING = _grid(
    "timing",
    [
        ("MM-48", 16),
        ("MM-64", 16),
        ("JACOBI-64x2", 16),
        ("JACOBI-64x2", 32),
        ("JACOBI-32x2", 64),
        ("JACOBI-48x1", 64),
        ("XOVER-512", 16),
        ("XOVER-512", 32),
        ("XOVER-256", 64),
        ("PXOVER-96", 16),
        ("PXOVER-96", 32),
        ("PXOVER-96", 64),
    ],
)

#: tune: the per-region tuner on 4 Ethernet ranks, grain-only and joint.
#: Three light specs and two heavy ones: the joint searches of the heavy
#: pair form the top fifth of the jobs (p90 inside it), and the light
#: joint and heavy grain-only searches the middle half (p50 inside it).
TUNE = tuple(
    Config("tune", spec, 4, backend, tune_partition=joint)
    for spec in ("XOVER-64", "XOVER-96", "MM-32", "PXOVER-32", "JACOBI-32x10")
    for backend in ("gige", "ethernet100")
    for joint in (False, True)
)

CATALOGUES: Dict[str, Tuple[Config, ...]] = {
    "value": VALUE,
    "timing": TIMING,
    "tune": TUNE,
}

#: The job each workload runs, untimed, before its window opens.
WARMUP: Dict[str, Config] = {
    "value": Config("value", "CFFZINIT-10", 4, "vbus", grain="fine"),
    "timing": Config("timing", "PXOVER-96", 16, "vbus", grain="fine"),
    "tune": Config("tune", "XOVER-128", 4, "gige", tune_partition=False),
}


def rounds(workload: str, seed: int) -> Iterator[List[Config]]:
    """The seed's job list, one shuffled round of the catalogue at a time."""
    rng = random.Random(f"{workload}:{seed}")
    catalogue = CATALOGUES[workload]
    while True:
        order = list(catalogue)
        rng.shuffle(order)
        yield order


def job_list(workload: str, seed: int, n_rounds: int) -> List[Config]:
    it = rounds(workload, seed)
    return [cfg for _ in range(n_rounds) for cfg in next(it)]


def cluster_params(cfg: Config, flip_fast_path: bool = False):
    """The library's default ``ClusterParams`` for the config's backend
    (what ``repro run --backend`` builds), optionally with the other
    transfer-accounting path."""
    params = P.cluster_for(cfg.nprocs, getattr(P, BACKENDS[cfg.backend]))
    if flip_fast_path:
        params = replace(params, fast_path=not params.fast_path)
    return params


def mm_init(cfg: Config) -> Optional[Dict[str, np.ndarray]]:
    """MM's input matrices (the workload module's fixed-seed draw)."""
    kind, size, _ = parse_spec(cfg.spec)
    return mm.init_arrays(size) if kind == "MM" else None


def clear_caches() -> None:
    """The in-process cache state a fresh ``repro`` invocation sees."""
    pipeline.clear_compile_cache()
    lmad._enumerate_impl.cache_clear()
    lmad._intersect_count.cache_clear()


@dataclass
class TuneResult:
    plan: object
    program: object
    verdict: object


def run_job(cfg: Config):
    """The timed body of one job: compile through report.

    Module attributes are looked up at call time so the traced run's
    wrappers see every call.
    """
    clear_caches()
    source = source_for(cfg.spec)
    if cfg.workload == "tune":
        plan = tuneplan.tune_per_region(
            source,
            nprocs=cfg.nprocs,
            backend=cfg.backend,
            cache_dir=None,
            tune_partition=cfg.tune_partition,
        )
        program = pipeline.compile_source(source, options=plan.options())
        return TuneResult(plan, program, check.check_program(program))
    program = pipeline.compile_source(
        source, nprocs=cfg.nprocs, granularity=cfg.grain
    )
    params = None if cfg.backend == "vbus" else cluster_params(cfg)
    return executor.run_program(
        program,
        cluster_params=params,
        execute=cfg.workload == "value",
        init=mm_init(cfg),
    )


# -- outcomes and checks ------------------------------------------------------

def _hw_counts(report) -> Dict[str, float]:
    """Hardware counters that both transfer-accounting paths must agree
    on (the ``fast_*`` counters describe the path itself)."""
    return {
        k: report.hw[k] for k in sorted(report.hw) if not k.startswith("fast_")
    }


def outcome(cfg: Config, result) -> Dict[str, object]:
    """The simulated facts of a job that goldens pin."""
    if cfg.workload == "tune":
        plan_bytes = json.dumps(result.plan.to_jsonable(), sort_keys=True)
        return {
            "plan_sha256": hashlib.sha256(plan_bytes.encode()).hexdigest(),
            "check_clean": result.verdict.clean,
            "profiles": result.plan.profiles,
        }
    out = {
        "total_s": result.total_s,
        "comm_max_s": result.comm_max_s,
        "messages": int(result.hw.get("messages", 0)),
        "bytes": int(result.hw.get("bytes", 0)),
    }
    if cfg.workload == "value":
        out["array_digest"] = result.array_digest()
        out["stdout_sha256"] = hashlib.sha256(
            "\n".join(result.stdout).encode()
        ).hexdigest()
    return out


def first_difference(expected: Dict, got: Dict) -> Optional[str]:
    """The first field (sorted by name) where two outcomes differ."""
    for key in sorted(set(expected) | set(got)):
        if expected.get(key) != got.get(key):
            return f"{key}: expected {expected.get(key)!r}, got {got.get(key)!r}"
    return None


class Checker:
    """Checks job results outside the job timings.

    Oracles that depend only on the config (the sequential run, the other
    transfer-accounting path, the uniform-grain comm times) are computed
    once per config and cached for the rest of the run.
    """

    def __init__(self, goldens: Optional[Dict[str, Dict]] = None):
        self.goldens = goldens if goldens is not None else load_goldens()
        self._seq: Dict[str, object] = {}
        self._other_path: Dict[str, Dict] = {}
        self._uniform: Dict[str, List[float]] = {}
        #: Host seconds spent in the plain single-rank sequential runs.
        self.seq_s = 0.0

    def check(self, cfg: Config, result, verify_other_path: bool = True):
        """None when the job passed, else the first field that differs."""
        got = outcome(cfg, result)
        golden = self.goldens.get(cfg.key)
        if golden is not None:
            diff = first_difference(golden, got)
            if diff is not None:
                return f"golden {diff}"
        if cfg.workload == "value":
            return self._check_value(cfg, result)
        if cfg.workload == "timing":
            return self._check_timing(cfg, result) if verify_other_path else None
        return self._check_tune(cfg, result)

    def _sequential(self, cfg: Config):
        if cfg.spec not in self._seq:
            program = pipeline.compile_source(source_for(cfg.spec), nprocs=1)
            t0 = time.perf_counter()
            self._seq[cfg.spec] = executor.run_sequential(
                program, init=mm_init(cfg)
            )
            self.seq_s += time.perf_counter() - t0
        return self._seq[cfg.spec]

    def _check_value(self, cfg: Config, report) -> Optional[str]:
        seq = self._sequential(cfg)
        if report.stdout != seq.stdout:
            return f"stdout: expected {seq.stdout!r}, got {report.stdout!r}"
        for name in sorted(seq.memory.arrays):
            want = seq.memory.arrays[name]
            have = report.memory.arrays[name]
            if want.tobytes() != have.tobytes():
                return f"array {name}: differs from run_sequential"
        init = mm_init(cfg)
        if init is not None:
            want = mm.reference(init)
            have = report.memory.shaped("C")
            if not np.allclose(have, want, rtol=1e-9, atol=1e-9):
                err = float(np.max(np.abs(have - want)))
                return f"array C: max |C - A@B| = {err:.3g} beyond 1e-9"
        return None

    def _check_timing(self, cfg: Config, report) -> Optional[str]:
        if cfg.key not in self._other_path:
            program = pipeline.compile_source(
                source_for(cfg.spec), nprocs=cfg.nprocs, granularity=cfg.grain
            )
            other = executor.run_program(
                program,
                cluster_params=cluster_params(cfg, flip_fast_path=True),
                execute=False,
            )
            self._other_path[cfg.key] = {
                "total_s": other.total_s,
                "comm_max_s": other.comm_max_s,
                **_hw_counts(other),
            }
        got = {
            "total_s": report.total_s,
            "comm_max_s": report.comm_max_s,
            **_hw_counts(report),
        }
        diff = first_difference(self._other_path[cfg.key], got)
        return None if diff is None else f"other transfer path {diff}"

    def _check_tune(self, cfg: Config, result: TuneResult) -> Optional[str]:
        if not result.verdict.clean:
            codes = sorted(result.verdict.codes())
            return f"check_program: not clean ({', '.join(codes)})"
        params = cluster_params(cfg)
        source = source_for(cfg.spec)
        if cfg.key not in self._uniform:
            self._uniform[cfg.key] = [
                executor.run_program(
                    pipeline.compile_source(
                        source, nprocs=cfg.nprocs, granularity=g
                    ),
                    cluster_params=params,
                    execute=False,
                ).comm_max_s
                for g in GRAINS
            ]
        tuned = executor.run_program(
            result.program, cluster_params=params, execute=False
        ).comm_max_s
        for grain, uniform in zip(GRAINS, self._uniform[cfg.key]):
            if tuned > uniform * (1 + 1e-9):
                return (
                    f"comm_max_s: tuned {tuned!r} exceeds uniform "
                    f"{grain} {uniform!r}"
                )
        return None


def load_goldens() -> Dict[str, Dict]:
    if not os.path.exists(GOLDENS_PATH):
        return {}
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)


def compute_goldens() -> Dict[str, Dict]:
    """Outcomes of every catalogue config (covers every seed's jobs)."""
    goldens = {}
    for workload in CATALOGUES:
        for cfg in CATALOGUES[workload]:
            goldens[cfg.key] = outcome(cfg, run_job(cfg))
    return goldens
