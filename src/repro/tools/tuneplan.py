"""Trace-driven per-region granularity tuning (docs/AUTOTUNE.md).

The paper leaves the fine/middle/coarse choice to the user and says
profiling tools "would be useful to guide the user" (§5.6).  This module
is that guide, automated **per region**: one grain per parallel region
(a uniform plan is the degenerate case), found with a tiered search
instead of profiling the whole program at every grain:

1. compile the three uniform-grain variants (compile analysis is cheap
   next to simulation, and the pipeline cache makes repeats free) and
   price each region's :class:`RegionCommPlan` with an **analytic cost
   model** built from the §5.6 transfer plans and the backend's
   :class:`~repro.vbus.params.ClusterParams`;
2. regions whose best grain wins by at least ``epsilon`` (relative
   margin) are decided by the model alone;
3. the remaining *ambiguous* regions are decided empirically: one
   instrumented timing-mode profile of the candidate plan, plus one
   targeted re-profile per runner-up rank (all ambiguous regions switch
   candidates together, so a 3-way tie still costs only two extra runs),
   attributed per region with :func:`repro.obs.region_rollup`.

The result is a :class:`TunePlan` — a backend-aware mixed-grain plan
``{region_id: grain}`` that compiles via ``CompileOptions.grain_map``,
serializes to a canonical JSON artifact (``repro run --tune-plan``), and
is content-address-cached through :mod:`repro.sweep.cache` keyed on
(source, backend, nprocs, metric, epsilon) so warm calls skip even the
single profile.

With ``tune_partition=True`` the same tiered search runs over the joint
(grain, §5.3 partition strategy) space: six compile variants feed the
analytic tier, whose price adds an **imbalance term** — per-strategy
per-rank iteration weights (inner trip counts) skewed against the
region's compute time from one baseline instrumented profile — so block
on a triangular loop prices its fence-wait skew without simulating it.
The plan then carries ``partition_map`` overrides only where the tuned
choice differs from what ``auto`` would pick (docs/PARTITION.md), so a
tuner that agrees with the paper's static policy emits a byte-identical
artifact to the grain-only plan.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.compiler.analysis.access import AccessError, loop_context
from repro.compiler.frontend import fast as F
from repro.compiler.pipeline import CompileOptions, compile_source
from repro.compiler.postpass.granularity import GRAINS
from repro.compiler.postpass.partition import (
    STRATEGIES,
    Partition,
    choose_strategy,
    parse_strategy,
)
from repro.compiler.postpass.scatter import RegionCommPlan
from repro.runtime.executor import run_program
from repro.sweep.cache import (
    DEFAULT_CACHE_DIR,
    canonical_json,
    job_key,
    load_row,
    store_row,
)

__all__ = [
    "FEATURES",
    "METRICS",
    "ModelCost",
    "RegionDecision",
    "TunePlan",
    "region_features",
    "region_model_cost",
    "tune_per_region",
]

#: Metrics the tuner can optimize: simulated wall-clock, the busiest
#: rank's elapsed MPI time, or its CPU time driving communication.
METRICS = ("total", "comm", "comm_cpu")

#: Relative margin below which the analytic model refuses to decide and
#: the region goes to the profile-measured tier instead.
DEFAULT_EPSILON = 0.05

#: Rough CPU cost of one kernel-stack traversal (ethernet backends have
#: no user-level path; the sw latency *is* host CPU time).
_ETH_CPU_PER_SIDE = 1.0

#: Feature names of the linear calibrated cost model, in fit order
#: (docs/AUTOTUNE.md).  A :class:`~repro.tools.calibrate.CalibratedModel`
#: carries one fitted coefficient per feature.
FEATURES = ("messages", "bytes", "strided_elements", "fanout_dests")


@dataclass(frozen=True)
class ModelCost:
    """Analytic price of one region's communication at one grain."""

    elapsed_s: float
    cpu_s: float
    messages: int

    def metric(self, metric: str) -> float:
        return self.cpu_s if metric == "comm_cpu" else self.elapsed_s


def _transfer_cost(transfer, itemsize: int, params) -> Tuple[float, float]:
    """(elapsed, master-CPU) seconds for one master<->slave transfer."""
    nbytes = transfer.count * itemsize
    if params.network == "ethernet":
        e = params.ethernet
        frames = max(1, math.ceil(nbytes / e.mtu_bytes))
        elapsed = 2 * e.sw_latency_s + nbytes / e.rate_Bps + frames * e.min_frame_s
        if e.switched:
            # Store-and-forward: the switch replays the wire time and
            # charges its forwarding decision.
            elapsed += e.switch_latency_s + nbytes / e.rate_Bps
        cpu = 2 * e.sw_latency_s * _ETH_CPU_PER_SIDE
        return elapsed, cpu
    nic = params.nic
    overhead = nic.per_message_overhead_s()
    if transfer.contiguous:
        elapsed = overhead + nic.dma_setup_s + nbytes / nic.dma_rate_Bps
        return elapsed, overhead + nic.dma_setup_s
    # Strided: programmed I/O, the host CPU touches every element.
    elapsed = (
        overhead + nic.pio_setup_s + transfer.count * nic.pio_per_element_s
    )
    return elapsed, elapsed


def region_model_cost(plan: RegionCommPlan, params, calibration=None) -> ModelCost:
    """Price one region's scatter+collect plan on one backend.

    Scatters serialize on the master (one bcast wave when the V-Bus
    broadcast fuses them); collects overlap across ranks on the V-Bus
    mesh and switched fabrics (busiest rank bounds) but serialize on a
    shared ethernet segment.  A pruning heuristic, not an accounting
    identity — it only has to rank grains with a margin.

    With a ``calibration`` (a
    :class:`~repro.tools.calibrate.CalibratedModel`, or anything with its
    four per-feature coefficients), ``elapsed_s`` is instead the fitted
    linear model over :func:`region_features` — constants measured from
    traced microbenchmarks rather than read off static ``ClusterParams``.
    ``cpu_s`` and ``messages`` stay static either way: the ``comm_cpu``
    metric and the fewer-messages tie-break are calibration-invariant.
    """
    elapsed = cpu = 0.0
    messages = 0
    shared_segment = (
        params.network == "ethernet" and not params.ethernet.switched
    )
    for aplan in plan.arrays.values():
        bcast = (
            aplan.scatter_bcast
            and params.network == "vbus"
            and params.vbus_broadcast
        )
        if bcast:
            transfers = next(iter(aplan.scatter.values()), [])
            messages += len(transfers)
            for t in transfers:
                e, c = _transfer_cost(t, aplan.itemsize, params)
                elapsed += e
                cpu += c
        else:
            for transfers in aplan.scatter.values():
                messages += len(transfers)
                for t in transfers:
                    e, c = _transfer_cost(t, aplan.itemsize, params)
                    elapsed += e
                    cpu += c
        rank_elapsed: List[float] = []
        rank_cpu: List[float] = []
        for transfers in aplan.collect.values():
            messages += len(transfers)
            e_sum = c_sum = 0.0
            for t in transfers:
                e, c = _transfer_cost(t, aplan.itemsize, params)
                e_sum += e
                c_sum += c
            rank_elapsed.append(e_sum)
            rank_cpu.append(c_sum)
        if rank_elapsed:
            if shared_segment:
                elapsed += sum(rank_elapsed)
                cpu += sum(rank_cpu)
            else:
                elapsed += max(rank_elapsed)
                cpu += max(rank_cpu)
    if calibration is not None:
        f = region_features(plan, params)
        elapsed = (
            calibration.per_message_s * f["messages"]
            + calibration.per_byte_s * f["bytes"]
            + calibration.strided_per_element_s * f["strided_elements"]
            + calibration.fanout_per_dest_s * f["fanout_dests"]
        )
    return ModelCost(elapsed_s=elapsed, cpu_s=cpu, messages=messages)


def region_features(plan: RegionCommPlan, params) -> Dict[str, float]:
    """:data:`FEATURES` of one region's plan, for the calibrated model.

    ``messages``/``bytes``/``strided_elements`` are **totals** over every
    transfer the region issues — scatter and collect, all ranks — except
    that a fused V-Bus broadcast counts its single wave once and puts its
    destination count in ``fanout_dests``.  Totals, not busiest-rank
    shares, because every transfer converges on the master (its NIC, its
    switch port, or the shared segment): the measured region comm time
    the fit targets is the *serialized* drain of all of them, and the
    per-message/per-byte coefficients absorb whatever overlap the fabric
    actually achieves.  Unlike the static walk of
    :func:`region_model_cost`, this is exactly linear in the transfer
    counts, which is what makes the least-squares fit well-posed.
    """
    msgs = nbytes = selems = fanout = 0.0

    def _tally(transfers, itemsize):
        m = b = s = 0.0
        for t in transfers:
            m += 1
            b += t.count * itemsize
            if not t.contiguous:
                s += t.count
        return m, b, s

    for aplan in plan.arrays.values():
        bcast = (
            aplan.scatter_bcast
            and params.network == "vbus"
            and params.vbus_broadcast
        )
        if bcast:
            waves = [next(iter(aplan.scatter.values()), [])]
            fanout += len(aplan.scatter)
        else:
            waves = [aplan.scatter[r] for r in sorted(aplan.scatter)]
        waves.extend(aplan.collect[r] for r in sorted(aplan.collect))
        for transfers in waves:
            m, b, s = _tally(transfers, aplan.itemsize)
            msgs += m
            nbytes += b
            selems += s
    return {
        "messages": msgs,
        "bytes": nbytes,
        "strided_elements": selems,
        "fanout_dests": fanout,
    }


@dataclass
class RegionDecision:
    """How one parallel region's grain was chosen."""

    region_id: int
    grain: str
    #: "model" (margin >= epsilon) or "profile" (measured rollup).
    how: str
    #: Relative margin of the winner over the runner-up at decision time.
    margin: float
    #: candidate -> analytic metric value (seconds).  Candidates are
    #: grains (``"fine"``) in grain-only searches, ``"grain/strategy"``
    #: labels (``"fine/cyclic"``) in joint partition searches.
    model: Dict[str, float] = field(default_factory=dict)
    #: candidate -> measured per-region metric (profile-decided only).
    measured: Dict[str, float] = field(default_factory=dict)
    #: Chosen §5.3 strategy spec (joint partition searches only).
    partition: Optional[str] = None

    def to_jsonable(self) -> Dict:
        out = {
            "region_id": self.region_id,
            "grain": self.grain,
            "how": self.how,
            "margin": self.margin,
            "model": {g: self.model[g] for g in sorted(self.model)},
        }
        if self.measured:
            out["measured"] = {
                g: self.measured[g] for g in sorted(self.measured)
            }
        if self.partition is not None:
            out["partition"] = self.partition
        return out

    @classmethod
    def from_jsonable(cls, doc: Dict) -> "RegionDecision":
        return cls(
            region_id=int(doc["region_id"]),
            grain=doc["grain"],
            how=doc["how"],
            margin=float(doc["margin"]),
            model=dict(doc.get("model", {})),
            measured=dict(doc.get("measured", {})),
            partition=doc.get("partition"),
        )


@dataclass
class TunePlan:
    """A backend-aware mixed-grain plan, ready to compile or serialize."""

    metric: str
    nprocs: int
    backend: Optional[str]
    default_grain: str
    #: region_id -> grain, only for regions that differ from the default.
    grain_map: Dict[int, str] = field(default_factory=dict)
    epsilon: float = DEFAULT_EPSILON
    source_sha256: str = ""
    decisions: List[RegionDecision] = field(default_factory=list)
    #: Instrumented profile runs the search needed (0 on a warm cache hit
    #: only because the field round-trips from the cached artifact).
    profiles: int = 0
    #: True when the search also tuned the §5.3 partition strategy.
    tune_partition: bool = False
    #: region_id -> strategy spec, only where the tuned choice differs
    #: from the ``auto`` resolution (so an all-agree plan stays empty and
    #: the artifact byte-identical to a grain-only plan).
    partition_map: Dict[int, str] = field(default_factory=dict)
    #: Content hash of the CalibratedModel the analytic tier used, or
    #: ``""`` for an uncalibrated search (v3 field, omitted when empty).
    calibration_sha256: str = ""
    #: True when this plan came from the on-disk plan cache.
    cached: bool = field(default=False, compare=False)
    #: Analytic-tier price evaluations the search performed.  Diagnostic
    #: counter only — never serialized, 0 on warm cache hits.
    evaluated_candidates: int = field(default=0, compare=False)
    #: Always 0: the search prices every compiled candidate and runs no
    #: verifier (its legality verdicts never changed a plan).  Kept so
    #: readers of the counter pair keep working.
    pruned_candidates: int = field(default=0, compare=False)

    @property
    def mixed(self) -> bool:
        return bool(self.grain_map) or bool(self.partition_map)

    def options(self, **overrides) -> CompileOptions:
        """The :class:`CompileOptions` that realize this plan."""
        kw = dict(
            nprocs=self.nprocs,
            granularity=self.default_grain,
            grain_map=self.grain_map or None,
        )
        if self.partition_map:
            kw["partition_map"] = self.partition_map
        kw.update(overrides)
        return CompileOptions(**kw)

    def to_jsonable(self) -> Dict:
        out = {
            "kind": "tuneplan",
            "metric": self.metric,
            "nprocs": self.nprocs,
            "backend": self.backend,
            "default_grain": self.default_grain,
            "grain_map": {
                str(rid): self.grain_map[rid]
                for rid in sorted(self.grain_map)
            },
            "epsilon": self.epsilon,
            "source_sha256": self.source_sha256,
            "profiles": self.profiles,
            "decisions": [d.to_jsonable() for d in self.decisions],
        }
        # Partition fields appear only in partition-tuned plans, keeping
        # grain-only artifacts (and their committed bytes) unchanged.
        if self.tune_partition:
            out["tune_partition"] = True
            out["partition_map"] = {
                str(rid): self.partition_map[rid]
                for rid in sorted(self.partition_map)
            }
        if self.calibration_sha256:
            out["calibration_sha256"] = self.calibration_sha256
        return out

    @classmethod
    def from_jsonable(cls, doc: Dict) -> "TunePlan":
        if doc.get("kind") != "tuneplan":
            raise ValueError(
                f"not a TunePlan document (kind={doc.get('kind')!r})"
            )
        return cls(
            metric=doc["metric"],
            nprocs=int(doc["nprocs"]),
            backend=doc.get("backend"),
            default_grain=doc["default_grain"],
            grain_map={
                int(rid): g for rid, g in doc.get("grain_map", {}).items()
            },
            epsilon=float(doc.get("epsilon", DEFAULT_EPSILON)),
            source_sha256=doc.get("source_sha256", ""),
            decisions=[
                RegionDecision.from_jsonable(d)
                for d in doc.get("decisions", [])
            ],
            profiles=int(doc.get("profiles", 0)),
            tune_partition=bool(doc.get("tune_partition", False)),
            partition_map={
                int(rid): s
                for rid, s in doc.get("partition_map", {}).items()
            },
            calibration_sha256=doc.get("calibration_sha256", ""),
        )

    def save(self, path: str) -> None:
        """Write the canonical JSON artifact (byte-deterministic)."""
        with open(path, "w") as fh:
            fh.write(canonical_json(self.to_jsonable()))
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "TunePlan":
        with open(path) as fh:
            return cls.from_jsonable(json.load(fh))

    def summary(self) -> str:
        where = self.backend or "vbus"
        head = (
            f"per-region tune plan ({where}, np={self.nprocs}, "
            f"metric: {self.metric}):"
        )
        lines = [head]
        for d in sorted(self.decisions, key=lambda d: d.region_id):
            star = (
                "*"
                if d.region_id in self.grain_map
                or d.region_id in self.partition_map
                else " "
            )
            what = d.grain
            if d.partition is not None:
                what = f"{d.grain}/{d.partition}"
            lines.append(
                f" {star} region {d.region_id}: {what:7s} "
                f"[{d.how}, margin {d.margin * 100:.1f}%]"
            )
        if self.mixed:
            overrides = len(self.grain_map)
            extra = ""
            if self.tune_partition:
                extra = (
                    f", {len(self.partition_map)} partition override(s)"
                )
            lines.append(
                f"  mixed plan: default {self.default_grain}, "
                f"{overrides} override(s){extra}; "
                f"{self.profiles} profile run(s)"
            )
        else:
            lines.append(
                f"  uniform plan: {self.default_grain} everywhere; "
                f"{self.profiles} profile run(s)"
            )
        if self.cached:
            lines.append("  (loaded from plan cache)")
        return "\n".join(lines)


def _report_value(report, metric: str) -> float:
    """The whole-program flavour of a tuning metric (flip probes)."""
    if metric == "comm":
        return report.comm_max_s
    if metric == "comm_cpu":
        return report.comm_cpu_max_s
    return report.total_s


def _measured_value(rollup, metric: str) -> float:
    if metric == "comm":
        return rollup.mpi_max_s
    if metric == "comm_cpu":
        return rollup.nic_cpu_s
    return rollup.elapsed_s


def _margin(values: List[float]) -> float:
    """Relative gap between the two best values (sorted ascending)."""
    if len(values) < 2:
        return math.inf
    best, second = values[0], values[1]
    if second <= 0.0:
        return 0.0
    return (second - best) / second


def _cand_key(grain: str, spec: Optional[str]) -> str:
    """Stable label of a (grain, strategy) candidate for JSON dicts."""
    return grain if spec is None else f"{grain}/{spec}"


def _par_loops(program) -> Dict[int, F.Do]:
    """region_id -> parallel loop, walking the SPMD region tree."""
    from repro.compiler.postpass.spmd import IfRegion, ParRegion, SeqLoop

    loops: Dict[int, F.Do] = {}

    def visit(regions):
        for region in regions:
            if isinstance(region, ParRegion):
                loops[region.region_id] = region.loop
            elif isinstance(region, SeqLoop):
                visit(region.body)
            elif isinstance(region, IfRegion):
                visit(region.then)
                for _c, blk in region.elifs:
                    visit(blk)
                visit(region.orelse)

    visit(program.regions)
    return loops


#: Loops wider than this skip the per-iteration weight analysis (the
#: imbalance term degrades to zero and the profile tier arbitrates).
_MAX_WEIGHT_ITERS = 4096


def _nest_weight(stmts, env) -> float:
    """Approximate work of one parallel iteration: nested trip counts,
    with deeper index-dependent bounds evaluated at the loop midpoint."""
    w = 0.0
    for s in stmts:
        w += 1.0
        if isinstance(s, F.Do):
            ctx = loop_context(s, (), env)
            count = ctx.count
            if count <= 0:
                continue
            inner_env = dict(env)
            inner_env[s.var] = ctx.lo + ((count - 1) // 2) * ctx.step
            w += count * _nest_weight(s.body, inner_env)
        elif isinstance(s, F.If):
            w += _nest_weight(s.then, env)
            for _c, blk in s.elifs:
                w += _nest_weight(blk, env)
            w += _nest_weight(s.orelse, env)
    return w


def _strategy_imbalance(loop: F.Do, nprocs: int) -> Dict[str, float]:
    """Per-strategy load-imbalance factor ``maxW / meanW - 1`` of one
    parallel loop, from per-iteration inner trip counts.

    ``{}`` when the bounds cannot be resolved statically (the term then
    contributes nothing and ambiguity falls through to the profile
    tier).  This is what makes block-on-triangular expensive in the
    model: the heavy ranks' fence-wait skew shows up in the ``comm`` and
    ``total`` metrics, and the factor scales the region's measured
    compute time to price it.
    """
    try:
        pctx = loop_context(loop, (), {})
    except AccessError:
        return {}
    n = pctx.count
    if n <= 0 or n > _MAX_WEIGHT_ITERS:
        return {}
    try:
        values = list(pctx.values())
        weights = [_nest_weight(loop.body, {pctx.var: v}) for v in values]
    except AccessError:
        return {}
    out: Dict[str, float] = {}
    for sname in STRATEGIES:
        part = Partition(pctx=pctx, nprocs=nprocs, strategy=sname)
        per_rank = [0.0] * nprocs
        for v, w in zip(values, weights):
            per_rank[part.owner_of(v)] += w
        mean = sum(per_rank) / nprocs
        out[sname] = max(per_rank) / mean - 1.0 if mean > 0 else 0.0
    return out


def plan_cache_key(
    source: str,
    backend: str,
    nprocs: int,
    metric: str,
    epsilon: float,
    tune_partition: bool = False,
    calibration_sha256: str = "",
    faults=None,
) -> str:
    """Content-address of one tuning problem (shares the sweep cache).

    The ``partition`` field joins the key only for joint searches, the
    ``calibration`` field only for calibrated searches and the
    ``faults`` field (the plan's JSON) only for an active
    :class:`~repro.faults.plan.FaultPlan`, so every pre-existing key (and
    any cached plan stored under one) is untouched by these axes.
    """
    sha = hashlib.sha256(source.encode("utf-8")).hexdigest()
    doc = {
        "kind": "tuneplan",
        "source_sha256": sha,
        "backend": backend,
        "nprocs": nprocs,
        "metric": metric,
        "epsilon": epsilon,
    }
    if tune_partition:
        doc["partition"] = True
    if calibration_sha256:
        doc["calibration"] = calibration_sha256
    if faults is not None and faults.active:
        doc["faults"] = faults.to_json()
    return job_key(doc)


def tune_per_region(
    source: str,
    nprocs: int = 4,
    metric: str = "comm",
    backend: Optional[str] = None,
    epsilon: float = DEFAULT_EPSILON,
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
    faults=None,
    tune_partition: bool = False,
    calibration=None,
) -> TunePlan:
    """Derive a per-region mixed-grain :class:`TunePlan` for ``source``.

    ``metric`` is one of :data:`METRICS`.  ``backend`` is a sweep
    backend name (``vbus``, ``gige``, ...; default ``vbus``).  ``faults``
    applies to the profile runs.  Fault delays perturb the measured
    timing and so can change the chosen plan; an active fault plan
    therefore joins the plan cache key.

    ``tune_partition=True`` widens every tier to the joint
    (grain, §5.3 strategy) space: block and cyclic variants are compiled
    alongside the three grains, the analytic price gains a trace-scaled
    load-imbalance term, and the plan's ``partition_map`` records only
    the regions where the tuned strategy disagrees with ``auto``.

    ``calibration`` (a :class:`~repro.tools.calibrate.CalibratedModel`)
    replaces the analytic tier's static constants with trace-fitted
    ones.  A calibrated model has no known cross-family bias, so the
    family-arbitration prune widens from "clear block wins" to *any*
    clear-margin cross-family verdict — fewer flip probes wherever the
    fitted model is confident.  The calibration's content hash joins the
    plan cache key and the artifact (``calibration_sha256``), keeping
    uncalibrated plans byte-identical to what earlier releases wrote.

    Warm calls (``cache_dir`` holds a plan for this exact problem)
    return the cached plan without compiling or profiling anything.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon!r}")

    cal_sha = calibration.sha256() if calibration is not None else ""
    key = None
    if cache_dir is not None:
        key = plan_cache_key(
            source, backend or "vbus", nprocs, metric, epsilon,
            tune_partition=tune_partition,
            calibration_sha256=cal_sha,
            faults=faults,
        )
        row = load_row(cache_dir, key)
        if row is not None:
            plan = TunePlan.from_jsonable(row)
            plan.cached = True
            return plan

    from repro.sweep.runner import cluster_params

    params = cluster_params(backend or "vbus", nprocs)

    # 1. Compile every candidate variant; the cost model reads their
    #    plans.  Grain-only searches compile the three global grains;
    #    joint searches add the forced-block and forced-cyclic variants
    #    (strategy ``None`` means "the program default", i.e. auto).
    strategies: Tuple[Optional[str], ...] = (
        STRATEGIES if tune_partition else (None,)
    )
    programs: Dict[Tuple[str, Optional[str]], object] = {}
    for s in strategies:
        for g in GRAINS:
            kw = {} if s is None else {"partition": s}
            programs[(g, s)] = compile_source(
                source, nprocs=nprocs, granularity=g, **kw
            )
    region_ids = sorted(programs[(GRAINS[0], strategies[0])].plans)
    # A forced strategy that demotes regions (PlanError fallback) shifts
    # region numbering; drop such variants rather than misattribute.
    candidates = [
        (g, s)
        for s in strategies
        for g in GRAINS
        if sorted(programs[(g, s)].plans) == region_ids
    ]

    # Joint searches price load imbalance: per-strategy iteration-weight
    # skew, scaled by each region's compute time from one baseline
    # instrumented profile (the trace-driven part of the model).
    auto_spec: Dict[int, str] = {}
    imb: Dict[int, Dict[str, float]] = {rid: {} for rid in region_ids}
    compute_s: Dict[int, float] = {}
    profiles = 0
    if tune_partition:
        base_prog = compile_source(
            source, nprocs=nprocs, granularity=GRAINS[0]
        )
        loops = _par_loops(base_prog)
        for rid in region_ids:
            loop = loops.get(rid)
            if loop is None:
                continue
            auto_spec[rid] = choose_strategy(loop, "auto")
            imb[rid] = _strategy_imbalance(loop, nprocs)
        # The imbalance term only matters where block and cyclic *differ*
        # in skew: a factor common to every strategy shifts all candidates
        # of a region equally and can never change a ranking.  Workloads
        # with zero such regions (every nest rectangular, or near-even
        # owner counts) skip the baseline instrumented profile entirely.
        skewed = metric != "comm_cpu" and any(
            factors and max(factors.values()) - min(factors.values()) > 1e-12
            for factors in imb.values()
        )
        if skewed:
            report = run_program(
                base_prog,
                cluster_params=params,
                execute=False,
                trace=True,
                faults=faults,
            )
            profiles += 1
            from repro.obs import region_rollup

            rollups = region_rollup(report.trace)
            for rid in region_ids:
                roll = rollups.get(rid)
                compute_s[rid] = (
                    max(0.0, roll.elapsed_s - roll.mpi_max_s)
                    if roll is not None
                    else 0.0
                )

    def _pref(rid: int, s: Optional[str]) -> Tuple[int, int]:
        """Tie-break suffix: prefer the auto strategy, then STRATEGIES
        order (a no-op for grain-only candidates)."""
        if s is None:
            return (0, 0)
        return (0 if s == auto_spec.get(rid) else 1, STRATEGIES.index(s))

    # 2. Analytic tier: decide regions with a clear model margin.
    evaluated = 0
    decisions: Dict[int, RegionDecision] = {}
    ambiguous: Dict[int, List[Tuple[str, Optional[str]]]] = {}
    model_costs: Dict[int, Dict[Tuple[str, Optional[str]], ModelCost]] = {}
    family_best: Dict[
        int, Dict[Optional[str], Tuple[str, Optional[str]]]
    ] = {}
    for rid in region_ids:
        cands = candidates

        def _priced(cal=None) -> Dict[Tuple[str, Optional[str]], ModelCost]:
            """Price every candidate of this region."""
            nonlocal evaluated
            evaluated += len(cands)
            return {
                c: region_model_cost(
                    programs[c].plans[rid], params, calibration=cal
                )
                for c in cands
            }

        costs = _priced()
        model_costs[rid] = costs

        def _value_of(cost_of) -> Dict[Tuple[str, Optional[str]], float]:
            out = {}
            for (g, s) in cands:
                v = cost_of[(g, s)].metric(metric)
                if s is not None and metric != "comm_cpu":
                    v += imb[rid].get(s, 0.0) * compute_s.get(rid, 0.0)
                out[(g, s)] = v
            return out

        value = _value_of(costs)
        ranked = sorted(
            cands,
            key=lambda c: (
                value[c],
                costs[c].messages,
                _pref(rid, c[1]),
                GRAINS.index(c[0]),
            ),
        )
        values = [value[c] for c in ranked]
        margin = _margin(values)
        best_g, best_s = ranked[0]
        # The model-best candidate per strategy family, for the family
        # arbitration tier below (ranked order already applied the
        # tie-break, so the first hit per family is its best).  Within a
        # family the *static* model ranks — its §5.6 pricing is exact up
        # to scheduling, and grains of one family share that scheduling.
        fam_best: Dict[Optional[str], Tuple[str, Optional[str]]] = {}
        for c in ranked:
            fam_best.setdefault(c[1], c)
        family_best[rid] = fam_best
        model_value = value
        if calibration is not None:
            # Calibrated searches re-price the *champion* comparison —
            # the cross-family gap is exactly where PR 8 measured the
            # static model to be 2-3x optimistic (strided cyclic
            # descriptors priced as single messages), and exactly what
            # the fitted constants absorbed.  The winner, the recorded
            # model values, and therefore the flip-probe margins below
            # all speak calibrated prices; within-family ranking and
            # its near-tie band stay with the static model.
            cal_value = _value_of(_priced(calibration))
            model_value = cal_value
            if len(fam_best) > 1:
                champions = sorted(
                    fam_best.values(),
                    key=lambda c: (
                        cal_value[c],
                        costs[c].messages,
                        _pref(rid, c[1]),
                        GRAINS.index(c[0]),
                    ),
                )
                best_g, best_s = champions[0]
                margin = _margin([cal_value[c] for c in champions])
        decision = RegionDecision(
            region_id=rid,
            grain=best_g,
            how="model",
            margin=margin,
            model={
                _cand_key(g, s): model_value[(g, s)]
                for (g, s) in cands
            },
            partition=best_s if tune_partition else None,
        )
        decisions[rid] = decision
        if margin < epsilon:
            # Candidates within epsilon of the leader go to the profile —
            # except exact structural duplicates: candidates whose region
            # plans price identically (elapsed, CPU, *and* messages) emit
            # equivalent transfer schedules (e.g. the §5.6 bound check
            # demoted every grain to fine), so the deterministic
            # simulator would measure them identically too.  Profiling a
            # duplicate is provably wasted work; the ranked order already
            # applied the tie-break.  Joint searches restrict this tier
            # to the *winner's strategy family*: the model ranks grains
            # reliably within one family, while cross-family gaps are
            # arbitrated by dedicated flip probes on the whole-program
            # metric (below), not by span attribution.
            cands = [
                c
                for c, v in zip(ranked, values)
                if values[0] <= 0.0 or (v - values[0]) / max(v, 1e-30) < epsilon
            ]
            if tune_partition:
                cands = [c for c in cands if c[1] == best_s]
            cands = [
                c
                for i, c in enumerate(cands)
                if not any(
                    costs[c] == costs[h] and value[c] == value[h]
                    for h in cands[:i]
                )
            ]
            if len(cands) > 1:
                ambiguous[rid] = cands

    # 3. Profile tier: one instrumented run per candidate rank.  Every
    #    ambiguous region switches to its k-th candidate in run k, so the
    #    run count is the longest candidate list, not the number of
    #    ambiguous regions.
    if ambiguous:
        rounds = max(len(c) for c in ambiguous.values())
        measured: Dict[int, Dict[str, float]] = {
            rid: {} for rid in ambiguous
        }
        base_grain = decisions[region_ids[0]].grain if region_ids else "fine"
        for k in range(rounds):
            gmap = {
                rid: decisions[rid].grain for rid in region_ids
            }  # model-best everywhere...
            pmap = {
                rid: decisions[rid].partition
                for rid in region_ids
                if decisions[rid].partition is not None
            }
            probe = {
                rid: cands[min(k, len(cands) - 1)]
                for rid, cands in ambiguous.items()
            }
            for rid, (g, s) in probe.items():
                gmap[rid] = g  # ...except ambiguous regions probe cand k
                if s is not None:
                    pmap[rid] = s
            opts = CompileOptions(
                nprocs=nprocs,
                granularity=base_grain,
                grain_map=gmap,
                partition_map=pmap or None,
            )
            prog = compile_source(source, options=opts)
            report = run_program(
                prog,
                cluster_params=params,
                execute=False,
                trace=True,
                faults=faults,
            )
            profiles += 1
            from repro.obs import region_rollup

            rollups = region_rollup(report.trace)
            for rid, cand in probe.items():
                label = _cand_key(*cand)
                if label in measured[rid]:
                    continue  # short candidate list re-ran its last cand
                roll = rollups.get(rid)
                measured[rid][label] = (
                    _measured_value(roll, metric) if roll is not None else 0.0
                )
        for rid, cands in ambiguous.items():
            vals = measured[rid]
            ranked = sorted(
                cands,
                key=lambda c: (
                    vals.get(_cand_key(*c), math.inf),
                    model_costs[rid][c].messages,
                    _pref(rid, c[1]),
                    GRAINS.index(c[0]),
                ),
            )
            ordered = [
                vals[_cand_key(*c)] for c in ranked if _cand_key(*c) in vals
            ]
            best_g, best_s = ranked[0]
            decisions[rid] = replace(
                decisions[rid],
                grain=best_g,
                how="profile",
                margin=_margin(ordered),
                measured=dict(vals),
                partition=best_s if tune_partition else None,
            )

    # 3b. Family arbitration tier (joint searches only).  The analytic
    #     model ranks grains within one strategy family, but its
    #     scheduling assumptions (scatter serialization, collect
    #     overlap, one message per strided descriptor) bias block and
    #     cyclic differently, and unlike the grain axis those biases do
    #     not cancel across families — the model can be confidently
    #     wrong about block-vs-cyclic.  Span attribution cannot referee
    #     either: region rollups double-count collective internals and
    #     miss communication deferred past the region span.  So every
    #     cross-family choice is measured on the *whole-program* metric:
    #     run the plan-so-far once, then flip one region at a time to
    #     the rival family's model-best and keep the flip iff it
    #     strictly improves the program.  Flip configs usually coincide
    #     with uniform variants compiled in step 1, so the compile cache
    #     makes each probe one value-mode run.
    if tune_partition:
        flips: Dict[int, List[Tuple[str, Optional[str]]]] = {}
        for rid in region_ids:
            win = (decisions[rid].grain, decisions[rid].partition)
            model_vals = decisions[rid].model
            for fam, cand in family_best[rid].items():
                if fam == win[1]:
                    continue
                same = (
                    model_costs[rid][cand] == model_costs[rid][win]
                    and model_vals.get(_cand_key(*cand))
                    == model_vals.get(_cand_key(*win))
                )
                if same:  # structural duplicates measure identically
                    continue
                # The static model's cross-family bias has a *direction*:
                # it prices a strided cyclic descriptor as one message
                # (optimistic) and serializes every block scatter
                # (pessimistic), so it flatters cyclic.  When block wins
                # the static model by a clear margin despite that
                # handicap, the verdict is trustworthy; only a cyclic
                # model win (or a near-tie) needs the measured flip.  A
                # *calibrated* model fitted that optimism away, so its
                # clear-margin verdicts are trusted symmetrically: any
                # cross-family loss by >= epsilon skips its probe.
                wv = model_vals.get(_cand_key(*win))
                cv = model_vals.get(_cand_key(*cand))
                clear = (
                    wv is not None
                    and cv is not None
                    and cv > 0.0
                    and (cv - wv) / cv >= epsilon
                )
                if calibration is not None:
                    if clear:
                        continue
                elif (
                    clear
                    and win[1] is not None
                    and parse_strategy(win[1])[0] == "block"
                    and cand[1] is not None
                    and parse_strategy(cand[1])[0] == "cyclic"
                ):
                    continue
                flips.setdefault(rid, []).append(cand)
        if flips:
            def _mixed_report(gmap, pmap):
                # Normalize so configs that coincide with an
                # already-compiled variant hit the compile cache: a
                # partition override equal to the region's auto choice
                # compiles the same program without the override, and a
                # grain map with one value is just that granularity.
                pmap = {
                    r: s for r, s in pmap.items()
                    if s != auto_spec.get(r)
                }
                g0 = gmap[region_ids[0]]
                uniform_grain = all(g == g0 for g in gmap.values())
                opts = CompileOptions(
                    nprocs=nprocs,
                    granularity=g0,
                    grain_map=None if uniform_grain else gmap,
                    partition_map=pmap or None,
                )
                prog = compile_source(source, options=opts)
                return run_program(
                    prog, cluster_params=params, execute=False, faults=faults
                )

            base_gmap = {rid: decisions[rid].grain for rid in region_ids}
            base_pmap = {
                rid: decisions[rid].partition
                for rid in region_ids
                if decisions[rid].partition is not None
            }
            base_val = _report_value(
                _mixed_report(base_gmap, base_pmap), metric
            )
            profiles += 1
            for rid in sorted(flips):
                base_key = _cand_key(
                    decisions[rid].grain, decisions[rid].partition
                )
                vals = dict(decisions[rid].measured)
                vals[base_key] = base_val
                best_val = base_val
                best_cand = None
                for cand in flips[rid]:
                    gmap = dict(base_gmap)
                    pmap = dict(base_pmap)
                    gmap[rid] = cand[0]
                    if cand[1] is not None:
                        pmap[rid] = cand[1]
                    val = _report_value(_mixed_report(gmap, pmap), metric)
                    profiles += 1
                    vals[_cand_key(*cand)] = val
                    if val < best_val:
                        best_val, best_cand = val, cand
                ordered = sorted(vals[k] for k in vals)
                if best_cand is not None:
                    decisions[rid] = replace(
                        decisions[rid],
                        grain=best_cand[0],
                        partition=best_cand[1],
                        how="profile",
                        margin=_margin(ordered),
                        measured=vals,
                    )
                else:
                    decisions[rid] = replace(
                        decisions[rid],
                        how="profile",
                        margin=_margin(ordered),
                        measured=vals,
                    )

    # 4. Compress: majority grain becomes the default, the rest override;
    #    partition overrides only where the choice disagrees with auto.
    chosen = [decisions[rid].grain for rid in region_ids]
    if chosen:
        default = max(
            GRAINS, key=lambda g: (chosen.count(g), -GRAINS.index(g))
        )
    else:
        default = "fine"
    grain_map = {
        rid: decisions[rid].grain
        for rid in region_ids
        if decisions[rid].grain != default
    }
    partition_map: Dict[int, str] = {}
    if tune_partition:
        partition_map = {
            rid: decisions[rid].partition
            for rid in region_ids
            if decisions[rid].partition is not None
            and decisions[rid].partition != auto_spec.get(rid)
        }

    plan = TunePlan(
        metric=metric,
        nprocs=nprocs,
        backend=backend,
        default_grain=default,
        grain_map=grain_map,
        epsilon=epsilon,
        source_sha256=hashlib.sha256(source.encode("utf-8")).hexdigest(),
        decisions=[decisions[rid] for rid in region_ids],
        profiles=profiles,
        tune_partition=tune_partition,
        partition_map=partition_map,
        calibration_sha256=cal_sha,
        evaluated_candidates=evaluated,
    )
    if cache_dir is not None:
        store_row(cache_dir, key, plan.to_jsonable())
    return plan
