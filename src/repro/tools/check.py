"""`repro check` — static verifier over compiled IR + §5.6 transfer plans.

The postpass plans every byte of master↔slave communication statically
(docs/ARCHITECTURE.md), which means its output is *checkable* statically
too: re-derive what correctness requires from the same ART/LMAD
machinery and compare it against the transfer schedule the compiler
actually emitted.  Four analyses, each with stable diagnostic codes
(docs/CHECK.md has the full table):

* **RV1xx transfer coverage** — every remote read is covered by a
  scatter or a still-valid copy (RV101), every observable write by a
  collect (RV102);
* **RV2xx approximate-region races** — the §5.6 middle/coarse collect
  bound check re-derived for the *emitted* plan: overlapping collect
  regions, the master's in-place writes counting as rank 0's (RV201),
  and stale elements inside inflated collects (RV202);
* **RV3xx fence discipline** — a scatter (RV301) or collect (RV302)
  phase whose closing fence epoch is missing;
* **RV4xx partition legality** — a cross-rank flow dependence carried by
  the distributed dimension (RV401): the requested ``block:D``/
  ``cyclic:D`` strategy would silently compute wrong answers.

The verifier re-runs the communication planner on the program's own IR
(deterministic — same region ids, same validity dataflow) and uses the
planner's per-rank access masks and validity state as the *reference*
against which the emitted plans are judged.  A healthy compilation is
clean by construction; plans mutated behind the planner's back (the
``C$BUG`` corpus in tests/badprogs, or a future external plan editor)
are caught.

Results come back as a versioned :class:`CheckReport` (JSON fields
omitted-when-clean for byte-compat), content-address-cached via
:mod:`repro.sweep.cache` when a ``cache_dir`` is given.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from repro.compiler.analysis.summary import (
    READ_ONLY,
    READ_WRITE,
    WRITE_FIRST,
    summarize_statements,
)
from repro.compiler.pipeline import CompileOptions, compile_source
from repro.compiler.postpass.env import generate_environment
from repro.compiler.postpass.granularity import plan_mask
from repro.compiler.postpass.scatter import (
    _PER_ITER_CAP,
    CommPlanner,
    RegionCommPlan,
    collect_hazards,
    stale_collects,
)
from repro.compiler.postpass.spmd import build_regions
from repro.sweep.cache import job_key, load_row, store_row

__all__ = [
    "CHECK_SCHEMA_VERSION",
    "DIAGNOSTIC_CODES",
    "Diagnostic",
    "CheckReport",
    "check_program",
    "check_source",
    "bad_region_map",
]

#: Bumped whenever CheckReport JSON or a diagnostic's meaning changes;
#: part of the content-address cache key, so stale reports cannot be
#: served across schema changes.
CHECK_SCHEMA_VERSION = 2

#: code -> one-line meaning (the authoritative table is docs/CHECK.md).
DIAGNOSTIC_CODES = {
    "RV101": "remote read not covered by a scatter or a valid copy",
    "RV102": "observable write not covered by a collect",
    "RV201": "approximate collect regions of two ranks overlap",
    "RV202": "approximate collect would send stale elements",
    "RV301": "scatter transfers outside a fence epoch",
    "RV302": "collect transfers outside a fence epoch",
    "RV401": "partition strategy breaks a cross-rank flow dependence",
}


@dataclass
class Diagnostic:
    """One verifier finding, with region/loop provenance."""

    code: str
    region_id: int
    detail: str
    array: Optional[str] = None
    rank: Optional[int] = None
    loop_var: Optional[str] = None

    def to_jsonable(self) -> Dict:
        out = {
            "code": self.code,
            "region_id": self.region_id,
            "detail": self.detail,
        }
        if self.array is not None:
            out["array"] = self.array
        if self.rank is not None:
            out["rank"] = self.rank
        if self.loop_var is not None:
            out["loop_var"] = self.loop_var
        return out

    @classmethod
    def from_jsonable(cls, row: Dict) -> "Diagnostic":
        return cls(
            code=row["code"],
            region_id=row["region_id"],
            detail=row["detail"],
            array=row.get("array"),
            rank=row.get("rank"),
            loop_var=row.get("loop_var"),
        )


@dataclass
class CheckReport:
    """The versioned verdict of one static check."""

    nprocs: int
    granularity: str
    partition: str
    version: int = CHECK_SCHEMA_VERSION
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Non-diagnostic transparency notes (e.g. an RV401 analysis skipped
    #: because access info was widened).  Never affect :attr:`clean`.
    notes: List[str] = field(default_factory=list)
    #: Served from the content-address cache (runtime accounting only).
    cached: bool = field(default=False, compare=False)

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    def codes(self) -> Set[str]:
        return {d.code for d in self.diagnostics}

    def to_jsonable(self) -> Dict:
        out = {
            "version": self.version,
            "nprocs": self.nprocs,
            "granularity": self.granularity,
            "partition": self.partition,
        }
        if self.diagnostics:
            out["diagnostics"] = [d.to_jsonable() for d in self.diagnostics]
        if self.notes:
            out["notes"] = list(self.notes)
        return out

    @classmethod
    def from_jsonable(cls, row: Dict) -> "CheckReport":
        return cls(
            nprocs=row["nprocs"],
            granularity=row["granularity"],
            partition=row["partition"],
            version=row["version"],
            diagnostics=[
                Diagnostic.from_jsonable(d) for d in row.get("diagnostics", [])
            ],
            notes=list(row.get("notes", [])),
        )

    def summary(self) -> str:
        head = (
            f"check: nprocs={self.nprocs} granularity={self.granularity} "
            f"partition={self.partition}"
        )
        if self.clean:
            return f"{head}\nclean: no diagnostics"
        lines = [head, f"{len(self.diagnostics)} diagnostic(s):"]
        for d in self.diagnostics:
            where = f"region {d.region_id}"
            if d.loop_var:
                where += f" (DO {d.loop_var})"
            if d.array:
                where += f" {d.array}"
            if d.rank is not None:
                where += f" rank {d.rank}"
            lines.append(f"  {d.code} {where}: {d.detail}")
        return "\n".join(lines)


def _diag_sort_key(d: Diagnostic):
    return (d.region_id, d.code, d.array or "", -1 if d.rank is None else d.rank)


class _VerifyingPlanner(CommPlanner):
    """A CommPlanner that replans the program as the *reference* and, at
    each parallel region's final visit, judges the emitted plan against
    the reference validity state and per-rank access masks.

    Regions inside sequential loops are visited several times (the
    planner's meet-over-backedge fixpoint); findings are keyed by region
    id and overwritten per visit, so only the final (post-meet) pass
    survives — exactly the state the emitted plan was derived from.
    """

    def __init__(self, *args, emitted: Dict[int, RegionCommPlan], **kwargs):
        super().__init__(*args, **kwargs)
        self.emitted = emitted
        self.findings: Dict[int, List[Diagnostic]] = {}
        self.region_notes: Dict[int, List[str]] = {}
        self._last_access = None
        self._rv401_cache: Dict[int, List] = {}

    # -- hooks ---------------------------------------------------------------
    def _rank_regions(self, loop, partition, region_summary):
        out = super()._rank_regions(loop, partition, region_summary)
        self._last_access = (out, region_summary)
        return out

    def _par_region_inner(self, region):
        self._last_access = None
        entry = {k: v.copy() for k, v in self._valid.items()}
        super()._par_region_inner(region)
        self._verify(region, entry)

    # -- verification --------------------------------------------------------
    def _verify(self, region, entry) -> None:
        rid = region.region_id
        diags: List[Diagnostic] = []
        notes: List[str] = []
        self.findings[rid] = diags
        self.region_notes[rid] = notes
        plan_e = self.emitted.get(rid)
        if plan_e is None or self._last_access is None:
            return  # nprocs == 1, or a region the compile never emitted
        per_rank, region_summary = self._last_access
        loop_var = region.loop.var

        for name in sorted(plan_e.arrays):
            aplan_e = plan_e.arrays[name]
            size = self.env.sizes[name]
            ranks_info = per_rank.get(name, {})
            valid = entry.get(name)
            if valid is None:
                continue
            cls = region_summary.arrays[name].classification
            scattered = {
                r: plan_mask(ts, size)
                for r, ts in aplan_e.scatter.items()
            }
            collected = {
                r: plan_mask(ts, size)
                for r, ts in aplan_e.collect.items()
            }

            # RV101: remote reads must be scattered or still valid.
            if cls in (READ_ONLY, READ_WRITE):
                for r in sorted(ranks_info):
                    info = ranks_info[r]
                    if r == 0 or not info.read_mask.any():
                        continue
                    held = valid[r].copy()
                    if r in scattered:
                        held |= scattered[r]
                    uncovered = info.read_mask & ~held
                    if uncovered.any():
                        diags.append(Diagnostic(
                            code="RV101", region_id=rid, array=name, rank=r,
                            loop_var=loop_var,
                            detail=(
                                f"{int(uncovered.sum())} element(s) read "
                                "remotely but neither scattered nor valid"
                            ),
                        ))

            # RV102: observable writes must be collected.
            if cls in (WRITE_FIRST, READ_WRITE) and not (
                self.options.avpg and not self.avpg.reads_after(rid, name)
            ):
                for r in sorted(ranks_info):
                    info = ranks_info[r]
                    if r == 0 or not info.write_mask.any():
                        continue
                    missed = info.write_mask & ~collected.get(
                        r, np.zeros(size, dtype=bool)
                    )
                    if missed.any():
                        diags.append(Diagnostic(
                            code="RV102", region_id=rid, array=name, rank=r,
                            loop_var=loop_var,
                            detail=(
                                f"{int(missed.sum())} written element(s) "
                                "observable after the region but never "
                                "collected"
                            ),
                        ))

            # RV201/RV202: the §5.6 bound check on the emitted collects.
            # The master's own writes land in place, so they are rank 0's
            # collect region.
            landed = dict(collected)
            if 0 in ranks_info:
                landed[0] = ranks_info[0].write_mask
            for r1, r2, n in collect_hazards(landed):
                diags.append(Diagnostic(
                    code="RV201", region_id=rid, array=name, rank=r1,
                    loop_var=loop_var,
                    detail=(
                        f"{aplan_e.collect_grain} collect regions of "
                        f"ranks {r1} and {r2} overlap on {n} element(s)"
                    ),
                ))
            written = {r: info.write_mask for r, info in ranks_info.items()}
            for r, n in stale_collects(collected, written, valid, scattered):
                diags.append(Diagnostic(
                    code="RV202", region_id=rid, array=name, rank=r,
                    loop_var=loop_var,
                    detail=(
                        f"{aplan_e.collect_grain} collect would send "
                        f"{n} stale element(s)"
                    ),
                ))

        # RV301/RV302: transfers outside a fence epoch.
        if any(a.scatter for a in plan_e.arrays.values()) and not (
            plan_e.scatter_fence
        ):
            diags.append(Diagnostic(
                code="RV301", region_id=rid, loop_var=loop_var,
                detail="scatter puts are not closed by a fence epoch",
            ))
        if any(a.collect for a in plan_e.arrays.values()) and not (
            plan_e.collect_fence
        ):
            diags.append(Diagnostic(
                code="RV302", region_id=rid, loop_var=loop_var,
                detail="collect puts are not closed by a fence epoch",
            ))

        # RV401: partition legality (state-independent; cached per region).
        if rid not in self._rv401_cache:
            self._rv401_cache[rid] = self._check_partition(region, notes)
        diags.extend(self._rv401_cache[rid])
        diags.sort(key=_diag_sort_key)

    def _check_partition(self, region, notes: List[str]) -> List[Diagnostic]:
        """RV401: a flow dependence carried by the distributed dimension.

        Re-derives accesses iteration-by-iteration along the distributed
        dimension (serial order) and records, per element, the first
        iteration writing it; a later iteration *reading* that element
        from a different rank would — under the scatter/compute/collect
        model where every rank works on its pre-region copy — observe
        the stale pre-region value instead of the freshly written one.
        Anti-dependences (read before write in serial order) are legal
        under that model and do not fire.
        """
        rid = region.region_id
        partition = region.partition
        loop = region.loop
        dctx = partition.pctx
        if dctx.count > _PER_ITER_CAP:
            notes.append(
                f"region {rid}: {dctx.count} iterations exceed the exact "
                "re-derivation cap; RV401 analysis skipped"
            )
            return []
        stmts, base = self._split_frame(loop, partition)
        owner = np.full(dctx.count, -1, dtype=int)
        for r in range(self.nprocs):
            rctx = partition.rank_ctx(r)
            if rctx is None:
                continue
            for v in rctx.values():
                owner[(v - dctx.lo) // dctx.step] = r

        first_write: Dict[str, np.ndarray] = {}
        hits: Dict[str, Set] = {}
        for t, v in enumerate(dctx.values()):
            try:
                summary = summarize_statements(
                    stmts, self.symtab, tuple(base), {dctx.var: v},
                    cache=self.access,
                )
            except ValueError:
                notes.append(
                    f"region {rid}: accesses not summarizable at "
                    f"{dctx.var}={v}; RV401 analysis skipped"
                )
                return []
            # Reads first: a same-iteration write does not feed them.
            for name, arr in summary.arrays.items():
                if name not in self.env.sizes:
                    continue
                size = self.env.sizes[name]
                if any(not l.exact for l in arr.reads) or any(
                    not l.exact for l in arr.writes
                ):
                    notes.append(
                        f"region {rid}: {name}: widened access info; "
                        "RV401 analysis skipped"
                    )
                    return []
                fw = first_write.get(name)
                if fw is not None and arr.reads:
                    rmask = np.zeros(size, dtype=bool)
                    for l in arr.reads:
                        rmask |= l.mask(size)
                    dep = rmask & (fw >= 0)
                    for e in np.flatnonzero(dep):
                        if owner[fw[e]] != owner[t]:
                            hits.setdefault(name, set()).add(
                                (int(owner[fw[e]]), int(owner[t]))
                            )
            for name, arr in summary.arrays.items():
                if name not in self.env.sizes or not arr.writes:
                    continue
                size = self.env.sizes[name]
                fw = first_write.setdefault(
                    name, np.full(size, -1, dtype=int)
                )
                wmask = np.zeros(size, dtype=bool)
                for l in arr.writes:
                    wmask |= l.mask(size)
                fw[wmask & (fw < 0)] = t

        diags = []
        for name in sorted(hits):
            pairs = sorted(hits[name])
            w, r = pairs[0]
            diags.append(Diagnostic(
                code="RV401", region_id=rid, array=name,
                loop_var=region.loop.var,
                detail=(
                    f"partition {partition.spec!r} places a flow dependence "
                    f"across ranks (e.g. rank {w} writes what rank {r} "
                    f"reads; {len(pairs)} rank pair(s))"
                ),
            ))
        return diags


def check_program(program) -> CheckReport:
    """Statically verify a compiled program's emitted transfer plans."""
    options = program.options
    regions = build_regions(program.unit.body, program.serial_loops)
    env = generate_environment(regions, program.unit.symtab)
    planner = _VerifyingPlanner(
        symtab=program.unit.symtab,
        regions=regions,
        env=env,
        options=options,
        access=program.access,
        emitted=program.plans,
    )
    planner.plan()
    report = CheckReport(
        nprocs=options.nprocs,
        granularity=options.granularity,
        partition=options.partition,
    )
    for rid in sorted(planner.findings):
        report.diagnostics.extend(planner.findings[rid])
    for rid in sorted(planner.region_notes):
        report.notes.extend(planner.region_notes[rid])
    return report


def check_source(
    source: str,
    nprocs: int = 4,
    granularity: str = "fine",
    partition: str = "auto",
    grain_map=None,
    partition_map=None,
    avpg: bool = True,
    live_out=None,
    cache_dir: Optional[str] = None,
) -> CheckReport:
    """Compile ``source`` and verify it, with content-address caching.

    The cache key derivation mirrors docs/AUTOTUNE.md's TunePlan keys:
    option fields join the key only when set, so adding knobs never
    moves existing cache slots (docs/CHECK.md).
    """
    key = None
    if cache_dir is not None:
        config = {
            "kind": "checkreport",
            "check_version": CHECK_SCHEMA_VERSION,
            "source_sha256": hashlib.sha256(
                source.encode("utf-8")
            ).hexdigest(),
            "nprocs": nprocs,
            "granularity": granularity,
        }
        if partition != "auto":
            config["partition"] = partition
        if grain_map:
            config["grain_map"] = {
                str(rid): g for rid, g in dict(grain_map).items()
            }
        if partition_map:
            config["partition_map"] = {
                str(rid): s for rid, s in dict(partition_map).items()
            }
        if not avpg:
            config["avpg"] = False
        if live_out is not None:
            config["live_out"] = sorted(live_out)
        key = job_key(config)
        row = load_row(cache_dir, key)
        if row is not None:
            report = CheckReport.from_jsonable(row)
            report.cached = True
            return report
    program = compile_source(source, options=CompileOptions(
        nprocs=nprocs,
        granularity=granularity,
        partition=partition,
        grain_map=grain_map,
        partition_map=partition_map,
        avpg=avpg,
        live_out=live_out,
    ))
    report = check_program(program)
    if cache_dir is not None:
        store_row(cache_dir, key, report.to_jsonable())
    return report


def bad_region_map(program) -> Dict[int, List[str]]:
    """region_id -> sorted diagnostic codes, for per-region verdicts."""
    out: Dict[int, List[str]] = {}
    for d in check_program(program).diagnostics:
        out.setdefault(d.region_id, [])
        if d.code not in out[d.region_id]:
            out[d.region_id].append(d.code)
    for codes in out.values():
        codes.sort()
    return out
