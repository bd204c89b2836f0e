"""Postpass driver: the Figure 6 pipeline.

MPI environment generation → AVPG → work partitioning → data
scattering/collecting → SPMDization → communication optimization, wired
in the dependency order the implementation needs (regions first, then
environment, then the planner which folds AVPG + partitioning +
scatter/collect + granularity together, then code emission).
"""

from __future__ import annotations

from repro.compiler.analysis.access import (
    AccessCache,
    AccessError,
    loop_context,
)
from repro.compiler.analysis.parallel import detect_parallelism
from repro.compiler.frontend import fast as F
from repro.compiler.postpass.codegen import emit_fortran
from repro.compiler.postpass.env import generate_environment
from repro.compiler.postpass.scatter import CommPlanner
from repro.compiler.postpass.spmd import build_regions
from repro.runtime.program import SpmdProgram

__all__ = ["run_postpass"]


def _demote_unplannable_loops(unit: F.Unit, log_notes) -> None:
    """Parallel loops whose bounds are not compile-time constants cannot be
    statically partitioned; keep them serial (with a note)."""

    def visit(stmts):
        for s in stmts:
            if isinstance(s, F.Do):
                if s.parallel:
                    try:
                        loop_context(s, (), {})
                    except AccessError as exc:
                        s.parallel = False
                        log_notes.append(
                            f"DO {s.var} (loop {s.loop_id}): demoted to "
                            f"serial — {exc}"
                        )
                visit(s.body)
            elif isinstance(s, F.If):
                visit(s.then)
                for _c, blk in s.elifs:
                    visit(blk)
                visit(s.orelse)

    visit(unit.body)


def run_postpass(unit: F.Unit, options) -> SpmdProgram:
    """Run parallelism detection plus the full MPI-2 postpass."""
    notes = []
    # One compile's linearized references and access templates, shared
    # by detection and every planning attempt.
    access = AccessCache(unit.symtab)
    if options.parallelize:
        log = detect_parallelism(unit, cache=access)
        notes.extend(log.entries)
    _demote_unplannable_loops(unit, notes)

    # Plan; when a region cannot be planned safely (e.g. its regions are
    # not statically describable), demote that loop to serial and retry.
    from repro.compiler.postpass.scatter import PlanError

    for _attempt in range(32):
        regions = build_regions(unit.body)
        env = generate_environment(regions, unit.symtab)
        planner = CommPlanner(
            symtab=unit.symtab,
            regions=regions,
            env=env,
            options=options,
            access=access,
        )
        try:
            plans = planner.plan()
            break
        except PlanError as exc:
            loop = getattr(exc, "loop", None)
            if loop is None or not loop.parallel:
                raise
            loop.parallel = False
            notes.append(
                f"DO {loop.var} (loop {loop.loop_id}): demoted to serial — "
                f"{exc}"
            )
    else:  # pragma: no cover - bounded by the loop count
        raise PlanError("postpass failed to converge")
    fortran = emit_fortran(unit, regions, env, plans, options)
    return SpmdProgram(
        unit=unit,
        regions=regions,
        env=env,
        avpg=planner.avpg,
        plans=plans,
        options=options,
        fortran=fortran,
        parallelization_log="\n".join(notes),
    )
