"""Postpass driver: the Figure 6 pipeline.

MPI environment generation → AVPG → work partitioning → data
scattering/collecting → SPMDization → communication optimization, wired
in the dependency order the implementation needs (regions first, then
environment, then the planner which folds AVPG + partitioning +
scatter/collect + granularity together, then code emission).

The front pass (:func:`run_front`) runs once per source: parallelism
detection and the demotion of loops with non-constant bounds depend on
neither grain, partition nor rank count.  It is the last pass that
writes the unit; :func:`run_postpass` plans every compile variant from
the same read-only :class:`Front`, and a loop that one variant cannot
plan is kept serial in that variant's own set of serial loop ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set, Tuple

from repro.compiler.analysis.access import (
    AccessCache,
    AccessError,
    loop_context,
)
from repro.compiler.analysis.parallel import detect_parallelism
from repro.compiler.frontend import fast as F
from repro.compiler.postpass.codegen import emit_fortran
from repro.compiler.postpass.env import generate_environment
from repro.compiler.postpass.scatter import CommPlanner, PlanError
from repro.compiler.postpass.spmd import build_regions
from repro.runtime.program import SpmdProgram

__all__ = ["Front", "run_front", "run_postpass"]


@dataclass(frozen=True)
class Front:
    """One source's analyzed unit, shared by all its compile variants.

    ``unit`` carries the loop annotations and is never written after
    :func:`run_front`; ``notes`` is the detection log; ``access`` holds
    the unit's linearized references and access templates.
    """

    unit: F.Unit
    notes: Tuple[str, ...]
    access: AccessCache


def run_front(unit: F.Unit, parallelize: bool) -> Front:
    """Parallelism detection, then keep serial (with a note) every
    parallel loop whose bounds are not compile-time constants, since it
    cannot be statically partitioned."""
    access = AccessCache(unit.symtab)
    notes = []
    if parallelize:
        notes.extend(detect_parallelism(unit, cache=access).entries)

    def visit(stmts):
        for s in stmts:
            if isinstance(s, F.Do):
                if s.parallel:
                    try:
                        loop_context(s, (), {})
                    except AccessError as exc:
                        s.parallel = False
                        notes.append(
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
    return Front(unit=unit, notes=tuple(notes), access=access)


def run_postpass(front: Front, options) -> SpmdProgram:
    """Run the full MPI-2 postpass for one compile variant."""
    unit = front.unit
    notes = list(front.notes)
    # Plan; when a region cannot be planned safely (e.g. its regions are
    # not statically describable), keep that loop serial and retry.
    serial: Set[int] = set()
    for _attempt in range(32):
        regions = build_regions(unit.body, serial)
        env = generate_environment(regions, unit.symtab)
        planner = CommPlanner(
            symtab=unit.symtab,
            regions=regions,
            env=env,
            options=options,
            access=front.access,
        )
        try:
            plans = planner.plan()
            break
        except PlanError as exc:
            loop = getattr(exc, "loop", None)
            if loop is None or loop.loop_id in serial:
                raise
            serial.add(loop.loop_id)
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
        serial_loops=frozenset(serial),
        access=front.access,
    )
