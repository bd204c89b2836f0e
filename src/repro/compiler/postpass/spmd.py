"""SPMDization (paper §5.5): carve the program into a region tree.

The SPMD target program alternates **sequential regions** (master-only
statement blocks, each ending at a synchronization point where barrier +
scalar-environment broadcast occur) and **parallel regions** (partitioned
loops wrapped in scatter / fence / compute / collect / fence / barrier).
Sequential control flow that *contains* parallel regions (time-stepping
loops, IF guards) becomes replicated control nodes: every rank evaluates
the condition on its synchronized scalar environment so all ranks agree
on the barrier schedule — the master/slave execution-flow control of §3.

The region tree is the shared currency of the AVPG, the communication
planner, the code generator, and the runtime executor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Collection, List, Optional, Tuple, Union

from repro.compiler.frontend import fast as F

__all__ = [
    "SeqBlock",
    "ParRegion",
    "SeqLoop",
    "IfRegion",
    "Region",
    "build_regions",
    "iter_regions",
    "contains_parallel",
]


@dataclass
class SeqBlock:
    """Master-only straight-line statements (may include serial loops)."""

    stmts: List[F.Stmt]
    region_id: int = -1


@dataclass
class ParRegion:
    """One outermost parallel loop; plans attached by the planner."""

    loop: F.Do
    region_id: int = -1
    #: Filled by the postpass driver.
    partition: object = None
    comm_plan: object = None


@dataclass
class SeqLoop:
    """A serial loop whose body contains parallel regions."""

    loop: F.Do  # bounds/var only; body is represented by ``body`` below
    body: List["Region"] = field(default_factory=list)
    region_id: int = -1


@dataclass
class IfRegion:
    """Replicated conditional containing parallel regions."""

    cond: F.Expr
    then: List["Region"] = field(default_factory=list)
    elifs: List[Tuple[F.Expr, List["Region"]]] = field(default_factory=list)
    orelse: List["Region"] = field(default_factory=list)
    region_id: int = -1


Region = Union[SeqBlock, ParRegion, SeqLoop, IfRegion]


def _is_parallel(stmt: F.Stmt, serial: Collection[int]) -> bool:
    return (
        isinstance(stmt, F.Do)
        and stmt.parallel
        and stmt.loop_id not in serial
    )


def contains_parallel(
    stmts: List[F.Stmt], serial: Collection[int] = ()
) -> bool:
    """Whether a parallel loop not kept serial by ``serial`` (loop ids)
    appears anywhere in ``stmts``."""
    return any(_is_parallel(s, serial) for s in F.walk_stmts(stmts))


def build_regions(
    stmts: List[F.Stmt], serial: Collection[int] = (), _ids=None
) -> List[Region]:
    """Partition a statement list into the region tree.

    ``serial`` holds the ids of parallel loops one compile keeps serial
    (the postpass could not plan them); the unit itself is not written.
    """
    ids = _ids if _ids is not None else itertools.count()
    out: List[Region] = []
    pending: List[F.Stmt] = []

    def flush():
        if pending:
            out.append(SeqBlock(stmts=list(pending), region_id=next(ids)))
            pending.clear()

    for stmt in stmts:
        if _is_parallel(stmt, serial):
            flush()
            out.append(ParRegion(loop=stmt, region_id=next(ids)))
        elif isinstance(stmt, F.Do) and contains_parallel(stmt.body, serial):
            flush()
            node = SeqLoop(loop=stmt, region_id=next(ids))
            node.body = build_regions(stmt.body, serial, ids)
            out.append(node)
        elif isinstance(stmt, F.If) and (
            contains_parallel(stmt.then, serial)
            or any(contains_parallel(b, serial) for _c, b in stmt.elifs)
            or contains_parallel(stmt.orelse, serial)
        ):
            flush()
            node = IfRegion(cond=stmt.cond, region_id=next(ids))
            node.then = build_regions(stmt.then, serial, ids)
            node.elifs = [
                (c, build_regions(b, serial, ids)) for c, b in stmt.elifs
            ]
            node.orelse = build_regions(stmt.orelse, serial, ids)
            out.append(node)
        else:
            pending.append(stmt)
    flush()
    return out


def iter_regions(regions: List[Region]):
    """Depth-first iteration over all regions (control nodes included)."""
    for r in regions:
        yield r
        if isinstance(r, SeqLoop):
            yield from iter_regions(r.body)
        elif isinstance(r, IfRegion):
            yield from iter_regions(r.then)
            for _c, blk in r.elifs:
                yield from iter_regions(blk)
            yield from iter_regions(r.orelse)
