"""Summary sets: classified access regions per program section (paper §4.2).

For a code section (loop body, loop, region) and each array we maintain
the three classified LMAD groups the paper defines:

* **ReadOnly** — regions only read;
* **WriteFirst** — regions written before any (possible) read;
* **ReadWrite** — regions read first, then read or written.

The postpass consumes the classification directly (§5.4): ReadOnly →
data-scattering, WriteFirst → data-collecting, ReadWrite → both.

Classification walks the section's statements in execution order,
tracking which regions have certainly been written (a read covered by an
earlier write in the same iteration is not *exposed*).  Writes under IF
guards are treated as both read and written (scatter + collect), since a
slave that skips the guarded write must still hold current values for the
inflated collect regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.compiler.analysis.access import (
    AccessCache,
    AccessError,
    LoopCtx,
    loop_context,
    whole_array,
)
from repro.compiler.analysis.lmad import LMAD
from repro.compiler.frontend import fast as F
from repro.compiler.frontend.symtab import SymbolTable

__all__ = [
    "READ_ONLY",
    "WRITE_FIRST",
    "READ_WRITE",
    "ArraySummary",
    "ScalarSummary",
    "SummarySet",
    "summarize_loop",
    "summarize_statements",
]

READ_ONLY = "ReadOnly"
WRITE_FIRST = "WriteFirst"
READ_WRITE = "ReadWrite"


@dataclass
class ArraySummary:
    """Per-array regions and classification within one section."""

    array: str
    reads: List[LMAD] = field(default_factory=list)
    writes: List[LMAD] = field(default_factory=list)
    exposed_read: bool = False
    conditional_write: bool = False

    @property
    def classification(self) -> str:
        if not self.writes:
            return READ_ONLY
        if self.exposed_read or self.conditional_write:
            return READ_WRITE
        return WRITE_FIRST


@dataclass
class ScalarSummary:
    """Scalar usage inside a section (feeds privatization/reduction)."""

    name: str
    read: bool = False
    written: bool = False
    exposed_read: bool = False  # read before any write in the section


@dataclass
class SummarySet:
    """All array and scalar summaries for a section."""

    arrays: Dict[str, ArraySummary] = field(default_factory=dict)
    scalars: Dict[str, ScalarSummary] = field(default_factory=dict)

    def array(self, name: str) -> ArraySummary:
        if name not in self.arrays:
            self.arrays[name] = ArraySummary(name)
        return self.arrays[name]

    def scalar(self, name: str) -> ScalarSummary:
        if name not in self.scalars:
            self.scalars[name] = ScalarSummary(name)
        return self.scalars[name]

    def classified(self, cls: str) -> List[ArraySummary]:
        return [a for a in self.arrays.values() if a.classification == cls]


# Opcodes of an access template: a statement list flattened, once per
# compile, into the reads and writes a summary replays in order.
_READ, _SCALAR_READ, _WRITE, _SCALAR_WRITE, _LOOP, _CALL = range(6)


def _template(stmts: Sequence[F.Stmt], symtab: SymbolTable) -> Tuple:
    """``stmts`` as a flat tuple of access ops, in execution order.

    Ops are ``(_READ, ref)``, ``(_SCALAR_READ, name)``, ``(_WRITE, ref,
    conditional)``, ``(_SCALAR_WRITE, name, conditional)``, ``(_LOOP,
    do, body_ops)`` and ``(_CALL,)``.  Writes under IF guards are
    conditional.  Scalar reads of PARAMETER and array names are dropped
    here, since the symbol table cannot change within a compile.
    """
    ops: List[Tuple] = []

    def scalar(name: str) -> None:
        sym = symtab.lookup(name)
        if sym is None or not (sym.is_param or sym.is_array):
            ops.append((_SCALAR_READ, name))

    def ref(node: F.ArrayRef) -> None:
        ops.append((_READ, node))
        # Subscript sub-expressions contain scalar reads.
        for sub in node.subs:
            for inner in F.walk_exprs(sub):
                if isinstance(inner, F.Var):
                    scalar(inner.name)
                elif isinstance(inner, F.ArrayRef):
                    ref(inner)

    def expr(e: F.Expr) -> None:
        for node in F.walk_exprs(e):
            if isinstance(node, F.ArrayRef):
                ref(node)
            elif isinstance(node, F.Var):
                scalar(node.name)

    def walk(body: Sequence[F.Stmt], conditional: bool) -> None:
        for stmt in body:
            if isinstance(stmt, F.Assign):
                expr(stmt.rhs)
                if isinstance(stmt.lhs, F.ArrayRef):
                    for sub in stmt.lhs.subs:
                        expr(sub)
                    ops.append((_WRITE, stmt.lhs, conditional))
                else:
                    ops.append((_SCALAR_WRITE, stmt.lhs.name, conditional))
            elif isinstance(stmt, F.Do):
                outer = len(ops)
                walk(stmt.body, conditional)
                ops[outer:] = [(_LOOP, stmt, tuple(ops[outer:]))]
            elif isinstance(stmt, F.If):
                expr(stmt.cond)
                walk(stmt.then, True)
                for c, blk in stmt.elifs:
                    expr(c)
                    walk(blk, True)
                walk(stmt.orelse, True)
            elif isinstance(stmt, F.PrintStmt):
                for item in stmt.items:
                    if not isinstance(item, F.Str):
                        expr(item)
            elif isinstance(stmt, F.Call):  # pragma: no cover - inlined
                ops.append((_CALL,))

    walk(stmts, False)
    return tuple(ops)


class _Collector:
    def __init__(
        self,
        symtab: SymbolTable,
        loops: Sequence[LoopCtx],
        env: Mapping[str, int],
        cache: AccessCache,
    ):
        self.symtab = symtab
        self.cache = cache
        self.loops = list(loops)
        self.env = dict(env)
        self.summary = SummarySet()
        #: Regions certainly written so far, per array.
        self._written: Dict[str, List[LMAD]] = {}
        self._scalar_written: Set[str] = set()

    def _lmad(self, ref: F.ArrayRef) -> LMAD:
        try:
            return self.cache.lmad(ref, self.loops, self.env)
        except AccessError:
            sym = self.symtab.lookup(ref.name)
            if sym is None or not sym.is_array:
                raise
            return whole_array(sym)

    def walk(self, stmts: Sequence[F.Stmt]) -> None:
        # Keyed by the statements, not the list: every compile of a
        # source builds fresh region lists over the same statements.
        key = tuple(map(id, stmts))
        hit = self.cache.templates.get(key)
        if hit is None:
            hit = self.cache.templates[key] = (
                stmts, _template(stmts, self.symtab)
            )
        self._replay(hit[1])

    def _replay(self, ops: Tuple) -> None:
        summary = self.summary
        for op in ops:
            kind = op[0]
            if kind == _READ:
                ref = op[1]
                region = self._lmad(ref)
                a = summary.array(ref.name)
                a.reads.append(region)
                if not a.exposed_read and not any(
                    w.contains(region) for w in self._written.get(ref.name, ())
                ):
                    a.exposed_read = True
            elif kind == _SCALAR_READ:
                name = op[1]
                if any(c.var == name for c in self.loops):
                    continue  # loop indices are implicitly private
                s = summary.scalar(name)
                s.read = True
                if name not in self._scalar_written:
                    s.exposed_read = True
            elif kind == _WRITE:
                ref = op[1]
                region = self._lmad(ref)
                a = summary.array(ref.name)
                a.writes.append(region)
                if op[2]:
                    a.conditional_write = True
                else:
                    self._written.setdefault(ref.name, []).append(region)
            elif kind == _SCALAR_WRITE:
                s = summary.scalar(op[1])
                s.written = True
                if not op[2]:
                    self._scalar_written.add(op[1])
            elif kind == _LOOP:
                saved = self.loops
                try:
                    inner = loop_context(op[1], self.loops, self.env)
                    self.loops = self.loops + [inner]
                except AccessError:
                    # Bounds depend on symbols outside this context (e.g.
                    # the index of a loop we are summarizing the body of);
                    # keep the context as-is — array refs degrade to
                    # whole-array.
                    pass
                self._replay(op[2])
                self.loops = saved
            else:
                raise AccessError("CALL must be inlined before summarization")


def summarize_statements(
    stmts: Sequence[F.Stmt],
    symtab: SymbolTable,
    loops: Sequence[LoopCtx] = (),
    env: Optional[Mapping[str, int]] = None,
    cache: Optional[AccessCache] = None,
) -> SummarySet:
    """Summary set of a statement sequence under the given loop context.

    ``cache`` shares linearized references and access templates across
    the calls of one compile; without it the call makes a throwaway one.
    """
    col = _Collector(symtab, loops, env or {}, cache or AccessCache(symtab))
    col.walk(stmts)
    return col.summary


def summarize_loop(
    loop: F.Do,
    symtab: SymbolTable,
    outer: Sequence[LoopCtx] = (),
    env: Optional[Mapping[str, int]] = None,
) -> Tuple[SummarySet, LoopCtx]:
    """Summary set of a whole loop (its body expanded by its own index)."""
    ctx = loop_context(loop, outer, env or {})
    summary = summarize_statements(loop.body, symtab, list(outer) + [ctx], env)
    return summary, ctx
