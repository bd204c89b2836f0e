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
    AccessError,
    LoopCtx,
    loop_context,
    ref_lmad,
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


class _Collector:
    def __init__(
        self,
        symtab: SymbolTable,
        loops: Sequence[LoopCtx],
        env: Mapping[str, int],
    ):
        self.symtab = symtab
        self.loops = list(loops)
        self.env = dict(env)
        self.summary = SummarySet()
        #: Regions certainly written so far, per array.
        self._written: Dict[str, List[LMAD]] = {}
        self._scalar_written: Set[str] = set()

    # -- expression reads ----------------------------------------------------
    def read_expr(self, expr: F.Expr, conditional: bool) -> None:
        for node in F.walk_exprs(expr):
            if isinstance(node, F.ArrayRef):
                self._read_array(node, conditional)
            elif isinstance(node, F.Var):
                self._read_scalar(node.name)

    def _lmad(self, ref: F.ArrayRef) -> LMAD:
        try:
            return ref_lmad(ref, self.symtab, self.loops, self.env)
        except AccessError:
            sym = self.symtab.lookup(ref.name)
            if sym is None or not sym.is_array:
                raise
            return whole_array(sym)

    def _read_array(self, ref: F.ArrayRef, conditional: bool) -> None:
        region = self._lmad(ref)
        a = self.summary.array(ref.name)
        a.reads.append(region)
        covered = any(w.contains(region) for w in self._written.get(ref.name, []))
        if not covered:
            a.exposed_read = True
        # Subscript sub-expressions contain scalar reads.
        for sub in ref.subs:
            for node in F.walk_exprs(sub):
                if isinstance(node, F.Var):
                    self._read_scalar(node.name)
                elif isinstance(node, F.ArrayRef):
                    self._read_array(node, conditional)

    def _read_scalar(self, name: str) -> None:
        sym = self.symtab.lookup(name)
        if sym is not None and (sym.is_param or sym.is_array):
            return
        if any(c.var == name for c in self.loops):
            return  # loop indices are implicitly private
        s = self.summary.scalar(name)
        s.read = True
        if name not in self._scalar_written:
            s.exposed_read = True

    # -- statement walk -----------------------------------------------------
    def walk(self, stmts: Sequence[F.Stmt], conditional: bool = False) -> None:
        for stmt in stmts:
            self._stmt(stmt, conditional)

    def _stmt(self, stmt: F.Stmt, conditional: bool) -> None:
        if isinstance(stmt, F.Assign):
            self.read_expr(stmt.rhs, conditional)
            if isinstance(stmt.lhs, F.ArrayRef):
                for sub in stmt.lhs.subs:
                    self.read_expr(sub, conditional)
                region = self._lmad(stmt.lhs)
                a = self.summary.array(stmt.lhs.name)
                a.writes.append(region)
                if conditional:
                    a.conditional_write = True
                else:
                    self._written.setdefault(stmt.lhs.name, []).append(region)
            else:
                name = stmt.lhs.name
                s = self.summary.scalar(name)
                s.written = True
                if not conditional:
                    self._scalar_written.add(name)
        elif isinstance(stmt, F.Do):
            saved = self.loops
            try:
                inner = loop_context(stmt, self.loops, self.env)
                self.loops = self.loops + [inner]
            except AccessError:
                # Bounds depend on symbols outside this context (e.g. the
                # index of a loop we are summarizing the body of); keep the
                # context as-is — array refs degrade to whole-array.
                pass
            self.walk(stmt.body, conditional)
            self.loops = saved
        elif isinstance(stmt, F.If):
            self.read_expr(stmt.cond, conditional)
            self.walk(stmt.then, True)
            for c, blk in stmt.elifs:
                self.read_expr(c, conditional)
                self.walk(blk, True)
            self.walk(stmt.orelse, True)
        elif isinstance(stmt, F.PrintStmt):
            for item in stmt.items:
                if not isinstance(item, F.Str):
                    self.read_expr(item, conditional)
        elif isinstance(stmt, F.Call):  # pragma: no cover - inlined earlier
            raise AccessError("CALL must be inlined before summarization")


def summarize_statements(
    stmts: Sequence[F.Stmt],
    symtab: SymbolTable,
    loops: Sequence[LoopCtx] = (),
    env: Optional[Mapping[str, int]] = None,
) -> SummarySet:
    """Summary set of a statement sequence under the given loop context."""
    col = _Collector(symtab, loops, env or {})
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
    col = _Collector(symtab, list(outer) + [ctx], env or {})
    col.walk(loop.body)
    return col.summary, ctx
