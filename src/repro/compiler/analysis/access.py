"""Extract LMADs from array references inside loop nests (paper §4.1).

The subscript tuple of a reference is linearized against the array's
column-major layout into a single affine offset expression; every loop
index with a non-zero coefficient contributes one LMAD dimension with
stride ``coef * step`` and count ``niter``.  Non-affine subscripts fall
back to a conservative whole-array descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.compiler.analysis.intaffine import Affine, affine_from_expr
from repro.compiler.analysis.lmad import LMAD
from repro.compiler.frontend import fast as F
from repro.compiler.frontend.lower import expr_as_int
from repro.compiler.frontend.symtab import Symbol, SymbolTable
from repro.errors import ReproError

__all__ = [
    "AccessCache",
    "AccessError",
    "LoopCtx",
    "loop_context",
    "ref_lmad",
    "whole_array",
]


class AccessError(ValueError, ReproError):
    """Reference cannot be summarized even conservatively."""


@dataclass(frozen=True)
class LoopCtx:
    """One enclosing loop with concrete (possibly widened) bounds.

    ``exact`` is False when the bounds were widened to cover a
    triangular/imperfect nest conservatively.
    """

    var: str
    lo: int
    hi: int
    step: int
    exact: bool = True

    @property
    def count(self) -> int:
        if self.step > 0:
            n = (self.hi - self.lo) // self.step + 1
        else:
            n = (self.lo - self.hi) // (-self.step) + 1
        return max(0, n)

    @property
    def first(self) -> int:
        return self.lo

    def values(self) -> range:
        return range(self.lo, self.hi + (1 if self.step > 0 else -1), self.step)


def _affine_bound(
    expr: F.Expr, outer: Sequence[LoopCtx], env: Mapping[str, int], want: str
) -> Optional[int]:
    """Min or max of an affine bound over the outer iteration space."""
    aff = affine_from_expr(expr, env)
    if aff is None:
        return None
    total = aff.const
    by_var: Dict[str, LoopCtx] = {c.var: c for c in outer}
    for v, coef in aff.terms.items():
        ctx = by_var.get(v)
        if ctx is None:
            return None  # depends on a non-loop symbol with unknown value
        exts = (ctx.lo, ctx.lo + ctx.step * (ctx.count - 1))
        vals = (coef * exts[0], coef * exts[1])
        total += min(vals) if want == "min" else max(vals)
    return total


def loop_context(
    loop: F.Do,
    outer: Sequence[LoopCtx] = (),
    env: Optional[Mapping[str, int]] = None,
) -> LoopCtx:
    """Concrete bounds for a loop, widening over outer indices if needed."""
    env = env or {}
    step = expr_as_int(loop.step)
    if step is None or step == 0:
        raise AccessError(f"DO {loop.var}: non-constant step")
    lo = expr_as_int(loop.lo)
    hi = expr_as_int(loop.hi)
    exact = True
    if lo is None:
        lo_aff = affine_from_expr(loop.lo, env)
        if lo_aff is not None and lo_aff.is_const:
            lo = lo_aff.const
        else:
            lo = _affine_bound(loop.lo, outer, env, "min" if step > 0 else "max")
            exact = False
    if hi is None:
        hi_aff = affine_from_expr(loop.hi, env)
        if hi_aff is not None and hi_aff.is_const:
            hi = hi_aff.const
        else:
            hi = _affine_bound(loop.hi, outer, env, "max" if step > 0 else "min")
            exact = False
    if lo is None or hi is None:
        raise AccessError(
            f"DO {loop.var}: bounds not resolvable to integers "
            f"({loop.lo} .. {loop.hi})"
        )
    return LoopCtx(var=loop.var, lo=lo, hi=hi, step=step, exact=exact)


def whole_array(sym: Symbol) -> LMAD:
    """Conservative descriptor covering the entire array."""
    return LMAD.from_counts(sym.name, 0, [(1, sym.size)], exact=False)


def _array_symbol(ref: F.ArrayRef, symtab: SymbolTable) -> Symbol:
    sym = symtab.lookup(ref.name)
    if sym is None or not sym.is_array:
        raise AccessError(f"{ref.name} is not a declared array")
    if len(ref.subs) != sym.rank:
        raise AccessError(
            f"{ref.name}: {len(ref.subs)} subscripts for rank {sym.rank}"
        )
    return sym


def _linearize(
    ref: F.ArrayRef, sym: Symbol, env: Mapping[str, int]
) -> Optional[Affine]:
    """offset = Σ (sub_k - lower_k) * mult_k, or None when non-affine."""
    offset = Affine.constant(0)
    for sub, (lower, _), mult in zip(ref.subs, sym.dims, sym.multipliers()):
        aff = affine_from_expr(sub, env)
        if aff is None:
            return None
        offset = offset + (aff - Affine.constant(lower)).scale(mult)
    return offset


def _bind(aff: Affine, env: Mapping[str, int]) -> Affine:
    """``aff`` with every name ``env`` binds replaced by its value."""
    if not any(v in env for v in aff.terms):
        return aff
    const = aff.const
    terms = {}
    for v, c in aff.terms.items():
        if v in env:
            const += c * int(env[v])
        else:
            terms[v] = c
    return Affine(const, terms)


def _offset_lmad(
    sym: Symbol, offset: Optional[Affine], loops: Sequence[LoopCtx]
) -> LMAD:
    """The LMAD a linearized offset sweeps under ``loops``."""
    if offset is None:
        return whole_array(sym)
    loop_by_var = {c.var: c for c in loops}
    # Any symbolic term that is not a loop index means we cannot pin the
    # access down; fall back to the whole array.
    for v in offset.terms:
        if v not in loop_by_var:
            return whole_array(sym)

    base = offset.evaluate({c.var: c.first for c in loops})
    dims: List[Tuple[int, int]] = []
    indices: List[str] = []
    exact = True
    for c in loops:
        coef = offset.coef(c.var)
        if coef == 0 or c.count <= 1:
            continue
        dims.append((coef * c.step, c.count))
        indices.append(c.var)
        exact = exact and c.exact
    lmad = LMAD.from_counts(sym.name, base, dims, indices, exact=exact)
    if lmad.min_offset < 0 or lmad.max_offset >= sym.size:
        # Widened (triangular) bounds can step outside the array; clamp to
        # the whole array conservatively.
        return whole_array(sym)
    return lmad


def ref_lmad(
    ref: F.ArrayRef,
    symtab: SymbolTable,
    loops: Sequence[LoopCtx],
    env: Optional[Mapping[str, int]] = None,
) -> LMAD:
    """The LMAD of one reference under the given enclosing loops.

    ``env`` supplies integer values for non-loop scalars appearing in
    subscripts; unresolvable subscripts yield the whole-array descriptor.
    """
    sym = _array_symbol(ref, symtab)
    return _offset_lmad(sym, _linearize(ref, sym, env or {}), loops)


class AccessCache:
    """Each reference's linearized offset, built once per compile.

    The paper's postpass splits an access into a rank-invariant
    ``A_mapping`` and rank-dependent ``A_offsets``.  This is the mapping
    half: the column-major offset of every :class:`~F.ArrayRef`,
    linearized with no scalar bound.  A call with ``env`` substitutes
    the bound values into the cached form.  When the unbound form is
    non-affine, the call linearizes again under ``env`` instead, since a
    ``/``, ``*`` or ``**`` can become affine once a value is bound; so
    :meth:`lmad` always equals :func:`ref_lmad` exactly.

    The memo is keyed by object identity and keeps each reference alive,
    so one cache must only see the AST of one front (every compile
    variant of one source, ``repro.compiler.postpass.driver.Front``),
    left unmutated once the front pass is done.
    """

    def __init__(self, symtab: SymbolTable):
        self.symtab = symtab
        #: id(ref) -> (ref, its array symbol, its env-free offset or None).
        self._offsets: Dict[
            int, Tuple[F.ArrayRef, Symbol, Optional[Affine]]
        ] = {}
        #: ids of a statement list's statements -> (the list, its flat
        #: access template), filled by ``summary.summarize_statements``.
        self.templates: Dict[Tuple[int, ...], Tuple[object, Tuple]] = {}

    def offset(
        self, ref: F.ArrayRef, env: Mapping[str, int]
    ) -> Tuple[Symbol, Optional[Affine]]:
        """(array symbol, linearized offset under ``env`` or None)."""
        hit = self._offsets.get(id(ref))
        if hit is None:
            sym = _array_symbol(ref, self.symtab)
            hit = self._offsets[id(ref)] = (ref, sym, _linearize(ref, sym, {}))
        _, sym, aff = hit
        if not env:
            return sym, aff
        if aff is None:
            return sym, _linearize(ref, sym, env)
        return sym, _bind(aff, env)

    def lmad(
        self, ref: F.ArrayRef, loops: Sequence[LoopCtx], env: Mapping[str, int]
    ) -> LMAD:
        """:func:`ref_lmad` of ``ref``, from the cached linearization."""
        sym, offset = self.offset(ref, env)
        return _offset_lmad(sym, offset, loops)
