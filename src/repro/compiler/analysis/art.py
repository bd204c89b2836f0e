"""The Access Region Test: loop-carried dependence testing on LMADs
(paper §4, ref [2]).

For a candidate parallel loop with index values ``v = lo + step*t``,
``t in [0, n)``, every (write, other-access) pair on the same array is
tested for a *cross-iteration* conflict: offsets touched at iteration t1
by the write intersecting offsets touched at a different iteration t2 by
the other access.  Same-iteration conflicts do not block parallelization.

Three verdict tiers, most precise first:

1. **exact** — when the iteration space is small enough, per-iteration
   offset sets are enumerated and compared (no approximation);
2. **interval + stride arithmetic** — closed-form test when both sides
   move with the same per-iteration stride;
3. **GCD/interval conservative** — anything else conflicts unless the
   bounding intervals or the stride lattice rule it out.

The test never reports independence for a loop with a real conflict
(checked by the hypothesis suite against brute-force execution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.compiler.analysis.access import (
    AccessCache,
    AccessError,
    LoopCtx,
    loop_context,
)
from repro.compiler.analysis.intaffine import Affine
from repro.compiler.frontend import fast as F
from repro.compiler.frontend.symtab import SymbolTable

__all__ = ["DependenceReport", "ArrayAccess", "collect_accesses", "test_loop_parallel"]

#: Caps for the exact tier.
_EXACT_MAX_ITERS = 768
_EXACT_MAX_POINTS = 400_000


@dataclass
class ArrayAccess:
    """One array reference inside the candidate loop body."""

    kind: str  # "r" | "w"
    name: str
    aff: Optional[Affine]  # None => non-affine (conservative)
    inner: Tuple[LoopCtx, ...]  # loops between the candidate and the ref
    conditional: bool = False

    def inner_vars(self) -> Set[str]:
        return {c.var for c in self.inner}


@dataclass
class DependenceReport:
    independent: bool
    conflicts: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Access collection
# ---------------------------------------------------------------------------


def collect_accesses(
    loop: F.Do,
    symtab: SymbolTable,
    env: Optional[Dict[str, int]] = None,
    pctx: Optional[LoopCtx] = None,
    cache: Optional[AccessCache] = None,
) -> List[ArrayAccess]:
    """All array accesses in the loop body, with their inner-loop context.

    ``pctx`` (the candidate loop's own bounds) lets triangular inner loops
    widen conservatively instead of degrading to non-affine.  Each
    access's offset is its linearization from ``cache`` (loop indices
    symbolic; None when a subscript is non-affine).
    """
    env = env or {}
    cache = cache if cache is not None else AccessCache(symtab)
    out: List[ArrayAccess] = []

    def ref_access(ref: F.ArrayRef, kind: str, inner, conditional) -> None:
        try:
            _, aff = cache.offset(ref, env)
        except AccessError:
            aff = None
        out.append(
            ArrayAccess(
                kind=kind,
                name=ref.name,
                aff=aff,
                inner=tuple(inner),
                conditional=conditional,
            )
        )

    def scan_expr(expr: F.Expr, inner, conditional) -> None:
        for node in F.walk_exprs(expr):
            if isinstance(node, F.ArrayRef):
                ref_access(node, "r", inner, conditional)

    def walk(stmts: Sequence[F.Stmt], inner: List[LoopCtx], conditional: bool):
        for stmt in stmts:
            if isinstance(stmt, F.Assign):
                scan_expr(stmt.rhs, inner, conditional)
                if isinstance(stmt.lhs, F.ArrayRef):
                    for sub in stmt.lhs.subs:
                        scan_expr(sub, inner, conditional)
                    ref_access(stmt.lhs, "w", inner, conditional)
            elif isinstance(stmt, F.Do):
                try:
                    ctx = loop_context(stmt, inner, env)
                    walk(stmt.body, inner + [ctx], conditional)
                except AccessError:
                    # Bounds depend on the candidate index: widen over the
                    # candidate's own range (triangular nests); only if
                    # even that fails, degrade to non-affine.
                    ctx = None
                    if pctx is not None:
                        try:
                            ctx = loop_context(stmt, [pctx] + inner, env)
                        except AccessError:
                            ctx = None
                    if ctx is not None:
                        walk(stmt.body, inner + [ctx], conditional)
                    else:
                        saved = len(out)
                        walk(stmt.body, inner, conditional)
                        for acc in out[saved:]:
                            acc.aff = None
            elif isinstance(stmt, F.If):
                scan_expr(stmt.cond, inner, conditional)
                walk(stmt.then, inner, True)
                for c, blk in stmt.elifs:
                    scan_expr(c, inner, conditional)
                    walk(blk, inner, True)
                walk(stmt.orelse, inner, True)
            elif isinstance(stmt, F.PrintStmt):
                for item in stmt.items:
                    if not isinstance(item, F.Str):
                        scan_expr(item, inner, conditional)

    walk(loop.body, [], False)
    return out


# ---------------------------------------------------------------------------
# Pairwise conflict testing
# ---------------------------------------------------------------------------


def _inner_range(acc: ArrayAccess) -> Tuple[int, int, int, int]:
    """Inner-loop term geometry of an access.

    Returns ``(lo, hi, base, lattice)``: the min/max of the inner terms,
    their value at the loop-entry corner, and the GCD of the inner
    per-iteration strides — the inner point set is a subset of
    ``base + lattice * Z`` intersected with ``[lo, hi]``.
    """
    lo = hi = base = 0
    lattice = 0
    by_var = {c.var: c for c in acc.inner}
    for v, coef in acc.aff.terms.items():
        ctx = by_var.get(v)
        if ctx is None:
            continue
        a = coef * ctx.lo
        b = coef * (ctx.lo + ctx.step * (ctx.count - 1))
        lo += min(a, b)
        hi += max(a, b)
        base += a
        if ctx.count > 1:
            lattice = math.gcd(lattice, abs(coef * ctx.step))
    return lo, hi, base, lattice


def _outer_coefs(acc: ArrayAccess, pvar: str) -> Dict[str, int]:
    inner = acc.inner_vars()
    return {
        v: c for v, c in acc.aff.terms.items() if v != pvar and v not in inner
    }


def _pair_conflict(
    w: ArrayAccess, x: ArrayAccess, pctx: LoopCtx
) -> Optional[str]:
    """Cross-iteration conflict description, or None if provably absent."""
    if w.aff is None or x.aff is None:
        return f"{w.name}: non-affine access (conservative dependence)"

    pvar = pctx.var
    # Outer symbols must contribute identically to both sides: the two
    # iterations being compared share the same outer context.
    if _outer_coefs(w, pvar) != _outer_coefs(x, pvar):
        return f"{w.name}: accesses differ in outer-symbol terms"

    n = pctx.count
    if n <= 1:
        return None
    c1 = w.aff.coef(pvar) * pctx.step
    c2 = x.aff.coef(pvar) * pctx.step
    d = (w.aff.const + w.aff.coef(pvar) * pctx.lo) - (
        x.aff.const + x.aff.coef(pvar) * pctx.lo
    )
    w_lo, w_hi, w_base, w_lat = _inner_range(w)
    x_lo, x_hi, x_base, x_lat = _inner_range(x)
    # Conflict iff ∃ t1 != t2 in [0,n): c1*t1 - c2*t2 + d ∈ [L, U].
    L = x_lo - w_hi
    U = x_hi - w_lo
    # Lattice of the inner-term difference: (x_base - w_base) + g*Z.
    g = math.gcd(w_lat, x_lat)
    lat_off = x_base - w_base

    maybe = _interval_test(c1, c2, d, L, U, n, g, lat_off)
    if not maybe:
        return None
    # Ambiguous: try the exact tier before surrendering to "dependent".
    witness = _exact_pair_conflict(w, x, pctx)
    if witness == ():
        return None  # exact tier proved independence
    if witness is not None:
        t1, t2, o = witness
        return f"{w.name}: iterations {t1} and {t2} both touch offset {o}"
    return f"{w.name}: possible cross-iteration conflict (interval test)"


def _interval_test(
    c1: int,
    c2: int,
    d: int,
    L: int,
    U: int,
    n: int,
    g: int = 0,
    lat_off: int = 0,
) -> bool:
    """May ``c1*t1 - c2*t2 + d`` hit the inner-difference set for
    t1 != t2 in [0, n)?

    The inner-term difference set is bounded by ``[L, U]`` and, when
    ``g > 0``, lies on the lattice ``lat_off + g*Z`` — the modular
    refinement that separates interleaved column accesses (e.g. the MM
    rows: different iterations occupy different residues mod the leading
    dimension).
    """
    if c1 == c2:
        c = c1
        if c == 0:
            if not (L <= d <= U):
                return False
            return _lattice_hits(0, d, g, lat_off)
        # k = t1 - t2 != 0, |k| <= n-1:  c*k + d ∈ inner-difference set.
        if c > 0:
            k_lo = math.ceil((L - d) / c)
            k_hi = math.floor((U - d) / c)
        else:
            k_lo = math.ceil((U - d) / c)
            k_hi = math.floor((L - d) / c)
        k_lo = max(k_lo, -(n - 1))
        k_hi = min(k_hi, n - 1)
        if k_lo > k_hi or (k_lo == 0 == k_hi):
            return False
        if g <= 0:
            return True
        # Need k != 0 in [k_lo, k_hi] with c*k + d ≡ lat_off (mod g).
        return _congruence_has_solution(c, d - lat_off, g, k_lo, k_hi)
    # Differing strides: bounding interval of c1*t1 - c2*t2 plus GCD filter.
    ts = (0, n - 1)
    vmin = min(c1 * t for t in ts) - max(c2 * t for t in ts)
    vmax = max(c1 * t for t in ts) - min(c2 * t for t in ts)
    if vmax + d < L or vmin + d > U:
        return False
    gc = math.gcd(math.gcd(c1, c2), g)
    if gc > 1 and (d - lat_off) % gc != 0:
        # c1*t1 - c2*t2 + d - lat_off ≡ (d - lat_off) (mod gc) never ≡ 0.
        return False
    return True


def _lattice_hits(value: int, d: int, g: int, lat_off: int) -> bool:
    """Is ``value + d`` on the lattice ``lat_off + g*Z`` (g=0: anything)?"""
    if g <= 0:
        return True
    return (value + d - lat_off) % g == 0


def _congruence_has_solution(
    c: int, rhs_neg: int, g: int, k_lo: int, k_hi: int
) -> bool:
    """Does ``c*k ≡ -rhs_neg (mod g)`` have a nonzero solution in range?"""
    gc = math.gcd(abs(c), g)
    if rhs_neg % gc != 0:
        return False
    m = g // gc
    if m == 1:
        # Every k solves the congruence; a nonzero k exists in range.
        return not (k_lo == 0 == k_hi) and k_lo <= k_hi
    c_r = (c // gc) % m
    rhs = (-rhs_neg // gc) % m
    k0 = (rhs * pow(c_r, -1, m)) % m
    first = k_lo + ((k0 - k_lo) % m)
    while first <= k_hi:
        if first != 0:
            return True
        first += m
    return False


def _enumerate_points(
    acc: ArrayAccess, pvar: str, pvalue: int
) -> Optional[List[int]]:
    """Concrete offsets of an access at one parallel-index value.

    Outer symbols are pinned to 0 — sound for pair comparison because both
    sides carry identical outer terms (checked by the caller).
    """
    by_var = {c.var: c for c in acc.inner}
    base = acc.aff.const
    pts = [0]
    for v, coef in acc.aff.terms.items():
        if v == pvar:
            base += coef * pvalue
        elif v in by_var:
            ctx = by_var[v]
            vals = [coef * val for val in ctx.values()]
            new_pts = [p + q for p in pts for q in vals]
            if len(new_pts) > _EXACT_MAX_POINTS:
                return None
            pts = new_pts
        # else: outer symbol, pinned to 0.
    return [base + p for p in pts]


def _exact_pair_conflict(
    w: ArrayAccess, x: ArrayAccess, pctx: LoopCtx
) -> Optional[Tuple[int, int, int]]:
    """Exact conflict search.

    Returns a witness ``(t1, t2, offset)``, the empty tuple for proven
    independence, or None when the exact tier is infeasible.
    """
    if pctx.count > _EXACT_MAX_ITERS:
        return None
    for acc in (w, x):
        if any(not c.exact for c in acc.inner):
            return None

    w_map: Dict[int, Set[int]] = {}
    x_map: Dict[int, Set[int]] = {}
    total = 0
    for t, v in enumerate(pctx.values()):
        for acc, amap in ((w, w_map), (x, x_map)):
            pts = _enumerate_points(acc, pctx.var, v)
            if pts is None:
                return None
            total += len(pts)
            if total > _EXACT_MAX_POINTS:
                return None
            for o in pts:
                amap.setdefault(o, set()).add(t)

    for o, t_w in w_map.items():
        t_x = x_map.get(o)
        if t_x is None:
            continue
        union = t_w | t_x
        if len(union) >= 2:
            # Two distinct iterations meet at o (at least one is the write).
            it = sorted(union)
            return (it[0], it[1], o)
    return ()


# ---------------------------------------------------------------------------
# Loop-level driver
# ---------------------------------------------------------------------------


def test_loop_parallel(
    loop: F.Do,
    symtab: SymbolTable,
    outer: Sequence[LoopCtx] = (),
    env: Optional[Dict[str, int]] = None,
    cache: Optional[AccessCache] = None,
) -> DependenceReport:
    """Array-dependence verdict for parallelizing ``loop``."""
    env = dict(env or {})
    try:
        pctx = loop_context(loop, outer, env)
    except AccessError as exc:
        return DependenceReport(False, [str(exc)])
    accesses = collect_accesses(loop, symtab, env, pctx=pctx, cache=cache)

    by_array: Dict[str, List[ArrayAccess]] = {}
    for acc in accesses:
        by_array.setdefault(acc.name, []).append(acc)

    conflicts: List[str] = []
    for name, accs in sorted(by_array.items()):
        writes = [a for a in accs if a.kind == "w"]
        for wacc in writes:
            for other in accs:
                msg = _pair_conflict(wacc, other, pctx)
                if msg is not None:
                    conflicts.append(msg)
                    return DependenceReport(False, conflicts)
    return DependenceReport(True, [])
