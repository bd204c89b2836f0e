"""Work partitioning (paper §5.3, extended with per-region overrides).

Transforms a parallel loop into statically scheduled per-rank iteration
sub-spaces: **block** assignment for rectangular loops, **cyclic** for
triangular ones (where inner loop bounds depend on the parallel index, so
block chunks would be badly imbalanced).  Every rank — master included —
takes a share, matching the measured 4-node speedups above 3x.

The paper hard-codes that policy.  This module also understands explicit
**strategy specs** so the per-region partition autotuner
(docs/PARTITION.md) can override it where the trace disagrees:

* ``"auto"`` — the §5.3 rule (cyclic for triangular, block otherwise);
* ``"block"`` / ``"cyclic"`` — force a strategy on the parallel loop;
* ``"block:D"`` / ``"cyclic:D"`` — partition the loop at **split
  dimension** ``D`` of a perfect rectangular nest instead of the
  outermost one (``D = 0``, the default).  Splitting dimension 1 of a
  column-major 2D sweep turns per-rank column segments into contiguous
  chunks — a communication-shape change no outer-dimension strategy can
  express.

Every strategy computes the same iteration set, each iteration exactly
once, so partitioning is results-invariant; only load balance and the
shape of the scatter/collect regions change.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.compiler.analysis.access import LoopCtx
from repro.compiler.frontend import fast as F
from repro.errors import ReproError

__all__ = [
    "Partition",
    "PartitionError",
    "STRATEGIES",
    "choose_strategy",
    "is_triangular",
    "parse_strategy",
    "split_candidates",
    "split_loop",
]

#: Base partition strategies (split dimensions are orthogonal).
STRATEGIES = ("block", "cyclic")


class PartitionError(ValueError, ReproError):
    """A partition request that cannot be honored, with provenance.

    Raised by the planner (and surfaced verbatim by the CLI) so a bad
    per-region override names the region it came from instead of dying
    as a bare ``ValueError`` deep inside the postpass.
    """

    def __init__(self, detail: str, region_id: Optional[int] = None,
                 loop_var: Optional[str] = None):
        self.detail = detail
        self.region_id = region_id
        self.loop_var = loop_var
        where = ""
        if region_id is not None:
            where = f"region {region_id}"
            if loop_var:
                where += f" (DO {loop_var})"
            where += ": "
        super().__init__(where + detail)


def parse_strategy(spec: str) -> Tuple[str, int]:
    """Split a strategy spec into ``(strategy, split_dim)``.

    ``"block"`` → ``("block", 0)``; ``"cyclic:1"`` → ``("cyclic", 1)``.
    ``"auto"`` is *not* a concrete strategy — resolve it through
    :func:`choose_strategy` first.  Raises :class:`ValueError` on
    anything else.
    """
    if not isinstance(spec, str):
        raise ValueError(f"partition strategy must be a string, got {spec!r}")
    name, sep, dim_s = spec.partition(":")
    if name not in STRATEGIES:
        raise ValueError(
            f"unknown partition strategy {spec!r} "
            f"(want one of {STRATEGIES}, optionally ':DIM')"
        )
    if not sep:
        return name, 0
    if not dim_s.isdigit():
        raise ValueError(f"bad split dimension in {spec!r} (want an integer)")
    return name, int(dim_s)


def is_triangular(loop: F.Do) -> bool:
    """True when an inner loop's bounds reference the parallel index."""
    for stmt in F.walk_stmts(loop.body):
        if isinstance(stmt, F.Do):
            for bound in (stmt.lo, stmt.hi):
                if any(
                    isinstance(e, F.Var) and e.name == loop.var
                    for e in F.walk_exprs(bound)
                ):
                    return True
    return False


def _const_bounds(loop: F.Do) -> bool:
    """Bounds reference no variables at all (compile-time rectangular)."""
    for bound in (loop.lo, loop.hi, loop.step):
        if any(isinstance(e, F.Var) for e in F.walk_exprs(bound)):
            return False
    return True


def split_candidates(loop: F.Do) -> List[int]:
    """Legal split dimensions of a parallel loop, outermost first.

    Dimension 0 (the parallel loop itself) is always legal.  Dimension
    ``d`` is a candidate when the nest is *perfect* down to depth ``d``
    (each body is exactly one DO) and the depth-``d`` loop's bounds are
    compile-time constants — partitioning a bound that moves with an
    outer index would give every rank a different, non-rectangular
    slice.  Whether a deeper split is also *safe* (disjoint writes) is
    the communication planner's call; this is the structural filter.
    """
    dims = [0]
    cur = loop
    depth = 0
    while len(cur.body) == 1 and isinstance(cur.body[0], F.Do):
        cur = cur.body[0]
        depth += 1
        if not _const_bounds(cur):
            break
        dims.append(depth)
    return dims


def split_loop(loop: F.Do, dim: int) -> F.Do:
    """The DO at split depth ``dim`` of a perfect nest (0 = ``loop``)."""
    cur = loop
    for level in range(dim):
        if len(cur.body) != 1 or not isinstance(cur.body[0], F.Do):
            raise ValueError(
                f"DO {loop.var}: nest is not perfect below depth {level} — "
                f"split dimension {dim} does not exist"
            )
        cur = cur.body[0]
    return cur


def choose_strategy(loop: F.Do, requested: str = "auto") -> str:
    """Resolve a partition request into a concrete strategy spec.

    ``"auto"`` applies the paper's §5.3 policy — cyclic for triangular
    loops, block for rectangular ones, always at split dimension 0.
    Explicit specs (``"block"``, ``"cyclic"``, ``"block:1"``, ...) are
    validated against the loop's structure and returned canonically.
    """
    if requested == "auto":
        return "cyclic" if is_triangular(loop) else "block"
    name, dim = parse_strategy(requested)
    if dim:
        legal = split_candidates(loop)
        if dim not in legal:
            raise ValueError(
                f"split dimension {dim} is not available on DO {loop.var} "
                f"(legal: {legal}; deeper dims need a perfect nest with "
                f"constant bounds)"
            )
    return name if dim == 0 else f"{name}:{dim}"


@dataclass(frozen=True)
class Partition:
    """A parallel loop's iteration space divided over ``nprocs`` ranks.

    ``pctx`` is the context of the *partitioned* loop: the parallel loop
    itself at ``split_dim`` 0, or the depth-``split_dim`` loop of a
    perfect nest otherwise (the executor then runs the outer dimensions
    in full on every rank and restricts only the split loop's bounds).
    """

    pctx: LoopCtx
    nprocs: int
    strategy: str  # "block" | "cyclic"
    split_dim: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"bad strategy {self.strategy!r}")
        if self.nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if self.split_dim < 0:
            raise ValueError("split_dim must be >= 0")

    @property
    def spec(self) -> str:
        """The canonical strategy spec string of this partition."""
        if self.split_dim == 0:
            return self.strategy
        return f"{self.strategy}:{self.split_dim}"

    @property
    def niters(self) -> int:
        return self.pctx.count

    def rank_ctx(self, rank: int) -> Optional[LoopCtx]:
        """The sub-LoopCtx rank executes, or None when it gets nothing."""
        if not 0 <= rank < self.nprocs:
            raise ValueError(f"rank {rank} out of range")
        p = self.pctx
        n = self.niters
        if n == 0:
            return None
        if self.strategy == "block":
            chunk = math.ceil(n / self.nprocs)
            t0 = rank * chunk
            t1 = min(n, t0 + chunk) - 1
            if t0 > t1:
                return None
            return LoopCtx(
                var=p.var,
                lo=p.lo + p.step * t0,
                hi=p.lo + p.step * t1,
                step=p.step,
                exact=p.exact,
            )
        # cyclic: t = rank, rank + P, rank + 2P, ...
        if rank >= n:
            return None
        last_t = rank + ((n - 1 - rank) // self.nprocs) * self.nprocs
        return LoopCtx(
            var=p.var,
            lo=p.lo + p.step * rank,
            hi=p.lo + p.step * last_t,
            step=p.step * self.nprocs,
            exact=p.exact,
        )

    def rank_loop(self, rank: int, loop: F.Do) -> Optional[F.Do]:
        """A copy of ``loop`` whose split-dim bounds are rank's slice.

        Used by the executor for ``split_dim > 0`` partitions, where a
        simple outer-bounds override cannot express the restriction; at
        ``split_dim`` 0 prefer the executor's bounds fast path.  Returns
        ``None`` when the rank has no iterations.
        """
        rctx = self.rank_ctx(rank)
        if rctx is None:
            return None
        clone = copy.deepcopy(loop)
        target = split_loop(clone, self.split_dim)
        target.lo = F.Num(rctx.lo)
        target.hi = F.Num(rctx.hi)
        target.step = F.Num(rctx.step)
        return clone

    def owner_of(self, value: int) -> int:
        """Which rank executes the iteration with index value ``value``."""
        p = self.pctx
        t = (value - p.lo) // p.step
        if not 0 <= t < self.niters or p.lo + p.step * t != value:
            raise ValueError(f"{value} is not an iteration of {p}")
        if self.strategy == "block":
            chunk = math.ceil(self.niters / self.nprocs)
            return t // chunk
        return t % self.nprocs

    def coverage(self) -> List[int]:
        """All iteration values, each exactly once, across ranks (sorted)."""
        vals: List[int] = []
        for r in range(self.nprocs):
            ctx = self.rank_ctx(r)
            if ctx is not None:
                vals.extend(ctx.values())
        return sorted(vals)
