"""IR interpreter with cycle accounting.

Executes statement lists against a :class:`~repro.runtime.memory.RankMemory`
and charges 300 MHz-CPU cycles from a static per-statement cost model.
Two execution modes:

* **value mode** (``execute=True``) — real arithmetic.  A loop whose
  body holds only array assignments and inner DO loops of array
  assignments runs as one *plane*: each statement once, in body order,
  as a NumPy statement over its whole 1-level or 2-level iteration grid.
  Deeper levels iterate in Python, so temporaries stay O(plane).  The
  plane is legal when every element it writes is touched, by every read
  and write in it, at one outer point, and at one inner point of the
  inner loop that writes it; each lane then computes exactly what the
  scalar loop computes.  A single-assignment loop whose target does not
  vary with its variable is a reduction: its rows fold with the ufunc
  reduction along the last axis (``np.add.reduce`` equals ``np.sum`` of
  each row, bit for bit).  Everything else runs the scalar loop, which
  is the reference: scalar targets (``_vector_scalar_lhs`` aside),
  triangular inner bounds, an inner DO variable read outside its loop,
  indirect subscripts outside a lone assignment, ``**`` anywhere in an
  array-target body (NumPy's vector pow can differ from libm's ``pow``
  in the last bit, so a ``**`` result would depend on which path its
  iteration range took), any shape but a lone direct assignment under
  an access probe, a failed legality check, and an error mid-plane
  (its writes are undone first, and the scalar loop raises the typed
  error).  Every subscript is checked against its
  dimension's declared bounds (:class:`SubscriptError`).
* **timing mode** (``execute=False``) — array arithmetic is skipped and
  pure loop nests are charged analytically (``niter x body_cycles``), so
  the 1024x1024 benchmarks run in O(structure) rather than O(work).
  Scalar statements and control flow still execute, which is sound for
  programs whose control flow never depends on array values (checked by
  the compiler's subset).

The cost model is intentionally simple — the paper's evaluation depends
on compute/communication *ratios*, not microarchitectural detail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.compiler.frontend import fast as F
from repro.compiler.frontend.symtab import SymbolTable
from repro.errors import ReproError
from repro.runtime.memory import RankMemory
from repro.vbus.params import CpuParams

__all__ = ["Interpreter", "InterpError", "SubscriptError", "DivideByZeroError"]


class InterpError(RuntimeError):
    """Runtime evaluation failure (unbound name, bad subscript, ...)."""


class SubscriptError(InterpError, ReproError):
    """A subscript past the declared end of its array (a program bug)."""


class DivideByZeroError(InterpError, ReproError):
    """A ``/`` or ``MOD`` with a zero divisor (a program bug).

    Raised by the scalar and the vectorized path alike: a vectorized
    loop that hits it falls back to the scalar loop, which raises it.
    """


def _check_divisor(b, e) -> None:
    zero = (b == 0).any() if isinstance(b, np.ndarray) else b == 0
    if zero:
        raise DivideByZeroError(f"division by zero in {e}")


def _is_int_like(x) -> bool:
    if isinstance(x, (int, np.integer)):
        return True
    return isinstance(x, np.ndarray) and x.dtype.kind in "iu"


def _trunc_div(a, b):
    """Fortran integer division: truncate toward zero, exactly.

    Must not round-trip through float64: for |operands| > 2**53 the
    division loses low bits and the truncated quotient comes out wrong
    (e.g. (2**62 + 1) / 1).  Integer-only identity instead:
    ``trunc(a/b) == sign(a)*sign(b) * (|a| // |b|)``.
    """
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        a = int(a)
        b = int(b)
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q
    aa = np.asarray(a)
    bb = np.asarray(b)
    if aa.dtype.kind in "iu" and bb.dtype.kind in "iu":
        sign = np.where((aa < 0) != (bb < 0), -1, 1)
        out = sign * (np.abs(aa.astype(np.int64)) // np.abs(bb.astype(np.int64)))
        return int(out) if out.ndim == 0 else out
    # Mixed/float operands: original float semantics.
    q = np.trunc(aa.astype(np.float64) / bb.astype(np.float64))
    out = q.astype(np.int64)
    return int(out) if out.ndim == 0 else out


_INTRINSICS = {
    "SQRT": np.sqrt,
    "SIN": np.sin,
    "COS": np.cos,
    "TAN": np.tan,
    "ATAN": np.arctan,
    "EXP": np.exp,
    "LOG": np.log,
    "ABS": np.abs,
}


class Interpreter:
    def __init__(
        self,
        mem: RankMemory,
        symtab: SymbolTable,
        cpu: CpuParams,
        execute: bool = True,
        metrics=None,
    ):
        self.mem = mem
        self.symtab = symtab
        self.cpu = cpu
        self.execute = execute
        self.cycles = 0.0
        self.prints: List[str] = []
        self._static: Dict[int, float] = {}
        self._layouts: Dict[str, tuple] = {}
        #: id(loop) -> (loop, its plane or None); holding the loop keeps
        #: the id from being reused while the entry lives.
        self._planes: Dict[int, tuple] = {}
        #: Optional :class:`repro.obs.metrics.MetricsRegistry` — counts
        #: which loop-execution strategy fired (pure accounting; never
        #: changes evaluation order or results).
        self.metrics = metrics
        #: Optional access probe ``(name, flat_idx, is_write) -> None``
        #: installed by the ``--sanitize`` shadow-access mode.  Fires on
        #: every value-mode array read/write (scalar and vectorized
        #: paths alike); never changes evaluation order or results.
        self.probe = None

    # -- cycle accounting ---------------------------------------------------
    def take_seconds(self) -> float:
        """Drain accumulated cycles as seconds of CPU time."""
        s = self.cpu.seconds(self.cycles)
        self.cycles = 0.0
        return s

    def _w_expr(self, e: F.Expr) -> float:
        key = id(e)
        if key in self._static:
            return self._static[key]
        c = self.cpu
        if isinstance(e, (F.Num, F.Str)):
            w = 0.0
        elif isinstance(e, F.Var):
            w = c.cycles_mem * 0.5  # register-resident most of the time
        elif isinstance(e, F.ArrayRef):
            w = c.cycles_mem + sum(self._w_expr(s) for s in e.subs) + c.cycles_add
        elif isinstance(e, F.BinOp):
            op_w = {
                "+": c.cycles_add,
                "-": c.cycles_add,
                "*": c.cycles_mul,
                "/": c.cycles_div,
                "**": c.cycles_intrinsic,
            }[e.op]
            w = op_w + self._w_expr(e.left) + self._w_expr(e.right)
        elif isinstance(e, F.UnOp):
            w = c.cycles_add + self._w_expr(e.operand)
        elif isinstance(e, F.Intrinsic):
            base = c.cycles_intrinsic
            if e.name in ("ABS", "MAX", "MIN", "MOD", "INT", "DBLE", "FLOAT"):
                base = c.cycles_add * 2
            w = base + sum(self._w_expr(a) for a in e.args)
        elif isinstance(e, F.RelOp):
            w = c.cycles_add + self._w_expr(e.left) + self._w_expr(e.right)
        elif isinstance(e, F.LogOp):
            w = c.cycles_add
            if e.left is not None:
                w += self._w_expr(e.left)
            if e.right is not None:
                w += self._w_expr(e.right)
        else:  # pragma: no cover
            raise InterpError(f"unknown expr {e!r}")
        self._static[key] = w
        return w

    def _w_assign(self, s: F.Assign) -> float:
        key = id(s)
        if key in self._static:
            return self._static[key]
        w = self._w_expr(s.rhs) + self.cpu.cycles_mem
        if isinstance(s.lhs, F.ArrayRef):
            w += sum(self._w_expr(sub) for sub in s.lhs.subs) + self.cpu.cycles_add
        self._static[key] = w
        return w

    # -- evaluation -----------------------------------------------------------
    def _layout(self, name: str):
        """``((lo, hi), multiplier)`` per dimension of array ``name``."""
        layout = self._layouts.get(name)
        if layout is None:
            sym = self.symtab.lookup(name)
            if sym is None or not sym.is_array:
                raise InterpError(f"{name} is not an array")
            layout = tuple(zip(sym.dims, sym.multipliers()))
            self._layouts[name] = layout
        return layout

    def _flat_index(self, ref: F.ArrayRef, env):
        """Column-major flat offset of ``ref``; every subscript must lie
        within its dimension's declared bounds (one compare per scalar,
        one min/max per vector)."""
        idx = 0
        for dim, (sub, ((lo, hi), mult)) in enumerate(
            zip(ref.subs, self._layout(ref.name)), 1
        ):
            v = self.eval(sub, env)
            if type(v) is not int:
                v = np.asarray(v, dtype=np.int64)
                if v.ndim == 0:
                    v = int(v)
            if type(v) is int:
                if not lo <= v <= hi:
                    raise self._out_of_range(ref.name, dim, v, lo, hi)
            elif v.size:
                for bad in (v.min(), v.max()):
                    if not lo <= bad <= hi:
                        raise self._out_of_range(ref.name, dim, bad, lo, hi)
            idx = idx + (v - lo) * mult
        return idx

    def eval(self, e: F.Expr, env: Dict[str, object]):
        """Evaluate an expression; numpy-vectorized when env holds arrays."""
        if isinstance(e, F.Num):
            return int(e.value) if e.is_int else float(e.value)
        if isinstance(e, F.Var):
            if e.name in env:
                return env[e.name]
            if e.name in self.mem.scalars:
                return self.mem.scalars[e.name]
            sym = self.symtab.lookup(e.name)
            if sym is not None and sym.is_param:
                return sym.param_value
            raise InterpError(f"unbound variable {e.name}")
        if isinstance(e, F.ArrayRef):
            if not self.execute:
                return 0.0
            idx = self._flat_index(e, env)
            if self.probe is not None:
                self.probe(e.name, idx, False)
            return self.mem.arrays[e.name][idx]
        if isinstance(e, F.BinOp):
            a = self.eval(e.left, env)
            b = self.eval(e.right, env)
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            if e.op == "*":
                return a * b
            if e.op == "/":
                _check_divisor(b, e)
                if _is_int_like(a) and _is_int_like(b):
                    return _trunc_div(a, b)
                return a / b
            if e.op == "**":
                return a**b
            raise InterpError(f"bad op {e.op}")
        if isinstance(e, F.UnOp):
            return -self.eval(e.operand, env)
        if isinstance(e, F.Intrinsic):
            return self._intrinsic(e, env)
        if isinstance(e, F.RelOp):
            a = self.eval(e.left, env)
            b = self.eval(e.right, env)
            return {
                "<": a < b,
                "<=": a <= b,
                ">": a > b,
                ">=": a >= b,
                "==": a == b,
                "/=": a != b,
            }[e.op]
        if isinstance(e, F.LogOp):
            if e.op == ".NOT.":
                return np.logical_not(self.eval(e.right, env))
            a = self.eval(e.left, env)
            b = self.eval(e.right, env)
            return np.logical_and(a, b) if e.op == ".AND." else np.logical_or(a, b)
        if isinstance(e, F.Str):
            raise InterpError("string outside PRINT")
        raise InterpError(f"unknown expr {e!r}")

    def _intrinsic(self, e: F.Intrinsic, env):
        args = [self.eval(a, env) for a in e.args]
        name = e.name
        if name in _INTRINSICS:
            return _INTRINSICS[name](args[0])
        if name == "ATAN2":
            return np.arctan2(args[0], args[1])
        if name == "MAX":
            out = args[0]
            for a in args[1:]:
                out = np.maximum(out, a)
            return out
        if name == "MIN":
            out = args[0]
            for a in args[1:]:
                out = np.minimum(out, a)
            return out
        if name == "MOD":
            _check_divisor(args[1], e)
            if _is_int_like(args[0]) and _is_int_like(args[1]):
                q = _trunc_div(args[0], args[1])
                return args[0] - q * args[1]
            return np.fmod(args[0], args[1])
        if name == "INT":
            v = np.trunc(args[0]).astype(np.int64)
            return int(v) if np.ndim(v) == 0 else v
        if name == "NINT":
            v = np.rint(args[0]).astype(np.int64)
            return int(v) if np.ndim(v) == 0 else v
        if name in ("DBLE", "FLOAT"):
            return np.asarray(args[0], dtype=np.float64) if np.ndim(args[0]) else float(args[0])
        if name == "SIGN":
            return np.copysign(np.abs(args[0]), args[1])
        raise InterpError(f"unknown intrinsic {name}")

    # -- statement execution -------------------------------------------------
    def exec_stmts(self, stmts, env: Optional[Dict[str, object]] = None) -> None:
        env = env if env is not None else {}
        for s in stmts:
            self.exec_stmt(s, env)

    def exec_stmt(self, s: F.Stmt, env: Dict[str, object]) -> None:
        if isinstance(s, F.Assign):
            self.cycles += self._w_assign(s)
            if isinstance(s.lhs, F.Var):
                value = self.eval(s.rhs, env)
                self._store_scalar(s.lhs.name, value)
            else:
                if not self.execute:
                    return
                idx = self._flat_index(s.lhs, env)
                value = self.eval(s.rhs, env)
                if self.probe is not None:
                    self.probe(s.lhs.name, idx, True)
                self.mem.arrays[s.lhs.name][idx] = value
        elif isinstance(s, F.Do):
            self.run_loop(s, env)
        elif isinstance(s, F.If):
            self.cycles += self._w_expr(s.cond)
            if bool(self.eval(s.cond, env)):
                self.exec_stmts(s.then, env)
                return
            for c, blk in s.elifs:
                self.cycles += self._w_expr(c)
                if bool(self.eval(c, env)):
                    self.exec_stmts(blk, env)
                    return
            self.exec_stmts(s.orelse, env)
        elif isinstance(s, F.PrintStmt):
            parts = []
            for item in s.items:
                if isinstance(item, F.Str):
                    parts.append(item.value)
                else:
                    parts.append(self._fmt(self.eval(item, env)))
            self.prints.append(" ".join(parts))
        elif isinstance(s, F.Call):  # pragma: no cover - inlined by FE
            raise InterpError("CALL reached the interpreter")

    def _out_of_range(self, name, dim, value, lo, hi) -> SubscriptError:
        return SubscriptError(
            f"subscript {value} out of range {lo}:{hi} in dimension {dim} "
            f"of array {name} (declared size {self.mem.arrays[name].size})"
        )

    @staticmethod
    def _fmt(v) -> str:
        if isinstance(v, (float, np.floating)):
            return f"{float(v):.6g}"
        return str(v)

    def _store_scalar(self, name: str, value) -> None:
        sym = self.symtab.lookup(name)
        if sym is not None and sym.ftype == "INTEGER":
            value = int(np.trunc(value))
        else:
            value = float(value)
        self.mem.scalars[name] = value

    # -- loops --------------------------------------------------------------
    def run_loop(
        self,
        loop: F.Do,
        env: Dict[str, object],
        bounds: Optional[tuple] = None,
    ) -> None:
        """Execute a loop; ``bounds`` overrides (lo, hi, step) — the
        executor passes each rank's partition chunk this way."""
        if bounds is not None:
            lo, hi, step = bounds
        else:
            lo = int(self.eval(loop.lo, env))
            hi = int(self.eval(loop.hi, env))
            step = int(self.eval(loop.step, env))
        if step == 0:
            raise InterpError(f"DO {loop.var}: zero step")
        niter = _trip_count(lo, hi, step)
        if niter == 0:
            return

        if not self.execute and self._pure_nest(loop):
            self.cycles += self._analytic_cycles(loop, env, lo, hi, step)
            if self.metrics is not None:
                self.metrics.counter("interp.loops_analytic").inc()
            return

        if self.execute and self._run_vector(loop, env, lo, step, niter):
            # Fortran: the DO variable holds first-past-the-end after.
            self.mem.scalars[loop.var] = lo + niter * step
            return

        had = loop.var in env
        saved = env.get(loop.var)
        v = lo
        for _ in range(niter):
            env[loop.var] = v
            self.cycles += self.cpu.cycles_loop
            for s in loop.body:
                self.exec_stmt(s, env)
            v += step
        if had:
            env[loop.var] = saved
        else:
            env.pop(loop.var, None)
        # Fortran: the DO variable holds first-past-the-end afterwards.
        self.mem.scalars[loop.var] = v

    def _pure_nest(self, loop: F.Do) -> bool:
        for s in F.walk_stmts(loop.body):
            if not isinstance(s, (F.Assign, F.Do)):
                return False
        return True

    def _bounds_mention(self, inner: F.Do, var: str) -> bool:
        for bound in (inner.lo, inner.hi):
            if any(
                isinstance(e, F.Var) and e.name == var
                for e in F.walk_exprs(bound)
            ):
                return True
        return False

    def _analytic_cycles(
        self, loop: F.Do, env: Dict[str, object], lo: int, hi: int, step: int
    ) -> float:
        niter = _trip_count(lo, hi, step)
        if niter == 0:
            return 0.0
        triangular = any(
            isinstance(s, F.Do) and self._bounds_mention(s, loop.var)
            for s in loop.body
        )
        if triangular:
            total = 0.0
            had = loop.var in env
            saved = env.get(loop.var)
            v = lo
            for _ in range(niter):
                env[loop.var] = v
                total += self.cpu.cycles_loop + self._body_cycles(loop.body, env)
                v += step
            if had:
                env[loop.var] = saved
            else:
                env.pop(loop.var, None)
            return total
        per_iter = self.cpu.cycles_loop + self._body_cycles(loop.body, env)
        return niter * per_iter

    def _body_cycles(self, stmts, env) -> float:
        total = 0.0
        for s in stmts:
            if isinstance(s, F.Assign):
                total += self._w_assign(s)
            elif isinstance(s, F.Do):
                lo = int(self.eval(s.lo, env))
                hi = int(self.eval(s.hi, env))
                step = int(self.eval(s.step, env))
                total += self._analytic_cycles(s, env, lo, hi, step)
            else:  # pragma: no cover - guarded by _pure_nest
                raise InterpError("non-pure statement in analytic path")
        return total

    # -- vectorization --------------------------------------------------------
    def _run_vector(self, loop: F.Do, env, lo: int, step: int, niter: int) -> bool:
        """Run ``loop`` as NumPy array statements where that cannot
        change its result.  False leaves memory untouched; the caller
        then runs the scalar loop."""
        body = loop.body
        values = np.arange(lo, lo + niter * step, step, dtype=np.int64)
        nested = False
        if (
            len(body) == 1
            and isinstance(body[0], F.Assign)
            and isinstance(body[0].lhs, F.Var)
        ):
            if not self._vector_scalar_lhs(body[0], loop.var, values, env):
                return False
            cycles = niter * (self._w_assign(body[0]) + self.cpu.cycles_loop)
        else:
            plane = self._plane_of(loop)
            if plane is None or (self.probe is not None and not plane.single):
                return False
            cycles = self._run_plane(plane, loop, env, values)
            if cycles is None:
                return False
            nested = bool(plane.loops)
        self.cycles += cycles
        if self.metrics is not None:
            self.metrics.counter("interp.loops_vectorized").inc()
            if nested:
                self.metrics.counter("interp.nests_vectorized").inc()
        return True

    def _plane_of(self, loop: F.Do) -> Optional["_Plane"]:
        hit = self._planes.get(id(loop))
        if hit is None or hit[0] is not loop:
            hit = (loop, _plan_plane(loop))
            self._planes[id(loop)] = hit
        return hit[1]

    def _run_plane(self, plane: "_Plane", loop: F.Do, env, ov) -> Optional[float]:
        """Execute ``plane`` over the outer values ``ov``: each statement
        once, in body order, over its whole 1-level or 2-level grid.

        Returns the cycles the scalar loop would charge, or None with
        memory as it was: a subscript out of bounds, an element touched
        at two iteration points, or an evaluation error (whose typed
        error the scalar loop then raises at its own point).
        """
        n = len(ov)
        env1 = dict(env)
        env1[loop.var] = ov
        inner: Dict[int, Optional[tuple]] = {}  # id(do) -> (env, m, end)
        written = {p.stmt.lhs.name: [] for p in plane.parts}
        grids = []
        undo = []
        try:
            for do in plane.loops:
                klo = int(self.eval(do.lo, env))
                khi = int(self.eval(do.hi, env))
                kstep = int(self.eval(do.step, env))
                if kstep == 0:
                    return None
                m = _trip_count(klo, khi, kstep)
                envl = dict(env)
                envl[loop.var] = ov[:, None]
                envl[do.var] = np.arange(
                    klo, klo + m * kstep, kstep, dtype=np.int64
                )[None, :]
                inner[id(do)] = (envl, m, klo + m * kstep) if m else None
            # Every index before any write: a miss raises here.
            for part in plane.parts:
                if part.loop is None:
                    penv, shape = env1, (n,)
                elif inner[id(part.loop)] is None:
                    grids.append(None)
                    continue
                else:
                    penv, m, _ = inner[id(part.loop)]
                    shape = (n, m)
                lhs = part.stmt.lhs
                tidx = self._flat_index(lhs, penv)
                at = part.loop if part.red is None else None
                if part.red is None:
                    tidx = np.broadcast_to(tidx, shape)
                    written[lhs.name].append((tidx, at, True))
                elif part.loop is not None:
                    tidx = np.broadcast_to(tidx, (n, 1))[:, 0]
                    written[lhs.name].append((tidx, None, True))
                for ref in part.reads:
                    ridx = self._flat_index(ref, penv)
                    if ref.name in written:
                        ridx = np.broadcast_to(ridx, shape)
                        written[ref.name].append((ridx, at, False))
                grids.append((penv, shape, tidx))
            if not self._plane_legal(n, inner, written):
                return None
            last = len(plane.parts) - 1
            for k, (part, grid) in enumerate(zip(plane.parts, grids)):
                if grid is None:
                    continue
                penv, shape, tidx = grid
                name = part.stmt.lhs.name
                arr = self.mem.arrays[name]
                if part.red is None:
                    value = self.eval(part.stmt.rhs, penv)
                else:
                    op, expr = part.red
                    vec = np.ascontiguousarray(
                        np.broadcast_to(self.eval(expr, penv), shape)
                    )
                    value = _fold(op, arr[tidx], vec)
                    if self.probe is not None:
                        self.probe(name, tidx, False)
                if self.probe is not None:
                    self.probe(name, tidx, True)
                if k < last:
                    undo.append((arr, tidx, arr[tidx]))
                arr[tidx] = value
        except (InterpError, ArithmeticError, ValueError):
            # ValueError: numpy refuses what Python evaluates (an integer
            # to a negative integer power); the scalar loop decides.
            for arr, idx, old in reversed(undo):
                arr[idx] = old
            return None
        per_iter = self.cpu.cycles_loop
        for part in plane.parts:
            if part.loop is None:
                per_iter += self._w_assign(part.stmt)
        for do in plane.loops:
            if inner[id(do)] is not None:
                _, m, end = inner[id(do)]
                per_iter += m * (
                    self.cpu.cycles_loop + sum(self._w_assign(t) for t in do.body)
                )
                # Fortran: the DO variable holds first-past-the-end after.
                self.mem.scalars[do.var] = end
        return n * per_iter

    def _plane_legal(self, n: int, inner, written) -> bool:
        """The one-point rule: every element the plane writes is touched,
        by every access in it, at one outer point, and at one inner
        point of each inner loop that writes it."""
        outer = np.arange(n)
        for name, accesses in written.items():
            if not accesses:
                continue
            size = self.mem.arrays[name].size
            loops = {id(at): at for _, at, w in accesses if w and at is not None}
            if len({id(at) for _, at, _ in accesses}) > 1 or not loops:
                labelled = [
                    (idx, outer if idx.ndim == 1 else outer[:, None], w)
                    for idx, _, w in accesses
                ]
                if not _one_point(size, labelled):
                    return False
            for do in loops.values():
                m = inner[id(do)][1]
                point = outer[:, None] * m + np.arange(m)
                labelled = [(idx, point, w) for idx, at, w in accesses if at is do]
                if not _one_point(size, labelled):
                    return False
        return True

    def _vector_scalar_lhs(self, stmt, var, values, env) -> bool:
        venv = dict(env)
        venv[var] = values
        name = stmt.lhs.name
        parts = _reduction_parts(stmt)
        if parts is not None:
            op, expr = parts
            if _mentions_lhs(expr, stmt):
                return False
            try:
                vec = self.eval(expr, venv)
            except InterpError:
                return False
            if np.ndim(vec) == 0:
                vec = np.full(len(values), vec)
            current = self.mem.scalars.get(name, 0.0)
            self._store_scalar(name, _fold(op, current, vec))
        else:
            if _mentions_lhs(stmt.rhs, stmt):
                return False
            try:
                vec = self.eval(stmt.rhs, venv)
            except InterpError:
                return False
            last = vec if np.ndim(vec) == 0 else vec[-1]
            self._store_scalar(name, last)
        return True


# -- planes ------------------------------------------------------------------

@dataclass(frozen=True)
class _Part:
    """One assignment of a plane.  ``loop`` is the inner DO it sits in
    (None at the plane loop's own level); ``red`` is ``(op, expr)`` when
    it folds its loop's values into a target that does not vary with
    them; ``reads`` are the array references it evaluates."""

    stmt: F.Assign
    loop: Optional[F.Do]
    red: Optional[tuple]
    reads: Tuple[F.ArrayRef, ...]


@dataclass(frozen=True)
class _Plane:
    parts: Tuple[_Part, ...]
    loops: Tuple[F.Do, ...]
    #: One assignment at one level with direct subscripts: the only
    #: shape run as an array statement under a probe, because working
    #: out its indices reads no array, so the probe sees exactly the
    #: statement's own reads and write.
    single: bool = False


def _names(expr) -> set:
    return {e.name for e in F.walk_exprs(expr) if isinstance(e, F.Var)}


def _stmt_names(stmt: F.Assign) -> set:
    return _names(stmt.lhs) | _names(stmt.rhs)


def _plan_plane(loop: F.Do) -> Optional[_Plane]:
    """``loop`` as a plane, or None.  A plane's body holds only array
    assignments and inner DO loops of array assignments, whose bounds
    read neither arrays nor the outer variable.  No statement uses
    ``**``, an inner DO variable is read only inside its own loop, and
    only a lone assignment may have an indirect subscript."""
    body = loop.body
    if any(
        isinstance(e, F.BinOp) and e.op == "**"
        for s in F.walk_stmts(body)
        if isinstance(s, F.Assign)
        for side in (s.lhs, s.rhs)
        for e in F.walk_exprs(side)
    ):
        # NumPy's vector pow can differ from libm's pow in the last bit,
        # and the scalar loop is the reference.
        return None
    if len(body) == 1 and isinstance(body[0], F.Assign):
        part = _plane_part(body[0], loop.var, None, single=True)
        if part is None:
            return None
        return _Plane((part,), (), single=not _indirect(body[0]))
    loops = tuple(s for s in body if isinstance(s, F.Do))
    ivars = {do.var for do in loops}
    if loop.var in ivars:
        return None
    parts = []
    for s in body:
        if isinstance(s, F.Assign):
            if _indirect(s) or ivars and _stmt_names(s) & ivars:
                return None
            parts.append(_plane_part(s, loop.var, None, single=False))
            continue
        if not isinstance(s, F.Do) or not s.body:
            return None
        bounds = (s.lo, s.hi, s.step)
        if any(isinstance(e, F.ArrayRef) for b in bounds for e in F.walk_exprs(b)):
            return None
        if set().union(*map(_names, bounds)) & (ivars | {loop.var}):
            return None  # triangular, or an inner variable read outside
        others = ivars - {s.var}
        for t in s.body:
            if not isinstance(t, F.Assign) or _indirect(t):
                return None
            if others and _stmt_names(t) & others:
                return None
            parts.append(_plane_part(t, loop.var, s, single=len(s.body) == 1))
    if None in parts:
        return None
    return _Plane(tuple(parts), loops)


def _refs(*exprs) -> List[F.ArrayRef]:
    return [
        e for x in exprs for e in F.walk_exprs(x) if isinstance(e, F.ArrayRef)
    ]


def _indirect(stmt: F.Assign) -> bool:
    """Whether a subscript in ``stmt`` reads an array."""
    refs = _refs(stmt.lhs, stmt.rhs)
    return any(_refs(*ref.subs) for ref in refs)


def _plane_part(stmt: F.Assign, outer: str, loop, single: bool):
    lhs = stmt.lhs
    if not isinstance(lhs, F.ArrayRef):
        return None
    varies = set().union(*map(_names, lhs.subs))
    if loop is not None and outer not in varies:
        return None  # the target repeats at every outer point
    target_reads = _refs(*lhs.subs)
    if (outer if loop is None else loop.var) in varies:
        return _Part(stmt, loop, None, tuple(target_reads + _refs(stmt.rhs)))
    red = _reduction_parts(stmt) if single else None
    if red is None or any(_mentions_lhs(e, stmt) for e in (red[1], *lhs.subs)):
        return None
    return _Part(stmt, loop, red, tuple(target_reads + _refs(red[1])))


def _one_point(size: int, accesses) -> bool:
    """True when each element some write in ``accesses`` touches is
    touched by all of them under one label.  ``accesses`` are
    ``(flat index, label, is_write)`` with labels broadcast to the
    indices; elements only read may carry any labels."""
    owner = np.empty(size, dtype=np.int64)
    for idx, _, is_write in accesses:
        if not is_write:
            owner[idx] = -1
    for idx, label, is_write in accesses:
        if is_write:
            owner[idx] = label
    for idx, label, is_write in accesses:
        got = owner[idx]
        ok = got == label
        if not is_write:
            ok |= got == -1
        if not ok.all():
            return False
    return True


def _trip_count(lo: int, hi: int, step: int) -> int:
    return max(0, (hi - lo) // step + 1 if (hi - lo) * step >= 0 else 0)


def _reduction_parts(stmt: F.Assign) -> Optional[tuple]:
    """Match ``lhs = lhs op expr`` shapes; returns (op, expr)."""
    rhs = stmt.rhs

    def is_lhs(e):
        if isinstance(stmt.lhs, F.Var):
            return isinstance(e, F.Var) and e.name == stmt.lhs.name
        return (
            isinstance(e, F.ArrayRef)
            and e.name == stmt.lhs.name
            and str(e) == str(stmt.lhs)
        )

    if isinstance(rhs, F.BinOp) and rhs.op in ("+", "-", "*"):
        if is_lhs(rhs.left):
            return (rhs.op, rhs.right)
        if rhs.op in ("+", "*") and is_lhs(rhs.right):
            return (rhs.op, rhs.left)
    if (
        isinstance(rhs, F.Intrinsic)
        and rhs.name in ("MAX", "MIN")
        and len(rhs.args) == 2
    ):
        if is_lhs(rhs.args[0]):
            return (rhs.name, rhs.args[1])
        if is_lhs(rhs.args[1]):
            return (rhs.name, rhs.args[0])
    return None


def _mentions_lhs(expr: F.Expr, stmt: F.Assign) -> bool:
    kind = F.Var if isinstance(stmt.lhs, F.Var) else F.ArrayRef
    return any(
        isinstance(e, kind) and e.name == stmt.lhs.name for e in F.walk_exprs(expr)
    )


def _fold(op: str, current, vec):
    """``current op`` the fold of each row of ``vec`` along its last
    axis.  Each row takes the ufunc reduction ``np.sum``/``np.prod``/
    ``np.max``/``np.min`` makes of it as a 1-D vector (pairwise for
    ``+``), so a row-at-a-time fold gives the same bits."""
    if op == "+":
        return current + np.add.reduce(vec, axis=-1)
    if op == "-":
        return current - np.add.reduce(vec, axis=-1)
    if op == "*":
        return current * np.multiply.reduce(vec, axis=-1)
    if op == "MAX":
        x = np.maximum.reduce(vec, axis=-1).astype(np.float64)
        return np.where(x > current, x, current)
    x = np.minimum.reduce(vec, axis=-1).astype(np.float64)
    return np.where(x < current, x, current)
