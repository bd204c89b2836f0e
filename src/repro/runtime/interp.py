"""IR interpreter with cycle accounting.

Executes statement lists against a :class:`~repro.runtime.memory.RankMemory`
and charges 300 MHz-CPU cycles from a static per-statement cost model.
Two execution modes:

* **value mode** (``execute=True``) — real arithmetic.  Innermost loops
  whose body is a single assignment are vectorized with numpy (masks,
  index arrays, reduction folding — the guide_00/guide_02 idioms), with
  exact fallbacks to per-iteration execution whenever vectorization could
  change semantics (duplicate targets, overlapping self-reads).
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

from typing import Dict, List, Optional, Union

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
        w = self._w_expr(s.rhs) + self.cpu.cycles_mem
        if isinstance(s.lhs, F.ArrayRef):
            w += sum(self._w_expr(sub) for sub in s.lhs.subs) + self.cpu.cycles_add
        return w

    # -- evaluation -----------------------------------------------------------
    def _flat_index(self, ref: F.ArrayRef, env):
        sym = self.symtab.lookup(ref.name)
        if sym is None or not sym.is_array:
            raise InterpError(f"{ref.name} is not an array")
        idx = 0
        for sub, (lo, hi), mult in zip(ref.subs, sym.dims, sym.multipliers()):
            v = self.eval(sub, env)
            idx = idx + (np.asarray(v, dtype=np.int64) - lo) * mult
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
            arr = self.mem.arrays[e.name]
            try:
                if self.probe is not None:
                    self.probe(e.name, idx, False)
                return arr[idx]
            except IndexError:
                raise self._out_of_range(e.name) from None
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
                try:
                    if self.probe is not None:
                        self.probe(s.lhs.name, idx, True)
                    self.mem.arrays[s.lhs.name][idx] = value
                except IndexError:
                    raise self._out_of_range(s.lhs.name) from None
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

    def _out_of_range(self, name: str) -> SubscriptError:
        # Raised from ``except IndexError`` only: the in-range path pays
        # no bounds comparison.  Negative flat indices still wrap.
        return SubscriptError(
            f"subscript out of range for array {name} "
            f"(declared size {self.mem.arrays[name].size})"
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
        niter = (hi - lo) // step + 1 if (hi - lo) * step >= 0 else 0
        niter = max(0, niter)
        if niter == 0:
            return

        if not self.execute and self._pure_nest(loop):
            self.cycles += self._analytic_cycles(loop, env, lo, hi, step)
            if self.metrics is not None:
                self.metrics.counter("interp.loops_analytic").inc()
            return

        if self.execute and len(loop.body) == 1 and isinstance(loop.body[0], F.Assign):
            values = np.arange(lo, lo + niter * step, step, dtype=np.int64)
            if self._vector_assign(loop.body[0], loop.var, values, env):
                self.cycles += niter * (
                    self._w_assign(loop.body[0]) + self.cpu.cycles_loop
                )
                if self.metrics is not None:
                    self.metrics.counter("interp.loops_vectorized").inc()
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
        niter = max(0, (hi - lo) // step + 1 if (hi - lo) * step >= 0 else 0)
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
    def _vector_assign(
        self,
        stmt: F.Assign,
        var: str,
        values: np.ndarray,
        env: Dict[str, object],
    ) -> bool:
        """Try to execute ``DO var: lhs = rhs`` as one numpy operation.

        Returns False (leaving memory untouched) when the transformation
        might change semantics; the caller then runs the scalar loop.
        """
        venv = dict(env)
        venv[var] = values
        try:
            if isinstance(stmt.lhs, F.Var):
                return self._vector_scalar_lhs(stmt, var, values, env, venv)
            lhs_idx = self._flat_index(stmt.lhs, venv)
        except (InterpError, KeyError):
            return False

        if np.ndim(lhs_idx) == 0:
            return self._vector_reduction(
                stmt, var, values, env, venv, int(lhs_idx)
            )

        lhs_idx = np.asarray(lhs_idx, dtype=np.int64)
        if len(np.unique(lhs_idx)) != len(lhs_idx):
            return False  # duplicate targets: order matters

        # Self-reads must be either aligned (same index vector) or disjoint.
        name = stmt.lhs.name
        for node in F.walk_exprs(stmt.rhs):
            if isinstance(node, F.ArrayRef) and node.name == name:
                try:
                    ridx = np.asarray(self._flat_index(node, venv), dtype=np.int64)
                except InterpError:
                    return False
                if np.ndim(ridx) == 0:
                    ridx = np.full(len(lhs_idx), int(ridx), dtype=np.int64)
                if np.array_equal(ridx, lhs_idx):
                    continue
                if np.intersect1d(ridx, lhs_idx).size:
                    return False
        try:
            value = self.eval(stmt.rhs, venv)
        except InterpError:
            return False
        try:
            if self.probe is not None:
                self.probe(name, lhs_idx, True)
            self.mem.arrays[name][lhs_idx] = value
        except IndexError:
            raise self._out_of_range(name) from None
        return True

    def _reduction_parts(self, stmt: F.Assign, lhs_key) -> Optional[tuple]:
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

    def _mentions_lhs(self, expr: F.Expr, stmt: F.Assign) -> bool:
        if isinstance(stmt.lhs, F.Var):
            return any(
                isinstance(e, F.Var) and e.name == stmt.lhs.name
                for e in F.walk_exprs(expr)
            )
        return any(
            isinstance(e, F.ArrayRef) and e.name == stmt.lhs.name
            for e in F.walk_exprs(expr)
        )

    def _apply_reduction(self, op: str, current, vec):
        if op == "+":
            return current + np.sum(vec)
        if op == "-":
            return current - np.sum(vec)
        if op == "*":
            return current * np.prod(vec)
        if op == "MAX":
            return max(current, float(np.max(vec)))
        return min(current, float(np.min(vec)))

    def _vector_scalar_lhs(self, stmt, var, values, env, venv) -> bool:
        name = stmt.lhs.name
        parts = self._reduction_parts(stmt, name)
        if parts is not None:
            op, expr = parts
            if self._mentions_lhs(expr, stmt):
                return False
            try:
                vec = self.eval(expr, venv)
            except InterpError:
                return False
            if np.ndim(vec) == 0:
                vec = np.full(len(values), vec)
            current = self.mem.scalars.get(name, 0.0)
            self._store_scalar(name, self._apply_reduction(op, current, vec))
        else:
            if self._mentions_lhs(stmt.rhs, stmt):
                return False
            try:
                vec = self.eval(stmt.rhs, venv)
            except InterpError:
                return False
            last = vec if np.ndim(vec) == 0 else vec[-1]
            self._store_scalar(name, last)
        return True

    def _vector_reduction(self, stmt, var, values, env, venv, slot) -> bool:
        """Loop-invariant array element accumulates over the loop."""
        parts = self._reduction_parts(stmt, None)
        if parts is None:
            return False
        op, expr = parts
        if self._mentions_lhs(expr, stmt):
            return False
        try:
            vec = self.eval(expr, venv)
        except InterpError:
            return False
        if np.ndim(vec) == 0:
            vec = np.full(len(values), vec)
        arr = self.mem.arrays[stmt.lhs.name]
        try:
            if self.probe is not None:
                self.probe(stmt.lhs.name, slot, False)
                self.probe(stmt.lhs.name, slot, True)
            arr[slot] = self._apply_reduction(op, arr[slot], vec)
        except IndexError:
            raise self._out_of_range(stmt.lhs.name) from None
        return True
