"""Lowering: parameter folding, DO normalization, inlining, induction
substitution, and loop-id assignment.

After :func:`lower_program`, every unit satisfies the invariants the
analysis phases rely on:

* PARAMETER names no longer appear in expressions (folded to literals);
* every DO step is a non-zero integer constant;
* CALL statements to units defined in the same program are inlined
  (Polaris's interprocedural story, restricted to whole-array / scalar
  arguments — the form the workloads use);
* simple additive induction variables are rewritten as affine functions
  of their loop index (paper §3 lists induction variable substitution as
  a front-end technique);
* every Do node carries a unique ``loop_id`` in program order.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from repro.compiler.frontend import fast as F
from repro.compiler.frontend.symtab import Symbol, SymbolTable
from repro.errors import ReproError

__all__ = ["LowerError", "lower_program", "map_expr", "fold_expr"]


class LowerError(ValueError, ReproError):
    """Lowering failed (unfoldable step, uninlinable call, ...)."""


# ---------------------------------------------------------------------------
# Expression utilities
# ---------------------------------------------------------------------------


def map_expr(expr: F.Expr, fn: Callable[[F.Expr], Optional[F.Expr]]) -> F.Expr:
    """Bottom-up expression rewrite; ``fn`` may return a replacement."""
    if isinstance(expr, (F.Num, F.Str)):
        out = expr
    elif isinstance(expr, F.Var):
        out = expr
    elif isinstance(expr, F.ArrayRef):
        out = F.ArrayRef(expr.name, [map_expr(s, fn) for s in expr.subs])
    elif isinstance(expr, F.BinOp):
        out = F.BinOp(expr.op, map_expr(expr.left, fn), map_expr(expr.right, fn))
    elif isinstance(expr, F.UnOp):
        out = F.UnOp(expr.op, map_expr(expr.operand, fn))
    elif isinstance(expr, F.Intrinsic):
        out = F.Intrinsic(expr.name, [map_expr(a, fn) for a in expr.args])
    elif isinstance(expr, F.RelOp):
        out = F.RelOp(expr.op, map_expr(expr.left, fn), map_expr(expr.right, fn))
    elif isinstance(expr, F.LogOp):
        out = F.LogOp(
            expr.op,
            map_expr(expr.left, fn) if expr.left is not None else None,
            map_expr(expr.right, fn) if expr.right is not None else None,
        )
    else:  # pragma: no cover
        raise LowerError(f"unknown expression node {expr!r}")
    repl = fn(out)
    return out if repl is None else repl


def fold_expr(expr: F.Expr) -> F.Expr:
    """Constant-fold arithmetic on literals (post parameter substitution)."""

    def fold(e: F.Expr) -> Optional[F.Expr]:
        if isinstance(e, F.UnOp) and isinstance(e.operand, F.Num):
            return F.Num(-e.operand.value, e.operand.is_int)
        if (
            isinstance(e, F.BinOp)
            and isinstance(e.left, F.Num)
            and isinstance(e.right, F.Num)
        ):
            a, b = e.left.value, e.right.value
            is_int = e.left.is_int and e.right.is_int
            if e.op == "+":
                return F.Num(a + b, is_int)
            if e.op == "-":
                return F.Num(a - b, is_int)
            if e.op == "*":
                return F.Num(a * b, is_int)
            if e.op == "/":
                if b == 0:
                    raise LowerError(f"division by zero in constant {e}")
                if is_int:
                    q = abs(a) // abs(b)
                    if (a < 0) != (b < 0):
                        q = -q  # Fortran integer division truncates to zero
                    return F.Num(q, True)
                return F.Num(a / b, False)
            if e.op == "**" and (is_int and b >= 0 or not is_int):
                return F.Num(a**b, is_int)
        return None

    return map_expr(expr, fold)


def expr_as_int(expr: F.Expr) -> Optional[int]:
    """The integer value of a folded expression, or None."""
    e = fold_expr(expr)
    if isinstance(e, F.Num) and e.is_int:
        return int(e.value)
    return None


def map_stmt_exprs(stmts: List[F.Stmt], fn) -> None:
    """Rewrite every expression within a statement list, in place."""
    for s in stmts:
        if isinstance(s, F.Assign):
            s.lhs = map_expr(s.lhs, fn)
            s.rhs = map_expr(s.rhs, fn)
        elif isinstance(s, F.Do):
            s.lo = map_expr(s.lo, fn)
            s.hi = map_expr(s.hi, fn)
            s.step = map_expr(s.step, fn)
            map_stmt_exprs(s.body, fn)
        elif isinstance(s, F.If):
            s.cond = map_expr(s.cond, fn)
            map_stmt_exprs(s.then, fn)
            new_elifs = []
            for c, blk in s.elifs:
                map_stmt_exprs(blk, fn)
                new_elifs.append((map_expr(c, fn), blk))
            s.elifs = new_elifs
            map_stmt_exprs(s.orelse, fn)
        elif isinstance(s, F.Call):
            s.args = [map_expr(a, fn) for a in s.args]
        elif isinstance(s, F.PrintStmt):
            s.items = [map_expr(i, fn) for i in s.items]


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def substitute_parameters(unit: F.Unit) -> None:
    """Replace PARAMETER names with literals and fold constants."""
    symtab: SymbolTable = unit.symtab
    params = symtab.params()

    def sub(e: F.Expr) -> Optional[F.Expr]:
        if isinstance(e, F.Var) and e.name in params:
            v = params[e.name]
            return F.Num(v, isinstance(v, int))
        return None

    map_stmt_exprs(unit.body, sub)
    map_stmt_exprs(unit.body, lambda e: fold_expr(e) if not isinstance(e, F.Num) else None)


def normalize_loops(unit: F.Unit) -> None:
    """Fold DO bounds; require constant non-zero integer steps."""

    def visit(stmts: List[F.Stmt]) -> None:
        for s in stmts:
            if isinstance(s, F.Do):
                s.lo = fold_expr(s.lo)
                s.hi = fold_expr(s.hi)
                s.step = fold_expr(s.step)
                step = expr_as_int(s.step)
                if step is None or step == 0:
                    raise LowerError(
                        f"DO {s.var}: step must be a non-zero integer constant,"
                        f" got {s.step}"
                    )
                visit(s.body)
            elif isinstance(s, F.If):
                visit(s.then)
                for _c, blk in s.elifs:
                    visit(blk)
                visit(s.orelse)

    visit(unit.body)


def inline_calls(program: F.Program) -> None:
    """Inline CALLs to same-program subroutines into the main unit.

    Restriction (checked): actual arguments must be whole-array names,
    scalar variables, or constants.  Callee locals are renamed with a
    unique suffix and merged into the caller's symbol table.
    """
    main = program.main
    counter = itertools.count(1)

    def inline_in(stmts: List[F.Stmt]) -> List[F.Stmt]:
        out: List[F.Stmt] = []
        for s in stmts:
            if isinstance(s, F.Call):
                out.extend(expand_call(s))
            else:
                if isinstance(s, F.Do):
                    s.body = inline_in(s.body)
                elif isinstance(s, F.If):
                    s.then = inline_in(s.then)
                    s.elifs = [(c, inline_in(b)) for c, b in s.elifs]
                    s.orelse = inline_in(s.orelse)
                out.append(s)
        return out

    def expand_call(call: F.Call) -> List[F.Stmt]:
        try:
            callee = program.unit(call.name)
        except KeyError:
            raise LowerError(f"CALL {call.name}: no such subroutine in program")
        if len(call.args) != len(callee.args):
            raise LowerError(
                f"CALL {call.name}: {len(call.args)} args, expected "
                f"{len(callee.args)}"
            )
        suffix = f"_{call.name}{next(counter)}"
        callee_tab: SymbolTable = callee.symtab
        rename: Dict[str, F.Expr] = {}
        # Bind formals to actuals.
        for formal, actual in zip(callee.args, call.args):
            fsym = callee_tab.lookup(formal)
            if isinstance(actual, F.Var):
                asym = main.symtab.lookup(actual.name)
                if fsym is not None and fsym.is_array:
                    if asym is None or not asym.is_array:
                        raise LowerError(
                            f"CALL {call.name}: {formal} expects an array"
                        )
                rename[formal] = F.Var(actual.name)
            elif isinstance(actual, F.Num):
                rename[formal] = actual
            else:
                raise LowerError(
                    f"CALL {call.name}: argument {actual} is outside the "
                    "inlinable subset (whole arrays, scalars, constants)"
                )
        # Rename locals and merge symbols.
        prologue: List[F.Stmt] = []
        for sym in callee_tab:
            if sym.name in callee.args:
                continue
            if sym.is_param:
                rename[sym.name] = F.Num(
                    sym.param_value, isinstance(sym.param_value, int)
                )
                continue
            new_name = sym.name + suffix
            rename[sym.name] = F.Var(new_name)
            main.symtab.declare(
                Symbol(new_name, ftype=sym.ftype, dims=list(sym.dims))
            )

        body = _clone_stmts(callee.body)

        def sub(e: F.Expr) -> Optional[F.Expr]:
            if isinstance(e, F.Var) and e.name in rename:
                return _clone_expr(rename[e.name])
            if isinstance(e, F.ArrayRef) and e.name in rename:
                target = rename[e.name]
                if not isinstance(target, F.Var):
                    raise LowerError(
                        f"array {e.name} bound to non-name {target}"
                    )
                return F.ArrayRef(target.name, e.subs)
            return None

        map_stmt_exprs(body, sub)
        # Rename loop variables too.
        def fix_do_vars(stmts):
            for s in stmts:
                if isinstance(s, F.Do):
                    if s.var in rename:
                        tgt = rename[s.var]
                        if isinstance(tgt, F.Var):
                            s.var = tgt.name
                    fix_do_vars(s.body)
                elif isinstance(s, F.If):
                    fix_do_vars(s.then)
                    for _c, b in s.elifs:
                        fix_do_vars(b)
                    fix_do_vars(s.orelse)

        fix_do_vars(body)
        # Nested calls inside the inlined body.
        return prologue + inline_in(body)

    main.body = inline_in(main.body)
    program.units = [main]


def substitute_inductions(unit: F.Unit) -> int:
    """Rewrite simple additive induction variables (returns count).

    Handles the pattern of a single top-level ``K = K + c`` (or ``K - c``)
    in a loop body, with c an integer constant and K an integer scalar not
    otherwise assigned in the loop.  Uses before the increment read
    ``K0 + trip*c``; uses after it read ``K0 + (trip+1)*c`` where ``trip =
    (i - lo) / step``.  After the loop, K is advanced by ``niter*c``.
    """
    count = 0

    def visit(stmts: List[F.Stmt]) -> None:
        nonlocal count
        for idx, s in enumerate(stmts):
            if isinstance(s, F.Do):
                visit(s.body)
                n = _substitute_one_loop(s, unit.symtab)
                count += n
                if n:
                    # Post-loop update statements appended by the rewrite
                    # are stored on the loop; splice them after it.
                    post = getattr(s, "_post_induction", [])
                    for j, p in enumerate(post):
                        stmts.insert(idx + 1 + j, p)
                    s._post_induction = []
            elif isinstance(s, F.If):
                visit(s.then)
                for _c, blk in s.elifs:
                    visit(blk)
                visit(s.orelse)

    visit(unit.body)
    return count


def _substitute_one_loop(loop: F.Do, symtab: SymbolTable) -> int:
    body = loop.body
    # Find candidate increments: top-level K = K + c.
    candidates = []
    for i, s in enumerate(body):
        if not (isinstance(s, F.Assign) and isinstance(s.lhs, F.Var)):
            continue
        k = s.lhs.name
        rhs = fold_expr(s.rhs)
        inc = _match_increment(k, rhs)
        if inc is not None:
            candidates.append((i, k, inc))
    done = 0
    for i, k, inc in candidates:
        sym = symtab.lookup(k)
        if sym is None or sym.ftype != "INTEGER" or sym.is_array:
            continue
        # K must not be assigned anywhere else in the loop (incl. nested).
        other_writes = 0
        for s in F.walk_stmts(body):
            if isinstance(s, F.Assign) and isinstance(s.lhs, F.Var) and s.lhs.name == k:
                other_writes += 1
            if isinstance(s, F.Do) and s.var == k:
                other_writes += 2
        if other_writes != 1:
            continue
        step = expr_as_int(loop.step)
        trips = F.BinOp(
            "/", F.BinOp("-", F.Var(loop.var), _clone_expr(loop.lo)), F.Num(step)
        )
        before = fold_expr(
            F.BinOp("+", F.Var(k), F.BinOp("*", trips, F.Num(inc)))
        )
        after = fold_expr(
            F.BinOp(
                "+",
                F.Var(k),
                F.BinOp(
                    "*", F.BinOp("+", trips, F.Num(1)), F.Num(inc)
                ),
            )
        )

        def make_sub(repl):
            def sub(e):
                if isinstance(e, F.Var) and e.name == k:
                    return _clone_expr(repl)
                return None

            return sub

        for j, s in enumerate(body):
            if j == i:
                continue
            repl = before if j < i else after
            map_stmt_exprs([s], make_sub(repl))
        del body[i]
        # Post-loop value: K += niter * inc (niter in terms of bounds).
        niter = F.BinOp(
            "+",
            F.BinOp(
                "/",
                F.BinOp("-", _clone_expr(loop.hi), _clone_expr(loop.lo)),
                F.Num(step),
            ),
            F.Num(1),
        )
        post = F.Assign(
            F.Var(k),
            fold_expr(F.BinOp("+", F.Var(k), F.BinOp("*", niter, F.Num(inc)))),
        )
        loop._post_induction = getattr(loop, "_post_induction", []) + [post]
        done += 1
        break  # one substitution per loop pass (re-run if needed)
    return done


def _match_increment(k: str, rhs: F.Expr) -> Optional[int]:
    """Match ``K + c`` / ``c + K`` / ``K - c``; return signed c."""
    if isinstance(rhs, F.BinOp) and rhs.op in ("+", "-"):
        left, right = rhs.left, rhs.right
        if isinstance(left, F.Var) and left.name == k and isinstance(right, F.Num):
            if right.is_int:
                c = int(right.value)
                return c if rhs.op == "+" else -c
        if (
            rhs.op == "+"
            and isinstance(right, F.Var)
            and right.name == k
            and isinstance(left, F.Num)
            and left.is_int
        ):
            return int(left.value)
    return None


def assign_loop_ids(unit: F.Unit) -> None:
    next_id = itertools.count()
    for s in F.walk_stmts(unit.body):
        if isinstance(s, F.Do):
            s.loop_id = next(next_id)


# ---------------------------------------------------------------------------
# Cloning
# ---------------------------------------------------------------------------


def _clone_expr(e: F.Expr) -> F.Expr:
    return map_expr(e, lambda _e: None)


def _clone_stmts(stmts: List[F.Stmt]) -> List[F.Stmt]:
    out = []
    for s in stmts:
        if isinstance(s, F.Assign):
            out.append(F.Assign(_clone_expr(s.lhs), _clone_expr(s.rhs)))
        elif isinstance(s, F.Do):
            out.append(
                F.Do(
                    var=s.var,
                    lo=_clone_expr(s.lo),
                    hi=_clone_expr(s.hi),
                    step=_clone_expr(s.step),
                    body=_clone_stmts(s.body),
                    label=s.label,
                    parallel=s.parallel,
                )
            )
        elif isinstance(s, F.If):
            out.append(
                F.If(
                    cond=_clone_expr(s.cond),
                    then=_clone_stmts(s.then),
                    elifs=[(_clone_expr(c), _clone_stmts(b)) for c, b in s.elifs],
                    orelse=_clone_stmts(s.orelse),
                )
            )
        elif isinstance(s, F.Call):
            out.append(F.Call(s.name, [_clone_expr(a) for a in s.args]))
        elif isinstance(s, F.PrintStmt):
            out.append(F.PrintStmt([_clone_expr(i) for i in s.items]))
        else:  # pragma: no cover
            raise LowerError(f"cannot clone {s!r}")
    return out


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def lower_program(program: F.Program) -> F.Program:
    """Run all lowering passes; returns the (mutated) program."""
    for unit in program.units:
        substitute_parameters(unit)
    inline_calls(program)
    main = program.main
    substitute_parameters(main)  # fold constants introduced by inlining
    normalize_loops(main)
    # Iterate induction substitution to a fixed point (nested inductions).
    for _ in range(8):
        if substitute_inductions(main) == 0:
            break
    assign_loop_ids(main)
    return program
