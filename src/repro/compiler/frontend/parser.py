"""Recursive-descent parser for the Fortran 77 subset.

Produces :class:`~repro.compiler.frontend.fast.Program` trees with a
resolved :class:`~repro.compiler.frontend.symtab.SymbolTable` per unit
(PARAMETER constants are folded during declaration parsing so array
extents are concrete integers by the time statements are parsed).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.compiler.frontend import fast as F
from repro.compiler.frontend.lexer import Token, tokenize
from repro.compiler.frontend.symtab import Symbol, SymbolTable
from repro.errors import ReproError

__all__ = ["ParseError", "parse", "INTRINSICS"]

#: Recognized intrinsic functions (subset the workloads use).
INTRINSICS = {
    "SQRT", "SIN", "COS", "TAN", "ATAN", "ATAN2", "EXP", "LOG",
    "ABS", "MAX", "MIN", "MOD", "INT", "DBLE", "FLOAT", "SIGN", "NINT",
}


class ParseError(SyntaxError, ReproError):
    """Syntax error with source-line context."""


def parse(source: str) -> F.Program:
    """Parse Fortran source into a Program with per-unit symbol tables."""
    return _Parser(tokenize(source)).parse_program()


def _num_value(text: str) -> Tuple[float, bool]:
    """Literal text -> (value, is_int)."""
    t = text.upper().replace("D", "E")
    if "." in t or "E" in t:
        return float(t), False
    return int(t), True


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.symtab: Optional[SymbolTable] = None
        self._pending_directives: List[str] = []

    # -- token plumbing --------------------------------------------------
    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def check(self, kind: str, value: Optional[str] = None) -> bool:
        tok = self.cur
        return tok.kind == kind and (value is None or tok.value == value)

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        if not self.check(kind, value):
            tok = self.cur
            want = value or kind
            raise ParseError(
                f"line {tok.line}: expected {want}, got {tok.kind} {tok.value!r}"
            )
        return self.advance()

    def end_stmt(self) -> None:
        self.expect("NEWLINE")

    def skip_newlines(self) -> None:
        while self.accept("NEWLINE"):
            pass

    # -- program structure ----------------------------------------------
    def parse_program(self) -> F.Program:
        units: List[F.Unit] = []
        self.skip_newlines()
        while not self.check("EOF"):
            units.append(self.parse_unit())
            self.skip_newlines()
        if not units:
            raise ParseError("empty source")
        return F.Program(units)

    def parse_unit(self) -> F.Unit:
        self._drop_directives()
        if self.accept("KEYWORD", "PROGRAM"):
            kind = "program"
            name = self.expect("NAME").value
            args: List[str] = []
        elif self.accept("KEYWORD", "SUBROUTINE"):
            kind = "subroutine"
            name = self.expect("NAME").value
            args = []
            if self.accept("OP", "("):
                if not self.check("OP", ")"):
                    while True:
                        args.append(self.expect("NAME").value)
                        if not self.accept("OP", ","):
                            break
                self.expect("OP", ")")
        else:
            tok = self.cur
            raise ParseError(
                f"line {tok.line}: expected PROGRAM or SUBROUTINE, got {tok.value!r}"
            )
        self.end_stmt()

        self.symtab = SymbolTable()
        for a in args:
            self.symtab.declare(Symbol(a, is_arg=True))
        self.parse_declarations()
        body = self.parse_statements(until=("END",))
        self.expect("KEYWORD", "END")
        self.accept("NEWLINE")
        unit = F.Unit(kind=kind, name=name, args=args, body=body,
                      symtab=self.symtab)
        self.symtab = None
        return unit

    # -- declarations ------------------------------------------------------
    _TYPE_STARTERS = ("INTEGER", "REAL", "DOUBLE", "DIMENSION", "PARAMETER",
                      "IMPLICIT", "COMMON")

    def parse_declarations(self) -> None:
        while True:
            self.skip_newlines()
            if self.cur.kind == "KEYWORD" and self.cur.value in self._TYPE_STARTERS:
                self.parse_declaration()
            else:
                return

    def parse_declaration(self) -> None:
        tok = self.advance()
        kw = tok.value
        if kw == "IMPLICIT":
            self.expect("KEYWORD", "NONE")
            self.symtab.implicit_none = True
            self.end_stmt()
            return
        if kw == "PARAMETER":
            self.expect("OP", "(")
            while True:
                name = self.expect("NAME").value
                self.expect("OP", "=")
                value = self.const_expr()
                is_int = isinstance(value, int)
                self.symtab.declare(
                    Symbol(
                        name,
                        ftype="INTEGER" if is_int else "REAL*8",
                        is_param=True,
                        param_value=value,
                    )
                )
                if not self.accept("OP", ","):
                    break
            self.expect("OP", ")")
            self.end_stmt()
            return
        if kw == "COMMON":
            raise ParseError(f"line {tok.line}: COMMON is outside the subset")

        if kw == "DOUBLE":
            self.expect("KEYWORD", "PRECISION")
            ftype = "REAL*8"
        elif kw == "REAL":
            ftype = "REAL*8"
            if self.accept("OP", "*"):
                width = self.expect("NUM").value
                ftype = f"REAL*{width}"
                if ftype not in ("REAL*4", "REAL*8"):
                    raise ParseError(f"line {tok.line}: unsupported {ftype}")
        elif kw == "INTEGER":
            ftype = "INTEGER"
            if self.accept("OP", "*"):
                self.expect("NUM")  # INTEGER*4 etc., all mapped to INTEGER
        elif kw == "DIMENSION":
            ftype = None  # keep existing/implicit type
        else:  # pragma: no cover - guarded by _TYPE_STARTERS
            raise ParseError(f"line {tok.line}: bad declaration {kw}")

        while True:
            name = self.expect("NAME").value
            dims: List[Tuple[int, int]] = []
            if self.accept("OP", "("):
                while True:
                    lo = 1
                    hi = self.const_int()
                    if self.accept("OP", ":"):
                        lo = hi
                        hi = self.const_int()
                    dims.append((lo, hi))
                    if not self.accept("OP", ","):
                        break
                self.expect("OP", ")")
            sym_type = ftype
            if sym_type is None:
                existing = self.symtab.lookup(name)
                sym_type = (
                    existing.ftype
                    if existing
                    else ("INTEGER" if name[0] in "IJKLMN" else "REAL*8")
                )
            self.symtab.declare(Symbol(name, ftype=sym_type, dims=dims))
            if not self.accept("OP", ","):
                break
        self.end_stmt()

    def const_int(self) -> int:
        v = self.const_expr()
        if not isinstance(v, int):
            raise ParseError(f"line {self.cur.line}: expected integer constant")
        return v

    def const_expr(self):
        """Parse and fold a constant expression (params allowed)."""
        expr = self.expr()
        return _fold_const(expr, self.symtab)

    # -- statements ---------------------------------------------------------
    def parse_statements(
        self, until: Tuple[str, ...], end_label: Optional[str] = None
    ) -> List[F.Stmt]:
        stmts: List[F.Stmt] = []
        while True:
            self.skip_newlines()
            directives = []
            while self.check("DIRECTIVE"):
                directives.append(self.advance().value)
                self.accept("NEWLINE")
                self.skip_newlines()

            label = None
            if self.check("LABEL"):
                label = self.cur.value
                if end_label is not None and label == end_label:
                    return stmts  # caller consumes the labelled CONTINUE
                self.advance()

            if self.cur.kind == "KEYWORD" and self.cur.value in until:
                return stmts
            if self.check("EOF"):
                raise ParseError(f"unexpected EOF; expected one of {until}")

            stmt = self.parse_statement(directives)
            if stmt is not None:
                stmts.append(stmt)

    def parse_statement(self, directives: List[str]) -> Optional[F.Stmt]:
        tok = self.cur
        if tok.kind == "KEYWORD":
            if tok.value == "DO":
                return self.parse_do(directives)
            if tok.value == "IF":
                return self.parse_if()
            if tok.value == "CALL":
                return self.parse_call()
            if tok.value == "PRINT":
                return self.parse_print()
            if tok.value == "CONTINUE":
                self.advance()
                self.end_stmt()
                return None
            if tok.value in ("RETURN", "STOP"):
                self.advance()
                self.end_stmt()
                return None
            if tok.value == "GOTO":
                raise ParseError(f"line {tok.line}: GOTO is outside the subset")
            raise ParseError(f"line {tok.line}: unexpected keyword {tok.value}")
        if tok.kind == "NAME":
            return self.parse_assignment()
        raise ParseError(f"line {tok.line}: unexpected token {tok.value!r}")

    def parse_do(self, directives: List[str]) -> F.Do:
        self.expect("KEYWORD", "DO")
        end_label = None
        if self.check("NUM"):
            end_label = self.advance().value
        var = self.expect("NAME").value
        self.expect("OP", "=")
        lo = self.expr()
        self.expect("OP", ",")
        hi = self.expr()
        step: F.Expr = F.Num(1)
        if self.accept("OP", ","):
            step = self.expr()
        self.end_stmt()

        if end_label is None:
            body = self.parse_statements(until=("ENDDO",))
            self.expect("KEYWORD", "ENDDO")
            self.end_stmt()
        else:
            body = self.parse_statements(until=(), end_label=end_label)
            self.expect("LABEL", end_label)
            self.expect("KEYWORD", "CONTINUE")
            self.end_stmt()

        loop = F.Do(var=var, lo=lo, hi=hi, step=step, body=body, label=end_label)
        if any("PARALLEL" in d for d in directives):
            loop.parallel = True
        return loop

    def parse_if(self) -> F.If:
        self.expect("KEYWORD", "IF")
        self.expect("OP", "(")
        cond = self.expr()
        self.expect("OP", ")")
        if self.accept("KEYWORD", "THEN"):
            self.end_stmt()
            then = self.parse_statements(until=("ELSE", "ELSEIF", "ENDIF"))
            elifs: List[Tuple[F.Expr, List[F.Stmt]]] = []
            orelse: List[F.Stmt] = []
            while True:
                if self.accept("KEYWORD", "ELSEIF"):
                    self.expect("OP", "(")
                    c = self.expr()
                    self.expect("OP", ")")
                    self.expect("KEYWORD", "THEN")
                    self.end_stmt()
                    blk = self.parse_statements(until=("ELSE", "ELSEIF", "ENDIF"))
                    elifs.append((c, blk))
                    continue
                if self.accept("KEYWORD", "ELSE"):
                    # ELSE IF (...) THEN spelled as two words.
                    if self.check("KEYWORD", "IF"):
                        self.advance()
                        self.expect("OP", "(")
                        c = self.expr()
                        self.expect("OP", ")")
                        self.expect("KEYWORD", "THEN")
                        self.end_stmt()
                        blk = self.parse_statements(
                            until=("ELSE", "ELSEIF", "ENDIF")
                        )
                        elifs.append((c, blk))
                        continue
                    self.end_stmt()
                    orelse = self.parse_statements(until=("ENDIF",))
                self.expect("KEYWORD", "ENDIF")
                self.end_stmt()
                break
            return F.If(cond=cond, then=then, elifs=elifs, orelse=orelse)
        # One-line logical IF.
        stmt = self.parse_statement([])
        return F.If(cond=cond, then=[stmt] if stmt else [], elifs=[], orelse=[])

    def parse_call(self) -> F.Call:
        self.expect("KEYWORD", "CALL")
        name = self.expect("NAME").value
        args: List[F.Expr] = []
        if self.accept("OP", "("):
            if not self.check("OP", ")"):
                while True:
                    args.append(self.expr())
                    if not self.accept("OP", ","):
                        break
            self.expect("OP", ")")
        self.end_stmt()
        return F.Call(name=name, args=args)

    def parse_print(self) -> F.PrintStmt:
        self.expect("KEYWORD", "PRINT")
        self.expect("OP", "*")
        items: List[F.Expr] = []
        while self.accept("OP", ","):
            if self.check("STR"):
                items.append(F.Str(self.advance().value))
            else:
                items.append(self.expr())
        self.end_stmt()
        return F.PrintStmt(items=items)

    def parse_assignment(self) -> F.Assign:
        name = self.expect("NAME").value
        sym = self.symtab.require(name)
        if self.accept("OP", "("):
            subs = [self.expr()]
            while self.accept("OP", ","):
                subs.append(self.expr())
            self.expect("OP", ")")
            lhs: F.Expr = F.ArrayRef(name=sym.name, subs=subs)
        else:
            lhs = F.Var(name=sym.name)
        self.expect("OP", "=")
        rhs = self.expr()
        self.end_stmt()
        return F.Assign(lhs=lhs, rhs=rhs)

    # -- expressions (precedence climbing) ------------------------------------
    def expr(self) -> F.Expr:
        return self.or_expr()

    def or_expr(self) -> F.Expr:
        left = self.and_expr()
        while self.check("DOTOP", ".OR."):
            self.advance()
            left = F.LogOp(".OR.", left, self.and_expr())
        return left

    def and_expr(self) -> F.Expr:
        left = self.not_expr()
        while self.check("DOTOP", ".AND."):
            self.advance()
            left = F.LogOp(".AND.", left, self.not_expr())
        return left

    def not_expr(self) -> F.Expr:
        if self.check("DOTOP", ".NOT."):
            self.advance()
            return F.LogOp(".NOT.", None, self.not_expr())
        return self.rel_expr()

    _REL = ("<", "<=", ">", ">=", "==", "/=")

    def rel_expr(self) -> F.Expr:
        left = self.add_expr()
        if (self.cur.kind in ("OP", "DOTOP")) and self.cur.value in self._REL:
            op = self.advance().value
            return F.RelOp(op, left, self.add_expr())
        return left

    def add_expr(self) -> F.Expr:
        left = self.mul_expr()
        while self.cur.kind == "OP" and self.cur.value in ("+", "-"):
            op = self.advance().value
            left = F.BinOp(op, left, self.mul_expr())
        return left

    def mul_expr(self) -> F.Expr:
        left = self.unary_expr()
        while self.cur.kind == "OP" and self.cur.value in ("*", "/"):
            op = self.advance().value
            left = F.BinOp(op, left, self.unary_expr())
        return left

    def unary_expr(self) -> F.Expr:
        if self.cur.kind == "OP" and self.cur.value in ("+", "-"):
            op = self.advance().value
            operand = self.unary_expr()
            if op == "+":
                return operand
            return F.UnOp("-", operand)
        return self.pow_expr()

    def pow_expr(self) -> F.Expr:
        base = self.primary()
        if self.check("OP", "**"):
            self.advance()
            return F.BinOp("**", base, self.unary_expr())  # right-assoc
        return base

    def primary(self) -> F.Expr:
        tok = self.cur
        if tok.kind == "NUM":
            self.advance()
            value, is_int = _num_value(tok.value)
            return F.Num(value, is_int)
        if tok.kind == "OP" and tok.value == "(":
            self.advance()
            inner = self.expr()
            self.expect("OP", ")")
            return inner
        if tok.kind == "NAME":
            self.advance()
            name = tok.value
            if self.check("OP", "("):
                sym = self.symtab.lookup(name) if self.symtab else None
                if (sym is None or not sym.is_array) and name in INTRINSICS:
                    self.advance()
                    args = [self.expr()]
                    while self.accept("OP", ","):
                        args.append(self.expr())
                    self.expect("OP", ")")
                    return F.Intrinsic(name, args)
                if sym is None or not sym.is_array:
                    raise ParseError(
                        f"line {tok.line}: {name} used with subscripts but "
                        "not declared as an array (and not an intrinsic)"
                    )
                self.advance()
                subs = [self.expr()]
                while self.accept("OP", ","):
                    subs.append(self.expr())
                self.expect("OP", ")")
                return F.ArrayRef(sym.name, subs)
            self.symtab.require(name)
            return F.Var(name)
        raise ParseError(f"line {tok.line}: unexpected {tok.kind} {tok.value!r}")

    def _drop_directives(self) -> None:
        while self.check("DIRECTIVE"):
            self.advance()
            self.accept("NEWLINE")


def _fold_const(expr: F.Expr, symtab: SymbolTable):
    """Fold a constant expression using PARAMETER values."""
    if isinstance(expr, F.Num):
        return expr.value
    if isinstance(expr, F.Var):
        sym = symtab.lookup(expr.name) if symtab else None
        if sym is not None and sym.is_param:
            return sym.param_value
        raise ParseError(f"{expr.name} is not a constant")
    if isinstance(expr, F.UnOp):
        return -_fold_const(expr.operand, symtab)
    if isinstance(expr, F.BinOp):
        a = _fold_const(expr.left, symtab)
        b = _fold_const(expr.right, symtab)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            if isinstance(a, int) and isinstance(b, int):
                return a // b
            return a / b
        if expr.op == "**":
            return a**b
    raise ParseError(f"not a constant expression: {expr}")
