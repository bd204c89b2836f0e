"""Affine integer expressions over symbolic names.

The LMAD machinery needs subscript expressions in the canonical form
``c0 + c1*v1 + c2*v2 + ...`` with integer coefficients.  :class:`Affine`
is that form; :func:`affine_from_expr` converts front-end expression trees
into it (returning ``None`` for non-affine shapes, which callers treat
conservatively).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.compiler.frontend import fast as F
from repro.errors import ReproError

__all__ = ["Affine", "AffineError", "affine_from_expr"]


class AffineError(ValueError, ReproError):
    """Operation would leave the affine domain."""


@dataclass(frozen=True)
class Affine:
    """``const + Σ coef[v] * v`` with integer coefficients."""

    const: int = 0
    terms: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {v: c for v, c in self.terms.items() if c != 0}
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def constant(c: int) -> "Affine":
        return Affine(const=int(c))

    @staticmethod
    def var(name: str, coef: int = 1) -> "Affine":
        return Affine(const=0, terms={name: int(coef)})

    # -- algebra ----------------------------------------------------------
    def __add__(self, other: "Affine") -> "Affine":
        if isinstance(other, int):
            other = Affine.constant(other)
        terms = dict(self.terms)
        for v, c in other.terms.items():
            terms[v] = terms.get(v, 0) + c
        return Affine(self.const + other.const, terms)

    def __sub__(self, other: "Affine") -> "Affine":
        if isinstance(other, int):
            other = Affine.constant(other)
        return self + other.scale(-1)

    def scale(self, k: int) -> "Affine":
        return Affine(self.const * k, {v: c * k for v, c in self.terms.items()})

    def __mul__(self, other) -> "Affine":
        """Multiplication; defined only when one side is constant."""
        if isinstance(other, int):
            return self.scale(other)
        if isinstance(other, Affine):
            if other.is_const:
                return self.scale(other.const)
            if self.is_const:
                return other.scale(self.const)
        raise AffineError(f"non-affine product: ({self}) * ({other})")

    # -- queries --------------------------------------------------------------
    @property
    def is_const(self) -> bool:
        return not self.terms

    def coef(self, name: str) -> int:
        return self.terms.get(name, 0)

    def vars(self):
        return set(self.terms)

    def evaluate(self, env: Mapping[str, int]) -> int:
        total = self.const
        for v, c in self.terms.items():
            if v not in env:
                raise AffineError(f"unbound symbol {v} in {self}")
            total += c * env[v]
        return total

    def substitute(self, name: str, value: "Affine") -> "Affine":
        """Replace ``name`` by another affine expression."""
        c = self.coef(name)
        if c == 0:
            return self
        rest = Affine(
            self.const, {v: k for v, k in self.terms.items() if v != name}
        )
        return rest + value.scale(c)

    def drop(self, name: str) -> "Affine":
        return Affine(self.const, {v: c for v, c in self.terms.items() if v != name})

    def __str__(self):
        parts = [str(self.const)] if self.const or not self.terms else []
        for v in sorted(self.terms):
            c = self.terms[v]
            parts.append(f"{c}*{v}" if c != 1 else v)
        return " + ".join(parts) if parts else "0"


def affine_from_expr(
    expr: F.Expr, int_env: Optional[Mapping[str, int]] = None
) -> Optional[Affine]:
    """Convert an expression tree to affine form, or None if non-affine.

    ``int_env`` supplies known integer values for scalars (e.g. outer-loop
    constants); unknown names become symbolic terms.
    """
    env = int_env or {}

    def conv(e: F.Expr) -> Affine:
        if isinstance(e, F.Num):
            if not e.is_int:
                raise AffineError(f"non-integer literal {e.value}")
            return Affine.constant(int(e.value))
        if isinstance(e, F.Var):
            if e.name in env:
                return Affine.constant(int(env[e.name]))
            return Affine.var(e.name)
        if isinstance(e, F.UnOp):
            return conv(e.operand).scale(-1)
        if isinstance(e, F.BinOp):
            if e.op == "+":
                return conv(e.left) + conv(e.right)
            if e.op == "-":
                return conv(e.left) - conv(e.right)
            if e.op == "*":
                return conv(e.left) * conv(e.right)
            if e.op == "/":
                a, b = conv(e.left), conv(e.right)
                if b.is_const and b.const != 0 and a.is_const:
                    q = abs(a.const) // abs(b.const)
                    if (a.const < 0) != (b.const < 0):
                        q = -q
                    return Affine.constant(q)
                if (
                    b.is_const
                    and b.const != 0
                    and a.const % b.const == 0
                    and all(c % b.const == 0 for c in a.terms.values())
                ):
                    return Affine(
                        a.const // b.const,
                        {v: c // b.const for v, c in a.terms.items()},
                    )
                raise AffineError(f"non-affine division {e}")
            if e.op == "**":
                a, b = conv(e.left), conv(e.right)
                if a.is_const and b.is_const and b.const >= 0:
                    return Affine.constant(a.const**b.const)
                raise AffineError(f"non-affine power {e}")
        raise AffineError(f"non-affine node {e!r}")

    try:
        return conv(expr)
    except AffineError:
        return None
