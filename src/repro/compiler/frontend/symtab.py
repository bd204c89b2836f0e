"""Symbol tables: variables, array shapes, parameters (paper §5.1 feeds
from this — MPI environment generation registers these symbols)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError

__all__ = ["Symbol", "SymbolTable", "SymtabError"]


class SymtabError(ValueError, ReproError):
    """Undeclared/odd symbol usage."""


@dataclass
class Symbol:
    """One declared name.

    ``dims`` holds per-dimension (lower, upper) bounds *after* parameter
    resolution (both inclusive, Fortran default lower bound 1); empty for
    scalars.  ``param_value`` is set for PARAMETER constants.
    """

    name: str
    ftype: str = "REAL*8"  # REAL*8 | REAL*4 | INTEGER
    dims: List[Tuple[int, int]] = field(default_factory=list)
    is_param: bool = False
    param_value: Optional[float] = None
    is_arg: bool = False

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def extents(self) -> List[int]:
        return [hi - lo + 1 for lo, hi in self.dims]

    @property
    def size(self) -> int:
        n = 1
        for e in self.extents:
            n *= e
        return n

    @property
    def itemsize(self) -> int:
        return 4 if self.ftype in ("REAL*4", "INTEGER") else 8

    def multipliers(self) -> List[int]:
        """Column-major linearization multipliers per dimension.

        Flat offset of ``A(s1, .., sk)`` is
        ``sum((s_j - lower_j) * mult_j)`` with ``mult_1 = 1`` and
        ``mult_j = mult_{j-1} * extent_{j-1}`` — Fortran layout, the layout
        every LMAD in the paper is expressed against.
        """
        mults = []
        m = 1
        for e in self.extents:
            mults.append(m)
            m *= e
        return mults

    def flatten(self, subs: List[int]) -> int:
        """Flat column-major offset of a concrete subscript tuple."""
        if len(subs) != self.rank:
            raise SymtabError(
                f"{self.name}: {len(subs)} subscripts for rank {self.rank}"
            )
        off = 0
        for s, (lo, _hi), m in zip(subs, self.dims, self.multipliers()):
            off += (s - lo) * m
        return off

    def __repr__(self):
        if self.is_param:
            return f"<Param {self.name}={self.param_value}>"
        if self.is_array:
            shape = ",".join(f"{lo}:{hi}" for lo, hi in self.dims)
            return f"<Array {self.name}({shape}) {self.ftype}>"
        return f"<Scalar {self.name} {self.ftype}>"


class SymbolTable:
    """Per-unit symbol table with implicit-typing fallback."""

    def __init__(self):
        self._syms: Dict[str, Symbol] = {}
        self.implicit_none = False

    def declare(self, sym: Symbol) -> Symbol:
        existing = self._syms.get(sym.name)
        if existing is not None:
            # Merge: a DIMENSION after a type decl (or vice versa).
            if sym.dims and not existing.dims:
                existing.dims = sym.dims
            if sym.ftype != "REAL*8" or not existing.ftype:
                existing.ftype = sym.ftype
            return existing
        self._syms[sym.name] = sym
        return sym

    def lookup(self, name: str) -> Optional[Symbol]:
        return self._syms.get(name.upper())

    def require(self, name: str) -> Symbol:
        """Look up, applying Fortran implicit typing for new scalars."""
        name = name.upper()
        sym = self._syms.get(name)
        if sym is None:
            if self.implicit_none:
                raise SymtabError(f"undeclared symbol {name} under IMPLICIT NONE")
            ftype = "INTEGER" if name[0] in "IJKLMN" else "REAL*8"
            sym = Symbol(name, ftype=ftype)
            self._syms[name] = sym
        return sym

    def arrays(self) -> List[Symbol]:
        return [s for s in self._syms.values() if s.is_array]

    def scalars(self) -> List[Symbol]:
        return [
            s for s in self._syms.values() if not s.is_array and not s.is_param
        ]

    def params(self) -> Dict[str, float]:
        return {
            s.name: s.param_value for s in self._syms.values() if s.is_param
        }

    def __contains__(self, name: str) -> bool:
        return name.upper() in self._syms

    def __iter__(self):
        return iter(self._syms.values())
