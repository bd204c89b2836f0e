"""Tests for the interpreter: evaluation, vectorization parity, costs."""

import numpy as np
import pytest

from repro.compiler.frontend.lower import lower_program
from repro.compiler.frontend.parser import parse
from repro.runtime.interp import Interpreter, InterpError
from repro.runtime.memory import RankMemory
from repro.vbus.params import CpuParams


def interp_for(src, execute=True):
    unit = lower_program(parse(src)).main
    mem = RankMemory(unit.symtab)
    it = Interpreter(mem, unit.symtab, CpuParams(), execute=execute)
    return unit, mem, it


def run(src, execute=True):
    unit, mem, it = interp_for(src, execute)
    it.exec_stmts(unit.body, {})
    return mem, it


def test_scalar_arithmetic_and_types():
    mem, _ = run("""
      PROGRAM P
      REAL*8 X
      INTEGER I
      X = 3.5 * 2.0 + 1.0
      I = 7 / 2
      END
""")
    assert mem.scalars["X"] == 8.0
    assert mem.scalars["I"] == 3  # Fortran integer division


def test_negative_integer_division_truncates_to_zero():
    mem, _ = run("""
      PROGRAM P
      INTEGER I, J
      J = -7
      I = J / 2
      END
""")
    assert mem.scalars["I"] == -3


def test_array_store_and_column_major_layout():
    mem, _ = run("""
      PROGRAM P
      REAL*8 A(3,2)
      A(2,1) = 5.0
      A(1,2) = 7.0
      END
""")
    assert mem.array("A")[1] == 5.0  # (2,1) -> offset 1
    assert mem.array("A")[3] == 7.0  # (1,2) -> offset 3
    assert mem.shaped("A")[1, 0] == 5.0


def test_intrinsics():
    mem, _ = run("""
      PROGRAM P
      REAL*8 A, B, C, D, E
      INTEGER I
      A = SQRT(16.0)
      B = MAX(3.0, 7.0, 5.0)
      C = MOD(7.0, 3.0)
      I = MOD(7, 3)
      D = ABS(-2.5)
      E = ATAN2(0.0, 1.0)
      END
""")
    assert mem.scalars["A"] == 4.0
    assert mem.scalars["B"] == 7.0
    assert mem.scalars["C"] == 1.0
    assert mem.scalars["I"] == 1
    assert mem.scalars["D"] == 2.5
    assert mem.scalars["E"] == 0.0


def test_if_branches():
    mem, _ = run("""
      PROGRAM P
      INTEGER I, R
      I = 5
      IF (I .LT. 3) THEN
        R = 1
      ELSE IF (I .EQ. 5) THEN
        R = 2
      ELSE
        R = 3
      ENDIF
      END
""")
    assert mem.scalars["R"] == 2


def test_print_formats(capsys=None):
    _, it = run("""
      PROGRAM P
      REAL*8 X
      X = 2.5
      PRINT *, 'value is', X
      END
""")
    assert it.prints == ["value is 2.5"]


def test_do_variable_after_loop():
    mem, _ = run("""
      PROGRAM P
      REAL*8 A(10)
      INTEGER I
      DO I = 1, 10, 3
        A(I) = 1.0
      ENDDO
      END
""")
    assert mem.scalars["I"] == 13  # first value past the end


def test_unbound_variable_raises():
    unit, mem, it = interp_for("""
      PROGRAM P
      REAL*8 X, Y
      Y = X + 1.0
      END
""")
    del mem.scalars["X"]
    with pytest.raises(InterpError, match="unbound"):
        it.exec_stmts(unit.body, {})


# ---------------------------------------------------------------------------
# Vectorization parity: every vectorizable shape must match scalar loops
# ---------------------------------------------------------------------------


VECTOR_CASES = {
    "elementwise": """
      PROGRAM P
      REAL*8 A(20), B(20)
      INTEGER I
      DO I = 1, 20
        B(I) = DBLE(I)
      ENDDO
      DO I = 1, 20
        A(I) = 2.0 * B(I) + 1.0
      ENDDO
      END
""",
    "strided_write": """
      PROGRAM P
      REAL*8 A(40)
      INTEGER I
      DO I = 1, 13
        A(3*I - 2) = DBLE(I) * 0.5
      ENDDO
      END
""",
    "self_shift_disjoint": """
      PROGRAM P
      REAL*8 A(40)
      INTEGER I
      DO I = 1, 20
        A(I) = DBLE(I)
      ENDDO
      DO I = 1, 20
        A(I) = A(I + 20) + 1.0
      ENDDO
      END
""",
    "aligned_self_read": """
      PROGRAM P
      REAL*8 A(20)
      INTEGER I
      DO I = 1, 20
        A(I) = DBLE(I)
      ENDDO
      DO I = 1, 20
        A(I) = A(I) * 3.0
      ENDDO
      END
""",
    "scalar_sum_reduction": """
      PROGRAM P
      REAL*8 A(20)
      REAL*8 S
      INTEGER I
      DO I = 1, 20
        A(I) = DBLE(I)
      ENDDO
      S = 100.0
      DO I = 1, 20
        S = S + A(I) * 2.0
      ENDDO
      END
""",
    "scalar_minus_reduction": """
      PROGRAM P
      REAL*8 S
      INTEGER I
      S = 0.0
      DO I = 1, 10
        S = S - DBLE(I)
      ENDDO
      END
""",
    "max_reduction": """
      PROGRAM P
      REAL*8 A(20)
      REAL*8 M
      INTEGER I
      DO I = 1, 20
        A(I) = ABS(DBLE(I) - 10.5)
      ENDDO
      M = -1.0
      DO I = 1, 20
        M = MAX(M, A(I))
      ENDDO
      END
""",
    "last_value_scalar": """
      PROGRAM P
      REAL*8 T
      INTEGER I
      DO I = 1, 7
        T = DBLE(I) * 2.0
      ENDDO
      END
""",
    "array_slot_accumulate": """
      PROGRAM P
      REAL*8 A(20), ACC(4)
      INTEGER I
      DO I = 1, 20
        A(I) = DBLE(I)
      ENDDO
      DO I = 1, 20
        ACC(2) = ACC(2) + A(I)
      ENDDO
      END
""",
}


class _NoVectorInterp(Interpreter):
    def _run_vector(self, *a, **kw):
        return False


@pytest.mark.parametrize("name", sorted(VECTOR_CASES))
def test_vectorized_matches_scalar(name):
    src = VECTOR_CASES[name]
    unit = lower_program(parse(src)).main

    mem_v = RankMemory(unit.symtab)
    iv = Interpreter(mem_v, unit.symtab, CpuParams())
    iv.exec_stmts(unit.body, {})

    mem_s = RankMemory(unit.symtab)
    isc = _NoVectorInterp(mem_s, unit.symtab, CpuParams())
    isc.exec_stmts(unit.body, {})

    for arr in mem_v.arrays:
        assert np.allclose(mem_v.arrays[arr], mem_s.arrays[arr]), arr
    for s in mem_v.scalars:
        assert mem_v.scalars[s] == pytest.approx(mem_s.scalars[s]), s
    # Cycle accounting is identical regardless of execution strategy.
    assert iv.cycles == pytest.approx(isc.cycles, rel=1e-9)


def test_overlapping_self_read_falls_back():
    """A(I) = A(I+1): vectorizing would read updated values; the scalar
    fallback must produce the sequential semantics."""
    src = """
      PROGRAM P
      REAL*8 A(11)
      INTEGER I
      DO I = 1, 11
        A(I) = DBLE(I)
      ENDDO
      DO I = 1, 10
        A(I) = A(I + 1)
      ENDDO
      END
"""
    mem, _ = run(src)
    assert np.array_equal(mem.array("A"), np.r_[np.arange(2, 12), 11.0])


def test_duplicate_target_falls_back():
    """A(1 + MOD(I,2)) revisits targets: order matters."""
    src = """
      PROGRAM P
      REAL*8 A(4)
      INTEGER I
      DO I = 1, 7
        A(1 + MOD(I, 2)) = DBLE(I)
      ENDDO
      END
"""
    mem, _ = run(src)
    # Last writes: I=7 -> A(2)=7; I=6 -> A(1)=6.
    assert mem.array("A")[0] == 6.0
    assert mem.array("A")[1] == 7.0


# ---------------------------------------------------------------------------
# Timing mode
# ---------------------------------------------------------------------------


def test_timing_mode_matches_value_mode_cycles():
    src = VECTOR_CASES["elementwise"]
    unit = lower_program(parse(src)).main
    mem1 = RankMemory(unit.symtab)
    full = Interpreter(mem1, unit.symtab, CpuParams(), execute=True)
    full.exec_stmts(unit.body, {})
    mem2 = RankMemory(unit.symtab)
    fast = Interpreter(mem2, unit.symtab, CpuParams(), execute=False)
    fast.exec_stmts(unit.body, {})
    assert fast.cycles == pytest.approx(full.cycles, rel=1e-9)
    # ... but no values were computed.
    assert mem2.array("A").sum() == 0.0


def test_timing_mode_triangular_analytic():
    src = """
      PROGRAM P
      REAL*8 L(30,30)
      INTEGER I, J
      DO I = 1, 30
        DO J = 1, I
          L(J,I) = 1.0
        ENDDO
      ENDDO
      END
"""
    unit = lower_program(parse(src)).main
    mem1 = RankMemory(unit.symtab)
    full = Interpreter(mem1, unit.symtab, CpuParams(), execute=True)
    full.exec_stmts(unit.body, {})
    mem2 = RankMemory(unit.symtab)
    fast = Interpreter(mem2, unit.symtab, CpuParams(), execute=False)
    fast.exec_stmts(unit.body, {})
    assert fast.cycles == pytest.approx(full.cycles, rel=1e-9)


def test_take_seconds_drains():
    _, it = run("""
      PROGRAM P
      REAL*8 X
      X = 1.0 + 2.0
      END
""")
    s = it.take_seconds()
    assert s > 0
    assert it.take_seconds() == 0.0


# -- exact integer division (regression: float64 round-trip lost low bits) --
def test_trunc_div_exact_above_2_53():
    from repro.runtime.interp import _trunc_div

    big = (1 << 62) + 1
    assert _trunc_div(big, 1) == big
    assert _trunc_div(big, -1) == -big
    assert _trunc_div(-big, 1) == -big
    assert _trunc_div(big, 3) == big // 3
    # Truncation toward zero, not floor, for negative quotients.
    assert _trunc_div(-7, 2) == -3
    assert _trunc_div(7, -2) == -3
    assert _trunc_div(-7, -2) == 3


def test_trunc_div_exact_int64_arrays():
    from repro.runtime.interp import _trunc_div

    a = np.array([(1 << 62) + 1, -((1 << 60) + 7), 9, -9], dtype=np.int64)
    b = np.array([1, 3, -2, -2], dtype=np.int64)
    out = _trunc_div(a, b)
    expected = np.array(
        [(1 << 62) + 1, -(((1 << 60) + 7) // 3), -4, 4], dtype=np.int64
    )
    np.testing.assert_array_equal(out, expected)


def test_trunc_div_float_operands_keep_old_semantics():
    from repro.runtime.interp import _trunc_div

    assert _trunc_div(7.9, 2.0) == 3
    assert _trunc_div(-7.9, 2.0) == -3
