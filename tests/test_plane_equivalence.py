"""Whole-plane value execution is bit-identical to the one-level path.

The reference keeps only the single-assignment one-level loops as array
statements (the interpreter's shape before planes existed); every other
loop runs on the scalar path.  Arrays must match byte for byte
(``tobytes``), scalars, stdout and cycle totals exactly — no tolerance:
the plane's row folds are the same ufunc reductions and its per-statement
cycle costs are integer-valued, so any difference is a bug.
"""

import numpy as np
import pytest

from repro.compiler.frontend.lower import lower_program
from repro.compiler.frontend.parser import parse
from repro.compiler.pipeline import compile_source
from repro.obs.metrics import MetricsRegistry
from repro.runtime.executor import run_program
from repro.runtime.interp import Interpreter, InterpError
from repro.runtime.memory import RankMemory
from repro.vbus.params import CpuParams
from repro.workloads import mm, parse_spec, source_for

#: perfbench's ``value`` catalogue specs.
VALUE_SPECS = (
    "CFFZINIT-9", "CFFZINIT-10", "CFFZINIT-11", "XOVER-256", "JACOBI-64",
    "JACOBI-96", "MM-48", "MM-64", "SWIM-16x2", "SWIM-20x1",
)


def _one_level_only(monkeypatch):
    """Restrict array statements to single-assignment one-level loops."""
    plane_of = Interpreter._plane_of

    def one_level(self, loop):
        plane = plane_of(self, loop)
        one = plane is not None and len(plane.parts) == 1 and not plane.loops
        return plane if one else None

    monkeypatch.setattr(Interpreter, "_plane_of", one_level)


def _assert_same_memory(got, want):
    assert sorted(got.arrays) == sorted(want.arrays)
    for name in want.arrays:
        assert got.arrays[name].tobytes() == want.arrays[name].tobytes(), name
    assert got.scalars == want.scalars


@pytest.mark.parametrize("grain", ["fine", "middle", "coarse"])
@pytest.mark.parametrize("nprocs", [1, 4])
@pytest.mark.parametrize("spec", VALUE_SPECS)
def test_value_catalogue_matches_one_level_path(
    spec, nprocs, grain, monkeypatch
):
    kind, size, _ = parse_spec(spec)
    init = mm.init_arrays(size) if kind == "MM" else None
    prog = compile_source(source_for(spec), nprocs=nprocs, granularity=grain)
    got = run_program(prog, init=init)
    _one_level_only(monkeypatch)
    want = run_program(prog, init=init)
    _assert_same_memory(got.memory, want.memory)
    assert got.stdout == want.stdout
    assert got.total_s == want.total_s
    assert got.compute_s == want.compute_s


def _run(src, metrics=None):
    unit = lower_program(parse(src)).main
    mem = RankMemory(unit.symtab)
    it = Interpreter(mem, unit.symtab, CpuParams(), metrics=metrics)
    error = None
    try:
        it.exec_stmts(unit.body, {})
    except InterpError as exc:
        error = exc
    return mem, it, error


def _nests(src):
    reg = MetricsRegistry()
    _run(src, reg)
    counter = reg.get("interp.nests_vectorized")
    return 0 if counter is None else counter.value


def _check(src, monkeypatch):
    """Run ``src`` with planes, then on the one-level path; return the
    planes run's error (None when it finished)."""
    mem, it, error = _run(src)
    _one_level_only(monkeypatch)
    mem_r, it_r, error_r = _run(src)
    monkeypatch.undo()
    _assert_same_memory(mem, mem_r)
    assert it.prints == it_r.prints
    assert it.cycles == it_r.cycles
    assert type(error) is type(error_r) and str(error) == str(error_r)
    return error


HEAD = """
      PROGRAM P
      PARAMETER (N = 40)
      REAL*8 A(N,N), B(N,N), C(N,N), D(N,N), E(N,N)
      REAL*8 X(N), Y(N), Z(N), W(N)
      INTEGER I, J, K
      DO J = 1, N
        DO I = 1, N
          A(I,J) = SIN(DBLE(I * J)) + 0.001 * DBLE(I)
          B(I,J) = COS(DBLE(I + 2 * J)) * 3.0
        ENDDO
      ENDDO
"""

#: Shapes the plane must run (name -> body after HEAD).
PLANES = {
    "mm_init_then_reduce": """
      DO I = 1, N
        DO J = 1, N
          C(I,J) = 0.0
          DO K = 1, N
            C(I,J) = C(I,J) + A(I,K) * B(K,J)
          ENDDO
        ENDDO
      ENDDO
""",
    "swim_four_statements": """
      DO J = 1, N-1
        DO I = 1, N-1
          C(I+1,J) = 0.5 * (A(I+1,J) + A(I,J)) * B(I+1,J)
          D(I,J+1) = 0.5 * (A(I,J+1) + A(I,J)) * B(I,J+1)
          E(I+1,J+1) = (4.0 * (B(I+1,J+1) - B(I,J+1)) - 4.0 *
     &      (A(I+1,J+1) - A(I+1,J))) / (A(I,J) + A(I+1,J) + 5.0)
          C(I,J) = C(I,J) + 0.25 * (A(I+1,J) * A(I+1,J)
     &      + B(I,J+1) * B(I,J+1))
        ENDDO
      ENDDO
""",
    "aligned_self_read_stencil": """
      DO J = 2, N-1
        DO I = 2, N-1
          A(I,J) = A(I,J) * 0.5 + B(I-1,J) + B(I+1,J) - B(I,J-1)
        ENDDO
      ENDDO
""",
    "row_reductions": """
      DO J = 1, N
        X(J) = -1.0E9
        Y(J) = 1.0E9
        Z(J) = 1.0
        W(J) = 100.0
        DO K = 1, N
          X(J) = MAX(X(J), A(J,K))
        ENDDO
        DO K = 1, N
          Y(J) = MIN(A(K,J), Y(J))
        ENDDO
        DO K = 1, N
          Z(J) = Z(J) * (1.0 + 0.01 * B(J,K))
        ENDDO
        DO K = 1, N
          W(J) = W(J) - A(K,J) * B(J,K)
        ENDDO
      ENDDO
""",
    "hoisted_element_read_in_inner_loop": """
      DO J = 1, N
        X(J) = DBLE(J) * 0.5
        DO K = 1, N
          C(K,J) = X(J) * A(K,J)
          D(K,J) = C(K,J) + X(J)
        ENDDO
      ENDDO
""",
}

#: Shapes that must fall back to the scalar path.
FALLBACKS = {
    "carried_dependence": """
      DO J = 1, N
        DO I = 2, N
          A(I,J) = A(I-1,J) + B(I,J)
        ENDDO
      ENDDO
""",
    "triangular_inner_bound": """
      DO I = 1, N
        DO J = 1, I
          C(J,I) = DBLE(I) + 0.001 * DBLE(J)
        ENDDO
      ENDDO
""",
    "inner_variable_read_after_its_loop": """
      DO J = 1, N
        DO K = 1, N
          C(K,J) = A(K,J) * 2.0
        ENDDO
        X(J) = DBLE(K)
      ENDDO
""",
    "duplicate_target_across_outer_points": """
      DO J = 1, N
        DO I = 1, N
          C(I, MOD(J, 2) + 1) = A(I,J) + DBLE(J)
        ENDDO
      ENDDO
""",
    "target_read_at_another_outer_point": """
      DO J = 2, N
        X(J) = DBLE(J)
        DO K = 1, N
          C(K,J) = X(J-1) + A(K,J)
        ENDDO
      ENDDO
""",
    "power_operator": """
      DO J = 1, N
        DO I = 1, N
          C(I,J) = ABS(A(I,J)) ** 1.7 + 1.0
          D(I,J) = C(I,J) ** 0.3
        ENDDO
      ENDDO
""",
    "indirect_subscript": """
      DO J = 1, N
        Y(J) = DBLE(N + 1 - J)
      ENDDO
      DO J = 1, N
        DO I = 1, N
          C(I,J) = A(INT(Y(I)),J)
        ENDDO
      ENDDO
""",
}

#: Typed errors raised mid-plane, after an earlier statement wrote.
ERRORS = {
    "zero_divisor": ("DivideByZeroError", """
      DO J = 1, N
        DO I = 1, N
          C(I,J) = A(I,J) + 1.0
          D(I,J) = C(I,J) / DBLE(MOD(I * J, 37))
        ENDDO
      ENDDO
"""),
    "subscript_past_inner_dimension": ("SubscriptError", """
      DO J = 1, N
        C(1,J) = 7.0
        DO I = 1, N
          D(I,J) = C(I,J) + A(I+1,J)
        ENDDO
      ENDDO
"""),
}


def _program(body):
    return HEAD + body + "      PRINT *, C(2,3), X(5), Y(7), Z(9)\n      END\n"


@pytest.mark.parametrize("name", sorted(PLANES))
def test_plane_matches_one_level_path(name, monkeypatch):
    src = _program(PLANES[name])
    assert _nests(src) >= 1
    assert _check(src, monkeypatch) is None


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_fallback_shapes_match_one_level_path(name, monkeypatch):
    src = _program(FALLBACKS[name])
    assert _nests(src) == 1  # only HEAD's initialization nest
    assert _check(src, monkeypatch) is None


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_mid_plane_error_is_the_scalar_paths(name, monkeypatch):
    kind, body = ERRORS[name]
    error = _check(_program(body), monkeypatch)
    assert type(error).__name__ == kind


def test_probe_sees_only_one_level_single_statement_loops():
    """Under a probe, nests and multi-statement bodies run scalar."""
    reg = MetricsRegistry()
    unit = lower_program(parse(_program(PLANES["mm_init_then_reduce"]))).main
    it = Interpreter(RankMemory(unit.symtab), unit.symtab, CpuParams(),
                     metrics=reg)
    it.probe = lambda name, idx, is_write: None
    it.exec_stmts(unit.body, {})
    assert reg.get("interp.nests_vectorized") is None
    assert reg.get("interp.loops_vectorized").value > 0


def test_row_folds_equal_numpy_reductions_per_row():
    """Each folded row equals ``np.sum``/``np.prod``/``np.max``/``np.min``
    of that row as a 1-D vector (so pairwise ``+``, not a left fold),
    applied to the target as the one-level reduction always has."""
    mem, _, error = _run(_program(PLANES["mm_init_then_reduce"]))
    assert error is None
    a, b, c = (mem.shaped(name) for name in "ABC")
    want = np.array(
        [[0.0 + np.sum(a[i, :] * b[:, j]) for j in range(40)]
         for i in range(40)]
    )
    assert c.tobytes() == want.tobytes()

    mem, _, error = _run(_program(PLANES["row_reductions"]))
    assert error is None
    a, b = mem.shaped("A"), mem.shaped("B")
    rows = range(40)
    want = {
        "X": [max(-1.0e9, float(np.max(a[j, :]))) for j in rows],
        "Y": [min(1.0e9, float(np.min(a[:, j]))) for j in rows],
        "Z": [1.0 * np.prod(1.0 + 0.01 * b[j, :]) for j in rows],
        "W": [100.0 - np.sum(a[:, j] * b[j, :]) for j in rows],
    }
    for name, values in want.items():
        assert mem.array(name).tobytes() == np.array(values).tobytes(), name


INDIRECT = {
    "permuted_write": """
      DO J = 1, N
        W(INT(Y(J))) = A(J,3) + X(J)
      ENDDO
""",
    "permuted_self_read": """
      DO J = 1, N
        X(INT(Y(J))) = A(J,3) + X(J)
      ENDDO
""",
    "index_read_from_the_target": """
      DO J = 1, N
        Z(J) = DBLE(MOD(J * 7, N) + 1)
      ENDDO
      DO J = 1, N
        Z(INT(Z(J))) = DBLE(J)
      ENDDO
""",
}


@pytest.mark.parametrize("name", sorted(INDIRECT))
def test_lone_indirect_assignment_matches_scalar_loop(name, monkeypatch):
    """A lone assignment with an indirect subscript runs as one array
    statement when legal; its result is the scalar loop's."""
    src = _program(
        "      DO J = 1, N\n        X(J) = DBLE(J)\n"
        "        Y(J) = DBLE(N + 1 - J)\n      ENDDO\n" + INDIRECT[name]
    )
    mem, it, error = _run(src)
    monkeypatch.setattr(Interpreter, "_run_vector", lambda *a: False)
    mem_s, it_s, error_s = _run(src)
    assert error is None and error_s is None
    _assert_same_memory(mem, mem_s)
    assert it.cycles == it_s.cycles


POW = """
      PROGRAM P
      PARAMETER (N = 4000)
      REAL*8 A(N), B(N), C(N)
      INTEGER I
      DO I = 1, N
        A(I) = B(I) ** C(I)
      ENDDO
      END
"""


def test_power_loop_gives_the_scalar_pow_bytes():
    """``**`` in a lone-assignment loop is the scalar loop's libm ``pow``
    for random operands, not NumPy's vector pow (which differs in the
    last bit for a few percent of pairs on some hosts)."""
    unit = lower_program(parse(POW)).main
    mem = RankMemory(unit.symtab)
    rng = np.random.default_rng(7)
    b = rng.uniform(0.1, 10.0, 4000)
    c = rng.uniform(-5.0, 5.0, 4000)
    mem.arrays["B"][:] = b
    mem.arrays["C"][:] = c
    reg = MetricsRegistry()
    Interpreter(mem, unit.symtab, CpuParams(), metrics=reg).exec_stmts(
        unit.body, {}
    )
    want = np.array([float(x) ** float(y) for x, y in zip(b, c)])
    assert mem.arrays["A"].tobytes() == want.tobytes()
    assert reg.get("interp.loops_vectorized") is None
