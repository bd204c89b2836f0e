"""End-to-end property: for randomly generated programs in the compiler's
subset, the compiled SPMD program run on the simulated cluster produces
exactly the sequential program's results — at every granularity and for
arbitrary rank counts.

This is the system's central correctness contract (the paper's target
code "keeps data coherency between processors" via scattering/collecting
+ fences); hypothesis explores loop shapes, strides, offsets, reductions,
and loop chains the hand-written tests don't."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.pipeline import compile_source
from repro.runtime.executor import run_program, run_sequential

N = 24  # array extent used by all generated programs


@st.composite
def elementwise_stmt(draw, arrays, loop_var="I"):
    """One assignment inside DO I = lo, hi."""
    target = draw(st.sampled_from(arrays))
    coef = draw(st.sampled_from([1, 2]))
    off = draw(st.integers(0, 3))
    # Subscript target(coef*I - coef + 1 + off) stays within bounds for
    # I in [1, N//coef - off].
    lhs = f"{target}({coef}*I - {coef} + 1 + {off})"
    src_arr = draw(st.sampled_from(arrays))
    s_off = draw(st.integers(0, 2))
    shape = draw(st.sampled_from(["lin", "mul", "intr"]))
    if shape == "lin":
        rhs = f"{src_arr}(I + {s_off}) + DBLE(I) * 0.25"
    elif shape == "mul":
        rhs = f"{src_arr}(I + {s_off}) * 1.5 - 2.0"
    else:
        rhs = f"ABS({src_arr}(I + {s_off})) + 1.0"
    return lhs, rhs, coef, off


@st.composite
def program_source(draw):
    arrays = ["A", "B", "C"]
    lines = [
        "      PROGRAM RAND",
        f"      PARAMETER (N = {N})",
        "      REAL*8 A(3*N), B(3*N), C(3*N)",
        "      REAL*8 S",
        "      INTEGER I",
    ]
    # Deterministic initialization loop.
    lines += [
        "      DO I = 1, 3*N",
        "        A(I) = DBLE(I) * 0.5",
        "        B(I) = DBLE(2*I) - 3.0",
        "        C(I) = 1.0",
        "      ENDDO",
    ]
    nloops = draw(st.integers(1, 3))
    for _ in range(nloops):
        lhs, rhs, coef, off = draw(elementwise_stmt(arrays))
        hi = N - max(2, off)
        lines += [
            f"      DO I = 1, {hi}",
            f"        {lhs} = {rhs}",
            "      ENDDO",
        ]
    if draw(st.booleans()):
        lines += [
            "      S = 0.0",
            f"      DO I = 1, {N}",
            "        S = S + A(I) * 0.125",
            "      ENDDO",
            "      PRINT *, S",
        ]
    lines.append("      END")
    return "\n".join(lines)


@settings(max_examples=25, deadline=None)
@given(
    src=program_source(),
    nprocs=st.sampled_from([2, 3, 4]),
    grain=st.sampled_from(["fine", "middle", "coarse"]),
)
def test_property_parallel_equals_sequential(src, nprocs, grain):
    prog = compile_source(src, nprocs=nprocs, granularity=grain)
    seq = run_sequential(prog)
    par = run_program(prog)
    for name in ("A", "B", "C"):
        assert np.array_equal(
            par.memory.array(name), seq.memory.array(name)
        ), f"{name} differs (nprocs={nprocs}, grain={grain})\n{src}"
    assert par.stdout == seq.stdout


@settings(max_examples=15, deadline=None)
@given(
    stride=st.integers(1, 4),
    nprocs=st.sampled_from([2, 4]),
    grain=st.sampled_from(["fine", "middle", "coarse"]),
)
def test_property_strided_writes_survive_any_grain(stride, nprocs, grain):
    """Strided writes + the demotion machinery never corrupt results."""
    from repro.workloads import synthetic

    src = synthetic.phased_stride_kernel(N, stride)
    prog = compile_source(src, nprocs=nprocs, granularity=grain)
    seq = run_sequential(prog)
    par = run_program(prog)
    assert np.array_equal(par.memory.array("A"), seq.memory.array("A"))


# -- two-level nests ----------------------------------------------------------

M = 10  # extent of both dimensions of the 2-D arrays


@st.composite
def nest_stmt(draw, arrays):
    """One assignment inside DO J / DO I: an offset stencil over I and J.
    A target offset of 1 with a read of the same array at I makes a
    carried dependence, which must fall back to the scalar loop."""
    target = draw(st.sampled_from(arrays))
    t_off = draw(st.sampled_from([0, 1]))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        src = draw(st.sampled_from(arrays))
        di = draw(st.integers(-1, 1))
        dj = draw(st.integers(-1, 1))
        coef = draw(st.sampled_from(["0.5", "1.5", "-0.25"]))
        terms.append(f"{coef} * {src}(I + {di}, J + {dj})")
    if draw(st.booleans()):
        terms.append("DBLE(I - J) * 0.125")
    return f"          {target}(I + {t_off}, J) = " + " + ".join(terms)


@st.composite
def nest_source(draw):
    """2-D nests: multi-statement inner bodies, offset stencils and an
    optional inner row reduction into R(J)."""
    arrays = ["A", "B", "C"]
    lines = [
        "      PROGRAM NEST",
        f"      PARAMETER (N = {M})",
        "      REAL*8 A(N,N), B(N,N), C(N,N), R(N)",
        "      INTEGER I, J, K",
        "      DO J = 1, N",
        "        DO I = 1, N",
        "          A(I,J) = DBLE(I) + 0.5 * DBLE(J)",
        "          B(I,J) = DBLE(I * J) * 0.25 - 1.0",
        "          C(I,J) = 1.0",
        "        ENDDO",
        "        R(J) = 0.0",
        "      ENDDO",
    ]
    for _ in range(draw(st.integers(1, 2))):
        lines.append("      DO J = 2, N - 1")
        reduce_at = draw(st.sampled_from(["none", "before", "after"]))
        src = draw(st.sampled_from(arrays))
        reduction = [
            "        R(J) = 0.0",
            "        DO K = 1, N",
            f"          R(J) = R(J) + {src}(K, J) * 0.5",
            "        ENDDO",
        ]
        if reduce_at == "before":
            lines += reduction
        lines.append("        DO I = 2, N - 2")
        lines += [draw(nest_stmt(arrays)) for _ in range(draw(st.integers(1, 3)))]
        lines.append("        ENDDO")
        if reduce_at == "after":
            lines += reduction
        lines.append("      ENDDO")
    lines += ["      PRINT *, R(2), R(N - 1)", "      END"]
    return "\n".join(lines)


def _nest_parallel_equals_sequential(src, nprocs, grain):
    prog = compile_source(src, nprocs=nprocs, granularity=grain)
    seq = run_sequential(prog)
    par = run_program(prog)
    for name in ("A", "B", "C", "R"):
        assert (
            par.memory.array(name).tobytes() == seq.memory.array(name).tobytes()
        ), f"{name} differs (nprocs={nprocs}, grain={grain})\n{src}"
    assert par.stdout == seq.stdout


@settings(max_examples=20, deadline=None)
@given(
    src=nest_source(),
    nprocs=st.sampled_from([2, 3, 4]),
    grain=st.sampled_from(["fine", "middle", "coarse"]),
)
def test_property_nests_parallel_equals_sequential(src, nprocs, grain):
    _nest_parallel_equals_sequential(src, nprocs, grain)


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(
    src=nest_source(),
    nprocs=st.sampled_from([1, 2, 3, 4, 5, 8]),
    grain=st.sampled_from(["fine", "middle", "coarse"]),
)
def test_property_nests_parallel_equals_sequential_wide(src, nprocs, grain):
    _nest_parallel_equals_sequential(src, nprocs, grain)
