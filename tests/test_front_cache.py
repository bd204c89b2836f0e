"""One analyzed front per source, shared by every compile variant.

``compile_source`` parses, lowers and runs parallelism detection once
per (source, parallelize) and plans each variant from that front; a
loop one variant cannot plan is kept serial in that program's
``serial_loops``, never by writing the shared unit.  These tests pin
that the sharing is invisible:

* every perfbench spec and seeded-bug program, at every rank count,
  grain and partition, compiled in shuffled order against a warm front,
  gives the SPMD Fortran, parallelization log and CheckReport JSON (or
  the typed error) of a cold compile;
* a demotion that fires at 2 ranks does not leak into a later 64-rank
  compile of the same source;
* compiling, checking and running leave the front's unit unchanged.
"""

import json
import random
from pathlib import Path

import pytest

from repro.compiler import pipeline
from repro.compiler.pipeline import clear_compile_cache, compile_source
from repro.compiler.postpass import scatter
from repro.compiler.postpass.spmd import ParRegion
from repro.errors import ReproError
from repro.runtime.executor import run_program
from repro.tools.check import check_program
from repro.workloads import source_for
from repro.workloads.synthetic import triangular_kernel

BADPROG_DIR = Path(__file__).parent / "badprogs"

#: Every spec of perfbench's value, timing and tune catalogues.
PERFBENCH_SPECS = (
    "CFFZINIT-9", "CFFZINIT-10", "CFFZINIT-11", "JACOBI-32x10",
    "JACOBI-32x2", "JACOBI-48x1", "JACOBI-64", "JACOBI-64x2", "JACOBI-96",
    "MM-32", "MM-48", "MM-64", "PXOVER-32", "PXOVER-96", "SWIM-16x2",
    "SWIM-20x1", "XOVER-64", "XOVER-96", "XOVER-256", "XOVER-512",
)
SOURCES = [(spec, source_for(spec)) for spec in PERFBENCH_SPECS] + [
    (path.name, path.read_text())
    for path in sorted(BADPROG_DIR.glob("*.f"))
]
VARIANTS = [
    dict(nprocs=nprocs, granularity=grain, partition=partition)
    for nprocs in (1, 4, 16, 64)
    for grain in ("fine", "middle", "coarse")
    for partition in ("auto", "block", "cyclic")
]


def _outcome(source, options):
    """What a variant's compile and check show a user."""
    try:
        program = compile_source(source, **options)
        report = check_program(program)
    except (ReproError, ValueError) as exc:
        return ("error", type(exc).__name__, str(exc))
    return (
        program.fortran,
        program.parallelization_log,
        json.dumps(report.to_jsonable(), sort_keys=True),
    )


@pytest.mark.slow
@pytest.mark.parametrize("name,source", SOURCES, ids=[n for n, _ in SOURCES])
def test_warm_front_equals_cold_compile(name, source):
    cold = []
    for options in VARIANTS:
        clear_compile_cache()
        cold.append(_outcome(source, options))
    clear_compile_cache()
    front = pipeline._front(source, True)
    order = list(range(len(VARIANTS)))
    random.Random(name).shuffle(order)
    for i in order:
        assert _outcome(source, VARIANTS[i]) == cold[i], VARIANTS[i]
    assert pipeline._front(source, True) is front
    clear_compile_cache()


def _par_loops(program):
    return [r.loop.loop_id for r in program.regions if isinstance(r, ParRegion)]


def test_rank_dependent_demotion_stays_in_its_variant(monkeypatch):
    """The exact re-derivation cap demotes the triangular loop at 2 ranks
    (20 iterations each) but not at 64 (at most 1 each)."""
    monkeypatch.setattr(scatter, "_PER_ITER_CAP", 8)
    source = triangular_kernel(40)
    clear_compile_cache()
    cold = _outcome(source, dict(nprocs=64))
    cold_loops = _par_loops(compile_source(source, nprocs=64))
    clear_compile_cache()
    two = compile_source(source, nprocs=2)
    assert two.serial_loops and not _par_loops(two)
    assert "exceed the exact re-derivation cap" in two.parallelization_log
    assert check_program(two).clean  # the checker keeps the loop serial too
    sixty_four = compile_source(source, nprocs=64)
    assert sixty_four.unit is two.unit
    assert not sixty_four.serial_loops
    assert _par_loops(sixty_four) == cold_loops != []
    assert _outcome(source, dict(nprocs=64)) == cold
    clear_compile_cache()


@pytest.mark.parametrize(
    "spec", ["MM-32", "JACOBI-32x10", "PXOVER-32", "SWIM-16x2", "CFFZINIT-9"]
)
def test_front_unit_is_read_only(spec):
    source = source_for(spec)
    clear_compile_cache()
    front = pipeline._front(source, True)
    before = repr(front.unit)
    for options in VARIANTS[::5]:
        program = compile_source(source, **options)
        assert program.unit is front.unit
        assert program.access is front.access
        check_program(program)
        run_program(program, execute=options["nprocs"] <= 4)
    assert repr(front.unit) == before
    clear_compile_cache()
