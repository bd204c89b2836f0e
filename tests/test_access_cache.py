"""The per-source access cache (repro.compiler.analysis.access.AccessCache).

The planner and the checker linearize each reference once per source
(one front, shared by every compile variant) and substitute bound
scalars into the cached offset.  These tests pin that the shortcut
never changes an answer:

* every summary the detector, the planner and RV401 compute through a
  shared cache equals a cache-less ``summarize_statements`` and a
  summary built from the env-aware :func:`ref_lmad`, on the perfbench
  specs and the seeded-bug corpus;
* a subscript that is affine only once a scalar is bound gives the same
  LMAD both ways;
* per-rank regions are derived once per (loop, partition);
* every compile variant of a source shares one cache, and none
  survives ``clear_compile_cache()`` once its programs are dropped.
"""

import gc
import json
import weakref
from collections import Counter
from pathlib import Path

import pytest

from repro.compiler.analysis import access as access_mod
from repro.compiler.analysis import parallel as parallel_mod
from repro.compiler.analysis.access import AccessCache, LoopCtx, ref_lmad
from repro.compiler.analysis.summary import summarize_statements
from repro.compiler.frontend import fast as F
from repro.compiler.frontend.lower import lower_program
from repro.compiler.frontend.parser import parse
from repro.compiler.pipeline import clear_compile_cache, compile_source
from repro.compiler.postpass import scatter as scatter_mod
from repro.compiler.postpass.scatter import CommPlanner
from repro.tools import check as check_mod
from repro.tools.check import check_program
from repro.workloads import source_for

BADPROG_DIR = Path(__file__).parent / "badprogs"
MANIFEST = json.loads((BADPROG_DIR / "manifest.json").read_text())

#: The tune catalogue of perfbench plus the smallest value/timing size
#: of each other kernel family.
SPECS = (
    "XOVER-64", "XOVER-96", "MM-32", "PXOVER-32", "JACOBI-32x10",
    "MM-48", "SWIM-16x2", "SWIM-20x1", "JACOBI-64", "JACOBI-32x2",
    "CFFZINIT-9",
)


class _EnvAwareCache(AccessCache):
    """Linearizes every reference afresh under the call's env: the
    oracle of the cache's substitute-into-the-cached-offset path."""

    def lmad(self, ref, loops, env):
        return ref_lmad(ref, self.symtab, loops, env)


def _cases():
    """(name, source, compile options) of every checked compile."""
    for spec in SPECS:
        for granularity, partition in (("fine", "auto"), ("coarse", "cyclic")):
            yield (spec, source_for(spec), dict(
                nprocs=4, granularity=granularity, partition=partition
            ))
    for fname, entry in sorted(MANIFEST.items()):
        yield fname, (BADPROG_DIR / fname).read_text(), entry["options"]


CASES = list(_cases())


@pytest.mark.parametrize(
    "name,source,options", CASES,
    ids=[f"{name}-{opts.get('granularity')}" for name, _, opts in CASES],
)
def test_cached_summaries_equal_cacheless(monkeypatch, name, source, options):
    seen = Counter()

    def checked(stmts, symtab, loops=(), env=None, cache=None):
        got = summarize_statements(stmts, symtab, loops, env, cache=cache)
        assert cache is not None, "every compile-time call shares a cache"
        assert got == summarize_statements(stmts, symtab, loops, env)
        assert got == summarize_statements(
            stmts, symtab, loops, env, cache=_EnvAwareCache(symtab)
        )
        seen["bound" if env else "free"] += 1
        return got

    for mod in (parallel_mod, scatter_mod, check_mod):
        monkeypatch.setattr(mod, "summarize_statements", checked)
    clear_compile_cache()
    check_program(compile_source(source, **options))
    clear_compile_cache()
    assert seen["free"] > 0
    if name.startswith(("JACOBI", "PXOVER", "illegal_split")):
        assert seen["bound"] > 0  # RV401's per-iteration re-summaries


HALF_INDEX = (
    "      PROGRAM T\n"
    "      REAL*8 A(40), B(40)\n"
    "      INTEGER I, N\n"
    "      N = 5\n"
    "      DO I = 1, 20\n"
    "        B(I) = A((I+N)/2)\n"
    "      ENDDO\n"
    "      END\n"
)


def test_subscript_affine_only_under_substitution():
    unit = lower_program(parse(HALF_INDEX)).main
    symtab = unit.symtab
    loop = next(s for s in unit.body if isinstance(s, F.Do))
    ref = loop.body[0].rhs
    assert isinstance(ref, F.ArrayRef) and ref.name == "A"
    cache = AccessCache(symtab)
    _, unbound = cache.offset(ref, {})
    assert unbound is None  # (I+N)/2 is not affine with I and N free
    ctx = [LoopCtx("I", 1, 20, 1)]
    for env in ({"I": 7, "N": 5}, {"I": -9, "N": 4}, {"N": 5}, {"I": 7}):
        for loops in ([], ctx):
            assert cache.lmad(ref, loops, env) == ref_lmad(
                ref, symtab, loops, env
            )
    exact = cache.lmad(ref, [], {"I": 7, "N": 5})
    assert exact.exact and exact.base == 5  # A(6): offset (7+5)/2 - 1
    for v in range(1, 21):
        body = summarize_statements(
            loop.body, symtab, (), {"I": v, "N": 5}, cache=cache
        )
        assert body == summarize_statements(
            loop.body, symtab, (), {"I": v, "N": 5}
        )
        assert body.arrays["A"].reads[0].base == (v + 5) // 2 - 1


def test_rank_regions_derived_once_per_loop_and_partition(monkeypatch):
    runs = Counter()
    calls = Counter()
    impl = CommPlanner._rank_regions_impl
    memo = CommPlanner._rank_regions

    def counting_impl(self, loop, partition, region_summary):
        runs[(id(self), id(loop), partition)] += 1
        return impl(self, loop, partition, region_summary)

    def counting_memo(self, loop, partition, region_summary):
        calls[(id(self), id(loop), partition)] += 1
        return memo(self, loop, partition, region_summary)

    monkeypatch.setattr(CommPlanner, "_rank_regions_impl", counting_impl)
    monkeypatch.setattr(CommPlanner, "_rank_regions", counting_memo)
    clear_compile_cache()
    check_program(compile_source(source_for("JACOBI-32x10"), nprocs=4))
    clear_compile_cache()
    assert runs and set(runs.values()) == {1}
    assert set(calls) == set(runs)
    # The time-step loop's meet-over-back-edge passes revisit each region.
    assert sum(calls.values()) > sum(runs.values())


def test_variants_share_one_cache_until_cleared(monkeypatch):
    """All compile variants of one source, and their checks, share the
    front's one cache; a second source gets its own; once the programs
    are dropped, no cache survives ``clear_compile_cache()``."""
    made = []
    init = AccessCache.__init__

    def tracking_init(self, symtab):
        init(self, symtab)
        made.append(weakref.ref(self))

    monkeypatch.setattr(access_mod.AccessCache, "__init__", tracking_init)
    clear_compile_cache()
    source = source_for("JACOBI-32x10")
    first = compile_source(source, nprocs=4, granularity="fine")
    second = compile_source(
        source, nprocs=16, granularity="coarse", partition="cyclic"
    )
    check_program(second)
    assert first is not second and len(made) == 1
    assert first.access is second.access is made[0]()
    other = compile_source(source_for("MM-32"), nprocs=4)
    check_program(other)
    assert len(made) == 2 and other.access is made[1]()
    del first, second, other
    gc.collect()
    assert all(r() is not None for r in made)  # the fronts hold them
    clear_compile_cache()
    gc.collect()
    assert [r for r in made if r() is not None] == []
