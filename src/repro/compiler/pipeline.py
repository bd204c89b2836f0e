"""Top-level compiler entry points: source text in, SPMD program out."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Set, Tuple

from repro.compiler.frontend.lower import lower_program
from repro.compiler.frontend.parser import parse
from repro.compiler.postpass.driver import Front, run_front, run_postpass
from repro.compiler.postpass.granularity import GRAINS
from repro.runtime.program import SpmdProgram

__all__ = [
    "CompileOptions",
    "compile_source",
    "compile_file",
    "clear_compile_cache",
    "compile_cache_stats",
]

#: Memoized compilations, keyed by (source, CompileOptions), LRU-evicted.
#: Benchmarks and parameter sweeps recompile identical workloads dozens of
#: times; compilation is pure (source + options fully determine the
#: program) and the runtime does not mutate SpmdProgram, so sharing the
#: compiled object is safe.
_COMPILE_CACHE: "OrderedDict[Tuple[str, CompileOptions], SpmdProgram]" = (
    OrderedDict()
)
_COMPILE_CACHE_MAX = 128
_CACHE_STATS = {"hits": 0, "misses": 0}

#: Analyzed fronts, keyed by (source, parallelize), LRU-evicted like
#: ``_COMPILE_CACHE``.  Parsing, lowering and parallelism detection
#: depend on neither grain, partition nor rank count, so every variant
#: of a source plans from one :class:`Front`: its unit is never written
#: after the front pass, and a variant's demotions live in the program.
_FRONT_CACHE: "OrderedDict[Tuple[str, bool], Front]" = OrderedDict()


def compile_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of the compile cache (copies, for reports)."""
    return dict(_CACHE_STATS)


def clear_compile_cache() -> None:
    _COMPILE_CACHE.clear()
    _FRONT_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


def _lookup(cache: OrderedDict, key):
    """The entry under ``key`` (marked most recently used), or None."""
    hit = cache.get(key)
    if hit is not None:
        cache.move_to_end(key)
    return hit


def _store(cache: OrderedDict, key, value):
    """Insert ``value``, evicting least recently used entries."""
    cache[key] = value
    while len(cache) > _COMPILE_CACHE_MAX:
        cache.popitem(last=False)
    return value


def _front(source: str, parallelize: bool) -> Front:
    """The source's shared front, parsed, lowered and analyzed once."""
    key = (source, parallelize)
    front = _lookup(_FRONT_CACHE, key)
    if front is None:
        front = _store(_FRONT_CACHE, key, run_front(
            lower_program(parse(source)).main, parallelize
        ))
    return front


@dataclass(frozen=True)
class CompileOptions:
    """Knobs of the MPI-2 postpass.

    ``granularity`` selects the §5.6 communication grain (the paper leaves
    the choice to the user); ``grain_map`` overrides it per parallel
    region (``{region_id: grain}`` — a mixed-grain plan, typically
    produced by the per-region autotuner, docs/AUTOTUNE.md); regions not
    named fall back to ``granularity``.  ``partition`` is the global
    §5.3 work-partitioning strategy (``auto`` = cyclic for triangular
    loops, block otherwise) and ``partition_map`` overrides it per
    region with a concrete strategy spec (``block``, ``cyclic``, or
    ``block:D``/``cyclic:D`` to split dimension ``D`` of a perfect
    nest — docs/PARTITION.md); regions not named fall back to
    ``partition``.  ``live_out=None`` treats every
    array as observable at program end (AVPG dead-array elimination off —
    the safe default), while an explicit set enables it.
    """

    nprocs: int = 4
    granularity: str = "fine"
    partition: str = "auto"  # auto | block | cyclic | block:D | cyclic:D
    parallelize: bool = True  # run detection (else trust directives only)
    live_out: Optional[frozenset] = None
    #: Disable the AVPG redundancy eliminations (ablation): every region
    #: re-scatters its full read regions and collects all writes.
    avpg: bool = True
    #: Per-region grain overrides: a mapping (or pair iterable)
    #: region_id -> grain, canonicalized to a sorted tuple of pairs so
    #: the options object stays hashable (the compile cache keys on it).
    grain_map: Optional[Tuple[Tuple[int, str], ...]] = None
    #: Per-region partition-strategy overrides: region_id -> strategy
    #: spec, canonicalized exactly like ``grain_map``.  Specs must be
    #: concrete (``auto`` only makes sense as the global default).
    partition_map: Optional[Tuple[Tuple[int, str], ...]] = None

    @staticmethod
    def _canonical_map(raw, what: str, check) -> Optional[Tuple]:
        """Sort/validate a region-override mapping into a hashable tuple."""
        items = raw.items() if hasattr(raw, "items") else raw
        canon = []
        for rid, value in items:
            rid = int(rid)
            if rid < 0:
                raise ValueError(f"{what} region id {rid} is negative")
            check(rid, value)
            canon.append((rid, value))
        canon.sort()
        for (a, _), (b, _) in zip(canon, canon[1:]):
            if a == b:
                raise ValueError(f"{what} names region {a} twice")
        return tuple(canon) if canon else None

    def __post_init__(self):
        from repro.compiler.postpass.partition import parse_strategy

        if self.nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if self.granularity not in GRAINS:
            raise ValueError(
                f"granularity must be one of {GRAINS}, got {self.granularity!r}"
            )
        if self.partition != "auto":
            try:
                parse_strategy(self.partition)
            except ValueError as exc:
                raise ValueError(
                    f"bad partition strategy {self.partition!r}: {exc}"
                ) from None
        if self.live_out is not None:
            object.__setattr__(self, "live_out", frozenset(self.live_out))
        if self.grain_map is not None:

            def check_grain(rid, grain):
                if grain not in GRAINS:
                    raise ValueError(
                        f"grain_map[{rid}] must be one of {GRAINS}, "
                        f"got {grain!r}"
                    )

            object.__setattr__(
                self,
                "grain_map",
                self._canonical_map(self.grain_map, "grain_map", check_grain),
            )
        if self.partition_map is not None:

            def check_part(rid, spec):
                try:
                    parse_strategy(spec)
                except ValueError as exc:
                    raise ValueError(f"partition_map[{rid}]: {exc}") from None

            object.__setattr__(
                self,
                "partition_map",
                self._canonical_map(
                    self.partition_map, "partition_map", check_part
                ),
            )

    def grain_for(self, region_id: int) -> str:
        """The effective grain of one parallel region."""
        if self.grain_map:
            for rid, grain in self.grain_map:
                if rid == region_id:
                    return grain
        return self.granularity

    def partition_for(self, region_id: int) -> str:
        """The effective partition request of one parallel region."""
        if self.partition_map:
            for rid, spec in self.partition_map:
                if rid == region_id:
                    return spec
        return self.partition

    @property
    def mixed_grain(self) -> bool:
        return bool(self.grain_map)

    @property
    def mixed_partition(self) -> bool:
        return bool(self.partition_map)


def compile_source(
    source: str,
    nprocs: int = 4,
    granularity: str = "fine",
    options: Optional[CompileOptions] = None,
    **kwargs,
) -> SpmdProgram:
    """Compile Fortran 77 source into an SPMD program for the runtime.

    Either pass a full :class:`CompileOptions` via ``options`` or use the
    keyword shortcuts (``nprocs``, ``granularity``, plus any
    CompileOptions field through ``kwargs``).
    """
    if options is None:
        options = CompileOptions(
            nprocs=nprocs, granularity=granularity, **kwargs
        )
    key = (source, options)
    cached = _lookup(_COMPILE_CACHE, key)
    if cached is not None:
        _CACHE_STATS["hits"] += 1
        return cached
    _CACHE_STATS["misses"] += 1
    spmd = run_postpass(_front(source, options.parallelize), options)
    if "C$BUG" in source:
        # Seeded-defect corpus (tests/badprogs, docs/CHECK.md): comment
        # pragmas mutate the freshly planned transfer schedule so the
        # static verifier and the sanitizer have real bugs to catch.
        from repro.compiler.postpass.bugseed import apply_bug_pragmas

        apply_bug_pragmas(spmd, source)
    return _store(_COMPILE_CACHE, key, spmd)


def compile_file(path: str, **kwargs) -> SpmdProgram:
    """Compile a Fortran source file (see :func:`compile_source`)."""
    with open(path, "r") as fh:
        return compile_source(fh.read(), **kwargs)
