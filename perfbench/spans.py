"""In-memory host-time spans around each layer's public entry points.

The traced run patches the entry points listed in :data:`TARGETS` with
wrappers from this module; nothing under ``src/`` changes.  Each wrapped
call records one span: layer name, start, end, parent span and job id.

The simulator drives ranks, MPI calls and wire legs as generators, so a
call into those layers runs in several *resumes* interleaved with other
work.  A generator span is therefore timed resume by resume: its
``active`` time is the sum of its resumes, and its ``start``/``end`` are
the first resume's start and the last one's end.  A plain call has one
resume.  Self time is ``active`` minus the part covered by resumes of
other spans that ran inside it.

A call into a layer from inside the same layer (recursion, or one MPI
call built on another) joins the running span instead of opening a new
one, so ``calls`` counts entries into a layer from outside it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import types
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Layer of the benchmark's own per-job root span.
JOB = "job"

#: (module, class or None, attribute, layer, kind) of every wrapped entry
#: point; kind is "call" for plain functions, "gen" for generator
#: functions driven by the simulation kernel.
TARGETS: Tuple[Tuple[str, Optional[str], str, str, str], ...] = (
    ("repro.tools.tuneplan", None, "tune_per_region", "tuneplan", "call"),
    ("repro.tools.check", None, "check_program", "check", "call"),
    ("repro.tools.check", None, "bad_region_map", "check", "call"),
    ("repro.compiler.pipeline", None, "compile_source", "pipeline", "call"),
    ("repro.tools.tuneplan", None, "compile_source", "pipeline", "call"),
    ("repro.tools.check", None, "compile_source", "pipeline", "call"),
    ("repro.compiler.pipeline", None, "parse", "frontend", "call"),
    ("repro.compiler.pipeline", None, "lower_program", "frontend", "call"),
    ("repro.compiler.pipeline", None, "run_postpass", "postpass", "call"),
    ("repro.compiler.postpass.driver", None, "detect_parallelism",
     "analysis", "call"),
    ("repro.compiler.postpass.driver", None, "loop_context", "analysis",
     "call"),
    ("repro.compiler.postpass.scatter", None, "loop_context", "analysis",
     "call"),
    ("repro.compiler.postpass.scatter", None, "summarize_statements",
     "analysis", "call"),
    ("repro.runtime.executor", "_Execution", "__init__", "executor", "call"),
    ("repro.runtime.executor", "_Execution", "run_rank", "executor", "gen"),
    ("repro.runtime.executor", "_Execution", "report", "executor", "call"),
    ("repro.runtime.interp", "Interpreter", "exec_stmts", "interp", "call"),
    ("repro.runtime.interp", "Interpreter", "run_loop", "interp", "call"),
    ("repro.sim.kernel", "Simulator", "run", "sim", "call"),
    *(
        ("repro.mpi2.window", "Win", name, "mpi2", "gen")
        for name in ("put", "get", "accumulate", "drain", "fence", "lock",
                     "unlock", "put_datatype", "get_datatype")
    ),
    *(
        ("repro.mpi2.comm", "Comm", name, "mpi2", "gen")
        for name in ("send", "recv", "sendrecv", "bcast", "barrier",
                     "scatter", "gather", "allgather", "reduce", "allreduce")
    ),
    ("repro.vbus.cluster", "Cluster", "transfer", "vbus", "gen"),
    ("repro.vbus.cluster", "Cluster", "hw_broadcast", "vbus", "gen"),
    ("repro.vbus.cluster", "Cluster", "rma_start", "vbus", "gen"),
    ("repro.vbus.cluster", None, "start_fast_leg", "vbus", "call"),
    ("repro.vbus.router", "WormholeMesh", "unicast", "vbus", "gen"),
    ("repro.vbus.ethernet", "EthernetNetwork", "unicast", "vbus", "gen"),
    ("repro.vbus.ethernet", "EthernetNetwork", "broadcast", "vbus", "gen"),
    ("repro.vbus.vbusctl", "VBusController", "broadcast", "vbus", "gen"),
)

#: ``RunReport.hw`` counters summed into ``vbus.<name>``.
HW_COUNTERS = (
    "messages", "bytes", "dma_transfers", "pio_elements", "hw_broadcasts",
    "freezes", "fast_legs", "fast_fallbacks", "fast_fallback_busy",
    "fast_fallback_peek", "fast_promotions",
)


class SpanLog:
    """Spans in parallel arrays, plus the stack of running resumes."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.layers: List[str] = []
        self._index: Dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.active = array("d")
        self.covered = array("d")
        #: Seconds each layer ran outside any other resume of itself.
        self.busy: Dict[int, float] = {}
        #: Deterministic work counters (events, messages, compiles, ...).
        self.counts: Counter = Counter()
        self.job_id = -1
        self.enabled = False
        self._stack: List[int] = []
        self._t0: List[float] = []
        self._depth: Counter = Counter()
        #: Layer of the innermost running resume (-1: none).
        self.top = -1

    def layer_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.layers)
            self.layers.append(name)
        return self._index[name]

    def open(self, layer: int) -> int:
        """A new span of ``layer``, child of the innermost running one."""
        sid = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        now = self.clock()
        self.start.append(now)
        self.end.append(now)
        self.active.append(0.0)
        self.covered.append(0.0)
        return sid

    def resume(self, sid: int) -> None:
        layer = self.layer[sid]
        self._stack.append(sid)
        self._depth[layer] += 1
        self.top = layer
        self._t0.append(self.clock())

    def pause(self) -> None:
        t1 = self.clock()
        sid = self._stack.pop()
        dur = t1 - self._t0.pop()
        layer = self.layer[sid]
        self.end[sid] = t1
        self.active[sid] += dur
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.busy[layer] = self.busy.get(layer, 0.0) + dur
        if self._stack:
            self.covered[self._stack[-1]] += dur
            self.top = self.layer[self._stack[-1]]
        else:
            self.top = -1

    @contextlib.contextmanager
    def root(self, name: str = JOB):
        """Record while inside: one span of layer ``name`` around the body."""
        self.enabled = True
        self.resume(self.open(self.layer_index(name)))
        try:
            yield
        finally:
            self.pause()
            self.enabled = False

    def running(self, name: str) -> bool:
        """Whether a resume of layer ``name`` is on the stack."""
        return self._depth[self._index.get(name, -1)] > 0

    # -- aggregates ------------------------------------------------------
    def _per_layer(self, values) -> Dict[str, float]:
        sums = np.bincount(
            np.frombuffer(self.layer, dtype=np.int32),
            weights=values,
            minlength=len(self.layers),
        )
        return {name: float(sums[i]) for i, name in enumerate(self.layers)}

    def self_times(self) -> np.ndarray:
        return np.frombuffer(self.active) - np.frombuffer(self.covered)

    def self_by_layer(self) -> Dict[str, float]:
        return self._per_layer(self.self_times())

    def busy_by_layer(self) -> Dict[str, float]:
        return {self.layers[i]: s for i, s in self.busy.items()}

    def calls_by_layer(self) -> Dict[str, int]:
        counts = np.bincount(
            np.frombuffer(self.layer, dtype=np.int32),
            minlength=len(self.layers),
        )
        return {name: int(counts[i]) for i, name in enumerate(self.layers)}

    def attributed_ratio(self) -> float:
        """Share of job wall time covered by layer spans."""
        is_job = np.frombuffer(self.layer, dtype=np.int32) == self._index.get(
            JOB, -1
        )
        wall = float(np.frombuffer(self.active)[is_job].sum())
        inner = float(np.frombuffer(self.covered)[is_job].sum())
        return inner / wall if wall > 0 else 0.0

    def save(self, path: str) -> None:
        """Write every span out (NumPy ``.npz``: one array per field)."""
        np.savez(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            active=np.frombuffer(self.active),
            self_s=self.self_times(),
        )


def traced_call(log: SpanLog, layer_name: str, fn, after=None):
    """Wrap a plain function; ``after(result, args)`` runs on return."""
    layer = log.layer_index(layer_name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not log.enabled or log.top == layer:
            return fn(*args, **kwargs)
        log.resume(log.open(layer))
        try:
            result = fn(*args, **kwargs)
        finally:
            log.pause()
        if after is not None:
            after(result, args)
        return result

    return wrapper


def traced_gen(log: SpanLog, layer_name: str, fn):
    """Wrap a generator function; each resume is timed into one span."""
    layer = log.layer_index(layer_name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not log.enabled or log.top == layer:
            return fn(*args, **kwargs)
        sid = log.open(layer)
        log.resume(sid)
        try:
            gen = fn(*args, **kwargs)
        finally:
            log.pause()
        if not isinstance(gen, types.GeneratorType):
            return gen
        return _drive(log, sid, gen)

    return wrapper


def _drive(log: SpanLog, sid: int, gen):
    """Forward sends and throws to ``gen``, timing each resume."""
    value, exc = None, None
    while True:
        log.resume(sid)
        try:
            item = gen.send(value) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            return stop.value
        finally:
            log.pause()
        try:
            value, exc = (yield item), None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as err:  # thrown in by the kernel: forward
            value, exc = None, err


class Instrumentation:
    """Installs the wrappers of :data:`TARGETS` and restores the originals."""

    def __init__(self, log: SpanLog):
        self.log = log
        self._saved: List[Tuple[object, str, object]] = []
        log.layer_index(JOB)

    # Counters read where the work happens, once the wrapped call returns;
    # ``install`` hooks ``_on_<attribute>`` after the entry point it names.
    def _on_report(self, report, args) -> None:
        counts = self.log.counts
        counts["sim.events"] += args[0].sim._seq
        for key in HW_COUNTERS:
            counts[f"vbus.{key}"] += int(report.hw.get(key, 0))

    def _on_run_postpass(self, program, args) -> None:
        self.log.counts["postpass.transfers"] += sum(
            plan.total_messages() for plan in program.plans.values()
        )

    def _on_compile_source(self, program, args) -> None:
        if self.log.running("tuneplan"):
            self.log.counts["tuneplan.compiles"] += 1

    def _on_tune_per_region(self, plan, args) -> None:
        counts = self.log.counts
        counts["tuneplan.profiles"] += plan.profiles
        counts["tuneplan.evaluated_candidates"] += plan.evaluated_candidates
        counts["tuneplan.pruned_candidates"] += plan.pruned_candidates

    def install(self) -> None:
        for module, cls, attr, layer, kind in TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            # Inherited methods (Comm's collectives) are wrapped on the
            # subclass and removed again on uninstall.
            own = owner.__dict__.get(attr)
            original = own if own is not None else getattr(owner, attr)
            if kind == "gen":
                wrapped = traced_gen(self.log, layer, original)
            else:
                after = getattr(self, f"_on_{attr}", None)
                wrapped = traced_call(self.log, layer, original, after)
            self._saved.append((owner, attr, own))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
