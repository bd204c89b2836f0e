"""Shadow-access sanitizer (`repro run --sanitize`, docs/CHECK.md).

The dynamic cross-check of the static verifier: during value-mode
simulation every array access runs through a probe that maintains a
shadow validity plane per (array, rank) — "does this rank's copy of
this element hold the semantically current value?"  Scatters propagate
the master's validity, collects propagate the sender's, writes validate
locally and invalidate everyone else at region end — the same dataflow
the communication planner reasons about statically, now replayed against
what the simulated ranks *actually* read and wrote.

Violation codes mirror the static ones they cross-validate:

* ``S-READ``  — a rank read an element whose copy was stale (RV101/RV102
  fallout observed at the faulting read);
* ``S-STALE`` — a collect sent elements the sender never held current
  values for (RV202);
* ``S-RACE``  — two ranks' recorded accesses of one region conflict:
  write/write overlap, a slave collect overwriting an element the
  master wrote in place (RV201), or a read of another rank's fresh
  write (RV401);
* ``S-FENCE`` — a transfer phase ran without its closing fence epoch
  (RV301/RV302).

The contract asserted over the whole corpus
(``tests/test_check.py::test_healthy_workloads_are_clean``):
**static-clean implies sanitizer-clean**.  The converse is not promised —
the sanitizer only sees one partition/grain execution, the verifier all
of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.compiler.postpass.scatter import collect_hazards

__all__ = ["Violation", "Sanitizer"]


@dataclass
class Violation:
    """One observed shadow-state violation (deduplicated; counted)."""

    code: str
    region_id: Optional[int]
    detail: str
    array: Optional[str] = None
    rank: Optional[int] = None
    count: int = 1

    def to_jsonable(self) -> Dict:
        out = {"code": self.code, "detail": self.detail, "count": self.count}
        if self.region_id is not None:
            out["region_id"] = self.region_id
        if self.array is not None:
            out["array"] = self.array
        if self.rank is not None:
            out["rank"] = self.rank
        return out


class Sanitizer:
    """Shadow validity planes + per-region access recording."""

    def __init__(self, program):
        self.program = program
        nprocs = program.nprocs
        self.shadow: Dict[str, np.ndarray] = {
            name: np.zeros((nprocs, program.env.sizes[name]), dtype=bool)
            for name in program.env.window_arrays
        }
        for plane in self.shadow.values():
            plane[0, :] = True  # master memory starts as the reference
        self.violations: List[Violation] = []
        self._by_key: Dict[tuple, Violation] = {}
        #: rank -> region id while that rank is inside a compute phase.
        self._active: Dict[int, int] = {}
        #: region_id -> array -> rank -> access mask.
        self._reads: Dict[int, Dict[str, Dict[int, np.ndarray]]] = {}
        self._writes: Dict[int, Dict[str, Dict[int, np.ndarray]]] = {}
        #: region_id -> array -> rank -> elements its collects landed on.
        self._collected: Dict[int, Dict[str, Dict[int, np.ndarray]]] = {}

    # -- violation bookkeeping -------------------------------------------
    def _flag(self, code, region_id, detail, array=None, rank=None):
        key = (code, region_id, array, rank)
        hit = self._by_key.get(key)
        if hit is not None:
            hit.count += 1
            return
        v = Violation(
            code=code, region_id=region_id, detail=detail,
            array=array, rank=rank,
        )
        self._by_key[key] = v
        self.violations.append(v)

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_jsonable(self) -> Dict:
        return {
            "clean": self.clean,
            "violations": [v.to_jsonable() for v in self.violations],
        }

    # -- probes -----------------------------------------------------------
    def make_probe(self, rank: int):
        """The per-rank access probe installed on the interpreter."""

        def probe(name: str, idx, is_write: bool):
            plane = self.shadow.get(name)
            if plane is None:
                return  # master-private array: never communicated
            rid = self._active.get(rank)
            if is_write:
                plane[rank, idx] = True
                if rid is not None:
                    self._record(self._writes, rid, name, rank, idx)
                elif rank == 0:
                    # Master sequential write: slave copies go stale.
                    plane[1:, idx] = False
            else:
                if rid is not None:
                    self._record(self._reads, rid, name, rank, idx)
                    if not np.all(plane[rank, idx]):
                        self._flag(
                            "S-READ", rid,
                            "read of element(s) whose copy is stale",
                            array=name, rank=rank,
                        )
                elif rank == 0 and not np.all(plane[0, idx]):
                    self._flag(
                        "S-READ", None,
                        "master read of element(s) never collected",
                        array=name, rank=0,
                    )

        return probe

    def _record(self, store, rid, name, rank, idx):
        mask = (
            store.setdefault(rid, {})
            .setdefault(name, {})
            .get(rank)
        )
        if mask is None:
            mask = np.zeros(self.shadow[name].shape[1], dtype=bool)
            store[rid][name][rank] = mask
        mask[idx] = True

    # -- executor hooks ---------------------------------------------------
    def begin_compute(self, rank: int, region_id: int) -> None:
        self._active[rank] = region_id

    def end_compute(self, rank: int) -> None:
        self._active.pop(rank, None)

    def on_scatter(self, rank: int, name: str, transfer) -> None:
        """Master -> ``rank`` transfer applied: propagate master validity."""
        plane = self.shadow.get(name)
        if plane is None or rank == 0:
            return
        idx = transfer.indices()
        plane[rank, idx] = plane[0, idx]

    def on_collect(self, rank: int, region_id: int, name: str, transfer):
        """``rank`` -> master transfer initiated: stale check + propagate."""
        plane = self.shadow.get(name)
        if plane is None or rank == 0:
            return
        idx = transfer.indices()
        valid = plane[rank, idx]
        if not np.all(valid):
            self._flag(
                "S-STALE", region_id,
                f"collect sent {int((~valid).sum())} stale element(s)",
                array=name, rank=rank,
            )
        plane[0, idx] = valid
        self._record(self._collected, region_id, name, rank, idx)

    def fence_skipped(self, region_id: int, phase: str, plan) -> None:
        has = any(
            (a.scatter if phase == "scatter" else a.collect)
            for a in plan.arrays.values()
        )
        if has:
            self._flag(
                "S-FENCE", region_id,
                f"{phase} transfers ran without a closing fence epoch",
            )

    def region_end(self, region_id: int, plan) -> None:
        """Master passed the closing barrier: judge the region's accesses."""
        reads = self._reads.pop(region_id, {})
        writes = self._writes.pop(region_id, {})
        collected = self._collected.pop(region_id, {})
        nprocs = self.program.nprocs
        for name in sorted(set(reads) | set(writes)):
            plane = self.shadow.get(name)
            if plane is None:
                continue
            w = writes.get(name, {})
            r = reads.get(name, {})
            landed = collected.get(name, {})
            ranks = sorted(set(w) | set(r))
            # Write/write overlap between ranks.
            wranks = sorted(w)
            for r1, r2, _n in collect_hazards(w):
                self._flag(
                    "S-RACE", region_id,
                    f"ranks {r1} and {r2} wrote overlapping element(s)",
                    array=name, rank=r1,
                )
            # A slave collect overwrote the master's in-place write.
            if 0 in w:
                for p in sorted(landed):
                    if (landed[p] & w[0]).any():
                        self._flag(
                            "S-RACE", region_id,
                            f"rank {p}'s collect overwrote element(s) "
                            "rank 0 wrote in the same region",
                            array=name, rank=p,
                        )
            # Read of another rank's fresh write (flow across ranks).
            for q in ranks:
                rq = r.get(q)
                if rq is None:
                    continue
                own = w.get(q)
                exposed = rq if own is None else (rq & ~own)
                for p in wranks:
                    if p == q:
                        continue
                    if (exposed & w[p]).any():
                        self._flag(
                            "S-RACE", region_id,
                            f"rank {q} read element(s) rank {p} wrote in "
                            "the same region",
                            array=name, rank=q,
                        )
            # Cross-rank invalidation.  On the master, an element a
            # collect landed on keeps the validity its sender gave it.
            allw = np.zeros(plane.shape[1], dtype=bool)
            for p in w:
                allw |= w[p]
            for q in range(nprocs):
                own = w.get(q)
                stale = allw if own is None else (allw & ~own)
                if q == 0:
                    for got in landed.values():
                        stale = stale & ~got
                plane[q, stale] = False
