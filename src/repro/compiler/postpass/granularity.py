"""Communication granularity optimization (paper §5.6, Figure 9).

Three grain levels turn one region LMAD into MPI-2 transfer plans:

* **fine** — exact regions.  One primitive per ``A_offsets`` entry; the
  primitive is contiguous (DMA) when the mapping stride is 1, strided
  (programmed I/O) when it is larger.
* **middle** — the mapping dimension's stride is forced to 1, turning each
  exact strided pattern into its bounding contiguous run.  Same number of
  transfers as fine, all contiguous DMA, at the cost of redundant bytes
  (ratio ≈ the original mapping stride).
* **coarse** — the whole region collapses to its single bounding
  contiguous interval: one contiguous DMA transfer, maximum redundancy.

The transfer-count formulas the paper states are properties here:
fine/middle move ``prod_j>=2 (dj/aj + 1)`` messages, coarse moves 1 per
region (i.e. per parallel chunk — ``dp/ap + 1`` across the machine).

For data *collecting*, approximate regions may overwrite another rank's
results or master data the slave never received; the planner's bound
check (:func:`repro.compiler.postpass.scatter.collect_hazards` and
:func:`~repro.compiler.postpass.scatter.stale_collects`) falls back to
fine grain in that case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.compiler.analysis.lmad import LMAD
from repro.compiler.postpass.split import split_lmad

__all__ = [
    "FINE",
    "MIDDLE",
    "COARSE",
    "GRAINS",
    "Transfer",
    "plan_transfers",
    "plan_bytes",
    "plan_mask",
]

FINE = "fine"
MIDDLE = "middle"
COARSE = "coarse"
GRAINS = (FINE, MIDDLE, COARSE)


@dataclass(frozen=True)
class Transfer:
    """One MPI_PUT/MPI_GET: ``count`` elements from ``offset`` every
    ``stride`` elements.  ``stride == 1`` rides the DMA engine."""

    offset: int
    count: int
    stride: int = 1

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("transfer needs at least one element")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")

    @property
    def contiguous(self) -> bool:
        return self.stride == 1

    @property
    def last(self) -> int:
        return self.offset + (self.count - 1) * self.stride

    def indices(self) -> np.ndarray:
        return self.offset + np.arange(self.count, dtype=np.int64) * self.stride


def plan_transfers(lmad: LMAD, grain: str) -> List[Transfer]:
    """The transfer plan for one region at one granularity."""
    if grain not in GRAINS:
        raise ValueError(f"unknown granularity {grain!r}; use {GRAINS}")
    s = lmad.simplify()
    if grain == COARSE:
        return [Transfer(offset=s.min_offset, count=s.extent, stride=1)]
    sp = split_lmad(s)
    if sp.mapping.count <= 1:
        return [Transfer(offset=o, count=1, stride=1) for o in sp.offsets]
    if grain == FINE:
        return [
            Transfer(offset=o, count=sp.mapping.count, stride=sp.mapping.stride)
            for o in sp.offsets
        ]
    # MIDDLE: bounding run of the mapping dimension, stride forced to 1.
    run = sp.mapping.span + 1
    return [Transfer(offset=o, count=run, stride=1) for o in sp.offsets]


def plan_bytes(transfers: Sequence[Transfer], itemsize: int = 8) -> int:
    return sum(t.count for t in transfers) * itemsize


def plan_mask(transfers: Sequence[Transfer], size: int) -> np.ndarray:
    m = np.zeros(size, dtype=bool)
    for t in transfers:
        if t.offset < 0 or t.last >= size:
            raise ValueError(f"{t} outside array of size {size}")
        m[t.indices()] = True
    return m
