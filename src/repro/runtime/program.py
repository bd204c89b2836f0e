"""The compiled SPMD program object the executor runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from repro.compiler.analysis.access import AccessCache
from repro.compiler.frontend import fast as F
from repro.compiler.postpass.avpg import Avpg
from repro.compiler.postpass.env import MpiEnvironment
from repro.compiler.postpass.scatter import RegionCommPlan
from repro.compiler.postpass.spmd import Region

__all__ = ["SpmdProgram"]


@dataclass
class SpmdProgram:
    """Everything the runtime needs: the region tree with attached
    partitions and communication plans, the MPI environment, the AVPG,
    and the emitted Fortran77+MPI-2 pseudo-source.

    ``unit`` is shared, read-only, by every program compiled from the
    same source; ``serial_loops`` names the parallel loops this compile
    kept serial, and ``access`` is the unit's shared
    :class:`AccessCache`, so ``repro check`` rebuilds the same region
    tree from the same linearized references.
    """

    unit: F.Unit
    regions: List[Region]
    env: MpiEnvironment
    avpg: Avpg
    plans: Dict[int, RegionCommPlan]
    options: "CompileOptions"  # noqa: F821 - repro.compiler.pipeline
    fortran: str = ""
    parallelization_log: str = ""
    serial_loops: FrozenSet[int] = frozenset()
    access: Optional[AccessCache] = None

    @property
    def nprocs(self) -> int:
        return self.options.nprocs

    @property
    def symtab(self):
        return self.unit.symtab

    def parallel_regions(self) -> List[Region]:
        from repro.compiler.postpass.spmd import ParRegion, iter_regions

        return [r for r in iter_regions(self.regions) if isinstance(r, ParRegion)]

    def summary(self) -> str:
        if self.options.mixed_grain:
            gm = dict(self.options.grain_map)
            grain_desc = "mixed (" + ", ".join(
                f"{rid}:{g}" for rid, g in sorted(gm.items())
            ) + f"; default {self.options.granularity})"
        else:
            grain_desc = self.options.granularity
        lines = [
            f"SPMD program {self.unit.name}: nprocs={self.nprocs}, "
            f"granularity={grain_desc}",
            f"windows: {', '.join(self.env.window_arrays) or '(none)'}",
            f"parallel regions: {len(self.parallel_regions())}",
        ]
        for rid, plan in sorted(self.plans.items()):
            lines.append(
                f"  region {rid}: {plan.total_messages()} msgs, "
                f"{plan.total_bytes()} bytes"
            )
            for note in plan.notes:
                lines.append(f"    - {note}")
        return "\n".join(lines)
