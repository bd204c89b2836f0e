#!/usr/bin/env python
"""Jacobi relaxation on the simulated cluster: time-stepping, stencil
sweeps, and a global residual reduction in one compiled program.

Shows the pieces working together across iterations: the AVPG's validity
masks keep re-scatters down to halo points, the residual combines via
lock + MPI_ACCUMULATE on the master, and the per-region profile
identifies where the time goes.

Run:  python examples/jacobi_solver.py
"""

import numpy as np

from repro import compile_source, run_program, run_sequential
from repro.tools.tuneplan import tune_per_region
from repro.workloads import jacobi

N, STEPS = 16384, 20

print(f"== Jacobi: {N}-point grid, {STEPS} sweeps, 4 nodes ==")
source = jacobi.source(N, STEPS)
plan = tune_per_region(source, nprocs=4, metric="comm", cache_dir=None)
print(plan.summary())

program = compile_source(source, options=plan.options())
seq = run_sequential(program)
par = run_program(program)

x_ref, res_ref = jacobi.reference(N, STEPS)
x = par.memory.array("X")
print()
print(f"matches numpy reference : {np.allclose(x, x_ref)}")
print(f"residual (printed)      : {par.stdout[0]}")
print(f"residual (reference)    : {res_ref:.6g}")
print(f"speedup                 : {seq.total_s / par.total_s:.2f}x")
print(f"compute (max rank)      : {par.compute_max_s * 1e3:8.3f} ms")
print(f"comm    (max rank)      : {par.comm_max_s * 1e3:8.3f} ms")

print("\nper-region profile (master-observed):")
for rid, (visits, elapsed) in par.region_profile.items():
    print(f"  region {rid:2d}: {visits:3d} visit(s), {elapsed * 1e3:8.3f} ms total")

print("""
Why no speedup?  Every sweep writes whole blocks of XNEW and X, and the
paper's master/slave coherence scheme collects every written region back
to the master at each region boundary: for a 1-D stencil the per-element
communication cost rivals the ~30-cycle per-element compute, so the
program is communication-bound at any granularity.  This is the paper's
own closing lesson — "any single technique does not work for all types
of communication patterns" — and exactly the workload class where its
AVPG/granularity machinery can only mitigate, not remove, the
master-centric round trip.  Compare examples/quickstart.py (MM), where
O(N^3) compute amortizes O(N^2) communication and 4 nodes pay off.""")
