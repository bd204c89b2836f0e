"""The batched fast path must be *bit-identical* to the stepwise oracle.

Every scenario here runs twice — ``fast_path=False`` (the stepwise
reference, event-per-hop/chunk) and ``fast_path=True`` (analytic charging,
see :mod:`repro.vbus.fastpath`) — and asserts ``==`` on simulated end
times, per-transfer receipts, hardware counters, and per-channel usage.
No tolerances: the fast path reproduces the oracle's floating-point
arithmetic operation by operation.
"""

from dataclasses import replace

import pytest

from repro.sim import AllOf, Simulator
from repro.vbus.cluster import Cluster
from repro.vbus.params import VBUS_SKWP

#: Keys that only exist (or only count) on the fast path.
def _is_fast_key(key):
    return key.startswith("fast_")


def _params(rows, cols, fast):
    return replace(VBUS_SKWP, mesh=(rows, cols), fast_path=fast)


def _snapshot(cluster, records):
    stats = {k: v for k, v in cluster.stats().items() if not _is_fast_key(k)}
    channels = {
        key: (ch.messages, ch.busy_s)
        for key, ch in cluster.mesh.channels.items()
    }
    return {
        "now": cluster.sim.now,
        "records": sorted(records),
        "stats": stats,
        "channels": channels,
    }


def _run(params, scenario):
    """Run ``scenario(cluster, records)`` -> list of (name, generator)."""
    sim = Simulator()
    cluster = Cluster(sim, params)
    records = []

    def wrap(name, gen):
        def body():
            out = yield from gen
            end = sim.now
            if out is not None and hasattr(out, "total_s"):
                out = (out.nbytes, out.elements, out.contiguous,
                       out.cpu_s, out.total_s)
            records.append((name, end, out))

        return body()

    for name, gen in scenario(cluster, records):
        sim.process(wrap(name, gen), name=name)
    sim.run()
    return _snapshot(cluster, records)


def assert_equivalent(rows, cols, scenario):
    slow = _run(_params(rows, cols, False), scenario)
    fast = _run(_params(rows, cols, True), scenario)
    assert fast["now"] == slow["now"]
    assert fast["records"] == slow["records"]
    assert fast["stats"] == slow["stats"]
    assert fast["channels"] == slow["channels"]


MESHES = [(2, 2), (2, 4)]


# ---------------------------------------------------------------------------
# Micro scenarios
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("rows,cols", MESHES)
def test_contiguous_dma_transfer(rows, cols):
    def scenario(cluster, records):
        n = cluster.nprocs
        return [
            ("dma", cluster.transfer(0, n - 1, 64 * 1024, contiguous=True)),
        ]

    assert_equivalent(rows, cols, scenario)


@pytest.mark.parametrize("rows,cols", MESHES)
def test_strided_pio_transfer(rows, cols):
    def scenario(cluster, records):
        return [
            ("pio", cluster.transfer(
                0, 1, 8 * 1024, elements=1024, contiguous=False)),
        ]

    assert_equivalent(rows, cols, scenario)


@pytest.mark.parametrize("rows,cols", MESHES)
def test_concurrent_staggered_transfers(rows, cols):
    """Overlapping transfers that contend for channels and DMA engines."""

    def scenario(cluster, records):
        n = cluster.nprocs
        sim = cluster.sim

        def staggered(delay, src, dst, nbytes, contiguous):
            yield sim.timeout(delay)
            r = yield from cluster.transfer(
                src, dst, nbytes, contiguous=contiguous
            )
            return r

        jobs = []
        for i in range(n):
            jobs.append((
                f"t{i}",
                staggered(i * 3e-6, i, (i + 1) % n, 16 * 1024, True),
            ))
            jobs.append((
                f"s{i}",
                staggered(i * 5e-6, i, (i + 2) % n, 2048, False),
            ))
        return jobs

    assert_equivalent(rows, cols, scenario)


@pytest.mark.parametrize("rows,cols", MESHES)
def test_broadcast_freezes_inflight_body(rows, cols):
    """A hardware broadcast freezes a unicast mid-body; the demoted fast
    leg must finish at the oracle's exact time."""

    def scenario(cluster, records):
        sim = cluster.sim

        def bcast():
            # 64 KiB at 50 MB/s DMA rate gives a ~1.3 ms body; freeze at
            # 0.5 ms lands squarely inside it.
            yield sim.timeout(0.5e-3)
            r = yield from cluster.hw_broadcast(1, 4096)
            return r

        return [
            ("long", cluster.transfer(0, cluster.nprocs - 1, 64 * 1024)),
            ("bcast", bcast()),
        ]

    assert_equivalent(rows, cols, scenario)


@pytest.mark.parametrize("rows,cols", MESHES)
def test_direct_freeze_during_head_phase(rows, cols):
    """A freeze landing inside the single-hop head window (router-delay
    wide) exercises the head-remainder demotion branch."""

    def scenario(cluster, records):
        sim = cluster.sim
        rd = cluster.params.link.router_delay_s
        # Adjacent ranks: one hop, claimed right after software setup
        # (6 us) + DMA programming (2 us).
        t_claim = (
            cluster.params.nic.setup_shared_queue_s
            + cluster.params.nic.dma_setup_s
        )

        def freezer():
            yield sim.timeout(t_claim + rd / 2)
            cluster.domain.freeze()
            yield sim.timeout(7e-6)
            cluster.domain.thaw()

        return [
            ("adj", cluster.transfer(0, 1, 32 * 1024)),
            ("freezer", freezer()),
        ]

    assert_equivalent(rows, cols, scenario)


@pytest.mark.parametrize("rows,cols", MESHES)
def test_rma_put_get_overlap(rows, cols):
    """Split-phase RMA legs (contiguous DMA + strided PIO) overlapping,
    with completions awaited fence-style."""

    def scenario(cluster, records):
        sim = cluster.sim
        n = cluster.nprocs

        def origin(rank):
            pending = []
            cpu, done = yield from cluster.rma_start(
                rank, (rank + 1) % n, 4096, contiguous=True
            )
            pending.append(done)
            cpu, done = yield from cluster.rma_start(
                rank, (rank + 2) % n, 1024, elements=128,
                contiguous=False, direction="get",
            )
            pending.append(done)
            cpu, done = yield from cluster.rma_start(rank, rank, 512)
            pending.append(done)
            live = [p for p in pending if not p.triggered]
            if live:
                yield AllOf(sim, live)
            return sim.now

        return [(f"rma{r}", origin(r)) for r in range(n)]

    assert_equivalent(rows, cols, scenario)


# ---------------------------------------------------------------------------
# Whole-program equivalence
# ---------------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("granularity", ["fine", "middle", "coarse"])
def test_program_equivalence_mm(granularity):
    from repro.compiler.pipeline import compile_source
    from repro.runtime.executor import run_program
    from repro.workloads import mm

    prog = compile_source(mm.source(64), nprocs=4, granularity=granularity)
    slow = run_program(
        prog, cluster_params=_params(2, 2, False), execute=False
    )
    fast = run_program(
        prog, cluster_params=_params(2, 2, True), execute=False
    )
    assert fast.total_s == slow.total_s
    fast_hw = {k: v for k, v in fast.hw.items() if not _is_fast_key(k)}
    slow_hw = {k: v for k, v in slow.hw.items() if not _is_fast_key(k)}
    assert fast_hw == slow_hw


@pytest.mark.slow
def test_program_equivalence_cffzinit():
    from repro.compiler.pipeline import compile_source
    from repro.runtime.executor import run_program
    from repro.workloads import cffzinit

    prog = compile_source(cffzinit.source(8), nprocs=4, granularity="fine")
    slow = run_program(
        prog, cluster_params=_params(2, 2, False), execute=False
    )
    fast = run_program(
        prog, cluster_params=_params(2, 2, True), execute=False
    )
    assert fast.total_s == slow.total_s


def test_default_params_take_the_fast_path_at_scale():
    """A 16-rank job runs on the fast path with no params or with
    ``cluster_for``; the oracle needs an explicit ``fast_path=False``."""
    from repro.compiler.pipeline import compile_source
    from repro.runtime.executor import run_program
    from repro.vbus.params import cluster_for
    from repro.workloads import mm

    nprocs = 16
    prog = compile_source(mm.source(64), nprocs=nprocs, granularity="fine")
    oracle = run_program(
        prog,
        cluster_params=replace(cluster_for(nprocs), fast_path=False),
        execute=False,
    )
    assert oracle.hw["fast_legs"] == 0
    oracle_hw = {k: v for k, v in oracle.hw.items() if not _is_fast_key(k)}
    for params in (None, cluster_for(nprocs)):
        fast = run_program(prog, cluster_params=params, execute=False)
        assert fast.hw["fast_legs"] > 0
        assert fast.total_s == oracle.total_s
        assert fast.comm_max_s == oracle.comm_max_s
        assert {
            k: v for k, v in fast.hw.items() if not _is_fast_key(k)
        } == oracle_hw


# ---------------------------------------------------------------------------
# Fast-path bookkeeping
# ---------------------------------------------------------------------------
def test_fast_path_actually_engages():
    """The fast configuration must actually charge legs analytically."""
    params = _params(2, 2, True)
    sim = Simulator()
    cluster = Cluster(sim, params)
    proc = sim.process(cluster.transfer(0, 1, 4096))
    sim.run(until=proc)
    assert cluster.mesh.fast_legs == 1
    assert cluster.mesh.fast_fallbacks == 0


def test_claim_miss_on_both_guards_counts_as_busy():
    """A multi-hop leg with a held channel *and* an event inside its head
    window is a ``busy`` miss; the window is still peeked first."""
    from repro.vbus.fastpath import start_fast_leg

    sim = Simulator()
    cluster = Cluster(sim, _params(2, 4, True))
    mesh = cluster.mesh
    route = mesh.channel_path(0, 7)
    assert len(route) > 1
    peeks = []
    peek = sim.peek
    sim.peek = lambda: peeks.append(sim.now) or peek()
    sim.timeout(0.0)  # an event at ``now``: inside any head window
    assert start_fast_leg(mesh, 0, 7, 64, None, 0.0) is None
    assert (mesh.fast_fallback_peek, mesh.fast_fallback_busy) == (1, 0)
    route[-1].claim(sim.now)
    assert start_fast_leg(mesh, 0, 7, 64, None, 0.0) is None
    assert (mesh.fast_fallback_peek, mesh.fast_fallback_busy) == (1, 1)
    assert mesh.fast_fallbacks == 2 and len(peeks) == 2


def test_stepwise_mode_never_uses_fast_legs():
    params = _params(2, 2, False)
    sim = Simulator()
    cluster = Cluster(sim, params)
    proc = sim.process(cluster.transfer(0, 1, 4096))
    sim.run(until=proc)
    assert cluster.mesh.fast_legs == 0


# ---------------------------------------------------------------------------
# Fault plans and the fast path
# ---------------------------------------------------------------------------
def _fault_params(rows, cols, fast):
    from repro.faults import FaultPlan, FaultSpec

    plan = FaultPlan(
        seed=17,
        specs=(
            FaultSpec(kind="drop", rate=0.05),
            FaultSpec(kind="delay", rate=0.25, delay_s=2e-6),
        ),
    )
    return replace(_params(rows, cols, fast), faults=plan)


@pytest.mark.parametrize("rows,cols", MESHES)
def test_fault_plan_fast_vs_slow_equivalent(rows, cols):
    """With an active plan the fast config must replay faults identically.

    It does so by demoting itself wholesale (every leg goes stepwise), so
    fast and slow runs are the *same* injection sequence — end times,
    receipts, counters, and fault statistics all match exactly.
    """

    def scenario(cluster, records):
        return [
            ("a", cluster.transfer(0, 1, 4096)),
            ("b", cluster.transfer(1, 0, 2048)),
            ("c", cluster.transfer(0, rows * cols - 1, 8192)),
        ]

    slow = _run(_fault_params(rows, cols, False), scenario)
    fast = _run(_fault_params(rows, cols, True), scenario)
    assert fast["now"] == slow["now"]
    assert fast["records"] == slow["records"]
    assert fast["stats"] == slow["stats"]  # includes fault_* counters
    assert fast["channels"] == slow["channels"]
    assert slow["stats"]["fault_dropped_flits"] > 0


def test_active_fault_plan_demotes_every_leg():
    """fast_path=True + active plan => zero fast legs, fallbacks counted."""
    params = _fault_params(2, 2, True)
    sim = Simulator()
    cluster = Cluster(sim, params)
    proc = sim.process(cluster.transfer(0, 1, 4096))
    sim.run(until=proc)
    assert cluster.mesh.fast_legs == 0
    assert cluster.mesh.fast_fallbacks >= 1


def test_empty_fault_plan_keeps_fast_path():
    """A plan with no specs is inactive: no injector, fast path engages."""
    from repro.faults import FaultPlan

    params = replace(_params(2, 2, True), faults=FaultPlan(seed=3))
    sim = Simulator()
    cluster = Cluster(sim, params)
    assert cluster.injector is None
    proc = sim.process(cluster.transfer(0, 1, 4096))
    sim.run(until=proc)
    assert cluster.mesh.fast_legs == 1
