"""Batched (closed-form) wire-leg accounting for the wormhole mesh.

The stepwise :meth:`~repro.vbus.router.WormholeMesh.unicast` spends ~10
kernel events per message: one resource grant + one interruptible delay
per hop, a body-streaming delay, and the bookkeeping around each.  For
the overwhelmingly common case — all channels free, no V-Bus freeze in
sight — the entire leg is analytically determined at injection time, so
this module charges it with **two** scheduled events (path release at
``T_rel``, receive tail at ``T_end``) while producing bit-identical
simulated times, byte counts, and channel statistics.

Exactness argument (the equivalence suite in
``tests/test_fastpath_equivalence.py`` verifies it empirically):

* All timestamps are computed by the *same sequence of float additions*
  the stepwise path performs (``t += router_delay`` per hop, then
  ``t += nbytes/rate``) and scheduled at absolute times, so no
  re-rounding can creep in.
* A leg is claimed only when every channel on the route is free, the
  freeze domain is thawed, and — for multi-hop routes — no other event
  is scheduled at or before ``now + (hops-1) * router_delay``
  (``sim.peek()`` strictly later).  Under that guard no other process
  can run, request a claimed channel, or start a freeze while the head
  would still be advancing hop by hop, so holding the whole path from
  ``now`` is observationally identical to acquiring it hop by hop.
  Single-hop legs are exempt: their claim point coincides exactly with
  the stepwise acquire.
* A leg that misses the claim-time proof is not lost: the stepwise
  path re-attempts the proof at every hop boundary (and once more just
  before body streaming) via :func:`try_promote`.  The claim point of
  hop *k* is an event boundary, so the same guard applies to the
  remaining sub-path — the already-held hops stay held either way, and
  the promoted remainder uses the identical claim-time float sequence
  the stepwise loop would have produced.  Promotions are counted in
  ``mesh.fast_promotions``; claim-time misses are broken down by cause
  in ``mesh.fast_fallback_{injector,frozen,peek,busy}``.
* A freeze *can* still land inside the last head hop or the body
  stream (those lie beyond the guard window).  The
  :class:`~repro.vbus.vbusctl.FreezeDomain` keeps a ledger of live fast
  legs and **demotes** an affected leg on freeze: the two scheduled
  events are cancelled and a stepwise continuation process serves the
  exact remainder (computed with the same ``remaining -= now - started``
  arithmetic ``interruptible_delay`` uses), releases the path, and runs
  the receive tail.

Per-channel ``busy_s``/``messages`` counters stay exact because a claim
backdates each channel's ``_acquired_at`` to the hop time the stepwise
path would have acquired it at.

The same backdating keeps **traces** exact: when a tracer is attached
(``sim.tracer``), channel-occupancy spans are emitted from
:meth:`Channel.release` and the wire-leg span from
:meth:`_FastLeg._release_channels`, covering the identical simulated
intervals the stepwise path would record — a trace taken with
``fast_path=True`` is indistinguishable from the stepwise one.  Tracing
hooks only *read* simulation state, so they cannot affect the
equivalence argument above.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.sim.kernel import Event
from repro.vbus.flit import flit_count

__all__ = ["start_fast_leg", "try_promote"]


class _FastLeg:
    """One analytically-charged wire leg (claim → release → tail)."""

    __slots__ = (
        "mesh",
        "sim",
        "domain",
        "nbytes",
        "channels",
        "hop_starts",
        "head_s",
        "body_start",
        "body_s",
        "t_rel",
        "t_end",
        "tail_s",
        "at_release",
        "at_tail",
        "done",
        "span_t0",
        "_release_ev",
        "_tail_ev",
    )

    def __init__(self, mesh, channels, hop_starts, body_start, body_s, tail_s,
                 nbytes, at_release, at_tail, span_t0=None):
        self.mesh = mesh
        self.sim = mesh.sim
        self.domain = mesh.domain
        self.nbytes = nbytes
        self.channels = channels
        self.hop_starts = hop_starts
        #: Wire-span start for the tracer: injection time.  A promoted leg
        #: passes the original unicast entry time; a full leg starts now.
        self.span_t0 = hop_starts[0] if span_t0 is None else span_t0
        self.head_s = mesh.link.router_delay_s
        self.body_start = body_start
        self.body_s = body_s
        self.t_rel = body_start + body_s
        self.t_end = self.t_rel + tail_s
        self.tail_s = tail_s
        self.at_release = at_release
        self.at_tail = at_tail
        #: The caller-visible completion event (succeeds at ``t_end``).
        self.done = Event(self.sim)
        self._release_ev = self.sim.pooled_timeout_at(self.t_rel, self._on_release)
        self._tail_ev = self.sim.pooled_timeout_at(self.t_end, self._on_tail)
        self.domain.register_fast_leg(self)

    # -- the happy path ----------------------------------------------------
    def _on_release(self, _ev) -> None:
        """Path teardown at ``t_rel`` — mirrors unicast's ``finally``."""
        self.domain.unregister_fast_leg(self)
        self._release_channels()

    def _on_tail(self, _ev) -> None:
        """Receive-side dequeue done at ``t_end``."""
        if self.at_tail is not None:
            self.at_tail()
        self.done.succeed()

    def _release_channels(self) -> None:
        for ch in reversed(self.channels):
            ch.release()
        mesh = self.mesh
        mesh.messages += 1
        mesh.bytes += self.nbytes
        mesh.flits += flit_count(self.nbytes, mesh.link.width_bits)
        tr = self.sim.tracer
        if tr is not None:
            # Same span the stepwise unicast records: injection → wire end.
            src = self.channels[0].u
            dst = self.channels[-1].v
            tr.span(
                ("node", src), f"wire {src}->{dst}", self.span_t0,
                args={"bytes": self.nbytes, "hops": len(self.channels)},
            )
            tr.count("mesh.messages")
            tr.count("mesh.bytes", self.nbytes, "B")
        if self.at_release is not None:
            self.at_release()

    # -- freeze demotion ---------------------------------------------------
    def demote(self, frozen_at: float) -> None:
        """A freeze started at ``frozen_at``: fall back to stepwise.

        Called synchronously from :meth:`FreezeDomain.freeze`.  The claim
        guard guarantees ``frozen_at`` lies strictly after the last hop's
        start, so the path is fully held — only the last head hop, the
        body stream, or nothing (boundary ties, where stepwise completes
        too) can remain.
        """
        if frozen_at >= self.t_rel:
            # Boundary tie with the body-completion timeout: stepwise
            # completes the transfer (the timeout fires and wins the
            # AnyOf), so leave the scheduled events alone.
            return
        self.domain.unregister_fast_leg(self)
        self.sim.cancel(self._release_ev)
        self.sim.cancel(self._tail_ev)
        self.mesh.fast_demotions += 1
        if frozen_at >= self.body_start:
            # Frozen mid-body (or exactly at the head/body boundary, where
            # stepwise finishes the head and parks the full body).
            head_rem = None
            body_rem = self.body_s - (frozen_at - self.body_start)
        else:
            head_rem = self.head_s - (frozen_at - self.hop_starts[-1])
            body_rem = self.body_s
        self.sim.process(
            self._continuation(head_rem, body_rem), name="fastleg-demoted"
        )

    def _continuation(self, head_rem: Optional[float], body_rem: float):
        """Serve the remainder exactly as the stepwise path would."""
        if head_rem is not None:
            yield from self.domain.interruptible_delay(head_rem)
        yield from self.domain.interruptible_delay(body_rem)
        self._release_channels()
        yield self.sim.timeout(self.tail_s)
        if self.at_tail is not None:
            self.at_tail()
        self.done.succeed()


def start_fast_leg(
    mesh,
    src: int,
    dst: int,
    nbytes: int,
    rate_cap_Bps: Optional[float],
    tail_s: float,
    at_release: Optional[Callable[[], None]] = None,
    at_tail: Optional[Callable[[], None]] = None,
) -> Optional[Event]:
    """Try to charge a ``src → dst`` wire leg analytically.

    Returns the completion event (succeeds at wire-end + ``tail_s``, after
    invoking ``at_release`` at path-release time and ``at_tail`` just
    before completion) — or ``None`` when the leg cannot be proven safe,
    in which case the caller must run the stepwise path.
    """
    inj = mesh.injector
    if inj is not None and inj.active:
        # Active fault plan: faulty wire legs must run stepwise so stall
        # windows, drops, and retransmission rounds interleave with other
        # traffic exactly as the oracle orders them.  Full demotion — not
        # per-leg — keeps the contract trivially provable (pinned by
        # tests/test_fastpath_equivalence.py).
        mesh.fast_fallbacks += 1
        mesh.fast_fallback_injector += 1
        return None
    domain = mesh.domain
    if domain.frozen:
        mesh.fast_fallbacks += 1
        mesh.fast_fallback_frozen += 1
        return None
    channels = mesh.channel_path(src, dst)
    h = len(channels)
    if h == 0:
        return None
    sim = mesh.sim
    now = sim.now
    rd = mesh.link.router_delay_s
    # Another process could act while the head would still be advancing
    # (an event inside the head window), or a channel is held: either
    # way only the oracle can order the leg correctly.  A miss on both
    # counts as ``busy``, which no narrower window guard could admit.
    quiet = h == 1 or sim.peek() > now + (h - 1) * rd
    free = all(ch.is_free for ch in channels)
    if not (quiet and free):
        mesh.fast_fallbacks += 1
        if free:
            mesh.fast_fallback_peek += 1
        else:
            mesh.fast_fallback_busy += 1
        return None

    # Claim the path; per-hop timestamps follow stepwise float arithmetic.
    hop_starts: List[float] = []
    t = now
    for ch in channels:
        ch.claim(t)
        hop_starts.append(t)
        t = t + rd
    body_start = t
    rate = mesh.link_rate_Bps
    if rate_cap_Bps is not None:
        rate = min(rate, rate_cap_Bps)
    body_s = nbytes / rate

    mesh.fast_legs += 1
    leg = _FastLeg(
        mesh, channels, hop_starts, body_start, body_s, tail_s,
        nbytes, at_release, at_tail,
    )
    return leg.done


def try_promote(
    mesh,
    path,
    k: int,
    span_t0: float,
    nbytes: int,
    rate_cap_Bps: Optional[float],
) -> Optional[Event]:
    """Mid-route promotion: charge the remaining leg analytically.

    Called by the stepwise :meth:`WormholeMesh.unicast` at the hop-``k``
    claim boundary (``k == len(path)`` means all hops are held and only
    the body stream remains).  The first ``k`` channels are already held
    by the caller; if the remaining sub-path passes the same claim-time
    proof :func:`start_fast_leg` uses — domain thawed, every remaining
    channel free, and (for 2+ remaining hops) no foreign event inside
    the head-advance window — the leg takes ownership of the *whole*
    path and finishes it with two scheduled events.

    Returns the completion event (succeeds at wire end; the caller still
    owes the receive tail and its own accounting is skipped because the
    leg performs it) or ``None`` to continue stepwise.  Failed attempts
    are not re-counted as fallbacks — the injection-time miss already
    was.
    """
    inj = mesh.injector
    if inj is not None and inj.active:
        return None
    domain = mesh.domain
    if domain.frozen:
        return None
    sim = mesh.sim
    now = sim.now
    rd = mesh.link.router_delay_s
    rest = path[k:]
    r = len(rest)
    if r > 1 and not (sim.peek() > now + (r - 1) * rd):
        return None
    for ch in rest:
        if not ch.is_free:
            return None

    # Claim the remainder; hop timestamps follow stepwise float
    # arithmetic from *this* claim boundary.  ``r == 0`` (body-only) and
    # ``r == 1`` need no peek guard: the claim point coincides with the
    # stepwise acquire, and a held path cannot be stolen.
    hop_starts: List[float] = []
    t = now
    for ch in rest:
        ch.claim(t)
        hop_starts.append(t)
        t = t + rd
    body_start = t
    rate = mesh.link_rate_Bps
    if rate_cap_Bps is not None:
        rate = min(rate, rate_cap_Bps)
    body_s = nbytes / rate

    mesh.fast_promotions += 1
    # tail_s=0: the stepwise caller (the NIC) still serves the receive
    # tail after the wire leg completes, exactly as it would stepwise.
    leg = _FastLeg(
        mesh, list(path), hop_starts, body_start, body_s, 0.0,
        nbytes, None, None, span_t0=span_t0,
    )
    return leg.done
