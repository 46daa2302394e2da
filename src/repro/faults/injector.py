"""Applies a fault schedule to a running cluster — simulated or live.

:func:`apply` is the only ``FaultEvent -> action`` mapping in the tree.
Process-side kinds (``crash``, ``recover``, ``slowdown``,
``restore_speed``, ``crash_at``) act on ``cluster.servers``; link-side
kinds go through :func:`apply_link` to ``cluster.faults``, the link model
(:class:`~repro.sim.topology.Topology`) that the simulated network and
the live fault-injecting transports both read.  ``cluster.faults is
None`` means the wire faults are already baked into a recorded frame log
(a live chaos replay): nothing is applied, the trace record is still
written.  The live control channel (:meth:`repro.net.faults.FaultPlane.apply`)
calls :func:`apply_link` too, with no cluster behind it.

Every applied event is recorded in the cluster's trace log under a
``fault.<kind>`` category, so a chaos repro's event log shows the injected
faults inline with the protocol events they provoked — the single
interleaved timeline that makes a shrunk schedule debuggable.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING, Protocol

from repro.faults.schedule import FaultEvent, FaultSchedule

if TYPE_CHECKING:
    from repro.core.server import FrameworkServer
    from repro.sim.engine import Simulator
    from repro.sim.topology import Topology
    from repro.sim.trace import TraceLog


class FaultTarget(Protocol):
    """The cluster surface :func:`apply` and :func:`inject` need (an
    optional ``availability_manager`` attribute is told about crashes
    and repairs)."""

    @property
    def sim(self) -> Simulator: ...
    @property
    def servers(self) -> Mapping[str, FrameworkServer]: ...
    @property
    def faults(self) -> Topology | None: ...
    def trace_log(self) -> TraceLog: ...


def apply(cluster: FaultTarget, event: FaultEvent) -> None:
    """Trace one fault event and apply it to the cluster."""
    now = cluster.sim.now
    # the args go in as a dict: an artifact's may hold any key, ``time``
    # or ``node`` included
    cluster.trace_log().record_detail(
        now,
        event.target if event.target is not None else "net",
        f"fault.{event.kind}",
        dict(event.args),
    )
    kind, args = event.kind, event.args
    server = cluster.servers.get(event.target)
    manager = getattr(cluster, "availability_manager", None)
    if kind == "crash":
        if server is not None and server.is_up():
            server.crash()
            if manager is not None:
                manager.record_crash(now)
    elif kind == "recover":
        if server is not None and not server.is_up():
            server.recover()
            # symmetric with record_crash: the manager's observed failure
            # rate window should see repairs too, not only failures
            if manager is not None:
                manager.record_recovery(now)
    elif kind == "slowdown":
        if server is not None:
            server.daemon.set_dispatch_delay(float(args["delay"]))
    elif kind == "restore_speed":
        if server is not None:
            server.daemon.set_dispatch_delay(0.0)
    elif kind == "crash_at":
        if server is not None:
            server.arm_crash_hook(args["hook"])
    elif cluster.faults is not None:  # None: replay, the frame log has them
        apply_link(cluster.faults, event)


def apply_link(faults: Topology, event: FaultEvent) -> None:
    """Apply one link-side fault event to the link model (no trace
    record: :func:`apply` writes it).  Raises ``ValueError`` for a kind
    that is not a link fault."""
    kind, args = event.kind, event.args
    symmetric = args.get("symmetric", True)
    if kind == "partition":
        faults.partition(*args["components"])
    elif kind == "heal":
        faults.heal_partition()
    elif kind == "cut_link":
        faults.cut_link(args["a"], args["b"], symmetric=symmetric)
    elif kind == "restore_link":
        faults.restore_link(args["a"], args["b"], symmetric=symmetric)
    elif kind == "delay_link":
        faults.set_link_delay(
            args["a"], args["b"], float(args["extra"]), symmetric=symmetric
        )
    elif kind == "restore_delay":
        faults.clear_link_delay(args["a"], args["b"], symmetric=symmetric)
    elif kind == "duplicate":
        faults.set_duplication(float(args["probability"]))
    elif kind == "reorder":
        faults.set_reordering(
            float(args["probability"]), window=float(args.get("window", 0.05))
        )
    else:
        raise ValueError(f"fault kind {kind!r} has no arm in apply_link()")


def inject(
    cluster: FaultTarget, schedule: FaultSchedule, offset: float | None = None
) -> None:
    """Schedule every fault event on the cluster's simulator.

    ``offset`` defaults to the current simulation time, so a schedule
    written with times relative to "now" applies as expected after any
    warm-up the experiment already ran.
    """
    base = cluster.sim.now if offset is None else offset
    for event in schedule.sorted_events():
        cluster.sim.schedule_at(
            base + event.time,
            lambda e=event: apply(cluster, e),
            label=f"fault:{event.kind}",
        )


__all__ = ["FaultTarget", "apply", "apply_link", "inject"]
