"""Deterministic discrete-event simulation substrate.

This package provides the bottom layer of the reproduction: a
single-threaded, seeded, exactly reproducible discrete-event simulator with

* an event engine (:mod:`repro.sim.engine`),
* a process abstraction with timers and crash/recover lifecycle
  (:mod:`repro.sim.process`),
* a message-passing network with FIFO per-pair delivery, pluggable latency
  models and the link model — partitions, non-transitive link cuts,
  delay spikes, duplication and reordering — that the live runtime's
  fault-injecting transports read too (:mod:`repro.sim.network`,
  :mod:`repro.sim.topology`, :mod:`repro.sim.latency`),
* named, seeded random streams (:mod:`repro.sim.rng`), and
* a structured trace log (:mod:`repro.sim.trace`).

The paper's evaluation is a fault-pattern risk analysis; a deterministic
simulator reproduces fault patterns, timing windows and message counts
exactly, which is what the experiments measure.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.latency import (
    FixedLatency,
    LatencyModel,
    UniformLatency,
    lan_latency,
    wan_latency,
)
from repro.sim.network import Message, Network
from repro.sim.process import Process, ProcessState
from repro.sim.rng import RngRegistry
from repro.sim.topology import Topology
from repro.sim.trace import TraceEvent, TraceLog

__all__ = [
    "Event",
    "Simulator",
    "Process",
    "ProcessState",
    "Message",
    "Network",
    "Topology",
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "lan_latency",
    "wan_latency",
    "RngRegistry",
    "TraceEvent",
    "TraceLog",
]
