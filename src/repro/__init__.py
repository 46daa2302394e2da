"""repro — reproduction of Fekete & Keidar, ICDCS 2001.

*A Framework for Highly Available Services Based on Group Communication.*

The package layers, bottom to top:

* :mod:`repro.sim` — deterministic discrete-event simulation substrate
  (engine, processes, network with partitions and non-transitive faults).
* :mod:`repro.gcs` — a partitionable virtually synchronous group
  communication system built from scratch on the simulator: membership with
  a flush round, sequencer-based total order, named open groups.
* :mod:`repro.core` — the paper's contribution: the configurable
  high-availability service framework (service / content / session groups,
  unit database, primary + backups, periodic context propagation,
  migration), plus the future-work extensions (replicated state machine,
  availability manager).
* :mod:`repro.services` — the three example applications from Section 2
  (video-on-demand, distance education, refinement search).
* :mod:`repro.faults`, :mod:`repro.metrics`, :mod:`repro.analysis`,
  :mod:`repro.experiments` — fault injection, measurement, the Section-4
  analytic models, and the experiment harness that regenerates every
  quantified claim (its baselines are configurations of the same code).
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
