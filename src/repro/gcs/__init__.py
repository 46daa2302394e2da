"""A partitionable, virtually synchronous group communication system.

This package implements, from scratch on the simulation substrate, the GCS
properties the paper relies on (Section 3.2):

* a **membership service** delivering views of the network topology that
  are *precise* while the network is stable, with one process's failure
  reflected consistently across all the groups it belongs to;
* **reliable multicast** to named groups, **totally ordered** within each
  configuration (one total order across all groups, from which the causal
  ordering across groups the paper asks for is argued — the spec monitor
  does not yet check it);
* **virtual synchrony**: processes that move together from one view to the
  next deliver the same set of messages in the earlier view (implemented by
  a flush round during view formation);
* **open groups**: a process (in particular a client) need not be a member
  of a group to multicast to it.

Architecture (the Transis/Spread daemon model): server processes run
:class:`~repro.gcs.daemon.GcsDaemon`, which maintains one *configuration*
(daemon-level membership) per partition component; per-group views are
derived from the configuration plus a replicated group-membership map that
is updated by totally ordered join/leave events.  Clients use
:class:`~repro.gcs.client_api.GcsClient`, which funnels group-addressed
messages through any live contact daemon.
"""

from repro.gcs.client_api import GcsClient
from repro.gcs.daemon import GcsDaemon
from repro.gcs.endpoint import GcsApplication
from repro.gcs.settings import GcsSettings
from repro.gcs.view import Configuration, GroupView, ViewId

__all__ = [
    "Configuration",
    "GcsApplication",
    "GcsClient",
    "GcsDaemon",
    "GcsSettings",
    "GroupView",
    "ViewId",
]
