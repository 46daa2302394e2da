"""The framework's configurable availability parameters (Section 3).

The paper's whole point is that these are *policy*, not mechanism: a
service builder trades resources (replicas, backups, propagation traffic)
against the probability of the bad events analysed in Section 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.responses import ResendAll, UncertaintyPolicy


@dataclass
class AvailabilityPolicy:
    """Tunable knobs of one service deployment.

    Attributes:
        num_backups: backup servers per session (session group size is
            ``1 + num_backups``).  ``0`` reproduces the design of the
            original VoD paper [2], where the session group is the primary
            alone.
        propagation_period: seconds between the primary's context
            propagations to the content group.  The VoD service of [2]
            used 0.5 s.
        uncertainty_policy: what a failure-takeover primary does about
            responses that *may* have been sent in the window between the
            last propagation and the crash (resend / skip / selective).
        handoff_timeout: how long a newly selected primary waits for the
            old primary's exact context during a *controlled* migration
            before falling back to its freshest local context.
        prefer_backup_promotion: whether reallocation prefers surviving
            former backups as new primaries (the paper's stated selection
            preference) — disabled only by ablation experiments.
        durable_unit_db: keep the unit database across server restarts
            (simulating a disk copy).  The paper's design is volatile —
            a simultaneous crash of every replica permanently loses its
            sessions (E5); durability converts that into a recoverable
            outage.  An extension beyond the paper, off by default.

    The form of a propagation is not a knob: each one ships a full
    snapshot or an incremental delta, whichever the codec prices smaller.
    """

    num_backups: int = 1
    propagation_period: float = 0.5
    uncertainty_policy: UncertaintyPolicy = field(default_factory=ResendAll)
    handoff_timeout: float = 0.3
    prefer_backup_promotion: bool = True
    durable_unit_db: bool = False

    def __post_init__(self) -> None:
        if self.num_backups < 0:
            raise ValueError("num_backups must be >= 0")
        if self.propagation_period <= 0:
            raise ValueError("propagation_period must be positive")

    @property
    def session_group_size(self) -> int:
        return 1 + self.num_backups


__all__ = ["AvailabilityPolicy"]
