"""Four once-violating ``sim_chaos`` seeds, pinned verdict for verdict.

Each case is ``(--seed, index)`` of the ``sim_chaos`` workload: the run
seed, schedule and profile are derived exactly as
``bench.workloads.sim_chaos.derive`` derives them, on its ``CONFIG``.
Two end in an at-most-once violation — each delivering daemon re-delivers
a request across its own crash and recovery (the duplicate-delivery class
in ROADMAP) — and one in a responsiveness gap.  (1006, 60) ended in one
too, after s1 and s2 declared s0 silent at 7.921 s although it had just
installed their view; it runs clean since the membership engine ends a
wait for a coordinator at the next install (ROADMAP 2(e)/2(f)).  The same
fix takes the ``gcs.coordinator_silent`` at 24.9 s out of (2005, 22), but
not its gap: a session that stops answering after the final heal.  A
change that is not meant to touch protocol behaviour leaves all four
verdicts as they are; the fix for the duplicate-delivery class must change
the at-most-once ones on purpose, and update this file when it does.

The duplicate deliveries are also committed as ddmin-shrunk
``repro-chaos/1`` artifacts under ``artifacts/`` (recorded with
``chaos.engine._explore_iteration`` on ``CONFIG``, shrink budget 48); each
replays to its recorded verdict, oracle and detail alike.  The (1006, 60)
witness sits in ``artifacts/fixed/`` and replays clean.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.chaos.config import ChaosConfig
from repro.chaos.engine import replay
from repro.chaos.generator import generate_schedule, resolve_profile
from repro.chaos.runner import run_schedule

#: ``bench.workloads.sim_chaos.CONFIG``
CONFIG = ChaosConfig(n_servers=5, n_sessions=4, duration=30.0, profile="mixed")

_VIOLATORS = {
    (1006, 57): (
        "crashes",
        [("gcs-spec", {"property": "at-most-once", "error": "s0 delivered request ('s2', 2, 37) twice"})],
    ),
    (1006, 60): ("crashes", []),
    (2003, 56): (
        "gray",
        [("gcs-spec", {"property": "at-most-once", "error": "s0 delivered request ('s1', 0, 141) twice"})],
    ),
    (2005, 22): ("partitions", [("responsiveness", {"max_gap": 8.3301, "bound": 5.0})]),
}


def derive(seed: int, index: int):
    """The ``index``-th run of ``--seed``: run seed, schedule, profile."""
    profile = resolve_profile(CONFIG, index)
    schedule = generate_schedule(np.random.default_rng([seed, index]), CONFIG, profile)
    run_seed = (seed * 1_000_003 + index * 8_191 + 1) % (2**31 - 1)
    return run_seed, schedule, profile


@pytest.mark.parametrize("case", sorted(_VIOLATORS), ids=lambda case: f"{case[0]}-{case[1]}")
def test_known_violator_keeps_its_verdict(case):
    expected_profile, verdict = _VIOLATORS[case]
    run_seed, schedule, profile = derive(*case)
    assert profile == expected_profile
    result = run_schedule(CONFIG, run_seed, schedule)
    assert [(v.oracle, v.detail) for v in result.violations] == verdict


ARTIFACTS = Path(__file__).parent / "artifacts"

#: artifact -> the shrunk schedule's recorded (oracle, detail), and whether
#: it still reproduces (a fixed one lives in ``artifacts/fixed/``)
_SHRUNK = {
    "chaos-1006-57.json": (
        ("gcs-spec", {"property": "at-most-once", "error": "s0 delivered request ('s4', 0, 7) twice"}),
        True,
    ),
    "chaos-1006-60.json": (
        ("gcs-spec", {"property": "at-most-once", "error": "s3 delivered request ('s4', 0, 84) twice"}),
        False,
    ),
    "chaos-2003-56.json": (
        ("gcs-spec", {"property": "at-most-once", "error": "s0 delivered request ('s2', 0, 139) twice"}),
        True,
    ),
}


@pytest.mark.parametrize("name", sorted(_SHRUNK))
def test_shrunk_artifact_replays_its_verdict(name):
    verdict, reproduces = _SHRUNK[name]
    path = ARTIFACTS / name if reproduces else ARTIFACTS / "fixed" / name
    recorded = json.loads(path.read_text())["violations"]
    assert [(v["oracle"], v["detail"]) for v in recorded] == [verdict]
    result, _, reproduced = replay(path)
    assert reproduced == reproduces
    assert [(v.oracle, v.detail) for v in result.violations] == ([verdict] if reproduces else [])
