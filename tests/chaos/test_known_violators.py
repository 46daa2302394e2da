"""The four known violating ``sim_chaos`` seeds, pinned verdict for verdict.

Each case is ``(--seed, index)`` of the ``sim_chaos`` workload: the run
seed, schedule and profile are derived exactly as
``bench.workloads.sim_chaos.derive`` derives them, on its ``CONFIG``.
Three end in an at-most-once violation — each delivering daemon re-delivers
a request across its own crash and recovery (the duplicate-delivery class
in ROADMAP) — and one in a responsiveness gap.  A
change that is not meant to touch protocol behaviour leaves all four
verdicts as they are; the fix for that class must change the first three
on purpose, and update this file when it does.

The three duplicate deliveries are also committed as ddmin-shrunk
``repro-chaos/1`` artifacts under ``artifacts/`` (recorded with
``chaos.engine._explore_iteration`` on ``CONFIG``, shrink budget 48); each
replays to its recorded verdict, oracle and detail alike.
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
        "gcs-spec",
        {"property": "at-most-once", "error": "s0 delivered request ('s2', 2, 37) twice"},
    ),
    (1006, 60): (
        "crashes",
        "gcs-spec",
        {"property": "at-most-once", "error": "s3 delivered request ('s4', 0, 84) twice"},
    ),
    (2003, 56): (
        "gray",
        "gcs-spec",
        {"property": "at-most-once", "error": "s0 delivered request ('s1', 0, 141) twice"},
    ),
    (2005, 22): ("partitions", "responsiveness", {"max_gap": 8.3301, "bound": 5.0}),
}


def derive(seed: int, index: int):
    """The ``index``-th run of ``--seed``: run seed, schedule, profile."""
    profile = resolve_profile(CONFIG, index)
    schedule = generate_schedule(np.random.default_rng([seed, index]), CONFIG, profile)
    run_seed = (seed * 1_000_003 + index * 8_191 + 1) % (2**31 - 1)
    return run_seed, schedule, profile


@pytest.mark.parametrize("case", sorted(_VIOLATORS), ids=lambda case: f"{case[0]}-{case[1]}")
def test_known_violator_keeps_its_verdict(case):
    expected_profile, oracle, detail = _VIOLATORS[case]
    run_seed, schedule, profile = derive(*case)
    assert profile == expected_profile
    result = run_schedule(CONFIG, run_seed, schedule)
    assert [(v.oracle, v.detail) for v in result.violations] == [(oracle, detail)]


ARTIFACTS = Path(__file__).parent / "artifacts"

#: artifact -> the shrunk schedule's (oracle, detail)
_SHRUNK = {
    "chaos-1006-57.json": (
        "gcs-spec",
        {"property": "at-most-once", "error": "s0 delivered request ('s4', 0, 7) twice"},
    ),
    "chaos-1006-60.json": (
        "gcs-spec",
        {"property": "at-most-once", "error": "s3 delivered request ('s4', 0, 84) twice"},
    ),
    "chaos-2003-56.json": (
        "gcs-spec",
        {"property": "at-most-once", "error": "s0 delivered request ('s2', 0, 139) twice"},
    ),
}


@pytest.mark.parametrize("name", sorted(_SHRUNK))
def test_shrunk_artifact_replays_its_verdict(name):
    path = ARTIFACTS / name
    recorded = json.loads(path.read_text())["violations"]
    assert [(v["oracle"], v["detail"]) for v in recorded] == [_SHRUNK[name]]
    result, _, reproduced = replay(path)
    assert reproduced
    assert [(v.oracle, v.detail) for v in result.violations] == [_SHRUNK[name]]
