"""Determinism anchors: fixed-seed trace digests, pinned in full.

Same seed, same schedule, *same run*: a refactor of the protocol stack
must leave every digest here untouched.  A change to protocol *timing*
or to what is sent moves them — re-pin the moved ones and say why in
CHANGES.md; the fault-free ``empty`` runs only move when steady-state
behaviour changed, which is a finding in itself.

Recorded at PR 21 (``ef3619a``), before PR 22 moved the detector wiring
behind ``repro.gcs.detector`` and the partition-amnesia plant into
``repro.chaos``; the heartbeat ``empty``/``mixed`` pair is the one
``benchmarks/bench_sim_kernel.py`` carried since PR 16.
"""

import dataclasses

import numpy as np
import pytest

from repro.chaos import ChaosConfig
from repro.chaos.generator import generate_schedule, resolve_profile
from repro.chaos.runner import run_schedule
from repro.faults.schedule import FaultSchedule

_MIXED = ChaosConfig(n_servers=3, n_sessions=2, duration=8.0, profile="mixed")
_PLANTED = ChaosConfig(
    n_servers=4,
    n_sessions=2,
    duration=8.0,
    profile="partitions",
    plant="partition-amnesia",
)

_ANCHORS = {
    ("empty", "heartbeat"): "9c2636d6a046ca70d2869d4a5f9cdd98d386eb9643bec7f4e706996811b8d55b",
    ("empty", "gossip"): "20f9d1fd2c2896031506ccc449bbd1c50151898bc573304a7518ae4022bbc555",
    ("mixed", "heartbeat"): "67a712360adaec31afb6e7a7b23ce7a411f3eb2a4fed65bce54d637567314b7c",
    ("mixed", "gossip"): "b7f1bd35ae20005ef880e22a537fc065530b7ec57ec96031c0f3f6f9ebf37ce6",
    ("plant", "heartbeat"): "11a8b48f884938e49a61307dc72c0879b78318667ac8165f1d91b604123443ad",
    ("plant", "gossip"): "7d40db160a79e8af2219d1685ef4cf5904ff99946d1e6a266e1239cc383553d2",
}


#: run -> (config, run seed, generator seed; None: the empty schedule)
_RUNS = {
    "empty": (_MIXED, 42, None),
    "mixed": (_MIXED, 1234, 7),
    "plant": (_PLANTED, 8, 8),
}


def _run(run: str, membership: str):
    config, seed, gen_seed = _RUNS[run]
    config = dataclasses.replace(config, membership=membership)
    schedule = FaultSchedule(events=[])
    if gen_seed is not None:
        schedule = generate_schedule(
            np.random.default_rng([gen_seed, 0]), config, resolve_profile(config, 0)
        )
    return run_schedule(config, seed, schedule)


@pytest.mark.parametrize("run,membership", sorted(_ANCHORS))
def test_trace_digest_anchor(run, membership):
    result = _run(run, membership)
    assert result.digest == _ANCHORS[(run, membership)]
    # the planted bug is found (convergence: the healed sides never
    # re-merge), the unplanted runs are clean
    assert len(result.violations) == (6 if run == "plant" else 0)
