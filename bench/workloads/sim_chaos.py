"""``sim_chaos``: what reproducing the paper costs.

Seeds derived from ``--seed`` of ``chaos.generator.generate_schedule`` +
``chaos.runner.run_schedule`` with ``ChaosConfig(n_servers=5, n_sessions=4,
duration=30)``, mixed profile, simulator only.  Experiments and chaos
exploration are bound by ``sim.engine`` + ``sim.network`` + the protocol
handlers with no ``net.*`` at all: a codec or transport change predicts no
change here, a sim-kernel, trace-log or oracle change shows only here.  The
clock is simulated, so protocol counts repeat exactly for a given seed.
"""

from __future__ import annotations

import statistics
import time
from typing import Any

import numpy as np

from repro.chaos.config import ChaosConfig
from repro.chaos.generator import generate_schedule, resolve_profile
from repro.chaos.runner import run_schedule
from repro.core.service import ServiceCluster
from repro.faults.schedule import FaultSchedule
from repro.gcs.settings import GcsSettings
from repro.services.content import build_movie
from repro.services.vod import VodApplication

from bench import stats
from bench.context import RunContext
from bench.layers import SimProbe
from bench.outcome import Outcome, peak_rss_mb
from bench.refload import RefLoad, normalise
from bench.live import SETUP_REPEATS

NAME = "sim_chaos"
CONFIG = ChaosConfig(n_servers=5, n_sessions=4, duration=30.0, profile="mixed")
#: nominal number of seeds (about 30 s of wall clock on the sizing box); a
#: shorter ``--seconds`` runs as many of them as fit
NOMINAL_SEEDS = 64
QUICK_CONFIG = ChaosConfig(
    n_servers=5, n_sessions=4, duration=4.0, establish=1.0, settle=4.0, profile="mixed"
)


def derive(seed: int, index: int, config: ChaosConfig) -> tuple[int, FaultSchedule, str]:
    """The ``index``-th run of ``--seed``: its run seed, schedule and profile
    (same derivation as ``repro chaos`` uses per iteration)."""
    profile = resolve_profile(config, index)
    schedule = generate_schedule(np.random.default_rng([seed, index]), config, profile)
    run_seed = (seed * 1_000_003 + index * 8_191 + 1) % (2**31 - 1)
    return run_seed, schedule, profile


def cold_start(config: ChaosConfig, seed: int) -> float:
    """Wall seconds to build the simulated cluster, reach one agreed view
    and have every session started — the simulator's set-up."""
    started = time.monotonic()
    movie = build_movie(config.unit_ids[0], duration_seconds=600.0, frame_rate=10.0)
    app = VodApplication({config.unit_ids[0]: movie})
    cluster = ServiceCluster.build(
        n_servers=config.n_servers,
        units={config.unit_ids[0]: app},
        replication=config.n_servers,
        policy=config.build_policy(),
        settings=GcsSettings(),
        seed=seed,
    )
    cluster.settle()
    handles = [
        cluster.add_client(client_id).start_session(config.unit_ids[0])
        for client_id in config.client_ids
    ]
    cluster.run(config.establish)
    if not all(handle.started for handle in handles):
        raise RuntimeError("simulated set-up: a session never started")
    return time.monotonic() - started


def judge_seeds(
    out: Outcome, seeds: int, violating: int, first: str | None, repeat: str
) -> None:
    """Set the run's attempted/failed counts and check determinism.

    An operation is one chaos seed run to completion; it has failed when
    running it again does not reproduce it bit for bit.  A seed that ends in
    an oracle violation is not a failed operation and does not fail the run:
    finding them is what the chaos engine is for, and the stack as it stands
    has them in a few percent of seeds at this configuration (README,
    finding 9, states the baseline rate).  They lower ``clean_seed_share``,
    which fills the ``in_slo_share`` slot, so a change that raises the rate
    shows there."""
    out.attempted = seeds
    matches = repeat == first
    out.failed = 0 if matches else 1
    out.put("clean_seed_share", (seeds - violating) / seeds, "share", n=seeds)
    out.check("repeated_seed_digest_matches", matches, f"{repeat} != {first}")


def run(ctx: RunContext) -> Outcome:
    seed, seconds, quick, import_s = ctx.seed, ctx.seconds, ctx.quick, ctx.import_s
    trace = SimProbe() if ctx.tracer is not None else None
    out = Outcome(NAME)
    config = QUICK_CONFIG if quick else CONFIG
    setups = [cold_start(config, seed) for _ in range(1 if quick else SETUP_REPEATS)]

    # per seed: wall seconds as measured (walls, rates), then wall seconds
    # and CPU seconds per executed event normalised by what the yardstick
    # cost right before and after the seed (README, "Harness policy")
    walls: list[float] = []
    rates: list[float] = []
    level_walls: list[float] = []
    costs: list[float] = []
    reference = RefLoad()

    def yardstick() -> float:
        return statistics.median(reference.cost() for _ in range(3))

    events = messages = trace_events = dirty = 0
    cpu_seeds = 0.0
    violating: list[dict[str, Any]] = []
    sim_seconds = 0.0
    first_digest = None
    layer_seconds = {"digest": 0.0, "oracles": 0.0}
    window0 = time.monotonic()
    cpu0 = time.process_time()
    deadline = window0 + seconds
    index = 0
    ctx.progress.watch(lambda: (index + 1, index))
    before = yardstick()
    while index < NOMINAL_SEEDS and (index == 0 or time.monotonic() < deadline):
        run_seed, schedule, _profile = derive(seed, index, config)
        started, cpu_started = time.monotonic(), time.process_time()
        result, observation = run_schedule(config, run_seed, schedule, keep_cluster=True)
        wall, cpu_seed = time.monotonic() - started, time.process_time() - cpu_started
        walls.append(wall)
        cpu_seeds += cpu_seed
        rates.append(result.end_time / wall)
        sim_seconds += result.end_time
        cluster = observation.cluster
        after = yardstick()
        level_walls.append(normalise(wall, (before + after) / 2))
        costs.append(
            normalise(cpu_seed / max(cluster.sim.executed_events, 1), (before + after) / 2)
        )
        before = after
        events += cluster.sim.executed_events
        messages += cluster.network.total_sent
        trace_events += len(cluster.trace_log())
        if result.failed:
            dirty += 1
            violating.append({"index": index, "run_seed": run_seed, "profile": _profile,
                              "oracles": sorted(result.oracle_names())})
        if index == 0:
            first_digest = result.digest
        if trace is not None:
            trace.sim_seed(observation, result, layer_seconds)
        del observation, cluster
        index += 1
    cpu = time.process_time() - cpu0
    window = time.monotonic() - window0

    # determinism witness, outside the measured window
    run_seed, schedule, _profile = derive(seed, 0, config)
    repeat = run_schedule(config, run_seed, schedule)

    ordered = sorted(level_walls)
    n = len(walls)
    judge_seeds(out, n, dirty, first_digest, repeat.digest)
    out.put("setup_s", import_s + stats.calm_level(setups), "s", n=len(setups))
    out.put("sim_s_per_wall_s", statistics.median(rates), "1/s", n=n)
    out.put("seed_wall_p50_ms", stats.percentile(ordered, 0.50) * 1e3, "ms", n=n,
            whole_window=statistics.median(walls) * 1e3)
    out.put("seed_wall_p90_ms", stats.percentile(ordered, 0.90) * 1e3, "ms", n=n,
            beyond=stats.beyond(n, 0.90))
    out.put("cpu_us_per_event", statistics.median(costs) * 1e6, "us", n=events, slices=n,
            whole_window=cpu_seeds * 1e6 / max(events, 1))
    out.put("peak_rss_mb", peak_rss_mb(), "MB")
    out.put("failed_share", out.failed / n, "share", n=n)
    out.info["cpu_seconds_per_op"] = statistics.median(costs)
    out.info.update(
        config=config.to_json(), seeds=n, measured_seconds=window,
        events=events, messages=messages, trace_events=trace_events,
        sim_seconds=sim_seconds, events_per_wall_s=events / window,
        first_digest=first_digest, setup_samples=setups, import_seconds=import_s,
        violating_seeds=violating, seed_wall_seconds=walls,
        seed_wall_seconds_normalised=level_walls, cpu_seconds_per_event_normalised=costs,
    )
    if violating:
        out.notes.append(
            f"{dirty} of {n} seeds ended in an oracle violation (see info.violating_seeds)"
        )
    if trace is not None:
        trace.sim_layers(out, layer_seconds, window, cpu)
    return out

