"""Command-line entry point.

    python -m repro demo                # the quickstart scenario
    python -m repro experiments         # full experiment report
    python -m repro experiments --fast E3 E4
    python -m repro experiments --workers 4   # the sweep, sharded by experiment
    python -m repro policy --target 1e-4 --failure-rate 0.01
    python -m repro chaos --seed 1 --iterations 5
    python -m repro chaos --workers 4 --iterations 8
    python -m repro chaos --replay chaos-artifacts/chaos-1-3.json
    python -m repro lint src/              # determinism & hygiene lint
    python -m repro lint --list-rules
    python -m repro serve --node-id s0 --listen 127.0.0.1:9000 \\
        --peer s1=127.0.0.1:9001 --peer s2=127.0.0.1:9002
"""

from __future__ import annotations

import argparse
import sys


def _cmd_demo(_args) -> int:
    import importlib.util
    from pathlib import Path

    example = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"
    if example.exists():
        spec = importlib.util.spec_from_file_location("quickstart", example)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main()
        return 0
    # installed without the examples directory: run an inline equivalent
    from repro.core import AvailabilityPolicy, ServiceCluster
    from repro.services import VodApplication, build_movie

    movie = build_movie("demo", duration_seconds=30, frame_rate=24)
    cluster = ServiceCluster.build(
        n_servers=3,
        units={"demo": VodApplication({"demo": movie})},
        replication=3,
        policy=AvailabilityPolicy(num_backups=1),
        seed=1,
    )
    cluster.settle()
    client = cluster.add_client("you")
    handle = client.start_session("demo")
    cluster.run(5.0)
    victim = cluster.primaries_of(handle.session_id)[0]
    cluster.crash_server(victim)
    cluster.run(5.0)
    print(
        f"streamed {len(handle.received)} frames across a failover "
        f"({victim} -> {cluster.primaries_of(handle.session_id)[0]})"
    )
    return 0


def _cmd_experiments(args) -> int:
    from repro.experiments.runner import run_all

    run_all(
        args.ids or None,
        seed=args.seed,
        fast=args.fast,
        workers=getattr(args, "workers", 1),
    )
    return 0


def _cmd_policy(args) -> int:
    from repro.analysis.availability import context_loss_probability
    from repro.core.manager import backups_for_target, period_for_target

    backups = backups_for_target(
        args.target, args.failure_rate, args.period
    )
    achieved = context_loss_probability(
        args.failure_rate, args.period, backups + 1
    )
    longest = period_for_target(args.target, args.failure_rate, backups)
    print(f"target loss probability : {args.target:g}")
    print(f"per-server failure rate : {args.failure_rate:g} /s")
    print(f"propagation period      : {args.period:g} s")
    print(f"=> backups needed       : {backups}")
    print(f"=> achieved loss        : {achieved:.3g}")
    print(f"=> longest period at b={backups}: {longest:.3g} s")
    return 0


def _cmd_chaos(args) -> int:
    from repro.chaos import ChaosConfig, explore, replay

    if args.replay:
        result, recorded, reproduced = replay(args.replay)
        names = ", ".join(sorted({v["oracle"] for v in recorded})) or "(none)"
        found = ", ".join(sorted(result.oracle_names())) or "(none)"
        print(f"artifact oracles : {names}")
        print(f"replay oracles   : {found}")
        print(f"reproduced       : {'yes' if reproduced else 'NO'}")
        return 0 if reproduced else 1

    if args.live and args.workers > 1:
        # live runs own real sockets and wall-clock pacing; sharding them
        # across processes would just interleave their timing
        print("chaos: --live requires --workers 1", file=sys.stderr)
        return 2
    try:
        config = ChaosConfig(
            n_servers=args.servers,
            n_sessions=args.sessions,
            duration=args.duration,
            establish=args.establish,
            settle=args.settle,
            max_gap=args.max_gap,
            profile=args.profile,
            plant=args.plant,
            mode="live" if args.live else "sim",
            wan_profile=args.wan,
        )
    except ValueError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    report = explore(
        config,
        seed=args.seed,
        iterations=args.iterations,
        artifact_dir=args.artifact_dir,
        shrink_budget=args.shrink_budget,
        echo=print,
        workers=args.workers,
    )
    print(report.summary())
    if config.plant is not None:
        # validation mode: the planted bug MUST be found
        return 0 if report.violations_found > 0 else 1
    return 1 if report.violations_found > 0 else 0


def _cmd_lint(args) -> int:
    from repro.lint.cli import run

    return run(args)


def _cmd_cluster(args) -> int:
    """Run a live in-process cluster over real sockets and audit it
    (exit 0 = clean session audit)."""
    import json

    from repro.net.cluster import LiveClusterOptions, run_live_cluster

    options = LiveClusterOptions(
        nodes=args.nodes,
        requests=args.requests,
        kill_primary=args.kill_primary,
        update_interval=args.update_interval,
        settle=args.settle,
        transport=args.transport,
        profile=args.profile,
        stats_json=args.stats_json,
    )
    report = run_live_cluster(options)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.audit_json:
        from pathlib import Path

        Path(args.audit_json).write_text(text + "\n")
    return 0 if report.get("clean") else 1


def _parse_hostport(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {value!r}"
        )
    return host, int(port)


def _cmd_serve(args) -> int:
    """Run one live server node over the TCP mesh (exit 0 = the final
    view has the expected member count, when one was given)."""
    import json

    from repro.net.cluster import ServeOptions, run_single_node

    peers: dict[str, tuple[str, int]] = {}
    for spec in args.peer or []:
        name, _, addr = spec.partition("=")
        if not name or not addr:
            print(f"bad --peer {spec!r}: expected NAME=HOST:PORT", file=sys.stderr)
            return 2
        peers[name] = _parse_hostport(addr)
    status = run_single_node(
        ServeOptions(
            node_id=args.node_id,
            listen=_parse_hostport(args.listen),
            peers=peers,
            unit=args.unit,
            duration=args.duration,
            expect_members=args.expect_members,
            transport=args.transport,
            profile=args.profile,
            stats_json=args.stats_json,
            control=_parse_hostport(args.control) if args.control else None,
        )
    )
    print(json.dumps(status, indent=2, sort_keys=True))
    if args.expect_members is not None:
        return 0 if len(status["members"]) == args.expect_members else 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="run the quickstart failover scenario")

    experiments = sub.add_parser("experiments", help="run the experiment suite")
    experiments.add_argument("ids", nargs="*", help="experiment ids (E1..E11)")
    experiments.add_argument("--seed", type=int, default=0)
    experiments.add_argument("--fast", action="store_true")
    experiments.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes to shard experiments across (default 1)",
    )

    policy_cmd = sub.add_parser(
        "policy", help="derive availability parameters from a quality target"
    )
    policy_cmd.add_argument("--target", type=float, required=True)
    policy_cmd.add_argument("--failure-rate", type=float, required=True)
    policy_cmd.add_argument("--period", type=float, default=0.5)

    chaos = sub.add_parser(
        "chaos",
        help="randomized fault-space search with invariant oracles "
        "(exit 0 = clean; with --plant, exit 0 = bug found)",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--iterations", type=int, default=5)
    chaos.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes to shard iterations across (default 1)",
    )
    chaos.add_argument(
        "--profile",
        choices=("crashes", "partitions", "gray", "mixed"),
        default="mixed",
    )
    chaos.add_argument("--servers", type=int, default=4)
    chaos.add_argument("--sessions", type=int, default=2)
    chaos.add_argument("--duration", type=float, default=20.0)
    chaos.add_argument(
        "--establish",
        type=float,
        default=3.0,
        help="run time between starting sessions and injecting faults",
    )
    chaos.add_argument(
        "--settle",
        type=float,
        default=10.0,
        help="run time after healing, before the oracles look",
    )
    chaos.add_argument(
        "--max-gap",
        type=float,
        default=5.0,
        help="longest response silence tolerated inside clean windows",
    )
    chaos.add_argument(
        "--live",
        action="store_true",
        help="run each schedule against a real asyncio socket cluster "
        "with fault-injecting transports (wall-clock seconds per run; "
        "artifacts carry the ingress frame log for bit-exact --replay)",
    )
    chaos.add_argument(
        "--wan",
        default=None,
        metavar="PROFILE",
        help="live mode only: shape link latency from a WAN profile "
        "(us-eu, global) and scale the GCS timings to match",
    )
    from repro.chaos.config import PLANTS

    chaos.add_argument(
        "--plant",
        choices=PLANTS,
        default=None,
        help="deliberately weaken the implementation to validate the engine",
    )
    chaos.add_argument("--artifact-dir", default="chaos-artifacts")
    chaos.add_argument("--shrink-budget", type=int, default=48)
    chaos.add_argument(
        "--replay",
        metavar="FILE",
        default=None,
        help="re-run a repro artifact instead of exploring",
    )

    cluster = sub.add_parser(
        "cluster",
        help="live in-process cluster over real sockets with a scripted "
        "VoD workload (exit 0 = clean session audit)",
    )
    cluster.add_argument("--nodes", type=int, default=3)
    cluster.add_argument("--requests", type=int, default=200)
    cluster.add_argument(
        "--kill-primary",
        action="store_true",
        help="crash the session's primary mid-run and restart it later",
    )
    cluster.add_argument("--update-interval", type=float, default=0.02)
    cluster.add_argument("--settle", type=float, default=2.0)
    cluster.add_argument(
        "--transport",
        default="tcp",
        help="transport backend by registry name (default tcp)",
    )
    cluster.add_argument(
        "--profile",
        default="live_lan",
        help="timing profile: live_lan (tight LAN timeouts) or default",
    )
    cluster.add_argument(
        "--audit-json",
        metavar="FILE",
        default=None,
        help="also write the audit report to FILE",
    )
    cluster.add_argument(
        "--stats-json",
        metavar="FILE",
        default=None,
        help="write every node's per-peer transport snapshot to FILE",
    )

    serve = sub.add_parser(
        "serve",
        help="one live server node over the TCP mesh "
        "(for multi-process deployments)",
    )
    serve.add_argument("--node-id", required=True)
    serve.add_argument("--listen", required=True, metavar="HOST:PORT")
    serve.add_argument(
        "--peer",
        action="append",
        metavar="NAME=HOST:PORT",
        help="another node of the mesh (repeatable)",
    )
    serve.add_argument("--unit", default="demo")
    serve.add_argument("--duration", type=float, default=10.0)
    serve.add_argument(
        "--transport",
        default="tcp",
        help="transport backend by registry name (default tcp)",
    )
    serve.add_argument(
        "--profile",
        default="default",
        help="timing profile: default or live_lan (tight LAN timeouts)",
    )
    serve.add_argument(
        "--expect-members",
        type=int,
        default=None,
        help="exit non-zero unless the final view has this many members",
    )
    serve.add_argument(
        "--stats-json",
        metavar="FILE",
        default=None,
        help="write this node's per-peer transport snapshot to FILE",
    )
    serve.add_argument(
        "--control",
        metavar="HOST:PORT",
        default=None,
        help="open a JSON-lines fault control channel (wraps the "
        "transport in a fault injector; see repro.net.faults)",
    )

    from repro.lint.cli import build_parser as build_lint_parser

    lint = sub.add_parser(
        "lint",
        help="determinism & protocol-hygiene static analysis "
        "(exit 0 = clean, 1 = findings)",
    )
    build_lint_parser(lint)

    args = parser.parse_args(argv)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "demo":
        return _cmd_demo(args)
    if args.command == "experiments":
        return _cmd_experiments(args)
    if args.command == "policy":
        return _cmd_policy(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "serve":
        return _cmd_serve(args)
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
