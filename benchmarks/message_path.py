"""What one simulated message costs, alone: ``Network.send`` to delivery.

Five nodes on one ``Network`` with the trace log on, a handler that does
nothing, fixed latency, four message kinds over every ordered pair.  Each
run sends ``--messages`` messages in batches of 100, draining the heap
between batches, and the figure is CPU time per message; the script
prints the fastest and the median of ``--runs`` runs, with the collector
off.  Pin it to one core and alternate the sides of an A/B::

    PYTHONPATH=src taskset -c 1 python benchmarks/message_path.py --runs 40
"""

from __future__ import annotations

import argparse
import gc
import statistics
import time

from repro.sim.engine import Simulator
from repro.sim.latency import FixedLatency
from repro.sim.network import Network
from repro.sim.topology import Topology
from repro.sim.trace import TraceLog

NODES = ["s0", "s1", "s2", "s3", "s4"]
KINDS = ["gcs.heartbeat", "gcs.ptp", "gcs.sequenced_batch", "gcs.order_req"]
BATCH = 100


def one_run(messages: int) -> float:
    """CPU microseconds per message over ``messages`` sends and deliveries."""
    sim = Simulator()
    network = Network(sim, Topology(), FixedLatency(0.001), trace=TraceLog())
    for node in NODES:
        network.attach(node, lambda message: None, lambda: True)
    routes = [(a, b, kind) for a in NODES for b in NODES if a != b for kind in KINDS]
    plan = [routes[i % len(routes)] for i in range(messages)]
    send = network.send
    started = time.process_time()
    for first in range(0, messages, BATCH):
        for sender, receiver, kind in plan[first : first + BATCH]:
            send(sender, receiver, None, kind, 10)
        sim.run_until(sim.now + 0.01)
    elapsed = time.process_time() - started
    assert network.total_delivered == messages
    return elapsed / messages * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--messages", type=int, default=5000)
    parser.add_argument("--runs", type=int, default=40)
    args = parser.parse_args()
    gc.disable()
    one_run(args.messages)  # warm-up
    costs = sorted(one_run(args.messages) for _ in range(args.runs))
    print(
        f"µs per message over {args.runs} runs of {args.messages}: "
        f"fastest {costs[0]:.2f}, median {statistics.median(costs):.2f}"
    )


if __name__ == "__main__":
    main()
