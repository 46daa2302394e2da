"""What a ``sim_chaos`` seed costs the cyclic garbage collector.

Two deterministic counts, both independent of host speed:

* **collections** — after one warm-up seed in a fresh interpreter, the
  number of gen 0/1/2 collections the interpreter runs over seeds
  ``0 .. N-1`` of ``--seed`` (the collector's schedule follows allocation
  counts, so the same code and seeds give the same numbers on every run);
* **garbage** — with the collector off during one seed, the GC-tracked
  objects the finished seed leaves in reference cycles, by type.

Run from the repository root::

    PYTHONPATH=src:. python benchmarks/gc_census.py --seed 7 --seeds 24
"""

from __future__ import annotations

import argparse
import gc
from collections import Counter

from bench.workloads.sim_chaos import CONFIG, derive
from repro.chaos.runner import run_schedule


def run_one(seed: int, index: int) -> None:
    """Seed ``index`` of ``--seed``, derived as the ``sim_chaos`` workload
    derives it."""
    run_seed, schedule, _profile = derive(seed, index, CONFIG)
    run_schedule(CONFIG, run_seed, schedule)


def collections(seed: int, seeds: int) -> list[int]:
    """gen 0/1/2 collections over seeds ``0 .. seeds-1`` of ``seed``."""
    counts = [0, 0, 0]

    def count(phase: str, info: dict) -> None:
        if phase == "start":
            counts[info["generation"]] += 1

    gc.callbacks.append(count)
    try:
        for index in range(seeds):
            run_one(seed, index)
    finally:
        gc.callbacks.remove(count)
    return counts


def garbage(seed: int, index: int) -> Counter[str]:
    """GC-tracked objects seed ``index`` leaves in cycles, by type name."""
    gc.collect()
    gc.disable()
    try:
        run_one(seed, index)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        census = Counter(
            f"{type(obj).__module__}.{type(obj).__qualname__}" for obj in gc.garbage
        )
    finally:
        gc.garbage.clear()
        gc.set_debug(0)
        gc.enable()
    return census


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seeds", type=int, default=24)
    parser.add_argument("--top", type=int, default=12)
    args = parser.parse_args(argv)
    run_one(args.seed, 0)  # warm-up: imports, memos, interned labels
    gen0, gen1, gen2 = collections(args.seed, args.seeds)
    print(f"collections over {args.seeds} seeds: gen0={gen0} gen1={gen1} gen2={gen2}")
    census = garbage(args.seed, 0)
    print(f"objects one seed leaves in cycles: {sum(census.values())}")
    for name, count in census.most_common(args.top):
        print(f"  {count:7d}  {name}")


if __name__ == "__main__":
    main()
