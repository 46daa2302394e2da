"""The four workloads.  Each module exposes ``run(seed, seconds, quick,
trace) -> Outcome`` and is executed in its own subprocess by
``bench.isolate``."""
