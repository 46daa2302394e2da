"""The stack benchmark: four workloads against the unmodified ``src/repro``.

``python -m bench run --seed N [--workload W] [--trace] [--quick]`` runs the
workloads (each in its own watched subprocess), prints every metric by name
with its unit, checks the outputs for correctness and writes one JSON result
under ``bench/out/``.  ``python -m bench compare A.json B.json`` judges two
result sets against the benchmark's own bounds.  See ``bench/README.md``.

Nothing here is imported by ``src/repro``; the benchmark touches the stack
only through its public constructors and functions.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: the checkout root (the directory that holds ``bench/`` and ``src/``)
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

STATEMENT = "loopback, no injected delay, in-process cluster"


def require_repro() -> None:
    """Make ``repro`` importable from ``<checkout>/src``; exit non-zero when
    the checkout has no program to measure."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program to measure: {src}/repro is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
