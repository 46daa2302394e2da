"""The harness self-test lives outside ``testpaths`` so tier-1 time is
unchanged: run it with ``python -m pytest bench/tests -q``."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import require_repro  # noqa: E402

require_repro()
