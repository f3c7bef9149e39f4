"""Make the simulator sources importable for the benchmark's own tests."""

import sys
from pathlib import Path

_SOURCE = str(Path(__file__).resolve().parent.parent / "src")
if _SOURCE not in sys.path:
    sys.path.insert(0, _SOURCE)
