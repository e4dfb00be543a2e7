"""Put the harness modules and the repro sources on the import path."""

import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HARNESS.parents[1] / "src"), str(HARNESS)]
