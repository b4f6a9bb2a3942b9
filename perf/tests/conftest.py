import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(PERF), str(PERF.parent / "src")]
