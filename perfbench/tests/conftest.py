"""Put the benchmark's modules, the checkout's kgbench and its test oracles on the import path."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]
sys.path.append(str(HERE.parents[1] / "tests"))
