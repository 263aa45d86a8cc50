"""Write one seeded synthetic KG: ``python3 perfbench/gen.py --shape NAME --seed N --out DIR``.

Writes ``DIR/raw/{train,valid,test}.txt`` and ``DIR/expected.json``; see
kg.py. The benchmark runs this in a child process so that the generator's
memory does not count towards the workload's peak.
"""

import argparse
import sys
from pathlib import Path

import kg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shape", required=True, choices=sorted(kg.SHAPES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    kg.generate(kg.SHAPES[args.shape], args.seed).write(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
