#!/usr/bin/env python3
"""Audit every benchmark found under a data root and write reports.

Usage:
    python scripts/audit_benchmarks.py [--root DIR] [--out DIR]

The root defaults to $KGBENCH_DATA and is expected to contain one
subdirectory per dataset (e.g. WN18RR/, FB15K-237/, YAGO3-10/), each with
train.txt/valid.txt/test.txt. Reports land in --out (default ./audit-out):
<name>.json and <name>.md, including the comparison against the shipped
published statistics when the dataset is recognized.
"""

import argparse
import os
import sys
import time
from pathlib import Path

from kgbench import load_dataset, overview_report
from kgbench.ingest import DatasetLayout
from kgbench.reporting import audit_markdown, dump_json


def audit_one(data_dir: Path, out_dir: Path) -> bool:
    t0 = time.perf_counter()
    dataset = load_dataset(DatasetLayout(dir=data_dir))
    report = overview_report(dataset)
    elapsed = time.perf_counter() - t0
    md = audit_markdown(report, title=f"Dataset overview: {data_dir.name}")
    name = report.get("reference", {}).get("dataset")
    clean = report["containment"]["entities_ok"] and report["containment"]["relations_ok"]
    out_dir.mkdir(parents=True, exist_ok=True)
    dump_json(report, out_dir / f"{data_dir.name}.json")
    (out_dir / f"{data_dir.name}.md").write_text(md, encoding="utf-8")
    status = "no OOV" if clean else "OOV PRESENT"
    print(f"{data_dir.name}: audited in {elapsed:.1f}s ({status}); "
          f"reference match: {name or 'none'}")
    return clean


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=os.environ.get("KGBENCH_DATA"),
                        help="directory containing dataset subdirectories")
    parser.add_argument("--out", default="audit-out", help="report output directory")
    args = parser.parse_args()
    if not args.root:
        parser.error("--root not given and KGBENCH_DATA is not set")
    root = Path(args.root)
    if not root.is_dir():
        parser.error(f"--root {root} is not a directory")
    candidates = sorted(d for d in root.iterdir()
                        if d.is_dir() and (d / "train.txt").is_file())
    if not candidates:
        print(f"no datasets found under {root}", file=sys.stderr)
        return 1
    all_clean = True
    for d in candidates:
        all_clean &= audit_one(d, Path(args.out))
    return 0 if all_clean else 3


if __name__ == "__main__":
    sys.exit(main())
