#!/usr/bin/env python3
"""End-to-end OOV impact experiment on a synthetic desk-scale KG.

Generates a random symmetric KG whose valid/test splits contain injected
out-of-vocabulary entities, audits and corrects it, trains all four
embedding models, evaluates each under both OOV policies, and tests whether
the correction shifts the measured metrics (Wilcoxon signed-rank).

Usage:
    python scripts/oov_toy_experiment.py [--workdir DIR] [--epochs N] [--seed S]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from kgbench import detect_oov, evaluate, load_dataset, write_corrected
from kgbench.ingest import DatasetLayout
from kgbench.models import MODEL_KINDS
from kgbench.reporting import oov_markdown
from kgbench.audit import overview_report
from kgbench.stats import compare_reports
from kgbench.training import TrainConfig, train


def generate(workdir: Path, seed: int, n_entities: int = 40, n_edges: int = 64,
             n_oov: int = 3) -> Path:
    rng = np.random.default_rng(seed)
    edges = {(i, (i + 1) % n_entities, int(rng.integers(2)))
             for i in range(n_entities)}
    while len(edges) < n_edges:
        a, b = (int(x) for x in rng.integers(n_entities, size=2))
        if a != b:
            edges.add((min(a, b), max(a, b), int(rng.integers(2))))
    edges = sorted(edges)
    rng.shuffle(edges)
    n_eval = max(2, len(edges) // 10)
    valid_edges, test_edges, train_edges = (
        edges[:n_eval], edges[n_eval:2 * n_eval], edges[2 * n_eval:])

    def row(a, b, r):
        return (f"e{a}", f"r{r}", f"e{b}")

    train = [t for a, b, r in train_edges for t in (row(a, b, r), row(b, a, r))]
    valid = [row(a, b, r) for a, b, r in valid_edges]
    test = [row(b, a, r) for a, b, r in test_edges]
    for k in range(n_oov):  # entities that exist only outside the train split
        valid.append((f"oov_v{k}", "r0", f"e{int(rng.integers(n_entities))}"))
        test.append((f"e{int(rng.integers(n_entities))}", "r1", f"oov_t{k}"))
    workdir.mkdir(parents=True, exist_ok=True)
    for name, rows in (("train", train), ("valid", valid), ("test", test)):
        (workdir / f"{name}.txt").write_text(
            "".join("\t".join(r) + "\n" for r in rows), encoding="utf-8")
    return workdir


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="toy-experiment")
    parser.add_argument("--epochs", type=int, default=80)
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    work = Path(args.workdir)
    data_dir = generate(work / "raw", args.seed)
    dataset = load_dataset(DatasetLayout(dir=data_dir))
    report = overview_report(dataset)
    print(oov_markdown(report))
    write_corrected(dataset, detect_oov(dataset), work / "corrected", force=True)
    print(f"corrected copy written to {work / 'corrected'}\n")

    print(f"{'model':<10} {'policy':<8} {'MRR':>6} {'H@1':>6} {'H@3':>6} {'H@10':>6}")
    reports: dict[str, dict] = {"include": {}, "exclude": {}}
    for kind in MODEL_KINDS:
        config = TrainConfig(model=kind, dim=args.dim, epochs=args.epochs,
                             batch_size=32, lr=0.05, negatives=4,
                             optimizer="adam", seed=args.seed)
        t0 = time.perf_counter()
        result = train(dataset, config)
        elapsed = time.perf_counter() - t0
        for policy, by_kind in reports.items():
            r = by_kind[kind] = evaluate(result.params, dataset, split="test", policy=policy)
            print(f"{kind:<10} {policy:<8} {r.mrr:>6.3f} {r.hits[1]:>6.3f} "
                  f"{r.hits[3]:>6.3f} {r.hits[10]:>6.3f}")
        print(f"{'':<10} (trained {config.epochs} epochs in {elapsed:.1f}s, "
              f"final loss {result.epoch_losses[-1]:.4f})")

    print()
    comparison = compare_reports(reports["include"], reports["exclude"])
    test_result = comparison.test
    print(f"Wilcoxon signed-rank over {len(comparison.samples)} (include, exclude) pairs: "
          f"W={test_result.statistic} p={test_result.p_value:.3g} "
          f"[{test_result.method}]")
    print(f"mean |delta| = {comparison.summary['mean_abs_delta']:.4f} "
          f"± {comparison.summary['sd_abs_delta']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
