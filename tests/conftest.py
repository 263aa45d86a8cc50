"""Shared fixtures: synthetic KG builders and optional real-benchmark roots.

The real WN18RR / FB15K-237 / YAGO3-10 files are not redistributed here.
Tests that verify published numbers look for them under ``$KGBENCH_DATA``
(one subdirectory per dataset, each holding train.txt/valid.txt/test.txt)
and skip with an explicit message when absent.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from kgbench import Batch, SplitDataset, build_vocabulary, score
from kgbench.ingest import DatasetLayout

BENCHMARK_DIRS = {
    "wn18rr": ("WN18RR", "wn18rr"),
    "fb15k-237": ("FB15K-237", "FB15k-237", "fb15k-237"),
    "yago3-10": ("YAGO3-10", "yago3-10"),
}


def benchmark_layout(name: str) -> DatasetLayout:
    """Layout for a real benchmark, or skip if the files are not available."""
    root = os.environ.get("KGBENCH_DATA")
    if not root:
        pytest.skip(f"real {name} files not available: set KGBENCH_DATA to a directory "
                    f"containing the benchmark datasets")
    for candidate in BENCHMARK_DIRS[name]:
        d = Path(root) / candidate
        if (d / "train.txt").is_file():
            return DatasetLayout(dir=d)
    pytest.skip(f"KGBENCH_DATA={root} does not contain {name} "
                f"(tried {', '.join(BENCHMARK_DIRS[name])})")


def interned(vocab, labeled):
    return tuple(vocab.intern(t) for t in labeled)


def make_dataset(train, valid, test) -> SplitDataset:
    """Dataset from labeled triples; vocabulary order follows train|valid|test."""
    vocab = build_vocabulary(list(train) + list(valid) + list(test))
    return SplitDataset(
        vocab=vocab,
        train=interned(vocab, train),
        valid=interned(vocab, valid),
        test=interned(vocab, test),
    )


def write_split_files(directory: Path, train, valid, test, sep: str = "\t") -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for name, rows in (("train", train), ("valid", valid), ("test", test)):
        text = "".join(sep.join(row) + "\n" for row in rows)
        (directory / f"{name}.txt").write_text(text, encoding="utf-8")
    return directory


def score_one(params, h: int, r: int, t: int) -> float:
    """``score`` of one triple, from a batch of one."""
    return float(score(Batch(params, h, r, t))[0])


def random_kg(rng: np.random.Generator, n_entities: int, n_relations: int,
              n_train: int, n_valid: int = 0, n_test: int = 0) -> SplitDataset:
    """Random dataset over e0..eN / r0..rM with distinct triples across splits."""
    needed = n_train + n_valid + n_test
    seen: set[tuple[int, int, int]] = set()
    triples: list[tuple[int, int, int]] = []
    attempts = 0
    while len(triples) < needed:
        attempts += 1
        if attempts > 100 * needed + 1000:
            raise RuntimeError("random KG too dense to fill without duplicates")
        cand = (int(rng.integers(n_entities)), int(rng.integers(n_relations)),
                int(rng.integers(n_entities)))
        if cand in seen:
            continue
        seen.add(cand)
        triples.append(cand)
    labeled = [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in triples]
    return make_dataset(labeled[:n_train],
                        labeled[n_train:n_train + n_valid],
                        labeled[n_train + n_valid:])


@pytest.fixture
def toy_dataset() -> SplitDataset:
    """Small fixed KG with one OOV entity in valid and one in test."""
    train = [
        ("e0", "p0", "e1"), ("e1", "p0", "e2"), ("e2", "p0", "e3"),
        ("e3", "p0", "e4"), ("e2", "p1", "e0"), ("e4", "p1", "e1"),
        ("e0", "p1", "e5"), ("e5", "p0", "e0"),
    ]
    valid = [("e4", "p0", "e5"), ("ov", "p0", "e1")]
    test = [("e0", "p1", "e3"), ("e1", "p1", "e5"), ("e2", "p0", "ot")]
    return make_dataset(train, valid, test)


# Hypothesis: keep runs deterministic and quick; oracle loops do the bulk
# elsewhere.
from hypothesis import HealthCheck, settings

settings.register_profile(
    "kgbench",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("kgbench")
