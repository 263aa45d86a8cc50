"""Dataset auditing: out-of-vocabulary reports and overview statistics.

An entity (or relation) is out-of-vocabulary for a split when it occurs
there but never in the train split. Embedding models can only initialize,
never learn, parameters for such ids, so triples containing them do not
measure learned behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SplitDataset, Triple, as_triples, split_vocab

EVAL_SPLITS = ("valid", "test")


@dataclass(frozen=True)
class AffectedTriple:
    """A valid/test triple containing at least one OOV field."""

    split: str
    line_no: int
    triple: Triple
    oov_fields: tuple[str, ...]  # subset of ("h", "r", "t")


@dataclass(frozen=True)
class SplitOov:
    oov_entities: frozenset[int]
    oov_relations: frozenset[int]
    affected: tuple[AffectedTriple, ...]
    percentage: float  # affected / split size, as a fraction

    @property
    def n_affected(self) -> int:
        return len(self.affected)

    @property
    def is_empty(self) -> bool:
        return not (self.oov_entities or self.oov_relations or self.affected)


@dataclass(frozen=True)
class OovReport:
    valid: SplitOov
    test: SplitOov

    def split(self, name: str) -> SplitOov:
        if name == "valid":
            return self.valid
        if name == "test":
            return self.test
        raise KeyError(f"no OOV report for split {name!r}")

    @property
    def is_empty(self) -> bool:
        return self.valid.is_empty and self.test.is_empty

    def removed_line_numbers(self, split: str) -> frozenset[int]:
        return frozenset(a.line_no for a in self.split(split).affected)


def _detect_split(dataset: SplitDataset, name: str,
                  known_ents: np.ndarray, known_rels: np.ndarray) -> SplitOov:
    """``known_ents``/``known_rels`` mask the ids that occur in the train split."""
    split = dataset.split(name)
    ents, rels = split_vocab(split)
    h, r, t = split.T
    oov = np.stack([~known_ents[h], ~known_rels[r], ~known_ents[t]], axis=1)
    affected = tuple(
        AffectedTriple(name, i + 1, Triple._make(split[i].tolist()),
                       tuple(f for f, on in zip("hrt", oov[i].tolist()) if on))
        for i in np.flatnonzero(oov.any(axis=1)).tolist())
    pct = len(affected) / len(split) if len(split) else 0.0
    return SplitOov(frozenset(ents[~known_ents[ents]].tolist()),
                    frozenset(rels[~known_rels[rels]].tolist()), affected, pct)


def detect_oov(dataset: SplitDataset) -> OovReport:
    """Exact set differences of valid/test vocabularies against the train split.

    Affected triples are listed in original file order; a triple with several
    OOV fields is counted once.
    """
    train_ents, train_rels = split_vocab(dataset.train)
    known_ents = np.zeros(dataset.vocab.n_entities, dtype=bool)
    known_ents[train_ents] = True
    known_rels = np.zeros(dataset.vocab.n_relations, dtype=bool)
    known_rels[train_rels] = True
    return OovReport(
        valid=_detect_split(dataset, "valid", known_ents, known_rels),
        test=_detect_split(dataset, "test", known_ents, known_rels),
    )


@dataclass(frozen=True)
class DegreeStats:
    """Node degree distribution of one split.

    Means and SDs are taken over entities with non-zero degree of the
    respective kind (distinct tails for indegree, distinct heads for
    outdegree), with population SD. This is a documented hypothesis about
    the published tables, checked by the reference comparison.
    """

    indegree_mean: float
    indegree_sd: float
    outdegree_mean: float
    outdegree_sd: float
    n_tail_entities: int
    n_head_entities: int


def _degrees(ids: np.ndarray) -> np.ndarray:
    """Occurrence counts of the distinct ``ids``, in the order each is first seen.

    The order fixes the float sums of the SD, so the statistics of a split
    depend on its rows alone, bit for bit, not on how ids were assigned.
    """
    counts = np.bincount(ids)
    first = np.full(len(counts), len(ids))
    np.minimum.at(first, ids, np.arange(len(ids)))
    seen = np.flatnonzero(counts)
    return counts[seen[np.argsort(first[seen])]].astype(float)


def degree_stats(split: np.ndarray) -> DegreeStats:
    split = as_triples(split)
    if not len(split):
        raise ValueError("degree statistics are undefined for an empty split")
    in_counts = _degrees(split[:, 2])
    out_counts = _degrees(split[:, 0])
    return DegreeStats(
        indegree_mean=float(in_counts.mean()),
        indegree_sd=float(in_counts.std()),
        outdegree_mean=float(out_counts.mean()),
        outdegree_sd=float(out_counts.std()),
        n_tail_entities=len(in_counts),
        n_head_entities=len(out_counts),
    )


def overview_report(dataset: SplitDataset) -> dict:
    """Per-split sizes, vocabulary sizes, degree stats and the OOV report.

    JSON-ready; the markdown rendering lives in :mod:`kgbench.reporting`.
    """
    oov = detect_oov(dataset)
    splits: dict[str, dict] = {}
    for name in ("train", "valid", "test"):
        split = dataset.split(name)
        ents, rels = split_vocab(split)
        entry: dict = {
            "n_triples": len(split),
            "n_entities": len(ents),
            "n_relations": len(rels),
        }
        if len(split):
            deg = degree_stats(split)
            entry["indegree"] = {"mean": deg.indegree_mean, "sd": deg.indegree_sd}
            entry["outdegree"] = {"mean": deg.outdegree_mean, "sd": deg.outdegree_sd}
        splits[name] = entry
    return {
        "splits": splits,
        "oov": {
            name: {
                "n_oov_entities": len(oov.split(name).oov_entities),
                "n_oov_relations": len(oov.split(name).oov_relations),
                "n_affected_triples": oov.split(name).n_affected,
                "percentage": oov.split(name).percentage,
            }
            for name in EVAL_SPLITS
        },
        "containment": {
            "entities_ok": not (oov.valid.oov_entities or oov.test.oov_entities),
            "relations_ok": not (oov.valid.oov_relations or oov.test.oov_relations),
        },
    }
