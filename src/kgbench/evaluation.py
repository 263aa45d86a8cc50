"""Filtered ranking and metric computation under configurable OOV policy.

For each evaluation triple, every entity (or relation) is scored as a
candidate completion, candidates forming a *different* known-true triple
(anywhere in train/valid/test) are filtered out, and the target's rank
among the survivors yields reciprocal-rank and Hits@N contributions. Both
tail and head ranks enter the entity-direction metrics, so denominators
carry a factor 2; relation prediction ranks only the relation slot.

OOV policies:

* ``include``: every evaluation triple is kept and every vocabulary id is
  a candidate, OOV ids being scored with their (untrained) initialization.
* ``exclude``: triples containing an OOV field are dropped and candidates
  are restricted to train-split ids; this is exactly equivalent to
  evaluating the corrected dataset under ``include``.

Tie handling is configurable (optimistic / pessimistic / mean); under the
default mean policy MRR uses the mean rank (half-integers allowed) while
Hits@N counts ties at the boundary as misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .audit import detect_oov
from .core import FilterIndex, SplitDataset, Triple, filter_index_build, split_vocab
from .models import ModelParams, score_all_heads, score_all_relations, score_all_tails

OOV_POLICIES = ("include", "exclude")
TIE_POLICIES = ("mean", "optimistic", "pessimistic")
HITS_LEVELS = (1, 3, 10)


class EvaluationError(ValueError):
    pass


@dataclass(frozen=True)
class RankRecord:
    """Filtered MRR ranks and Hits ranks of one evaluation triple's three slots."""

    triple: Triple
    rank_tail: float
    rank_head: float
    rank_relation: float
    hits_rank_tail: int
    hits_rank_head: int
    hits_rank_relation: int


@dataclass(frozen=True)
class MetricsReport:
    mrr: float
    hits: dict[int, float]
    per_relation_mrr: dict[int, float]
    n_triples: int
    policy: str
    direction: str  # "entity" | "relation"
    tie: str
    reciprocal: bool = False

    def to_json_dict(self, dataset: SplitDataset | None = None) -> dict:
        per_rel = self.per_relation_mrr
        if dataset is not None:
            per_rel = {dataset.vocab.relation_label(rid): v for rid, v in per_rel.items()}
        else:
            per_rel = {str(rid): v for rid, v in per_rel.items()}
        return {
            "mrr": self.mrr,
            "hits": {str(n): v for n, v in sorted(self.hits.items())},
            "per_relation_mrr": dict(sorted(per_rel.items())),
            # Per-relation values are normalized by 2x the relation's own
            # triple count, not the full split size; recorded because the
            # two conventions disagree in print.
            "per_relation_denominator": "per-relation",
            "n_triples": self.n_triples,
            "policy": self.policy,
            "direction": self.direction,
            "tie": self.tie,
            "reciprocal": self.reciprocal,
        }


def _check_tie(tie: str) -> None:
    if tie not in TIE_POLICIES:
        raise ValueError(f"unknown tie policy {tie!r} (expected one of {TIE_POLICIES})")


def _rank_pair(scores: np.ndarray, mask: np.ndarray, target: int,
               tie: str) -> tuple[float, int]:
    """(rank for MRR, integer rank for Hits@N) of target among masked candidates."""
    s_t = scores[target]
    if not np.isfinite(s_t):
        raise EvaluationError(f"target score {s_t} is not finite; refusing to rank it")
    sel = scores[mask]
    greater = int(np.count_nonzero(sel > s_t))
    ties_other = int(np.count_nonzero(sel == s_t)) - 1
    optimistic = 1 + greater
    pessimistic = optimistic + ties_other
    if tie == "optimistic":
        return float(optimistic), optimistic
    if tie == "pessimistic":
        return float(pessimistic), pessimistic
    return (optimistic + pessimistic) / 2.0, pessimistic


def _candidate_mask(n_rows: int, candidates: np.ndarray | None,
                    filtered: Iterable[int], target: int) -> np.ndarray:
    mask = np.zeros(n_rows, dtype=bool)
    if candidates is None:
        mask[:] = True
    else:
        mask[candidates] = True
    if not mask[target]:
        raise EvaluationError(f"target id {target} is not in the candidate set")
    drop = [x for x in filtered if x != target]
    if drop:
        mask[drop] = False
    return mask


def _inverse_relation(params: ModelParams, r: int) -> int:
    base = params.n_relations // 2
    if params.n_relations % 2 or r >= base:
        raise EvaluationError(
            f"cannot derive inverse of relation {r}: checkpoint has "
            f"{params.n_relations} relation rows"
        )
    return base + r


def filtered_rank_pair(params: ModelParams, index: FilterIndex, h: int, r: int, t: int,
                       direction: str = "tail", tie: str = "mean",
                       candidates: np.ndarray | None = None,
                       reciprocal: bool = False) -> tuple[float, int]:
    """Filtered (MRR rank, Hits@N rank) of one slot of a known-true triple.

    Candidates whose substituted triple occurs anywhere in the index are
    removed (the query triple itself survives). ``candidates`` optionally
    restricts the candidate ids (used by the exclude policy and by
    reciprocal checkpoints whose parameter tables exceed the vocabulary).
    """
    _check_tie(tie)
    if not index.contains(Triple(h, r, t)):
        raise EvaluationError(
            f"triple ({h}, {r}, {t}) is not in the filter index; refusing to rank "
            f"against unfiltered data"
        )
    if direction == "tail":
        scores = score_all_tails(params, h, r)
        filtered: Iterable[int] = index.tails(h, r)
        target = t
    elif direction == "head":
        if reciprocal:
            scores = score_all_tails(params, t, _inverse_relation(params, r))
        else:
            scores = score_all_heads(params, r, t)
        filtered = index.heads(r, t)
        target = h
    elif direction == "relation":
        scores = score_all_relations(params, h, t)
        filtered = index.relations(h, t)
        target = r
    else:
        raise ValueError(f"unknown direction {direction!r}")
    mask = _candidate_mask(len(scores), candidates, filtered, target)
    return _rank_pair(scores, mask, target, tie)


@dataclass(frozen=True)
class _EvalSetup:
    index: FilterIndex
    triples: tuple[Triple, ...]
    entity_candidates: np.ndarray
    relation_candidates: np.ndarray


def _setup(params: ModelParams, dataset: SplitDataset, split: str, policy: str,
           reciprocal: bool) -> _EvalSetup:
    if policy not in OOV_POLICIES:
        raise ValueError(f"unknown OOV policy {policy!r} (expected one of {OOV_POLICIES})")
    vocab = dataset.vocab
    if params.n_entities < vocab.n_entities:
        raise EvaluationError("params do not cover the dataset's entity vocabulary")
    needed_rel = 2 * vocab.n_relations if reciprocal else vocab.n_relations
    if params.n_relations < needed_rel:
        raise EvaluationError("params do not cover the dataset's relation vocabulary")
    if not (np.isfinite(params.entities).all() and np.isfinite(params.relations).all()):
        raise EvaluationError("parameter tables contain non-finite values")

    index = filter_index_build(dataset)
    triples = dataset.split(split)
    if policy == "exclude":
        if split in ("valid", "test"):
            affected = {a.triple for a in detect_oov(dataset).split(split).affected}
            triples = tuple(tr for tr in triples if tr not in affected)
        train_ents, train_rels = split_vocab(dataset.train)
        ent_candidates = np.array(sorted(train_ents), dtype=np.int64)
        rel_candidates = np.array(sorted(train_rels), dtype=np.int64)
    else:
        ent_candidates = np.arange(vocab.n_entities, dtype=np.int64)
        rel_candidates = np.arange(vocab.n_relations, dtype=np.int64)
    if not triples:
        raise EvaluationError(f"no {split} triples left to evaluate under policy {policy!r}")
    # Masks are sized to the parameter tables, so candidate arrays are
    # explicit even under include (reciprocal checkpoints have extra rows).
    return _EvalSetup(index, triples, ent_candidates, rel_candidates)


def _rank_split(params: ModelParams, setup: _EvalSetup, directions: tuple[str, ...],
                tie: str, reciprocal: bool) -> tuple[np.ndarray, np.ndarray]:
    """MRR ranks and Hits ranks of every split triple, one column per direction."""
    shape = (len(setup.triples), len(directions))
    ranks = np.empty(shape)
    hits_ranks = np.empty(shape, dtype=np.int64)
    for i, tr in enumerate(setup.triples):
        for j, direction in enumerate(directions):
            candidates = (setup.relation_candidates if direction == "relation"
                          else setup.entity_candidates)
            ranks[i, j], hits_ranks[i, j] = filtered_rank_pair(
                params, setup.index, *tr, direction, tie, candidates, reciprocal)
    return ranks, hits_ranks


def _report(setup: _EvalSetup, ranks: np.ndarray, hits_ranks: np.ndarray, policy: str,
            direction: str, tie: str, reciprocal: bool) -> MetricsReport:
    """MRR, Hits@N and per-relation MRR; every slot of every triple weighs the same."""
    n, slots = ranks.shape
    rr = (1.0 / ranks).sum(axis=1)
    rels = np.fromiter((tr.r for tr in setup.triples), dtype=np.int64, count=n)
    rel_rr = np.bincount(rels, weights=rr)
    rel_n = np.bincount(rels)
    return MetricsReport(
        mrr=float(rr.sum()) / (slots * n),
        hits={lvl: int(np.count_nonzero(hits_ranks <= lvl)) / (slots * n)
              for lvl in HITS_LEVELS},
        per_relation_mrr={rid: float(rel_rr[rid]) / (slots * int(rel_n[rid]))
                          for rid in np.flatnonzero(rel_n).tolist()},
        n_triples=n,
        policy=policy,
        direction=direction,
        tie=tie,
        reciprocal=reciprocal,
    )


def evaluate(params: ModelParams, dataset: SplitDataset, split: str = "test",
             policy: str = "include", tie: str = "mean",
             reciprocal: bool = False) -> MetricsReport:
    """Entity-direction link prediction metrics over one split.

    MRR averages reciprocal tail and head ranks with denominator 2|split|;
    Hits@N analogously. Under ``exclude`` the denominator shrinks to the
    OOV-free subset.
    """
    setup = _setup(params, dataset, split, policy, reciprocal)
    ranks, hits_ranks = _rank_split(params, setup, ("tail", "head"), tie, reciprocal)
    return _report(setup, ranks, hits_ranks, policy, "entity", tie, reciprocal)


def evaluate_relation_prediction(params: ModelParams, dataset: SplitDataset,
                                 split: str = "test", policy: str = "include",
                                 tie: str = "mean") -> MetricsReport:
    """Relation-direction metrics: rank the missing relation of (h, ?, t).

    Single-slot ranking, so MRR/Hits@N use denominator |split| (no factor 2).
    Reciprocal-augmented checkpoints rank base relations only.
    """
    setup = _setup(params, dataset, split, policy, reciprocal=False)
    ranks, hits_ranks = _rank_split(params, setup, ("relation",), tie, False)
    return _report(setup, ranks, hits_ranks, policy, "relation", tie, False)


def rank_records(params: ModelParams, dataset: SplitDataset, split: str = "test",
                 policy: str = "include", tie: str = "mean",
                 reciprocal: bool = False) -> list[RankRecord]:
    """Per-triple rank records (entity direction plus the relation slot)."""
    setup = _setup(params, dataset, split, policy, reciprocal)
    ranks, hits_ranks = _rank_split(params, setup, ("tail", "head", "relation"), tie,
                                    reciprocal)
    return [RankRecord(tr, *rank, *hits)
            for tr, rank, hits in zip(setup.triples, ranks.tolist(), hits_ranks.tolist())]
