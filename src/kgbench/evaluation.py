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

Ranking works one direction of a split at a time, the same way for every
model kind. One vectorised lookup of the ``FilterIndex`` key arrays gives
every query's known-true candidates, and the refusals (a triple not in the
index, a target that is not a candidate) run once, on the whole split. Then
the split is ranked a block of queries at a time: one ``screen`` call
approximates, with one matrix product, every candidate score of the block
less its query's target score, and gives the block one bound ``B``, wide
enough to cover every rounding (the proof is in ``models``). The block's
known-true candidates and the columns that are not candidates, except each
query's own target, are set to ``-inf``. A row counts the values above
``B`` as scores above the target; the band ``[-B, B]`` (``NaN`` values
included) is re-scored with ``pair_scores``, each kind's exact formula, in
the rows where it holds more than the target. So ranks are those of the
exact scores. ``BLOCK_FLOATS`` bounds a block's size, and a block's scores
live only while it is ranked. ``filtered_rank_pair`` ranks a split of one
query.

What ranking derives from the dataset alone is built once per dataset, on
the first call that needs it, and reused by every later ``evaluate``,
``evaluate_relation_prediction`` and ``rank_records`` call on it: the
``FilterIndex`` and, on the first ``exclude`` call, each evaluation split's
rows that ``detect_oov`` leaves and the train split's entity and relation
ids. A ``SplitDataset`` is frozen, its arrays are read-only and it compares
by identity, so the dataset object fixes what it holds. The set-up is kept in a dictionary keyed weakly by the
dataset: it lives as long as the dataset and is freed with it. Most of it
is the index's three int64 key arrays, 24 bytes per triple (about 26 MB
for YAGO3-10's 1.09M triples).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .audit import EVAL_SPLITS, detect_oov
from .core import FilterIndex, SplitDataset, Triple, filter_index_build, split_vocab
from .models import ModelParams, ScreenTable, id_arrays, pair_scores, screen, screen_table
# Not called here: perfbench's tracer times these names in this module.
from .models import score_all_heads, score_all_relations, score_all_tails  # noqa: F401

OOV_POLICIES = ("include", "exclude")
TIE_POLICIES = ("mean", "optimistic", "pessimistic")
HITS_LEVELS = (1, 3, 10)

#: Scores and query values that one ranked block holds, counted in float64s;
#: it bounds the memory ranking takes whatever the split's size (1 MiB of
#: scores at 2**17). Smaller blocks read the candidate table more often.
BLOCK_FLOATS = 2 ** 17


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


def _check_finite(target_scores: np.ndarray) -> None:
    if not np.isfinite(target_scores).all():
        bad = target_scores[~np.isfinite(target_scores)][0]
        raise EvaluationError(f"target score {bad} is not finite; refusing to rank it")


def _tie_ranks(optimistic: np.ndarray, level: np.ndarray,
               tie: str) -> tuple[np.ndarray, np.ndarray]:
    """(rank for MRR, integer rank for Hits@N) from 1 + the count of candidates above
    the target and the count level with it, the target included."""
    pessimistic = optimistic + level - 1
    if tie == "optimistic":
        return optimistic.astype(np.float64), optimistic
    if tie == "pessimistic":
        return pessimistic.astype(np.float64), pessimistic
    return (optimistic + pessimistic) / 2.0, pessimistic


def _ranks(params: ModelParams, slot: str, plane: np.ndarray, queries: np.ndarray,
           bound: float, targets: np.ndarray, tie: str) -> tuple[np.ndarray, np.ndarray]:
    """(rank for MRR, integer rank for Hits@N) of each row's target column.

    ``plane``, ``queries`` and ``bound`` are ``screen``'s. Filtered and
    non-candidate columns hold ``-inf``, below ``-bound``. Plane values
    above ``bound`` count as above the target, and the band between
    ``-bound`` and ``bound`` (``NaN`` included), which holds the target's
    own value, is re-scored exactly in the rows where it holds more than the
    target or where the target's plane value is not finite. Elsewhere the
    screen bounds the exact target score, so it is finite.
    """
    # an int32 sum of the bytes counts a boolean row faster than count_nonzero
    above = (plane > bound).view(np.uint8).sum(axis=1, dtype=np.int32)
    band = plane.shape[1] - above - (plane < -bound).view(np.uint8).sum(axis=1, dtype=np.int32)
    level = np.ones_like(above)  # the target, alone in its band
    rows = np.flatnonzero((band > 1) | ~np.isfinite(plane[np.arange(len(targets)), targets]))
    if rows.size:
        i, x = np.nonzero(~(np.abs(plane[rows]) > bound))
        row_queries = queries[rows]
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite target is refused
            target = pair_scores(params, slot, row_queries, targets[rows])
            _check_finite(target)
            scores, target = pair_scores(params, slot, row_queries[i], x), target[i]
        above[rows] += np.bincount(i[scores > target], minlength=rows.size)
        level[rows] = np.bincount(i[scores == target], minlength=rows.size)
    return _tie_ranks(1 + above, level, tie)


def _inverse_relations(params: ModelParams, r: np.ndarray) -> np.ndarray:
    base, odd = divmod(params.n_relations, 2)
    bad = r[(r >= base) | bool(odd)]
    if bad.size:
        raise EvaluationError(
            f"cannot derive inverse of relation {bad[0]}: checkpoint has "
            f"{params.n_relations} relation rows"
        )
    return base + r


def _rank_block(params: ModelParams, table: ScreenTable, slot: str, a: np.ndarray,
                b: np.ndarray, targets: np.ndarray, query: np.ndarray, known: np.ndarray,
                dropped: np.ndarray, tie: str) -> tuple[np.ndarray, np.ndarray]:
    """Filtered (MRR ranks, Hits ranks) of one block of queries.

    One ``screen`` call screens the block against ``table``. The block's
    filtered cells ``(query[i], known[i])`` and its ``dropped`` columns are
    set to ``-inf`` before the ranks are counted. The score plane lives only
    in this call, so a split holds one block's plane at a time.
    """
    plane, queries, bound = screen(params, table, slot, a, b, targets)
    plane[query, known] = -np.inf
    if dropped.size:
        plane[:, dropped] = -np.inf
    return _ranks(params, slot, plane, queries, bound, targets, tie)


def _rank_direction(params: ModelParams, table: ScreenTable, index: FilterIndex,
                    triples: np.ndarray, direction: str, tie: str,
                    candidates: np.ndarray | None,
                    reciprocal: bool) -> tuple[np.ndarray, np.ndarray]:
    """Filtered (MRR ranks, Hits ranks) of one slot of each row of ``triples``.

    Once for all rows: one ``FilterIndex.runs`` lookup of every row's
    known-true candidates, the refusals of a row that is not in the index or
    whose target is not a candidate (the first such row, in row order), and
    the columns outside ``candidates`` (``None``: every column is one). Then
    each block of as many rows as keep its scores and queries within
    ``BLOCK_FLOATS`` float64s is ranked by ``_rank_block``, with the filtered
    candidates other than its rows' targets.
    """
    h, r, t = triples.T
    if direction == "tail":
        slot, a, b = "t", h, r
        keys, fixed, targets = index.triples, (h, r), t
    elif direction == "head":
        slot, a, b = ("t", t, _inverse_relations(params, r)) if reciprocal else ("h", r, t)
        keys, fixed, targets = index.by_rt, (r, t), h
    elif direction == "relation":
        slot, a, b = "r", h, t
        keys, fixed, targets = index.by_ht, (h, t), r
    else:
        raise ValueError(f"unknown direction {direction!r}")
    query, known = index.runs(keys, *fixed)
    is_target = known == targets[query]
    found = np.zeros(len(triples), dtype=bool)
    found[query[is_target]] = True
    if not found.all():
        raise EvaluationError(
            f"triple {tuple(triples[found.argmin()].tolist())} is not in the filter index; "
            f"refusing to rank against unfiltered data"
        )
    rows = params.relations if direction == "relation" else params.entities
    candidate = np.zeros(len(rows), dtype=bool)
    candidate[slice(None) if candidates is None else candidates] = True
    if not candidate[targets].all():
        outside = targets[~candidate[targets]][0]
        raise EvaluationError(f"target id {outside} is not in the candidate set")
    dropped = (~candidate).nonzero()[0]
    filtered = ~is_target
    query, known = query[filtered], known[filtered]
    step = max(1, BLOCK_FLOATS // (len(rows) + rows[0].size))
    starts = range(0, len(triples), step)
    # runs groups the pairs by row, so one search splits them by block
    ends = query.searchsorted(starts[1:]).tolist() if len(starts) > 1 else []
    ranks = np.empty(len(triples))
    hits_ranks = np.empty(len(triples), dtype=np.int64)
    for start, i, j in zip(starts, [0, *ends], [*ends, len(query)]):
        block = slice(start, start + step)
        ranks[block], hits_ranks[block] = _rank_block(
            params, table, slot, a[block], b[block], targets[block], query[i:j] - start,
            known[i:j], dropped, tie)
    return ranks, hits_ranks


def filtered_rank_pair(params: ModelParams, index: FilterIndex, h: int, r: int, t: int,
                       direction: str = "tail", tie: str = "mean",
                       candidates: np.ndarray | None = None,
                       reciprocal: bool = False) -> tuple[float, int]:
    """Filtered (MRR rank, Hits@N rank) of one slot of a known-true triple.

    Candidates whose substituted triple occurs anywhere in the index are
    removed (the query triple itself survives). ``candidates`` optionally
    restricts the candidate ids (used by the exclude policy and by
    reciprocal checkpoints whose parameter tables exceed the vocabulary).
    This is the ranker of ``evaluate`` applied to a split of one query. Ids
    outside the parameter tables raise ``IndexError``.
    """
    _check_tie(tie)
    triple = np.array([[h, r, t]], dtype=np.int64)
    id_arrays(params, h=triple[:, 0], r=triple[:, 1], t=triple[:, 2])
    table = screen_table(params, "r" if direction == "relation" else "t")
    rank, hits_rank = _rank_direction(params, table, index, triple, direction, tie,
                                      candidates, reciprocal)
    return float(rank[0]), int(hits_rank[0])


@dataclass
class _Setup:
    """A dataset's ranking set-up: its filter index and, once an ``exclude``
    call has needed them, the evaluation splits' rows kept under ``exclude``
    and the train split's entity and relation ids."""

    index: FilterIndex
    kept: dict[str, np.ndarray] | None = None
    train_ids: tuple[np.ndarray, np.ndarray] | None = None


#: Each dataset's ``_Setup``; an entry goes when its dataset does.
_SETUPS: weakref.WeakKeyDictionary[SplitDataset, _Setup] = weakref.WeakKeyDictionary()


def _setup(dataset: SplitDataset, policy: str) -> _Setup:
    """The dataset's set-up, with the parts ``policy`` needs built.

    ``filter_index_build`` and ``detect_oov`` are called by their names in
    this module, where perfbench's tracer wraps them, so it counts each build.
    """
    setup = _SETUPS.get(dataset)
    if setup is None:
        setup = _SETUPS[dataset] = _Setup(filter_index_build(dataset))
    if policy == "exclude" and setup.kept is None:
        oov = detect_oov(dataset)
        kept = {split: np.delete(dataset.split(split),
                                 [line_no - 1 for line_no in oov.removed_line_numbers(split)],
                                 axis=0) for split in EVAL_SPLITS}
        train_ids = split_vocab(dataset.train)
        for array in (*kept.values(), *train_ids):
            array.flags.writeable = False
        setup.kept, setup.train_ids = kept, train_ids
    return setup


def _rank_split(params: ModelParams, dataset: SplitDataset, split: str, policy: str,
                directions: tuple[str, ...], tie: str,
                reciprocal: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The split's triples under ``policy``, and their MRR ranks and Hits ranks,
    one column per direction."""
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

    triples = dataset.split(split)
    setup = _setup(dataset, policy)
    if policy == "exclude":
        triples = setup.kept.get(split, triples)
        ent_candidates, rel_candidates = setup.train_ids
    else:
        # Masks are sized to the parameter tables, so candidate arrays are
        # explicit even under include (reciprocal checkpoints have extra rows).
        ent_candidates = np.arange(vocab.n_entities, dtype=np.int64)
        rel_candidates = np.arange(vocab.n_relations, dtype=np.int64)
    if not len(triples):
        raise EvaluationError(f"no {split} triples left to evaluate under policy {policy!r}")
    _check_tie(tie)
    ranks = np.empty((len(triples), len(directions)))
    hits_ranks = np.empty(ranks.shape, dtype=np.int64)
    tables = {}  # by the slot whose table it is: heads and tails share the entities'
    for j, direction in enumerate(directions):
        if direction == "relation":
            slot, candidates = "r", rel_candidates
        else:
            slot, candidates = "t", ent_candidates
        if slot not in tables:
            tables[slot] = screen_table(params, slot)
        ranks[:, j], hits_ranks[:, j] = _rank_direction(
            params, tables[slot], setup.index, triples, direction, tie, candidates, reciprocal)
    return triples, ranks, hits_ranks


def _report(triples: np.ndarray, ranks: np.ndarray, hits_ranks: np.ndarray, policy: str,
            direction: str, tie: str, reciprocal: bool) -> MetricsReport:
    """MRR, Hits@N and per-relation MRR; every slot of every triple weighs the same."""
    n, slots = ranks.shape
    rr = (1.0 / ranks).sum(axis=1)
    rels = triples[:, 1]
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
    triples, ranks, hits_ranks = _rank_split(params, dataset, split, policy, ("tail", "head"),
                                             tie, reciprocal)
    return _report(triples, ranks, hits_ranks, policy, "entity", tie, reciprocal)


def evaluate_relation_prediction(params: ModelParams, dataset: SplitDataset,
                                 split: str = "test", policy: str = "include",
                                 tie: str = "mean") -> MetricsReport:
    """Relation-direction metrics: rank the missing relation of (h, ?, t).

    Single-slot ranking, so MRR/Hits@N use denominator |split| (no factor 2).
    Reciprocal-augmented checkpoints rank base relations only.
    """
    triples, ranks, hits_ranks = _rank_split(params, dataset, split, policy, ("relation",),
                                             tie, False)
    return _report(triples, ranks, hits_ranks, policy, "relation", tie, False)


def rank_records(params: ModelParams, dataset: SplitDataset, split: str = "test",
                 policy: str = "include", tie: str = "mean",
                 reciprocal: bool = False) -> list[RankRecord]:
    """Per-triple rank records (entity direction plus the relation slot)."""
    triples, ranks, hits_ranks = _rank_split(params, dataset, split, policy,
                                             ("tail", "head", "relation"), tie, reciprocal)
    return [RankRecord(Triple._make(tr), *rank, *hits) for tr, rank, hits
            in zip(triples.tolist(), ranks.tolist(), hits_ranks.tolist())]
