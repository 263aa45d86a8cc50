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
model kind and both OOV policies. One vectorised lookup of the
``FilterIndex`` key arrays gives every query's known-true candidates, and
the refusals (a triple not in the index, a target that is not a candidate)
run on the whole split, once per dataset (see below). Then the split is
ranked a block of queries at a time: one ``screen`` call approximates, with
one matrix product, every candidate score of the block less its query's
target score, and gives the block one bound ``B``, wide enough to cover
every rounding (the proof is in ``models``). The block's known-true
candidates and the columns that are not candidates, except each query's
own target, are set to ``-inf``. A row counts the values above ``B`` as
scores above the target; the band ``[-B, B]`` (``NaN`` values included) is
re-scored with ``pair_scores``, each kind's exact formula, in the rows where
it holds more than the target. So the counts are those of the exact scores.
``BLOCK_FLOATS`` bounds a block's size, counting each query's scores, its
query and, in an entity direction, the relation row it gathers (``d*d``
floats for RESCAL); a block's scores live only while it is ranked.
``filtered_rank_pair`` ranks a split of one query. A model whose
``ModelParams.reciprocal`` is set ranks each head as the tail of the
inverse relation.

One pass serves both policies. Every vocabulary id is a candidate of the
pass, and the OOV columns, the ids that train lacks, are also counted
apart from the same plane: their cells above ``B``, and their band cells
that the exact recount scores. A row gets the counts of candidates above
its target and level with it (the target included), and of OOV columns
above and level with it. ``include`` ranks by the first two. A row that
``exclude`` keeps has no OOV target, and its ``exclude`` rank is the rank
among the train-split candidates, exactly::

    _tie_ranks(1 + above - above_oov, level - level_oov, tie)

An ``exclude`` call that is not served ranks only the rows it keeps, so it
never scores the target of an OOV row. An ``include`` call keeps its counts
over every row of the split, and a copy of the parameter tables with the
kind, dim and reciprocity. The next ``exclude`` call on that split, for
directions those counts cover, whose parameters are bitwise the copy
(``-0.0`` is not ``0.0``), takes its kept rows' counts from them and ranks
nothing; serving it frees the counts and the copy, and skips the parameter
checks, which the ``include`` call made on those very bits. Every other
call ranks: an ``include`` call is never served, and it replaces what an
earlier one kept. On a dataset whose train split holds every vocabulary id,
such as a corrected copy, ``exclude`` keeps every row and candidate and
ranks as ``include`` does, so nothing is kept there. The copy, one set of
parameter tables per dataset, is taken after the blocks' planes and tables
are freed, so it does not raise ranking's peak; it costs a copy per
``include`` call and a compare per ``exclude`` call, each about 10 us for a
``(2000, 16)`` table. A lone ``kgbench eval`` process makes one call, so it
gains nothing and pays the copy.

What ranking derives from the dataset alone is built once per dataset, on
the first call that needs it, and reused by every later ``evaluate``,
``evaluate_relation_prediction`` and ``rank_records`` call on it, whatever
the model:

* the ``FilterIndex``, and the entity and relation ids that train lacks;
* on the first ``exclude`` call, the positions of each evaluation split's
  rows that ``detect_oov`` leaves;
* each ranked direction's filter lookup over every row of a split,
  read-only and after its refusals: the known-true candidates of every
  query but its own target, and the candidate table's ids that are not
  candidates. It is keyed by split, direction and the candidate table's
  row count, since a reciprocal checkpoint has twice the relation rows and
  a checkpoint may have entity rows beyond the vocabulary, which are never
  candidates. Both policies use it: an ``exclude`` call takes the part
  that belongs to its kept rows.

So the first model ranked on a dataset pays for the lookups, and every
later one only ranks its blocks. A ``SplitDataset`` is frozen, its arrays
are read-only and it compares by identity, so the dataset object fixes what
it holds. The set-up is kept in a dictionary keyed weakly by the dataset:
it lives as long as the dataset and is freed with it. The index takes 24
bytes per triple (about 26 MB for YAGO3-10's 1.09M triples); a lookup 16
bytes per filtered pair plus 8 per id that is not a candidate; the kept
``include`` pass 16 bytes per row and direction besides its copy of the
parameters. At the ``perfbench/gen.py`` full shapes (seed 3), the test
split's three lookups take 24 KB at ``fb15k-237`` and 0.1 KB at
``wn18rr``, against 470 and 511 KB for the index; the pass that a
``rank_records`` call keeps takes 19 and 2 KB, and its copy of a d = 16
DistMult's tables 1.9 and 5.2 MB.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .audit import EVAL_SPLITS, detect_oov
from .core import FilterIndex, SplitDataset, Triple, filter_index_build
from .models import ModelParams, ScreenTable, id_arrays, pair_scores, screen, screen_table
# Not called here: perfbench's tracer times these names in this module.
from .models import score_all_heads, score_all_relations, score_all_tails  # noqa: F401

OOV_POLICIES = ("include", "exclude")
TIE_POLICIES = ("mean", "optimistic", "pessimistic")
HITS_LEVELS = (1, 3, 10)

#: Scores, query values and gathered relation values that one ranked block
#: holds, counted in float64s;
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


def _check_params_finite(params: ModelParams) -> None:
    if not (np.isfinite(params.entities).all() and np.isfinite(params.relations).all()):
        raise EvaluationError("parameter tables contain non-finite values")


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


def _policy_ranks(counts: np.ndarray, policy: str, tie: str) -> tuple[np.ndarray, np.ndarray]:
    """(rank for MRR, integer rank for Hits@N) of ``_counts`` rows under ``policy``.

    Under ``exclude`` the OOV columns are no candidates, so their counts
    come off; the rows must be ones ``exclude`` keeps, whose targets are
    not OOV.
    """
    above, level, above_oov, level_oov = counts
    if policy == "exclude":
        above, level = above - above_oov, level - level_oov
    return _tie_ranks(1 + above, level, tie)


def _counts(params: ModelParams, slot: str, plane: np.ndarray, queries: np.ndarray,
            bound: float, targets: np.ndarray, oov: np.ndarray, out: np.ndarray) -> None:
    """Write to the four rows of ``out`` ``above``, ``level``, ``above_oov``
    and ``level_oov``: each row's candidates above its target column and
    level with it, the target included, and of those the ones in the columns
    ``oov``. ``exclude`` reads the last two only in rows whose target is not
    such a column.

    ``plane``, ``queries`` and ``bound`` are ``screen``'s. Filtered and
    non-candidate columns hold ``-inf``, below ``-bound``. Plane values
    above ``bound`` count as above the target, and the band between
    ``-bound`` and ``bound`` (``NaN`` included), which holds the target's
    own value, is re-scored exactly in the rows where it holds more than the
    target or where the target's plane value is not finite. Elsewhere the
    screen bounds the exact target score, so it is finite.
    """
    above, level, above_oov, level_oov = out
    # an int32 sum of the bytes counts a boolean row faster than count_nonzero
    (plane > bound).view(np.uint8).sum(axis=1, dtype=np.int32, out=above)
    band = plane.shape[1] - above - (plane < -bound).view(np.uint8).sum(axis=1, dtype=np.int32)
    level[:], level_oov[:] = 1, 0  # the target, alone in its band
    if oov.size:
        (plane[:, oov] > bound).view(np.uint8).sum(axis=1, dtype=np.int32, out=above_oov)
    else:
        above_oov[:] = 0
    rows = np.flatnonzero((band > 1) | ~np.isfinite(plane[np.arange(len(targets)), targets]))
    if rows.size:
        i, x = np.nonzero(~(np.abs(plane[rows]) > bound))
        row_queries = queries[rows]
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite target is refused
            target = pair_scores(params, slot, row_queries, targets[rows])
            _check_finite(target)
            scores, target = pair_scores(params, slot, row_queries[i], x), target[i]
        higher, equal = scores > target, scores == target
        above[rows] += np.bincount(i[higher], minlength=rows.size)
        level[rows] = np.bincount(i[equal], minlength=rows.size)
        if oov.size:
            is_oov = np.zeros(plane.shape[1], dtype=bool)
            is_oov[oov] = True
            in_oov = is_oov[x]
            above_oov[rows] += np.bincount(i[higher & in_oov], minlength=rows.size)
            level_oov[rows] = np.bincount(i[equal & in_oov], minlength=rows.size)


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
                dropped: np.ndarray, oov: np.ndarray, out: np.ndarray) -> None:
    """Write the ``_counts`` of one block of queries to ``out``.

    One ``screen`` call screens the block against ``table``. The block's
    filtered cells ``(query[i], known[i])`` and its ``dropped`` columns are
    set to ``-inf`` before the candidates are counted. The score plane lives
    only in this call, so a split holds one block's plane at a time.
    """
    plane, queries, bound = screen(params, table, slot, a, b, targets)
    plane[query, known] = -np.inf
    if dropped.size:
        plane[:, dropped] = -np.inf
    _counts(params, slot, plane, queries, bound, targets, oov, out)


def _filter_lookup(index: FilterIndex, triples: np.ndarray, direction: str, n_rows: int,
                   candidates: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The filter lookup of one slot of each row of ``triples``: ``(query, known, dropped)``.

    One ``FilterIndex.runs`` lookup gives every row's known-true candidates,
    then come the refusals of a row that is not in the index or whose target
    is not a candidate (the first such row, in row order). ``query[i]`` is a
    row and ``known[i]`` one of its known-true candidates other than its
    target, grouped by row in ascending order; ``dropped`` holds the ids of
    the ``n_rows`` candidate table rows outside ``candidates`` (``None``:
    every row is one). The arrays are read-only. It reads only the dataset,
    so ``_rank_split`` keeps it in the dataset's set-up.
    """
    h, r, t = triples.T
    if direction == "tail":
        keys, fixed, targets = index.triples, (h, r), t
    elif direction == "head":
        keys, fixed, targets = index.by_rt, (r, t), h
    elif direction == "relation":
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
    candidate = np.zeros(n_rows, dtype=bool)
    candidate[slice(None) if candidates is None else candidates] = True
    if not candidate[targets].all():
        outside = targets[~candidate[targets]][0]
        raise EvaluationError(f"target id {outside} is not in the candidate set")
    filtered = ~is_target
    lookup = query[filtered], known[filtered], (~candidate).nonzero()[0]
    for array in lookup:
        array.flags.writeable = False
    return lookup


def _kept_lookup(lookup: tuple[np.ndarray, np.ndarray, np.ndarray], kept: np.ndarray,
                 n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The part of a lookup of ``n`` rows that belongs to the rows ``kept``, renumbered."""
    query, known, dropped = lookup
    position = np.full(n, -1)
    position[kept] = np.arange(len(kept))
    query = position[query]
    inside = query >= 0
    return query[inside], known[inside], dropped


def _rank_direction(params: ModelParams, table: ScreenTable, triples: np.ndarray,
                    direction: str, lookup: tuple[np.ndarray, np.ndarray, np.ndarray],
                    oov: np.ndarray) -> np.ndarray:
    """The ``_counts`` of one slot of each row of ``triples``, one column per row.

    ``lookup`` is the direction's ``_filter_lookup`` and ``oov`` the ids of
    the table rows counted apart. Each block of as many rows as keep its
    scores, queries and gathered relation rows within ``BLOCK_FLOATS``
    float64s is counted by ``_rank_block``, with the filtered candidates of
    its rows.
    """
    h, r, t = triples.T
    if direction == "tail":
        slot, a, b, targets = "t", h, r, t
    elif direction == "head":
        slot, a, b = ("t", t, _inverse_relations(params, r)) if params.reciprocal else ("h", r, t)
        targets = h
    else:
        slot, a, b, targets = "r", h, t, r
    query, known, dropped = lookup
    rows = params.relations if direction == "relation" else params.entities
    gathered = 0 if direction == "relation" else params.relations[0].size
    step = max(1, BLOCK_FLOATS // (len(rows) + rows[0].size + gathered))
    starts = range(0, len(triples), step)
    # the lookup groups the pairs by row, so one search splits them by block
    ends = query.searchsorted(starts[1:]).tolist() if len(starts) > 1 else []
    counts = np.empty((4, len(triples)), dtype=np.int32)
    for start, i, j in zip(starts, [0, *ends], [*ends, len(query)]):
        block = slice(start, start + step)
        _rank_block(params, table, slot, a[block], b[block], targets[block],
                    query[i:j] - start, known[i:j], dropped, oov, counts[:, block])
    return counts


def filtered_rank_pair(params: ModelParams, index: FilterIndex, h: int, r: int, t: int,
                       direction: str = "tail", tie: str = "mean",
                       candidates: np.ndarray | None = None) -> tuple[float, int]:
    """Filtered (MRR rank, Hits@N rank) of one slot of a known-true triple.

    Candidates whose substituted triple occurs anywhere in the index are
    removed (the query triple itself survives). ``candidates`` optionally
    restricts the candidate ids (used by the exclude policy and by
    reciprocal checkpoints whose parameter tables exceed the vocabulary).
    This is the ranker of ``evaluate`` applied to a split of one query. Ids
    outside the parameter tables raise ``IndexError``; non-finite parameters
    are refused, as by ``evaluate``.
    """
    _check_tie(tie)
    triple = np.array([[h, r, t]], dtype=np.int64)
    id_arrays(params, h=triple[:, 0], r=triple[:, 1], t=triple[:, 2])
    _check_params_finite(params)
    table = screen_table(params, "r" if direction == "relation" else "t")
    lookup = _filter_lookup(index, triple, direction, len(table.rows), candidates)
    counts = _rank_direction(params, table, triple, direction, lookup,
                             np.empty(0, dtype=np.int64))
    rank, hits_rank = _policy_ranks(counts, "include", tie)
    return float(rank[0]), int(hits_rank[0])


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays hold the same values bit for bit: ``-0.0`` is not
    ``0.0``, and a ``NaN`` is itself."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    bits = np.dtype(f"u{a.itemsize}")
    return np.array_equal(a.view(bits), b.view(bits))


@dataclass(frozen=True, eq=False)
class _IncludePass:
    """The counts of a dataset's last ``include`` call, by direction, over
    every row of ``split``, and a copy of the parameters it ranked."""

    split: str
    counts: dict[str, np.ndarray]
    params: ModelParams

    def serves(self, params: ModelParams, split: str, directions: tuple[str, ...]) -> bool:
        """Whether these counts are those of ``params``: the same kind, dim and
        reciprocity, and the same parameter bits."""
        own = self.params
        return (split == self.split and all(d in self.counts for d in directions)
                and (own.kind, own.dim, own.reciprocal)
                == (params.kind, params.dim, params.reciprocal)
                and _same_bits(own.entities, params.entities)
                and _same_bits(own.relations, params.relations))


@dataclass
class _Setup:
    """A dataset's ranking set-up: its filter index; the ids of the
    vocabulary that train lacks, entities and relations; once an
    ``exclude`` call has needed them, the positions of the evaluation
    splits' rows kept under ``exclude``; each ranked direction's
    ``_filter_lookup`` over every row of a split, keyed by ``(split,
    direction, candidate table rows)``; and, if train lacks some ids, the
    last ``include`` pass, until an ``exclude`` call takes it."""

    index: FilterIndex
    oov: tuple[np.ndarray, np.ndarray]
    kept: dict[str, np.ndarray] | None = None
    lookups: dict[tuple[str, str, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = (
        field(default_factory=dict))
    last: _IncludePass | None = None


#: Each dataset's ``_Setup``; an entry goes when its dataset does.
_SETUPS: weakref.WeakKeyDictionary[SplitDataset, _Setup] = weakref.WeakKeyDictionary()


def _setup(dataset: SplitDataset, policy: str) -> _Setup:
    """The dataset's set-up, with the parts ``policy`` needs built.

    ``filter_index_build`` and ``detect_oov`` are called by their names in
    this module, where perfbench's tracer wraps them, so it counts each build.
    """
    setup = _SETUPS.get(dataset)
    if setup is None:
        vocab, (h, r, t) = dataset.vocab, dataset.train.T
        entities, relations = np.ones(vocab.n_entities, bool), np.ones(vocab.n_relations, bool)
        entities[h] = entities[t] = relations[r] = False  # left: the ids train lacks
        oov = np.flatnonzero(entities), np.flatnonzero(relations)
        for array in oov:
            array.flags.writeable = False
        setup = _SETUPS[dataset] = _Setup(filter_index_build(dataset), oov)
    if policy == "exclude" and setup.kept is None:
        report = detect_oov(dataset)
        kept = {split: np.delete(np.arange(len(dataset.split(split))),
                                 [line_no - 1 for line_no in report.removed_line_numbers(split)])
                for split in EVAL_SPLITS}
        for array in kept.values():
            array.flags.writeable = False
        setup.kept = kept
    return setup


def _count_split(params: ModelParams, setup: _Setup, dataset: SplitDataset, split: str,
                 kept: np.ndarray | None, directions: tuple[str, ...]) -> np.ndarray:
    """The ``_counts`` of the split's rows ``kept`` (``None``: every row), one
    ``(4, rows)`` array per direction; every vocabulary id is a candidate,
    and the ids train lacks are counted apart."""
    triples = dataset.split(split)
    ranked = triples if kept is None else triples[kept]
    counts = np.empty((len(directions), 4, len(ranked)), dtype=np.int32)
    tables = {}  # by the slot whose table it is: heads and tails share the entities'
    for j, direction in enumerate(directions):
        if direction == "relation":
            slot, n_candidates, oov = "r", dataset.vocab.n_relations, setup.oov[1]
        else:
            slot, n_candidates, oov = "t", dataset.vocab.n_entities, setup.oov[0]
        if slot not in tables:
            tables[slot] = screen_table(params, slot)
        # the table's row count is the model's: reciprocal checkpoints have
        # more relation rows, and a checkpoint may have more entity rows,
        # which are never candidates
        key = (split, direction, len(tables[slot].rows))
        lookup = setup.lookups.get(key)
        if lookup is None:
            lookup = setup.lookups[key] = _filter_lookup(
                setup.index, triples, direction, key[2], np.arange(n_candidates))
        if kept is not None:
            lookup = _kept_lookup(lookup, kept, len(triples))
        counts[j] = _rank_direction(params, tables[slot], ranked, direction, lookup, oov)
    return counts


def _rank_split(params: ModelParams, dataset: SplitDataset, split: str, policy: str,
                directions: tuple[str, ...], tie: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The split's triples under ``policy``, and their MRR ranks and Hits ranks,
    one column per direction.

    An ``include`` call on a dataset whose train split lacks some ids keeps
    its counts and a copy of ``params`` in the dataset's set-up; the next
    ``exclude`` call on the same split and
    directions whose parameters are bitwise the copy takes its ranks from
    them, less the OOV columns, in place of ranking its rows again.
    """
    if policy not in OOV_POLICIES:
        raise ValueError(f"unknown OOV policy {policy!r} (expected one of {OOV_POLICIES})")
    setup = _SETUPS.get(dataset)
    last = setup.last if setup is not None and policy == "exclude" else None
    served = last is not None and last.serves(params, split, directions)
    if not served:  # else an include call has checked these very parameters on this dataset
        vocab = dataset.vocab
        if params.n_entities < vocab.n_entities:
            raise EvaluationError("params do not cover the dataset's entity vocabulary")
        needed_rel = 2 * vocab.n_relations if params.reciprocal else vocab.n_relations
        if params.n_relations < needed_rel:
            raise EvaluationError("params do not cover the dataset's relation vocabulary")
        _check_params_finite(params)

    triples = dataset.split(split)
    setup = _setup(dataset, policy)
    kept = setup.kept.get(split) if policy == "exclude" else None
    if kept is not None:
        triples = triples[kept]
    if not len(triples):
        raise EvaluationError(f"no {split} triples left to evaluate under policy {policy!r}")
    _check_tie(tie)
    if served:
        setup.last = None
        counts = np.stack([last.counts[direction] for direction in directions])
        if kept is not None:
            counts = counts[:, :, kept]
    else:
        if policy == "include":
            setup.last = None  # one copy of the parameters per dataset, also while ranking
        counts = _count_split(params, setup, dataset, split, kept, directions)
        # The blocks' planes and tables are gone. Where train holds every id,
        # exclude keeps every row and candidate and ranks as include does.
        if policy == "include" and (setup.oov[0].size or setup.oov[1].size):
            setup.last = _IncludePass(split, dict(zip(directions, counts)), params.copy())
    ranks = np.empty((len(triples), len(directions)))
    hits_ranks = np.empty(ranks.shape, dtype=np.int64)
    for j, direction_counts in enumerate(counts):
        ranks[:, j], hits_ranks[:, j] = _policy_ranks(direction_counts, policy, tie)
    return triples, ranks, hits_ranks


def _report(triples: np.ndarray, ranks: np.ndarray, hits_ranks: np.ndarray, policy: str,
            direction: str, tie: str, reciprocal: bool) -> MetricsReport:
    """MRR, Hits@N and per-relation MRR; every slot of every triple weighs the same."""
    n, slots = ranks.shape
    rr = (1.0 / ranks).sum(axis=1)
    rels = triples[:, 1]
    rel_n = np.bincount(rels)
    present = np.flatnonzero(rel_n)
    rel_mrr = np.bincount(rels, weights=rr)[present] / (slots * rel_n[present])
    return MetricsReport(
        mrr=float(rr.sum()) / (slots * n),
        hits={lvl: int(np.count_nonzero(hits_ranks <= lvl)) / (slots * n)
              for lvl in HITS_LEVELS},
        per_relation_mrr=dict(zip(present.tolist(), rel_mrr.tolist())),
        n_triples=n,
        policy=policy,
        direction=direction,
        tie=tie,
        reciprocal=reciprocal,
    )


def evaluate(params: ModelParams, dataset: SplitDataset, split: str = "test",
             policy: str = "include", tie: str = "mean") -> MetricsReport:
    """Entity-direction link prediction metrics over one split.

    MRR averages reciprocal tail and head ranks with denominator 2|split|;
    Hits@N analogously. Under ``exclude`` the denominator shrinks to the
    OOV-free subset. The report records ``params.reciprocal``.
    """
    triples, ranks, hits_ranks = _rank_split(params, dataset, split, policy, ("tail", "head"), tie)
    return _report(triples, ranks, hits_ranks, policy, "entity", tie, params.reciprocal)


def evaluate_relation_prediction(params: ModelParams, dataset: SplitDataset,
                                 split: str = "test", policy: str = "include",
                                 tie: str = "mean") -> MetricsReport:
    """Relation-direction metrics: rank the missing relation of (h, ?, t).

    Single-slot ranking, so MRR/Hits@N use denominator |split| (no factor 2).
    Reciprocal models rank base relations only, and the report records
    ``reciprocal`` false.
    """
    triples, ranks, hits_ranks = _rank_split(params, dataset, split, policy, ("relation",), tie)
    return _report(triples, ranks, hits_ranks, policy, "relation", tie, False)


def rank_records(params: ModelParams, dataset: SplitDataset, split: str = "test",
                 policy: str = "include", tie: str = "mean") -> list[RankRecord]:
    """Per-triple rank records (entity direction plus the relation slot)."""
    triples, ranks, hits_ranks = _rank_split(params, dataset, split, policy,
                                             ("tail", "head", "relation"), tie)
    return [RankRecord(Triple._make(tr), *rank, *hits) for tr, rank, hits
            in zip(triples.tolist(), ranks.tolist(), hits_ranks.tolist())]
