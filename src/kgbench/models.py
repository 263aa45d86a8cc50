"""Embedding models and their analytic gradients.

Four classics are implemented over plain numpy arrays:

* ``rescal``:   bilinear form  e_h^T W_r e_t  with a full matrix per relation
* ``transe``:   negated L2 translation distance  -|e_h + w_r - e_t|
* ``distmult``: trilinear product with a diagonal relation  <e_h, w_r, e_t>
* ``complex``:  Re <e_h, w_r, conj(e_t)> over complex-valued embeddings,
  stored as real arrays of width 2d (real half then imaginary half)

Each model's algebra is written once, as slot queries. Leave one slot of
``(h, r, t)`` out: its query is the vector, built from the other two rows,
that the slot's own row meets in the score. TransE scores the negated
distance between the two; the others their dot product, so there the query
is also the score's gradient by that row. ``score``, ``grad`` and
``score_all_*`` all build on these queries. Ranking computes every kind's
query with ``_query`` alone, element by element or summed in coordinate
order, so a query does not depend on the others computed with it.

``score`` and ``grad`` are the two phases of one ``Batch``: its id arrays,
range-checked once, and the rows they read, gathered once. ``grad`` reuses
what ``score`` computed: the tail-slot query, which is the tail row's
gradient for the dot-product kinds, TransE's ``q - e_t`` and its norm, and
RESCAL's relation sort. ``Batch.take`` picks triples by position, as the
margin loss picks the pairs inside its margin, without gathering again.
A batch runs in a few row arrays of its size: ComplEx's query fills the
halves of one output, RESCAL's entity queries are one bare matrix product
per relation, written in place (in training only: such a product may round
a row by how many rows share its relation), and ``grad`` overwrites the
gathered head and tail rows with their gradients once no product needs
them. RESCAL's ``grad`` makes one pass over the relation blocks: per
block, the relation gradient, then the head queries ``e_t W_r^T``.
Gradient rows that share an id are summed by ``np.add.reduceat``; an id
met once is copied. None of this reorders a floating-point operation.

Candidates are scored with each kind's one exact formula, one term per
coordinate added in coordinate order (``_exact_scores``), so equal
candidate rows score exactly equal. ``score_all_tails``,
``score_all_heads`` and ``score_all_relations`` take the two fixed slots
as ints, for one row of candidate scores, or as equal-length id arrays,
for an ``(m, N)`` block with one row per query. ``pair_scores`` scores
one candidate per query row with the same formula, bit for bit.

Ranking goes through a screen, the same for every kind: ``screen``
approximates every score of a block, less the score of its query's target,
with one matrix product against the table that ``screen_table`` builds once,
and returns one bound for the block, proven in a comment there: a candidate
screened beyond it, either way, is ordered against the target exactly as
the exact scores do. The ranker re-scores only the band within it with
``pair_scores``.

Scores are uniformly "higher is better" (TransE returns the negated
distance), which keeps the ranking engine model-agnostic. Parameter rows
exist for every entity/relation in the union vocabulary; rows for ids that
never occur in the train split keep their initialization forever, which is
exactly what the include-OOV evaluation policy measures.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .version import __version__

MODEL_KINDS = ("rescal", "transe", "distmult", "complex")

CHECKPOINT_FORMAT = "kgbench-checkpoint-v1"
TRANSE_NORM = "l2"

#: The checkpoint metadata fields that loading reads, with their JSON types.
_META_FIELDS = {"kind": str, "dim": int, "n_entities": int, "n_relations": int,
                "reciprocal": bool, "vocab_sha256": str}


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class ModelParams:
    """Entity/relation parameter tables for one model.

    ``entities`` is |E| x d (|E| x 2d for complex); ``relations`` is
    |R| x d for transe/distmult, |R| x 2d for complex, |R| x d x d for
    rescal. Arrays are float64 and mutated in place by training only.
    ``reciprocal`` models were trained with inverse relations: relation
    ``r``'s inverse is row ``n_relations // 2 + r``, and a head is ranked as
    the tail of the inverse relation.
    """

    kind: str
    dim: int
    entities: np.ndarray = field(repr=False)
    relations: np.ndarray = field(repr=False)
    reciprocal: bool = False

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        entity_row, relation_row = _row_shapes(self.kind, self.dim)
        if self.entities.shape[1:] != entity_row or self.relations.shape[1:] != relation_row:
            raise ValueError(
                f"{self.kind} with dim {self.dim} needs entity rows of shape {entity_row} and "
                f"relation rows of shape {relation_row}, not tables of shape "
                f"{self.entities.shape} and {self.relations.shape}")

    @property
    def n_entities(self) -> int:
        return self.entities.shape[0]

    @property
    def n_relations(self) -> int:
        return self.relations.shape[0]

    def copy(self) -> "ModelParams":
        return replace(self, entities=self.entities.copy(), relations=self.relations.copy())


def _row_shapes(kind: str, dim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The shape of one entity row and of one relation row."""
    width = 2 * dim if kind == "complex" else dim
    return (width,), ((dim, dim) if kind == "rescal" else (width,))


def _xavier_bound(fan_in: int, fan_out: int) -> float:
    return math.sqrt(6.0 / (fan_in + fan_out))


def init_params(kind: str, n_entities: int, n_relations: int, dim: int,
                seed: int) -> ModelParams:
    """Seeded uniform Xavier-style init, deterministic per (kind, sizes, seed).

    Bounds are per array: sqrt(6/(rows+cols)) for matrices, sqrt(6/2d) for
    the d x d relation maps of rescal. Entity table is drawn before the
    relation table so the stream order is part of the contract.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    entity_row, relation_row = _row_shapes(kind, dim)
    a_e = _xavier_bound(n_entities, entity_row[0])
    entities = rng.uniform(-a_e, a_e, size=(n_entities,) + entity_row)
    a_r = _xavier_bound(dim if kind == "rescal" else n_relations, relation_row[0])
    relations = rng.uniform(-a_r, a_r, size=(n_relations,) + relation_row)
    return ModelParams(kind, dim, entities, relations)


def id_arrays(params: ModelParams, **ids) -> list[np.ndarray]:
    """The ids given by slot name (h, r or t) as equal-length 1-d arrays, range-checked."""
    arrays = [np.atleast_1d(np.asarray(x)) for x in ids.values()]
    if arrays[0].ndim != 1 or any(x.shape != arrays[0].shape for x in arrays):
        raise ValueError(f"{', '.join(ids)} must be ints or equal-length 1-d id arrays")
    for slot, x in zip(ids, arrays):
        n, what = ((params.n_relations, "relation") if slot == "r"
                   else (params.n_entities, "entity"))
        if x.dtype.kind not in "iu":
            raise TypeError(f"{what} ids must be integers, not {x.dtype}")
        if x.size and (x.min() < 0 or x.max() >= n):
            bad = x[(x < 0) | (x >= n)][0]
            raise IndexError(f"{what} id {bad} out of range [0, {n})")
    return arrays


def _runs(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable sort order of ``ids`` and where each run of equal ids starts in it.

    It sorts one key per id, ``id * m + position`` for ``m`` ids. The keys
    are distinct, so their order is the stable one, and the default sort
    finds it in about half the time of a stable sort. Ids are range-checked
    table rows and ``m`` a batch's length, so the keys fit in int64.
    """
    m = ids.size
    order = np.argsort(np.multiply(ids, m, dtype=np.int64) + np.arange(m))
    ordered = ids[order]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    return order, starts[:m]  # no run at all when ids is empty


def _reduce_rows(ids: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the rows that share an id; returns sorted unique ids and their sums.

    A run of one row is copied, and a run of two is one addition, whose
    result does not depend on the order of its terms. The longer runs are
    summed by ``np.add.reduceat`` over their rows in stable order, whose
    summation order is its own (a run of three is ``r0 + (r1 + r2)``), so
    each sum is the one ``reduceat`` gives over all the sorted rows.
    """
    order, starts = _runs(ids)
    lengths = np.diff(starts, append=ids.size)
    sums = np.empty((starts.size,) + rows.shape[1:], dtype=rows.dtype)
    single, pair, longer = lengths == 1, lengths == 2, lengths > 2
    sums[single] = rows[order[starts[single]]]
    first = starts[pair]
    sums[pair] = np.add(rows[order[first]], rows[order[first + 1]])
    if longer.any():
        counts = lengths[longer]
        sums[longer] = np.add.reduceat(rows[order[np.repeat(longer, lengths)]],
                                       np.cumsum(counts) - counts, axis=0)
    return ids[order[starts]], sums


def _relation_blocks(r: np.ndarray) -> tuple[np.ndarray, list[tuple[int, slice]]]:
    """A stable order sorting ``r``, and ``(relation id, slice of that order)`` per distinct id."""
    order, starts = _runs(r)
    bounds = starts.tolist() + [r.size]
    return order, [(rel, slice(a, b)) for rel, a, b
                   in zip(r[order[starts]].tolist(), bounds, bounds[1:])]


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a * b).sum(axis=1)


def _query(kind: str, dim: int, slot: str, a: np.ndarray, b: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """The slot query: the vector that ``slot``'s parameter row meets in the score.

    ``a`` and ``b`` are the rows of the other two slots in ``(h, r, t)``
    order: ``(w_r, e_t)`` for ``"h"``, ``(e_h, e_t)`` for ``"r"`` and
    ``(e_h, w_r)`` for ``"t"``. Each is one row or one row per triple, and
    each query row is computed from its own two rows alone: RESCAL's entity
    query is summed in coordinate order, as ``tests/oracles.rescal_query``
    sums it. ``Batch`` and ``grad`` compute RESCAL's entity queries as one
    matrix product per relation block instead. ``out``, if given, is an
    array of the query's shape that receives it, and is returned.
    """
    if kind == "distmult":
        return np.multiply(a, b, out=out)
    if kind == "transe":
        return np.add(a, b, out=out) if slot == "t" else np.subtract(b, a, out=out)
    if kind == "rescal":
        if slot == "r":
            return np.multiply(a[..., :, None], b[..., None, :], out=out)
        # q_j = sum_k e_k W_kj, k ascending: e_h W_r for "t", e_t W_r^T for
        # "h". einsum sums W's rows in that order; it sums a contiguous axis
        # in another, so the head slot's W_r^T is made contiguous first.
        e, w = (a, b) if slot == "t" else (b, np.ascontiguousarray(np.swapaxes(a, -1, -2)))
        return np.einsum("...k,...kj->...j", e, w, out=out)
    # ComplEx: e_h * w_r for "t", conj(a) * b otherwise. Each half is summed
    # in a contiguous half-width array, then copied into one output: numpy
    # runs a ufunc that writes a strided half several times slower.
    are, aim, bre, bim = a[..., :dim], a[..., dim:], b[..., :dim], b[..., dim:]
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    first, second = (np.subtract, np.add) if slot == "t" else (np.add, np.subtract)
    half, scratch = np.multiply(are, bre), np.multiply(aim, bim)
    out[..., :dim] = first(half, scratch, out=half)
    np.multiply(are, bim, out=half)
    out[..., dim:] = second(half, np.multiply(aim, bre, out=scratch), out=half)
    return out


def _queries(params: ModelParams, slot: str, a: np.ndarray, b: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """The slot query of each triple, one row per triple.

    ``a`` and ``b`` are the id arrays of the other two slots, in ``(h, r, t)``
    order: one gather of each slot's rows, then ``_query``, for every kind.
    RESCAL's relation query is a ``(d, d)`` matrix per triple, and its
    entity queries gather a ``(d, d)`` matrix per triple. ``out``, if given,
    is an ``(m, w)`` array, or a view, that receives the queries flat, one
    row of ``w`` floats each.
    """
    E, R = params.entities, params.relations
    a_table, b_table = (E, E) if slot == "r" else (R, E) if slot == "h" else (E, R)
    if out is not None and params.kind == "rescal" and slot == "r":
        # out's rows as (d, d) matrices: splitting a contiguous axis is a view
        out = out.reshape(len(out), params.dim, params.dim)
    return _query(params.kind, params.dim, slot, a_table[a], b_table[b], out)


class Batch:
    """A batch of triples, with the parameter rows its ``score`` and ``grad`` read.

    Built from ints or equal-length int arrays ``h``, ``r`` and ``t``, which
    are range-checked once. The rows are gathered once: the head and tail
    rows as one ``(2m, w)`` array, heads first, and the relation rows. A
    RESCAL batch keeps its triples sorted by relation instead, with
    ``order[i]`` the position it was given row ``i`` at, and the relation
    blocks of that order; its entity queries are one matrix product per
    block. The tail-slot query is computed once, by ``score`` or else by
    ``grad``. The dot-product kinds use it as the gradient by the tail row;
    TransE keeps ``q - e_t`` and its norm, which give both the score and the
    gradient. ``take`` picks triples by position from these rows.

    ``grad`` uses the batch up: it overwrites the rows with gradient rows
    and lets go of every array, so a batch gives one gradient, and is not
    scored after it.
    """

    def __init__(self, params: ModelParams, h, r, t):
        h, r, t = id_arrays(params, h=h, r=r, t=t)
        order = blocks = relation_rows = None
        if params.kind == "rescal":
            order, blocks = _relation_blocks(r)
            h, r, t = h[order], r[order], t[order]
        else:
            relation_rows = params.relations[r]
        self._set(params, h, r, t, params.entities[np.concatenate([h, t])], relation_rows,
                  order, blocks)

    def _set(self, params, h, r, t, rows, relation_rows, order, blocks) -> None:
        self.params, self.h, self.r, self.t = params, h, r, t
        self.rows, self.relation_rows, self.order, self.blocks = rows, relation_rows, order, blocks
        self.query = self.norms = None

    def __len__(self) -> int:
        return len(self.h)

    def take(self, positions) -> "Batch":
        """The batch of the triples at ``positions``, in that order, repeats allowed.

        Positions are those the triples were given at. The rows, and the tail
        query once computed, are picked from this batch's, not gathered from
        the tables again. A RESCAL batch sorts its triples by relation anew
        and computes its own queries, since a matrix product may round a row
        by how many rows share its relation.
        """
        self._check_unused()
        m, positions = len(self), np.asarray(positions, dtype=np.intp)
        order = blocks = None
        if self.order is not None:
            where = np.empty(m, dtype=np.intp)
            where[self.order] = np.arange(m)
            positions = where[positions]  # the sorted row of each position
            order, blocks = _relation_blocks(self.r[positions])
            positions = positions[order]
        picked = Batch.__new__(Batch)
        picked._set(self.params, self.h[positions], self.r[positions], self.t[positions],
                    np.take(self.rows, np.concatenate([positions, positions + m]), axis=0),
                    self.relation_rows[positions] if order is None else None, order, blocks)
        if order is None and self.query is not None:
            picked.query = self.query[positions]
            picked.norms = None if self.norms is None else self.norms[positions]
        return picked

    def _check_unused(self) -> None:
        if self.rows is None:
            raise ValueError("this batch's rows went into its gradient; build a new Batch")

    def _tail_query(self) -> np.ndarray:
        """The tail-slot query of each row, computed on the first call."""
        self._check_unused()
        if self.query is None:
            params, m = self.params, len(self)
            head_rows = self.rows[:m]
            if params.kind == "rescal":  # e_h W_r, one matrix product per relation block
                self.query = np.empty_like(head_rows)
                for rel, block in self.blocks:
                    np.matmul(head_rows[block], params.relations[rel], out=self.query[block])
            else:
                self.query = _query(params.kind, params.dim, "t", head_rows, self.relation_rows)
            if params.kind == "transe":
                self.query -= self.rows[m:]
                self.norms = np.linalg.norm(self.query, axis=1)
        return self.query


def score(batch: Batch) -> np.ndarray:
    """Plausibility score of each triple of ``batch``, in the order given; higher is better.

    A float64 array; deterministic.
    """
    q = batch._tail_query()
    out = -batch.norms if batch.params.kind == "transe" else _rowdot(q, batch.rows[len(batch):])
    if batch.order is None:
        return out
    given = np.empty_like(out)
    given[batch.order] = out
    return given


def _exact_scores(kind: str, dim: int, q_columns: np.ndarray, e_columns: np.ndarray) -> np.ndarray:
    """Scores of query rows against candidate rows, from their coordinates, broadcast together.

    ``q_columns[k]`` and ``e_columns[k]`` hold coordinate ``k`` of the query
    rows and of the candidate rows: ``(m, 1)`` against ``(N,)`` gives every
    pair's score as an ``(m, N)`` plane, ``(n,)`` against ``(n,)`` the
    scores of ``n`` pairs. This is each kind's one exact formula: one term
    per coordinate, added in coordinate order. TransE's term is the squared
    difference, and the sum's ``sqrt`` is negated. ComplEx's term is
    ``q_re,k * e_re,k + q_im,k * e_im,k``, and the other kinds' ``q_k * e_k``
    (RESCAL's relation query has ``d*d`` coordinates). So a pair's score
    does not depend on what it is computed with, equal candidate rows score
    exactly equal, and tail scores of TransE, DistMult and ComplEx are those
    of the scalar formula summed in coordinate order.
    """
    shape = np.broadcast_shapes(q_columns.shape[1:], e_columns.shape[1:])
    total, term = np.empty(shape), np.empty(shape)
    imaginary = np.empty(shape) if kind == "complex" else None
    for k in range(dim if kind == "complex" else len(q_columns)):
        plane = term if k else total
        if kind == "transe":
            np.copyto(plane, q_columns[k])  # then subtract in place: faster than q - e in one call
            plane -= e_columns[k]
            plane *= plane
        else:
            np.multiply(q_columns[k], e_columns[k], out=plane)
            if kind == "complex":
                plane += np.multiply(q_columns[dim + k], e_columns[dim + k], out=imaginary)
        if k:
            total += term
    if kind == "transe":
        np.sqrt(total, out=total)
        np.negative(total, out=total)
    return total


def _flat(rows: np.ndarray) -> np.ndarray:
    """One row per leading index: RESCAL's ``(n, d, d)`` relation rows become ``(n, d*d)``."""
    return rows.reshape(len(rows), math.prod(rows.shape[1:]))


def _candidate_table(params: ModelParams, slot: str) -> np.ndarray:
    return _flat(params.relations if slot == "r" else params.entities)


def pair_scores(params: ModelParams, slot: str, queries: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact scores of candidate ``x[i]`` in ``slot`` against query row ``queries[i]``.

    ``queries`` are slot queries as ``screen`` returns them, one flat row
    per pair, and ``x`` in-range candidate ids. Each score equals that of
    ``score_all_*`` for the same query row bit for bit.
    """
    return _exact_scores(params.kind, params.dim, queries.T,
                         _candidate_table(params, slot)[x].T)


#: Constants of ``screen``'s bound: 64 units of roundoff, the largest
#: float64 and the smallest normal one.
_SCREEN_ULPS = 2.0 ** -47
_MAX_FLOAT = np.finfo(np.float64).max
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True, eq=False)
class ScreenTable:
    """A candidate table set up for ``screen``.

    ``rows`` meets the block's queries in one matrix product: one row
    ``[e, 1]`` per candidate row ``e`` (RESCAL's relations flattened to
    ``d*d`` columns), or for TransE ``[2e, -1, -|e|^2, 1]``. The last
    column meets each query's ``-c``, its target's value. ``max_square_norm``
    is the largest ``|e|^2``.
    """

    rows: np.ndarray
    max_square_norm: float


def screen_table(params: ModelParams, slot: str, n_rows: int | None = None) -> ScreenTable:
    """The screen table of ``slot``'s first ``n_rows`` candidate rows (``None``:
    every row); heads and tails share the entities'."""
    table = _candidate_table(params, slot)[:n_rows]
    with np.errstate(over="ignore"):  # an overflowing norm makes every row recounted
        square_norms = np.einsum("ij,ij->i", table, table)
    ones = np.ones((len(table), 1))
    columns = [2.0 * table, -ones, -square_norms[:, None]] if params.kind == "transe" else [table]
    return ScreenTable(np.concatenate([*columns, ones], axis=1),
                       float(square_norms.max(initial=0.0)))


def screen(params: ModelParams, table: ScreenTable, slot: str, a: np.ndarray, b: np.ndarray,
           targets: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Screened scores of a block of queries, less each target's, and the band that needs a recount.

    ``a`` and ``b`` are the other two slots' in-range ids in ``(h, r, t)``
    order, as in ``score_all_*``, ``targets`` one candidate id per query and
    ``table`` the slot's ``screen_table``. Returns ``(plane, queries,
    bound)``. ``plane`` is ``(m, N)``, one matrix product that approximates
    every score less the target's, higher is better: ``[q, -c] @ [e, 1].T``,
    or for TransE ``[q, |q|^2, 1, -c] @ [2e, -1, -|e|^2, 1].T = -|q - e|^2
    - c``, where ``c`` is the query's target value, one row dot product.
    ``queries`` are the block's slot queries, one flat row each, for
    ``pair_scores``. A candidate whose plane value is above ``bound`` scores
    strictly above its query's target, one below ``-bound`` strictly below
    it; the band between, which holds every target's own value, must be
    scored exactly. Where a product may overflow, the whole block is ``NaN``
    and its band is every finite value. ``bound`` is finite, so a ``-inf``
    column is out of the band.
    """
    n = table.rows.shape[1]
    # the queries land in the leading columns of the extended query array
    extended = np.zeros((len(targets), n))
    q = extended[:, :n - 3 if params.kind == "transe" else n - 1]
    _queries(params, slot, a, b, out=q)
    # Why the bound holds. Let u = 2**-53, g(k) = k*u / (1 - k*u), X the exact
    # score of pair_scores and X_t the target's, V the exact value of a
    # query row [q, ...] times a candidate row, both without their last
    # entry, V_t the target's, c = fl(V_t) in any order of summation, and P
    # the plane value fl(V - c). A sum of k terms in any order, with or
    # without fused multiply-adds, is within g(k) times the sum of its
    # terms' magnitudes of its exact value (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., 3.1). The plane and c sum n terms each
    # (c's last is 0 * 1) and the exact formula puts at most n roundings on
    # each term, so g(n) covers each. P > B must mean X > X_t and P < -B
    # mean X < X_t, so B must exceed every |P - (X - X_t)|.
    # Dot-product kinds: w = n - 1 products q_k * e_k. With M = max_i |q_i|
    # * max |e|, each of V and V_t is at most M, so |c| <= 1.01 * M, and:
    # 1. the plane's rounding, the term -c * 1 being exact: |P - (V - c)|
    #    <= g(n) * (M + |c|) <= 2.01 * g(n) * M;
    # 2. the rounding of c: |c - V_t| <= g(n) * M;
    # 3. the exact sums: X and X_t are each within g(n) * M of V and V_t
    #    (ComplEx's exact sum pairs its products first).
    # So |P - (X - X_t)| <= 5.01 * g(n) * M, and B = 2**-47 * n * M = 64u *
    # n * M is more than ten times that.
    # TransE: let P' = max_i fl(|q_i|^2) + max fl(|e|^2), E = |q - e|^2, E_t
    # the target's, and D the coordinate-order sum of fl(fl(q_k - e_k)^2), so
    # X = -fl(sqrt(D)). V sums 2 q_k e_k, -fl(|q|^2) and -fl(|e|^2), whose
    # magnitudes add up to at most 2.01 * P', and each norm is within g(n)
    # of exact, so |V + E| <= g(n) * P'. E is at most 2.01 * P', so |c| <=
    # 2.02 * P'.
    # 1. Plane rounding: |P - (V - c)| <= g(n) * (2.01 * P' + |c|).
    # 2. Rounding of c: |c - V_t| <= 2.01 * g(n) * P'.
    # 3. Rounding of the exact sum: D puts at most n roundings on each term,
    #    so it is within g(n) * E <= 2.01 * g(n) * P' of E, and D_t of E_t.
    #    With 1., 2. and |V + E|, |V_t + E_t| <= g(n) * P', P is within
    #    g(n) * (10.1 * P' + |c|) <= 12.2 * n*u * P' of D_t - D while n*u <
    #    2**-20.
    # 4. Rounding of the sqrt. Q = fl(X_t * X_t) is within 3.01u * D_t of
    #    D_t. A candidate with D < Q * (1 - 3u) scores strictly above the
    #    target, one with D > Q * (1 + 5u) strictly below; in between, sqrt
    #    can round distinct D to one score. This adds 8.1u * D_t <= 8.2u *
    #    |c| + u * P'.
    # So |P - (X - X_t)| <= 12.3 * n*u * P' + 8.2u * max |c|, and B = 2**-47
    # * (n * P' + max |c|) = 64u * (n*P' + max |c|) is more than five times
    # that; max |c| is the block's largest, so some rows' bands are wider
    # than theirs needs.
    # Both kinds: where a value is subnormal, a rounding errs by up to
    # 2**-1075 instead; far fewer than 2**40 roundings feed one plane value,
    # so the smallest normal float, 2**-1022, added to B covers them. B and
    # the scale in it take a few roundings, well within the factor to spare,
    # and B is finite: 2**-47 * n is formed first. Every partial sum of the
    # plane or of c is at most 4.1 times the block's scale (P', or M) in
    # magnitude, so nothing overflows where 8 * scale is finite, and with X
    # = X_t above, a target's own plane value is within B of 0. Elsewhere
    # every value of the block is NaN, and the band is every finite value.
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing block is handled below
        square_norms = np.einsum("ij,ij->i", q, q)
        top = square_norms.max(initial=0.0)
        if params.kind == "transe":
            scale = top + table.max_square_norm
        else:
            scale = math.sqrt(top) * math.sqrt(table.max_square_norm)
    if not scale <= _MAX_FLOAT / 8:
        return np.full((len(q), len(table.rows)), np.nan), q, _MAX_FLOAT
    if params.kind == "transe":
        extended[:, -3] = square_norms
        extended[:, -2] = 1.0
    target_values = np.einsum("ij,ij->i", extended, table.rows[targets])
    extended[:, -1] = -target_values
    plane = extended @ table.rows.T
    spread = np.abs(target_values).max(initial=0.0) if params.kind == "transe" else 0.0
    return plane, q, _SCREEN_ULPS * n * scale + _SCREEN_ULPS * spread + _TINY


def _score_all(params: ModelParams, slot: str, a, b) -> np.ndarray:
    """Scores of every row of ``slot``'s table against the slot query of each pair ``(a, b)``.

    ``a`` and ``b`` are the other two slots' ids in ``(h, r, t)`` order:
    ints give one score per table row, equal-length arrays one row of
    scores per pair. Every score comes from the kind's exact formula.
    """
    scalar = np.ndim(a) == np.ndim(b) == 0
    a, b = id_arrays(params, **dict(zip([s for s in "hrt" if s != slot], (a, b))))
    q = _flat(_queries(params, slot, a, b))
    out = _exact_scores(params.kind, params.dim, np.ascontiguousarray(q.T)[:, :, None],
                        _candidate_table(params, slot).T)
    return out[0] if scalar else out


def score_all_tails(params: ModelParams, h, r) -> np.ndarray:
    """Scores of (h, r, x) for every entity x.

    With int ids, a 1-d array over the entities; with equal-length id arrays,
    an ``(m, |E|)`` array whose row ``i`` scores ``(h[i], r[i], x)``.
    """
    return _score_all(params, "t", h, r)


def score_all_heads(params: ModelParams, r, t) -> np.ndarray:
    """Scores of (x, r, t) for every entity x; ids or id arrays, as in ``score_all_tails``."""
    return _score_all(params, "h", r, t)


def score_all_relations(params: ModelParams, h, t) -> np.ndarray:
    """Scores of (h, x, t) for every relation x; ids or id arrays, as in ``score_all_tails``."""
    return _score_all(params, "r", h, t)


@dataclass(frozen=True, eq=False)
class SparseGrad:
    """Gradient rows for only the parameter rows a batch touches.

    Ids are sorted and unique; ``entity_rows[i]`` is the gradient of entity
    row ``entity_ids[i]``, and likewise for relations.
    """

    entity_ids: np.ndarray
    entity_rows: np.ndarray
    relation_ids: np.ndarray
    relation_rows: np.ndarray


def grad(batch: Batch, upstream=1.0) -> SparseGrad:
    """Analytic gradient of ``sum_i upstream_i * score_i`` over the triples of ``batch``.

    ``upstream`` is a float or one float per triple, in the order given.
    Every row a triple touches gets an entry, even where its gradient is
    zero; rows sharing an id (a repeated id, or h == t) are summed into one.
    TransE's gradient at the singular zero-distance point is defined as 0
    (measure-zero, avoids NaNs). Uses the batch up: its head and tail rows
    are overwritten by their gradients once no product needs them.
    """
    q, rows, rel_rows, norms = batch._tail_query(), batch.rows, batch.relation_rows, batch.norms
    # the batch lets go of its arrays, so each is freed once no product needs it
    batch.rows = batch.relation_rows = batch.query = batch.norms = None
    params, m = batch.params, len(batch)
    R, kind, dim = params.relations, params.kind, params.dim
    u = np.broadcast_to(np.asarray(upstream, dtype=np.float64), (m,))
    u = (u if batch.order is None else u[batch.order])[:, None]
    eh, et = rows[:m], rows[m:]
    if kind == "rescal":
        blocks = batch.blocks
        relation_ids = np.array([rel for rel, _ in blocks], dtype=np.int64)
        relation_rows = np.empty((len(blocks),) + R.shape[1:])
        scaled = u * eh
        for i, (rel, block) in enumerate(blocks):
            # the sum of u * outer(e_h, e_t); then the block's scaled rows are
            # done with, and take its head queries e_t W_r^T
            np.matmul(scaled[block].T, et[block], out=relation_rows[i])
            np.matmul(et[block], R[rel].T, out=scaled[block])
        np.multiply(u, scaled, out=eh)
        np.multiply(q, u, out=et)
        del scaled
    elif kind == "transe":  # d score/d e_t = unit, and -unit for e_h and w_r
        nrm = norms[:, None]
        np.divide(q, nrm, out=q, where=nrm != 0.0)
        q[norms == 0.0] = 0.0
        np.multiply(u, q, out=et)
        np.negative(et, out=eh)  # u * -unit
        relation_ids, relation_rows = _reduce_rows(batch.r, eh)
    else:
        gr = _query(kind, dim, "r", eh, et)
        gr *= u
        relation_ids, relation_rows = _reduce_rows(batch.r, gr)
        del gr
        np.multiply(u, _query(kind, dim, "h", rel_rows, et), out=eh)
        np.multiply(u, q, out=et)
    del q, rel_rows, norms
    entity_ids, entity_rows = _reduce_rows(np.concatenate([batch.h, batch.t]), rows)
    return SparseGrad(entity_ids, entity_rows, relation_ids, relation_rows)


def save_checkpoint(params: ModelParams, path: Path, vocab) -> None:
    """Self-describing .npz: metadata JSON + row-major little-endian float64.

    ``vocab`` is the dataset's vocabulary, without inverse relations; its
    label tables are stored alongside the hash so a checkpoint can later be
    aligned to a corrected dataset whose ids differ.
    """
    meta = {
        "format": CHECKPOINT_FORMAT,
        "tool_version": __version__,
        "kind": params.kind,
        "dim": params.dim,
        "n_entities": params.n_entities,
        "n_relations": params.n_relations,
        "vocab_sha256": vocab.sha256(),
        "reciprocal": params.reciprocal,
        "transe_norm": TRANSE_NORM,
    }
    np.savez(
        path,
        meta=np.array(json.dumps(meta, sort_keys=True)),
        entities=np.ascontiguousarray(params.entities, dtype="<f8"),
        relations=np.ascontiguousarray(params.relations, dtype="<f8"),
        entity_labels=np.array(list(vocab.entities)),
        relation_labels=np.array(list(vocab.relations)),
    )


def load_checkpoint(path: Path) -> tuple[ModelParams, dict]:
    """Load a checkpoint; refuses non-finite values, metadata that is not a
    JSON object with fields that fit the tables, and label tables that are not
    one distinct label per entity row and per relation row (per base relation
    row, the first half, when the checkpoint is reciprocal).

    The returned metadata carries ``entity_labels``/``relation_labels`` lists
    in addition to the stored JSON fields.
    """
    # numpy leaves a file it opened itself open when it fails to read it
    with open(path, "rb") as fh:
        try:
            data = np.load(fh, allow_pickle=False)
        except (zipfile.BadZipFile, EOFError, ValueError) as exc:  # truncated, empty, not .npz
            raise CheckpointError(f"{path}: not a kgbench checkpoint ({exc})") from exc
        if not isinstance(data, np.lib.npyio.NpzFile):  # a bare .npy array
            raise CheckpointError(f"{path}: not a kgbench checkpoint (a single array)")
        with data:
            try:
                meta = json.loads(str(data["meta"]))
                entities = np.asarray(data["entities"], dtype=np.float64)
                relations = np.asarray(data["relations"], dtype=np.float64)
                labels = data["entity_labels"], data["relation_labels"]
            except KeyError as exc:
                raise CheckpointError(f"{path}: missing checkpoint entry {exc}") from exc
            except json.JSONDecodeError as exc:
                raise CheckpointError(f"{path}: checkpoint metadata is not JSON ({exc})") from exc
            except ValueError as exc:  # e.g. an object array, which only pickle can load
                raise CheckpointError(f"{path}: unreadable checkpoint entry ({exc})") from exc
    if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    # JSON's true and false would pass as ints: bool subclasses int
    bad = [key for key, typ in _META_FIELDS.items() if type(meta.get(key)) is not typ]
    if bad:
        raise CheckpointError(f"{path}: checkpoint metadata lacks a valid {', '.join(bad)}")
    meta["entity_labels"], meta["relation_labels"] = (table.tolist() for table in labels)
    if not (np.isfinite(entities).all() and np.isfinite(relations).all()):
        raise CheckpointError(f"{path}: checkpoint contains non-finite parameters")
    try:
        params = ModelParams(meta["kind"], meta["dim"], entities, relations, meta["reciprocal"])
    except ValueError as exc:  # an unknown kind, or tables that do not fit kind and dim
        raise CheckpointError(f"{path}: {exc}") from exc
    if params.n_entities != meta["n_entities"] or params.n_relations != meta["n_relations"]:
        raise CheckpointError(f"{path}: array shapes disagree with metadata")
    n_base = params.n_relations // 2 if params.reciprocal else params.n_relations
    for what, table, rows in (("entity", labels[0], params.n_entities),
                              ("relation", labels[1], n_base)):
        distinct = len(set(table.ravel().tolist()))
        if table.shape != (rows,) or distinct != rows:
            raise CheckpointError(f"{path}: {what} labels of shape {table.shape} "
                                  f"({distinct} distinct) for {rows} {what} rows")
    return params, meta


def align_params_to_vocab(params: ModelParams, entity_labels: list[str],
                          relation_labels: list[str], vocab) -> ModelParams:
    """Reindex parameter rows so ids follow ``vocab`` instead of the stored labels.

    Every label of ``vocab`` must exist in the checkpoint (the reverse need
    not hold: a corrected dataset's vocabulary is a subset of the raw one).
    For reciprocal checkpoints the inverse-relation block is re-gathered so
    inverse ids stay at base_id + |R|.
    """
    ent_index = {lbl: i for i, lbl in enumerate(entity_labels)}
    rel_index = {lbl: i for i, lbl in enumerate(relation_labels)}
    missing = [e for e in vocab.entities if e not in ent_index]
    missing += [r for r in vocab.relations if r not in rel_index]
    if missing:
        raise CheckpointError(
            f"checkpoint does not cover the dataset vocabulary; "
            f"missing e.g. {missing[:5]}"
        )
    ent_rows = [ent_index[e] for e in vocab.entities]
    rel_rows = [rel_index[r] for r in vocab.relations]
    if params.reciprocal:
        n_base = len(relation_labels)
        rel_rows = rel_rows + [n_base + i for i in rel_rows]
    return replace(params, entities=params.entities[ent_rows], relations=params.relations[rel_rows])


def load_checkpoint_for(path: Path, vocab) -> tuple[ModelParams, dict]:
    """Load and, when the vocabulary differs, align a checkpoint by label.

    Exact hash match returns the stored tables unchanged; otherwise rows are
    gathered label-by-label, which covers the raw-model-on-corrected-dataset
    workflow and still refuses genuinely incompatible vocabularies.
    """
    params, meta = load_checkpoint(path)
    if meta["vocab_sha256"] == vocab.sha256():
        return params, meta
    return align_params_to_vocab(params, meta["entity_labels"], meta["relation_labels"],
                                 vocab), meta
