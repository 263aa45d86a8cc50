"""Embedding models and their analytic gradients.

Four classics are implemented over plain numpy arrays:

* ``rescal``:   bilinear form  e_h^T W_r e_t  with a full matrix per relation
* ``transe``:   negated L2 translation distance  -|e_h + w_r - e_t|
* ``distmult``: trilinear product with a diagonal relation  <e_h, w_r, e_t>
* ``complex``:  Re <e_h, w_r, conj(e_t)> over complex-valued embeddings,
  stored as real arrays of width 2d (real half then imaginary half)

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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .version import __version__

MODEL_KINDS = ("rescal", "transe", "distmult", "complex")

CHECKPOINT_FORMAT = "kgbench-checkpoint-v1"
TRANSE_NORM = "l2"


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class ModelParams:
    """Entity/relation parameter tables for one model.

    ``entities`` is |E| x d (|E| x 2d for complex); ``relations`` is
    |R| x d for transe/distmult, |R| x 2d for complex, |R| x d x d for
    rescal. Arrays are float64 and mutated in place by training only.
    """

    kind: str
    dim: int
    entities: np.ndarray = field(repr=False)
    relations: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")

    @property
    def n_entities(self) -> int:
        return self.entities.shape[0]

    @property
    def n_relations(self) -> int:
        return self.relations.shape[0]

    def copy(self) -> "ModelParams":
        return ModelParams(self.kind, self.dim, self.entities.copy(), self.relations.copy())

    def check_ids(self, h: int | None = None, r: int | None = None,
                  t: int | None = None) -> None:
        for eid in (h, t):
            if eid is not None and not 0 <= eid < self.n_entities:
                raise IndexError(f"entity id {eid} out of range [0, {self.n_entities})")
        if r is not None and not 0 <= r < self.n_relations:
            raise IndexError(f"relation id {r} out of range [0, {self.n_relations})")


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
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    rng = np.random.default_rng(seed)
    width = 2 * dim if kind == "complex" else dim
    a_e = _xavier_bound(n_entities, width)
    entities = rng.uniform(-a_e, a_e, size=(n_entities, width))
    if kind == "rescal":
        a_r = _xavier_bound(dim, dim)
        relations = rng.uniform(-a_r, a_r, size=(n_relations, dim, dim))
    else:
        a_r = _xavier_bound(n_relations, width)
        relations = rng.uniform(-a_r, a_r, size=(n_relations, width))
    return ModelParams(kind, dim, entities, relations)


def _id_arrays(params: ModelParams, h, r, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``h``, ``r`` and ``t`` as equal-length 1-d id arrays, range-checked."""
    h, r, t = (np.atleast_1d(np.asarray(x)) for x in (h, r, t))
    if h.ndim != 1 or not h.shape == r.shape == t.shape:
        raise ValueError("h, r and t must be ints or equal-length 1-d id arrays")
    for ids, n, what in ((h, params.n_entities, "entity"), (r, params.n_relations, "relation"),
                         (t, params.n_entities, "entity")):
        if ids.dtype.kind not in "iu":
            raise TypeError(f"{what} ids must be integers, not {ids.dtype}")
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            bad = ids[(ids < 0) | (ids >= n)][0]
            raise IndexError(f"{what} id {bad} out of range [0, {n})")
    return h, r, t


def _runs(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable sort order of ``ids`` and where each run of equal ids starts in it."""
    order = np.argsort(ids, kind="stable")
    ordered = ids[order]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    return order, starts[:ordered.size]  # no run at all when ids is empty


def _reduce_rows(ids: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the rows that share an id; returns sorted unique ids and their sums."""
    order, starts = _runs(ids)
    return ids[order][starts], np.add.reduceat(rows[order], starts, axis=0)


def _relation_blocks(r: np.ndarray) -> tuple[np.ndarray, list[tuple[int, slice]]]:
    """A stable order sorting ``r``, and ``(relation id, slice of that order)`` per distinct id."""
    order, starts = _runs(r)
    bounds = starts.tolist() + [r.size]
    return order, [(rel, slice(a, b)) for rel, a, b
                   in zip(r[order[starts]].tolist(), bounds, bounds[1:])]


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a * b).sum(axis=1)


def score(params: ModelParams, h, r, t) -> float | np.ndarray:
    """Plausibility score; deterministic, higher is better.

    With int ids, the score of one triple as a float. With equal-length int
    arrays, a float64 array holding the score of each ``(h[i], r[i], t[i])``.
    """
    scalar = np.ndim(h) == np.ndim(r) == np.ndim(t) == 0
    h, r, t = _id_arrays(params, h, r, t)
    E, R = params.entities, params.relations
    kind = params.kind
    if kind == "rescal":  # one matmul per relation: no (m, d, d) gather
        order, blocks = _relation_blocks(r)
        eh, et = E[h[order]], E[t[order]]
        out = np.empty(h.shape)
        for rel, block in blocks:
            out[order[block]] = _rowdot(eh[block] @ R[rel], et[block])
        return float(out[0]) if scalar else out
    eh, rel, et = E[h], R[r], E[t]
    if kind == "distmult":
        out = _rowdot(eh * rel, et)
    elif kind == "transe":
        out = -np.linalg.norm(eh + rel - et, axis=1)
    else:  # complex
        d = params.dim
        hre, him = eh[:, :d], eh[:, d:]
        rre, rim = rel[:, :d], rel[:, d:]
        tre, tim = et[:, :d], et[:, d:]
        out = _rowdot(hre * rre - him * rim, tre) + _rowdot(hre * rim + him * rre, tim)
    return float(out[0]) if scalar else out


def score_all_tails(params: ModelParams, h: int, r: int) -> np.ndarray:
    """Scores of (h, r, x) for every entity x, as one vectorized pass."""
    params.check_ids(h=h, r=r)
    eh = params.entities[h]
    rel = params.relations[r]
    E = params.entities
    kind = params.kind
    if kind == "distmult":
        return E @ (eh * rel)
    if kind == "transe":
        return -np.linalg.norm((eh + rel) - E, axis=1)
    if kind == "rescal":
        return E @ (eh @ rel)
    d = params.dim
    hre, him = eh[:d], eh[d:]
    rre, rim = rel[:d], rel[d:]
    a = hre * rre - him * rim
    b = hre * rim + him * rre
    return E[:, :d] @ a + E[:, d:] @ b


def score_all_heads(params: ModelParams, r: int, t: int) -> np.ndarray:
    """Scores of (x, r, t) for every entity x."""
    params.check_ids(r=r, t=t)
    et = params.entities[t]
    rel = params.relations[r]
    E = params.entities
    kind = params.kind
    if kind == "distmult":
        return E @ (rel * et)
    if kind == "transe":
        return -np.linalg.norm(E + (rel - et), axis=1)
    if kind == "rescal":
        return E @ (rel @ et)
    d = params.dim
    rre, rim = rel[:d], rel[d:]
    tre, tim = et[:d], et[d:]
    u = rre * tre + rim * tim
    v = rre * tim - rim * tre
    return E[:, :d] @ u + E[:, d:] @ v


def score_all_relations(params: ModelParams, h: int, t: int) -> np.ndarray:
    """Scores of (h, x, t) for every relation x."""
    params.check_ids(h=h, t=t)
    eh = params.entities[h]
    et = params.entities[t]
    R = params.relations
    kind = params.kind
    if kind == "distmult":
        return R @ (eh * et)
    if kind == "transe":
        return -np.linalg.norm(R + (eh - et), axis=1)
    if kind == "rescal":
        return R.reshape(R.shape[0], -1) @ np.outer(eh, et).ravel()
    d = params.dim
    hre, him = eh[:d], eh[d:]
    tre, tim = et[:d], et[d:]
    u = hre * tre + him * tim
    v = hre * tim - him * tre
    return R[:, :d] @ u + R[:, d:] @ v


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

    @property
    def entities(self) -> dict[int, np.ndarray]:
        """``{entity id: gradient row}``."""
        return dict(zip(self.entity_ids.tolist(), self.entity_rows))

    @property
    def relations(self) -> dict[int, np.ndarray]:
        """``{relation id: gradient row}``."""
        return dict(zip(self.relation_ids.tolist(), self.relation_rows))


def grad(params: ModelParams, h, r, t, upstream=1.0) -> SparseGrad:
    """Analytic gradient of ``sum_i upstream_i * score(h_i, r_i, t_i)``.

    Takes ints or equal-length int arrays, and a float or one float per
    triple as ``upstream``. Every row a triple touches gets an entry, even
    where its gradient is zero; rows sharing an id (a repeated id, or
    h == t) are summed into one. TransE's gradient at the singular
    zero-distance point is defined as 0 (measure-zero, avoids NaNs).
    """
    h, r, t = _id_arrays(params, h, r, t)
    u = np.broadcast_to(np.asarray(upstream, dtype=np.float64), h.shape)[:, None]
    E, R = params.entities, params.relations
    kind = params.kind
    if kind == "rescal":  # one matmul per relation: no (m, d, d) gather
        order, blocks = _relation_blocks(r)
        h, t, u = h[order], t[order], u[order]  # rows are reduced by id below
        eh, et = E[h], E[t]
        gh, gt = np.empty_like(eh), np.empty_like(et)
        relation_ids = np.array([rel for rel, _ in blocks], dtype=np.int64)
        relation_rows = np.empty((len(blocks),) + R.shape[1:])
        for i, (rel, block) in enumerate(blocks):
            gh[block] = et[block] @ R[rel].T
            gt[block] = eh[block] @ R[rel]
            relation_rows[i] = (u[block] * eh[block]).T @ et[block]
    else:
        eh, et = E[h], E[t]
        rel = R[r]
        if kind == "distmult":
            gh, gr, gt = rel * et, eh * et, eh * rel
        elif kind == "transe":
            delta = eh + rel - et
            nrm = np.linalg.norm(delta, axis=1, keepdims=True)
            unit = np.divide(delta, nrm, out=np.zeros_like(delta), where=nrm != 0.0)
            gh, gr, gt = -unit, -unit, unit
        else:  # complex
            d = params.dim
            hre, him = eh[:, :d], eh[:, d:]
            rre, rim = rel[:, :d], rel[:, d:]
            tre, tim = et[:, :d], et[:, d:]
            gh = np.concatenate([rre * tre + rim * tim, rre * tim - rim * tre], axis=1)
            gr = np.concatenate([hre * tre + him * tim, hre * tim - him * tre], axis=1)
            gt = np.concatenate([hre * rre - him * rim, hre * rim + him * rre], axis=1)
        relation_ids, relation_rows = _reduce_rows(r, u * gr)
    entity_ids, entity_rows = _reduce_rows(np.concatenate([h, t]),
                                           np.concatenate([u * gh, u * gt]))
    return SparseGrad(entity_ids, entity_rows, relation_ids, relation_rows)


def save_checkpoint(params: ModelParams, path: Path, vocab,
                    reciprocal: bool = False) -> None:
    """Self-describing .npz: metadata JSON + row-major little-endian float64.

    ``vocab`` is the *base* (un-augmented) vocabulary; its label tables are
    stored alongside the hash so a checkpoint can later be aligned to a
    corrected dataset whose ids differ.
    """
    meta = {
        "format": CHECKPOINT_FORMAT,
        "tool_version": __version__,
        "kind": params.kind,
        "dim": params.dim,
        "n_entities": params.n_entities,
        "n_relations": params.n_relations,
        "vocab_sha256": vocab.sha256(),
        "reciprocal": reciprocal,
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


def load_checkpoint(path: Path, expected_vocab_sha256: str | None = None
                    ) -> tuple[ModelParams, dict]:
    """Load a checkpoint; refuses vocab-hash mismatches and non-finite values.

    The returned metadata carries ``entity_labels``/``relation_labels`` lists
    in addition to the stored JSON fields.
    """
    try:
        data = np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, ValueError) as exc:  # truncated, or not an .npz at all
        raise CheckpointError(f"{path}: not a kgbench checkpoint ({exc})") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):  # a bare .npy array
        raise CheckpointError(f"{path}: not a kgbench checkpoint (a single array)")
    with data:
        try:
            meta = json.loads(str(data["meta"]))
            entities = np.asarray(data["entities"], dtype=np.float64)
            relations = np.asarray(data["relations"], dtype=np.float64)
            meta["entity_labels"] = data["entity_labels"].tolist()
            meta["relation_labels"] = data["relation_labels"].tolist()
        except KeyError as exc:
            raise CheckpointError(f"{path}: missing checkpoint entry {exc}") from exc
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if expected_vocab_sha256 is not None and meta["vocab_sha256"] != expected_vocab_sha256:
        raise CheckpointError(
            f"{path}: checkpoint vocabulary hash {meta['vocab_sha256'][:12]}... does not "
            f"match the dataset ({expected_vocab_sha256[:12]}...); refusing to evaluate"
        )
    if not (np.isfinite(entities).all() and np.isfinite(relations).all()):
        raise CheckpointError(f"{path}: checkpoint contains non-finite parameters")
    params = ModelParams(meta["kind"], int(meta["dim"]), entities, relations)
    if params.n_entities != meta["n_entities"] or params.n_relations != meta["n_relations"]:
        raise CheckpointError(f"{path}: array shapes disagree with metadata")
    return params, meta


def align_params_to_vocab(params: ModelParams, entity_labels: list[str],
                          relation_labels: list[str], vocab,
                          reciprocal: bool = False) -> ModelParams:
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
    if reciprocal:
        n_base = len(relation_labels)
        rel_rows = rel_rows + [n_base + i for i in rel_rows]
    return ModelParams(params.kind, params.dim,
                       params.entities[ent_rows], params.relations[rel_rows])


def load_checkpoint_for(path: Path, vocab) -> tuple[ModelParams, dict]:
    """Load and, when the vocabulary differs, align a checkpoint by label.

    Exact hash match returns the stored tables unchanged; otherwise rows are
    gathered label-by-label, which covers the raw-model-on-corrected-dataset
    workflow and still refuses genuinely incompatible vocabularies.
    """
    params, meta = load_checkpoint(path)
    if meta["vocab_sha256"] == vocab.sha256():
        return params, meta
    aligned = align_params_to_vocab(params, meta["entity_labels"],
                                    meta["relation_labels"], vocab,
                                    reciprocal=bool(meta.get("reciprocal")))
    return aligned, meta
