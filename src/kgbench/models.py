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


def score(params: ModelParams, h: int, r: int, t: int) -> float:
    """Plausibility score of one triple; deterministic, higher is better."""
    params.check_ids(h, r, t)
    eh = params.entities[h]
    et = params.entities[t]
    rel = params.relations[r]
    kind = params.kind
    if kind == "distmult":
        return float(np.dot(eh * rel, et))
    if kind == "transe":
        return -float(np.linalg.norm(eh + rel - et))
    if kind == "rescal":
        return float(eh @ rel @ et)
    # complex
    d = params.dim
    hre, him = eh[:d], eh[d:]
    rre, rim = rel[:d], rel[d:]
    tre, tim = et[:d], et[d:]
    return float(np.dot(hre * rre - him * rim, tre) + np.dot(hre * rim + him * rre, tim))


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


@dataclass
class SparseGrad:
    """Gradient w.r.t. only the parameter rows a triple touches."""

    entities: dict[int, np.ndarray]
    relations: dict[int, np.ndarray]


def grad(params: ModelParams, h: int, r: int, t: int,
         upstream: float = 1.0) -> SparseGrad:
    """Analytic d(upstream * score)/d(row) for the three touched rows.

    When h == t the two entity contributions are summed into one entry.
    TransE's gradient at the singular zero-distance point is defined as 0
    (measure-zero, avoids NaNs).
    """
    params.check_ids(h, r, t)
    eh = params.entities[h]
    et = params.entities[t]
    rel = params.relations[r]
    kind = params.kind
    if kind == "distmult":
        gh = rel * et
        gr = eh * et
        gt = eh * rel
    elif kind == "transe":
        delta = eh + rel - et
        nrm = float(np.linalg.norm(delta))
        if nrm == 0.0:
            unit = np.zeros_like(delta)
        else:
            unit = delta / nrm
        gh = -unit
        gr = -unit
        gt = unit
    elif kind == "rescal":
        gh = rel @ et
        gr = np.outer(eh, et)
        gt = rel.T @ eh
    else:  # complex
        d = params.dim
        hre, him = eh[:d], eh[d:]
        rre, rim = rel[:d], rel[d:]
        tre, tim = et[:d], et[d:]
        gh = np.concatenate([rre * tre + rim * tim, rre * tim - rim * tre])
        gr = np.concatenate([hre * tre + him * tim, hre * tim - him * tre])
        gt = np.concatenate([hre * rre - him * rim, hre * rim + him * rre])
    entities: dict[int, np.ndarray] = {}
    if h == t:
        entities[h] = upstream * (gh + gt)
    else:
        entities[h] = upstream * gh
        entities[t] = upstream * gt
    return SparseGrad(entities=entities, relations={r: upstream * gr})


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
