"""Stochastic training of the embedding models on the train split.

Updates are strictly sparse: only parameter rows for ids that occur in the
(possibly reciprocal-augmented) train split are ever written, so rows for
out-of-vocabulary ids stay bit-identical to their initialization. Negatives
are drawn from train-split entities only and are *not* filtered against
known-true triples (standard practice; the false-negative rate is tiny at
benchmark scale, but it does shift absolute loss values).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import SplitDataset, Vocabulary, as_triples, split_vocab
from .models import ModelParams, SparseGrad, grad, init_params, score

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    model: str = "distmult"
    dim: int = 32
    epochs: int = 100
    batch_size: int = 128
    lr: float = 0.05
    negatives: int = 1
    loss: str | None = None  # None -> margin for transe, logistic otherwise
    margin: float = 1.0
    optimizer: str = "adam"  # "adam" | "sgd"
    reciprocal: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.loss not in (None, "logistic", "margin"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.resolved_loss() == "margin" and self.margin <= 0:
            raise ValueError("margin must be > 0 for the margin loss")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

    def resolved_loss(self) -> str:
        if self.loss is not None:
            return self.loss
        return "margin" if self.model == "transe" else "logistic"

    @classmethod
    def from_file(cls, path: Path, **overrides) -> "TrainConfig":
        """Flat key=value config file; '#' starts a comment. CLI flags override."""
        parsed: dict = {}
        types = {f.name: f.type for f in fields(cls)}
        for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
            parsed[key] = _coerce(key, value)
        parsed.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**parsed)


def _coerce(key: str, value: str):
    if key in ("dim", "epochs", "batch_size", "negatives", "seed"):
        return int(value)
    if key in ("lr", "margin"):
        return float(value)
    if key == "reciprocal":
        if value.lower() in ("1", "true", "yes"):
            return True
        if value.lower() in ("0", "false", "no"):
            return False
        raise ValueError(f"bad boolean for {key}: {value!r}")
    return value


def augment_reciprocal(train: np.ndarray, vocab: Vocabulary
                       ) -> tuple[np.ndarray, Vocabulary]:
    """Append (t, r_inv, h) for every (h, r, t) row, with fresh inverse relations.

    Relation ids double: r_inv = |R| + r. Inverse labels get an ``_inv``
    suffix; a collision with an existing label is refused rather than merged.
    """
    n = vocab.n_relations
    existing = set(vocab.relations)
    inverse_labels = []
    for label in vocab.relations:
        inv = f"{label}_inv"
        if inv in existing:
            raise ValueError(f"reciprocal label collision: {inv!r} already exists")
        inverse_labels.append(inv)
    extended = Vocabulary(vocab.entities, vocab.relations + tuple(inverse_labels))
    train = as_triples(train)
    return np.concatenate([train, train[:, ::-1] + (0, n, 0)]), extended


def sample_negatives(triples: np.ndarray, k: int, entity_pool: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """k corruptions of each row of a (b, 3) id array, as a (b*k, 3) array.

    Row ``i*k + j`` corrupts triple ``i``: a fair coin picks the head or the
    tail, and a uniform draw from ``entity_pool`` replaces it. The coins of
    the whole batch are drawn before its entities. Negatives may coincide
    with true triples; nothing is filtered here.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    triples = np.asarray(triples, dtype=np.int64)
    if triples.ndim != 2 or triples.shape[1] != 3:
        raise ValueError(f"triples must be a (b, 3) id array, got shape {triples.shape}")
    b = len(triples)
    sides = rng.integers(0, 2, (b, k))
    entities = entity_pool[rng.integers(0, len(entity_pool), (b, k))]
    out = np.repeat(triples, k, axis=0)
    out[np.arange(b * k), 2 * sides.ravel()] = entities.ravel()  # column 0 or 2
    return out


class _Sgd:
    def __init__(self, params: ModelParams, lr: float):
        self.params = params
        self.lr = lr

    def step(self, g: SparseGrad) -> None:
        self.params.entities[g.entity_ids] -= self.lr * g.entity_rows
        self.params.relations[g.relation_ids] -= self.lr * g.relation_rows


class _Adam:
    """Adam with lazy (touched-row-only) moment updates; decay 0.9/0.999, eps 1e-8."""

    def __init__(self, params: ModelParams, lr: float):
        self.params = params
        self.lr = lr
        self.m_e = np.zeros_like(params.entities)
        self.v_e = np.zeros_like(params.entities)
        self.m_r = np.zeros_like(params.relations)
        self.v_r = np.zeros_like(params.relations)
        self.t = 0

    def step(self, g: SparseGrad) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for table, m, v, ids, rows in (
            (self.params.entities, self.m_e, self.v_e, g.entity_ids, g.entity_rows),
            (self.params.relations, self.m_r, self.v_r, g.relation_ids, g.relation_rows),
        ):
            m_ids = ADAM_BETA1 * m[ids] + (1.0 - ADAM_BETA1) * rows
            v_ids = ADAM_BETA2 * v[ids] + (1.0 - ADAM_BETA2) * rows * rows
            m[ids] = m_ids
            v[ids] = v_ids
            table[ids] -= self.lr * (m_ids / bc1) / (np.sqrt(v_ids / bc2) + ADAM_EPS)


def _batch_loss(loss_kind: str, margin: float, pos: np.ndarray, neg: np.ndarray,
                s_pos: np.ndarray, s_neg: np.ndarray
                ) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean loss of one batch, the triples that contribute gradient rows, and
    d(loss)/d(score) for each of them.

    ``neg`` holds k corruptions per positive, as :func:`sample_negatives`
    lays them out. Under the logistic loss every triple contributes; under
    the margin loss only the pairs inside the margin do, so a batch with
    no such pair contributes no triple.
    """
    b = len(pos)
    k = len(neg) // b
    if loss_kind == "logistic":
        loss = float(np.logaddexp(0.0, -s_pos).sum() + np.logaddexp(0.0, s_neg).sum() / k) / b
        # d softplus(x)/dx = sigmoid(x) = (1 + tanh(x/2)) / 2
        upstream = np.concatenate([-0.5 * (1.0 + np.tanh(-0.5 * s_pos)) / b,
                                   0.5 * (1.0 + np.tanh(0.5 * s_neg)) / (k * b)])
        return loss, np.concatenate([pos, neg]), upstream
    gap = margin - np.repeat(s_pos, k) + s_neg
    active = gap > 0.0
    loss = float(gap[active].sum()) / k / b
    n_active = int(active.sum())
    upstream = np.repeat([-1.0 / (k * b), 1.0 / (k * b)], n_active)
    return loss, np.concatenate([np.repeat(pos, k, axis=0)[active], neg[active]]), upstream


@dataclass(frozen=True)
class TrainResult:
    params: ModelParams
    epoch_losses: tuple[float, ...]
    n_updates: int
    vocab_sha256: str  # hash of the *base* (un-augmented) vocabulary
    reciprocal: bool
    train_vocab: Vocabulary  # extended when reciprocal


def train(dataset: SplitDataset, config: TrainConfig) -> TrainResult:
    """Minimize the configured loss over the train split.

    Each minibatch is one step: its negatives are drawn in one call, every
    score and gradient of the batch uses the parameters from the start of
    the batch, and one optimizer step updates the rows its contributing
    triples touch. Deterministic for a fixed config and seed: init, batch
    shuffles and negative draws all flow from ``config.seed``. Raises
    :class:`TrainingError` naming the batch if the loss goes non-finite.
    """
    vocab = dataset.vocab
    rows, train_vocab = dataset.train, vocab
    if config.reciprocal:
        rows, train_vocab = augment_reciprocal(dataset.train, vocab)
    if not len(rows):
        raise TrainingError("train split is empty")

    params = init_params(config.model, vocab.n_entities, train_vocab.n_relations,
                         config.dim, config.seed)
    rng = np.random.default_rng((config.seed, 1))
    entity_pool = split_vocab(dataset.train)[0]  # reciprocal rows only swap h and t

    loss_kind = config.resolved_loss()
    optimizer = _Adam(params, config.lr) if config.optimizer == "adam" else _Sgd(params, config.lr)
    k = config.negatives
    n = len(rows)
    order_src = np.arange(n)
    epoch_losses: list[float] = []
    n_updates = 0

    for epoch in range(config.epochs):
        order = rng.permutation(order_src)
        epoch_loss = 0.0
        for batch_no, start in enumerate(range(0, n, config.batch_size)):
            pos = rows[order[start:start + config.batch_size]]
            b = len(pos)
            neg = sample_negatives(pos, k, entity_pool, rng)
            s = score(params, *np.concatenate([pos, neg]).T)
            batch_loss, contributing, upstream = _batch_loss(loss_kind, config.margin,
                                                             pos, neg, s[:b], s[b:])
            if not math.isfinite(batch_loss):
                raise TrainingError(
                    f"non-finite loss in epoch {epoch + 1}, batch {batch_no + 1}; "
                    f"try a smaller learning rate"
                )
            optimizer.step(grad(params, *contributing.T, upstream))
            n_updates += 1
            epoch_loss += batch_loss * b
        epoch_losses.append(epoch_loss / n)

    return TrainResult(
        params=params,
        epoch_losses=tuple(epoch_losses),
        n_updates=n_updates,
        vocab_sha256=vocab.sha256(),
        reciprocal=config.reciprocal,
        train_vocab=train_vocab,
    )


def write_loss_csv(path: Path, epoch_losses: Sequence[float]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss"])
        for epoch, loss in enumerate(epoch_losses, start=1):
            writer.writerow([epoch, repr(loss)])
