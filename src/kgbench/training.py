"""Stochastic training of the embedding models on the train split.

Updates are strictly sparse: only parameter rows for ids that occur in the
(possibly reciprocal-augmented) train split are ever written, so rows for
out-of-vocabulary ids stay bit-identical to their initialization. Negatives
are drawn from train-split entities only and are *not* filtered against
known-true triples (standard practice; the false-negative rate is tiny at
benchmark scale, but it does shift absolute loss values).

Each minibatch is one ``Batch`` of its positives and negatives, gathered
once, with one ``score`` call and one ``grad`` call on it. Under the margin
loss the gradient is taken over the pairs inside the margin, picked from
the batch by position. The Adam step updates the touched rows in place, in
three row buffers per table, with the operations of the textbook
expressions in their order, so no step allocates more than a few copies of
the gradient's rows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import SplitDataset, as_triples, split_vocab
from .models import MODEL_KINDS, Batch, ModelParams, SparseGrad, grad, init_params, score

LOSSES = ("logistic", "margin")
OPTIMIZERS = ("adam", "sgd")

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
    optimizer: str = "adam"
    reciprocal: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model not in MODEL_KINDS:
            raise ValueError(f"unknown model {self.model!r} (expected one of {MODEL_KINDS})")
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
        if self.loss not in (None, *LOSSES):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.resolved_loss() == "margin" and self.margin <= 0:
            raise ValueError("margin must be > 0 for the margin loss")
        if self.optimizer not in OPTIMIZERS:
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


def augment_reciprocal(train: np.ndarray, n_relations: int) -> np.ndarray:
    """Append (t, r_inv, h) for every (h, r, t) row; relation r's inverse has id
    ``n_relations + r``. Inverse relations have ids but no labels."""
    train = as_triples(train)
    return np.concatenate([train, train[:, ::-1] + (0, n_relations, 0)])


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
            # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
            # table -= lr * (m/bc1) / (sqrt(v/bc2) + eps), each operation in this
            # order, so the bits are those of the expressions, in three row buffers.
            m_ids = m[ids]
            m_ids *= ADAM_BETA1
            scratch = np.multiply(rows, 1.0 - ADAM_BETA1)
            m_ids += scratch
            m[ids] = m_ids
            v_ids = v[ids]
            v_ids *= ADAM_BETA2
            np.multiply(rows, 1.0 - ADAM_BETA2, out=scratch)
            scratch *= rows
            v_ids += scratch
            v[ids] = v_ids
            m_ids /= bc1  # from here on m_ids becomes the step
            m_ids *= self.lr
            v_ids /= bc2
            np.sqrt(v_ids, out=v_ids)
            v_ids += ADAM_EPS
            m_ids /= v_ids
            # ids passed m[ids] above, so "clip" clips nothing; it writes without
            # the buffer that "raise" makes.
            np.take(table, ids, axis=0, out=scratch, mode="clip")
            scratch -= m_ids
            table[ids] = scratch


def _batch_loss(loss_kind: str, margin: float, s_pos: np.ndarray, s_neg: np.ndarray
                ) -> tuple[float, np.ndarray | None, np.ndarray]:
    """Mean loss of one batch, the positions of the triples that contribute
    gradient rows, and d(loss)/d(score) for each of them.

    The batch is ``b`` positives then ``k`` corruptions per positive, as
    :func:`sample_negatives` lays them out, and ``s_pos`` and ``s_neg`` are
    their scores. Under the logistic loss every triple contributes, in
    batch order, and the positions are ``None``. Under the margin loss only
    the pairs inside the margin do: the positive of each active pair, at
    ``active // k``, then its negative, at ``b + active``. A batch with no
    such pair contributes no triple.
    """
    b = len(s_pos)
    k = len(s_neg) // b
    if loss_kind == "logistic":
        loss = float(np.logaddexp(0.0, -s_pos).sum() + np.logaddexp(0.0, s_neg).sum() / k) / b
        # d softplus(x)/dx = sigmoid(x) = (1 + tanh(x/2)) / 2
        upstream = np.concatenate([-0.5 * (1.0 + np.tanh(-0.5 * s_pos)) / b,
                                   0.5 * (1.0 + np.tanh(0.5 * s_neg)) / (k * b)])
        return loss, None, upstream
    gap = margin - np.repeat(s_pos, k) + s_neg
    active = np.flatnonzero(gap > 0.0)
    loss = float(gap[active].sum()) / k / b
    upstream = np.repeat([-1.0 / (k * b), 1.0 / (k * b)], len(active))
    return loss, np.concatenate([active // k, b + active]), upstream


@dataclass(frozen=True)
class TrainResult:
    params: ModelParams
    epoch_losses: tuple[float, ...]
    n_updates: int


def train(dataset: SplitDataset, config: TrainConfig) -> TrainResult:
    """Minimize the configured loss over the train split.

    Each minibatch is one step: its negatives are drawn in one call, every
    score and gradient of the batch uses the parameters from the start of
    the batch, and one optimizer step updates the rows its contributing
    triples touch. Deterministic for a fixed config and seed: init, batch
    shuffles and negative draws all flow from ``config.seed``. Raises
    :class:`TrainingError` naming the batch if the loss goes non-finite.
    The parameters are reciprocal when ``config.reciprocal`` is.
    """
    vocab = dataset.vocab
    rows, n_relations = dataset.train, vocab.n_relations
    if config.reciprocal:
        rows, n_relations = augment_reciprocal(rows, n_relations), 2 * n_relations
    if not len(rows):
        raise TrainingError("train split is empty")

    params = replace(init_params(config.model, vocab.n_entities, n_relations, config.dim,
                                 config.seed), reciprocal=config.reciprocal)
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
            batch = Batch(params, *np.concatenate([pos, neg]).T)
            s = score(batch)
            batch_loss, positions, upstream = _batch_loss(loss_kind, config.margin, s[:b], s[b:])
            if not math.isfinite(batch_loss):
                raise TrainingError(
                    f"non-finite loss in epoch {epoch + 1}, batch {batch_no + 1}; "
                    f"try a smaller learning rate"
                )
            if positions is not None:
                batch = batch.take(positions)  # and the whole batch is freed
            optimizer.step(grad(batch, upstream))
            n_updates += 1
            epoch_loss += batch_loss * b
        epoch_losses.append(epoch_loss / n)

    return TrainResult(params=params, epoch_losses=tuple(epoch_losses), n_updates=n_updates)


def write_loss_csv(path: Path, epoch_losses: Sequence[float]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss"])
        for epoch, loss in enumerate(epoch_losses, start=1):
            writer.writerow([epoch, repr(loss)])
