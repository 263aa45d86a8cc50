import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from kgbench import Triple, augment_reciprocal, sample_negatives
from kgbench.models import MODEL_KINDS, Batch, grad, init_params, score
from kgbench.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    LOSSES,
    OPTIMIZERS,
    TrainConfig,
    TrainingError,
    _Adam,
    _batch_loss,
    _Sgd,
    train,
    write_loss_csv,
)

from conftest import make_dataset, random_kg
from oracles import grad_rows


def test_augment_reciprocal_single_triple():
    augmented = augment_reciprocal([Triple(0, 0, 1)], 1)
    assert augmented.tolist() == [[0, 0, 1], [1, 1, 0]]
    augmented = augment_reciprocal([Triple(2, 1, 0)], 3)  # inverse of 1 is 3 + 1
    assert augmented.tolist() == [[2, 1, 0], [0, 4, 2]]


def test_augment_reciprocal_empty_train_still_doubles_relations():
    augmented = augment_reciprocal([], 2)
    assert augmented.tolist() == []
    assert augmented.shape == (0, 3)


def test_sample_negatives_degenerate_pool():
    pool = np.array([3])
    rng = np.random.default_rng(0)
    negs = sample_negatives(np.array([[3, 0, 3]]), 5, pool, rng)
    assert negs.tolist() == [[3, 0, 3]] * 5


def test_sample_negatives_deterministic_under_seed():
    pool = np.arange(10)
    batch = np.array([[0, 0, 1], [2, 1, 3]])
    a = sample_negatives(batch, 8, pool, np.random.default_rng(99))
    b = sample_negatives(batch, 8, pool, np.random.default_rng(99))
    assert a.shape == (16, 3)
    assert np.array_equal(a, b)


def test_sample_negatives_only_replaces_one_side_from_pool():
    # pool disjoint from the positives' entities, so the corrupted side is
    # unambiguous; row i*k + j corrupts triple i
    pool = np.array([5, 6, 7])
    rng = np.random.default_rng(1)
    batch = np.array([[0, 3, 1], [2, 4, 3]])
    negs = sample_negatives(batch, 50, pool, rng)
    assert negs.shape == (100, 3)
    for i, (h, r, t) in enumerate(batch.tolist()):
        sides = set()
        for neg_h, neg_r, neg_t in negs[i * 50:(i + 1) * 50].tolist():
            assert neg_r == r
            changed_head = neg_h != h
            changed_tail = neg_t != t
            assert changed_head != changed_tail
            sides.add("h" if changed_head else "t")
            assert (neg_h if changed_head else neg_t) in pool
        assert sides == {"h", "t"}


def test_sample_negatives_uniform_frequency():
    pool = np.arange(100)
    rng = np.random.default_rng(2024)
    n = 10_000
    negs = sample_negatives(np.array([[500, 0, 501]]), n, pool, rng)
    sampled = np.where(negs[:, 0] != 500, negs[:, 0], negs[:, 2])
    counts = np.bincount(sampled, minlength=100)
    assert counts.sum() == n and len(counts) == 100
    expected = n / 100
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # chi-square with 99 dof: mean 99, SD ~14; 160 is beyond 4 sigma
    assert chi2 < 160, f"negative sampling frequencies look non-uniform (chi2={chi2:.1f})"


def _per_row_step(params, moments, t, g, lr):
    """The optimizers as one Python update per gradient row (``moments`` None: SGD)."""
    for name, table, rows in zip("er", (params.entities, params.relations), grad_rows(g)):
        for rid, vec in rows.items():
            if moments is None:
                table[rid] -= lr * vec
                continue
            m, v = moments[name]
            m[rid] = ADAM_BETA1 * m[rid] + (1.0 - ADAM_BETA1) * vec
            v[rid] = ADAM_BETA2 * v[rid] + (1.0 - ADAM_BETA2) * vec * vec
            bc1, bc2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
            table[rid] -= lr * (m[rid] / bc1) / (np.sqrt(v[rid] / bc2) + ADAM_EPS)


@pytest.mark.parametrize("kind", ["distmult", "rescal"])
@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_optimizer_step_equals_per_row_loop(kind, optimizer):
    rng = np.random.default_rng(8)
    params = init_params(kind, 10, 3, 4, seed=8)
    reference = params.copy()
    opt = (_Adam if optimizer == "adam" else _Sgd)(params, 0.05)
    moments = None if optimizer == "sgd" else {
        "e": (np.zeros_like(params.entities), np.zeros_like(params.entities)),
        "r": (np.zeros_like(params.relations), np.zeros_like(params.relations)),
    }
    for step in (1, 2, 3):
        h, r, t = rng.integers(10, size=12), rng.integers(3, size=12), rng.integers(10, size=12)
        g = grad(Batch(params, h, r, t), rng.normal(size=12))
        opt.step(g)
        _per_row_step(reference, moments, step, g, 0.05)
        assert np.array_equal(params.entities, reference.entities)
        assert np.array_equal(params.relations, reference.relations)


def _traced_peak(call):
    """The peak bytes that ``call()`` allocates, as numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_training_step_transient_memory_is_bounded(kind):
    # One batch of 512 positives and 512 negatives on a KG of FB15K-237's
    # relation count: the batch, its score and its grad hold a few (m, w) row
    # arrays at a time and the Adam step a few arrays of the gradient's rows,
    # never one per operation.
    rng = np.random.default_rng(12)
    m, n_entities, n_relations = 1024, 2000, 237
    h, r, t = (rng.integers(n, size=m) for n in (n_entities, n_relations, n_entities))
    upstream = rng.normal(size=m)
    params = init_params(kind, n_entities, n_relations, 16, seed=12)
    adam = _Adam(params, 0.05)

    def step():
        batch = Batch(params, h, r, t)
        score(batch)
        return grad(batch, upstream)

    g, grad_peak = _traced_peak(step)
    _, step_peak = _traced_peak(lambda: adam.step(g))
    row_array = m * params.entities.shape[1] * 8
    assert grad_peak <= 8 * row_array + g.relation_rows.nbytes
    assert step_peak <= 4 * (g.entity_rows.nbytes + g.relation_rows.nbytes)


def test_margin_batch_loss_keeps_only_pairs_inside_the_margin():
    pos = np.array([[0, 0, 1], [2, 1, 3]])
    neg = np.array([[0, 0, 2], [3, 0, 1], [2, 1, 0], [1, 1, 3]])  # k = 2
    loss, positions, upstream = _batch_loss(
        "margin", 1.0, np.array([5.0, 4.0]), np.array([4.5, 2.0, 2.0, 3.5]))
    assert loss == pytest.approx((0.5 + 0.5) / 2 / 2)
    assert positions.tolist() == [0, 1, 2, 5]
    contributing = np.concatenate([pos, neg])[positions]
    assert contributing.tolist() == [[0, 0, 1], [2, 1, 3], [0, 0, 2], [1, 1, 3]]
    assert upstream.tolist() == [-0.25, -0.25, 0.25, 0.25]


def test_margin_batch_without_active_pair_moves_no_row_and_advances_adam():
    pos = np.array([[0, 0, 1], [2, 1, 3]])
    neg = np.array([[0, 0, 2], [3, 0, 1], [2, 1, 0], [1, 1, 3]])
    loss, positions, upstream = _batch_loss(
        "margin", 1.0, np.array([5.0, 4.0]), np.full(4, 2.0))
    assert loss == 0.0 and positions.shape == (0,) and upstream.shape == (0,)
    params = init_params("distmult", 4, 2, 3, seed=0)
    reference = params.copy()
    adam = _Adam(params, 0.1)
    adam.step(grad(Batch(params, *np.concatenate([pos, neg]).T).take(positions), upstream))
    assert adam.t == 1
    assert np.array_equal(params.entities, reference.entities)
    assert np.array_equal(params.relations, reference.relations)
    # the next step's bias correction is that of step 2
    g = grad(Batch(params, *pos.T), np.array([1.0, -2.0]))
    adam.step(g)
    moments = {"e": (np.zeros_like(params.entities), np.zeros_like(params.entities)),
               "r": (np.zeros_like(params.relations), np.zeros_like(params.relations))}
    _per_row_step(reference, moments, 2, g, 0.1)
    assert np.array_equal(params.entities, reference.entities)
    assert np.array_equal(params.relations, reference.relations)


def _sparse_grad_bytes(g) -> tuple[bytes, ...]:
    return (g.entity_ids.tobytes(), g.entity_rows.tobytes(),
            g.relation_ids.tobytes(), g.relation_rows.tobytes())


@pytest.mark.parametrize("reciprocal", [False, True])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_margin_gradient_by_position_equals_the_gathered_batch_bit_for_bit(kind, reciprocal):
    # train picks the margin loss's contributing triples from the scored batch
    # by position; gathering them from the tables as a batch of their own must
    # give the same gradient and the same Adam step, bit for bit
    ds = _toy_train_dataset(seed=6, n_entities=12, n_train=30)
    rows, n_relations = ds.train, ds.vocab.n_relations
    if reciprocal:
        rows, n_relations = augment_reciprocal(rows, n_relations), 2 * n_relations
    params = init_params(kind, ds.vocab.n_entities, n_relations, 5, seed=6)
    rng = np.random.default_rng(6)
    pos = rows[rng.permutation(len(rows))[:16]]
    triples = np.concatenate([pos, sample_negatives(pos, 3, np.arange(12), rng)])
    active_pairs = []
    for margin in (1e3, 1e-3, -1e3):  # every pair, some pairs, no pair inside the margin
        batch = Batch(params, *triples.T)
        s = score(batch)
        _, positions, upstream = _batch_loss("margin", margin, s[:16], s[16:])
        active_pairs.append(len(positions) // 2)
        gathered = grad(Batch(params, *triples[positions].T), upstream)
        unscored = grad(Batch(params, *triples.T).take(positions), upstream)
        by_position = grad(batch.take(positions), upstream)
        assert _sparse_grad_bytes(by_position) == _sparse_grad_bytes(gathered)
        assert _sparse_grad_bytes(unscored) == _sparse_grad_bytes(gathered)
        stepped = [params.copy(), params.copy()]
        for p, g in zip(stepped, (by_position, gathered)):
            adam = _Adam(p, 0.05)
            adam.step(g)
            assert adam.t == 1
        assert stepped[0].entities.tobytes() == stepped[1].entities.tobytes()
        assert stepped[0].relations.tobytes() == stepped[1].relations.tobytes()
    assert active_pairs[0] == 48 and 0 < active_pairs[1] < 48 and active_pairs[2] == 0


def _toy_train_dataset(seed=0, n_entities=12, n_train=24):
    rng = np.random.default_rng(seed)
    return random_kg(rng, n_entities=n_entities, n_relations=2, n_train=n_train)


def test_train_update_count_single_triple():
    ds = make_dataset([("a", "p", "b")], [], [])
    config = TrainConfig(model="distmult", dim=4, epochs=1, batch_size=8, seed=0)
    result = train(ds, config)
    assert result.n_updates == 1
    assert len(result.epoch_losses) == 1


def test_train_update_count_batches():
    ds = _toy_train_dataset()
    config = TrainConfig(model="distmult", dim=4, epochs=3, batch_size=10, seed=0)
    result = train(ds, config)
    assert result.n_updates == 3 * ((24 + 9) // 10)


def test_train_zero_epochs_invalid():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


def test_train_update_locality_and_oov_rows_untouched():
    # entity "frozen" and relation "q" appear only in valid/test
    train_rows = [("a", "p", "b"), ("b", "p", "c"), ("c", "p", "a"), ("a", "p", "c")]
    ds = make_dataset(train_rows, [("frozen", "p", "a")], [("b", "q", "a")])
    config = TrainConfig(model="distmult", dim=6, epochs=4, batch_size=2,
                         negatives=2, seed=3, loss="logistic")
    result = train(ds, config)
    baseline = init_params(config.model, ds.vocab.n_entities, ds.vocab.n_relations,
                           config.dim, config.seed)
    train_ents = {e for h, _, t in ds.train.tolist() for e in (h, t)}
    train_rels = {r for _, r, _ in ds.train.tolist()}
    mutated_ents = {i for i in range(ds.vocab.n_entities)
                    if not np.array_equal(result.params.entities[i], baseline.entities[i])}
    mutated_rels = {i for i in range(ds.vocab.n_relations)
                    if not np.array_equal(result.params.relations[i], baseline.relations[i])}
    assert mutated_ents == train_ents
    assert mutated_rels == train_rels
    # the OOV rows are bit-identical to initialization
    frozen_id = ds.vocab.entity_id("frozen")
    assert result.params.entities[frozen_id].tobytes() == baseline.entities[frozen_id].tobytes()
    q_id = ds.vocab.relation_id("q")
    assert result.params.relations[q_id].tobytes() == baseline.relations[q_id].tobytes()


def test_train_deterministic_per_seed():
    ds = _toy_train_dataset(seed=1)
    config = TrainConfig(model="complex", dim=4, epochs=3, batch_size=8, seed=11)
    a = train(ds, config)
    b = train(ds, config)
    assert np.array_equal(a.params.entities, b.params.entities)
    assert np.array_equal(a.params.relations, b.params.relations)
    assert a.epoch_losses == b.epoch_losses
    c = train(ds, TrainConfig(model="complex", dim=4, epochs=3, batch_size=8, seed=12))
    assert not np.array_equal(a.params.entities, c.params.entities)


@pytest.mark.parametrize("kind,loss,optimizer", [
    ("distmult", "logistic", "adam"),
    ("transe", "margin", "sgd"),
    ("rescal", "logistic", "adam"),
    ("complex", "margin", "adam"),
])
def test_train_loss_decreases(kind, loss, optimizer):
    ds = _toy_train_dataset(seed=2, n_entities=10, n_train=20)
    config = TrainConfig(model=kind, dim=8, epochs=25, batch_size=8, lr=0.05,
                         negatives=2, loss=loss, optimizer=optimizer, seed=5)
    result = train(ds, config)
    assert all(np.isfinite(result.epoch_losses))
    assert result.epoch_losses[-1] < result.epoch_losses[0]


def test_train_reciprocal_doubles_relation_rows():
    ds = _toy_train_dataset(seed=3)
    config = TrainConfig(model="distmult", dim=4, epochs=2, batch_size=8,
                         reciprocal=True, seed=0)
    result = train(ds, config)
    assert result.params.n_relations == 2 * ds.vocab.n_relations
    assert result.params.reciprocal
    assert not train(ds, replace(config, reciprocal=False)).params.reciprocal


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_train_aborts_on_non_finite_loss():
    ds = _toy_train_dataset(seed=4)
    config = TrainConfig(model="rescal", dim=4, epochs=5, batch_size=4,
                         lr=1e160, optimizer="sgd", loss="logistic", seed=0)
    with pytest.raises(TrainingError, match="batch"):
        train(ds, config)


def test_margin_is_validated_for_the_resolved_loss():
    with pytest.raises(ValueError, match="margin"):
        TrainConfig(model="transe", margin=-1.0)  # margin loss by default
    with pytest.raises(ValueError, match="margin"):
        TrainConfig(model="distmult", loss="margin", margin=0.0)
    assert TrainConfig(model="transe", loss="logistic", margin=-1.0).margin == -1.0


def test_config_refuses_unknown_choices():
    with pytest.raises(ValueError, match="unknown model 'bogus'"):
        TrainConfig(model="bogus")
    with pytest.raises(ValueError, match="unknown loss"):
        TrainConfig(loss="hinge")
    with pytest.raises(ValueError, match="unknown optimizer"):
        TrainConfig(optimizer="lbfgs")
    for model in MODEL_KINDS:
        for loss in (None, *LOSSES):
            for optimizer in OPTIMIZERS:
                TrainConfig(model=model, loss=loss, optimizer=optimizer)


def test_default_loss_depends_on_model():
    assert TrainConfig(model="transe").resolved_loss() == "margin"
    assert TrainConfig(model="distmult").resolved_loss() == "logistic"
    assert TrainConfig(model="transe", loss="logistic").resolved_loss() == "logistic"


def test_config_from_file_with_overrides(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "model = transe\n"
        "dim = 16  # embedding width\n"
        "epochs = 7\n"
        "reciprocal = true\n"
        "lr = 0.01\n"
    )
    config = TrainConfig.from_file(cfg, epochs=9)
    assert config.model == "transe"
    assert config.dim == 16
    assert config.epochs == 9  # override wins
    assert config.reciprocal is True
    assert config.lr == 0.01


def test_config_from_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("momentum = 0.9\n")
    with pytest.raises(ValueError, match="unknown config key"):
        TrainConfig.from_file(cfg)


def test_write_loss_csv(tmp_path):
    path = tmp_path / "loss.csv"
    write_loss_csv(path, [1.5, 0.75])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,mean_loss"
    assert lines[1].startswith("1,") and lines[2].startswith("2,")
