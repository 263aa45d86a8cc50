import numpy as np
import pytest

from kgbench.models import (
    MODEL_KINDS,
    CheckpointError,
    ModelParams,
    grad,
    init_params,
    load_checkpoint,
    save_checkpoint,
    score,
    score_all_heads,
    score_all_relations,
    score_all_tails,
)

from oracles import central_difference_grad, score_via_params


def test_transe_translation_identity_scores_zero():
    entities = np.array([[0.0, 0.0], [1.0, 2.0]])
    relations = np.array([[1.0, 2.0]])
    p = ModelParams("transe", 2, entities, relations)
    assert score(p, 0, 0, 1) == 0.0
    # zero is the maximum attainable
    assert score(p, 1, 0, 0) <= 0.0
    assert score_all_tails(p, 0, 0).max() == 0.0


def test_distmult_all_ones_scores_dim():
    p = ModelParams("distmult", 4, np.ones((3, 4)), np.ones((2, 4)))
    assert score(p, 0, 0, 1) == 4.0


def test_complex_with_zero_imaginary_equals_distmult():
    rng = np.random.default_rng(0)
    d = 5
    real_e = rng.normal(size=(6, d))
    real_r = rng.normal(size=(2, d))
    cx = ModelParams("complex", d,
                     np.hstack([real_e, np.zeros((6, d))]),
                     np.hstack([real_r, np.zeros((2, d))]))
    dm = ModelParams("distmult", d, real_e, real_r)
    for h, r, t in ((0, 0, 1), (2, 1, 3), (5, 0, 5)):
        assert score(cx, h, r, t) == pytest.approx(score(dm, h, r, t), rel=1e-12)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_score_matches_scalar_loop_oracle(kind):
    rng = np.random.default_rng(42)
    p = init_params(kind, 7, 3, 4, seed=9)
    oracle = score_via_params(p)
    for _ in range(25):
        h, r, t = int(rng.integers(7)), int(rng.integers(3)), int(rng.integers(7))
        assert score(p, h, r, t) == pytest.approx(oracle(h, r, t), rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_score_all_matches_scalar_path(kind):
    p = init_params(kind, 50, 4, 6, seed=3)
    for h, r, t in ((0, 0, 1), (10, 2, 49), (31, 3, 31)):
        tails = score_all_tails(p, h, r)
        heads = score_all_heads(p, r, t)
        rels = score_all_relations(p, h, t)
        assert tails.shape == (50,) and heads.shape == (50,) and rels.shape == (4,)
        for x in range(50):
            s = score(p, h, r, x)
            assert abs(tails[x] - s) < 1e-6 * (1 + abs(s))
            s = score(p, x, r, t)
            assert abs(heads[x] - s) < 1e-6 * (1 + abs(s))
        for x in range(4):
            s = score(p, h, x, t)
            assert abs(rels[x] - s) < 1e-6 * (1 + abs(s))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_score_on_arrays_equals_scalar_score(kind):
    rng = np.random.default_rng(5)
    p = init_params(kind, 9, 3, 6, seed=5)
    h, r, t = rng.integers(9, size=60), rng.integers(3, size=60), rng.integers(9, size=60)
    batch = score(p, h, r, t)
    assert batch.dtype == np.float64 and batch.shape == (60,)
    scalars = [score(p, a, b, c) for a, b, c in zip(h.tolist(), r.tolist(), t.tolist())]
    assert all(type(x) is float for x in scalars)
    # BLAS may sum RESCAL's one-row matmul in another order than a many-row one
    np.testing.assert_allclose(batch, scalars, rtol=1e-12, atol=1e-15)


def _per_triple_terms(p, h, r, t, upstream):
    """{id: [gradient row of each triple touching it]} from one grad call per triple."""
    entities, relations = {}, {}
    for a, b, c, u in zip(h.tolist(), r.tolist(), t.tolist(), upstream.tolist()):
        g = grad(p, a, b, c, upstream=u)
        for terms, rows in ((entities, g.entities), (relations, g.relations)):
            for rid, vec in rows.items():
                terms.setdefault(rid, []).append(vec)
    return entities, relations


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_batched_grad_equals_sum_of_per_triple_grads(kind):
    rng = np.random.default_rng(23)
    p = init_params(kind, 7, 3, 4, seed=23)
    p.entities[:] = rng.normal(scale=0.5, size=p.entities.shape)
    p.relations[:] = rng.normal(scale=0.5, size=p.relations.shape)
    h, r, t = rng.integers(7, size=40), rng.integers(3, size=40), rng.integers(7, size=40)
    h[:5] = t[:5]  # reflexive triples
    upstream = rng.normal(size=41)
    upstream[30:33] = 0.0  # rows still touched, with a zero gradient
    # a negative equal to its positive, with the opposite upstream
    h, r, t = np.append(h, h[10]), np.append(r, r[10]), np.append(t, t[10])
    upstream[40] = -upstream[10]
    g = grad(p, h, r, t, upstream)
    ent_terms, rel_terms = _per_triple_terms(p, h, r, t, upstream)
    assert g.entity_ids.tolist() == sorted(set(h.tolist()) | set(t.tolist()))
    assert g.relation_ids.tolist() == sorted(set(r.tolist()))
    for ids, rows, terms in ((g.entity_ids, g.entity_rows, ent_terms),
                             (g.relation_ids, g.relation_rows, rel_terms)):
        assert ids.tolist() == sorted(terms) and len(rows) == len(ids)
        for rid, row in zip(ids.tolist(), rows):
            stacked = np.array(terms[rid])
            assert np.all(np.abs(row - stacked.sum(axis=0))
                          <= 1e-12 * np.abs(stacked).sum(axis=0))
    assert g.entities.keys() == set(g.entity_ids.tolist())
    assert g.relations.keys() == set(g.relation_ids.tolist())


def test_grad_of_no_triples_is_empty():
    for kind in MODEL_KINDS:
        p = init_params(kind, 4, 2, 3, seed=0)
        none = np.zeros(0, dtype=np.int64)
        g = grad(p, none, none, none, np.zeros(0))
        assert g.entity_ids.size == 0 and g.relation_ids.size == 0
        assert g.entity_rows.shape == (0,) + p.entities.shape[1:]
        assert g.relation_rows.shape == (0,) + p.relations.shape[1:]


def test_score_all_single_entity():
    p = init_params("distmult", 1, 1, 3, seed=0)
    v = score_all_tails(p, 0, 0)
    assert v.shape == (1,)
    assert v[0] == pytest.approx(score(p, 0, 0, 0))


def test_distmult_symmetry_tails_equals_heads():
    p = init_params("distmult", 12, 2, 5, seed=4)
    for h in range(12):
        for r in range(2):
            tails = score_all_tails(p, h, r)
            for t in range(12):
                assert tails[t] == pytest.approx(score_all_heads(p, r, t)[h], rel=1e-12)


def test_distmult_is_symmetric_complex_can_be_antisymmetric():
    dm = init_params("distmult", 8, 2, 4, seed=1)
    for _ in range(20):
        rng = np.random.default_rng(_)
        h, r, t = int(rng.integers(8)), int(rng.integers(2)), int(rng.integers(8))
        assert score(dm, h, r, t) == pytest.approx(score(dm, t, r, h), rel=1e-12)
    # explicit construction with nonzero imaginary parts
    entities = np.array([[1.0, 0.0], [0.0, 1.0]])  # d=1: e0 = 1, e1 = i
    relations = np.array([[0.0, 1.0]])  # w = i
    cx = ModelParams("complex", 1, entities, relations)
    assert score(cx, 0, 0, 1) != pytest.approx(score(cx, 1, 0, 0))


def test_grad_distmult_hand_example():
    p = ModelParams("distmult", 1, np.array([[2.0], [5.0]]), np.array([[3.0]]))
    g = grad(p, 0, 0, 1)
    assert g.entities[0] == pytest.approx([15.0])  # w * e_t
    assert g.entities[1] == pytest.approx([6.0])   # e_h * w
    assert g.relations[0] == pytest.approx([10.0])  # e_h * e_t


def test_grad_zero_upstream_is_zero():
    p = init_params("rescal", 4, 2, 3, seed=2)
    g = grad(p, 0, 1, 2, upstream=0.0)
    assert all(np.all(v == 0) for v in g.entities.values())
    assert all(np.all(v == 0) for v in g.relations.values())


def test_transe_grad_at_singular_point_is_zero():
    entities = np.array([[0.0, 0.0], [1.0, 1.0]])
    relations = np.array([[1.0, 1.0]])
    p = ModelParams("transe", 2, entities, relations)
    g = grad(p, 0, 0, 1)  # e_h + w - e_t = 0 exactly
    assert np.all(g.entities[0] == 0.0)
    assert np.all(g.relations[0] == 0.0)
    assert not np.isnan(g.entities[1]).any()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_grad_matches_finite_differences(kind):
    rng = np.random.default_rng(17)
    p = init_params(kind, 6, 3, 4, seed=17)
    p.entities[:] = rng.normal(scale=0.5, size=p.entities.shape)
    p.relations[:] = rng.normal(scale=0.5, size=p.relations.shape)
    for trial in range(20):
        h, r, t = int(rng.integers(6)), int(rng.integers(3)), int(rng.integers(6))
        upstream = float(rng.normal())
        analytic = grad(p, h, r, t, upstream=upstream)
        numeric = central_difference_grad(score, p.copy(), h, r, t, upstream=upstream)
        for rid, vec in analytic.relations.items():
            assert np.allclose(vec, numeric["relations"][rid], rtol=1e-4, atol=1e-7)
        for eid, vec in analytic.entities.items():
            assert np.allclose(vec, numeric["entities"][eid], rtol=1e-4, atol=1e-7)


def test_grad_combines_head_and_tail_for_reflexive_triples():
    p = init_params("distmult", 3, 1, 4, seed=8)
    g = grad(p, 1, 0, 1)
    expected = p.relations[0] * p.entities[1] + p.entities[1] * p.relations[0]
    assert np.allclose(g.entities[1], expected)
    numeric = central_difference_grad(score, p.copy(), 1, 0, 1)
    assert np.allclose(g.entities[1], numeric["entities"][1], rtol=1e-4, atol=1e-8)


def test_init_params_deterministic_per_seed():
    a = init_params("complex", 20, 5, 8, seed=33)
    b = init_params("complex", 20, 5, 8, seed=33)
    c = init_params("complex", 20, 5, 8, seed=34)
    assert np.array_equal(a.entities, b.entities)
    assert np.array_equal(a.relations, b.relations)
    assert not np.array_equal(a.entities, c.entities)


def test_init_params_shapes():
    p = init_params("rescal", 9, 4, 5, seed=0)
    assert p.entities.shape == (9, 5) and p.relations.shape == (4, 5, 5)
    p = init_params("complex", 9, 4, 5, seed=0)
    assert p.entities.shape == (9, 10) and p.relations.shape == (4, 10)


def test_init_params_mean_near_zero():
    p = init_params("distmult", 100, 3, 64, seed=12)
    assert abs(p.entities.mean()) < 0.01
    assert np.isfinite(p.entities).all() and np.isfinite(p.relations).all()


def _vocab(n_entities, n_relations):
    from kgbench import build_vocabulary

    triples = [(f"e{i}", f"r{i % n_relations}", f"e{(i + 1) % n_entities}")
               for i in range(max(n_entities, n_relations))]
    v = build_vocabulary(triples)
    assert v.n_entities == n_entities and v.n_relations == n_relations
    return v


def test_checkpoint_round_trip(tmp_path):
    vocab = _vocab(8, 3)
    p = init_params("rescal", 8, 3, 4, seed=5)
    path = tmp_path / "model.npz"
    save_checkpoint(p, path, vocab, reciprocal=True)
    loaded, meta = load_checkpoint(path, expected_vocab_sha256=vocab.sha256())
    assert loaded.kind == "rescal" and loaded.dim == 4
    assert np.array_equal(loaded.entities, p.entities)
    assert np.array_equal(loaded.relations, p.relations)
    assert meta["reciprocal"] is True
    assert meta["transe_norm"] == "l2"
    assert meta["entity_labels"] == list(vocab.entities)


def test_checkpoint_refuses_vocab_mismatch(tmp_path):
    p = init_params("transe", 4, 2, 3, seed=1)
    path = tmp_path / "model.npz"
    save_checkpoint(p, path, _vocab(4, 2))
    with pytest.raises(CheckpointError, match="hash"):
        load_checkpoint(path, expected_vocab_sha256="wrong")


def test_checkpoint_refuses_non_finite(tmp_path):
    p = init_params("transe", 4, 2, 3, seed=1)
    p.entities[0, 0] = np.nan
    path = tmp_path / "model.npz"
    save_checkpoint(p, path, _vocab(4, 2))
    with pytest.raises(CheckpointError, match="finite"):
        load_checkpoint(path)


def test_checkpoint_aligns_to_subset_vocabulary(tmp_path):
    from kgbench import build_vocabulary
    from kgbench.models import load_checkpoint_for

    vocab = build_vocabulary([("a", "p", "b"), ("b", "q", "c"), ("c", "p", "d")])
    p = init_params("distmult", vocab.n_entities, vocab.n_relations, 3, seed=2)
    path = tmp_path / "model.npz"
    save_checkpoint(p, path, vocab)
    # same vocabulary: rows come back unchanged
    same, _ = load_checkpoint_for(path, vocab)
    assert np.array_equal(same.entities, p.entities)
    # subset vocabulary (as after correction): rows gathered by label
    sub = build_vocabulary([("b", "q", "a"), ("a", "q", "d")])
    aligned, _ = load_checkpoint_for(path, sub)
    for label in sub.entities:
        assert np.array_equal(aligned.entities[sub.entity_id(label)],
                              p.entities[vocab.entity_id(label)])
    assert np.array_equal(aligned.relations[sub.relation_id("q")],
                          p.relations[vocab.relation_id("q")])
    # unknown label: refused
    alien = build_vocabulary([("zz", "p", "a")])
    with pytest.raises(CheckpointError, match="cover"):
        load_checkpoint_for(path, alien)


def test_checkpoint_alignment_keeps_reciprocal_blocks(tmp_path):
    from kgbench import build_vocabulary
    from kgbench.models import load_checkpoint_for

    vocab = build_vocabulary([("a", "p", "b"), ("b", "q", "c")])
    # reciprocal checkpoint: 2|R| relation rows, inverse of r at |R| + r
    p = init_params("distmult", vocab.n_entities, 2 * vocab.n_relations, 3, seed=4)
    path = tmp_path / "model.npz"
    save_checkpoint(p, path, vocab, reciprocal=True)
    sub = build_vocabulary([("c", "q", "a")])
    aligned, meta = load_checkpoint_for(path, sub)
    assert meta["reciprocal"] is True
    assert aligned.n_relations == 2  # q and q_inv
    q_old = vocab.relation_id("q")
    assert np.array_equal(aligned.relations[0], p.relations[q_old])
    assert np.array_equal(aligned.relations[1],
                          p.relations[vocab.n_relations + q_old])


def test_score_rejects_out_of_range_ids():
    p = init_params("distmult", 3, 2, 4, seed=0)
    with pytest.raises(IndexError):
        score(p, 3, 0, 0)
    with pytest.raises(IndexError):
        score(p, 0, 2, 0)
    with pytest.raises(IndexError):
        score_all_tails(p, 0, 5)
    ids = np.array([0, 1])
    with pytest.raises(IndexError):
        score(p, ids, ids, np.array([0, 3]))
    with pytest.raises(IndexError):
        grad(p, ids, np.array([0, -1]), ids)
    with pytest.raises(ValueError, match="equal-length"):
        score(p, ids, ids, np.array([0]))
