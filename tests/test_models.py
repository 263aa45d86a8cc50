from dataclasses import replace

import numpy as np
import pytest

from kgbench.models import (
    MODEL_KINDS,
    _query,
    _reduce_rows,
    _runs,
    Batch,
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
    pair_scores,
    screen,
    screen_table,
)

from conftest import score_one
from oracles import (
    central_difference_grad,
    complex_query,
    grad_rows,
    rescal_query,
    score_via_params,
)

DOT_KINDS = ("rescal", "distmult", "complex")


def test_transe_translation_identity_scores_zero():
    entities = np.array([[0.0, 0.0], [1.0, 2.0]])
    relations = np.array([[1.0, 2.0]])
    p = ModelParams("transe", 2, entities, relations)
    assert score_one(p, 0, 0, 1) == 0.0
    # zero is the maximum attainable
    assert score_one(p, 1, 0, 0) <= 0.0
    assert score_all_tails(p, 0, 0).max() == 0.0


def test_distmult_all_ones_scores_dim():
    p = ModelParams("distmult", 4, np.ones((3, 4)), np.ones((2, 4)))
    assert score_one(p, 0, 0, 1) == 4.0


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
        assert score_one(cx, h, r, t) == pytest.approx(score_one(dm, h, r, t), rel=1e-12)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_score_matches_scalar_loop_oracle(kind):
    rng = np.random.default_rng(42)
    p = init_params(kind, 7, 3, 4, seed=9)
    oracle = score_via_params(p)
    for _ in range(25):
        h, r, t = int(rng.integers(7)), int(rng.integers(3)), int(rng.integers(7))
        assert score_one(p, h, r, t) == pytest.approx(oracle(h, r, t), rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_score_all_matches_scalar_path(kind):
    p = init_params(kind, 50, 4, 6, seed=3)
    for h, r, t in ((0, 0, 1), (10, 2, 49), (31, 3, 31)):
        tails = score_all_tails(p, h, r)
        heads = score_all_heads(p, r, t)
        rels = score_all_relations(p, h, t)
        assert tails.shape == (50,) and heads.shape == (50,) and rels.shape == (4,)
        for x in range(50):
            s = score_one(p, h, r, x)
            assert abs(tails[x] - s) < 1e-6 * (1 + abs(s))
            s = score_one(p, x, r, t)
            assert abs(heads[x] - s) < 1e-6 * (1 + abs(s))
        for x in range(4):
            s = score_one(p, h, x, t)
            assert abs(rels[x] - s) < 1e-6 * (1 + abs(s))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_score_on_arrays_equals_scalar_score(kind):
    rng = np.random.default_rng(5)
    p = init_params(kind, 9, 3, 6, seed=5)
    h, r, t = rng.integers(9, size=60), rng.integers(3, size=60), rng.integers(9, size=60)
    batch = score(Batch(p, h, r, t))
    assert batch.dtype == np.float64 and batch.shape == (60,)
    scalars = [score_one(p, a, b, c) for a, b, c in zip(h.tolist(), r.tolist(), t.tolist())]
    # BLAS may sum RESCAL's one-row matmul in another order than a many-row one
    np.testing.assert_allclose(batch, scalars, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_score_all_on_id_arrays_equals_one_query_per_call(kind):
    rng = np.random.default_rng(11)
    p = init_params(kind, 13, 5, 6, seed=2)
    h, r, t = rng.integers(13, size=30), rng.integers(5, size=30), rng.integers(13, size=30)
    blocks = {"tails": (score_all_tails, h, r), "heads": (score_all_heads, r, t),
              "relations": (score_all_relations, h, t)}
    for name, (score_all, a, b) in blocks.items():
        block = score_all(p, a, b)
        width = 5 if name == "relations" else 13
        assert block.shape == (30, width) and score_all(p, a[:0], b[:0]).shape == (0, width)
        rows = np.array([score_all(p, x, y) for x, y in zip(a.tolist(), b.tolist())])
        assert np.array_equal(block, rows), name  # summed in coordinate order: no dependence on the block


@pytest.mark.parametrize("kind", ["transe", "distmult", "complex"])
def test_score_all_tails_equal_the_scalar_oracle_bit_for_bit(kind):
    # one term per coordinate, added in coordinate order, as the oracle adds them
    rng = np.random.default_rng(17)
    for dim in (1, 2, 7, 16, 33):
        p = init_params(kind, 30, 4, dim, seed=dim)
        p.entities[:] = rng.normal(size=p.entities.shape)
        p.relations[:] = rng.normal(size=p.relations.shape)
        oracle = score_via_params(p)
        h, r = rng.integers(30, size=8), rng.integers(4, size=8)
        block = score_all_tails(p, h, r)
        want = [[oracle(a, b, x) for x in range(30)] for a, b in zip(h.tolist(), r.tolist())]
        assert np.array_equal(block, want), dim


def test_rescal_entity_queries_equal_the_loop_oracle_bit_for_bit():
    # Ranking's RESCAL entity query is summed in coordinate order, as the
    # oracle sums it, so it does not depend on the queries beside it.
    rng = np.random.default_rng(23)
    for dim in (1, 2, 3, 4, 7, 8, 16, 33, 64):
        p = init_params("rescal", 20, 4, dim, seed=dim)
        p.entities[:] = rng.normal(size=p.entities.shape)
        p.relations[:] = rng.normal(size=p.relations.shape)
        E, R = p.entities.tolist(), p.relations.tolist()
        h, r, t = rng.integers(20, size=65), rng.integers(4, size=65), rng.integers(20, size=65)
        for score_all, slot, a, b, e in ((score_all_tails, "t", h, r, h),
                                         (score_all_heads, "h", r, t, t)):
            want = []
            for x, rel in zip(e.tolist(), r.tolist()):
                q = rescal_query(slot, E[x], R[rel])
                want.append([_coordinate_sum([qj * ej for qj, ej in zip(q, row)]) for row in E])
            assert np.array_equal(score_all(p, a, b), want), (dim, slot)
            assert np.array_equal(score_all(p, a[0], b[0]), want[0]), (dim, slot)


def _coordinate_sum(terms):
    total = 0.0
    for term in terms:
        total += term
    return total


def _assert_pair_scores_equal_score_all(kind, dim):
    # the ranker's recount of near ties and score_all_* make one formula
    rng = np.random.default_rng(dim)
    p = init_params(kind, 40, 6, dim, seed=dim)
    h, r, t = rng.integers(40, size=25), rng.integers(6, size=25), rng.integers(40, size=25)
    for slot, score_all, a, b, n in (("t", score_all_tails, h, r, 40),
                                     ("h", score_all_heads, r, t, 40),
                                     ("r", score_all_relations, h, t, 6)):
        x = rng.integers(n, size=25)
        queries = screen(p, screen_table(p, slot), slot, a, b, x)[1]
        want = score_all(p, a, b)[np.arange(25), x]
        assert np.array_equal(pair_scores(p, slot, queries, x), want), slot
        assert pair_scores(p, slot, queries[:0], x[:0]).shape == (0,)


@pytest.mark.parametrize("dim", [1, 2, 16, 33])
def test_transe_pair_scores_equal_score_all_bit_for_bit(dim):
    _assert_pair_scores_equal_score_all("transe", dim)


@pytest.mark.parametrize("dim", [1, 2, 16, 33])
@pytest.mark.parametrize("kind", DOT_KINDS)
def test_pair_scores_equal_score_all_bit_for_bit(kind, dim):
    _assert_pair_scores_equal_score_all(kind, dim)


def test_transe_screen_sends_rows_that_may_overflow_to_the_band():
    # |q|^2 + max |e|^2 is past an eighth of the largest float, so some order of
    # summing the screen's product may overflow: the whole row is NaN, which is
    # in the band, and the bound stays finite so that -inf columns stay out of it
    entities = np.array([[0.9e154, 0.9e154], [0.9e154, 0.9e154], [1.0, 1.0]])
    p = ModelParams("transe", 2, entities, np.zeros((1, 2)))
    with np.errstate(over="ignore", invalid="ignore"):
        plane, queries, bound = screen(p, screen_table(p, "t"), "t", np.array([0, 2]),
                                       np.array([0, 0]), np.array([1, 2]))
    assert np.isnan(plane).all() and np.isfinite(bound)
    assert pair_scores(p, "t", queries, np.array([1, 2])).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("slot", ["h", "r", "t"])
def test_complex_query_equals_the_concatenated_products(slot):
    rng = np.random.default_rng(31)
    dim = 5
    a, b = rng.normal(size=(2, 9, 2 * dim))
    a[0, :3], b[1, 2:4] = 0.0, -0.0  # signed zeros must come out alike too
    for x, y in ((a, b), (a[3], b), (a, b[4]), (a[5], b[6])):  # one row broadcast against many
        got = _query("complex", dim, slot, x, y)
        want = complex_query(dim, slot, x, y)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _per_triple_terms(p, h, r, t, upstream):
    """{id: [gradient row of each triple touching it]} from one grad call per triple."""
    entities, relations = {}, {}
    for a, b, c, u in zip(h.tolist(), r.tolist(), t.tolist(), upstream.tolist()):
        for terms, rows in zip((entities, relations), grad_rows(grad(Batch(p, a, b, c), u))):
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
    g = grad(Batch(p, h, r, t), upstream)
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


def _reduce_cases():
    rng = np.random.default_rng(41)
    every_length = np.repeat(rng.permutation(40), np.arange(1, 41))  # runs of 1 to 40 rows
    return {
        "every_length": rng.permutation(every_length),
        "singletons": rng.permutation(500),
        "one_id": np.full(300, 7),
        "hub_skewed": rng.zipf(1.6, size=2048) % 300,
        "empty": np.zeros(0, dtype=np.int64),
    }


@pytest.mark.parametrize("case", ["every_length", "singletons", "one_id", "hub_skewed", "empty"])
def test_reduce_rows_equals_reduceat_over_the_stably_sorted_rows(case):
    ids = _reduce_cases()[case]
    rng = np.random.default_rng(len(ids))
    # magnitudes from 1e-8 to 1e8, so that another summation order rounds otherwise
    rows = rng.normal(size=(len(ids), 6)) * 10.0 ** rng.uniform(-8, 8, size=(len(ids), 1))
    stable = np.argsort(ids, kind="stable")
    order, starts = _runs(ids)
    assert np.array_equal(order, stable)
    ordered = ids[stable]
    assert starts.tolist() == [i for i in range(len(ids)) if i == 0 or ordered[i] != ordered[i - 1]]
    unique, sums = _reduce_rows(ids, rows)
    assert unique.tolist() == sorted(set(ids.tolist()))
    assert sums.shape == (len(unique), 6)
    if len(ids):
        assert sums.tobytes() == np.add.reduceat(rows[stable], starts, axis=0).tobytes()


def test_a_batch_gives_one_gradient():
    p = init_params("distmult", 4, 2, 3, seed=0)
    batch = Batch(p, np.array([0, 1]), np.array([1, 0]), np.array([2, 2]))
    before = score(batch)
    assert np.array_equal(score(batch), before)  # scoring again reuses the query
    grad(batch)
    with pytest.raises(ValueError, match="gradient"):
        grad(batch)
    with pytest.raises(ValueError, match="gradient"):
        score(batch)


def test_grad_of_no_triples_is_empty():
    for kind in MODEL_KINDS:
        p = init_params(kind, 4, 2, 3, seed=0)
        none = np.zeros(0, dtype=np.int64)
        g = grad(Batch(p, none, none, none), np.zeros(0))
        assert g.entity_ids.size == 0 and g.relation_ids.size == 0
        assert g.entity_rows.shape == (0,) + p.entities.shape[1:]
        assert g.relation_rows.shape == (0,) + p.relations.shape[1:]


def test_score_all_single_entity():
    p = init_params("distmult", 1, 1, 3, seed=0)
    v = score_all_tails(p, 0, 0)
    assert v.shape == (1,)
    assert v[0] == pytest.approx(score_one(p, 0, 0, 0))


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
        assert score_one(dm, h, r, t) == pytest.approx(score_one(dm, t, r, h), rel=1e-12)
    # explicit construction with nonzero imaginary parts
    entities = np.array([[1.0, 0.0], [0.0, 1.0]])  # d=1: e0 = 1, e1 = i
    relations = np.array([[0.0, 1.0]])  # w = i
    cx = ModelParams("complex", 1, entities, relations)
    assert score_one(cx, 0, 0, 1) != pytest.approx(score_one(cx, 1, 0, 0))


def test_grad_distmult_hand_example():
    p = ModelParams("distmult", 1, np.array([[2.0], [5.0]]), np.array([[3.0]]))
    entities, relations = grad_rows(grad(Batch(p, 0, 0, 1)))
    assert entities[0] == pytest.approx([15.0])  # w * e_t
    assert entities[1] == pytest.approx([6.0])   # e_h * w
    assert relations[0] == pytest.approx([10.0])  # e_h * e_t


def test_grad_zero_upstream_is_zero():
    p = init_params("rescal", 4, 2, 3, seed=2)
    g = grad(Batch(p, 0, 1, 2), 0.0)
    assert not g.entity_rows.any() and not g.relation_rows.any()


def test_transe_grad_at_singular_point_is_zero():
    entities = np.array([[0.0, 0.0], [1.0, 1.0]])
    relations = np.array([[1.0, 1.0]])
    p = ModelParams("transe", 2, entities, relations)
    entities, relations = grad_rows(grad(Batch(p, 0, 0, 1)))  # e_h + w - e_t = 0 exactly
    assert np.all(entities[0] == 0.0)
    assert np.all(relations[0] == 0.0)
    assert not np.isnan(entities[1]).any()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_grad_matches_finite_differences(kind):
    rng = np.random.default_rng(17)
    p = init_params(kind, 6, 3, 4, seed=17)
    p.entities[:] = rng.normal(scale=0.5, size=p.entities.shape)
    p.relations[:] = rng.normal(scale=0.5, size=p.relations.shape)
    for trial in range(20):
        h, r, t = int(rng.integers(6)), int(rng.integers(3)), int(rng.integers(6))
        upstream = float(rng.normal())
        analytic = grad(Batch(p, h, r, t), upstream)
        numeric = central_difference_grad(score_one, p.copy(), h, r, t, upstream=upstream)
        entities, relations = grad_rows(analytic)
        for rid, vec in relations.items():
            assert np.allclose(vec, numeric["relations"][rid], rtol=1e-4, atol=1e-7)
        for eid, vec in entities.items():
            assert np.allclose(vec, numeric["entities"][eid], rtol=1e-4, atol=1e-7)


def test_grad_combines_head_and_tail_for_reflexive_triples():
    p = init_params("distmult", 3, 1, 4, seed=8)
    entities, _ = grad_rows(grad(Batch(p, 1, 0, 1)))
    expected = p.relations[0] * p.entities[1] + p.entities[1] * p.relations[0]
    assert np.allclose(entities[1], expected)
    numeric = central_difference_grad(score_one, p.copy(), 1, 0, 1)
    assert np.allclose(entities[1], numeric["entities"][1], rtol=1e-4, atol=1e-8)


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


def test_model_params_refuse_tables_that_do_not_fit_kind_and_dim():
    for kind, dim, ent, rel in (("distmult", 4, (3, 8), (2, 8)),  # ComplEx-width tables
                                ("complex", 4, (3, 4), (2, 4)),
                                ("rescal", 4, (3, 4), (2, 4)),  # relation rows are d x d
                                ("transe", 4, (3, 4, 1), (2, 4)),
                                ("distmult", 0, (3, 0), (2, 0))):
        with pytest.raises(ValueError):
            ModelParams(kind, dim, np.ones(ent), np.ones(rel))
    ModelParams("rescal", 4, np.ones((3, 4)), np.ones((2, 4, 4)))


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
    for reciprocal in (False, True):
        p = replace(init_params("rescal", 8, 3 * (1 + reciprocal), 4, seed=5),
                    reciprocal=reciprocal)
        path = tmp_path / "model.npz"
        save_checkpoint(p, path, vocab)
        loaded, meta = load_checkpoint(path)
        assert loaded.kind == "rescal" and loaded.dim == 4
        assert loaded.reciprocal is reciprocal
        assert np.array_equal(loaded.entities, p.entities)
        assert np.array_equal(loaded.relations, p.relations)
        assert meta["reciprocal"] is reciprocal
        assert meta["vocab_sha256"] == vocab.sha256()
        assert meta["transe_norm"] == "l2"
        assert meta["entity_labels"] == list(vocab.entities)
        assert meta["relation_labels"] == list(vocab.relations)


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
    p = replace(init_params("distmult", vocab.n_entities, 2 * vocab.n_relations, 3, seed=4),
                reciprocal=True)
    path = tmp_path / "model.npz"
    save_checkpoint(p, path, vocab)
    sub = build_vocabulary([("c", "q", "a")])
    aligned, meta = load_checkpoint_for(path, sub)
    assert meta["reciprocal"] is True
    assert aligned.reciprocal
    assert aligned.n_relations == 2  # q and q_inv
    q_old = vocab.relation_id("q")
    assert np.array_equal(aligned.relations[0], p.relations[q_old])
    assert np.array_equal(aligned.relations[1],
                          p.relations[vocab.n_relations + q_old])


def test_score_rejects_out_of_range_ids():
    p = init_params("distmult", 3, 2, 4, seed=0)
    with pytest.raises(IndexError):
        Batch(p, 3, 0, 0)
    with pytest.raises(IndexError):
        Batch(p, 0, 2, 0)
    with pytest.raises(IndexError):
        score_all_tails(p, 0, 5)
    ids = np.array([0, 1])
    with pytest.raises(IndexError):
        Batch(p, ids, ids, np.array([0, 3]))
    with pytest.raises(IndexError):
        Batch(p, ids, np.array([0, -1]), ids)
    with pytest.raises(ValueError, match="equal-length"):
        Batch(p, ids, ids, np.array([0]))
    with pytest.raises(IndexError):
        score_all_relations(p, ids, np.array([0, 3]))
    with pytest.raises(ValueError, match="equal-length"):
        score_all_heads(p, ids, np.array([0]))
