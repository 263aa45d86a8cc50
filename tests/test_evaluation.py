import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, strategies as st

from kgbench import (
    ModelParams,
    Triple,
    detect_oov,
    evaluate,
    evaluate_relation_prediction,
    filter_index_build,
    init_params,
    load_dataset,
    split_vocab,
    write_corrected,
)
from kgbench.evaluation import (
    EvaluationError,
    _rank_pair,
    filtered_rank_pair,
    rank_records,
)
from kgbench.ingest import DatasetLayout
from kgbench.models import MODEL_KINDS

from conftest import make_dataset, random_kg, write_split_files
from oracles import brute_force_rank

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "src" / "kgbench" / "schemas"

TIES = ("mean", "optimistic", "pessimistic")
DIRECTIONS = ("tail", "head", "relation")


def test_single_candidate_ranks_first():
    ds = make_dataset([("a", "p", "a")], [], [])
    params = init_params("distmult", 1, 1, 3, seed=0)
    idx = filter_index_build(ds)
    assert filtered_rank_pair(params, idx, 0, 0, 0, "tail")[0] == 1.0
    assert filtered_rank_pair(params, idx, 0, 0, 0, "relation")[0] == 1.0


def test_strictly_highest_target_ranks_first_under_all_ties():
    ds = make_dataset([("a", "p", "b"), ("b", "p", "c")], [], [])
    entities = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
    relations = np.array([[1.0, 0.0]])
    params = ModelParams("transe", 2, entities, relations)  # e_a + w == e_b exactly
    idx = filter_index_build(ds)
    for tie in TIES:
        mrr_rank, hits_rank = filtered_rank_pair(params, idx, 0, 0, 1, "tail", tie)
        assert mrr_rank == 1.0 and hits_rank == 1


def test_rank_requires_triple_in_index():
    ds = make_dataset([("a", "p", "b"), ("b", "p", "a")], [], [])
    params = init_params("distmult", 2, 1, 3, seed=0)
    idx = filter_index_build(ds)
    with pytest.raises(EvaluationError, match="filter index"):
        filtered_rank_pair(params, idx, 0, 0, 0, "tail")[0]


def test_rank_pair_translation_invariance():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=40)
    scores[7] = scores[21]  # force a tie group
    mask = np.ones(40, dtype=bool)
    mask[5] = False
    for tie in TIES:
        base = _rank_pair(scores, mask, 21, tie)
        shifted = _rank_pair(scores + 123.456, mask, 21, tie)
        assert base == shifted


def test_boosting_a_filtered_candidate_never_changes_rank():
    ds = make_dataset(
        [("a", "p", "b"), ("a", "p", "c"), ("b", "p", "c"), ("c", "p", "a")], [], []
    )
    idx = filter_index_build(ds)
    params = init_params("distmult", 3, 1, 4, seed=1)
    a, b, c = (ds.vocab.entity_id(x) for x in "abc")
    before = filtered_rank_pair(params, idx, a, 0, b, "tail")
    # candidate c is known-true for (a, p, ?) and therefore filtered; make it
    # score arbitrarily high
    boosted = params.copy()
    boosted.entities[c] *= 1e6
    after = filtered_rank_pair(boosted, idx, a, 0, b, "tail")
    assert before == after


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_filtered_rank_matches_brute_force_oracle(kind):
    rng = np.random.default_rng(hash(kind) % 2**32)
    for trial in range(6):
        n_e = int(rng.integers(3, 8))
        n_r = int(rng.integers(1, 4))
        capacity = n_e * n_e * n_r
        n_train = min(int(rng.integers(4, 10)), capacity - 3)
        ds = random_kg(rng, n_e, n_r, n_train=n_train, n_valid=1, n_test=2)
        params = init_params(kind, ds.vocab.n_entities, ds.vocab.n_relations,
                             3, seed=trial)
        idx = filter_index_build(ds)
        union = set((t.h, t.r, t.t) for t in ds.all_triples())
        ent_cands = list(range(ds.vocab.n_entities))
        rel_cands = list(range(ds.vocab.n_relations))
        for tr in list(ds.test) + list(ds.valid):
            for direction in DIRECTIONS:
                cands = rel_cands if direction == "relation" else ent_cands
                for tie in TIES:
                    got = filtered_rank_pair(params, idx, *tr, direction, tie)
                    want = brute_force_rank(params, union, *tr, direction, tie, cands)
                    assert got == want, (kind, tr, direction, tie)


@given(st.data())
def test_filtered_rank_oracle_property(data):
    seed = data.draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    n_e = data.draw(st.integers(2, 8))
    n_r = data.draw(st.integers(1, 3))
    max_triples = n_e * n_e * n_r
    n_train = data.draw(st.integers(1, min(10, max_triples - 1)))
    n_test = data.draw(st.integers(1, min(3, max_triples - n_train)))
    ds = random_kg(rng, n_e, n_r, n_train=n_train, n_test=n_test)
    kind = data.draw(st.sampled_from(MODEL_KINDS))
    params = init_params(kind, ds.vocab.n_entities, ds.vocab.n_relations, 2, seed=seed)
    idx = filter_index_build(ds)
    union = set((t.h, t.r, t.t) for t in ds.all_triples())
    tr = ds.test[data.draw(st.integers(0, len(ds.test) - 1))]
    direction = data.draw(st.sampled_from(DIRECTIONS))
    tie = data.draw(st.sampled_from(TIES))
    cands = list(range(ds.vocab.n_relations if direction == "relation"
                       else ds.vocab.n_entities))
    got = filtered_rank_pair(params, idx, *tr, direction, tie)
    want = brute_force_rank(params, union, *tr, direction, tie, cands)
    assert got == want


def _perfect_transe_dataset(n_pairs=4):
    labeled = [(f"h{i}", "p", f"t{i}") for i in range(n_pairs)]
    ds = make_dataset(labeled, [], [])
    entities = np.zeros((2 * n_pairs, 2))
    for i in range(n_pairs):
        entities[ds.vocab.entity_id(f"h{i}")] = (10.0 * i, 0.0)
        entities[ds.vocab.entity_id(f"t{i}")] = (10.0 * i + 1.0, 0.0)
    relations = np.array([[1.0, 0.0]])
    return ds, ModelParams("transe", 2, entities, relations)


def test_perfect_model_reaches_mrr_one():
    ds, params = _perfect_transe_dataset()
    report = evaluate(params, ds, split="train", policy="include")
    assert report.mrr == 1.0
    assert report.hits == {1: 1.0, 3: 1.0, 10: 1.0}
    assert report.n_triples == 4
    rel_report = evaluate_relation_prediction(params, ds, split="train")
    assert rel_report.mrr == 1.0  # |R| = 1


def test_evaluate_matches_hand_computed_sum():
    rng = np.random.default_rng(12)
    ds = random_kg(rng, 6, 2, n_train=8, n_valid=1, n_test=4)
    params = init_params("complex", ds.vocab.n_entities, ds.vocab.n_relations, 3, seed=2)
    union = set((t.h, t.r, t.t) for t in ds.all_triples())
    ent_cands = list(range(ds.vocab.n_entities))
    total = 0.0
    hits = {1: 0, 3: 0, 10: 0}
    for tr in ds.test:
        rt, ht_ = brute_force_rank(params, union, *tr, "tail", "mean", ent_cands)
        rh, hh = brute_force_rank(params, union, *tr, "head", "mean", ent_cands)
        total += 1.0 / rt + 1.0 / rh
        for n in hits:
            hits[n] += (ht_ <= n) + (hh <= n)
    n = len(ds.test)
    report = evaluate(params, ds, split="test", policy="include")
    assert report.mrr == pytest.approx(total / (2 * n), rel=1e-12)
    for lvl in hits:
        assert report.hits[lvl] == pytest.approx(hits[lvl] / (2 * n), rel=1e-12)


def _oov_files(tmp_path):
    train = [("a", "p", "b"), ("b", "p", "c"), ("c", "q", "a"), ("a", "q", "c"),
             ("d", "p", "a"), ("c", "p", "d")]
    valid = [("d", "q", "b"), ("ghost", "p", "a")]
    test = [("b", "q", "d"), ("a", "p", "spook"), ("d", "p", "b")]
    return write_split_files(tmp_path / "raw", train, valid, test)


def _remap_params(params, vocab_from, vocab_to):
    ent = np.stack([params.entities[vocab_from.entity_id(e)] for e in vocab_to.entities])
    rel = np.stack([params.relations[vocab_from.relation_id(r)] for r in vocab_to.relations])
    return ModelParams(params.kind, params.dim, ent, rel)


@pytest.mark.parametrize("kind", ["distmult", "transe"])
def test_exclude_equals_corrected_include(tmp_path, kind):
    raw_dir = _oov_files(tmp_path)
    raw = load_dataset(DatasetLayout(dir=raw_dir))
    out = tmp_path / "corrected"
    write_corrected(raw, detect_oov(raw), out)
    corrected = load_dataset(DatasetLayout(dir=out))
    params = init_params(kind, raw.vocab.n_entities, raw.vocab.n_relations, 4, seed=6)
    params_corr = _remap_params(params, raw.vocab, corrected.vocab)
    for split in ("valid", "test"):
        a = evaluate(params, raw, split=split, policy="exclude")
        b = evaluate(params_corr, corrected, split=split, policy="include")
        assert a.mrr == b.mrr
        assert a.hits == b.hits
        assert a.n_triples == b.n_triples
        per_a = {raw.vocab.relation_label(r): v for r, v in a.per_relation_mrr.items()}
        per_b = {corrected.vocab.relation_label(r): v for r, v in b.per_relation_mrr.items()}
        assert per_a == per_b
        # triple-for-triple
        rec_a = rank_records(params, raw, split=split, policy="exclude")
        rec_b = rank_records(params_corr, corrected, split=split, policy="include")
        assert len(rec_a) == len(rec_b)
        for ra, rb in zip(rec_a, rec_b):
            assert (ra.rank_tail, ra.rank_head, ra.rank_relation) == (
                rb.rank_tail, rb.rank_head, rb.rank_relation)
        # relation direction too
        ra = evaluate_relation_prediction(params, raw, split=split, policy="exclude")
        rb = evaluate_relation_prediction(params_corr, corrected, split=split, policy="include")
        assert ra.mrr == rb.mrr and ra.hits == rb.hits


def test_exclude_policy_ignores_oov_parameter_rows(tmp_path):
    raw = load_dataset(DatasetLayout(dir=_oov_files(tmp_path)))
    params = init_params("rescal", raw.vocab.n_entities, raw.vocab.n_relations, 3, seed=4)
    report = evaluate(params, raw, split="test", policy="exclude")
    oov = detect_oov(raw)
    scrambled = params.copy()
    for eid in oov.valid.oov_entities | oov.test.oov_entities:
        scrambled.entities[eid] = 1e9
    assert evaluate(scrambled, raw, split="test", policy="exclude") == report


def test_per_relation_single_relation_equals_overall():
    rng = np.random.default_rng(9)
    ds = random_kg(rng, 6, 1, n_train=6, n_test=3)
    params = init_params("rescal", 6, 1, 3, seed=1)
    report = evaluate(params, ds, split="test")
    assert set(report.per_relation_mrr) == {0}
    assert report.per_relation_mrr[0] == pytest.approx(report.mrr, rel=1e-12)


def test_per_relation_matches_subset_arithmetic():
    rng = np.random.default_rng(10)
    ds = random_kg(rng, 7, 2, n_train=10, n_test=6)
    params = init_params("distmult", 7, 2, 4, seed=3)
    union = set((t.h, t.r, t.t) for t in ds.all_triples())
    ent_cands = list(range(7))
    per_rel = evaluate(params, ds, split="test").per_relation_mrr
    for rid in per_rel:
        triples = [tr for tr in ds.test.tolist() if tr[1] == rid]
        total = 0.0
        for tr in triples:
            rt, _ = brute_force_rank(params, union, *tr, "tail", "mean", ent_cands)
            rh, _ = brute_force_rank(params, union, *tr, "head", "mean", ent_cands)
            total += 1.0 / rt + 1.0 / rh
        assert per_rel[rid] == pytest.approx(total / (2 * len(triples)), rel=1e-12)
    # relation absent from the split is omitted
    present = {r for _, r, _ in ds.test.tolist()}
    assert set(per_rel) == present


def test_relation_prediction_matches_oracle_and_denominator():
    rng = np.random.default_rng(13)
    ds = random_kg(rng, 6, 3, n_train=9, n_test=4)
    params = init_params("complex", 6, 3, 3, seed=5)
    union = set((t.h, t.r, t.t) for t in ds.all_triples())
    rel_cands = list(range(3))
    total = 0.0
    for tr in ds.test:
        rr, _ = brute_force_rank(params, union, *tr, "relation", "mean", rel_cands)
        total += 1.0 / rr
    report = evaluate_relation_prediction(params, ds, split="test")
    assert report.direction == "relation"
    assert report.mrr == pytest.approx(total / len(ds.test), rel=1e-12)


def test_relation_prediction_oov_sensitivity_is_reported_not_asserted():
    ds = make_dataset(
        [("a", "p", "b"), ("b", "q", "c"), ("c", "p", "a"), ("a", "q", "c")],
        [("b", "p", "a")],
        [("c", "q", "b"), ("x", "p", "a")],
    )
    params = init_params("distmult", ds.vocab.n_entities, ds.vocab.n_relations, 4, seed=0)
    inc = evaluate_relation_prediction(params, ds, split="test", policy="include")
    exc = evaluate_relation_prediction(params, ds, split="test", policy="exclude")
    delta = abs(inc.mrr - exc.mrr)
    assert np.isfinite(delta)  # reported, not bounded


def test_reciprocal_head_ranks_use_inverse_relation():
    rng = np.random.default_rng(21)
    ds = random_kg(rng, 6, 2, n_train=8, n_test=3)
    # params with 2|R| relation rows, as a reciprocal checkpoint would have
    params = init_params("distmult", 6, 4, 3, seed=9)
    idx = filter_index_build(ds)
    union = set((t.h, t.r, t.t) for t in ds.all_triples())
    ent_cands = list(range(6))
    for tr in ds.test:
        for tie in TIES:
            got = filtered_rank_pair(params, idx, *tr, "head", tie,
                                     np.array(ent_cands), reciprocal=True)
            want = brute_force_rank(params, union, *tr, "head", tie, ent_cands,
                                    reciprocal=True)
            assert got == want
    report = evaluate(params, ds, split="test", reciprocal=True)
    assert report.reciprocal


def test_metric_bounds_properties():
    rng = np.random.default_rng(30)
    for trial in range(5):
        ds = random_kg(rng, int(rng.integers(4, 9)), 2, n_train=10, n_test=5)
        kind = MODEL_KINDS[trial % 4]
        params = init_params(kind, ds.vocab.n_entities, 2, 3, seed=trial)
        for report in (
            evaluate(params, ds, split="test"),
            evaluate_relation_prediction(params, ds, split="test"),
        ):
            assert 0.0 < report.mrr <= 1.0
            assert report.hits[1] <= report.hits[3] <= report.hits[10] <= 1.0
            assert report.mrr >= report.hits[1]
            for k in (1, 3, 10):
                bound = report.hits[k] + (1.0 / (k + 1)) * (1.0 - report.hits[k])
                assert report.mrr <= bound + 1e-12


def _oov_kg(seed):
    """Random KG whose test split adds a triple with an OOV tail and one with an OOV head."""
    base = random_kg(np.random.default_rng(seed), 9, 3, n_train=40, n_test=10)
    v = base.vocab
    lab = lambda tr: (v.entity_label(tr[0]), v.relation_label(tr[1]), v.entity_label(tr[2]))
    train = [lab(tr) for tr in base.train.tolist()]
    h, r, t = train[0]
    test = [lab(tr) for tr in base.test.tolist()] + [(h, r, "ghost"), ("spook", r, t)]
    return make_dataset(train, [], test)


def _assert_metrics_from_records(report, records, directions):
    slots = len(directions) * len(records)
    rr = [sum(1.0 / getattr(rec, f"rank_{d}") for d in directions) for rec in records]
    assert report.n_triples == len(records)
    assert report.mrr == pytest.approx(sum(rr) / slots, rel=1e-12)
    assert set(report.hits) == {1, 3, 10}
    for n, value in report.hits.items():
        hits = sum(getattr(rec, f"hits_rank_{d}") <= n for rec in records for d in directions)
        assert value == pytest.approx(hits / slots, rel=1e-12)
    per_rel: dict[int, list[float]] = {}
    for rec, x in zip(records, rr):
        per_rel.setdefault(rec.triple.r, []).append(x)
    want = {rid: sum(xs) / (len(directions) * len(xs)) for rid, xs in per_rel.items()}
    assert report.per_relation_mrr == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_rank_records_and_metrics_follow_filtered_rank_pair(kind):
    ds = _oov_kg(MODEL_KINDS.index(kind) + 40)
    idx = filter_index_build(ds)
    affected = {a.triple for a in detect_oov(ds).test.affected}
    assert len(affected) == 2
    train_ents, train_rels = split_vocab(ds.train)
    candidates = {
        "include": (np.arange(ds.vocab.n_entities), np.arange(ds.vocab.n_relations)),
        "exclude": (train_ents, train_rels),
    }
    for reciprocal in (False, True):
        n_rel_rows = ds.vocab.n_relations * (2 if reciprocal else 1)
        params = init_params(kind, ds.vocab.n_entities, n_rel_rows, 3, seed=5)
        for policy, (ent, rel) in candidates.items():
            kept = [tr for tr in map(Triple._make, ds.test.tolist())
                    if policy == "include" or tr not in affected]
            for tie in TIES:
                records = rank_records(params, ds, policy=policy, tie=tie,
                                       reciprocal=reciprocal)
                assert [rec.triple for rec in records] == kept
                for rec in records:
                    for direction, cands in (("tail", ent), ("head", ent), ("relation", rel)):
                        want = filtered_rank_pair(params, idx, *rec.triple, direction, tie,
                                                  cands, reciprocal)
                        got = (getattr(rec, f"rank_{direction}"),
                               getattr(rec, f"hits_rank_{direction}"))
                        assert got == want, (policy, tie, reciprocal, rec, direction)
                _assert_metrics_from_records(
                    evaluate(params, ds, policy=policy, tie=tie, reciprocal=reciprocal),
                    records, ("tail", "head"))
                _assert_metrics_from_records(
                    evaluate_relation_prediction(params, ds, policy=policy, tie=tie),
                    records, ("relation",))


def test_non_finite_parameters_are_refused():
    ds = make_dataset([("a", "p", "b"), ("b", "p", "c")], [], [("a", "p", "c")])
    params = init_params("distmult", 3, 1, 3, seed=0)
    params.entities[ds.vocab.entity_id("a")] = np.nan
    for rank in (evaluate, evaluate_relation_prediction, rank_records):
        with pytest.raises(EvaluationError, match="non-finite"):
            rank(params, ds, split="test")


def test_overflowing_target_score_is_refused():
    ds = make_dataset([("a", "p", "b"), ("b", "p", "c")], [], [("a", "p", "c")])
    params = init_params("distmult", 3, 1, 3, seed=0)
    params.entities[:] = 1e200  # finite rows whose products overflow to inf
    with np.errstate(over="ignore"), pytest.raises(EvaluationError, match="not finite"):
        evaluate(params, ds, split="test")
    with pytest.raises(EvaluationError, match="not finite"):
        _rank_pair(np.array([np.nan, 1.0]), np.ones(2, dtype=bool), 0, "mean")


def test_exclude_with_everything_oov_errors():
    ds = make_dataset([("a", "p", "b")], [("x", "p", "y")], [("z", "p", "a")])
    params = init_params("distmult", ds.vocab.n_entities, 1, 3, seed=0)
    with pytest.raises(EvaluationError, match="no test triples"):
        evaluate(params, ds, split="test", policy="exclude")


def test_params_must_cover_vocabulary():
    ds = make_dataset([("a", "p", "b"), ("b", "p", "c")], [], [("a", "p", "c")])
    small = init_params("distmult", 2, 1, 3, seed=0)  # 2 < 3 entities
    with pytest.raises(EvaluationError, match="cover"):
        evaluate(small, ds, split="test")


def test_report_json_matches_schema():
    rng = np.random.default_rng(33)
    ds = random_kg(rng, 6, 2, n_train=8, n_test=3)
    params = init_params("distmult", 6, 2, 4, seed=1)
    payload = evaluate(params, ds, split="test").to_json_dict(ds)
    schema = json.loads((SCHEMA_DIR / "metrics_report.schema.json").read_text())
    jsonschema.validate(payload, schema)
    assert all(key.startswith("r") for key in payload["per_relation_mrr"])
