import gc
import json
import re
import tempfile
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kgbench import (
    FilterIndex,
    ModelParams,
    SplitDataset,
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
from kgbench import evaluation, models
from kgbench.evaluation import (
    OOV_POLICIES,
    EvaluationError,
    filtered_rank_pair,
    rank_records,
)
from kgbench.ingest import DatasetLayout
from kgbench.models import (
    MODEL_KINDS,
    align_params_to_vocab,
    score_all_heads,
    score_all_relations,
    score_all_tails,
    screen,
    screen_table,
)

from conftest import make_dataset, random_kg, write_split_files
from oracles import (
    brute_force_rank,
    dataset_rows,
    linear_scan_heads,
    linear_scan_relations,
    linear_scan_tails,
    sort_scan_rank,
)

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "src" / "kgbench" / "schemas"

TIES = ("mean", "optimistic", "pessimistic")
DIRECTIONS = ("tail", "head", "relation")
DOT_KINDS = ("rescal", "distmult", "complex")
NEAR_TIE_DIMS = (1, 2, 3, 8, 16, 33)


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
    # A coordinate that every entity shares adds one constant to every tail
    # score. Integer rows score integers, with many ties, so the constant
    # keeps both their order and their ties exact.
    rng = np.random.default_rng(3)
    ds = random_kg(rng, 40, 2, n_train=60, n_test=12)
    n_e, n_r = ds.vocab.n_entities, ds.vocab.n_relations
    entities = rng.integers(-2, 3, size=(n_e, 3)).astype(float)
    relations = rng.integers(-2, 3, size=(n_r, 3)).astype(float)
    base = ModelParams("distmult", 3, entities, relations)
    shifted = ModelParams("distmult", 4, np.hstack([entities, np.full((n_e, 1), 2.0)]),
                          np.hstack([relations, np.full((n_r, 1), 30.864)]))
    idx = filter_index_build(ds)
    ranks = []
    for tr in ds.test.tolist():
        for tie in TIES:
            ranks.append(filtered_rank_pair(base, idx, *tr, "tail", tie))
            assert filtered_rank_pair(shifted, idx, *tr, "tail", tie) == ranks[-1], (tr, tie)
    assert any(rank % 1 for rank, _ in ranks)  # a tie group under the mean policy


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
        union = set(dataset_rows(ds))
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
    union = set(dataset_rows(ds))
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
    union = set(dataset_rows(ds))
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


@st.composite
def _oov_kgs(draw):
    """Labeled (train, valid, test) whose valid/test draw on entities and a
    relation that train may lack, so any split, train included, may be empty
    and the correction may empty a valid or test split."""
    ents = [f"e{i}" for i in range(draw(st.integers(2, 6)))]
    rels = [f"r{i}" for i in range(draw(st.integers(1, 3)))]

    def triples(e, r):
        return st.tuples(st.sampled_from(e), st.sampled_from(r), st.sampled_from(e))

    train = draw(st.lists(triples(ents, rels), max_size=12, unique=True))
    seen = set(train)
    held_out = draw(st.lists(triples(ents + ["o0", "o1"], rels + ["q"]).filter(
        lambda tr: tr not in seen), max_size=10, unique=True))
    cut = draw(st.integers(0, len(held_out)))
    return train, held_out[:cut], held_out[cut:]


def _report_or_error(fn):
    """What ``fn()`` returns, or ``EvaluationError`` if it raises one."""
    try:
        return fn()
    except EvaluationError:
        return EvaluationError


# the correction empties valid (wholly OOV) but keeps test; then a KG whose
# train split is empty, so that every held-out triple is OOV
@example(([("e0", "r0", "e1")], [("o0", "r0", "e1"), ("e0", "q", "e1")], [("e1", "r0", "e0")]),
         "rescal", "mean", False, 0)
@example(([], [("e0", "r0", "e1")], [("e1", "r0", "e0")]), "transe", "optimistic", True, 1)
@given(_oov_kgs(), st.sampled_from(MODEL_KINDS),
       st.sampled_from(["mean", "optimistic", "pessimistic"]), st.booleans(), st.integers(0, 2**16))
@settings(max_examples=15)
def test_exclude_equals_corrected_include_property(kg, kind, tie, reciprocal, seed):
    with tempfile.TemporaryDirectory() as tmp:
        raw = load_dataset(DatasetLayout(dir=write_split_files(Path(tmp) / "raw", *kg)))
        write_corrected(raw, detect_oov(raw), Path(tmp) / "corrected")
        corrected = load_dataset(DatasetLayout(dir=Path(tmp) / "corrected"))
    n_rel = raw.vocab.n_relations * (2 if reciprocal else 1)
    params = replace(init_params(kind, raw.vocab.n_entities, n_rel, 3, seed=seed),
                     reciprocal=reciprocal)
    params_corr = align_params_to_vocab(params, list(raw.vocab.entities),
                                        list(raw.vocab.relations), corrected.vocab)

    def metrics(p, ds, split, policy):
        report = evaluate(p, ds, split, policy, tie)
        return (report.mrr, report.hits, report.n_triples,
                {ds.vocab.relation_label(r): v for r, v in report.per_relation_mrr.items()})

    for split in ("valid", "test"):
        assert _report_or_error(lambda: metrics(params, raw, split, "exclude")) == \
            _report_or_error(lambda: metrics(params_corr, corrected, split, "include"))


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
    union = set(dataset_rows(ds))
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
    union = set(dataset_rows(ds))
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
    params = replace(init_params("distmult", 6, 4, 3, seed=9), reciprocal=True)
    idx = filter_index_build(ds)
    union = set(dataset_rows(ds))
    ent_cands = list(range(6))
    for tr in ds.test:
        for tie in TIES:
            got = filtered_rank_pair(params, idx, *tr, "head", tie, np.array(ent_cands))
            want = brute_force_rank(params, union, *tr, "head", tie, ent_cands,
                                    reciprocal=True)
            assert got == want
    report = evaluate(params, ds, split="test")
    assert report.reciprocal
    assert not evaluate_relation_prediction(params, ds, split="test").reciprocal


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
        params = replace(init_params(kind, ds.vocab.n_entities, n_rel_rows, 3, seed=5),
                         reciprocal=reciprocal)
        for policy, (ent, rel) in candidates.items():
            kept = [tr for tr in map(Triple._make, ds.test.tolist())
                    if policy == "include" or tr not in affected]
            for tie in TIES:
                records = rank_records(params, ds, policy=policy, tie=tie)
                assert [rec.triple for rec in records] == kept
                for rec in records:
                    for direction, cands in (("tail", ent), ("head", ent), ("relation", rel)):
                        want = filtered_rank_pair(params, idx, *rec.triple, direction, tie,
                                                  cands)
                        got = (getattr(rec, f"rank_{direction}"),
                               getattr(rec, f"hits_rank_{direction}"))
                        assert got == want, (policy, tie, reciprocal, rec, direction)
                _assert_metrics_from_records(
                    evaluate(params, ds, policy=policy, tie=tie),
                    records, ("tail", "head"))
                _assert_metrics_from_records(
                    evaluate_relation_prediction(params, ds, policy=policy, tie=tie),
                    records, ("relation",))


def _fresh(ds):
    """A dataset equal to ``ds`` with a set-up of its own, so a call on it
    ranks: no earlier call's pass can serve it."""
    return SplitDataset(ds.vocab, ds.train, ds.valid, ds.test)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_rank_records_do_not_depend_on_the_block_size(kind, monkeypatch):
    # one query per block, a few per block, and the whole split in one block
    ds = _oov_kg(MODEL_KINDS.index(kind) + 50)
    for reciprocal in (False, True):
        n_rel_rows = ds.vocab.n_relations * (2 if reciprocal else 1)
        params = replace(init_params(kind, ds.vocab.n_entities, n_rel_rows, 3, seed=6),
                         reciprocal=reciprocal)
        for policy in OOV_POLICIES:
            for tie in TIES:
                records = []
                for floats in (1, 60, 2 ** 62):
                    monkeypatch.setattr(evaluation, "BLOCK_FLOATS", floats)
                    records.append(rank_records(params, _fresh(ds), policy=policy, tie=tie))
                assert records[0] == records[1] == records[2], (policy, tie, reciprocal)


def _oov_splits(seed):
    """Labelled (train, valid, test) of a random KG whose valid split adds a
    triple with an OOV head and whose test split adds one with an OOV tail."""
    base = random_kg(np.random.default_rng(seed), 9, 3, n_train=40, n_valid=8, n_test=10)
    v = base.vocab
    lab = lambda tr: (v.entity_label(tr[0]), v.relation_label(tr[1]), v.entity_label(tr[2]))
    train = [lab(tr) for tr in base.train.tolist()]
    h, r, t = train[0]
    return (train, [lab(tr) for tr in base.valid.tolist()] + [("spook", r, t)],
            [lab(tr) for tr in base.test.tolist()] + [(h, r, "ghost")])


@pytest.mark.parametrize("policy", OOV_POLICIES)
def test_each_ranked_direction_makes_one_filter_lookup(policy, monkeypatch):
    # The lookup and its refusal belong to the dataset's split and direction:
    # not to a block, a call, a policy or a model. Each covers every row of
    # its split.
    ds = make_dataset(*_oov_splits(60))
    params = init_params("distmult", ds.vocab.n_entities, ds.vocab.n_relations, 3, seed=7)
    runs, calls = FilterIndex.runs, []

    def counting_runs(self, keys, a, b):
        calls.append(len(a))
        return runs(self, keys, a, b)

    monkeypatch.setattr(FilterIndex, "runs", counting_runs)
    for floats in (1, 60, 2 ** 62):  # one query per block, a few, and one block
        monkeypatch.setattr(evaluation, "BLOCK_FLOATS", floats)
        calls.clear()
        rank_records(params, ds, policy=policy)
        assert calls == ([len(ds.test)] * 3 if floats == 1 else []), floats
    # the other policy on the same split makes none; the valid split makes its own three
    other = OOV_POLICIES[1 - OOV_POLICIES.index(policy)]
    for split, other_policy, want in (("test", other, []), ("valid", policy, [len(ds.valid)] * 3)):
        calls.clear()
        rank_records(params, ds, split=split, policy=other_policy)
        assert calls == want, (split, other_policy)
    # nor does a model with more relation or entity rows than the vocabulary:
    # those rows are no candidates, so the lookups do not depend on them
    n_e, n_r = ds.vocab.n_entities, ds.vocab.n_relations
    for wide in (replace(init_params("distmult", n_e, 2 * n_r, 3, seed=7), reciprocal=True),
                 init_params("distmult", n_e + 4, n_r, 3, seed=7)):
        calls.clear()
        rank_records(wide, ds, policy=policy)
        assert calls == [], wide.reciprocal


def _counting_screens(monkeypatch):
    """A list that grows by one for every block of queries that ``evaluation`` screens."""
    calls = []

    def counting_screen(*args, screen=evaluation.screen):
        calls.append(len(args[-1]))
        return screen(*args)

    monkeypatch.setattr(evaluation, "screen", counting_screen)
    return calls


def _served_splits():
    """``_oov_splits`` whose test split also holds a triple with an OOV relation."""
    train, valid, test = _oov_splits(62)
    h, _, t = train[1]
    return train, valid, [*test, (h, "rq", t)]


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_an_exclude_call_after_include_is_served_and_equals_a_ranked_one(kind, monkeypatch):
    # The OOV rows of the parameters copy in-train rows, or differ from one in
    # the last few bits, so OOV candidates tie with targets or fall in the
    # band just above or below them, and the exact recount counts them apart.
    splits = _served_splits()
    ds = make_dataset(*splits)
    v = ds.vocab
    h, r, t = (v.entity_id(splits[0][0][0]), v.relation_id(splits[0][0][1]),
               v.entity_id(splits[0][0][2]))
    idx, (ents, rels) = filter_index_build(ds), split_vocab(ds.train)
    screens = _counting_screens(monkeypatch)
    for reciprocal, extra_entities in ((False, 0), (True, 0), (False, 4)):
        n_rel_rows = v.n_relations * (2 if reciprocal else 1)
        params = replace(init_params(kind, v.n_entities + extra_entities, n_rel_rows, 3, seed=16),
                         reciprocal=reciprocal)
        params.entities[v.entity_id("ghost")] = params.entities[h]
        params.entities[v.entity_id("spook")] = params.entities[t] * (1 + 2.0 ** -48)
        params.relations[v.relation_id("rq")] = params.relations[r] * (1 + 2.0 ** -48)
        for split in ("valid", "test"):
            for tie in TIES:
                fns = (evaluate, evaluate_relation_prediction, rank_records)
                ranked, included = ({fn: fn(params, make_dataset(*splits), split=split,
                                            policy=policy, tie=tie) for fn in fns}
                                    for policy in ("exclude", "include"))
                for fn in fns:
                    include = fn(params, ds, split=split, policy="include", tie=tie)
                    screens.clear()
                    served = fn(params.copy(), ds, split=split, policy="exclude", tie=tie)
                    assert screens == [], (reciprocal, split, tie, fn.__name__)
                    assert served == ranked[fn] != include, (reciprocal, split, tie, fn.__name__)
                    # and an include call served after a ranked exclude call
                    assert fn(params, ds, split=split, policy="exclude", tie=tie) == served
                    screens.clear()
                    served = fn(params.copy(), ds, split=split, policy="include", tie=tie)
                    assert screens == [], (reciprocal, split, tie, fn.__name__)
                    assert served == included[fn] == include, (reciprocal, split, tie,
                                                               fn.__name__)
                # the ranked calls against filtered_rank_pair, which takes off the OOV columns
                records = ranked[rank_records]
                for rec in records:
                    for direction, cands in (("tail", ents), ("head", ents), ("relation", rels)):
                        assert (getattr(rec, f"rank_{direction}"),
                                getattr(rec, f"hits_rank_{direction}")) == filtered_rank_pair(
                            params, idx, *rec.triple, direction, tie, cands), (rec, direction)
                _assert_metrics_from_records(ranked[evaluate], records, ("tail", "head"))
                _assert_metrics_from_records(ranked[evaluate_relation_prediction], records,
                                             ("relation",))
        # a pass over more directions serves a call over fewer
        ranked = evaluate(params, make_dataset(*splits), policy="exclude")
        rank_records(params, ds, policy="include")
        screens.clear()
        assert evaluate(params, ds, policy="exclude") == ranked
        assert screens == [], reciprocal


@pytest.mark.parametrize("change", ["float", "zero sign", "relation", "kind", "split",
                                    "direction"])
def test_an_exclude_call_that_differs_from_the_last_include_call_is_ranked(change, monkeypatch):
    splits = _served_splits()
    ds = make_dataset(*splits)
    params = init_params("distmult", ds.vocab.n_entities, ds.vocab.n_relations, 3, seed=17)
    params.entities[2, 1] = 0.0
    screens = _counting_screens(monkeypatch)
    # an evaluate pass does not serve rank_records, which also needs the relations
    fns = (evaluate, evaluate_relation_prediction) + ((rank_records,) * (change != "direction"))
    for fn in fns:
        fn(params, ds, policy="include")
        split, other_fn = "test", fn
        if change == "float":
            params.entities[1, 0] = np.nextafter(params.entities[1, 0], np.inf)
        elif change == "zero sign":
            params.entities[2, 1] = -params.entities[2, 1]
        elif change == "relation":
            params.relations[0, 2] *= 2.0
        elif change == "kind":  # TransE's tables have DistMult's shapes
            params = replace(params, kind="transe" if params.kind == "distmult" else "distmult")
        elif change == "split":
            split = "valid"
        else:
            other_fn = rank_records if fn is evaluate else evaluate
        screens.clear()
        got = other_fn(params, ds, split=split, policy="exclude")
        assert screens, fn.__name__
        assert got == other_fn(params, make_dataset(*splits), split=split, policy="exclude")


def test_only_the_first_call_after_a_ranked_call_is_served(monkeypatch):
    # Whatever the policy of either call. Where train holds every id, exclude
    # ranks as include does and no pass is kept.
    train, valid, test = _served_splits()
    clean = make_dataset(train, [], [tr for tr in test if tr[1] != "rq" and "ghost" not in tr])
    assert not detect_oov(clean).test.affected
    screens = _counting_screens(monkeypatch)
    for ds, policies, ranked in (
            (make_dataset(train, valid, test), ("include", "include"), [True, False]),
            (make_dataset(train, valid, test), ("include", "exclude", "exclude"),
             [True, False, True]),
            (make_dataset(train, valid, test), ("exclude", "include", "exclude"),
             [True, False, True]),
            (clean, ("include", "exclude"), [True, True])):
        params = init_params("complex", ds.vocab.n_entities, ds.vocab.n_relations, 3, seed=18)
        got, records = [], []
        for policy in policies:
            screens.clear()
            records.append(rank_records(params, ds, policy=policy))
            got.append(bool(screens))
        assert got == ranked, policies
    assert records[0] == records[1]


def test_interleaved_models_rank_as_on_a_fresh_load(tmp_path):
    # A reciprocal model has twice the relation rows, and a wide one more
    # entity rows than the vocabulary, which are never candidates; all three
    # share the dataset's lookups.
    layout = DatasetLayout(dir=write_split_files(tmp_path / "raw", *_oov_splits(61)))
    ds = load_dataset(layout)
    n_e, n_r = ds.vocab.n_entities, ds.vocab.n_relations
    models_ = [init_params("distmult", n_e, n_r, 3, seed=13),
               replace(init_params("complex", n_e, 2 * n_r, 3, seed=14), reciprocal=True),
               init_params("transe", n_e + 5, n_r, 3, seed=15)]
    for policy in OOV_POLICIES:
        for tie in TIES:
            for params in models_:
                for fn in (evaluate, evaluate_relation_prediction, rank_records):
                    assert (fn(params, ds, policy=policy, tie=tie)
                            == fn(params, load_dataset(layout), policy=policy, tie=tie)), (
                        policy, tie, params.kind, fn.__name__)


def _ranking_calls(policies, splits=("valid", "test")):
    """(function, policy, split) of every ranking call a dataset's set-up serves."""
    return [(fn, policy, split) for policy in policies for split in splits
            for fn in (evaluate, evaluate_relation_prediction, rank_records)]


def _rank(params, ds, call):
    fn, policy, split = call
    return fn(params, ds, split=split, policy=policy)


def test_ranking_set_up_is_built_once_per_dataset(tmp_path, monkeypatch):
    builds = {"filter_index_build": [], "detect_oov": []}
    for name, datasets in builds.items():
        def counting(dataset, build=getattr(evaluation, name), datasets=datasets):
            datasets.append(dataset)
            return build(dataset)
        monkeypatch.setattr(evaluation, name, counting)
    raw_dir = _oov_files(tmp_path)
    first, second = (load_dataset(DatasetLayout(dir=raw_dir)) for _ in range(2))
    params = init_params("distmult", first.vocab.n_entities, first.vocab.n_relations, 3, seed=8)
    for ds in (first, second):
        for call in _ranking_calls(("include",)):
            _rank(params, ds, call)
    # include needs no OOV report
    assert builds == {"filter_index_build": [first, second], "detect_oov": []}
    for call in _ranking_calls(OOV_POLICIES) * 2:
        for ds in (first, second):
            _rank(params, ds, call)
    assert builds == {"filter_index_build": [first, second], "detect_oov": [first, second]}


@pytest.mark.parametrize("policies", [OOV_POLICIES, OOV_POLICIES[::-1]])
def test_reports_from_a_reused_set_up_equal_those_from_a_fresh_load(tmp_path, policies):
    layout = DatasetLayout(dir=_oov_files(tmp_path))
    ds = load_dataset(layout)
    params = init_params("transe", ds.vocab.n_entities, ds.vocab.n_relations, 3, seed=9)
    calls = _ranking_calls(policies)
    for call in calls + calls[::-1]:
        assert _rank(params, ds, call) == _rank(params, load_dataset(layout), call), call


def test_interleaved_datasets_each_rank_with_their_own_set_up(tmp_path):
    raw_layout = DatasetLayout(dir=_oov_files(tmp_path))
    raw = load_dataset(raw_layout)
    write_corrected(raw, detect_oov(raw), tmp_path / "corrected")
    corrected_layout = DatasetLayout(dir=tmp_path / "corrected")
    corrected = load_dataset(corrected_layout)
    params = init_params("complex", raw.vocab.n_entities, raw.vocab.n_relations, 3, seed=10)
    params_corr = align_params_to_vocab(params, list(raw.vocab.entities),
                                        list(raw.vocab.relations), corrected.vocab)
    assert len(corrected.test) < len(raw.test)
    for call in _ranking_calls(OOV_POLICIES):
        for ds, layout, p in ((raw, raw_layout, params), (corrected, corrected_layout, params_corr)):
            assert _rank(p, ds, call) == _rank(p, load_dataset(layout), call), (layout, call)

    # one vocabulary and train split, two test splits (the second holds both OOV triples)
    base = _oov_kg(70)
    parts = (base.test[:6], base.test[6:])
    same_vocab = [SplitDataset(base.vocab, base.train, base.valid, test) for test in parts]
    params = init_params("rescal", base.vocab.n_entities, base.vocab.n_relations, 3, seed=11)
    for call in _ranking_calls(OOV_POLICIES, ("test",)):  # the valid split is empty
        for ds, test in zip(same_vocab, parts):
            fresh = SplitDataset(base.vocab, base.train, base.valid, test)
            assert _rank(params, ds, call) == _rank(params, fresh, call), call


def test_a_ranked_dataset_is_freed_with_its_set_up():
    ds = _oov_kg(71)
    params = init_params("distmult", ds.vocab.n_entities, ds.vocab.n_relations, 3, seed=12)
    for policy in OOV_POLICIES:
        rank_records(params, ds, policy=policy)
    dataset, index = weakref.ref(ds), weakref.ref(evaluation._SETUPS[ds].index)
    del ds
    gc.collect()
    assert dataset() is None and index() is None


def _traced_peak(call):
    """The peak bytes that ``call()`` allocates, as numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind, dim", [(kind, 16) for kind in MODEL_KINDS] + [("rescal", 64)])
def test_evaluate_holds_one_block_of_scores_at_a_time(kind, dim):
    # 2,000 entities make 7 or 8 blocks of 57 to 64 queries per direction at
    # d = 16, each with a plane of about BLOCK_FLOATS float64s. A plane kept
    # alive while the next block is screened would double the peak. At d =
    # 64, RESCAL's gathered relation rows are twice as large as the plane
    # unless the block counts them.
    ds = random_kg(np.random.default_rng(13), 2000, 20, n_train=3000, n_test=400)
    params = init_params(kind, 2000, 20, dim, seed=13)
    plane = evaluation.BLOCK_FLOATS * 8
    table = screen_table(params, "t").rows.nbytes  # a new array for every kind
    linear = 64 * sum(len(ds.split(name)) for name in ("train", "valid", "test"))
    for policy in OOV_POLICIES:
        peak = _traced_peak(lambda: evaluate(params, ds, policy=policy))
        assert peak <= 1.25 * plane + table + linear, (policy, peak)


@pytest.mark.parametrize("tie", TIES)
def test_ranks_past_the_uint8_and_uint16_ranges_are_counted_exactly(tie):
    # One query over 70,001 candidates with its target near the bottom, and
    # 300 candidates tied with it: both counts overflow a uint8, and the ranks
    # a uint16, so a narrow accumulator in the row counts would show.
    n = 70_001
    ds = make_dataset([(f"e{i}", "p", f"e{i + 1}") for i in range(n - 1)], [],
                      [("e0", "p", "e2")])
    values = np.random.default_rng(9).uniform(1.0, 2.0, size=n)
    values[:2] = 1.0005, 1.5  # the head, and e1, filtered in both directions
    values[2] = 1.001  # the tail
    values[3:303] = 1.001  # ties with the tail
    values[303:603] = 1.0005  # ties with the head
    params = ModelParams("distmult", 1, values[:, None], np.ones((1, 1)))
    triple = ds.test[0].tolist()
    assert triple == [0, 0, 2]  # entity ids follow the labels
    union = set(dataset_rows(ds))
    (record,) = rank_records(params, ds, tie=tie)
    for direction in ("tail", "head"):
        want = brute_force_rank(params, union, *triple, direction, tie, range(n))
        scores = values * values[triple[0 if direction == "tail" else 2]]
        target = scores[triple[2 if direction == "tail" else 0]]
        kept = np.ones(n, dtype=bool)
        kept[1] = False
        above = np.count_nonzero(kept & (scores > target))
        level = np.count_nonzero(kept & (scores == target))
        assert above > 65_535 and level > 255
        assert want[1] == (above + level if tie != "optimistic" else above + 1)
        got = (getattr(record, f"rank_{direction}"), getattr(record, f"hits_rank_{direction}"))
        assert got == want, direction
        assert filtered_rank_pair(params, filter_index_build(ds), *triple, direction,
                                  tie) == want


def _assert_duplicated_entity_rows_rank_as_the_oracle(kind):
    # Equal rows must score exactly equal, or ties are broken by row position.
    # Five entities, one more than a multiple of four, as in a BLAS remainder row.
    chain = make_dataset([(f"e{i}", "p", f"e{i + 1}") for i in range(4)], [], [("e4", "p", "e0")])
    kgs = [(chain, 1), (random_kg(np.random.default_rng(8), 11, 2, n_train=30, n_test=8), 3)]
    for ds, groups in kgs:
        n = ds.vocab.n_entities
        params = init_params(kind, n, ds.vocab.n_relations, 8, seed=3)
        params.entities[:] = params.entities[np.arange(n) % groups]
        idx = filter_index_build(ds)
        union = set(dataset_rows(ds))
        cands = list(range(n))
        for tie in TIES:
            records = rank_records(params, ds, tie=tie)
            for rec in records:
                for direction in ("tail", "head"):
                    want = brute_force_rank(params, union, *rec.triple, direction, tie, cands)
                    assert filtered_rank_pair(params, idx, *rec.triple, direction, tie) == want
                    got = (getattr(rec, f"rank_{direction}"),
                           getattr(rec, f"hits_rank_{direction}"))
                    assert got == want, (rec, direction, tie)


def test_transe_ranks_with_duplicated_entity_rows_equal_the_oracle():
    _assert_duplicated_entity_rows_rank_as_the_oracle("transe")


@pytest.mark.parametrize("kind", DOT_KINDS)
def test_dot_product_ranks_with_duplicated_entity_rows_equal_the_oracle(kind):
    _assert_duplicated_entity_rows_rank_as_the_oracle(kind)


def test_equal_entity_rows_tie_exactly_for_every_kind():
    # Every entity row equal, so every candidate ties with the target. A BLAS
    # score product rounds a row by its position in the table, and so broke
    # such ties: with seed 1, DistMult's tail rank was (2.5, 4) and its MRR 0.300.
    chain = make_dataset([(f"e{i}", "p", f"e{i + 1}") for i in range(4)], [], [("e4", "p", "e0")])
    idx = filter_index_build(chain)
    union = set(dataset_rows(chain))
    triple = chain.test[0].tolist()
    for kind in MODEL_KINDS:
        for seed in range(20):
            params = init_params(kind, 5, 1, 8, seed)
            params.entities[:] = params.entities[0]
            for direction in ("tail", "head"):
                for tie in TIES:
                    want = brute_force_rank(params, union, *triple, direction, tie, range(5))
                    got = filtered_rank_pair(params, idx, *triple, direction, tie)
                    assert got == want, (kind, seed, direction, tie)
    params = init_params("distmult", 5, 1, 8, 1)
    params.entities[:] = params.entities[0]
    assert filtered_rank_pair(params, idx, *triple, "tail") == (3.0, 5)
    assert evaluate(params, chain).mrr == pytest.approx(1 / 3)


def _assert_ranks_equal_sorted_exact_rows(params, ds, split):
    """``rank_records`` and ``filtered_rank_pair`` equal the sorting oracle over
    ``score_all_*`` rows, filtered by linear scans, under every tie policy."""
    reciprocal = params.reciprocal
    idx = filter_index_build(ds)
    union = dataset_rows(ds)
    n_rel = ds.vocab.n_relations
    entities, relations = np.arange(ds.vocab.n_entities), np.arange(n_rel)
    for tie in TIES:
        for rec in rank_records(params, ds, split=split, tie=tie):
            h, r, t = rec.triple
            queries = {
                "tail": (score_all_tails(params, h, r), linear_scan_tails(union, h, r), t,
                         entities),
                "head": (score_all_tails(params, t, n_rel + r) if reciprocal
                         else score_all_heads(params, r, t),
                         linear_scan_heads(union, r, t), h, entities),
                "relation": (score_all_relations(params, h, t)[:n_rel],
                             linear_scan_relations(union, h, t), r, relations),
            }
            for direction, (row, filtered, target, cands) in queries.items():
                want = sort_scan_rank(list(enumerate(row.tolist())), filtered, target, tie)
                got = (getattr(rec, f"rank_{direction}"), getattr(rec, f"hits_rank_{direction}"))
                assert got == want, (rec, direction, tie, reciprocal)
                assert filtered_rank_pair(params, idx, h, r, t, direction, tie,
                                          cands) == want, (rec, direction, tie, reciprocal)


def _near_tie_rows(rng, n, d, scale):
    """Rows in groups of equal rows, some of them one float step from their
    group in one coordinate."""
    rows = rng.normal(scale=scale, size=(max(1, n // 3), d))[rng.integers(max(1, n // 3), size=n)]
    nudged = np.flatnonzero(rng.random(n) < 0.4)
    k = rng.integers(d, size=nudged.size)
    rows[nudged, k] = np.nextafter(rows[nudged, k], rng.choice([-np.inf, np.inf], nudged.size))
    return rows


def _near_tie_params(rng, kind, dim, n_entities, n_relations, scale):
    width = 2 * dim if kind == "complex" else dim
    entities = _near_tie_rows(rng, n_entities, width, scale)
    if kind == "rescal":
        return ModelParams(kind, dim, entities, _near_tie_rows(
            rng, n_relations, dim * dim, scale).reshape(n_relations, dim, dim))
    return ModelParams(kind, dim, entities, _near_tie_rows(rng, n_relations, width, scale))


def _assert_near_ties_rank_as_the_sorted_exact_scores(kind, dim):
    # Equal rows and rows one float step apart give exact scores that tie or
    # differ in the last place, which the screen cannot tell apart: they are
    # counted from the exact scores of the band.
    rng = np.random.default_rng(dim)
    ds = random_kg(rng, 12, 3, n_train=30, n_test=20)
    for scale in (1e-3, 1.0, 1e3):
        for reciprocal in (False, True):
            n_rel = ds.vocab.n_relations * (2 if reciprocal else 1)
            params = _near_tie_params(rng, kind, dim, ds.vocab.n_entities, n_rel, scale)
            _assert_ranks_equal_sorted_exact_rows(replace(params, reciprocal=reciprocal), ds,
                                                  "test")


@pytest.mark.parametrize("dim", NEAR_TIE_DIMS)
def test_transe_near_ties_rank_as_the_sorted_exact_scores(dim):
    _assert_near_ties_rank_as_the_sorted_exact_scores("transe", dim)


@pytest.mark.parametrize("dim", NEAR_TIE_DIMS)
@pytest.mark.parametrize("kind", DOT_KINDS)
def test_dot_product_near_ties_rank_as_the_sorted_exact_scores(kind, dim):
    _assert_near_ties_rank_as_the_sorted_exact_scores(kind, dim)


@pytest.mark.parametrize("dim", NEAR_TIE_DIMS)
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_near_tie_ranks_do_not_depend_on_the_block_size(kind, dim, monkeypatch):
    # Every query is computed alone, in coordinate order, whatever else its
    # block holds: so are ranks between scores one float step apart.
    rng = np.random.default_rng(dim)
    ds = random_kg(rng, 12, 3, n_train=30, n_test=20)
    for scale in (1e-3, 1.0, 1e3):
        params = _near_tie_params(rng, kind, dim, ds.vocab.n_entities, ds.vocab.n_relations,
                                  scale)
        records = []
        for floats in (1, 60, 2 ** 62):
            monkeypatch.setattr(evaluation, "BLOCK_FLOATS", floats)
            records.append(rank_records(params, _fresh(ds)))
        assert records[0] == records[1] == records[2], scale


@pytest.mark.parametrize("cut", [0.0, 1 / 1024])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_near_ties_mis_rank_when_the_screen_bound_is_cut(kind, cut, monkeypatch):
    # The near-tie cases must catch a bound that is too tight: with the
    # screen's constant cut to 0, or to 1/1024 of itself, some dimension's
    # ranks differ from the sorted exact scores.
    monkeypatch.setattr(models, "_SCREEN_ULPS", models._SCREEN_ULPS * cut)
    for dim in NEAR_TIE_DIMS:
        try:
            _assert_near_ties_rank_as_the_sorted_exact_scores(kind, dim)
        except AssertionError:
            return
    pytest.fail(f"every near-tie case ranked right with the bound cut to {cut} of itself")


@pytest.mark.parametrize("dim", NEAR_TIE_DIMS)
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_each_target_is_in_its_own_band_and_the_screen_orders_the_rest(kind, dim):
    # _ranks counts a row whose band holds one cell as the target alone at
    # its level, so the target's own plane value must be within the bound;
    # and a cell beyond the bound must be ordered as the exact scores are.
    rng = np.random.default_rng(dim)
    n_e, n_r = 30, 5
    cases = [init_params(kind, n_e, n_r, dim, seed=dim)]
    cases += [_near_tie_params(rng, kind, dim, n_e, n_r, scale) for scale in (1e-3, 1.0, 1e3)]
    for params in cases:
        h, r, t = rng.integers(n_e, size=40), rng.integers(n_r, size=40), rng.integers(n_e, size=40)
        for slot, score_all, a, b, targets in (("t", score_all_tails, h, r, t),
                                               ("h", score_all_heads, r, t, h),
                                               ("r", score_all_relations, h, t, r)):
            plane, _, bound = screen(params, screen_table(params, slot), slot, a, b, targets)
            rows = np.arange(len(targets))
            assert (np.abs(plane[rows, targets]) <= bound).all(), (slot, bound)
            exact = score_all(params, a, b)
            target = exact[rows, targets][:, None]
            assert (exact > target)[plane > bound].all(), slot
            assert (exact < target)[plane < -bound].all(), slot


def _assert_overflowing_screen_ranks_as_the_sorted_exact_scores(params, ds):
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_ranks_equal_sorted_exact_rows(params, ds, "test")
        ranks = [rec.rank_tail for rec in rank_records(params, ds, tie="optimistic")]
    assert max(ranks) > 1, ranks  # not every target first


def test_transe_ranks_where_the_screen_overflows_equal_the_sorted_exact_scores():
    # |e|^2 overflows, so the screen's expansion gives inf - inf = NaN, though
    # every exact distance is finite: those rows are re-scored exactly.
    rng = np.random.default_rng(4)
    ds = random_kg(rng, 10, 2, n_train=20, n_test=6)
    params = ModelParams("transe", 16, 1e155 + rng.normal(scale=1e145, size=(10, 16)),
                         rng.normal(scale=1e145, size=(2, 16)))
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.einsum("ij,ij->i", params.entities, params.entities)).any()
    _assert_overflowing_screen_ranks_as_the_sorted_exact_scores(params, ds)


def _large_dot_params(kind, rng, ds, relation_scale):
    """Entity coordinates near +-1e153 and relation coordinates near
    +-``relation_scale``, so every score is finite."""
    n_e, n_r = ds.vocab.n_entities, ds.vocab.n_relations
    entities = (rng.choice([-1.0, 1.0], size=(n_e, 16))
                * (1e153 + rng.normal(scale=1e151, size=(n_e, 16))))
    if kind == "rescal":
        relations = relation_scale * np.eye(16) + rng.normal(scale=1e-2, size=(n_r, 16, 16))
    else:
        relations = rng.choice([-1.0, 1.0], size=(n_r, 16)) * (relation_scale + rng.normal(
            scale=relation_scale / 100, size=(n_r, 16)))
    return ModelParams(kind, 8 if kind == "complex" else 16, entities, relations)


@pytest.mark.parametrize("kind", DOT_KINDS)
def test_dot_product_ranks_where_the_screen_overflows_equal_the_sorted_exact_scores(kind):
    # Each product q_k * e_k is near 5e306, so |q| * max |e| is past an eighth
    # of the largest float and the screen sends every row to the band, though
    # every exact score is finite: those rows are re-scored exactly.
    rng = np.random.default_rng(4)
    ds = random_kg(rng, 10, 2, n_train=20, n_test=6)
    params = _large_dot_params(kind, rng, ds, 5.0)
    h, r, t = ds.test.T
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(screen(params, screen_table(params, "t"), "t", h, r, t)[0]).all()
    _assert_overflowing_screen_ranks_as_the_sorted_exact_scores(params, ds)


@pytest.mark.parametrize("kind", DOT_KINDS)
def test_dot_product_ranks_where_the_bound_nears_the_largest_float_equal_the_sorted_exact_scores(
        kind):
    # |q| * max |e| is 1.3e307 to 1.8e307, below an eighth of the largest
    # float, so the block is screened; but 17 times it is not finite.
    # The bound must stay finite, or the -inf filtered columns fall in its
    # band and are counted as candidates.
    rng = np.random.default_rng(4)
    ds = random_kg(rng, 10, 2, n_train=20, n_test=6)
    params = _large_dot_params(kind, rng, ds, 0.8)
    h, r, t = ds.test.T
    plane, _, bound = screen(params, screen_table(params, "t"), "t", h, r, t)
    assert np.isfinite(plane).all() and np.isfinite(bound)
    _assert_overflowing_screen_ranks_as_the_sorted_exact_scores(params, ds)


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
    with np.errstate(over="ignore"), pytest.raises(EvaluationError, match="not finite"):
        filtered_rank_pair(params, filter_index_build(ds), *ds.test[0], "tail")


def _by_label(result, ds):
    """A report's JSON fields but its policy, or rank records with labelled
    triples: what a corrected copy, with its own ids, must reproduce."""
    if isinstance(result, list):
        v = ds.vocab
        return [replace(rec, triple=(v.entity_label(rec.triple[0]), v.relation_label(rec.triple[1]),
                                     v.entity_label(rec.triple[2]))) for rec in result]
    return {key: value for key, value in result.to_json_dict(ds).items() if key != "policy"}


def test_an_oov_row_whose_target_score_overflows_is_refused_by_include_alone(tmp_path):
    # Every TransE distance to the OOV test entity's row of 1e200 overflows,
    # so that row's target scores are not finite. include refuses the triple;
    # exclude equals include on the corrected copy, ranked first on a fresh
    # load or after include.
    layout = DatasetLayout(dir=_oov_files(tmp_path))
    raw = load_dataset(layout)
    write_corrected(raw, detect_oov(raw), tmp_path / "corrected")
    corrected = load_dataset(DatasetLayout(dir=tmp_path / "corrected"))
    params = init_params("transe", raw.vocab.n_entities, raw.vocab.n_relations, 3, seed=19)
    spook = raw.vocab.entity_id("spook")
    params.entities[spook] = 1e200
    params_corr = align_params_to_vocab(params, list(raw.vocab.entities),
                                        list(raw.vocab.relations), corrected.vocab)
    (oov_triple,) = [tuple(tr) for tr in raw.test.tolist() if spook in tr]
    fns = (evaluate, evaluate_relation_prediction, rank_records)
    for fn in fns:
        want = _by_label(fn(params_corr, corrected, policy="include"), corrected)
        for include_first in (False, True):
            ds = load_dataset(layout)
            if include_first:
                with pytest.raises(EvaluationError, match=re.escape(f"triple {oov_triple} ")):
                    fn(params, ds, policy="include")
            assert _by_label(fn(params, ds, policy="exclude"), ds) == want, (fn.__name__,
                                                                              include_first)


def test_filtered_rank_pair_refuses_ids_outside_the_tables():
    # numpy would wrap a negative id silently
    ds = make_dataset([("a", "p", "b"), ("b", "p", "c")], [], [])
    params = init_params("distmult", 3, 1, 3, seed=0)
    idx = filter_index_build(ds)
    for triple in ((-1, 0, 1), (0, 0, -3), (0, -1, 1), (3, 0, 1), (0, 0, 3), (0, 1, 1)):
        for direction in DIRECTIONS:
            with pytest.raises(IndexError, match="out of range"):
                filtered_rank_pair(params, idx, *triple, direction)
    # so would a negative candidate id, admitting the last row
    triple = ds.train[0].tolist()
    for direction in DIRECTIONS:
        rows = 1 if direction == "relation" else 3
        for candidates, error, match in (([*range(rows), -1], IndexError, "-1 out of range"),
                                         ([*range(rows), rows], IndexError, "out of range"),
                                         ([float(x) for x in range(rows)], TypeError,
                                          "must be integers")):
            with pytest.raises(error, match=match):
                filtered_rank_pair(params, idx, *triple, direction, candidates=candidates)


def test_filtered_rank_pair_refuses_a_target_outside_the_candidates():
    ds = make_dataset([("a", "p", "b"), ("b", "p", "c")], [], [])
    params = init_params("distmult", 3, 1, 3, seed=0)
    a, b, c = (ds.vocab.entity_id(x) for x in "abc")
    for candidates in (np.array([a, c]), []):
        with pytest.raises(EvaluationError, match=f"target id {b} is not in the candidate set"):
            filtered_rank_pair(params, filter_index_build(ds), a, 0, b, "tail",
                               candidates=candidates)


def test_filtered_rank_pair_refuses_non_finite_parameters_as_evaluate_does():
    ds = make_dataset([("a", "p", "b"), ("b", "p", "c")], [], [("a", "p", "c")])
    idx = filter_index_build(ds)
    h, r, t = ds.test[0].tolist()
    # b is in no slot of the test triple, so no target score is non-finite
    for table, row, value in (("entities", ds.vocab.entity_id("b"), np.nan),
                              ("relations", r, np.inf)):
        params = init_params("distmult", 3, 1, 3, seed=0)
        getattr(params, table)[row, 0] = value
        with pytest.raises(EvaluationError, match="parameter tables contain non-finite values"):
            evaluate(params, ds)
        for direction in ("tail", "head", "relation"):
            with pytest.raises(EvaluationError,
                               match="parameter tables contain non-finite values"):
                filtered_rank_pair(params, idx, h, r, t, direction)


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
    one_relation = init_params("distmult", 3, 1, 3, seed=0)
    two_relations = make_dataset([("a", "p", "b"), ("b", "q", "c")], [], [("a", "p", "c")])
    with pytest.raises(EvaluationError, match="relation vocabulary"):
        evaluate(one_relation, two_relations, split="test")
    with pytest.raises(EvaluationError, match="relation vocabulary"):
        # 2 rows per relation
        evaluate(replace(one_relation, reciprocal=True), ds, split="test")


def test_report_json_matches_schema():
    rng = np.random.default_rng(33)
    ds = random_kg(rng, 6, 2, n_train=8, n_test=3)
    params = init_params("distmult", 6, 2, 4, seed=1)
    payload = evaluate(params, ds, split="test").to_json_dict(ds)
    schema = json.loads((SCHEMA_DIR / "metrics_report.schema.json").read_text())
    jsonschema.validate(payload, schema)
    assert all(key.startswith("r") for key in payload["per_relation_mrr"])
