import numpy as np
import pytest

from kgbench import Triple, degree_stats, detect_oov, load_dataset, overview_report, write_corrected
from kgbench.ingest import DatasetLayout

from conftest import make_dataset, random_kg, write_split_files
from oracles import tally_degree


def test_detect_oov_counts_entities_and_triples_independently():
    # one OOV entity appearing in two triples; two OOV entities sharing one
    # triple: 3 OOV entities but 3 affected triples in test
    train = [("a", "p", "b"), ("b", "p", "c"), ("c", "q", "a")]
    valid = [("a", "q", "c")]
    test = [("u", "p", "a"), ("u", "p", "b"), ("v", "q", "w"), ("a", "p", "c")]
    ds = make_dataset(train, valid, test)
    report = detect_oov(ds)
    assert report.valid.is_empty
    ent_labels = {ds.vocab.entity_label(e) for e in report.test.oov_entities}
    assert ent_labels == {"u", "v", "w"}
    assert report.test.n_affected == 3
    assert report.test.percentage == pytest.approx(3 / 4)
    assert [a.line_no for a in report.test.affected] == [1, 2, 3]
    assert report.test.affected[2].oov_fields == ("h", "t")


def test_detect_oov_relations():
    ds = make_dataset([("a", "p", "b")], [("a", "q", "b")], [("b", "p", "a")])
    report = detect_oov(ds)
    assert {ds.vocab.relation_label(r) for r in report.valid.oov_relations} == {"q"}
    assert report.valid.n_affected == 1
    assert report.valid.affected[0].oov_fields == ("r",)
    assert report.test.is_empty


def test_detect_oov_empty_when_vocabulary_shared():
    ds = make_dataset([("a", "p", "b"), ("b", "p", "a")], [("a", "p", "a")], [("b", "p", "b")])
    assert detect_oov(ds).is_empty


def test_oov_fields_union_equals_oov_sets():
    train = [("a", "p", "b")]
    valid = [("x", "p", "b"), ("a", "z", "y")]
    test = [("a", "p", "w"), ("w", "p", "a")]
    ds = make_dataset(train, valid, test)
    report = detect_oov(ds)
    for name in ("valid", "test"):
        split_report = report.split(name)
        ents, rels = set(), set()
        for a in split_report.affected:
            for f in a.oov_fields:
                if f == "r":
                    rels.add(a.triple.r)
                else:
                    ents.add(getattr(a.triple, f))
        assert ents == set(split_report.oov_entities)
        assert rels == set(split_report.oov_relations)


def test_degree_stats_trivial_example():
    stats = degree_stats([Triple(0, 0, 1), Triple(2, 0, 1)])
    assert stats.indegree_mean == 2.0 and stats.indegree_sd == 0.0
    assert stats.outdegree_mean == 1.0 and stats.outdegree_sd == 0.0
    assert stats.n_tail_entities == 1 and stats.n_head_entities == 2


def test_degree_stats_empty_split_errors():
    with pytest.raises(ValueError):
        degree_stats([])


def test_degree_stats_sums_match_split_size():
    rng = np.random.default_rng(11)
    ds = random_kg(rng, n_entities=9, n_relations=3, n_train=30)
    stats = degree_stats(ds.train)
    assert stats.indegree_mean * stats.n_tail_entities == pytest.approx(30)
    assert stats.outdegree_mean * stats.n_head_entities == pytest.approx(30)


def test_degree_stats_matches_brute_force_tally():
    rng = np.random.default_rng(5)
    ds = random_kg(rng, n_entities=9, n_relations=3, n_train=30)
    stats = degree_stats(ds.train)
    expected = tally_degree(ds.train)
    assert stats.indegree_mean == pytest.approx(expected["indegree_mean"])
    assert stats.indegree_sd == pytest.approx(expected["indegree_sd"])
    assert stats.outdegree_mean == pytest.approx(expected["outdegree_mean"])
    assert stats.outdegree_sd == pytest.approx(expected["outdegree_sd"])
    assert stats.n_tail_entities == expected["n_tail_entities"]
    assert stats.n_head_entities == expected["n_head_entities"]


def test_degree_stats_do_not_depend_on_id_assignment():
    # counts are summed in the order each entity is first seen, so renumbering
    # the entities leaves every bit of the SDs unchanged
    rng = np.random.default_rng(17)
    for _ in range(20):
        n, ne = int(rng.integers(50, 2000)), int(rng.integers(10, 500))
        skewed = (rng.pareto(1.0, n) * 3).astype(np.int64) % ne
        split = np.stack([rng.integers(0, ne, n), rng.integers(0, 3, n), skewed], axis=1)
        relabel = rng.permutation(ne)
        renamed = np.stack([relabel[split[:, 0]], split[:, 1], relabel[split[:, 2]]], axis=1)
        assert degree_stats(renamed) == degree_stats(split)


def test_overview_report_structure_and_containment_flags():
    ds = make_dataset([("a", "p", "b"), ("b", "p", "c")], [("a", "p", "c")], [("c", "p", "b")])
    report = overview_report(ds)
    assert report["splits"]["train"]["n_triples"] == 2
    assert report["splits"]["train"]["n_entities"] == 3
    assert report["splits"]["train"]["n_relations"] == 1
    assert report["containment"] == {"entities_ok": True, "relations_ok": True}
    assert report["oov"]["test"]["n_affected_triples"] == 0


def test_overview_report_flags_violation():
    ds = make_dataset([("a", "p", "b")], [("x", "p", "a")], [("a", "q", "b")])
    report = overview_report(ds)
    assert report["containment"] == {"entities_ok": False, "relations_ok": False}


def test_correct_then_audit_is_fixed_point(tmp_path):
    d = write_split_files(
        tmp_path / "raw",
        train=[("a", "p", "b"), ("b", "p", "c"), ("c", "p", "a")],
        valid=[("a", "p", "c"), ("ghost", "p", "a")],
        test=[("b", "p", "a"), ("a", "p", "spook")],
    )
    ds = load_dataset(DatasetLayout(dir=d))
    out = tmp_path / "fixed"
    write_corrected(ds, detect_oov(ds), out)
    corrected = load_dataset(DatasetLayout(dir=out))
    report = detect_oov(corrected)
    assert report.is_empty
    # idempotence: correcting again changes nothing
    out2 = tmp_path / "fixed2"
    write_corrected(corrected, report, out2)
    for name in ("train.txt", "valid.txt", "test.txt"):
        assert (out2 / name).read_bytes() == (out / name).read_bytes()
