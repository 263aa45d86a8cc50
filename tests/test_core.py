import numpy as np
import pytest
from hypothesis import given, strategies as st

from kgbench import (
    DatasetError,
    FilterIndex,
    SplitDataset,
    Triple,
    build_vocabulary,
    filter_index_build,
    split_vocab,
)

from conftest import make_dataset, random_kg
from oracles import linear_scan_heads, linear_scan_relations, linear_scan_tails


def test_build_vocabulary_empty():
    v = build_vocabulary([])
    assert v.n_entities == 0
    assert v.n_relations == 0


def test_build_vocabulary_dedups_and_orders():
    v = build_vocabulary([("a", "p", "b"), ("b", "p", "a")])
    assert v.entities == ("a", "b")
    assert v.relations == ("p",)
    assert v.entity_id("b") == 1
    assert v.relation_label(0) == "p"


def test_vocabulary_first_occurrence_is_deterministic():
    triples = [("z", "q", "a"), ("a", "p", "z"), ("m", "q", "z")]
    v1 = build_vocabulary(triples)
    v2 = build_vocabulary(triples)
    assert v1.entities == v2.entities == ("z", "a", "m")
    assert v1.relations == ("q", "p")
    assert v1.sha256() == v2.sha256()


label = st.text(alphabet="abcxyz/_.0123456789", min_size=1, max_size=8)


@given(st.lists(st.tuples(label, label, label), max_size=30))
def test_interning_round_trip(labeled):
    v = build_vocabulary(labeled)
    for e in v.entities:
        assert v.entity_label(v.entity_id(e)) == e
    for r in v.relations:
        assert v.relation_label(v.relation_id(r)) == r
    # ids are positions
    assert all(v.entity_id(e) == i for i, e in enumerate(v.entities))


def test_split_vocab_examples():
    assert [ids.tolist() for ids in split_vocab([])] == [[], []]
    assert [ids.tolist() for ids in split_vocab([Triple(0, 0, 1)])] == [[0, 1], [0]]


def test_split_dataset_rejects_overlap():
    with pytest.raises(DatasetError, match="overlap"):
        make_dataset([("a", "p", "b")], [("a", "p", "b")], [("b", "p", "a")])


def test_split_dataset_rejects_bad_ids():
    v = build_vocabulary([("a", "p", "b")])
    with pytest.raises(DatasetError, match="outside"):
        SplitDataset(vocab=v, train=(Triple(0, 0, 5),), valid=(), test=())


def test_filter_index_single_triple():
    ds = make_dataset([("a", "p", "b")], [], [])
    idx = filter_index_build(ds)
    assert idx.tails(0, 0) == {1}
    assert idx.heads(0, 1) == {0}
    assert idx.relations(0, 1) == {0}
    assert idx.contains(Triple(0, 0, 1))
    assert not idx.contains(Triple(1, 0, 0))
    assert idx.tails(1, 0) == frozenset()


def test_filter_index_spans_all_three_splits():
    ds = make_dataset([("a", "p", "b")], [("b", "p", "c")], [("c", "p", "a")])
    idx = filter_index_build(ds)
    test_triple = ds.test[0]
    assert idx.contains(test_triple)
    assert idx.contains(ds.valid[0])


def test_filter_index_matches_linear_scan_20_triples():
    rng = np.random.default_rng(7)
    ds = random_kg(rng, n_entities=6, n_relations=3, n_train=14, n_valid=3, n_test=3)
    idx = filter_index_build(ds)
    union = list(ds.all_triples())
    for h in range(6):
        for r in range(3):
            assert idx.tails(h, r) == linear_scan_tails(union, h, r)
    for r in range(3):
        for t in range(6):
            assert idx.heads(r, t) == linear_scan_heads(union, r, t)
    for h in range(6):
        for t in range(6):
            assert idx.relations(h, t) == linear_scan_relations(union, h, t)
    for tr in union:
        assert idx.contains(tr)


@given(st.data())
def test_filter_index_query_equivalence(data):
    n_e = data.draw(st.integers(2, 7))
    n_r = data.draw(st.integers(1, 3))
    triples = data.draw(
        st.lists(
            st.tuples(st.integers(0, n_e - 1), st.integers(0, n_r - 1),
                      st.integers(0, n_e - 1)),
            min_size=1, max_size=25, unique=True,
        )
    )
    idx = FilterIndex.from_triples(Triple(*t) for t in triples)
    h = data.draw(st.integers(0, n_e - 1))
    r = data.draw(st.integers(0, n_r - 1))
    t = data.draw(st.integers(0, n_e - 1))
    assert idx.tails(h, r) == linear_scan_tails(triples, h, r)
    assert idx.heads(r, t) == linear_scan_heads(triples, r, t)
    assert idx.relations(h, t) == linear_scan_relations(triples, h, t)
    assert idx.contains(Triple(h, r, t)) == ((h, r, t) in set(triples))


def test_vocab_hash_changes_with_order():
    v1 = build_vocabulary([("a", "p", "b")])
    v2 = build_vocabulary([("b", "p", "a")])
    assert v1.sha256() != v2.sha256()


def test_filter_index_ids_outside_its_range_give_empty_sets():
    # n = 3: a query id of -1 or 3 must not alias the run of another pair
    idx = FilterIndex.from_triples([(0, 0, 1), (1, 0, 2), (2, 1, 0)])
    assert idx.n == 3
    for a, b in ((-1, 0), (0, -1), (3, 0), (0, 3), (-1, 3), (10 ** 6, 10 ** 6)):
        assert idx.tails(a, b) == frozenset()
        assert idx.heads(a, b) == frozenset()
        assert idx.relations(a, b) == frozenset()
    assert idx.tails(1, -3) == frozenset()  # (1*3 - 3)*3 is the key prefix of (0, 0)
    for tr in ((-1, 0, 1), (0, 0, -2), (0, 0, 4), (1, 0, 5), (0, 3, 1)):
        assert not idx.contains(tr)
    assert not FilterIndex.from_triples([]).contains((0, 0, 0))


def test_filter_index_refuses_ids_whose_keys_overflow_int64():
    fits = 2 ** 21 - 1  # (2**21 - 1)**3 < 2**63 <= (2**21)**3
    assert FilterIndex.from_triples([(0, 0, fits - 1)]).contains((0, 0, fits - 1))
    with pytest.raises(DatasetError, match="64-bit"):
        FilterIndex.from_triples([(0, 0, fits)])
    with pytest.raises(DatasetError, match="non-negative"):
        FilterIndex.from_triples([(0, -1, 0)])


def test_more_relations_than_entities():
    train = [("a", f"r{i}", "b") for i in range(7)]
    ds = make_dataset(train, [("b", "r3", "a")], [("b", "r6", "a")])
    assert ds.vocab.n_relations > ds.vocab.n_entities
    idx = filter_index_build(ds)
    assert idx.n == 7
    assert idx.relations(0, 1) == frozenset(range(7))
    assert idx.relations(1, 0) == {3, 6}
    assert idx.tails(0, 5) == {1} and idx.heads(5, 1) == {0}
    assert idx.tails(1, 5) == frozenset()
    ents, rels = split_vocab(ds.train)
    assert ents.tolist() == [0, 1] and rels.tolist() == list(range(7))


def test_splits_are_read_only_and_tuples_equal_arrays():
    v = build_vocabulary([("a", "p", "b"), ("b", "q", "c")])
    rows = [Triple(0, 0, 1), Triple(1, 1, 2)]
    from_tuples = SplitDataset(vocab=v, train=rows, valid=[(2, 0, 0)], test=())
    source = np.array([[0, 0, 1], [1, 1, 2]], dtype=np.int32)
    from_array = SplitDataset(vocab=v, train=source, valid=np.array([[2, 0, 0]]),
                              test=np.empty((0, 3), dtype=np.int64))
    for name in ("train", "valid", "test"):
        a, b = from_tuples.split(name), from_array.split(name)
        assert a.dtype == b.dtype == np.int64 and a.shape == b.shape and a.shape[1:] == (3,)
        assert np.array_equal(a, b)
        assert not a.flags.writeable and not b.flags.writeable
        with pytest.raises(ValueError):
            b[:1] = 0
    source[0, 0] = 1  # the dataset holds its own copy
    assert from_array.train[0].tolist() == [0, 0, 1]
    assert list(from_array.all_triples()) == rows + [Triple(2, 0, 0)]
    with pytest.raises(DatasetError, match="shape"):
        SplitDataset(vocab=v, train=[(0, 0)], valid=(), test=())


def test_split_errors_name_the_triple():
    v = build_vocabulary([("a", "p", "b"), ("b", "p", "c")])
    with pytest.raises(DatasetError, match=r"valid triple Triple\(h=1, r=0, t=3\) has ids"):
        SplitDataset(vocab=v, train=[(0, 0, 1)], valid=[(0, 0, 2), (1, 0, 3)], test=())
    with pytest.raises(DatasetError, match=r"test triple Triple\(h=0, r=-1, t=1\) has ids"):
        SplitDataset(vocab=v, train=[(0, 0, 1)], valid=(), test=[(0, -1, 1)])
    overlap = r"splits valid and test overlap, e\.g\. \('b', 'p', 'c'\)"
    with pytest.raises(DatasetError, match=overlap):
        SplitDataset(vocab=v, train=[(0, 0, 1)], valid=[(1, 0, 0), (1, 0, 2)],
                     test=[(2, 0, 0), (1, 0, 2)])
