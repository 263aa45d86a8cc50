"""Published-number checks that need the real benchmark files.

Each test skips with an explicit message unless $KGBENCH_DATA points at the
datasets; the same numbers are enforced by the acceptance suite.
"""

import pytest

from kgbench import (
    augment_reciprocal,
    detect_oov,
    load_dataset,
    parse_triples,
    split_vocab,
)
from kgbench.cli import main
from kgbench.models import init_params
from kgbench.training import TrainConfig, train

from conftest import benchmark_layout


@pytest.fixture(scope="module")
def wn18rr():
    return load_dataset(benchmark_layout("wn18rr"))


def test_wn18rr_union_vocabulary_size(wn18rr):
    # 40,559 train entities plus entities that only ever appear in valid/test
    assert wn18rr.vocab.n_entities == 40943
    assert wn18rr.vocab.n_relations == 11


def test_wn18rr_train_vocab_counts(wn18rr):
    ents, rels = split_vocab(wn18rr.train)
    assert len(ents) == 40559
    assert len(rels) == 11


def test_wn18rr_split_sizes_including_valid_typo(wn18rr):
    # the published overview prints the valid size ambiguously; the file has
    # 3,034 lines, consistent with 210 affected being 6.92%
    assert len(wn18rr.train) == 86835
    assert len(wn18rr.valid) == 3034
    assert len(wn18rr.test) == 3134


def test_wn18rr_test_file_parse_count():
    layout = benchmark_layout("wn18rr")
    triples = parse_triples(layout.path("test").read_bytes(), layout.separator)
    assert len(triples) == 3134


def test_wn18rr_reciprocal_augmentation_counts(wn18rr):
    augmented = augment_reciprocal(wn18rr.train, wn18rr.vocab.n_relations)
    assert int(augmented[:, 1].max()) == 21
    assert len(augmented) == 173670


def test_fb15k237_load_counts():
    ds = load_dataset(benchmark_layout("fb15k-237"))
    assert (len(ds.train), len(ds.valid), len(ds.test)) == (272115, 17535, 20466)


def test_fb15k237_relation_gap_without_oov_relations():
    ds = load_dataset(benchmark_layout("fb15k-237"))
    _, train_rels = split_vocab(ds.train)
    _, test_rels = split_vocab(ds.test)
    assert len(train_rels) == 237
    assert len(test_rels) == 224  # fewer relations used, but none unseen
    report = detect_oov(ds)
    assert not report.test.oov_relations and not report.valid.oov_relations


def test_yago310_load_counts():
    ds = load_dataset(benchmark_layout("yago3-10"))
    assert (len(ds.train), len(ds.valid), len(ds.test)) == (1079040, 5000, 5000)


def test_wn18rr_training_never_touches_oov_rows(wn18rr):
    config = TrainConfig(model="distmult", dim=8, epochs=1, batch_size=1024,
                         negatives=1, seed=0)
    result = train(wn18rr, config)
    baseline = init_params(config.model, wn18rr.vocab.n_entities,
                           wn18rr.vocab.n_relations, config.dim, config.seed)
    report = detect_oov(wn18rr)
    oov_ids = sorted(report.valid.oov_entities | report.test.oov_entities)
    assert oov_ids
    for eid in oov_ids:
        assert result.params.entities[eid].tobytes() == baseline.entities[eid].tobytes()


def test_cli_audit_real_wn18rr_exit_3(capsys):
    layout = benchmark_layout("wn18rr")
    assert main(["audit", "--data", str(layout.dir)]) == 3
    out = capsys.readouterr().out
    assert "209" in out and "210 (6.70%)" in out


def test_cli_correct_real_yago310_removal_counts(tmp_path, capsys):
    layout = benchmark_layout("yago3-10")
    out = tmp_path / "yago-star"
    assert main(["correct", "--data", str(layout.dir), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "valid: removed 22 of 5000" in printed
    assert "test: removed 18 of 5000" in printed
