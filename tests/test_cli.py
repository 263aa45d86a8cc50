import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from kgbench.cli import main

from conftest import write_split_files

SRC = Path(__file__).resolve().parent.parent / "src"
SCHEMA_DIR = SRC / "kgbench" / "schemas"


@pytest.fixture(autouse=True)
def no_env_data(monkeypatch):
    monkeypatch.delenv("KGBENCH_DATA", raising=False)


@pytest.fixture
def oov_dir(tmp_path):
    return write_split_files(
        tmp_path / "raw",
        train=[("a", "p", "b"), ("b", "p", "c"), ("c", "q", "a"), ("a", "q", "c")],
        valid=[("a", "q", "b"), ("ghost", "p", "a")],
        test=[("b", "q", "a"), ("a", "p", "spook")],
    )


@pytest.fixture
def clean_dir(tmp_path):
    return write_split_files(
        tmp_path / "clean",
        train=[("a", "p", "b"), ("b", "p", "c")],
        valid=[("a", "p", "c")],
        test=[("c", "p", "a")],
    )


def test_audit_exit_codes_and_report(oov_dir, clean_dir, tmp_path, capsys):
    json_path = tmp_path / "audit.json"
    assert main(["audit", "--data", str(oov_dir), "--json", str(json_path)]) == 3
    out = capsys.readouterr().out
    assert "Out-of-vocabulary" in out
    payload = json.loads(json_path.read_text())
    schema = json.loads((SCHEMA_DIR / "audit_report.schema.json").read_text())
    jsonschema.validate(payload, schema)
    assert payload["oov"]["valid"]["n_affected_triples"] == 1
    assert payload["oov"]["test"]["n_affected_triples"] == 1
    assert payload["containment"]["entities_ok"] is False

    assert main(["audit", "--data", str(clean_dir)]) == 0


def test_audit_md_file(oov_dir, tmp_path):
    md_path = tmp_path / "audit.md"
    main(["audit", "--data", str(oov_dir), "--md", str(md_path)])
    text = md_path.read_text()
    assert "| split |" in text and "affected triples" in text


def test_audit_parse_error_exit_65(tmp_path, capsys):
    d = write_split_files(tmp_path / "bad", [("a", "p", "b")], [("a", "p", "c")],
                          [("c", "p", "a")])
    (d / "test.txt").write_text("c\tp\n")
    assert main(["audit", "--data", str(d)]) == 65
    assert "test.txt:1" in capsys.readouterr().err


def test_audit_crlf_dataset_exit_65(tmp_path, capsys):
    d = tmp_path / "crlf"
    d.mkdir()
    (d / "train.txt").write_bytes(b"a\tr\tb\r\nb\tr\tc\r\n")
    (d / "valid.txt").write_bytes(b"b\tr\ta\r\n")
    (d / "test.txt").write_bytes(b"c\tr\ta\r\n")
    assert main(["audit", "--data", str(d)]) == 65
    err = capsys.readouterr().err
    assert "train.txt:1" in err and "LF line endings" in err


def test_audit_bom_dataset_exit_65(tmp_path, capsys):
    # a byte order mark would otherwise join the first label: "\ufeffa" is
    # not "a", so "a" would read as OOV in valid and test
    d = tmp_path / "bom"
    d.mkdir()
    (d / "train.txt").write_bytes(b"\xef\xbb\xbfa\tr\tb\nb\tr\tc\n")
    (d / "valid.txt").write_bytes(b"b\tr\ta\n")
    (d / "test.txt").write_bytes(b"c\tr\ta\n")
    assert main(["audit", "--data", str(d)]) == 65
    err = capsys.readouterr().err
    assert "train.txt:1" in err and "byte order mark" in err


def test_audit_missing_file_exit_66(tmp_path, capsys):
    d = write_split_files(tmp_path / "partial", [("a", "p", "b")], [("a", "p", "c")],
                          [("c", "p", "a")])
    (d / "valid.txt").unlink()
    assert main(["audit", "--data", str(d)]) == 66


def test_usage_errors_exit_64(capsys):
    assert main(["audit"]) == 64  # no --data, no KGBENCH_DATA
    assert main(["audit", "--data", ""]) == 64
    assert main(["audit", "--bogus-flag"]) == 64
    assert main(["no-such-command"]) == 64


def test_kgbench_data_env_default(oov_dir, monkeypatch):
    monkeypatch.setenv("KGBENCH_DATA", str(oov_dir))
    assert main(["audit"]) == 3


def test_correct_writes_and_refuses(oov_dir, tmp_path, capsys):
    out = tmp_path / "corrected"
    assert main(["correct", "--data", str(oov_dir), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "manifest" in printed
    manifest = json.loads((out / "manifest.json").read_text())
    schema = json.loads((SCHEMA_DIR / "correction_manifest.schema.json").read_text())
    jsonschema.validate(manifest, schema)
    assert manifest["counts"]["removed"] == {"train": 0, "valid": 1, "test": 1}
    # corrected dir re-audits clean
    assert main(["audit", "--data", str(out)]) == 0
    # refuse to overwrite without --force
    assert main(["correct", "--data", str(oov_dir), "--out", str(out)]) == 73
    assert main(["correct", "--data", str(oov_dir), "--out", str(out), "--force"]) == 0
    # refuse writing in place even with --force
    assert main(["correct", "--data", str(oov_dir), "--out", str(oov_dir),
                 "--force"]) == 73


def test_a_correction_that_empties_a_split_loads_back(tmp_path, capsys):
    """Every valid line is OOV-affected, so ``correct`` writes a 0-byte valid.txt.

    The copy audits clean and trains; only evaluating the emptied split is
    refused, by the ranking layer.
    """
    raw = write_split_files(tmp_path / "raw", train=[("a", "p", "b"), ("b", "p", "c")],
                            valid=[("a", "p", "ghost")], test=[("c", "p", "a")])
    fixed = tmp_path / "fixed"
    assert main(["correct", "--data", str(raw), "--out", str(fixed)]) == 0
    assert (fixed / "valid.txt").read_bytes() == b""
    audit_json = tmp_path / "audit.json"
    assert main(["audit", "--data", str(fixed), "--json", str(audit_json)]) == 0
    schema = json.loads((SCHEMA_DIR / "audit_report.schema.json").read_text())
    jsonschema.validate(json.loads(audit_json.read_text()), schema)
    ckpt = tmp_path / "model.npz"
    assert _train(fixed, ckpt, tmp_path) == 0
    evaluate = ["eval", "--data", str(fixed), "--checkpoint", str(ckpt), "--split"]
    assert main([*evaluate, "test"]) == 0
    capsys.readouterr()
    assert main([*evaluate, "valid"]) == 65
    assert "no valid triples left to evaluate" in capsys.readouterr().err


def _train(data_dir, ckpt, tmp_path, extra=()):
    return main(["train", "--data", str(data_dir), "--model", "distmult",
                 "--dim", "4", "--epochs", "2", "--batch-size", "4",
                 "--seed", "7", "--out", str(ckpt), *extra])


def test_train_eval_pipeline(clean_dir, tmp_path, capsys):
    ckpt = tmp_path / "model.npz"
    loss_csv = tmp_path / "loss.csv"
    assert _train(clean_dir, ckpt, tmp_path, ("--loss-csv", str(loss_csv))) == 0
    assert ckpt.exists()
    assert loss_csv.read_text().startswith("epoch,mean_loss")

    report_path = tmp_path / "report.json"
    code = main(["eval", "--data", str(clean_dir), "--checkpoint", str(ckpt),
                 "--split", "test", "--json", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "MRR" in out
    payload = json.loads(report_path.read_text())
    schema = json.loads((SCHEMA_DIR / "metrics_report.schema.json").read_text())
    jsonschema.validate(payload, schema)
    assert payload["policy"] == "include" and payload["direction"] == "entity"


def test_eval_relation_direction(clean_dir, tmp_path):
    ckpt = tmp_path / "model.npz"
    assert _train(clean_dir, ckpt, tmp_path) == 0
    report_path = tmp_path / "relation.json"
    assert main(["eval", "--data", str(clean_dir), "--checkpoint", str(ckpt),
                 "--direction", "relation", "--json", str(report_path)]) == 0
    payload = json.loads(report_path.read_text())
    jsonschema.validate(payload, json.loads((SCHEMA_DIR / "metrics_report.schema.json")
                                            .read_text()))
    # one relation: it is the only candidate, so it ranks first
    assert payload["direction"] == "relation" and payload["mrr"] == 1.0
    assert payload["n_triples"] == 1


def test_train_config_file_with_a_flag_override(clean_dir, tmp_path, capsys):
    config = tmp_path / "train.cfg"
    config.write_text("model = distmult\ndim = 4\nepochs = 5  # the flag wins\n"
                      "batch_size = 4\nseed = 7\n")
    from_config = tmp_path / "config.npz"
    assert main(["train", "--data", str(clean_dir), "--config", str(config),
                 "--epochs", "2", "--out", str(from_config)]) == 0
    assert "for 2 epochs" in capsys.readouterr().out
    from_flags = tmp_path / "flags.npz"
    assert _train(clean_dir, from_flags, tmp_path) == 0
    with np.load(from_config) as a, np.load(from_flags) as b:
        for table in ("entities", "relations"):
            assert np.array_equal(a[table], b[table])


def test_train_reciprocal_on_a_dataset_with_a_relation_named_like_an_inverse(tmp_path):
    # inverse relations have ids, not labels, so "p_inv" is just another relation
    data = write_split_files(tmp_path / "inv", train=[("a", "p", "b"), ("b", "p_inv", "a")],
                             valid=[("b", "p", "a")], test=[("a", "p_inv", "b")])
    ckpt = tmp_path / "model.npz"
    assert _train(data, ckpt, tmp_path, ("--reciprocal",)) == 0
    with np.load(ckpt) as z:
        assert z["relation_labels"].tolist() == ["p", "p_inv"]
        assert len(z["relations"]) == 4
        assert json.loads(str(z["meta"]))["reciprocal"] is True
    report_path = tmp_path / "report.json"
    assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt),
                 "--json", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["reciprocal"] is True


def test_train_config_naming_an_unknown_model_exits_65_before_loading_data(tmp_path, capsys):
    config = tmp_path / "train.cfg"
    config.write_text("model = bogus\n")
    code = main(["train", "--data", str(tmp_path / "nowhere"), "--config", str(config),
                 "--out", str(tmp_path / "m.npz")])
    assert code == 65
    assert "unknown model 'bogus'" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_train_non_finite_loss_exit_65(oov_dir, tmp_path, capsys):
    code = main(["train", "--data", str(oov_dir), "--model", "rescal", "--dim", "4",
                 "--epochs", "5", "--batch-size", "2", "--lr", "1e160", "--optimizer", "sgd",
                 "--loss", "logistic", "--out", str(tmp_path / "m.npz")])
    assert code == 65
    assert "non-finite loss in epoch" in capsys.readouterr().err
    assert not (tmp_path / "m.npz").exists()


def test_train_transe_default_loss_refuses_zero_margin_exit_65(clean_dir, tmp_path, capsys):
    code = main(["train", "--data", str(clean_dir), "--model", "transe", "--margin", "0",
                 "--out", str(tmp_path / "m.npz")])
    assert code == 65
    assert "margin must be > 0" in capsys.readouterr().err


def test_eval_vocab_mismatch_exit_74(clean_dir, oov_dir, tmp_path, capsys):
    ckpt = tmp_path / "model.npz"
    assert _train(clean_dir, ckpt, tmp_path) == 0
    assert main(["eval", "--data", str(oov_dir), "--checkpoint", str(ckpt)]) == 74
    assert "cover" in capsys.readouterr().err


def test_eval_bad_checkpoint_exit_codes(clean_dir, tmp_path, capsys):
    ckpt = tmp_path / "model.npz"
    assert _train(clean_dir, ckpt, tmp_path) == 0
    truncated = tmp_path / "truncated.npz"
    data = ckpt.read_bytes()
    truncated.write_bytes(data[: len(data) // 2])
    not_npz = tmp_path / "notes.npz"
    not_npz.write_text("not a checkpoint\n")
    bare_array = tmp_path / "array.npz"
    with open(bare_array, "wb") as fh:
        np.save(fh, np.zeros(3))
    capsys.readouterr()
    with np.load(ckpt) as z:
        entries = dict(z)
    meta = json.loads(str(entries["meta"]))

    def rewritten(name, meta_text, **arrays):
        path = tmp_path / name
        np.savez(path, **{**entries, **arrays, "meta": np.array(meta_text)})
        return path

    malformed = [
        rewritten("no_kind.npz", json.dumps({k: v for k, v in meta.items() if k != "kind"})),
        rewritten("list_meta.npz", json.dumps(list(meta.items()))),
        rewritten("not_json.npz", "{kind: distmult"),
        rewritten("wrong_dim.npz", json.dumps({**meta, "dim": meta["dim"] + 1})),
        rewritten("zero_dim.npz", json.dumps({**meta, "dim": 0}),
                  entities=entries["entities"][:, :0], relations=entries["relations"][:, :0]),
        # ComplEx-width tables relabelled as DistMult
        rewritten("wrong_kind.npz", json.dumps(meta),
                  entities=np.hstack([entries["entities"]] * 2),
                  relations=np.hstack([entries["relations"]] * 2)),
    ]
    for path in (truncated, not_npz, bare_array, *malformed):
        assert main(["eval", "--data", str(clean_dir), "--checkpoint", str(path)]) == 74
        assert str(path) in capsys.readouterr().err
    missing = tmp_path / "missing.npz"
    assert main(["eval", "--data", str(clean_dir), "--checkpoint", str(missing)]) == 66


def test_eval_exclude_equals_corrected_include_json(oov_dir, tmp_path):
    # one checkpoint, two views of the data: excluding OOV triples on the raw
    # dataset must equal evaluating the corrected copy outright
    ckpt = tmp_path / "model.npz"
    assert _train(oov_dir, ckpt, tmp_path) == 0
    corrected = tmp_path / "star"
    assert main(["correct", "--data", str(oov_dir), "--out", str(corrected)]) == 0

    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["eval", "--data", str(oov_dir), "--checkpoint", str(ckpt),
                 "--oov-policy", "exclude", "--json", str(a_path)]) == 0
    assert main(["eval", "--data", str(corrected), "--checkpoint", str(ckpt),
                 "--oov-policy", "include", "--json", str(b_path)]) == 0
    a = json.loads(a_path.read_text())
    b = json.loads(b_path.read_text())
    assert a.pop("policy") == "exclude" and b.pop("policy") == "include"
    assert a == b  # identical JSON modulo the policy field


def test_compare_fixtures_prints_threshold(tmp_path, capsys):
    out_json = tmp_path / "cmp.json"
    assert main(["compare", "--fixtures", "wn18rr", "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "p < 0.01" in out
    assert "excluding TransE" in out
    payload = json.loads(out_json.read_text())
    assert payload["test"]["n_used"] == 28
    assert payload["test"]["p_value"] < 0.01
    assert abs(payload["summary_excluding_transe"]["mean_abs_delta"] - 0.0329) < 0.003
    schema = json.loads((SCHEMA_DIR / "test_result.schema.json").read_text())
    jsonschema.validate(payload["test"], schema)


def test_compare_report_sets(tmp_path, capsys):
    a = {"m1": {"mrr": 0.40, "hits": {"1": 0.30, "3": 0.45, "10": 0.55}},
         "m2": {"mrr": 0.20, "hits": {"1": 0.10, "3": 0.22, "10": 0.35}}}
    b = {"m1": {"mrr": 0.43, "hits": {"1": 0.33, "3": 0.47, "10": 0.58}},
         "m2": {"mrr": 0.24, "hits": {"1": 0.13, "3": 0.27, "10": 0.38}}}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert main(["compare", "--a", str(pa), "--b", str(pb)]) == 0
    assert "W+" in capsys.readouterr().out
    # mismatched labels
    b.pop("m2")
    pb.write_text(json.dumps(b))
    assert main(["compare", "--a", str(pa), "--b", str(pb)]) == 65


def test_compare_report_sets_that_do_not_pair_exit_65(tmp_path, capsys):
    a = {"m1": {"mrr": 0.40, "hits": {"1": 0.30, "3": 0.45, "10": 0.55}},
         "m2": {"mrr": 0.20, "hits": {"1": 0.10, "3": 0.22, "10": 0.35}}}
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    without_hits_10 = {"m1": {"mrr": 0.43, "hits": {"1": 0.33, "3": 0.47}},
                       "m2": {"mrr": 0.24, "hits": {"1": 0.13, "3": 0.27, "10": 0.38}}}
    mismatched_models = {"m1": a["m1"]}
    without_mrr = {"m1": {"hits": a["m1"]["hits"]}, "m2": a["m2"]}
    for b, message in ((without_hits_10, "Hits@N levels"), (mismatched_models, "m2"),
                       (without_mrr, "mrr")):
        pb.write_text(json.dumps(b))
        assert main(["compare", "--a", str(pa), "--b", str(pb)]) == 65
        assert main(["compare", "--a", str(pb), "--b", str(pa)]) == 65
        assert message in capsys.readouterr().err


def test_compare_report_sets_need_both_sides_exit_64(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["compare", "--fixtures", "wn18rr", "--b", missing]) == 64
    assert main(["compare", "--a", missing]) == 64
    assert "--a and --b must be given together" in capsys.readouterr().err
    assert main(["compare", "--b", missing]) == 64


def test_compare_identical_reports_degenerate_exit_65(tmp_path, capsys):
    a = {"m1": {"mrr": 0.4, "hits": {"1": 0.3, "3": 0.45, "10": 0.55}}}
    pa = tmp_path / "a.json"
    pa.write_text(json.dumps(a))
    assert main(["compare", "--a", str(pa), "--b", str(pa)]) == 65
    assert "degenerate" in capsys.readouterr().err


def test_compare_fixtures_takes_a_csv_path(tmp_path, capsys):
    csv_path = tmp_path / "pairs.csv"
    csv_path.write_text(
        "dataset,model,metric,original,corrected\n"
        + "".join(f"x,m{i},mrr,0.1,{0.2 + i / 100}\n" for i in range(6))
    )
    out_json = tmp_path / "cmp.json"
    assert main(["compare", "--fixtures", str(csv_path), "--json", str(out_json)]) == 0
    payload = json.loads(out_json.read_text())
    schema = json.loads((SCHEMA_DIR / "test_result.schema.json").read_text())
    jsonschema.validate(payload["test"], schema)
    assert payload["test"]["method"] == "exact-enumeration"
    assert len(payload["pairs"]) == 6 and "summary_excluding_transe" not in payload
    capsys.readouterr()
    assert main(["compare", "--fixtures", str(tmp_path / "missing.csv")]) == 66
    assert "no fixture file or shipped fixture named" in capsys.readouterr().err


def test_identical_invocations_produce_byte_identical_json(clean_dir, tmp_path):
    ckpt = tmp_path / "model.npz"
    assert _train(clean_dir, ckpt, tmp_path) == 0
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for p in (p1, p2):
        assert main(["eval", "--data", str(clean_dir), "--checkpoint", str(ckpt),
                     "--json", str(p)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "kgbench" in capsys.readouterr().out


def test_every_documented_failure_exits_with_its_code(oov_dir, clean_dir, tmp_path, capsys):
    """The exit-code contract of README and the ``cli`` docstring, one case per failure.

    Each case names a fragment of the message that must be printed, so that
    the code is asserted for the failure the case means.
    """
    from kgbench import init_params, load_dataset, save_checkpoint
    from kgbench.ingest import DatasetLayout

    def data(name, train, valid, test):
        return str(write_split_files(tmp_path / name, train, valid, test))

    def raw(name, train):
        d = tmp_path / name
        d.mkdir()
        (d / "train.txt").write_bytes(train)
        (d / "valid.txt").write_bytes(b"b\tr\ta\n")
        (d / "test.txt").write_bytes(b"c\tr\ta\n")
        return str(d)

    def checkpoint(data_dir, name, n_relation_rows=None, reciprocal=False, inf=False):
        vocab = load_dataset(DatasetLayout(dir=Path(data_dir))).vocab
        params = replace(init_params("distmult", vocab.n_entities,
                                     n_relation_rows or vocab.n_relations, 4, seed=0),
                         reciprocal=reciprocal)
        if inf:
            params.entities[0, 0] = np.inf
        path = tmp_path / name
        save_checkpoint(params, path, vocab)
        return path

    def relabel(path, name, **labels):
        """A copy of the checkpoint at ``path`` with other label tables."""
        with np.load(path) as z:
            entries = {**dict(z), **{key: np.array(value) for key, value in labels.items()}}
        np.savez(tmp_path / name, **entries)
        return tmp_path / name

    clean, oov = str(clean_dir), str(oov_dir)
    all_oov = data("all_oov", [("a", "p", "b"), ("b", "p", "c"), ("c", "p", "a")],
                   [("x", "p", "a")], [("a", "p", "y")])
    model = checkpoint(clean, "model.npz")
    odd_reciprocal = checkpoint(clean, "odd.npz", n_relation_rows=3, reciprocal=True)
    # clean's vocabulary is a, b, c and p; this one orders it b, a, c, so the
    # checkpoint's rows are aligned by label
    reordered = data("reordered", [("b", "p", "a"), ("a", "p", "c")], [("b", "p", "c")],
                     [("c", "p", "b")])
    extra_entity = relabel(model, "extra.npz", entity_labels=["x", "a", "b", "c"])
    fewer_entities = relabel(model, "fewer.npz", entity_labels=["a", "b"])
    repeated_entity = relabel(model, "repeated.npz", entity_labels=["a", "a", "c"])
    extra_relation = relabel(model, "extra_relation.npz", relation_labels=["p", "q"])
    repeated_relation = relabel(model, "repeated_relation.npz", relation_labels=["p", "p"])
    column_of_labels = relabel(model, "column.npz", entity_labels=[["a"], ["b"], ["c"]])
    object_labels = relabel(model, "object.npz", entity_labels=np.array(["a", "b", "c"], object))
    reciprocal_labels = relabel(checkpoint(clean, "reciprocal.npz", n_relation_rows=2,
                                           reciprocal=True),
                                "reciprocal_labels.npz", relation_labels=["p", "q"])
    truncated = tmp_path / "truncated.npz"
    truncated.write_bytes(model.read_bytes()[:100])
    empty_checkpoint = tmp_path / "empty.npz"
    empty_checkpoint.write_bytes(b"")
    not_json = tmp_path / "not_json.npz"
    with np.load(model) as z:
        np.savez(not_json, **{**dict(z), "meta": np.array("{kind")})
    boolean_dim = tmp_path / "boolean_dim.npz"
    with np.load(model) as z:
        meta = {**json.loads(str(z["meta"])), "dim": True}
        np.savez(boolean_dim, **{**dict(z), "meta": np.array(json.dumps(meta))})
    no_column, short_row = tmp_path / "no_column.csv", tmp_path / "short_row.csv"
    no_column.write_text("dataset,model,metric,original\nw,M,mrr,0.1\n")
    short_row.write_text("dataset,model,metric,original,corrected\nw,M,mrr,0.1\n")
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps(["m"]))
    report = {"m": {"mrr": 0.4, "hits": {"1": 0.3}}}
    number, no_hits = tmp_path / "number.json", tmp_path / "no_hits.json"
    number.write_text(json.dumps({"m": 3}))
    no_hits.write_text(json.dumps({"m": {"mrr": 0.4}}))
    number_hits, text_mrr = tmp_path / "number_hits.json", tmp_path / "text_mrr.json"
    number_hits.write_text(json.dumps({"m": {"mrr": 0.4, "hits": 3}}))
    text_mrr.write_text(json.dumps({"m": {"mrr": "x", "hits": {"1": 0.3}}}))
    same, other = tmp_path / "same.json", tmp_path / "other.json"
    same.write_text(json.dumps(report))
    other.write_text(json.dumps({"n": report["m"]}))
    occupied = tmp_path / "occupied"
    occupied.mkdir()
    (occupied / "keep.txt").write_text("x\n")

    def train(data_dir, *flags):
        return ["train", "--data", data_dir, "--out", str(tmp_path / "t.npz"), *flags]

    def evaluate(data_dir, path, *flags):
        return ["eval", "--data", data_dir, "--checkpoint", str(path), *flags]

    cases = [
        (["audit", "--data", oov], 3, "Out-of-vocabulary"),
        (["audit"], 64, "KGBENCH_DATA is not set"),
        (["audit", "--data", clean, "--bogus"], 64, "unrecognized arguments"),
        (["no-such-command"], 64, "invalid choice"),
        (train(clean, "--model", "bogus"), 64, "invalid choice"),
        (["compare", "--a", str(same)], 64, "--a and --b must be given together"),
        (["audit", "--data", raw("fields", b"a\tr\n")], 65, "expected 3 fields"),
        (["audit", "--data", raw("crlf", b"a\tr\tb\r\n")], 65, "LF line endings"),
        (["audit", "--data", raw("bom", b"\xef\xbb\xbfa\tr\tb\n")], 65, "byte order mark"),
        (["audit", "--data", raw("latin1", b"a\tr\t\xe9\n")], 65, "not valid UTF-8"),
        (["audit", "--data", data("dup", [("a", "r", "b"), ("a", "r", "b")], [("b", "r", "a")],
                                  [("c", "r", "a")])], 65, "duplicate"),
        (["audit", "--data", data("overlap", [("a", "r", "b")], [("a", "r", "b")],
                                  [("b", "r", "a")])], 65, "overlap"),
        (["compare", "--a", str(same), "--b", str(same)], 65, "degenerate"),
        (["compare", "--a", str(same), "--b", str(other)], 65, "do not cover the same models"),
        (["compare", "--fixtures", str(no_column)], 65, f"{no_column}: fixture lacks the column"),
        (["compare", "--fixtures", str(short_row)], 65, f"{short_row}: line 2 has fewer fields"),
        (["compare", "--a", str(listed), "--b", str(same)], 65, f"{listed}: a report set is"),
        (["compare", "--a", str(same), "--b", str(listed)], 65, f"{listed}: a report set is"),
        (["compare", "--a", str(number), "--b", str(same)], 65,
         f"{number}: model m: not a metrics report"),
        (["compare", "--a", str(same), "--b", str(no_hits)], 65,
         f"{no_hits}: model m: not a metrics report"),
        (["compare", "--a", str(number_hits), "--b", str(same)], 65,
         f"{number_hits}: model m: hits is not a JSON object of numbers"),
        (["compare", "--a", str(same), "--b", str(text_mrr)], 65,
         f"{text_mrr}: model m: mrr is not a number"),
        (train(clean, "--model", "transe", "--margin", "0"), 65, "margin must be > 0"),
        (train(raw("empty", b"")), 65, "train split is empty"),
        (train(oov, "--model", "rescal", "--dim", "4", "--epochs", "5", "--batch-size", "2",
               "--lr", "1e160", "--optimizer", "sgd", "--loss", "logistic"), 65,
         "non-finite loss"),
        (evaluate(clean, odd_reciprocal), 65, "cannot derive inverse"),
        (evaluate(all_oov, checkpoint(all_oov, "all_oov.npz"), "--oov-policy", "exclude"), 65,
         "no test triples left"),
        (["audit", "--data", str(tmp_path / "nowhere")], 66, "missing split file"),
        (evaluate(clean, tmp_path / "missing.npz"), 66, "missing.npz"),
        (["compare", "--fixtures", str(tmp_path / "missing.csv")], 66, "missing.csv"),
        (["compare", "--fixtures", "no-such-fixture"], 66, "no-such-fixture"),
        (["correct", "--data", oov, "--out", str(occupied)], 73, "not empty"),
        (["correct", "--data", oov, "--out", oov, "--force"], 73, "in place"),
        (evaluate(oov, model), 74, "cover"),
        (evaluate(clean, truncated), 74, "not a kgbench checkpoint"),
        (evaluate(clean, empty_checkpoint), 74, "not a kgbench checkpoint"),
        (evaluate(clean, not_json), 74, "not JSON"),
        (evaluate(clean, boolean_dim), 74, "lacks a valid dim"),
        (evaluate(clean, checkpoint(clean, "inf.npz", inf=True)), 74, "non-finite"),
        (evaluate(reordered, extra_entity), 74, "entity labels of shape (4,) (4 distinct) for 3"),
        (evaluate(clean, extra_entity), 74, "entity labels of shape (4,) (4 distinct) for 3"),
        (evaluate(reordered, fewer_entities), 74, "entity labels of shape (2,) (2 distinct) for 3"),
        (evaluate(clean, fewer_entities), 74, "entity labels of shape (2,) (2 distinct) for 3"),
        (evaluate(clean, repeated_entity), 74, "entity labels of shape (3,) (2 distinct) for 3"),
        (evaluate(clean, extra_relation), 74, "relation labels of shape (2,) (2 distinct)"),
        (evaluate(clean, repeated_relation), 74, "relation labels of shape (2,) (1 distinct)"),
        (evaluate(clean, column_of_labels), 74, "entity labels of shape (3, 1) (3 distinct) for 3"),
        (evaluate(clean, object_labels), 74, "Object arrays cannot be loaded"),
        (evaluate(clean, reciprocal_labels), 74, "relation labels of shape (2,) (2 distinct)"),
    ]
    capsys.readouterr()
    for argv, code, message in cases:
        with np.errstate(all="ignore"):
            got = main(argv)
        printed = capsys.readouterr()
        assert (got, message in printed.out + printed.err) == (code, True), (argv, printed)


#: Runs in a subprocess: every command of the pipeline on ``raw`` in the
#: current directory, with relative paths, so that two runs in two
#: directories may write the same bytes. Prints the exit codes as JSON.
_PIPELINE = r"""
import json
from kgbench.cli import main

codes = [main(["audit", "--data", "raw", "--json", "audit.json", "--md", "audit.md"]),
         main(["correct", "--data", "raw", "--out", "corrected"])]
report_sets = {"raw-include": {}, "corrected-include": {}}
for kind in ("distmult", "transe"):
    codes.append(main(["train", "--data", "raw", "--model", kind, "--dim", "4", "--epochs", "2",
                       "--seed", "3", "--out", f"{kind}.npz", "--loss-csv", f"{kind}-loss.csv"]))
    for data, policy in (("raw", "include"), ("raw", "exclude"), ("corrected", "include")):
        report = f"{kind}-{data}-{policy}.json"
        codes.append(main(["eval", "--data", data, "--checkpoint", f"{kind}.npz",
                           "--oov-policy", policy, "--json", report]))
        if policy == "include":
            with open(report, encoding="utf-8") as f:
                report_sets[f"{data}-{policy}"][kind] = json.load(f)
for name, report_set in report_sets.items():
    with open(f"{name}-set.json", "w", encoding="utf-8") as f:
        json.dump(report_set, f, sort_keys=True)
codes.append(main(["compare", "--a", "raw-include-set.json", "--b", "corrected-include-set.json",
                   "--json", "compare.json"]))
print(json.dumps(codes))
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # Set and dict orders of strings change with PYTHONHASHSEED; no output may.
    labels = [f"entity/{i}" for i in range(12)]
    train = [(labels[i], f"rel:{i % 3}", labels[(i * 5 + 1) % 12]) for i in range(12)]
    valid = [(labels[2], "rel:1", labels[7]), ("ghost", "rel:0", labels[3])]
    test = [(labels[4], "rel:2", labels[9]), (labels[1], "rel:9", labels[6]),
            (labels[8], "rel:0", "spook"), (labels[6], "rel:1", labels[11])]
    runs = {}
    for seed in ("0", "12345"):
        run = tmp_path / f"seed-{seed}"
        write_split_files(run / "raw", train, valid, test)
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(
                   p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-c", _PIPELINE], cwd=run, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [3] + [0] * 10, proc.stdout
        runs[seed] = run
    first, second = runs.values()
    files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    written = [f for f in files if f.suffix in (".json", ".md", ".csv", ".txt")]
    assert {f.suffix for f in written} == {".json", ".md", ".csv", ".txt"}
    assert Path("corrected/manifest.json") in written
    for name in written:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    for name in (f for f in files if f.suffix == ".npz"):
        with np.load(first / name) as a, np.load(second / name) as b:
            assert a.files == b.files, name
            for key in a.files:
                assert np.array_equal(a[key], b[key]), (name, key)
