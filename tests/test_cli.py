import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from kgbench.cli import main

from conftest import write_split_files

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "src" / "kgbench" / "schemas"


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


def test_audit_missing_file_exit_66(tmp_path, capsys):
    d = write_split_files(tmp_path / "partial", [("a", "p", "b")], [("a", "p", "c")],
                          [("c", "p", "a")])
    (d / "valid.txt").unlink()
    assert main(["audit", "--data", str(d)]) == 66


def test_usage_errors_exit_64(capsys):
    assert main(["audit"]) == 64  # no --data, no KGBENCH_DATA
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
    for path in (truncated, not_npz, bare_array):
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


def test_stats_subcommand(tmp_path, capsys):
    csv_path = tmp_path / "pairs.csv"
    csv_path.write_text(
        "dataset,model,metric,original,corrected\n"
        + "".join(f"x,m{i},mrr,0.1,{0.2 + i / 100}\n" for i in range(6))
    )
    out_json = tmp_path / "stats.json"
    assert main(["stats", "--pairs", str(csv_path), "--json", str(out_json)]) == 0
    payload = json.loads(out_json.read_text())
    schema = json.loads((SCHEMA_DIR / "test_result.schema.json").read_text())
    jsonschema.validate(payload, schema)
    assert payload["method"] == "exact-enumeration"
    assert main(["stats", "--pairs", str(tmp_path / "missing.csv")]) == 66


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
