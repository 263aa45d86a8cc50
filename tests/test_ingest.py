import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from kgbench import DatasetError, ParseError, detect_oov, load_dataset, parse_triples, write_corrected
from kgbench.ingest import DatasetLayout, EncodingError

from conftest import write_split_files

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "src" / "kgbench" / "schemas"


def test_parse_single_line():
    assert parse_triples(b"a\tp\tb\n") == [("a", "p", "b")]


def test_parse_preserves_order_and_labels_verbatim():
    data = b"A a\tp\tb\nb\tp\tA a\n"
    assert parse_triples(data) == [("A a", "p", "b"), ("b", "p", "A a")]


def test_parse_ignores_trailing_empty_lines():
    assert parse_triples(b"a\tp\tb\n\n\n") == [("a", "p", "b")]


def test_parse_two_fields_errors_with_line_number():
    with pytest.raises(ParseError, match="line 1") as err:
        parse_triples(b"a\tp\n")
    assert err.value.line_no == 1
    with pytest.raises(ParseError, match="line 2"):
        parse_triples(b"a\tp\tb\nx\ty\n")


def test_parse_interior_blank_line_is_an_error():
    with pytest.raises(ParseError, match="line 2"):
        parse_triples(b"a\tp\tb\n\nc\tp\td\n")


def test_parse_rejects_carriage_returns_with_line_number():
    with pytest.raises(ParseError, match="x.txt:2: .*LF line endings") as err:
        parse_triples(b"a\tp\tb\nc\tp\td\r\n", path="x.txt")
    assert err.value.line_no == 2
    with pytest.raises(ParseError, match="line 1"):
        parse_triples(b"a\tp\tb\r")


def test_parse_invalid_utf8():
    with pytest.raises(EncodingError):
        parse_triples(b"a\tp\t\xff\xfe\n")


def test_parse_whitespace_separator():
    assert parse_triples(b"a  p\tb\n", separator="ws") == [("a", "p", "b")]


def _toy_files(tmp_path: Path) -> Path:
    return write_split_files(
        tmp_path / "toy",
        train=[("a", "p", "b"), ("b", "p", "c"), ("c", "q", "a")],
        valid=[("a", "q", "b")],
        test=[("b", "q", "a"), ("new", "p", "a")],
    )


def test_load_dataset_counts_and_vocab(tmp_path):
    ds = load_dataset(DatasetLayout(dir=_toy_files(tmp_path)))
    assert (len(ds.train), len(ds.valid), len(ds.test)) == (3, 1, 2)
    assert ds.vocab.entities == ("a", "b", "c", "new")
    assert ds.vocab.relations == ("p", "q")
    assert ds.line_numbers["test"] == (1, 2)
    assert ds.source_dir == str(tmp_path / "toy")


def test_load_dataset_missing_file(tmp_path):
    d = _toy_files(tmp_path)
    (d / "valid.txt").unlink()
    with pytest.raises(FileNotFoundError):
        load_dataset(DatasetLayout(dir=d))


def test_load_dataset_empty_file(tmp_path):
    d = _toy_files(tmp_path)
    (d / "test.txt").write_text("")
    with pytest.raises(DatasetError, match="empty"):
        load_dataset(DatasetLayout(dir=d))


def test_load_dataset_duplicate_triple_rejected(tmp_path):
    d = write_split_files(tmp_path / "dup",
                          train=[("a", "p", "b"), ("a", "p", "b")],
                          valid=[("a", "q", "b")], test=[("b", "p", "a")])
    with pytest.raises(DatasetError, match="duplicate"):
        load_dataset(DatasetLayout(dir=d))


def test_load_dataset_dedupe_flag_drops_with_warning(tmp_path, caplog):
    d = write_split_files(tmp_path / "dup",
                          train=[("a", "p", "b"), ("a", "p", "b"), ("b", "p", "c")],
                          valid=[("a", "q", "b")], test=[("b", "q", "a")])
    with caplog.at_level("WARNING"):
        ds = load_dataset(DatasetLayout(dir=d), dedupe=True)
    assert len(ds.train) == 2
    assert ds.line_numbers["train"] == (1, 3)
    assert any("duplicate" in rec.message for rec in caplog.records)


def test_load_dataset_overlap_between_splits(tmp_path):
    d = write_split_files(tmp_path / "ovl",
                          train=[("a", "p", "b")],
                          valid=[("a", "p", "b")], test=[("b", "p", "a")])
    with pytest.raises(DatasetError, match="overlap"):
        load_dataset(DatasetLayout(dir=d))


def test_write_corrected_removes_oov_lines(tmp_path):
    d = _toy_files(tmp_path)
    ds = load_dataset(DatasetLayout(dir=d))
    removal = detect_oov(ds)
    out = tmp_path / "corrected"
    summary = write_corrected(ds, removal, out)
    assert summary["removed"] == {"train": 0, "valid": 0, "test": 1}
    # train byte-identical, test is the original minus the OOV line
    assert (out / "train.txt").read_bytes() == (d / "train.txt").read_bytes()
    assert (out / "test.txt").read_text() == "b\tq\ta\n"
    # corrected output re-audits clean
    ds2 = load_dataset(DatasetLayout(dir=out))
    assert detect_oov(ds2).is_empty


def test_write_corrected_identity_when_no_oov(tmp_path):
    d = write_split_files(tmp_path / "clean",
                          train=[("a", "p", "b"), ("b", "p", "c")],
                          valid=[("a", "p", "c")], test=[("c", "p", "a")])
    ds = load_dataset(DatasetLayout(dir=d))
    out = tmp_path / "out"
    write_corrected(ds, detect_oov(ds), out)
    for name in ("train.txt", "valid.txt", "test.txt"):
        assert (out / name).read_bytes() == (d / name).read_bytes()
    # round-trip: reload equals original triple-for-triple
    ds2 = load_dataset(DatasetLayout(dir=out))
    for name in ("train", "valid", "test"):
        assert np.array_equal(ds2.split(name), ds.split(name))
    assert ds2.vocab.entities == ds.vocab.entities


def test_write_corrected_lf_output_is_byte_exact(tmp_path):
    d = _toy_files(tmp_path)
    ds = load_dataset(DatasetLayout(dir=d))
    out = tmp_path / "out"
    write_corrected(ds, detect_oov(ds), out)
    for name in ("train.txt", "valid.txt"):
        assert (out / name).read_bytes() == (d / name).read_bytes()
    kept_line = (d / "test.txt").read_bytes().split(b"\n")[0] + b"\n"
    assert (out / "test.txt").read_bytes() == kept_line == b"b\tq\ta\n"


def test_write_corrected_output_is_subsequence(tmp_path):
    d = _toy_files(tmp_path)
    ds = load_dataset(DatasetLayout(dir=d))
    out = tmp_path / "out"
    write_corrected(ds, detect_oov(ds), out)
    for name in ("valid.txt", "test.txt"):
        original = (d / name).read_text().split("\n")
        corrected = (out / name).read_text().split("\n")
        it = iter(original)
        assert all(line in it for line in corrected), f"{name} is not a subsequence"


def test_write_corrected_manifest_contents_and_schema(tmp_path):
    d = _toy_files(tmp_path)
    ds = load_dataset(DatasetLayout(dir=d))
    out = tmp_path / "out"
    summary = write_corrected(ds, detect_oov(ds), out)
    manifest = json.loads(Path(summary["manifest_path"]).read_text())
    schema = json.loads((SCHEMA_DIR / "correction_manifest.schema.json").read_text())
    jsonschema.validate(manifest, schema)
    assert manifest["counts"]["kept"]["test"] == 1
    (removed,) = manifest["removed"]
    assert removed == {"split": "test", "line_no": 2, "h": "new", "r": "p", "t": "a",
                       "oov_fields": ["h"]}
    assert len(manifest["input_sha256"]) == 3


def test_write_corrected_refuses_nonempty_out_dir(tmp_path):
    d = _toy_files(tmp_path)
    ds = load_dataset(DatasetLayout(dir=d))
    out = tmp_path / "out"
    out.mkdir()
    (out / "junk.txt").write_text("x")
    with pytest.raises(FileExistsError):
        write_corrected(ds, detect_oov(ds), out)
    write_corrected(ds, detect_oov(ds), out, force=True)  # force allows it


def test_write_corrected_refuses_in_place(tmp_path):
    d = _toy_files(tmp_path)
    ds = load_dataset(DatasetLayout(dir=d))
    with pytest.raises(FileExistsError, match="in place"):
        write_corrected(ds, detect_oov(ds), d, force=True)
