import codecs
import json
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from kgbench import (DatasetError, ParseError, SplitDataset, detect_oov, load_dataset,
                     parse_triples, write_corrected)
from kgbench.ingest import DatasetLayout, EncodingError

from conftest import write_split_files

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "src" / "kgbench" / "schemas"


def test_parse_single_line():
    assert parse_triples(b"a\tp\tb\n").tolist() == [["a", "p", "b"]]


def test_parse_preserves_order_and_labels_verbatim():
    data = b"A a\tp\tb\nb\tp\tA a\n"
    assert parse_triples(data).tolist() == [["A a", "p", "b"], ["b", "p", "A a"]]


def test_parse_ignores_trailing_empty_lines():
    assert parse_triples(b"a\tp\tb\n\n\n").tolist() == [["a", "p", "b"]]


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
    assert parse_triples(b"a  p\tb\n", separator="ws").tolist() == [["a", "p", "b"]]


# fragments that make likely edge cases of a split file: separators, line
# ends, a byte order mark and an invalid UTF-8 byte
_FRAGMENTS = st.sampled_from([b"a", b"\xc3\xa9", b"\t", b" ", b"\n", b"\r", b"\xef\xbb\xbf",
                              b"\xff", b"\x00"])


@given(st.one_of(st.binary(max_size=64), st.lists(_FRAGMENTS, max_size=24).map(b"".join)),
       st.sampled_from(["tab", "ws"]))
def test_parse_returns_str_triples_or_raises(data, separator):
    try:
        triples = parse_triples(data, separator)
    except (ParseError, EncodingError):
        return
    assert type(triples) is np.ndarray and triples.dtype == object
    assert triples.ndim == 2 and triples.shape[1] == 3 and not triples.flags.writeable
    assert all(type(label) is str for label in triples.flat)
    # a byte order mark is refused, never read into the first label; with
    # "ws", a U+FEFF after leading whitespace is part of a label
    assert not data.startswith(codecs.BOM_UTF8)


_PLAIN = ["a", "b", "c", "é", "日本"]
# labels with a space, whitespace that str.split() splits on (U+00A0,
# U+0085, U+2028 and the unit separator U+001F), a control byte below the
# tab's, and the empty label
_TRICKY = ["a b", "x\xa0y", "\x85", "p\u2028q", "u\x1fv", "\x08", ""]


@st.composite
def _split_files(draw, separator: str) -> list[bytes]:
    """Three split files of distinct 3-field lines, then at most one fault in one of them."""
    labels = st.sampled_from(draw(st.sampled_from([_PLAIN, _PLAIN + _TRICKY])))
    label = st.sampled_from(draw(st.lists(labels, min_size=2, max_size=5, unique=True)))
    rows = draw(st.lists(st.lists(label, min_size=3, max_size=3), min_size=1, max_size=10,
                         unique_by=tuple))
    cut = sorted(draw(st.lists(st.integers(0, len(rows)), min_size=2, max_size=2)))
    splits = [rows[:cut[0]], rows[cut[0]:cut[1]], rows[cut[1]:]]
    fault = draw(st.sampled_from([None] * 4 + ["2 fields", "4 fields", "blank", "repeat",
                                              "\r", "bom", "\xff", "empty"]))
    k = draw(st.integers(0, 2))
    if fault in ("2 fields", "4 fields", "blank") and splits[k]:
        i = draw(st.integers(0, len(splits[k]) - 1))
        splits[k][i] = {"2 fields": splits[k][i][:2], "4 fields": splits[k][i] + ["z"],
                        "blank": []}[fault]
    elif fault == "repeat" and rows:
        splits[k].insert(draw(st.integers(0, len(splits[k]))), draw(st.sampled_from(rows)))
    joins = st.just("\t") if separator == "tab" else st.sampled_from(["\t", " ", " \t\x0b"])
    files = [("\n".join(draw(joins).join(row) for row in split)
              + "\n" * draw(st.integers(0 if split else 1, 2))).encode()
             for split in splits]
    if fault == "bom":
        files[k] = "\ufeff".encode() + files[k]
    elif fault in ("\r", "\xff"):
        at = draw(st.integers(0, len(files[k])))
        files[k] = files[k][:at] + fault.encode("latin-1") + files[k][at:]
    elif fault == "empty":
        files[k] = b""
    return files


def _outcome(fn):
    """What ``fn()`` returns, or the type, message and line number of what it raises."""
    try:
        return fn()
    except (ParseError, EncodingError, DatasetError) as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


@settings(max_examples=300)
@given(st.sampled_from(["tab", "ws"]), st.data())
def test_loader_equals_the_line_by_line_reference(separator, data):
    files = data.draw(_split_files(separator))
    with tempfile.TemporaryDirectory() as tmp:
        for split, text in zip(oracles.SPLITS, files):
            path = Path(tmp) / f"{split}.txt"
            path.write_bytes(text)
            assert _outcome(lambda: parse_triples(text, separator, str(path)).tolist()) == \
                _outcome(lambda: [list(t) for t in oracles.reference_parse(text, separator,
                                                                           str(path))])
        layout = DatasetLayout(dir=Path(tmp), separator=separator)
        got = _outcome(lambda: load_dataset(layout))
        if isinstance(got, SplitDataset):
            got = (got.vocab.entities, got.vocab.relations,
                   [got.split(split).tolist() for split in oracles.SPLITS])
        assert got == _outcome(lambda: oracles.reference_load(Path(tmp), separator))


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


def test_write_corrected_refuses_a_report_of_another_dataset(tmp_path):
    shared = {"train": [("a", "p", "b"), ("b", "p", "c"), ("c", "p", "a")],
              "valid": [("a", "p", "c")]}
    a = load_dataset(DatasetLayout(dir=write_split_files(
        tmp_path / "a", **shared, test=[("b", "p", "a"), ("x", "p", "a")])))
    longer = load_dataset(DatasetLayout(dir=write_split_files(
        tmp_path / "longer", **shared, test=[("b", "p", "a"), ("c", "p", "b"), ("x", "p", "a")])))
    b = load_dataset(DatasetLayout(dir=write_split_files(
        tmp_path / "b", **shared, test=[("y", "p", "a"), ("c", "p", "b")])))
    # a's OOV line 2 holds another triple in b; longer's OOV line 3 is past b's end
    for other, line_no in ((a, 2), (longer, 3)):
        out = tmp_path / f"out{line_no}"
        with pytest.raises(DatasetError,
                           match=f"removal entry test:{line_no} does not match this dataset"):
            write_corrected(b, detect_oov(other), out)
        assert not out.exists()
    write_corrected(b, detect_oov(b), tmp_path / "own")
    assert (tmp_path / "own" / "test.txt").read_text() == "c\tp\tb\n"


def test_write_corrected_refuses_nonempty_out_dir(tmp_path):
    d = _toy_files(tmp_path)
    ds = load_dataset(DatasetLayout(dir=d))
    out = tmp_path / "out"
    out.mkdir()
    (out / "junk.txt").write_text("x")
    with pytest.raises(FileExistsError):
        write_corrected(ds, detect_oov(ds), out)
    write_corrected(ds, detect_oov(ds), out, force=True)  # force allows it


def test_write_corrected_refuses_a_dataset_not_loaded_from_files(tmp_path):
    d = _toy_files(tmp_path)
    ds = load_dataset(DatasetLayout(dir=d))
    built = SplitDataset(ds.vocab, ds.train, ds.valid, ds.test)  # no source_dir
    out = tmp_path / "out"
    with pytest.raises(DatasetError, match="source directory"):
        write_corrected(built, detect_oov(built), out)
    assert not out.exists()


def test_write_corrected_refuses_in_place(tmp_path):
    d = _toy_files(tmp_path)
    ds = load_dataset(DatasetLayout(dir=d))
    with pytest.raises(FileExistsError, match="in place"):
        write_corrected(ds, detect_oov(ds), d, force=True)
