"""Benchmark file I/O: parse triple files, assemble datasets, write corrections.

File format: UTF-8 text without a byte order mark, one
``head<TAB>relation<TAB>tail`` triple per line (LF line endings). Labels
are opaque strings after UTF-8 validation; nothing is case-folded or
normalized, since benchmark labels such as Freebase mids would silently
merge otherwise. Some YAGO3-10 distributions use spaces, hence the
any-whitespace separator ``ws``, which splits a line as :meth:`str.split`
does, Unicode whitespace included.

A split is parsed whole: one ``split`` of the file's text gives its labels
as a read-only ``(n, 3)`` object array, the field count of every line is
checked at once, and no Python object is made per row. The vocabulary is
built from the three label arrays in one first-occurrence pass, then each
label column is mapped to ids.

No line is dropped or merged on the way in: only trailing blank lines
are skipped, and a repeated triple is refused, so row ``i`` of a loaded
split is line ``i + 1`` of its file and a corrected copy is its original
minus whole lines. A split file may be empty (0 bytes or blank lines
only) and loads as a ``(0, 3)`` split, so a correction that removes every
line of a split still loads back; the layers that need rows (training,
ranking, degree statistics) refuse an empty split themselves.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audit import OovReport
from .core import (SPLIT_NAMES, DatasetError, SplitDataset, Vocabulary, as_triples,
                   build_vocabulary)
from .version import __version__

MANIFEST_NAME = "manifest.json"


class ParseError(ValueError):
    def __init__(self, message: str, line_no: int, path: str | None = None):
        where = f"{path}:{line_no}" if path else f"line {line_no}"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no
        self.path = path


class EncodingError(ValueError):
    pass


@dataclass(frozen=True)
class DatasetLayout:
    """Location and format of one benchmark's split files, ``{split}.txt``.

    :meth:`check` requires all three files to exist; any of them may be empty.
    """

    dir: Path
    separator: str = "tab"  # "tab" | "ws"

    def path(self, split: str) -> Path:
        return Path(self.dir) / f"{split}.txt"

    def check(self) -> None:
        for split in ("train", "valid", "test"):
            p = self.path(split)
            if not p.is_file():
                raise FileNotFoundError(f"missing split file: {p}")


def parse_triples(data: bytes, separator: str = "tab",
                  path: str | None = None) -> np.ndarray:
    """Parse one split file into a read-only ``(n, 3)`` object array of ``str`` labels.

    Row ``i`` is line ``i + 1``; labels are kept verbatim. Trailing empty
    lines are ignored; any other line must have exactly three fields and
    no carriage return, and the file must not start with a byte order
    mark, or a :class:`ParseError` carrying its 1-based line number is
    raised. Lines end at ``"\\n"`` only. With ``separator="tab"`` fields
    are separated by single tabs, so a label may hold spaces and be empty;
    with ``"ws"`` they are separated by runs of whitespace as
    :meth:`str.split` defines it, which includes Unicode whitespace such
    as U+00A0, U+0085 and U+2028 inside a line.
    """
    if separator not in ("tab", "ws"):
        raise ValueError(f"unknown separator {separator!r} (expected 'tab' or 'ws')")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"{path or 'input'} is not valid UTF-8: {exc}") from exc
    if text.startswith("\ufeff"):  # else the mark would join the first label
        raise ParseError("byte order mark (U+FEFF) found; split files must be UTF-8 "
                         "without a BOM", 1, path)
    if "\r" in text:
        raise ParseError("carriage return found; split files must use LF line endings",
                         text.count("\n", 0, text.index("\r")) + 1, path)
    body = text.rstrip("\n")
    trailing = len(text) - len(body)
    del text  # so that only one copy of the text is alive while it is split
    if separator == "tab":
        # Tab and LF are single bytes that occur in no other UTF-8 character.
        # In the file's tabs and LFs, plus an LF that ends the last line, line
        # i has as many fields as the places from the LF before it to its own.
        raw = np.frombuffer(data, np.uint8, count=len(data) - trailing)
        separators = raw[np.flatnonzero(raw <= 10)]
        separators = np.append(separators[separators >= 9], 10)
        line_ends = np.flatnonzero(separators == 10) if body else []
        n_fields = np.diff(line_ends, prepend=-1)
        body = body.replace("\n", "\t")
        labels = body.split("\t") if body else []
    else:
        rows = list(map(str.split, body.split("\n"))) if body else []
        n_fields = np.fromiter(map(len, rows), np.int64, len(rows))
        labels = itertools.chain.from_iterable(rows)
    n = len(n_fields)
    bad = np.flatnonzero(n_fields != 3)
    if bad.size:
        raise ParseError(f"expected 3 fields, got {n_fields[bad[0]]}", int(bad[0]) + 1, path)
    triples = np.fromiter(labels, object, 3 * n).reshape(n, 3)
    triples.flags.writeable = False
    return triples


def _intern(vocab: Vocabulary, labeled: np.ndarray) -> np.ndarray:
    """The read-only ``(n, 3)`` id array of an ``(n, 3)`` label array, column by column."""
    ids = np.empty(labeled.shape, dtype=np.int64)
    for col, lookup in enumerate((vocab.entity_ids, vocab.relation_ids, vocab.entity_ids)):
        ids[:, col] = np.fromiter(map(lookup.__getitem__, labeled[:, col]), np.int64,
                                  len(labeled))
    ids.flags.writeable = False
    return ids


def load_dataset(layout: DatasetLayout) -> SplitDataset:
    """Parse all three splits and intern them over one shared vocabulary.

    The vocabulary spans train, valid and test (the practice that makes
    OOV ids scoreable at all); ids follow first occurrence in that order.
    Row ``i`` of each split is line ``i + 1`` of its file. A triple repeated
    within a split or shared by two splits is refused by :class:`SplitDataset`.
    """
    layout.check()
    labeled = [parse_triples(layout.path(split).read_bytes(), layout.separator,
                             str(layout.path(split)))
               for split in SPLIT_NAMES]
    vocab = build_vocabulary(np.concatenate(labeled))
    return SplitDataset(vocab, *(_intern(vocab, split) for split in labeled),
                        source_dir=str(layout.dir))


def _filter_lines(data: bytes, removed: frozenset[int]) -> bytes:
    lines = data.split(b"\n")
    kept = [line for i, line in enumerate(lines, start=1) if i not in removed]
    return b"\n".join(kept)


def write_corrected(dataset: SplitDataset, removal: OovReport, out_dir: Path,
                    force: bool = False) -> dict:
    """Write the dataset with OOV-affected valid/test lines removed.

    The train file is copied byte-identically; valid/test outputs are exact
    line subsequences of their originals. A JSON manifest records the tool
    version, input hashes and every removed triple, so corrected datasets
    are auditable artifacts. Returns a summary dict including the manifest.
    Only a dataset loaded from files (with a ``source_dir``) can be corrected.
    """
    if not dataset.source_dir:
        raise DatasetError("dataset has no source directory; only loaded files can be corrected")
    out_dir = Path(out_dir)
    src_dir = Path(dataset.source_dir)
    if out_dir.resolve() == src_dir.resolve():
        raise FileExistsError("refusing to overwrite the input dataset in place")
    if out_dir.exists() and any(out_dir.iterdir()) and not force:
        raise FileExistsError(f"output directory {out_dir} is not empty (use force)")

    sources = {split: (src_dir / f"{split}.txt").read_bytes()
               for split in ("train", "valid", "test")}

    counts_original = {s: len(dataset.split(s)) for s in ("train", "valid", "test")}
    counts_removed = {"train": 0}
    removed_entries = []
    outputs: dict[str, bytes] = {"train": sources["train"]}
    for split in ("valid", "test"):
        affected = removal.split(split).affected
        rows = dataset.split(split)
        lines = np.array([a.line_no for a in affected], dtype=np.int64)
        matches = (lines >= 1) & (lines <= len(rows))
        matches[matches] = (rows[lines[matches] - 1]
                            == as_triples([a.triple for a in affected])[matches]).all(axis=1)
        if not matches.all():
            raise DatasetError(f"removal entry {split}:{affected[matches.argmin()].line_no} "
                               "does not match this dataset")
        outputs[split] = _filter_lines(sources[split], removal.removed_line_numbers(split))
        counts_removed[split] = len(affected)
        for a in affected:
            h, r, t = dataset.vocab.labels(a.triple)
            removed_entries.append(
                {"split": split, "line_no": a.line_no, "h": h, "r": r, "t": t,
                 "oov_fields": list(a.oov_fields)}
            )

    out_dir.mkdir(parents=True, exist_ok=True)
    for split in ("train", "valid", "test"):
        (out_dir / f"{split}.txt").write_bytes(outputs[split])

    manifest = {
        "tool_version": __version__,
        "input_sha256": {
            f"{s}.txt": hashlib.sha256(sources[s]).hexdigest() for s in ("train", "valid", "test")
        },
        "removed": removed_entries,
        "counts": {
            "original": counts_original,
            "removed": counts_removed,
            "kept": {s: counts_original[s] - counts_removed.get(s, 0) for s in counts_original},
        },
    }
    manifest_path = out_dir / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {"manifest_path": str(manifest_path), **manifest["counts"]}
