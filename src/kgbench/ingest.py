"""Benchmark file I/O: parse triple files, assemble datasets, write corrections.

File format: UTF-8 text, one ``head<TAB>relation<TAB>tail`` triple per line
(LF line endings). Labels are opaque byte strings after UTF-8 validation;
nothing is case-folded or normalized, since benchmark labels such as
Freebase mids would silently merge otherwise. Some YAGO3-10 distributions
use spaces, hence the any-whitespace separator fallback.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audit import OovReport
from .core import DatasetError, LabeledTriple, SplitDataset, Vocabulary, build_vocabulary
from .version import __version__

log = logging.getLogger(__name__)

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
    """Location and format of one benchmark's split files, ``{split}.txt``."""

    dir: Path
    separator: str = "tab"  # "tab" | "ws"

    def path(self, split: str) -> Path:
        return Path(self.dir) / f"{split}.txt"

    def check(self) -> None:
        for split in ("train", "valid", "test"):
            p = self.path(split)
            if not p.is_file():
                raise FileNotFoundError(f"missing split file: {p}")
            if p.stat().st_size == 0:
                raise DatasetError(f"split file is empty: {p}")


def _split_fields(line: str, separator: str) -> list[str]:
    if separator == "tab":
        return line.split("\t")
    if separator == "ws":
        return line.split()
    raise ValueError(f"unknown separator {separator!r} (expected 'tab' or 'ws')")


def parse_triples(data: bytes, separator: str = "tab",
                  path: str | None = None) -> list[LabeledTriple]:
    """Parse one split file; preserves file order, labels verbatim.

    Trailing empty lines are ignored; any other line must have exactly three
    fields and no carriage return, or a :class:`ParseError` carrying its
    1-based line number is raised.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"{path or 'input'} is not valid UTF-8: {exc}") from exc
    if "\r" in text:
        raise ParseError("carriage return found; split files must use LF line endings",
                         text.count("\n", 0, text.index("\r")) + 1, path)
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    triples: list[LabeledTriple] = []
    for line_no, line in enumerate(lines, start=1):
        fields = _split_fields(line, separator)
        if len(fields) != 3:
            raise ParseError(f"expected 3 fields, got {len(fields)}", line_no, path)
        triples.append((fields[0], fields[1], fields[2]))
    return triples


def _dedupe(labeled: list[LabeledTriple], path: Path,
            allow: bool) -> tuple[list[LabeledTriple], list[int]]:
    seen: dict[LabeledTriple, int] = {}
    kept: list[LabeledTriple] = []
    lines: list[int] = []
    for line_no, triple in enumerate(labeled, start=1):
        if triple in seen:
            if not allow:
                raise DatasetError(
                    f"{path}:{line_no}: duplicate triple {triple} "
                    f"(first seen on line {seen[triple]}); duplicates distort metric "
                    f"denominators; pass dedupe=True to drop them"
                )
            log.warning("%s:%d: dropping duplicate triple %s", path, line_no, triple)
            continue
        seen[triple] = line_no
        kept.append(triple)
        lines.append(line_no)
    return kept, lines


def _intern(vocab: Vocabulary, labeled: list[LabeledTriple]) -> np.ndarray:
    """The ``(n, 3)`` id array of labeled triples, with no Python object per row."""
    lookups = itertools.cycle((vocab.entity_ids, vocab.relation_ids, vocab.entity_ids))
    ids = map(dict.__getitem__, lookups, itertools.chain.from_iterable(labeled))
    return np.fromiter(ids, dtype=np.int64, count=3 * len(labeled)).reshape(-1, 3)


def load_dataset(layout: DatasetLayout, dedupe: bool = False) -> SplitDataset:
    """Parse all three splits and intern them over one shared vocabulary.

    The vocabulary spans train, valid and test (the practice that makes
    OOV ids scoreable at all); ids follow first occurrence in that order.
    Duplicate triples within a split are an error unless ``dedupe`` is set;
    overlap between splits is always an error.
    """
    layout.check()
    labeled: dict[str, list[LabeledTriple]] = {}
    line_numbers: dict[str, tuple[int, ...]] = {}
    for split in ("train", "valid", "test"):
        p = layout.path(split)
        triples = parse_triples(p.read_bytes(), layout.separator, str(p))
        triples, lines = _dedupe(triples, p, dedupe)
        labeled[split] = triples
        line_numbers[split] = tuple(lines)
    vocab = build_vocabulary(
        t for split in ("train", "valid", "test") for t in labeled[split]
    )
    return SplitDataset(
        vocab,
        *(_intern(vocab, labeled[split]) for split in ("train", "valid", "test")),
        line_numbers=line_numbers,
        source_dir=str(layout.dir),
    )


def _filter_lines(data: bytes, removed: frozenset[int]) -> bytes:
    lines = data.split(b"\n")
    kept = [line for i, line in enumerate(lines, start=1) if i not in removed]
    return b"\n".join(kept)


def _labels_of(dataset: SplitDataset, triple) -> tuple[str, str, str]:
    v, (h, r, t) = dataset.vocab, triple
    return v.entity_label(h), v.relation_label(r), v.entity_label(t)


def write_corrected(dataset: SplitDataset, removal: OovReport, out_dir: Path,
                    force: bool = False) -> dict:
    """Write the dataset with OOV-affected valid/test lines removed.

    The train file is copied byte-identically; valid/test outputs are exact
    line subsequences of their originals. A JSON manifest records the tool
    version, input hashes and every removed triple, so corrected datasets
    are auditable artifacts. Returns a summary dict including the manifest.
    """
    out_dir = Path(out_dir)
    src_dir = Path(dataset.source_dir) if dataset.source_dir else None
    if src_dir is not None and out_dir.resolve() == src_dir.resolve():
        raise FileExistsError("refusing to overwrite the input dataset in place")
    if out_dir.exists() and any(out_dir.iterdir()) and not force:
        raise FileExistsError(f"output directory {out_dir} is not empty (use force)")
    out_dir.mkdir(parents=True, exist_ok=True)

    sources: dict[str, bytes] = {}
    for split in ("train", "valid", "test"):
        if src_dir is not None:
            sources[split] = (src_dir / f"{split}.txt").read_bytes()
        else:
            rows = [_labels_of(dataset, tr) for tr in dataset.split(split).tolist()]
            text = "".join("\t".join(row) + "\n" for row in rows)
            sources[split] = text.encode("utf-8")

    counts_original = {s: len(dataset.split(s)) for s in ("train", "valid", "test")}
    counts_removed = {"train": 0}
    removed_entries = []
    outputs: dict[str, bytes] = {"train": sources["train"]}
    for split in ("valid", "test"):
        affected = removal.split(split).affected
        known_lines = set(dataset.line_numbers[split])
        for a in affected:
            if a.line_no not in known_lines:
                raise DatasetError(
                    f"removal entry {split}:{a.line_no} does not match this dataset"
                )
        outputs[split] = _filter_lines(sources[split], removal.removed_line_numbers(split))
        counts_removed[split] = len(affected)
        for a in affected:
            h, r, t = _labels_of(dataset, a.triple)
            removed_entries.append(
                {"split": split, "line_no": a.line_no, "h": h, "r": r, "t": t,
                 "oov_fields": list(a.oov_fields)}
            )

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
