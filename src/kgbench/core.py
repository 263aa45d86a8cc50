"""Core domain types: triples, vocabularies, split datasets, filter indexes.

Everything here is immutable after construction. Ids are dense
non-negative integers assigned by first occurrence in the concatenation
train + valid + test, by one function, :func:`intern_splits`;
out-of-vocabulary status is always decided by set membership, never by id
arithmetic. A split is a read-only ``(n, 3)`` int64 array of
``(h, r, t)`` id rows; ``Triple`` names a single triple.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class DatasetError(ValueError):
    """A dataset violates a structural invariant (duplicates, overlap, bad ids)."""


class Triple(NamedTuple):
    h: int
    r: int
    t: int


#: A triple of surface labels, before interning.
LabeledTriple = tuple[str, str, str]

SPLIT_NAMES = ("train", "valid", "test")


@dataclass(frozen=True)
class Vocabulary:
    """Bidirectional label <-> dense-id mapping for entities and relations.

    Label ``i`` of ``entities`` or ``relations`` has id ``i``, which the
    ``entity_ids`` and ``relation_ids`` dicts map it to. The constructor
    derives them from the labels and takes none; :func:`intern_splits`
    hands over the lookups its pass built, with no copy. Looking up an
    unknown label raises ``KeyError`` and adds nothing.
    """

    entities: tuple[str, ...]
    relations: tuple[str, ...]
    entity_ids: dict[str, int] = field(init=False, repr=False, compare=False)
    relation_ids: dict[str, int] = field(init=False, repr=False, compare=False)
    _sha256: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for labels, ids, kind in ((self.entities, "entity_ids", "entity"),
                                  (self.relations, "relation_ids", "relation")):
            lookup = dict(zip(labels, itertools.count()))
            if len(lookup) != len(labels):
                raise DatasetError(f"duplicate {kind} labels in vocabulary")
            object.__setattr__(self, ids, lookup)

    @classmethod
    def _of_lookups(cls, entity_ids: dict[str, int], relation_ids: dict[str, int]
                    ) -> "Vocabulary":
        """The vocabulary that keeps these lookups as they are, with no copy.

        Each lookup must map its keys, in insertion order, to 0, 1, 2, ...;
        its keys are then the labels in id order.
        """
        vocab = cls.__new__(cls)
        for name, value in (("entities", tuple(entity_ids)), ("relations", tuple(relation_ids)),
                            ("entity_ids", entity_ids), ("relation_ids", relation_ids),
                            ("_sha256", None)):
            object.__setattr__(vocab, name, value)
        return vocab

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    def entity_id(self, label: str) -> int:
        return self.entity_ids[label]

    def relation_id(self, label: str) -> int:
        return self.relation_ids[label]

    def entity_label(self, eid: int) -> str:
        return self.entities[eid]

    def relation_label(self, rid: int) -> str:
        return self.relations[rid]

    def intern(self, triple: LabeledTriple) -> Triple:
        h, r, t = triple
        return Triple(self.entity_ids[h], self.relation_ids[r], self.entity_ids[t])

    def labels(self, triple) -> LabeledTriple:
        """The labels of an ``(h, r, t)`` id triple: the inverse of :meth:`intern`."""
        h, r, t = triple
        return self.entities[h], self.relations[r], self.entities[t]

    def sha256(self) -> str:
        """Content hash covering labels *and* their order (ids depend on order).

        Computed on the first call and kept: the vocabulary is frozen.
        """
        if self._sha256 is None:
            payload = json.dumps([list(self.entities), list(self.relations)], ensure_ascii=False)
            object.__setattr__(self, "_sha256", hashlib.sha256(payload.encode("utf-8")).hexdigest())
        return self._sha256


def intern_splits(labeled: Sequence[np.ndarray]) -> tuple[Vocabulary, tuple[np.ndarray, ...]]:
    """Number every label by first occurrence and give each split its ids, in one pass.

    ``labeled`` holds ``(n, 3)`` label arrays, such as
    :func:`kgbench.ingest.parse_triples` returns, in the order train,
    valid, test. Entities are numbered in the order h, t of row 0, then
    h, t of row 1, and so on through each array in turn; relations in row
    order. Each label is looked up once, and the lookup that meets it
    first gives it the next id. Returns the vocabulary, which keeps those
    lookups, and each array's read-only ``(n, 3)`` int64 id array.
    """
    entity_ids = defaultdict(itertools.count().__next__)
    relation_ids = defaultdict(itertools.count().__next__)
    splits = []
    for labels in labeled:
        n = len(labels)
        ids = np.empty((n, 3), dtype=np.int64)
        ids[:, ::2] = np.fromiter(map(entity_ids.__getitem__, labels[:, ::2].ravel()),
                                  np.int64, 2 * n).reshape(n, 2)
        ids[:, 1] = np.fromiter(map(relation_ids.__getitem__, labels[:, 1]), np.int64, n)
        ids.flags.writeable = False
        splits.append(ids)
    # from here on an unknown label raises KeyError instead of getting an id
    entity_ids.default_factory = relation_ids.default_factory = None
    return Vocabulary._of_lookups(entity_ids, relation_ids), tuple(splits)


def build_vocabulary(triples: np.ndarray | Iterable[LabeledTriple]) -> Vocabulary:
    """Intern labels in first-occurrence order; duplicates collapse silently.

    ``triples`` is an ``(n, 3)`` label array, such as
    :func:`kgbench.ingest.parse_triples` returns, or any iterable of
    ``(h, r, t)`` label triples, which is converted to one first. The ids
    are those :func:`intern_splits` gives, by the same pass.
    """
    if not isinstance(triples, np.ndarray):
        triples = np.array(list(triples), dtype=object)
    if triples.size == 0:
        triples = triples.reshape(0, 3)
    if triples.ndim != 2 or triples.shape[1] != 3:
        raise DatasetError(f"labeled triples must form an (n, 3) array, got shape {triples.shape}")
    return intern_splits([triples])[0]


def as_triples(triples: np.ndarray | Iterable[tuple[int, int, int]]) -> np.ndarray:
    """A read-only ``(n, 3)`` int64 id array of an array or an iterable of ``(h, r, t)``.

    A read-only int64 array is returned as it is; anything else is copied.
    """
    if not (isinstance(triples, np.ndarray) and triples.dtype == np.int64
            and not triples.flags.writeable):
        triples = np.array(triples if isinstance(triples, np.ndarray) else list(triples),
                           dtype=np.int64)
        triples.flags.writeable = False
    if triples.size == 0:
        triples = triples.reshape(0, 3)
    if triples.ndim != 2 or triples.shape[1] != 3:
        raise DatasetError(f"triples must form an (n, 3) id array, got shape {triples.shape}")
    return triples


def _key_base(*splits: np.ndarray) -> int:
    """Largest id plus 1: the ``n`` of :func:`_keys`, refused if the keys overflow int64."""
    if any(s.size and s.min() < 0 for s in splits):
        raise DatasetError("triple ids must be non-negative")
    n = max((int(s.max()) + 1 for s in splits if s.size), default=0)
    if n ** 3 >= 2 ** 63:
        raise DatasetError(f"ids up to {n - 1} do not fit a 64-bit triple key")
    return n


def _keys(a: np.ndarray, b: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """``(a*n + b)*n + c``: int64 keys that sort like the tuples ``(a, b, c)``."""
    return (a * n + b) * n + c


def split_vocab(split: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted entity ids and sorted relation ids occurring in a split."""
    split = as_triples(split)
    return (np.flatnonzero(np.bincount(split[:, [0, 2]].ravel())),
            np.flatnonzero(np.bincount(split[:, 1])))


@dataclass(frozen=True, eq=False)
class SplitDataset:
    """Train/valid/test triples over one shared vocabulary.

    Splits are stored as :func:`as_triples` arrays. Row ``i`` of a split is
    line ``i + 1`` of its file, which makes a correction a byte-exact
    removal of lines. Construction refuses ids outside the vocabulary, a
    row repeated within a split and a row shared by two splits.
    ``source_dir`` is set by the loader; it names the files in errors and
    is needed for writing corrected copies.
    """

    vocab: Vocabulary
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    source_dir: str | None = None

    def __post_init__(self) -> None:
        for name in SPLIT_NAMES:
            object.__setattr__(self, name, as_triples(getattr(self, name)))
        self._validate()

    def split(self, name: str) -> np.ndarray:
        if name not in SPLIT_NAMES:
            raise KeyError(f"unknown split {name!r}")
        return getattr(self, name)

    def _validate(self) -> None:
        ne, nr = self.vocab.n_entities, self.vocab.n_relations
        for name in SPLIT_NAMES:
            split = self.split(name)
            outside = ((split < 0) | (split >= (ne, nr, ne))).any(axis=1)
            if outside.any():
                tr = Triple._make(split[outside.argmax()].tolist())
                raise DatasetError(f"{name} triple {tr} has ids outside the vocabulary")
        n = _key_base(self.train, self.valid, self.test)
        keys, sorted_keys = {}, {}
        for name in SPLIT_NAMES:
            split = self.split(name)
            keys[name] = k = _keys(*split.T, n)
            sorted_keys[name] = s = np.sort(k)
            if (s[1:] == s[:-1]).any():
                first = np.unique(k, return_index=True)[1]  # first row of each distinct key
                i = int(np.setdiff1d(np.arange(len(k)), first)[0])  # first repeat in file order
                j = int(np.flatnonzero(k == k[i])[0])
                where = str(Path(self.source_dir) / f"{name}.txt") if self.source_dir else name
                raise DatasetError(f"{where}:{i + 1}: duplicate triple "
                                   f"{self.vocab.labels(split[i].tolist())} (first seen on "
                                   f"line {j + 1}); duplicates distort metric denominators")
        for a, b in (("train", "valid"), ("train", "test"), ("valid", "test")):
            known = sorted_keys[a]
            if not len(known):
                continue
            shared = known.take(known.searchsorted(keys[b]), mode="clip") == keys[b]
            if shared.any():
                labels = self.vocab.labels(self.split(b)[shared.argmax()].tolist())
                raise DatasetError(f"splits {a} and {b} overlap, e.g. {labels}")


@dataclass(frozen=True, eq=False)
class FilterIndex:
    """Known-true triples as three sorted int64 key arrays, for filtered ranking.

    ``triples``, ``by_rt`` and ``by_ht`` are the sorted :func:`_keys` of
    ``(h, r, t)``, ``(r, t, h)`` and ``(h, t, r)`` with base ``n``, so the
    known tails of ``(h, r)`` are one run of ``triples`` found by two binary
    searches; likewise heads and relations. :meth:`runs` finds the runs of
    many pairs at once, with two vectorised searches. Duplicate keys are
    harmless to the set lookups, which return sets.
    """

    n: int
    triples: np.ndarray = field(repr=False)
    by_rt: np.ndarray = field(repr=False)
    by_ht: np.ndarray = field(repr=False)

    def runs(self, keys: np.ndarray, a: np.ndarray, b: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
        """The third ids of the keys that start with ``(a[i], b[i])``, for every ``i``.

        ``keys`` is one of the three key arrays. Returns ``(i, third id)``
        arrays, one entry per matching key, grouped by ``i`` in ascending
        order. A pair with an id outside ``[0, n)`` matches no key.
        """
        n = self.n
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        inside = (a >= 0) & (a < n) & (b >= 0) & (b < n)
        lo = _keys(np.where(inside, a, 0), np.where(inside, b, 0), 0, n)
        start = keys.searchsorted(lo)
        length = np.where(inside, keys.searchsorted(lo + n) - start, 0)
        query = np.repeat(np.arange(len(a)), length)
        # position in keys = start of the query's run + place within that run
        pos = np.arange(len(query)) + np.repeat(start - (np.cumsum(length) - length), length)
        return query, keys[pos] - lo[query]

    def _run(self, keys: np.ndarray, a: int, b: int) -> frozenset[int]:
        """The third ids of the keys that start with ``(a, b)``."""
        if not (0 <= a < self.n and 0 <= b < self.n):  # also ids too large for int64
            return frozenset()
        return frozenset(self.runs(keys, [a], [b])[1].tolist())

    def contains(self, triple: tuple[int, int, int]) -> bool:
        h, r, t = triple
        return t in self.tails(h, r)

    def tails(self, h: int, r: int) -> frozenset[int]:
        return self._run(self.triples, h, r)

    def heads(self, r: int, t: int) -> frozenset[int]:
        return self._run(self.by_rt, r, t)

    def relations(self, h: int, t: int) -> frozenset[int]:
        return self._run(self.by_ht, h, t)

    @classmethod
    def from_triples(cls, triples: np.ndarray | Iterable[tuple[int, int, int]]
                     ) -> "FilterIndex":
        triples = as_triples(triples)
        n = _key_base(triples)
        h, r, t = triples.T
        keys = [np.sort(_keys(a, b, c, n)) for a, b, c in ((h, r, t), (r, t, h), (h, t, r))]
        for k in keys:
            k.flags.writeable = False
        return cls(n, *keys)


def filter_index_build(dataset: SplitDataset) -> FilterIndex:
    """Index over train + valid + test: filtering spans all three splits."""
    return FilterIndex.from_triples(np.concatenate([dataset.train, dataset.valid, dataset.test]))
