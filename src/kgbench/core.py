"""Core domain types: triples, vocabularies, split datasets, filter indexes.

Everything here is immutable after construction. Ids are dense
non-negative integers assigned by first occurrence in the concatenation
train + valid + test; out-of-vocabulary status is always decided by set
membership, never by id arithmetic. A split is a read-only ``(n, 3)``
int64 array of ``(h, r, t)`` id rows; ``Triple`` names a single triple.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Iterator, NamedTuple

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
    """Bidirectional label <-> dense-id mapping for entities and relations."""

    entities: tuple[str, ...]
    relations: tuple[str, ...]
    entity_ids: dict[str, int] = field(repr=False, compare=False, default_factory=dict)
    relation_ids: dict[str, int] = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        if not self.entity_ids:
            object.__setattr__(self, "entity_ids", {e: i for i, e in enumerate(self.entities)})
        if not self.relation_ids:
            object.__setattr__(self, "relation_ids", {r: i for i, r in enumerate(self.relations)})
        if len(self.entity_ids) != len(self.entities):
            raise DatasetError("duplicate entity labels in vocabulary")
        if len(self.relation_ids) != len(self.relations):
            raise DatasetError("duplicate relation labels in vocabulary")

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

    def sha256(self) -> str:
        """Content hash covering labels *and* their order (ids depend on order)."""
        payload = json.dumps([list(self.entities), list(self.relations)], ensure_ascii=False)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_vocabulary(triples: Iterable[LabeledTriple]) -> Vocabulary:
    """Intern labels in first-occurrence order; duplicates collapse silently."""
    entities: dict[str, None] = {}
    relations: dict[str, None] = {}
    for h, r, t in triples:
        entities.setdefault(h, None)
        relations.setdefault(r, None)
        entities.setdefault(t, None)
    return Vocabulary(tuple(entities), tuple(relations))


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

    Splits are stored as :func:`as_triples` arrays. ``line_numbers`` maps
    each triple back to its 1-based line in the source file so corrections
    can be byte-exact; programmatic datasets default to 1..n.
    ``source_dir`` is set by the loader and is needed only for writing
    corrected copies.
    """

    vocab: Vocabulary
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    line_numbers: dict[str, tuple[int, ...]] = field(default_factory=dict, repr=False)
    source_dir: str | None = None

    def __post_init__(self) -> None:
        lines = dict(self.line_numbers)
        for name in SPLIT_NAMES:
            split = as_triples(getattr(self, name))
            object.__setattr__(self, name, split)
            if name not in lines:
                lines[name] = tuple(range(1, len(split) + 1))
            elif len(lines[name]) != len(split):
                raise DatasetError(f"line_numbers for {name} do not match split size")
        object.__setattr__(self, "line_numbers", lines)
        self._validate()

    def split(self, name: str) -> np.ndarray:
        if name not in SPLIT_NAMES:
            raise KeyError(f"unknown split {name!r}")
        return getattr(self, name)

    def all_triples(self) -> Iterator[Triple]:
        for name in SPLIT_NAMES:
            yield from map(Triple._make, self.split(name).tolist())

    def _validate(self) -> None:
        ne, nr = self.vocab.n_entities, self.vocab.n_relations
        for name in SPLIT_NAMES:
            split = self.split(name)
            outside = ((split < 0) | (split >= (ne, nr, ne))).any(axis=1)
            if outside.any():
                tr = Triple._make(split[outside.argmax()].tolist())
                raise DatasetError(f"{name} triple {tr} has ids outside the vocabulary")
        n = _key_base(self.train, self.valid, self.test)
        keys = {name: _keys(*self.split(name).T, n) for name in SPLIT_NAMES}
        for a, b in (("train", "valid"), ("train", "test"), ("valid", "test")):
            known = np.sort(keys[a])
            if not len(known):
                continue
            shared = known.take(known.searchsorted(keys[b]), mode="clip") == keys[b]
            if shared.any():
                h, r, t = self.split(b)[shared.argmax()].tolist()
                labels = (self.vocab.entity_label(h), self.vocab.relation_label(r),
                          self.vocab.entity_label(t))
                raise DatasetError(f"splits {a} and {b} overlap, e.g. {labels}")


@dataclass(frozen=True, eq=False)
class FilterIndex:
    """Known-true triples as three sorted int64 key arrays, for filtered ranking.

    ``triples``, ``by_rt`` and ``by_ht`` are the sorted :func:`_keys` of
    ``(h, r, t)``, ``(r, t, h)`` and ``(h, t, r)`` with base ``n``, so the
    known tails of ``(h, r)`` are one run of ``triples`` found by two binary
    searches; likewise heads and relations. Duplicate keys are harmless, as
    lookups return sets.
    """

    n: int
    triples: np.ndarray = field(repr=False)
    by_rt: np.ndarray = field(repr=False)
    by_ht: np.ndarray = field(repr=False)

    _EMPTY: ClassVar[frozenset[int]] = frozenset()

    def _run(self, keys: np.ndarray, a: int, b: int) -> frozenset[int]:
        """The third ids of the keys that start with ``(a, b)``."""
        n = self.n
        if not (0 <= a < n and 0 <= b < n):
            return self._EMPTY
        lo = (int(a) * n + int(b)) * n
        return frozenset((keys[keys.searchsorted(lo):keys.searchsorted(lo + n)] - lo).tolist())

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
