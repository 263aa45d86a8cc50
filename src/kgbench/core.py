"""Core domain types: triples, vocabularies, split datasets, filter indexes.

Everything here is immutable after construction. Ids are dense
non-negative integers assigned by first occurrence in the concatenation
train + valid + test; out-of-vocabulary status is always decided by set
membership, never by id arithmetic.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, NamedTuple


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


def split_vocab(split: Iterable[Triple]) -> tuple[set[int], set[int]]:
    """Entity and relation ids actually occurring in a split."""
    ents: set[int] = set()
    rels: set[int] = set()
    for h, r, t in split:
        ents.add(h)
        ents.add(t)
        rels.add(r)
    return ents, rels


@dataclass(frozen=True)
class SplitDataset:
    """Train/valid/test triples over one shared vocabulary.

    ``line_numbers`` maps each triple back to its 1-based line in the source
    file so corrections can be byte-exact; programmatic datasets default to
    1..n. ``source_dir``/``filenames`` are set by the loader and are needed
    only for writing corrected copies.
    """

    vocab: Vocabulary
    train: tuple[Triple, ...]
    valid: tuple[Triple, ...]
    test: tuple[Triple, ...]
    line_numbers: dict[str, tuple[int, ...]] = field(default_factory=dict, repr=False)
    source_dir: str | None = None
    filenames: dict[str, str] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        lines = dict(self.line_numbers)
        for name in SPLIT_NAMES:
            split = self.split(name)
            if name not in lines:
                lines[name] = tuple(range(1, len(split) + 1))
            elif len(lines[name]) != len(split):
                raise DatasetError(f"line_numbers for {name} do not match split size")
        object.__setattr__(self, "line_numbers", lines)
        self._validate()

    def split(self, name: str) -> tuple[Triple, ...]:
        if name not in SPLIT_NAMES:
            raise KeyError(f"unknown split {name!r}")
        return getattr(self, name)

    def all_triples(self) -> Iterable[Triple]:
        for name in SPLIT_NAMES:
            yield from self.split(name)

    def _validate(self) -> None:
        ne, nr = self.vocab.n_entities, self.vocab.n_relations
        sets: dict[str, set[Triple]] = {}
        for name in SPLIT_NAMES:
            split = self.split(name)
            for tr in split:
                if not (0 <= tr.h < ne and 0 <= tr.t < ne and 0 <= tr.r < nr):
                    raise DatasetError(f"{name} triple {tr} has ids outside the vocabulary")
            sets[name] = set(split)
        for a, b in (("train", "valid"), ("train", "test"), ("valid", "test")):
            overlap = sets[a] & sets[b]
            if overlap:
                tr = next(iter(overlap))
                labels = (
                    self.vocab.entity_label(tr.h),
                    self.vocab.relation_label(tr.r),
                    self.vocab.entity_label(tr.t),
                )
                raise DatasetError(f"splits {a} and {b} overlap, e.g. {labels}")


@dataclass(frozen=True)
class FilterIndex:
    """Set membership over the union of all splits, with (h,r)/(r,t)/(h,t) indexes.

    Used by filtered ranking: known-true candidates other than the query
    triple are removed before ranks are read off.
    """

    triples: frozenset[Triple]
    tails_by_hr: dict[tuple[int, int], frozenset[int]] = field(repr=False)
    heads_by_rt: dict[tuple[int, int], frozenset[int]] = field(repr=False)
    rels_by_ht: dict[tuple[int, int], frozenset[int]] = field(repr=False)

    _EMPTY: ClassVar[frozenset[int]] = frozenset()

    def contains(self, triple: Triple) -> bool:
        return triple in self.triples

    def tails(self, h: int, r: int) -> frozenset[int]:
        return self.tails_by_hr.get((h, r), self._EMPTY)

    def heads(self, r: int, t: int) -> frozenset[int]:
        return self.heads_by_rt.get((r, t), self._EMPTY)

    def relations(self, h: int, t: int) -> frozenset[int]:
        return self.rels_by_ht.get((h, t), self._EMPTY)

    @classmethod
    def from_triples(cls, triples: Iterable[Triple]) -> "FilterIndex":
        tails: dict[tuple[int, int], set[int]] = {}
        heads: dict[tuple[int, int], set[int]] = {}
        rels: dict[tuple[int, int], set[int]] = {}
        all_triples = frozenset(triples)
        for h, r, t in all_triples:
            tails.setdefault((h, r), set()).add(t)
            heads.setdefault((r, t), set()).add(h)
            rels.setdefault((h, t), set()).add(r)
        return cls(
            triples=all_triples,
            tails_by_hr={k: frozenset(v) for k, v in tails.items()},
            heads_by_rt={k: frozenset(v) for k, v in heads.items()},
            rels_by_ht={k: frozenset(v) for k, v in rels.items()},
        )


def filter_index_build(dataset: SplitDataset) -> FilterIndex:
    """Index over train + valid + test: filtering spans all three splits."""
    return FilterIndex.from_triples(dataset.all_triples())
