"""Seeded synthetic knowledge graphs with the shape of a published benchmark.

A :class:`Shape` fixes the entity and relation counts, the split sizes, the
number of out-of-vocabulary (OOV) entities per evaluation split and the
degree skew. :func:`generate` turns a shape and a seed into three split
files whose bytes depend on nothing else.

Every entity is placed explicitly: train entities are first paired off so
each occurs in at least one train triple, and each OOV entity gets its own
affected valid/test triple. A plain power-law draw leaves a large share of
a sparse graph's entities unused (40% of the 40,943 entities when the
wn18rr shape's 21,000 train triples are drawn with its skews), which would silently shrink the
vocabulary the program sees.

The expected OOV lines are computed from the label strings alone, so the
benchmark can check the program's audit against them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPLITS = ("train", "valid", "test")
EVAL_SPLITS = ("valid", "test")
EXPECTED_NAME = "expected.json"


@dataclass(frozen=True)
class Shape:
    """Counts and degree skew of one synthetic KG.

    ``affected`` and ``oov`` are per evaluation split (valid, test);
    ``oov_shared`` OOV entities occur in both. Every OOV entity sits in at
    least one affected triple, so ``affected >= oov`` per split. Skews are
    power-law exponents of the head, tail and relation draws (0 = uniform).
    """

    reference: str  # key in kgbench's fixtures/reference_stats.json
    labels: str  # "wordnet" | "freebase"
    n_entities: int
    n_relations: int
    n_train: int
    n_valid: int
    n_test: int
    affected: tuple[int, int]
    oov: tuple[int, int]
    oov_shared: int
    head_skew: float
    tail_skew: float
    relation_skew: float
    hub_cover: bool = False

    def __post_init__(self) -> None:
        for a, o in zip(self.affected, self.oov):
            if a < o:
                raise ValueError(f"{a} affected triples cannot hold {o} OOV entities")
        if self.oov_shared > min(self.oov):
            raise ValueError("more shared OOV entities than OOV entities in a split")
        covered = self.n_train_entities if self.hub_cover else self.n_train_entities / 2
        if self.n_train < max(covered, self.n_relations):
            raise ValueError("train split too small to cover every entity and relation")

    @property
    def n_oov(self) -> int:
        return self.oov[0] + self.oov[1] - self.oov_shared

    @property
    def n_train_entities(self) -> int:
        return self.n_entities - self.n_oov

    def split_size(self, split: str) -> int:
        return {"train": self.n_train, "valid": self.n_valid, "test": self.n_test}[split]


@dataclass(frozen=True)
class Generated:
    """Split file contents plus what the generator knows about them."""

    files: dict[str, bytes]
    expected: dict

    def write(self, out_dir: Path) -> Path:
        """Write ``out_dir/raw/{train,valid,test}.txt`` and ``out_dir/expected.json``.

        Only the ``raw`` directory is given to the program.
        """
        raw = Path(out_dir) / "raw"
        raw.mkdir(parents=True, exist_ok=True)
        for split in SPLITS:
            (raw / f"{split}.txt").write_bytes(self.files[split])
        (Path(out_dir) / EXPECTED_NAME).write_text(
            json.dumps(self.expected, sort_keys=True) + "\n", encoding="utf-8")
        return raw


def _labels(style: str, n_entities: int, n_relations: int,
            rng: np.random.Generator) -> tuple[list[str], list[str]]:
    """Distinct labels in the style of the benchmark's files."""
    if style == "wordnet":  # 8-digit synset offsets and _relation names
        codes = rng.choice(10 ** 8, size=n_entities, replace=False)
        entities = [f"{c:08d}" for c in codes.tolist()]
        relations = [f"_relation_{r:02d}" for r in range(n_relations)]
    elif style == "freebase":  # /m/0xxxx mids and three-part relation paths
        codes = rng.choice(36 ** 5, size=n_entities, replace=False)
        entities = [f"/m/0{np.base_repr(c, 36).lower()}" for c in codes.tolist()]
        relations = [f"/domain_{r % 40}/type_{r // 40}/property_{r}"
                     for r in range(n_relations)]
    else:
        raise ValueError(f"unknown label style {style!r}")
    return entities, relations


def _power_weights(n: int, skew: float, rng: np.random.Generator) -> np.ndarray:
    """Probabilities proportional to rank^-skew, ranks assigned at random."""
    w = np.arange(1, n + 1, dtype=np.float64) ** -skew
    w = w[rng.permutation(n)]
    return w / w.sum()


class _TripleSet:
    """The distinct (h, r, t) triples placed so far, across all splits."""

    def __init__(self, n_entities: int, n_relations: int):
        self.ne, self.nr = n_entities, n_relations
        self.sorted_keys = np.empty(0, dtype=np.int64)

    def _placed(self, keys: np.ndarray) -> np.ndarray:
        if not len(self.sorted_keys):
            return np.zeros(len(keys), dtype=bool)
        pos = np.minimum(np.searchsorted(self.sorted_keys, keys), len(self.sorted_keys) - 1)
        return self.sorted_keys[pos] == keys

    def take(self, h: np.ndarray, r: np.ndarray, t: np.ndarray,
             limit: int | None = None) -> np.ndarray:
        """Indices of candidates not placed yet (first copy only, at most ``limit``).

        The taken candidates are recorded as placed.
        """
        keys = (h.astype(np.int64) * self.nr + r) * self.ne + t
        _, first = np.unique(keys, return_index=True)
        first.sort()
        fresh = first[(h[first] != t[first]) & ~self._placed(keys[first])][:limit]
        self.sorted_keys = np.sort(np.concatenate([self.sorted_keys, keys[fresh]]))
        return fresh


Triples = tuple[np.ndarray, np.ndarray, np.ndarray]


def _fill(n: int, placed: _TripleSet, draw) -> Triples:
    """n new distinct triples from ``draw(size)``, drawing again until full."""
    empty = np.empty(0, dtype=np.int64)
    parts: list[Triples] = [(empty, empty, empty)]
    have = 0
    while have < n:
        need = n - have
        h, r, t = draw(need + need // 4 + 16)
        fresh = placed.take(h, r, t, need)
        parts.append((h[fresh], r[fresh], t[fresh]))
        have += len(fresh)
    return tuple(np.concatenate([p[i] for p in parts]) for i in range(3))


def _with_oov(draw: "_Draw", oov: np.ndarray) -> Triples:
    """Background triples with the given OOV entities put on a random side."""
    h, r, t = draw(len(oov))
    on_head = draw.rng.integers(0, 2, len(oov)).astype(bool)
    return np.where(on_head, oov, h), r, np.where(on_head, t, oov)


def _place_each(oov: np.ndarray, placed: _TripleSet, draw: "_Draw") -> Triples:
    """One new triple for every OOV entity."""
    parts: list[Triples] = []
    pending = oov
    while len(pending):
        h, r, t = _with_oov(draw, pending)
        fresh = placed.take(h, r, t)
        parts.append((h[fresh], r[fresh], t[fresh]))
        pending = np.delete(pending, fresh)
    return tuple(np.concatenate([p[i] for p in parts]) for i in range(3))


class _Draw:
    """Background triples among train entities, with the shape's skews."""

    def __init__(self, shape: Shape, rng: np.random.Generator):
        n_in = shape.n_train_entities
        self.rng = rng
        self.n_in, self.n_rel = n_in, shape.n_relations
        self.head_p = _power_weights(n_in, shape.head_skew, rng)
        self.tail_p = _power_weights(n_in, shape.tail_skew, rng)
        self.rel_p = _power_weights(shape.n_relations, shape.relation_skew, rng)

    def relations(self, size: int) -> np.ndarray:
        return self.rng.choice(self.n_rel, size, p=self.rel_p)

    def __call__(self, size: int) -> Triples:
        return (self.rng.choice(self.n_in, size, p=self.head_p),
                self.relations(size),
                self.rng.choice(self.n_in, size, p=self.tail_p))


def _cover(shape: Shape, placed: _TripleSet, draw: _Draw) -> Triples:
    """Train triples that use every train entity and every relation at least once.

    Without ``hub_cover`` the train entities are paired off, one triple per
    pair. With it, every train entity is the head of one triple whose tail
    is drawn with the tail skew, so the cover itself piles onto hub tails.
    """
    rng = draw.rng
    perm = rng.permutation(shape.n_train_entities)
    if shape.hub_cover:
        h = perm
        t = rng.choice(draw.n_in, len(h), p=draw.tail_p)
        while np.any(same := t == h):  # no self-loops
            t[same] = rng.choice(draw.n_in, int(same.sum()), p=draw.tail_p)
    else:
        if len(perm) % 2:  # pair the odd one out with some other entity
            perm = np.append(perm, perm[int(rng.integers(0, len(perm) - 1))])
        h, t = perm[0::2], perm[1::2]
    r = draw.relations(len(h))
    r[:shape.n_relations] = rng.permutation(shape.n_relations)
    fresh = placed.take(h, r, t)
    if len(fresh) != len(h):
        raise AssertionError("cover triples have distinct heads, so none can repeat")
    return h, r, t


def _expected(shape: Shape, train_entities: set[str], train_relations: set[str],
              lines: dict[str, list[str]]) -> dict:
    """OOV facts: eval lines whose label strings are missing from the train labels."""
    expected: dict = {"shape": shape.reference, "n_entities": shape.n_entities,
                      "n_relations": shape.n_relations,
                      "n_train_entities": len(train_entities),
                      "n_train_relations": len(train_relations), "splits": {}}
    for split in EVAL_SPLITS:
        affected, oov = [], set()
        for line_no, line in enumerate(lines[split], start=1):
            h, r, t = line.rstrip("\n").split("\t")
            missing = [e for e in (h, t) if e not in train_entities]
            if missing or r not in train_relations:
                affected.append(line_no)
                oov.update(missing)
        expected["splits"][split] = {"n_triples": len(lines[split]),
                                     "affected_lines": affected,
                                     "oov_entities": sorted(oov)}
    return expected


def generate(shape: Shape, seed: int) -> Generated:
    """Split files of ``shape`` drawn from ``seed``; same seed, same bytes."""
    rng = np.random.default_rng(seed)
    entities, relations = _labels(shape.labels, shape.n_entities, shape.n_relations, rng)
    placed = _TripleSet(shape.n_entities, shape.n_relations)
    draw = _Draw(shape, rng)

    cover = _cover(shape, placed, draw)
    rest = _fill(shape.n_train - len(cover[0]), placed, draw)
    splits: dict[str, Triples] = {
        "train": tuple(np.concatenate([c, x]) for c, x in zip(cover, rest))}

    n_in = shape.n_train_entities
    oov_ids = np.arange(n_in, shape.n_entities)
    shared = oov_ids[:shape.oov_shared]
    own_valid = oov_ids[shape.oov_shared:shape.oov[0]]
    own_test = oov_ids[shape.oov[0]:]
    split_oov = {"valid": np.concatenate([shared, own_valid]),
                 "test": np.concatenate([shared, own_test])}
    for i, split in enumerate(EVAL_SPLITS):
        oov = split_oov[split]
        each = _place_each(oov, placed, draw)
        extra = _fill(shape.affected[i] - len(oov), placed,
                      lambda size, oov=oov: _with_oov(draw, oov[rng.integers(0, len(oov), size)]))
        clean = _fill(shape.split_size(split) - shape.affected[i], placed, draw)
        parts = (each, extra, clean)
        order = rng.permutation(shape.split_size(split))
        splits[split] = tuple(np.concatenate([p[j] for p in parts])[order] for j in range(3))

    order = rng.permutation(shape.n_train)
    splits["train"] = tuple(a[order] for a in splits["train"])
    h, r, t = splits["train"]
    train_entities = {entities[i] for i in np.union1d(h, t).tolist()}
    train_relations = {relations[i] for i in np.unique(r).tolist()}
    lines = {
        split: [f"{entities[h]}\t{relations[r]}\t{entities[t]}\n"
                for h, r, t in zip(*(a.tolist() for a in splits[split]))]
        for split in SPLITS
    }
    return Generated(
        files={split: "".join(lines[split]).encode("utf-8") for split in SPLITS},
        expected=_expected(shape, train_entities, train_relations, lines),
    )


#: The shapes the workloads use. The full shapes' entity and relation
#: totals and every shape's OOV shares follow kgbench's
#: fixtures/reference_stats.json. The ``-sample`` shapes keep the relation
#: count and skews with fewer entities, so that every stage call of a round
#: is short (see README.md).
SHAPES = {
    "wn18rr": Shape(
        reference="wn18rr", labels="wordnet", n_entities=40_943, n_relations=11,
        n_train=21_000, n_valid=260, n_test=45, affected=(18, 3), oov=(17, 3),
        oov_shared=1, head_skew=0.35, tail_skew=0.55, relation_skew=1.0),
    "fb15k-237": Shape(
        reference="fb15k-237", labels="freebase", n_entities=14_541, n_relations=237,
        n_train=18_000, n_valid=1_200, n_test=400, affected=(1, 1), oov=(1, 1),
        oov_shared=0, head_skew=0.85, tail_skew=0.835, relation_skew=1.0, hub_cover=True),
    "wn18rr-sample": Shape(
        reference="wn18rr", labels="wordnet", n_entities=2_200, n_relations=11,
        n_train=1_150, n_valid=260, n_test=45, affected=(18, 3), oov=(17, 3),
        oov_shared=1, head_skew=0.35, tail_skew=0.55, relation_skew=1.0),
    "fb15k-237-sample": Shape(
        reference="fb15k-237", labels="freebase", n_entities=2_000, n_relations=237,
        n_train=2_500, n_valid=1_200, n_test=400, affected=(1, 1), oov=(1, 1),
        oov_shared=0, head_skew=0.85, tail_skew=0.835, relation_skew=1.0, hub_cover=True),
}
