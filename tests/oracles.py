"""Independent reference implementations used to verify the library.

Everything here deliberately avoids the code paths under test: scores are
straight-line Python loops (complex arithmetic via the complex type),
ranking materializes/sorts/scans full candidate lists, index queries are
linear scans, degree stats are hand-rolled tallies, and the Wilcoxon
reference literally enumerates all 2^n sign assignments. The reference
loader parses one line at a time into label tuples, numbers labels with
``setdefault`` and checks repeats with Python sets.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

from kgbench import DatasetError, ParseError
from kgbench.ingest import EncodingError

SPLITS = ("train", "valid", "test")


def scalar_score(kind: str, dim: int, e_h, rel, e_t) -> float:
    """Straight-line scalar reimplementation of each scoring function."""
    if kind == "distmult":
        return sum(e_h[i] * rel[i] * e_t[i] for i in range(dim))
    if kind == "transe":
        return -math.sqrt(sum((e_h[i] + rel[i] - e_t[i]) ** 2 for i in range(dim)))
    if kind == "rescal":
        total = 0.0
        for i in range(dim):
            for j in range(dim):
                total += e_h[i] * rel[i][j] * e_t[j]
        return total
    if kind == "complex":
        total = 0.0
        for i in range(dim):
            h = complex(e_h[i], e_h[dim + i])
            r = complex(rel[i], rel[dim + i])
            t = complex(e_t[i], e_t[dim + i])
            total += (h * r * t.conjugate()).real
        return total
    raise ValueError(kind)


def score_via_params(params, kind_override=None):
    """Adapter: scalar_score over a ModelParams-like object."""
    kind = kind_override or params.kind
    dim = params.dim

    def f(h: int, r: int, t: int) -> float:
        e_h = params.entities[h].tolist()
        e_t = params.entities[t].tolist()
        rel = params.relations[r].tolist()
        return scalar_score(kind, dim, e_h, rel, e_t)

    return f


def complex_query(dim: int, slot: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ComplEx's slot query as four whole products and one ``concatenate``.

    ``e_h * w_r`` for slot ``"t"``, ``conj(a) * b`` for ``"h"`` and ``"r"``,
    with ``a`` and ``b`` broadcast as numpy does. ``models._query`` writes
    the same products into halves of one output and must equal this bit
    for bit.
    """
    are, aim, bre, bim = a[..., :dim], a[..., dim:], b[..., :dim], b[..., dim:]
    if slot == "t":
        return np.concatenate([are * bre - aim * bim, are * bim + aim * bre], axis=-1)
    return np.concatenate([are * bre + aim * bim, are * bim - aim * bre], axis=-1)


def rescal_query(slot: str, e, w) -> list[float]:
    """RESCAL's entity-slot query by loops over plain lists, each sum in coordinate order.

    ``e`` is the other entity's row and ``w`` the relation's d x d matrix.
    Slot ``"t"`` (``e = e_h``) is ``q_j = sum_k e_k * w[k][j]``, slot ``"h"``
    (``e = e_t``) is ``q_k = sum_j w[k][j] * e_j``.
    """
    d = len(e)
    query = []
    for i in range(d):
        total = 0.0
        for k in range(d):
            total += e[k] * w[k][i] if slot == "t" else w[i][k] * e[k]
        query.append(total)
    return query


def grad_rows(g) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """A ``SparseGrad`` as ``{entity id: gradient row}`` and ``{relation id: gradient row}``."""
    return (dict(zip(g.entity_ids.tolist(), g.entity_rows)),
            dict(zip(g.relation_ids.tolist(), g.relation_rows)))


def dataset_rows(dataset) -> list[tuple[int, int, int]]:
    """Every row of train, valid and test, in that order, as an ``(h, r, t)`` int tuple."""
    return [tuple(row) for split in SPLITS for row in dataset.split(split).tolist()]


def sort_scan_rank(scored: list[tuple[int, float]], filtered: set[int],
                   target: int, tie: str) -> tuple[float, int]:
    """Rank by materialize -> filter -> sort desc -> scan.

    ``scored`` lists (candidate id, score) for every candidate; candidates in
    ``filtered`` (except the target) are dropped before ranking.
    """
    survivors = [(cid, s) for cid, s in scored if cid == target or cid not in filtered]
    target_score = dict(survivors)[target]
    ordered = sorted(survivors, key=lambda pair: -pair[1])
    first = next(i for i, (_, s) in enumerate(ordered) if s == target_score)
    last = max(i for i, (_, s) in enumerate(ordered) if s == target_score)
    optimistic = first + 1
    pessimistic = last + 1
    if tie == "optimistic":
        return float(optimistic), optimistic
    if tie == "pessimistic":
        return float(pessimistic), pessimistic
    return (optimistic + pessimistic) / 2.0, pessimistic


def brute_force_rank(params, all_triples: set, h: int, r: int, t: int,
                     direction: str, tie: str, candidates,
                     reciprocal: bool = False) -> tuple[float, int]:
    """Full-candidate-list rank oracle, scalar scores only."""
    score = score_via_params(params)
    if direction == "tail":
        scored = [(x, score(h, r, x)) for x in candidates]
        filtered = {tr[2] for tr in all_triples if tr[0] == h and tr[1] == r}
        target = t
    elif direction == "head":
        if reciprocal:
            base = params.relations.shape[0] // 2
            scored = [(x, score(t, base + r, x)) for x in candidates]
        else:
            scored = [(x, score(x, r, t)) for x in candidates]
        filtered = {tr[0] for tr in all_triples if tr[1] == r and tr[2] == t}
        target = h
    elif direction == "relation":
        scored = [(x, score(h, x, t)) for x in candidates]
        filtered = {tr[1] for tr in all_triples if tr[0] == h and tr[2] == t}
        target = r
    else:
        raise ValueError(direction)
    return sort_scan_rank(scored, filtered, target, tie)


def linear_scan_tails(triples, h: int, r: int) -> set[int]:
    return {t for (hh, rr, t) in triples if hh == h and rr == r}


def linear_scan_heads(triples, r: int, t: int) -> set[int]:
    return {h for (h, rr, tt) in triples if rr == r and tt == t}


def linear_scan_relations(triples, h: int, t: int) -> set[int]:
    return {r for (hh, r, tt) in triples if hh == h and tt == t}


def tally_degree(split) -> dict:
    """Hand-rolled per-entity degree tally; population SD via math."""
    indeg: dict[int, int] = {}
    outdeg: dict[int, int] = {}
    for h, _, t in split:
        outdeg[h] = outdeg.get(h, 0) + 1
        indeg[t] = indeg.get(t, 0) + 1

    def mean_sd(counts):
        values = list(counts.values())
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        return mean, math.sqrt(var)

    in_mean, in_sd = mean_sd(indeg)
    out_mean, out_sd = mean_sd(outdeg)
    return {
        "indegree_mean": in_mean, "indegree_sd": in_sd,
        "outdegree_mean": out_mean, "outdegree_sd": out_sd,
        "n_tail_entities": len(indeg), "n_head_entities": len(outdeg),
    }


def central_difference_grad(score_fn, params, h: int, r: int, t: int,
                            upstream: float = 1.0, eps: float = 1e-4) -> dict:
    """Central finite differences of upstream*score w.r.t. the touched rows."""
    out = {"entities": {}, "relations": {}}
    for table_name, rows in (("entities", {h, t}), ("relations", {r})):
        table = getattr(params, table_name)
        for rid in sorted(rows):
            row = table[rid]
            g = []
            flat = row.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = score_fn(params, h, r, t)
                flat[i] = orig - eps
                down = score_fn(params, h, r, t)
                flat[i] = orig
                g.append(upstream * (up - down) / (2 * eps))
            out[table_name][rid] = np.array(g).reshape(row.shape)
    return out


def average_ranks_sorted(magnitudes) -> list[float]:
    """Average ranks of |d| computed from explicit sorted positions."""
    indexed = sorted(range(len(magnitudes)), key=lambda i: magnitudes[i])
    ranks = [0.0] * len(magnitudes)
    i = 0
    while i < len(indexed):
        j = i
        while j + 1 < len(indexed) and magnitudes[indexed[j + 1]] == magnitudes[indexed[i]]:
            j += 1
        avg = (i + 1 + j + 1) / 2.0
        for k in range(i, j + 1):
            ranks[indexed[k]] = avg
        i = j + 1
    return ranks


def enumerate_wilcoxon_p(diffs) -> float:
    """Literal 2^n enumeration of sign assignments; two-sided exact p."""
    nonzero = [d for d in diffs if d != 0]
    ranks = average_ranks_sorted([abs(d) for d in nonzero])
    observed = sum(rank for d, rank in zip(nonzero, ranks) if d > 0)
    total_mass = sum(ranks)
    n_le = n_ge = 0
    count = 0
    for signs in itertools.product((1.0, 0.0), repeat=len(nonzero)):
        w_plus = sum(s * rank for s, rank in zip(signs, ranks))
        count += 1
        if w_plus <= observed + 1e-12:
            n_le += 1
        if w_plus >= observed - 1e-12:
            n_ge += 1
    assert count == 2 ** len(nonzero)
    assert total_mass == len(nonzero) * (len(nonzero) + 1) / 2
    return min(1.0, 2.0 * min(n_le, n_ge) / count)


def reference_parse(data: bytes, separator: str, path: str | None = None
                    ) -> list[tuple[str, str, str]]:
    """Split file -> label tuples, one line at a time, with the library's errors."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"{path or 'input'} is not valid UTF-8: {exc}") from exc
    if text.startswith("\ufeff"):
        raise ParseError("byte order mark (U+FEFF) found; split files must be UTF-8 "
                         "without a BOM", 1, path)
    if "\r" in text:
        raise ParseError("carriage return found; split files must use LF line endings",
                         text.count("\n", 0, text.index("\r")) + 1, path)
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    triples = []
    for line_no, line in enumerate(lines, start=1):
        fields = line.split("\t") if separator == "tab" else line.split()
        if len(fields) != 3:
            raise ParseError(f"expected 3 fields, got {len(fields)}", line_no, path)
        triples.append((fields[0], fields[1], fields[2]))
    return triples


def reference_load(directory: Path, separator: str
                   ) -> tuple[tuple[str, ...], tuple[str, ...], list[list[list[int]]]]:
    """``load_dataset`` by loops: (entities, relations, id rows of each split).

    Raises what ``load_dataset`` raises, with the same message.
    """
    paths = [Path(directory) / f"{split}.txt" for split in SPLITS]
    for path in paths:
        if not path.is_file():
            raise FileNotFoundError(f"missing split file: {path}")
    labeled = [reference_parse(path.read_bytes(), separator, str(path)) for path in paths]
    entities: dict[str, None] = {}
    relations: dict[str, None] = {}
    for triples in labeled:
        for h, r, t in triples:
            entities.setdefault(h, None)
            relations.setdefault(r, None)
            entities.setdefault(t, None)
    for path, triples in zip(paths, labeled):
        first_line: dict[tuple, int] = {}
        for line_no, triple in enumerate(triples, start=1):
            if triple in first_line:
                raise DatasetError(f"{path}:{line_no}: duplicate triple {triple} (first seen on "
                                   f"line {first_line[triple]}); duplicates distort metric "
                                   "denominators")
            first_line[triple] = line_no
    for a, b in ((0, 1), (0, 2), (1, 2)):
        known = set(labeled[a])
        for triple in labeled[b]:
            if triple in known:
                raise DatasetError(f"splits {SPLITS[a]} and {SPLITS[b]} overlap, e.g. {triple}")
    entity_ids = {e: i for i, e in enumerate(entities)}
    relation_ids = {r: i for i, r in enumerate(relations)}
    ids = [[[entity_ids[h], relation_ids[r], entity_ids[t]] for h, r, t in triples]
           for triples in labeled]
    return tuple(entities), tuple(relations), ids
