"""Correctness checks on the pipeline's outputs.

Each check compares the program's output with something computed apart
from it (the generator's label strings, the raw bytes, the parameter
arrays, the scalar oracles in kgbench's ``tests/oracles.py``, scipy) or
with a property the method must have. A check returns a
list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math
from collections import defaultdict
from pathlib import Path

import numpy as np
from oracles import enumerate_wilcoxon_p, sort_scan_rank  # kgbench's test oracles
from scipy import stats as sps

from kg import EVAL_SPLITS

HITS = (1, 3, 10)
# Queries scored at once by the whole-split check. It bounds the memory the
# check takes (16 x 40,943 scores), which must stay small next to the round's.
QUERY_BATCH = 16


# -- sanitize --------------------------------------------------------------


def audit_lines(affected: dict[str, list[int]], expected: dict) -> list[str]:
    """The program's affected line numbers equal the generator's, per split."""
    return [f"{split}: audit found lines {affected[split][:5]}..., the labels give "
            f"{expected['splits'][split]['affected_lines'][:5]}..."
            for split in EVAL_SPLITS
            if sorted(affected[split]) != expected["splits"][split]["affected_lines"]]


def corrected_files(raw_dir: Path, corrected_dir: Path, expected: dict) -> list[str]:
    """Train is byte-identical; valid/test are the originals minus exactly the affected lines."""
    failures = []
    if (raw_dir / "train.txt").read_bytes() != (corrected_dir / "train.txt").read_bytes():
        failures.append("corrected train.txt differs from the original")
    for split in EVAL_SPLITS:
        drop = set(expected["splits"][split]["affected_lines"])
        lines = (raw_dir / f"{split}.txt").read_bytes().splitlines(keepends=True)
        want = b"".join(line for no, line in enumerate(lines, start=1) if no not in drop)
        if (corrected_dir / f"{split}.txt").read_bytes() != want:
            failures.append(f"corrected {split}.txt is not the original minus the affected lines")
    return failures


def audits_clean(report: dict) -> list[str]:
    """An overview report of a corrected copy shows no OOV at all."""
    failures = [f"{key} is false" for key, ok in report["containment"].items() if not ok]
    failures += [f"{split}: {report['oov'][split]['n_affected_triples']} affected triples"
                 for split in EVAL_SPLITS if report["oov"][split]["n_affected_triples"]]
    return failures


# -- train -----------------------------------------------------------------


def untouched_rows(epoch_losses, entities: np.ndarray, initial: np.ndarray,
                   rows: list[int]) -> list[str]:
    """Losses are finite and the rows of entities absent from train kept their init."""
    failures = [f"epoch {i + 1} loss {loss!r} is not finite"
                for i, loss in enumerate(epoch_losses) if not math.isfinite(loss)]
    if not rows:
        failures.append("no OOV rows to check")
    elif not np.array_equal(entities[rows], initial[rows]):
        failures.append("rows of entities absent from train changed in training")
    return failures


# -- rank ------------------------------------------------------------------


def same_metrics(a: dict, b: dict) -> list[str]:
    """Two reports (as JSON dicts, relations by label) agree exactly."""
    return [f"{key}: {a[key]!r} != {b[key]!r}"
            for key in ("mrr", "hits", "per_relation_mrr", "n_triples") if a[key] != b[key]]


def metric_order(report: dict) -> list[str]:
    """Hits@1 <= MRR <= 1 and Hits@1 <= Hits@3 <= Hits@10."""
    h = {n: report["hits"][str(n)] for n in HITS}
    ok = 0.0 <= h[1] <= report["mrr"] <= 1.0 and h[1] <= h[3] <= h[10] <= 1.0
    return [] if ok else [f"metrics out of order: mrr {report['mrr']!r}, hits {h}"]


def reference_scores(kind: str, dim: int, entities: np.ndarray, relations: np.ndarray,
                     h, r, t, direction: str) -> np.ndarray:
    """Scores of every candidate, one row per query, written apart from kgbench.models.

    ``h``, ``r`` and ``t`` are id arrays of equal length. Each direction is
    one matrix product with the candidate table; ComplEx uses numpy's
    complex type, RESCAL an einsum and TransE an explicit sum of squares, so
    a shared bug in the vectorised scoring shows.
    """
    E, R = entities, relations
    if kind == "transe":  # -||query - candidate||
        if direction == "tail":
            query, table = E[h] + R[r], E
        elif direction == "head":
            query, table = E[t] - R[r], E
        else:
            query, table = E[t] - E[h], R
        return np.stack([-np.sqrt(np.sum((table - row) ** 2, axis=1)) for row in query])
    if kind == "complex":
        E = entities[:, :dim] + 1j * entities[:, dim:]
        R = relations[:, :dim] + 1j * relations[:, dim:]
        if direction == "tail":
            return np.real((E[h] * R[r]) @ np.conj(E).T)
        if direction == "head":
            return np.real((R[r] * np.conj(E[t])) @ E.T)
        return np.real((E[h] * np.conj(E[t])) @ R.T)
    if kind == "distmult":
        if direction == "tail":
            return (E[h] * R[r]) @ E.T
        if direction == "head":
            return (R[r] * E[t]) @ E.T
        return (E[h] * E[t]) @ R.T
    if kind == "rescal":
        if direction == "tail":
            return np.einsum("bi,bij->bj", E[h], R[r]) @ E.T
        if direction == "head":
            return np.einsum("bij,bj->bi", R[r], E[t]) @ E.T
        return np.einsum("bi,nij,bj->bn", E[h], R, E[t])
    raise ValueError(kind)


def counted_ranks(scores: np.ndarray, targets: np.ndarray,
                  known: list[set[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(mean rank, pessimistic rank) of each row's target among its surviving candidates.

    Counts the survivors scored above and level with the target. The
    whole-split check ranks thousands of queries per round, too many for
    the sorting oracle; the sampled check uses that oracle.
    """
    keep = np.ones(scores.shape, dtype=bool)
    for row, (target, others) in enumerate(zip(targets.tolist(), known)):
        keep[row, [x for x in others if x != target]] = False
    target_scores = scores[np.arange(len(targets)), targets][:, None]
    above = np.count_nonzero(keep & (scores > target_scores), axis=1)
    level = np.count_nonzero(keep & (scores == target_scores), axis=1)  # the target too
    return above + (1 + level) / 2.0, above + level


class LabelGraph:
    """The generator's label triples, read from the split files with no kgbench code."""

    def __init__(self, raw_dir: Path):
        self.triples: dict[str, list[tuple[str, str, str]]] = {}
        entities: dict[str, None] = {}
        relations: dict[str, None] = {}
        for split in ("train", "valid", "test"):
            text = (raw_dir / f"{split}.txt").read_text(encoding="utf-8")
            rows = [tuple(line.split("\t")) for line in text.split("\n") if line]
            self.triples[split] = rows
            for h, r, t in rows:
                entities.setdefault(h, None)
                relations.setdefault(r, None)
                entities.setdefault(t, None)
        # ids by first occurrence over train, valid, test: kgbench's documented order
        self.entity_ids = {e: i for i, e in enumerate(entities)}
        self.relation_ids = {r: i for i, r in enumerate(relations)}
        # the other known answers of each query, by the two slots it fixes
        self._known = {"tail": defaultdict(set), "head": defaultdict(set),
                       "relation": defaultdict(set)}
        for rows in self.triples.values():
            for triple in rows:
                h, r, t = self.ids(triple)
                self._known["tail"][h, r].add(t)
                self._known["head"][r, t].add(h)
                self._known["relation"][h, t].add(r)

    def ids(self, triple: tuple[str, str, str]) -> tuple[int, int, int]:
        h, r, t = triple
        return self.entity_ids[h], self.relation_ids[r], self.entity_ids[t]

    def filtered(self, h: int, r: int, t: int, direction: str) -> set[int]:
        key = {"tail": (h, r), "head": (r, t), "relation": (h, t)}[direction]
        return self._known[direction].get(key, set())


_SLOT = {"tail": 2, "head": 0, "relation": 1}  # the id a direction ranks


def sample_ranks(program_ranks: dict, graph: LabelGraph, kind: str, dim: int,
                 entities: np.ndarray, relations: np.ndarray) -> list[str]:
    """Program ranks of sampled queries equal the sorting oracle's.

    ``program_ranks`` maps (label triple, direction) to the program's
    (mean rank, Hits rank) from ``filtered_rank_pair`` under the include
    policy. The oracle materializes, filters, sorts and scans every
    candidate, with scores from :func:`reference_scores`.
    """
    failures = []
    for (triple, direction), got in program_ranks.items():
        ids = graph.ids(triple)
        scores = reference_scores(kind, dim, entities, relations,
                                  *([i] for i in ids), direction)[0]
        want = sort_scan_rank(list(enumerate(scores.tolist())),
                              graph.filtered(*ids, direction), ids[_SLOT[direction]], "mean")
        if tuple(got) != want:
            failures.append(f"{kind} {direction} rank of {triple}: program {tuple(got)}, "
                            f"oracle {want}")
    return failures


def split_metrics(report, graph: LabelGraph, kind: str, dim: int, entities: np.ndarray,
                  relations: np.ndarray, split: str = "test") -> list[str]:
    """An include-policy report equals one recomputed over the whole split.

    ``report`` is the program's ``MetricsReport`` of ``evaluate`` (entity
    direction: tail and head ranks) or ``evaluate_relation_prediction``.
    MRR uses the mean rank, Hits@N the pessimistic one, and per-relation
    MRR divides by the relation's own count of ranked slots.
    """
    directions = ("tail", "head") if report.direction == "entity" else ("relation",)
    ids = np.array([graph.ids(triple) for triple in graph.triples[split]], dtype=np.int64)
    reciprocal, hits_rank = [], []
    for direction in directions:
        for chunk in np.array_split(ids, -(-len(ids) // QUERY_BATCH)):
            h, r, t = chunk.T
            scores = reference_scores(kind, dim, entities, relations, h, r, t, direction)
            known = [graph.filtered(*row, direction) for row in chunk.tolist()]
            mean_rank, pessimistic = counted_ranks(scores, chunk[:, _SLOT[direction]], known)
            reciprocal.append(1.0 / mean_rank)
            hits_rank.append(pessimistic)
    reciprocal, hits_rank = np.concatenate(reciprocal), np.concatenate(hits_rank)
    relation = np.tile(ids[:, 1], len(directions))
    want = {"n_triples": len(ids), "mrr": float(reciprocal.mean()),
            "hits": {n: float(np.mean(hits_rank <= n)) for n in HITS},
            "per_relation_mrr": {int(rel): float(reciprocal[relation == rel].mean())
                                 for rel in np.unique(relation)}}
    got = {"n_triples": report.n_triples, "mrr": report.mrr, "hits": dict(report.hits),
           "per_relation_mrr": dict(report.per_relation_mrr)}
    return [] if _close(got, want) else [
        f"{kind} {report.direction} {split}: program {got}, recomputed {want}"]


def _close(a, b) -> bool:
    """Equal structure, numbers equal up to the order of summation."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _close(a[k], b[k]) for k in a)
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


# -- compare ---------------------------------------------------------------


def wilcoxon_agrees(result: dict, deltas: list[float]) -> list[str]:
    """W and p of the program's test equal scipy's on the same paired differences.

    Zero differences are dropped, as the program's default does. An exact
    p is checked against the enumeration of all 2^n sign assignments, since
    scipy's exact distribution assumes distinct magnitudes.
    """
    nonzero = [d for d in deltas if d != 0.0]
    exact = result["method"] == "exact-enumeration"
    ref = sps.wilcoxon(nonzero, zero_method="wilcox", alternative="two-sided",
                       method="asymptotic", correction=True)
    p = enumerate_wilcoxon_p(nonzero) if exact else ref.pvalue
    failures = []
    if not math.isclose(result["statistic"], float(ref.statistic), rel_tol=1e-12, abs_tol=1e-12):
        failures.append(f"W {result['statistic']!r} != scipy {float(ref.statistic)!r}")
    if not math.isclose(result["p_value"], float(p), rel_tol=1e-9, abs_tol=1e-12):
        failures.append(f"p {result['p_value']!r} != reference {float(p)!r}")
    return failures
