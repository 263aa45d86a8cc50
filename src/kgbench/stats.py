"""Two-sided Wilcoxon signed-rank test over paired metric values.

Used to decide whether removing OOV-affected triples from a benchmark
significantly shifts the measured metrics: the pairs are (metric on the
original dataset, same metric on its corrected version) across models.

Differences of zero are discarded by default (classical treatment) or kept
in the ranking via Pratt's method. Either way the absolute differences are
ranked in one pass, with average ranks for ties, and the ranks of zeros are
then left out of W+ and W-. For small samples the two-sided p-value is
exact, from the full distribution of the positive rank sum over all 2^n
sign assignments (computed by convolution, which enumerates the same mass);
larger samples use Pratt's normal approximation with tie and continuity
corrections, of which ``discard`` is the case with no zeros.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from .evaluation import MetricsReport

#: Largest n for which the exact distribution is enumerated (2^20 ~ 1e6).
EXACT_CUTOFF = 20

#: How zero differences are treated: dropped, or ranked then left out of W+/W- (Pratt).
ZERO_POLICIES = ("discard", "pratt")


class DegenerateSampleError(ValueError):
    pass


@dataclass(frozen=True)
class PairedSample:
    label: str
    before: float
    after: float

    @property
    def delta(self) -> float:
        return self.after - self.before


@dataclass(frozen=True)
class TestResult:
    n_used: int
    w_plus: float
    w_minus: float
    statistic: float  # min(w_plus, w_minus)
    p_value: float
    method: str  # "exact-enumeration" | "normal-approximation"
    zero_policy: str

    def to_json_dict(self) -> dict:
        return asdict(self)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing their average rank."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((ends - counts + 1 + ends) / 2)[group]


def _exact_two_sided_p(doubled_ranks: Sequence[int], doubled_w_plus: int) -> float:
    """Exact p from the distribution of W+ over all sign assignments.

    Ranks are doubled so average ranks (multiples of 0.5) become integers;
    counts are exact Python ints in an object array.
    """
    counts = np.zeros(sum(doubled_ranks) + 1, dtype=object)
    counts[0] = 1
    for r2 in doubled_ranks:
        counts[r2:] = counts[r2:] + counts[:-r2]
    n_assignments = 1 << len(doubled_ranks)
    cdf_le = sum(counts[: doubled_w_plus + 1])
    cdf_ge = sum(counts[doubled_w_plus:])
    return min(1.0, 2.0 * min(cdf_le, cdf_ge) / n_assignments)


def _tie_term(ranks: np.ndarray) -> float:
    """Sum of t^3 - t over groups of repeated rank values."""
    _, counts = np.unique(ranks, return_counts=True)
    reps = counts[counts > 1].astype(float)
    return float((reps ** 3 - reps).sum())


def _normal_two_sided_p(w_plus: float, w_minus: float, n_all: int, n_zero: int,
                        nz_ranks: np.ndarray) -> float:
    """Pratt's normal approximation: ``n_all`` ranked values, ``n_zero`` of them zeros."""
    mn = (n_all * (n_all + 1) - n_zero * (n_zero + 1)) / 4.0
    var24 = (n_all * (n_all + 1) * (2 * n_all + 1)
             - n_zero * (n_zero + 1) * (2 * n_zero + 1))
    var24 -= 0.5 * _tie_term(nz_ranks)
    se = math.sqrt(var24 / 24.0)
    if se == 0.0:
        return 1.0
    t = min(w_plus, w_minus)
    cc = 0.5 * math.copysign(1.0, t - mn) if t != mn else 0.0
    z = (t - mn - cc) / se
    return math.erfc(abs(z) / math.sqrt(2.0))


def wilcoxon_signed_rank(samples: Sequence[PairedSample],
                         zero_policy: str = "discard") -> TestResult:
    """Two-sided test of the null that paired differences are symmetric about 0.

    Exact enumeration for n_used <= ``EXACT_CUTOFF`` nonzero differences,
    normal approximation (tie + continuity corrected) above.
    """
    if zero_policy not in ZERO_POLICIES:
        raise ValueError(f"unknown zero policy {zero_policy!r}")
    diffs = np.array([s.delta for s in samples], dtype=float)
    if len(diffs) == 0 or not np.isfinite(diffs).all():
        raise ValueError("samples must be non-empty with finite values")
    nonzero = diffs != 0.0
    if not nonzero.any():
        raise DegenerateSampleError("degenerate sample: all paired differences are zero")
    ranked = diffs if zero_policy == "pratt" else diffs[nonzero]
    nz_ranks = _average_ranks(np.abs(ranked))[ranked != 0.0]
    d = ranked[ranked != 0.0]
    w_plus = float(nz_ranks[d > 0].sum())
    w_minus = float(nz_ranks[d < 0].sum())
    n_used = len(d)
    if n_used <= EXACT_CUTOFF:
        method = "exact-enumeration"
        doubled = [int(round(2.0 * r)) for r in nz_ranks.tolist()]
        p = _exact_two_sided_p(doubled, int(round(2.0 * w_plus)))
    else:
        method = "normal-approximation"
        p = _normal_two_sided_p(w_plus, w_minus, len(ranked), len(ranked) - n_used, nz_ranks)
    return TestResult(
        n_used=n_used,
        w_plus=w_plus,
        w_minus=w_minus,
        statistic=min(w_plus, w_minus),
        p_value=p,
        method=method,
        zero_policy=zero_policy,
    )


def delta_summary(samples: Sequence[PairedSample]) -> dict:
    """Mean and population SD of |after - before| over the pairs."""
    deltas = np.abs(np.array([s.delta for s in samples], dtype=float))
    return {
        "n": len(samples),
        "mean_abs_delta": float(deltas.mean()),
        "sd_abs_delta": float(deltas.std()),
    }


@dataclass(frozen=True)
class ComparisonResult:
    test: TestResult
    samples: tuple[PairedSample, ...]
    summary: dict

    def to_json_dict(self) -> dict:
        return {
            "test": self.test.to_json_dict(),
            "pairs": [
                {"label": s.label, "before": s.before, "after": s.after, "delta": s.delta}
                for s in self.samples
            ],
            "summary": self.summary,
        }


def pairs_from_reports(report_a: Mapping[str, Mapping],
                       report_b: Mapping[str, Mapping]) -> list[PairedSample]:
    """Pair MRR and every Hits@N of two report sets, model by model.

    Reports are in JSON form: ``MetricsReport.to_json_dict()`` output, of
    which only ``mrr`` and ``hits`` are read. Models or Hits@N levels
    present on one side only are an error.
    """
    missing_in_b = sorted(set(report_a) - set(report_b))
    missing_in_a = sorted(set(report_b) - set(report_a))
    if missing_in_a or missing_in_b:
        raise ValueError(
            f"report sets do not cover the same models; "
            f"missing from first: {missing_in_a}, missing from second: {missing_in_b}"
        )
    samples = []
    for model in sorted(report_a):
        a, b = report_a[model], report_b[model]
        try:
            levels = sorted(a["hits"], key=int)
            if set(levels) != set(b["hits"]):
                raise ValueError(f"model {model}: Hits@N levels differ: {levels} in the "
                                 f"first report, {sorted(b['hits'], key=int)} in the second")
            samples.append(PairedSample(f"{model}:mrr", float(a["mrr"]), float(b["mrr"])))
            samples.extend(PairedSample(f"{model}:hits@{n}", float(a["hits"][n]),
                                        float(b["hits"][n])) for n in levels)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"model {model}: not a metrics report: {exc!r}") from exc
    return samples


def compare_reports(report_a: dict[str, "MetricsReport"],
                    report_b: dict[str, "MetricsReport"],
                    zero_policy: str = "discard") -> ComparisonResult:
    """Pair up two labeled report sets, test them, and summarize the deltas."""
    samples = pairs_from_reports({m: r.to_json_dict() for m, r in report_a.items()},
                                 {m: r.to_json_dict() for m, r in report_b.items()})
    return compare_pairs(samples, zero_policy)


def compare_pairs(samples: Sequence[PairedSample],
                  zero_policy: str = "discard") -> ComparisonResult:
    test = wilcoxon_signed_rank(samples, zero_policy)
    return ComparisonResult(test=test, samples=tuple(samples), summary=delta_summary(samples))


def load_fixture_pairs(source: str | Path) -> list[PairedSample]:
    """Read (dataset, model, metric, original, corrected) rows into pairs.

    ``source`` is a CSV path or the name of a shipped fixture
    (``wn18rr``, ``fb15k-237``, ``yago3-10``).
    """
    path = Path(source)
    if not path.is_file():
        from importlib.resources import files

        resource = files("kgbench") / "fixtures" / f"{source}.csv"
        if not resource.is_file():
            raise FileNotFoundError(f"no fixture file or shipped fixture named {source!r}")
        path = Path(str(resource))
    samples = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            samples.append(
                PairedSample(
                    label=f"{row['model']}:{row['metric']}",
                    before=float(row["original"]),
                    after=float(row["corrected"]),
                )
            )
    if not samples:
        raise ValueError(f"{path}: fixture has no rows")
    return samples
