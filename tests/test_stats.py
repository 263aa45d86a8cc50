import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats as sps

from kgbench import stats
from kgbench.evaluation import MetricsReport
from kgbench.stats import (
    DegenerateSampleError,
    PairedSample,
    compare_pairs,
    compare_reports,
    delta_summary,
    load_fixture_pairs,
    wilcoxon_signed_rank,
)

from oracles import enumerate_wilcoxon_p


def mk(diffs, base=0.0):
    return [PairedSample(f"s{i}", base, base + float(d)) for i, d in enumerate(diffs)]


def test_all_positive_distinct_n5():
    result = wilcoxon_signed_rank(mk([1, 2, 3, 4, 5]))
    assert result.statistic == 0.0
    assert result.w_plus == 15.0 and result.w_minus == 0.0
    assert result.p_value == 2 / 2**5 == 0.0625
    assert result.method == "exact-enumeration"


def test_perfectly_symmetric_pair():
    result = wilcoxon_signed_rank(mk([+1, -1]))
    assert result.p_value == 1.0


def test_all_zero_differences_degenerate():
    with pytest.raises(DegenerateSampleError, match="degenerate"):
        wilcoxon_signed_rank(mk([0, 0, 0]))
    with pytest.raises(DegenerateSampleError):
        wilcoxon_signed_rank(mk([0.0]), zero_policy="pratt")


def test_rank_mass_invariant_discard():
    rng = np.random.default_rng(1)
    for _ in range(10):
        d = rng.integers(-4, 5, 12).astype(float)
        if not (d != 0).any():
            continue
        result = wilcoxon_signed_rank(mk(d))
        n = result.n_used
        assert result.w_plus + result.w_minus == pytest.approx(n * (n + 1) / 2)


def test_rank_mass_invariant_pratt():
    d = [0.0, 0.0, 1.0, -2.0, 3.0]
    result = wilcoxon_signed_rank(mk(d), zero_policy="pratt")
    # zeros occupy ranks 1..2; nonzero mass = 15 - 3 = 12
    assert result.w_plus + result.w_minus == pytest.approx(12.0)
    assert result.n_used == 3


@pytest.mark.parametrize("n", range(5, 13))
def test_w_zero_matches_published_exact_tail(n):
    # For W = 0 the exact two-sided p is 2 / 2^n; these are the published
    # critical-table values (e.g. two-sided alpha=0.05 is first reached at n=6).
    result = wilcoxon_signed_rank(mk(range(1, n + 1)))
    assert result.statistic == 0.0
    assert result.p_value == pytest.approx(2.0 / 2**n)
    if n == 5:
        assert result.p_value > 0.05
    else:
        assert result.p_value < 0.05


def test_exact_matches_literal_enumeration_with_ties():
    rng = np.random.default_rng(3)
    for _ in range(8):
        n = int(rng.integers(2, 11))
        d = rng.integers(-3, 4, n).astype(float)
        if not (d != 0).any():
            d[0] = 1.0
        result = wilcoxon_signed_rank(mk(d))
        assert result.p_value == pytest.approx(enumerate_wilcoxon_p(list(d)), abs=1e-12)


@given(st.lists(st.integers(-9, 9).filter(lambda x: x != 0), min_size=1, max_size=10))
def test_exact_invariant_under_negation_and_relabeling(diffs):
    base = wilcoxon_signed_rank(mk(diffs))
    negated = wilcoxon_signed_rank(mk([-d for d in diffs]))
    assert base.p_value == negated.p_value
    assert base.w_plus == negated.w_minus
    shuffled = list(reversed(diffs))
    assert wilcoxon_signed_rank(mk(shuffled)).p_value == base.p_value


def test_normal_approximation_close_to_exact_at_n20(monkeypatch):
    rng = np.random.default_rng(8)
    samples = [mk(rng.normal(loc=0.3, size=20)) for _ in range(10)]
    exacts = [wilcoxon_signed_rank(s) for s in samples]  # n = 20 = EXACT_CUTOFF
    monkeypatch.setattr(stats, "EXACT_CUTOFF", 0)
    for exact, s in zip(exacts, samples):
        approx = wilcoxon_signed_rank(s)
        assert exact.method == "exact-enumeration"
        assert approx.method == "normal-approximation"
        assert abs(exact.p_value - approx.p_value) < 0.01


def test_matches_scipy_exact_no_ties():
    rng = np.random.default_rng(0)
    for _ in range(8):
        n = int(rng.integers(5, 15))
        mags = rng.permutation(np.arange(1, n + 1)).astype(float)
        d = mags * rng.choice([-1, 1], n)
        ours = wilcoxon_signed_rank(mk(d))
        ref = sps.wilcoxon(d, zero_method="wilcox", alternative="two-sided",
                           method="exact")
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-12)
        assert ours.statistic == pytest.approx(ref.statistic)


def test_matches_scipy_normal_approximation_with_ties():
    rng = np.random.default_rng(5)
    for _ in range(6):
        d = rng.integers(-5, 6, 28).astype(float)
        d[d == 0] = 2.0
        ours = wilcoxon_signed_rank(mk(d))
        ref = sps.wilcoxon(d, zero_method="wilcox", alternative="two-sided",
                           method="approx", correction=True)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-12)


def test_matches_scipy_pratt():
    rng = np.random.default_rng(6)
    d = rng.integers(-5, 6, 30).astype(float)
    assert (d == 0).any()
    ours = wilcoxon_signed_rank(mk(d), zero_policy="pratt")
    ref = sps.wilcoxon(d, zero_method="pratt", alternative="two-sided",
                       method="approx", correction=True)
    assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-12)


@pytest.mark.parametrize("n", [12, 40])  # either side of EXACT_CUTOFF
def test_discard_and_pratt_agree_bit_for_bit_without_zeros(n):
    # discard is Pratt's treatment of a sample that has no zeros
    rng = np.random.default_rng(n)
    for d in (rng.integers(1, 5, n) * rng.choice([-1, 1], n), rng.normal(size=n)):
        discard = wilcoxon_signed_rank(mk(d))
        pratt = wilcoxon_signed_rank(mk(d), zero_policy="pratt")
        exact = n <= stats.EXACT_CUTOFF
        assert discard.method == ("exact-enumeration" if exact else "normal-approximation")
        assert dataclasses.replace(pratt, zero_policy="discard") == discard


@given(st.lists(st.integers(0, 6), min_size=1, max_size=30))
def test_average_ranks_equal_scipy_rankdata(values):
    v = np.array(values, dtype=float) / 4
    assert stats._average_ranks(v).tolist() == sps.rankdata(v).tolist()


def test_fixture_pairs_reject_null_at_published_thresholds():
    wn = wilcoxon_signed_rank(load_fixture_pairs("wn18rr"))
    assert wn.n_used == 28 and wn.p_value < 0.01
    fb = wilcoxon_signed_rank(load_fixture_pairs("fb15k-237"))
    assert fb.p_value < 0.014
    yago = wilcoxon_signed_rank(load_fixture_pairs("yago3-10"))
    assert yago.n_used == 16 and yago.p_value < 0.01
    # the thresholds hold under Pratt as well
    for name, alpha in (("wn18rr", 0.01), ("fb15k-237", 0.014), ("yago3-10", 0.01)):
        assert wilcoxon_signed_rank(load_fixture_pairs(name), "pratt").p_value < alpha


def test_fixture_headline_delta():
    pairs = load_fixture_pairs("wn18rr")
    rest = [s for s in pairs if not s.label.startswith("TransE:")]
    headline = delta_summary(rest)
    assert headline["mean_abs_delta"] == pytest.approx(0.0329, abs=0.003)
    everything = delta_summary(pairs)
    assert everything["n"] == 28


def _report(mrr, h1, h3, h10):
    return MetricsReport(mrr=mrr, hits={1: h1, 3: h3, 10: h10}, per_relation_mrr={},
                         n_triples=10, policy="include", direction="entity", tie="mean")


def test_compare_reports_identical_is_degenerate():
    a = {"m1": _report(0.5, 0.4, 0.5, 0.6)}
    with pytest.raises(DegenerateSampleError):
        compare_reports(a, a)


def test_compare_reports_label_mismatch_lists_missing():
    a = {"m1": _report(0.5, 0.4, 0.5, 0.6), "m2": _report(0.3, 0.2, 0.3, 0.4)}
    b = {"m1": _report(0.6, 0.5, 0.6, 0.7)}
    with pytest.raises(ValueError, match="m2"):
        compare_reports(a, b)


def test_compare_reports_runs_and_keeps_rank_mass():
    rng = np.random.default_rng(9)
    a, b = {}, {}
    for i in range(5):
        vals = sorted(rng.uniform(0.1, 0.9, 3))
        a[f"m{i}"] = _report(vals[1], vals[0], vals[1], vals[2])
        vals2 = sorted(np.clip(np.array(vals) + rng.normal(0, 0.05, 3), 0.01, 0.99))
        b[f"m{i}"] = _report(vals2[1], vals2[0], vals2[1], vals2[2])
    result = compare_reports(a, b)
    n = result.test.n_used
    assert result.test.w_plus + result.test.w_minus == pytest.approx(n * (n + 1) / 2)
    assert len(result.samples) == 20
    assert result.summary["n"] == 20
    labels = [s.label for s in result.samples]
    assert "m0:mrr" in labels and "m4:hits@10" in labels


def test_compare_pairs_json_round_trip():
    result = compare_pairs(mk([1, 2, 3]))
    payload = result.to_json_dict()
    assert payload["test"]["method"] == "exact-enumeration"
    assert len(payload["pairs"]) == 3
    assert payload["summary"]["mean_abs_delta"] == pytest.approx(2.0)


def test_load_fixture_pairs_unknown_name():
    with pytest.raises(FileNotFoundError):
        load_fixture_pairs("nope-such-benchmark")
