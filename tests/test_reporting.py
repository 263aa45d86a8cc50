import json

from kgbench.reporting import (
    audit_markdown,
    compare_to_reference,
    dump_json,
    load_reference_stats,
    match_reference,
    metrics_markdown,
    oov_markdown,
    overview_markdown,
    reference_markdown,
)


def _wn18rr_like_report() -> dict:
    """Audit report whose numbers match the shipped reference exactly."""
    ref = load_reference_stats()["wn18rr"]
    splits = {}
    for name, entry in ref["splits"].items():
        splits[name] = {
            "n_triples": entry["n_triples"],
            "n_entities": entry["n_entities"],
            "n_relations": entry["n_relations"],
            "indegree": dict(entry["indegree"]),
            "outdegree": dict(entry["outdegree"]),
        }
    oov = {
        name: {
            "n_oov_entities": entry["n_oov_entities"],
            "n_oov_relations": 0,
            "n_affected_triples": entry["n_affected_triples"],
            "percentage": entry["n_affected_triples"] / ref["splits"][name]["n_triples"],
        }
        for name, entry in ref["oov"].items()
    }
    return {"splits": splits, "oov": oov,
            "containment": {"entities_ok": False, "relations_ok": True}}


def test_match_reference_by_split_sizes():
    report = _wn18rr_like_report()
    assert match_reference(report) == "wn18rr"
    report["splits"]["train"]["n_triples"] += 1
    assert match_reference(report) is None


def test_compare_to_reference_all_rows_ok():
    rows = compare_to_reference(_wn18rr_like_report(), "wn18rr")
    assert rows and all(r["ok"] for r in rows)
    fields = {r["field"] for r in rows}
    assert "train.indegree.mean" in fields
    assert "oov.test.percent" in fields


def test_compare_to_reference_flags_degree_outside_tolerance():
    report = _wn18rr_like_report()
    report["splits"]["train"]["outdegree"]["mean"] += 0.05  # beyond ±0.02
    rows = compare_to_reference(report, "wn18rr")
    bad = [r for r in rows if not r["ok"]]
    assert [r["field"] for r in bad] == ["train.outdegree.mean"]
    rendered = reference_markdown("wn18rr", rows)
    assert "MISMATCH" in rendered and "1 row(s) outside tolerance" in rendered


def test_compare_to_reference_percent_respects_print_rounding():
    report = _wn18rr_like_report()
    # 210/3134 = 6.70070...% still matches the printed 6.70
    rows = compare_to_reference(report, "wn18rr")
    pct_rows = [r for r in rows if r["field"] == "oov.test.percent"]
    assert pct_rows[0]["ok"] and pct_rows[0]["expected"] == 6.70


def test_markdown_renderers_contain_expected_cells():
    report = _wn18rr_like_report()
    overview = overview_markdown(report)
    assert "86,835" in overview and "2.19 ± 3.56" in overview
    oov = oov_markdown(report)
    assert "210 (6.70%)" in oov
    assert "vocabulary-containment violated: entities" in oov


def test_metrics_markdown_three_decimals():
    payload = {"mrr": 0.4521, "hits": {"1": 0.4, "3": 0.45, "10": 0.5},
               "n_triples": 10, "policy": "include", "direction": "entity",
               "tie": "mean"}
    text = metrics_markdown(payload, label="distmult")
    assert "| distmult | 0.452 | 0.400 | 0.450 | 0.500 |" in text
    assert "policy=include" in text


def test_dump_json_is_deterministic(tmp_path):
    obj = {"b": 2, "a": [3, 1], "nested": {"y": 0.1, "x": 1.0}}
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    t1 = dump_json(obj, p1)
    t2 = dump_json({"nested": {"x": 1.0, "y": 0.1}, "a": [3, 1], "b": 2}, p2)
    assert t1 == t2
    assert p1.read_bytes() == p2.read_bytes()
    assert t1.endswith("\n")
    assert json.loads(t1) == obj


def test_audit_markdown_adds_the_reference_comparison_when_sizes_match():
    report = _wn18rr_like_report()
    md = audit_markdown(report, title="Dataset overview: WN18RR")
    rows = compare_to_reference(_wn18rr_like_report(), "wn18rr")
    assert md == (overview_markdown(report, "Dataset overview: WN18RR") + "\n"
                  + oov_markdown(report) + "\n" + reference_markdown("wn18rr", rows))
    assert report["reference"] == {"dataset": "wn18rr", "rows": rows}
    report = _wn18rr_like_report()
    report["splits"]["train"]["n_triples"] += 1
    assert audit_markdown(report) == overview_markdown(report) + "\n" + oov_markdown(report)
    assert "reference" not in report
