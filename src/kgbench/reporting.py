"""Report rendering (markdown + deterministic JSON) and reference comparison.

The shipped reference file records the published overview/OOV statistics of
the three benchmarks; ``compare_to_reference`` re-derives every row from a
freshly audited dataset so drift (or a wrong degree convention) is reported
explicitly instead of silently.
"""

from __future__ import annotations

import json
from importlib.resources import files
from pathlib import Path

DEGREE_TOLERANCE = 0.02
PERCENT_TOLERANCE = 0.005  # published values are printed at 2 decimals


def dump_json(obj, path: Path | None = None) -> str:
    """Canonical JSON text: sorted keys, trailing newline, repr floats."""
    text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def _md_table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join(["---"] * len(header)) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def overview_markdown(report: dict, title: str = "Dataset overview") -> str:
    rows = []
    for split in ("train", "valid", "test"):
        entry = report["splits"][split]
        ind = entry.get("indegree")
        out = entry.get("outdegree")
        rows.append([
            split,
            f"{entry['n_triples']:,}",
            f"{entry['n_entities']:,}",
            f"{entry['n_relations']:,}",
            f"{ind['mean']:.2f} ± {ind['sd']:.2f}" if ind else "-",
            f"{out['mean']:.2f} ± {out['sd']:.2f}" if out else "-",
        ])
    table = _md_table(
        ["split", "triples", "entities", "relations", "indegree (M ± SD)", "outdegree (M ± SD)"],
        rows,
    )
    return f"## {title}\n\n{table}"


def oov_markdown(report: dict) -> str:
    rows = []
    for split in ("test", "valid"):
        entry = report["oov"][split]
        rows.append([
            split,
            str(entry["n_oov_entities"]),
            str(entry["n_oov_relations"]),
            f"{entry['n_affected_triples']} ({entry['percentage'] * 100:.2f}%)",
        ])
    table = _md_table(["split", "OOV entities", "OOV relations", "affected triples"], rows)
    ok = report["containment"]
    status = ("both vocabulary-containment conditions hold"
              if ok["entities_ok"] and ok["relations_ok"]
              else "vocabulary-containment violated: "
              + ", ".join(k for k, v in (("entities", ok["entities_ok"]),
                                         ("relations", ok["relations_ok"])) if not v))
    return f"## Out-of-vocabulary report\n\n{table}\n{status}\n"


def metrics_markdown(report_json: dict, label: str = "model") -> str:
    hits = report_json["hits"]
    table = _md_table(
        ["", "MRR", "Hits@1", "Hits@3", "Hits@10"],
        [[label, f"{report_json['mrr']:.3f}", f"{hits['1']:.3f}",
          f"{hits['3']:.3f}", f"{hits['10']:.3f}"]],
    )
    meta = (f"direction={report_json['direction']} policy={report_json['policy']} "
            f"tie={report_json['tie']} n={report_json['n_triples']}")
    return f"{table}{meta}\n"


def load_reference_stats() -> dict:
    resource = files("kgbench") / "fixtures" / "reference_stats.json"
    return json.loads(resource.read_text(encoding="utf-8"))


def match_reference(report: dict) -> str | None:
    """Identify a benchmark by its split sizes; None when unrecognized."""
    sizes = tuple(report["splits"][s]["n_triples"] for s in ("train", "valid", "test"))
    for name, ref in load_reference_stats().items():
        ref_sizes = tuple(ref["splits"][s]["n_triples"] for s in ("train", "valid", "test"))
        if sizes == ref_sizes:
            return name
    return None


def compare_to_reference(report: dict, name: str) -> list[dict]:
    """Row-by-row check of an audit report against the published statistics.

    Counts must match exactly; degree means/SDs within ±0.02 (the non-zero
    degree convention is a hypothesis, so misses are reported, not hidden);
    OOV percentages within print rounding.
    """
    ref = load_reference_stats()[name]
    rows: list[dict] = []

    def add(field: str, expected, actual, ok: bool) -> None:
        rows.append({"field": field, "expected": expected, "actual": actual, "ok": ok})

    for split in ("train", "valid", "test"):
        got = report["splits"][split]
        want = ref["splits"][split]
        for key in ("n_triples", "n_entities", "n_relations"):
            add(f"{split}.{key}", want[key], got[key], got[key] == want[key])
        for kind in ("indegree", "outdegree"):
            for stat in ("mean", "sd"):
                expected = want[kind][stat]
                actual = got[kind][stat]
                add(f"{split}.{kind}.{stat}", expected, round(actual, 3),
                    abs(actual - expected) <= DEGREE_TOLERANCE)
    for split in ("test", "valid"):
        got = report["oov"][split]
        want = ref["oov"][split]
        for key in ("n_oov_entities", "n_affected_triples"):
            add(f"oov.{split}.{key}", want[key], got[key], got[key] == want[key])
        actual_pct = got["percentage"] * 100.0
        add(f"oov.{split}.percent", want["percent"], round(actual_pct, 2),
            abs(actual_pct - want["percent"]) <= PERCENT_TOLERANCE + 1e-9)
    return rows


def audit_markdown(report: dict, title: str = "Dataset overview") -> str:
    """The overview and OOV markdown of an audit report, plus the reference comparison.

    When the split sizes identify a published benchmark, the comparison
    rows are also stored in ``report["reference"]``, so the JSON form of
    the report carries them too.
    """
    md = overview_markdown(report, title) + "\n" + oov_markdown(report)
    name = match_reference(report)
    if name is not None:
        rows = compare_to_reference(report, name)
        report["reference"] = {"dataset": name, "rows": rows}
        md += "\n" + reference_markdown(name, rows)
    return md


def reference_markdown(name: str, rows: list[dict]) -> str:
    table = _md_table(
        ["field", "published", "computed", "status"],
        [[r["field"], str(r["expected"]), str(r["actual"]), "ok" if r["ok"] else "MISMATCH"]
         for r in rows],
    )
    n_bad = sum(1 for r in rows if not r["ok"])
    verdict = "all rows match" if n_bad == 0 else f"{n_bad} row(s) outside tolerance"
    return f"## Reference comparison ({name})\n\n{table}{verdict}\n"
