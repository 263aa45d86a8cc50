"""Tests of the benchmark itself: seeded inputs, their shapes, and that each check can fail.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import math
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import checks
import kg
import pipeline as pipe
import spans
from kgbench import audit, core, evaluation, models, stats
from kgbench.reporting import load_reference_stats

ROOT = Path(__file__).resolve().parents[2]

# Union vocabulary sizes (train + valid + test) of the published files.
TOTAL_ENTITIES = {"wn18rr": 40_943, "fb15k-237": 14_541}

TINY = kg.Shape(
    reference="wn18rr", labels="wordnet", n_entities=400, n_relations=6, n_train=600,
    n_valid=60, n_test=40, affected=(4, 3), oov=(3, 2), oov_shared=1,
    head_skew=0.3, tail_skew=0.8, relation_skew=0.8)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One pipeline round on the tiny KG, plus what the checks need."""
    out = tmp_path_factory.mktemp("tiny")
    gen = kg.generate(TINY, 5)
    raw_dir = gen.write(out)
    ops = pipe.Ops()
    raw = pipe.load(ops, raw_dir)
    data = pipe.sanitize(ops, raw, out / "round", pipe.Timing())
    timing = pipe.Timing()
    trained, payload = pipe.model_stage(ops, data, out / "round", 8, 2, 5, timing)
    return {"dir": out, "gen": gen, "ops": ops, "data": data, "trained": trained,
            "payload": payload, "timing": timing}


# -- generated inputs --------------------------------------------------------


@pytest.mark.parametrize("name", sorted(kg.SHAPES))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    shape = kg.SHAPES[name]
    a, b, c = kg.generate(shape, 7), kg.generate(shape, 7), kg.generate(shape, 8)
    assert a.files == b.files and a.expected == b.expected
    for split in kg.SPLITS:
        assert a.files[split] != c.files[split]


def _counts(gen: kg.Generated) -> dict:
    rows = {s: [tuple(line.split("\t")) for line in gen.files[s].decode().splitlines()]
            for s in kg.SPLITS}
    entities = {e for split in rows.values() for h, _, t in split for e in (h, t)}
    train_entities = {e for h, _, t in rows["train"] for e in (h, t)}
    return {"rows": rows, "entities": entities, "train_entities": train_entities,
            "relations": {r for split in rows.values() for _, r, _ in split}}


@pytest.mark.parametrize("name", sorted(kg.SHAPES))
def test_counts_and_oov_shares_match_reference(name):
    shape = kg.SHAPES[name]
    ref = load_reference_stats()[shape.reference]
    gen = kg.generate(shape, 3)
    got = _counts(gen)
    assert len(got["relations"]) == ref["splits"]["train"]["n_relations"]
    assert len({r for _, r, _ in got["rows"]["train"]}) == shape.n_relations
    assert len(got["entities"]) == shape.n_entities
    assert len(got["train_entities"]) == shape.n_train_entities
    full = name in TOTAL_ENTITIES  # the published counts; the others are the round KGs
    if full:
        assert shape.n_entities == TOTAL_ENTITIES[name]
    for split in kg.EVAL_SPLITS:
        n = len(got["rows"][split])
        affected = len(gen.expected["splits"][split]["affected_lines"])
        # the published share, to the nearest whole triple of this split size
        assert affected == round(ref["oov"][split]["percent"] / 100 * n), split
    if full and shape.hub_cover:  # skews fitted to the published degree spread
        for side, slot in (("indegree", 2), ("outdegree", 0)):
            degrees = np.array(list(Counter(row[slot] for row in got["rows"]["train"]).values()))
            published = ref["splits"]["train"][side]
            assert degrees.std() / degrees.mean() == pytest.approx(
                published["sd"] / published["mean"], rel=0.15), side
        # hub (h, r) and (r, t) pairs give the test queries other known answers
        known = {"tail": Counter(), "head": Counter()}
        for h, r, t in (row for rows in got["rows"].values() for row in rows):
            known["tail"][h, r] += 1
            known["head"][r, t] += 1
        test = got["rows"]["test"]
        filtered = sum(known["tail"][h, r] + known["head"][r, t] - 2 for h, r, t in test)
        assert filtered / (2 * len(test)) > 1.0


def test_expected_oov_matches_construction():
    gen = kg.generate(TINY, 1)
    for i, split in enumerate(kg.EVAL_SPLITS):
        assert len(gen.expected["splits"][split]["affected_lines"]) == TINY.affected[i]
        assert len(gen.expected["splits"][split]["oov_entities"]) == TINY.oov[i]
    shared = (set(gen.expected["splits"]["valid"]["oov_entities"])
              & set(gen.expected["splits"]["test"]["oov_entities"]))
    assert len(shared) == TINY.oov_shared


# -- the pipeline and its checks pass on correct output ------------------------


def test_pipeline_round_passes_every_check(tiny_run):
    import run

    ops = tiny_run["ops"]
    assert ops.failed == 0
    expected = run.sanitize_checks(ops, tiny_run["data"], tiny_run["dir"])
    run.model_checks(ops, tiny_run["data"], tiny_run["trained"], tiny_run["payload"],
                     tiny_run["dir"], expected, 5)
    assert ops.check_failures == []
    work = Counter()
    for key, n in tiny_run["timing"].work.items():
        work[key[0]] += n
    assert work["entity"] == 4 * 2 * (3 * TINY.n_test - 2 * TINY.affected[1])
    assert work["relation"] == 4 * (3 * TINY.n_test - 2 * TINY.affected[1])
    assert work["train"] == 4 * 2 * TINY.n_train


def test_traced_metrics_are_the_listed_per_layer_metrics(tmp_path):
    listed = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    tracer = spans.Tracer()
    tracer.install()
    try:
        raw_dir = kg.generate(TINY, 2).write(tmp_path)
        ops = pipe.Ops()
        raw = pipe.load(ops, raw_dir)
        data = pipe.sanitize(ops, raw, tmp_path / "round", pipe.Timing())
        pipe.model_stage(ops, data, tmp_path / "round", 8, 1, 2, pipe.Timing())
    finally:
        tracer.uninstall()
    assert evaluation.score_all_tails is models.score_all_tails  # originals are back
    metrics = tracer.metrics()
    assert sorted([*metrics, "runtime.experiment_s"]) == sorted(listed)
    assert metrics["core.filter_index_builds"] == 24
    assert metrics["models.score_calls"] == 4 * TINY.n_train * 2
    assert metrics["evaluation.queries"] == sum(
        slots * n for slots in (2, 1)
        for n in (TINY.n_test, TINY.n_test - TINY.affected[1], TINY.n_test - TINY.affected[1])
    ) * 4
    assert all(v > 0 for k, v in metrics.items() if k != "evaluation.filtered_candidates")
    tracer.write(tmp_path / "trace.jsonl")
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert json.loads(lines[-1])["totals"]["training.train"]["calls"] == 4


# -- each check fails on a planted wrong output --------------------------------


def test_audit_check_fails_on_a_wrong_line(tiny_run):
    data, expected = tiny_run["data"], tiny_run["gen"].expected
    lines = {s: sorted(data.oov.removed_line_numbers(s)) for s in kg.EVAL_SPLITS}
    assert checks.audit_lines(lines, expected) == []
    lines["test"] = lines["test"][1:]
    assert checks.audit_lines(lines, expected)


def test_corrected_files_check_fails_on_one_extra_removed_line(tiny_run, tmp_path):
    raw_dir, corrected = tiny_run["dir"] / "raw", tiny_run["data"].corrected_dir
    expected = tiny_run["gen"].expected
    assert checks.corrected_files(raw_dir, corrected, expected) == []
    planted = tmp_path / "planted"
    shutil.copytree(corrected, planted)
    lines = (planted / "valid.txt").read_bytes().splitlines(keepends=True)
    (planted / "valid.txt").write_bytes(b"".join(lines[1:]))
    assert checks.corrected_files(raw_dir, planted, expected)
    shutil.copy(corrected / "valid.txt", planted / "valid.txt")
    (planted / "train.txt").write_bytes((planted / "train.txt").read_bytes() + b"x\ty\tz\n")
    assert checks.corrected_files(raw_dir, planted, expected)


def test_reaudit_check_fails_when_oov_remains(tiny_run):
    assert checks.audits_clean(tiny_run["data"].reaudit) == []
    assert checks.audits_clean(audit.overview_report(tiny_run["data"].raw))


def test_training_check_fails_on_a_touched_row_or_a_nan_loss(tiny_run):
    model = tiny_run["trained"][0]
    params = model.result.params
    initial = models.init_params(model.kind, params.n_entities, params.n_relations, 8, 5)
    vocab = tiny_run["data"].raw.vocab
    rows = sorted(vocab.entity_id(e) for s in kg.EVAL_SPLITS
                  for e in tiny_run["gen"].expected["splits"][s]["oov_entities"])
    losses = model.result.epoch_losses
    assert checks.untouched_rows(losses, params.entities, initial.entities, rows) == []
    touched = params.entities.copy()
    touched[rows[-1], 0] = np.nextafter(touched[rows[-1], 0], 1.0)
    assert checks.untouched_rows(losses, touched, initial.entities, rows)
    assert checks.untouched_rows((math.nan,), params.entities, initial.entities, rows)


def test_policy_check_fails_on_a_one_ulp_difference(tiny_run):
    model = tiny_run["trained"][1]
    data = tiny_run["data"]
    exclude = model.reports["entity", "raw", "exclude"].to_json_dict(data.raw)
    corrected = model.reports["entity", "corrected", "include"].to_json_dict(data.corrected)
    assert checks.same_metrics(exclude, corrected) == []
    planted = dict(corrected, mrr=np.nextafter(corrected["mrr"], 1.0))
    assert checks.same_metrics(exclude, planted)


def test_metric_order_check_fails_on_hits_above_mrr():
    good = {"mrr": 0.3, "hits": {"1": 0.2, "3": 0.35, "10": 0.5}}
    assert checks.metric_order(good) == []
    assert checks.metric_order(dict(good, mrr=0.1))
    assert checks.metric_order(dict(good, hits={"1": 0.2, "3": 0.6, "10": 0.5}))


def test_rank_check_fails_on_a_rank_off_by_one(tiny_run):
    data = tiny_run["data"]
    raw = data.raw
    graph = checks.LabelGraph(tiny_run["dir"] / "raw")
    index = core.filter_index_build(raw)
    for model in tiny_run["trained"]:
        params = model.result.params
        ranks = {}
        for triple in graph.triples["test"][:6]:
            h, r, t = raw.vocab.intern(triple)
            for direction, n in (("tail", params.n_entities), ("head", params.n_entities),
                                 ("relation", params.n_relations)):
                ranks[triple, direction] = evaluation.filtered_rank_pair(
                    params, index, h, r, t, direction, "mean", np.arange(n))
        args = (graph, model.kind, 8, params.entities, params.relations)
        assert checks.sample_ranks(ranks, *args) == []
        key = next(iter(ranks))
        mean_rank, hits_rank = ranks[key]
        assert checks.sample_ranks({**ranks, key: (mean_rank + 1, hits_rank)}, *args)
        assert checks.sample_ranks({**ranks, key: (mean_rank, hits_rank + 1)}, *args)


def test_whole_split_check_fails_on_a_wrong_aggregate(tiny_run):
    graph = checks.LabelGraph(tiny_run["dir"] / "raw")
    for model in tiny_run["trained"]:
        params = model.result.params
        args = (graph, model.kind, 8, params.entities, params.relations)
        for direction in pipe.RANKERS:
            report = model.reports[direction, "raw", "include"]
            assert checks.split_metrics(report, *args) == []
            hits = dict(report.hits)
            hits[10] += 1 / (2 * report.n_triples)  # one more slot counted as a hit
            per_relation = dict(report.per_relation_mrr)
            first = next(iter(per_relation))
            per_relation[first] *= 1.001
            for planted in (dataclasses.replace(report, mrr=report.mrr * 1.001),
                            dataclasses.replace(report, hits=hits),
                            dataclasses.replace(report, per_relation_mrr=per_relation),
                            dataclasses.replace(report, n_triples=report.n_triples - 1)):
                assert checks.split_metrics(planted, *args)


def test_wilcoxon_check_fails_on_a_wrong_p_or_w():
    rng = np.random.default_rng(4)
    for n, tie in ((6, False), (12, True), (16, True), (25, False)):
        deltas = rng.normal(size=n)
        if tie:
            deltas[1] = -deltas[0]
        samples = [stats.PairedSample(str(i), 0.0, float(d)) for i, d in enumerate(deltas)]
        result = stats.wilcoxon_signed_rank(samples).to_json_dict()
        assert checks.wilcoxon_agrees(result, list(deltas)) == []
        assert checks.wilcoxon_agrees(dict(result, p_value=result["p_value"] * 1.001),
                                      list(deltas))
        assert checks.wilcoxon_agrees(dict(result, statistic=result["statistic"] + 1),
                                      list(deltas))
