"""Stage benchmark: seeded synthetic KGs through kgbench's audit/correct/train/rank/compare.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, one process each

A run generates two KGs from the seed in a child process: one with the
published counts and a smaller one of the same make-up. It runs whole
pipeline rounds on the smaller KG, at least five, until the measurement
has taken about ``--seconds``. Before the first round and after each round
it times a few loads and sanitize steps of the full-size KG, one by one.
The correctness checks run after each round and each sanitize step and are
not timed. Every time metric is built from the best of its samples
(README.md says why). The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer ones). README.md describes the workloads and
metrics.
"""

from __future__ import annotations

import os

# One thread in the workload process: BLAS threads would compete with the
# interpreter for the two cores and make the timings noisier. Set before
# numpy is imported, here and in the generator child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUT = ROOT / ".perfbench"
if not (ROOT / "src" / "kgbench" / "__init__.py").is_file():
    sys.exit(f"run.py: no kgbench sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))  # the checkout's kgbench, not an installed one
sys.path.append(str(ROOT / "tests"))  # its scalar oracles, for the checks

import numpy as np  # noqa: E402
from kgbench import core, evaluation, models  # noqa: E402

import checks  # noqa: E402
import pipeline as pipe  # noqa: E402
import spans  # noqa: E402

DIM = 16
EPOCHS = 1
MIN_ROUNDS = 5  # and exactly this many in a traced run, so its counts repeat
LOADS = 2  # loads of the full KG in each phase of set-up samples
SANITIZES = 2  # sanitize steps of the full KG in each phase
RANK_SAMPLE = 4  # queries per model and direction checked against the reference


@dataclass(frozen=True)
class Workload:
    """The two KGs of one workload.

    ``shape`` has the published counts; it is loaded, audited and corrected
    in the set-up samples, which run before the first round and after each
    round. ``model_shape`` is a smaller KG of the same make-up that the
    rounds run the whole pipeline on, so that every stage call is short
    (README.md says why).
    """

    shape: str
    model_shape: str


WORKLOADS = {
    "wn18rr-experiment": Workload("wn18rr", "wn18rr-sample"),
    "fb15k237-rank": Workload("fb15k-237", "fb15k-237-sample"),
}


def declared_units(section: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def generate(shape: str, seed: int, out: Path) -> Path:
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--shape", shape,
                    "--seed", str(seed), "--out", str(out)], check=True, timeout=600)
    return out


def sanitize_checks(ops: pipe.Ops, data: pipe.Sanitized, kg_dir: Path) -> dict:
    """The audit matches the labels, the copy is exact and audits clean."""
    expected = json.loads((kg_dir / "expected.json").read_text(encoding="utf-8"))
    ops.check("audit", checks.audit_lines(
        {s: sorted(data.oov.removed_line_numbers(s)) for s in checks.EVAL_SPLITS}, expected))
    ops.check("corrected files",
              checks.corrected_files(kg_dir / "raw", data.corrected_dir, expected))
    ops.check("re-audit", checks.audits_clean(data.reaudit))
    return expected


def model_checks(ops: pipe.Ops, data: pipe.Sanitized, trained: list, payload: dict,
                 kg_dir: Path, expected: dict, seed: int) -> None:
    """Training, ranking and comparison checks; each check is one operation."""
    raw = data.raw
    graph = checks.LabelGraph(kg_dir / "raw")
    ops.check("vocabulary order", [] if tuple(graph.entity_ids) == raw.vocab.entities
              and tuple(graph.relation_ids) == raw.vocab.relations
              else ["first-occurrence ids differ from the program's vocabulary"])
    oov_rows = sorted(raw.vocab.entity_id(label) for split in checks.EVAL_SPLITS
                      for label in expected["splits"][split]["oov_entities"])
    index = core.filter_index_build(raw)
    rng = np.random.default_rng((seed, 2))
    test = graph.triples[pipe.SPLIT]
    picks = rng.choice(len(test), size=(len(trained), 3, RANK_SAMPLE))
    for model, model_picks in zip(trained, picks):
        params = model.result.params
        arrays = (model.kind, params.dim, params.entities, params.relations)
        initial = models.init_params(model.kind, params.n_entities, params.n_relations,
                                     params.dim, seed)
        ops.check(f"{model.kind} untouched rows", checks.untouched_rows(
            model.result.epoch_losses, params.entities, initial.entities, oov_rows))
        for direction in pipe.RANKERS:
            exclude = model.reports[direction, "raw", "exclude"].to_json_dict(raw)
            corrected = model.reports[direction, "corrected", "include"].to_json_dict(
                data.corrected)
            ops.check(f"{model.kind} {direction} exclude == corrected include",
                      checks.same_metrics(exclude, corrected))
            for key, report in model.reports.items():
                if key[0] == direction:
                    ops.check(f"{model.kind} {' '.join(key)} order",
                              checks.metric_order(report.to_json_dict()))
            ops.check(f"{model.kind} {direction} include, whole split", checks.split_metrics(
                model.reports[direction, "raw", "include"], graph, *arrays, pipe.SPLIT))
        ranks = {}
        for direction, rows in zip(("tail", "head", "relation"), model_picks):
            n_cand = raw.vocab.n_relations if direction == "relation" else raw.vocab.n_entities
            for row in rows:
                triple = test[row]
                ranks[triple, direction] = evaluation.filtered_rank_pair(
                    params, index, *raw.vocab.intern(triple), direction, "mean",
                    np.arange(n_cand))
        ops.check(f"{model.kind} sampled ranks", checks.sample_ranks(ranks, graph, *arrays))
    comparison = payload["comparison"]
    ops.check("wilcoxon", checks.wilcoxon_agrees(
        comparison["test"], [p["delta"] for p in comparison["pairs"]]))


def best_rate(timings: list[pipe.Timing], stage: str) -> float:
    """Work of one round's ``stage`` calls over the sum of each call's best time."""
    keys = [key for key in timings[0].seconds if key[0] == stage]
    return (sum(timings[0].work[key] for key in keys)
            / sum(min(t.seconds[key] for t in timings) for key in keys))


def best_round(timings: list[pipe.Timing]) -> float:
    """A round's time with each of its parts at its best over the rounds.

    The parts are the sanitize step, each train and rank call, and the rest
    of the round (re-audit, checkpoints, comparison and report) together.
    """
    rest = [t.experiment_s - t.sanitize_s - sum(t.seconds.values()) for t in timings]
    return (min(t.sanitize_s for t in timings) + min(rest)
            + sum(min(t.seconds[key] for t in timings) for key in timings[0].seconds))


def run(args: argparse.Namespace, work: Path) -> dict:
    workload = WORKLOADS[args.workload]
    kg_dir = generate(workload.shape, args.seed, work / "kg")
    model_dir = generate(workload.model_shape, args.seed, work / "model-kg")
    ops = pipe.Ops()
    tracer = spans.Tracer() if args.trace else None
    setup_times, sanitize_times, timings = [], [], []

    @contextlib.contextmanager
    def measured(name: str):
        """A sample or round that starts from a collected heap, traced as ``name``.

        Whether a full collection falls inside it then does not depend on
        what ran before. The collection runs before the tracer is installed,
        so the trace does not count it as the program's, and the tracer is
        off again for the checks, which call kgbench too.
        """
        gc.collect()
        if tracer is None:
            yield
            return
        tracer.install()
        try:
            with tracer.span(name):
                yield
        finally:
            tracer.uninstall()

    def samples() -> None:
        """LOADS loads, then SANITIZES checked sanitize steps, each timed alone.

        Each sample starts from a collected heap, so every sample of a kind
        does the same work, collections included.
        """
        raw = None
        for _ in range(LOADS):
            raw = None  # drop the previous copy first, so two never coexist
            with measured("setup"):
                start = perf_counter()
                raw = pipe.load(ops, kg_dir / "raw")
                setup_times.append(perf_counter() - start)
        for _ in range(SANITIZES):
            timing = pipe.Timing()
            with measured("sanitize"):
                data = pipe.sanitize(ops, raw, work / "sanitize", timing)
            sanitize_times.append(timing.sanitize_s)
            sanitize_checks(ops, data, kg_dir)
            data = None
            shutil.rmtree(work / "sanitize")

    start_all = perf_counter()

    def another_round() -> bool:
        """Whether to run another round.

        At least MIN_ROUNDS run. After that, another runs only while one
        more round, with its checks and samples, fits in ``--seconds``, and
        never in a traced run.
        """
        if len(timings) < MIN_ROUNDS:
            return True
        spent = perf_counter() - start_all
        return not tracer and spent * (1 + 1 / len(timings)) <= args.seconds

    samples()
    model_raw = pipe.load(ops, model_dir / "raw")
    while another_round():
        round_dir = work / "round"
        shutil.rmtree(round_dir, ignore_errors=True)
        round_dir.mkdir(parents=True)
        timing = pipe.Timing()
        with measured("round"):
            start = perf_counter()
            data = pipe.sanitize(ops, model_raw, round_dir, timing)
            trained, payload = pipe.model_stage(
                ops, data, round_dir, DIM, EPOCHS, args.seed, timing)
            timing.experiment_s = perf_counter() - start
        if not timings:  # the peak of set-up and one round, before the checks add theirs
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        timings.append(timing)

        expected = sanitize_checks(ops, data, model_dir)
        model_checks(ops, data, trained, payload, model_dir, expected, args.seed)
        data = trained = payload = None
        samples()
    for failure in ops.check_failures:
        print(f"check failed: {failure}", file=sys.stderr)

    if tracer:
        values = tracer.metrics()
        values["runtime.experiment_s"] = best_round(timings)
        units = declared_units("per_layer")
        tracer.write(OUTPUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        values = {
            "setup_s": min(setup_times),
            "sanitize_s": min(sanitize_times),
            "train_triples_per_s": best_rate(timings, "train"),
            "rank_queries_per_s": best_rate(timings, "entity"),
            "relation_queries_per_s": best_rate(timings, "relation"),
            "experiment_s": best_round(timings),
            "peak_rss_mib": peak_rss_mib,
        }
        units = declared_units("end_to_end")
    return {
        "correct": not ops.check_failures,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; a table of every metric, then the JSON lines."""
    lines, status = [], 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        lines.append(json.dumps({"workload": name, **result}))
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<34} {m['value']:>14.6g} {m['unit']}")
    print("\n".join(lines))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    work = OUTPUT / "work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{name:<34} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    results = OUTPUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    line = json.dumps(result)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
