"""One round of the paper's pipeline, driven through kgbench's public functions.

audit -> correct -> reload -> re-audit, then for each model kind train one
epoch, checkpoint, and rank the test split under include and exclude on
the raw data and under include on the corrected copy, in both the entity
and the relation direction; then the Wilcoxon comparison and the JSON
report. Functions are looked up on their modules at call time, so the
traced run's wrappers see every call.

Every stage call is one operation. A call that raises is counted as
failed and ends the run, since later stages need its output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from kgbench import audit, evaluation, ingest, models, reporting, stats, training

MODEL_KINDS = models.MODEL_KINDS
POLICIES = (("raw", "include"), ("raw", "exclude"), ("corrected", "include"))
# direction -> (slots ranked per triple, evaluation function)
RANKERS = {"entity": (2, "evaluate"), "relation": (1, "evaluate_relation_prediction")}
SPLIT = "test"


@dataclass
class Ops:
    """Operations attempted and failed: stage calls and correctness checks."""

    attempted: int = 0
    failed: int = 0
    check_failures: list[str] = field(default_factory=list)

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise

    def check(self, name: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.check_failures += [f"{name}: {msg}" for msg in failures]


@dataclass
class Timing:
    """Wall time of one round's stage calls, and the work each did.

    ``seconds`` and ``work`` are keyed by call: ``("train", kind)`` for
    training, ``(direction, kind, data, policy)`` for ranking. Every round
    makes the same calls, so the benchmark can take each call's best time
    over the rounds.
    """

    sanitize_s: float = 0.0
    seconds: dict[tuple, float] = field(default_factory=dict)
    work: dict[tuple, int] = field(default_factory=dict)  # triples trained or queries ranked
    experiment_s: float = 0.0

    def record(self, key: tuple, seconds: float, work: int) -> None:
        self.seconds[key] = seconds
        self.work[key] = work


@dataclass
class Sanitized:
    raw: object
    oov: object
    corrected_dir: Path
    corrected: object
    reaudit: dict


@dataclass
class Trained:
    kind: str
    result: object
    reports: dict = field(default_factory=dict)  # (direction, data, policy) -> report


def layout(path: Path):
    return ingest.DatasetLayout(dir=Path(path))


def load(ops: Ops, raw_dir: Path):
    return ops.call(ingest.load_dataset, layout(raw_dir))


def sanitize(ops: Ops, raw, out_dir: Path, timing: Timing | None) -> Sanitized:
    """``kgbench audit`` then ``kgbench correct``, then reload and re-audit the copy."""
    start = perf_counter()
    ops.call(audit.overview_report, raw)
    oov = ops.call(audit.detect_oov, raw)
    corrected_dir = out_dir / "corrected"
    ops.call(ingest.write_corrected, raw, oov, corrected_dir)
    corrected = ops.call(ingest.load_dataset, layout(corrected_dir))
    if timing is not None:
        timing.sanitize_s += perf_counter() - start
    reaudit = ops.call(audit.overview_report, corrected)
    return Sanitized(raw, oov, corrected_dir, corrected, reaudit)


def train_config(kind: str, dim: int, epochs: int, seed: int):
    return training.TrainConfig(model=kind, dim=dim, epochs=epochs, batch_size=512, lr=0.05,
                                negatives=1, optimizer="adam", seed=seed)


def model_stage(ops: Ops, data: Sanitized, out_dir: Path, dim: int, epochs: int, seed: int,
                timing: Timing) -> tuple[list[Trained], dict]:
    """Train, checkpoint and rank every model kind; compare; write the report."""
    raw, corrected = data.raw, data.corrected
    trained = []
    for kind in MODEL_KINDS:
        config = train_config(kind, dim, epochs, seed)
        start = perf_counter()
        result = ops.call(training.train, raw, config)
        timing.record(("train", kind), perf_counter() - start, len(raw.train) * config.epochs)

        checkpoint = out_dir / f"{kind}.npz"
        ops.call(models.save_checkpoint, result.params, checkpoint, raw.vocab)
        params_c, _ = ops.call(models.load_checkpoint_for, checkpoint, corrected.vocab)
        model = Trained(kind, result)
        for direction, (slots, name) in RANKERS.items():
            rank = getattr(evaluation, name)
            for data_name, policy in POLICIES:
                dataset, params = ((raw, result.params) if data_name == "raw"
                                   else (corrected, params_c))
                start = perf_counter()
                report = ops.call(rank, params, dataset, SPLIT, policy)
                timing.record((direction, kind, data_name, policy), perf_counter() - start,
                              slots * report.n_triples)
                model.reports[direction, data_name, policy] = report
        trained.append(model)

    before = {m.kind: m.reports["entity", "raw", "include"] for m in trained}
    after = {m.kind: m.reports["entity", "corrected", "include"] for m in trained}
    comparison = ops.call(stats.compare_reports, before, after)
    payload = {
        "comparison": comparison.to_json_dict(),
        "models": {m.kind: {" ".join(key): report.to_json_dict(
            raw if key[1] == "raw" else corrected) for key, report in m.reports.items()}
            for m in trained},
    }
    ops.call(reporting.dump_json, payload, out_dir / "report.json")
    return trained, payload
