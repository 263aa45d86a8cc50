"""Spans and counts around kgbench's public functions, for the traced run.

:meth:`Tracer.install` replaces public functions in the kgbench modules that
call them (for example ``kgbench.training.score``, which ``train`` calls
once per triple) with timing wrappers, and :meth:`Tracer.uninstall` puts
the originals back. kgbench's files are never edited.

Each wrapped call adds its time to a per-name total and to its caller's
child time, so self time is a span's time minus the time of the wrapped
calls inside it. Stage-level calls are also kept as individual spans (name,
start, end, parent) and written out when the run ends; per-triple and
per-query calls are only summed, which keeps the trace small.
"""

from __future__ import annotations

import functools
import gc
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from kgbench import audit, evaluation, ingest, models, reporting, stats, training

MODEL_KINDS = models.MODEL_KINDS


def _directory_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


class Tracer:
    """Times, self times, call counts and work counts of the wrapped calls."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)
        self.kind_seconds: dict[str, float] = defaultdict(float)  # wall time per model kind
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [child seconds, span id] per open call
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # -- recording ---------------------------------------------------------

    def _enter(self, keep: bool) -> list:
        frame = [0.0, self._next_id if keep else 0]
        if keep:
            self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        elapsed = end - start
        if self._stack:
            self._stack[-1][0] += elapsed
        self.total[name] += elapsed
        self.self_time[name] += elapsed - frame[0]
        self.calls[name] += 1
        if frame[1]:
            parent = next((f[1] for f in reversed(self._stack) if f[1]), 0)
            self.spans.append({"id": frame[1], "parent": parent, "name": name,
                               "start": start, "end": end, "self": elapsed - frame[0]})

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own stages."""
        frame = self._enter(True)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, start, perf_counter())

    def _wrap(self, fn, name: str, keep: bool, on_result=None):
        def wrapper(*args, **kwargs):
            frame = self._enter(keep)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._exit(name, frame, start, end)
            if on_result is not None:
                on_result(args, kwargs, result, end - start)
            return result
        return functools.update_wrapper(wrapper, fn, updated=())

    def _patch(self, owners, attr: str, name: str, keep: bool = True, on_result=None) -> None:
        original = getattr(owners[0], attr)
        wrapper = self._wrap(original, name, keep, on_result)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not {name}")
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original))

    def _gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.total["runtime.gc"] += perf_counter() - self._gc_start
            self.calls["runtime.gc"] += 1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function the pipeline reaches, where it is called."""
        count, kind_seconds = self.count, self.kind_seconds

        def lines(args, kwargs, result, _):
            count["ingest.lines_parsed"] += len(result)

        def affected(args, kwargs, result, _):
            count["audit.affected_triples"] += result.valid.n_affected + result.test.n_affected

        def written(args, kwargs, result, _):
            count["ingest.bytes_written"] += _directory_bytes(args[2])

        def index(args, kwargs, result, _):
            count["core.filter_index_triples"] += len(result.triples)

        def rank(args, kwargs, result, _):
            index, (h, r, t) = args[1], args[2:5]
            direction = args[5] if len(args) > 5 else kwargs.get("direction", "tail")
            if direction == "tail":
                known = index.tails(h, r)
            elif direction == "head":
                known = index.heads(r, t)
            else:
                known = index.relations(h, t)
            count["evaluation.filtered_candidates"] += len(known) - 1

        def trained(args, kwargs, result, elapsed):
            dataset, config = args[0], args[1]
            triples = len(dataset.train) * (2 if config.reciprocal else 1) * config.epochs
            count[f"training.triples.{config.model}"] += triples
            kind_seconds[f"training.{config.model}"] += elapsed
            count["training.updates"] += result.n_updates

        def ranked(slots):
            def on_result(args, kwargs, result, elapsed):
                kind = args[0].kind
                count[f"evaluation.queries.{kind}"] += slots * result.n_triples
                kind_seconds[f"evaluation.{kind}"] += elapsed
            return on_result

        def pairs(args, kwargs, result, _):
            count["stats.pairs"] += len(args[0])

        p = self._patch
        p([ingest], "load_dataset", "ingest.load_dataset")
        p([ingest], "parse_triples", "ingest.parse_triples", on_result=lines)
        p([ingest], "build_vocabulary", "core.build_vocabulary")
        p([ingest], "SplitDataset", "core.split_dataset")
        p([ingest], "write_corrected", "ingest.write_corrected", on_result=written)
        p([audit, evaluation], "detect_oov", "audit.detect_oov", on_result=affected)
        p([audit], "overview_report", "audit.overview_report")
        p([evaluation], "filter_index_build", "core.filter_index_build", on_result=index)
        p([evaluation], "evaluate", "evaluation.evaluate", on_result=ranked(2))
        p([evaluation], "evaluate_relation_prediction", "evaluation.evaluate_relation_prediction",
          on_result=ranked(1))
        p([evaluation], "filtered_rank_pair", "evaluation.filtered_rank_pair", False, rank)
        for fn in ("score_all_tails", "score_all_heads", "score_all_relations"):
            p([evaluation], fn, f"models.{fn}", False)
        p([training], "train", "training.train", on_result=trained)
        p([training], "sample_negatives", "training.sample_negatives", False)
        p([training], "score", "models.score", False)
        p([training], "grad", "models.grad", False)
        p([models], "save_checkpoint", "models.save_checkpoint")
        p([models], "load_checkpoint_for", "models.load_checkpoint_for")
        p([stats], "compare_reports", "stats.compare_reports")
        p([stats], "wilcoxon_signed_rank", "stats.wilcoxon_signed_rank", on_result=pairs)
        p([reporting], "dump_json", "reporting.dump_json")
        gc.callbacks.append(self._gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._gc)
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, by the names BENCHMARK.json lists."""
        t, c, n = self.total, self.count, self.calls

        def rate(work: str, seconds: str) -> float:
            return c[work] / self.kind_seconds[seconds] if self.kind_seconds[seconds] else 0.0

        out = {
            "ingest.parse_s": t["ingest.parse_triples"],
            "ingest.lines_parsed": c["ingest.lines_parsed"],
            "core.build_vocabulary_s": t["core.build_vocabulary"],
            "core.split_dataset_s": t["core.split_dataset"],
            "runtime.gc_s": t["runtime.gc"],
            "runtime.gc_collections": n["runtime.gc"],
            "audit.detect_oov_s": t["audit.detect_oov"],
            "audit.overview_report_s": t["audit.overview_report"],
            "audit.affected_triples": c["audit.affected_triples"],
            "ingest.write_corrected_s": t["ingest.write_corrected"],
            "ingest.bytes_written": c["ingest.bytes_written"],
            "core.filter_index_build_s": t["core.filter_index_build"],
            "core.filter_index_builds": n["core.filter_index_build"],
            "core.filter_index_triples": c["core.filter_index_triples"],
            "models.score_all_entities_s": t["models.score_all_tails"] + t["models.score_all_heads"],
            "models.score_all_relations_s": t["models.score_all_relations"],
            "evaluation.rank_self_s": self.self_time["evaluation.filtered_rank_pair"],
            "evaluation.filtered_candidates": c["evaluation.filtered_candidates"],
            "evaluation.queries": n["evaluation.filtered_rank_pair"],
        }
        for kind in MODEL_KINDS:
            out[f"evaluation.queries_per_s.{kind}"] = rate(
                f"evaluation.queries.{kind}", f"evaluation.{kind}")
        out.update({
            "models.score_s": t["models.score"],
            "models.grad_s": t["models.grad"],
            "models.score_calls": n["models.score"],
            "models.grad_calls": n["models.grad"],
            "training.sample_negatives_s": t["training.sample_negatives"],
            "training.self_s": self.self_time["training.train"],
            "training.updates": c["training.updates"],
        })
        for kind in MODEL_KINDS:
            out[f"training.triples_per_s.{kind}"] = rate(
                f"training.triples.{kind}", f"training.{kind}")
        out.update({
            "models.checkpoint_s": t["models.save_checkpoint"] + t["models.load_checkpoint_for"],
            "stats.wilcoxon_s": t["stats.wilcoxon_signed_rank"],
            "stats.pairs": c["stats.pairs"],
            "reporting.dump_json_s": t["reporting.dump_json"],
        })
        return out

    def write(self, path: Path) -> None:
        """One JSON line per kept span, then one line of per-name totals."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
            totals = {name: {"seconds": self.total[name], "self_seconds": self.self_time[name],
                             "calls": self.calls[name]} for name in sorted(self.total)}
            fh.write(json.dumps({"totals": totals, "counts": self.count,
                                 "seconds_per_kind": self.kind_seconds}, sort_keys=True) + "\n")

