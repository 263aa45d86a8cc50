"""Command-line interface: audit | correct | train | eval | compare.

Exit codes are stable so the tool can gate CI pipelines:

* 0  success (audit: dataset has no OOV)
* 3  audit only: OOV entities/relations present
* 64 usage error
* 65 data error (parse failures, including CRLF line endings and a leading
  UTF-8 byte order mark; duplicate/overlapping splits, degenerate stats,
  invalid training settings, a training loss that goes non-finite, a
  ``compare`` input that is not a fixture CSV or a JSON object of reports)
* 66 missing input file
* 73 refusing to (over)write the output directory
* 74 I/O or checkpoint error (including a checkpoint that does not cover
  the dataset's vocabulary, metadata that is not a JSON object with the
  expected fields (a boolean is not an integer), or whose kind and dim do
  not fit the table shapes, and label tables that are not one distinct
  label per row)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import reporting
from .audit import detect_oov, overview_report
from .core import SPLIT_NAMES, DatasetError
from .evaluation import OOV_POLICIES, evaluate, evaluate_relation_prediction
from .ingest import DatasetLayout, load_dataset, write_corrected
from .models import MODEL_KINDS, CheckpointError, load_checkpoint_for, save_checkpoint
from .stats import (
    ZERO_POLICIES,
    DegenerateSampleError,
    compare_pairs,
    delta_summary,
    load_fixture_pairs,
    pairs_from_reports,
)
from .training import LOSSES, OPTIMIZERS, TrainConfig, TrainingError, train, write_loss_csv
from .version import __version__

EXIT_OK = 0
EXIT_OOV = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NOINPUT = 66
EXIT_CANTCREAT = 73
EXIT_IOERR = 74

TIE_ALIASES = {"mean": "mean", "opt": "optimistic", "pess": "pessimistic"}

#: p-value thresholds announced on the compare output, smallest first.
ALPHA_LEVELS = (0.01, 0.014, 0.05)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit >= 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _layout(args) -> DatasetLayout:
    return DatasetLayout(dir=Path(args.data or os.environ["KGBENCH_DATA"]), separator=args.sep)


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="dataset directory (default: $KGBENCH_DATA)")
    p.add_argument("--sep", choices=("tab", "ws"), default="tab",
                   help="field separator: tab (default) or any whitespace")


def cmd_audit(args) -> int:
    report = overview_report(load_dataset(_layout(args)))
    md = reporting.audit_markdown(report)
    print(md)
    if args.json:
        reporting.dump_json(report, Path(args.json))
    if args.md:
        Path(args.md).write_text(md, encoding="utf-8")
    has_oov = not (report["containment"]["entities_ok"] and report["containment"]["relations_ok"])
    return EXIT_OOV if has_oov else EXIT_OK


def cmd_correct(args) -> int:
    dataset = load_dataset(_layout(args))
    removal = detect_oov(dataset)
    summary = write_corrected(dataset, removal, Path(args.out), force=args.force)
    for split in ("valid", "test"):
        print(f"{split}: removed {summary['removed'][split]} of "
              f"{summary['original'][split]} triples")
    print(f"manifest: {summary['manifest_path']}")
    return EXIT_OK


def cmd_train(args) -> int:
    overrides = {
        "model": args.model, "dim": args.dim, "epochs": args.epochs,
        "batch_size": args.batch_size, "lr": args.lr, "negatives": args.negatives,
        "loss": args.loss, "margin": args.margin, "optimizer": args.optimizer,
        "reciprocal": True if args.reciprocal else None, "seed": args.seed,
    }
    if args.config:
        config = TrainConfig.from_file(Path(args.config), **overrides)
    else:
        config = TrainConfig(**{k: v for k, v in overrides.items() if v is not None})
    dataset = load_dataset(_layout(args))
    result = train(dataset, config)
    save_checkpoint(result.params, Path(args.out), dataset.vocab)
    if args.loss_csv:
        write_loss_csv(Path(args.loss_csv), result.epoch_losses)
    print(f"trained {config.model} d={config.dim} for {config.epochs} epochs "
          f"({result.n_updates} updates); final mean loss {result.epoch_losses[-1]:.6f}")
    print(f"checkpoint: {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    dataset = load_dataset(_layout(args))
    params, meta = load_checkpoint_for(Path(args.checkpoint), dataset.vocab)
    tie = TIE_ALIASES[args.tie]
    if args.direction == "entity":
        report = evaluate(params, dataset, split=args.split, policy=args.oov_policy, tie=tie)
    else:
        report = evaluate_relation_prediction(params, dataset, split=args.split,
                                              policy=args.oov_policy, tie=tie)
    payload = report.to_json_dict(dataset)
    print(reporting.metrics_markdown(payload, label=meta["kind"]))
    if args.json:
        reporting.dump_json(payload, Path(args.json))
    return EXIT_OK


def _print_test(result, samples) -> None:
    print(f"Wilcoxon signed-rank (two-sided, zeros={result.zero_policy}): "
          f"n_used={result.n_used} W+={result.w_plus} W-={result.w_minus} "
          f"W={result.statistic} p={result.p_value:.3g} [{result.method}]")
    for alpha in ALPHA_LEVELS:
        if result.p_value < alpha:
            print(f"p < {alpha}")
            break
    summary = delta_summary(samples)
    print(f"mean |delta| = {summary['mean_abs_delta']:.4f} "
          f"± {summary['sd_abs_delta']:.4f} over {summary['n']} pairs")


def _report_set(path: str) -> dict:
    """A report-set JSON file: an object of metrics reports by model."""
    try:
        report_set = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from exc
    if not isinstance(report_set, dict):
        raise ValueError(f"{path}: a report set is a JSON object of metrics reports by model, "
                         f"not a {type(report_set).__name__}")
    for model, report in report_set.items():
        where = f"{path}: model {model}"
        if not (isinstance(report, dict) and {"mrr", "hits"} <= report.keys()):
            raise ValueError(f"{where}: not a metrics report, which is a JSON object with mrr "
                             "and hits")
        if not _is_number(report["mrr"]):
            raise ValueError(f"{where}: mrr is not a number: {report['mrr']!r}")
        hits = report["hits"]
        if not (isinstance(hits, dict) and all(map(_is_number, hits.values()))):
            raise ValueError(f"{where}: hits is not a JSON object of numbers: {hits!r}")
    return report_set


def _is_number(value) -> bool:
    """Whether a parsed JSON value is a number; ``true`` and ``false`` are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def cmd_compare(args) -> int:
    if args.fixtures:
        samples = load_fixture_pairs(args.fixtures)
    else:
        samples = pairs_from_reports(*map(_report_set, (args.a, args.b)))
    result = compare_pairs(samples, zero_policy=args.zero_policy)
    _print_test(result.test, samples)
    payload = result.to_json_dict()
    models = {s.label.split(":", 1)[0] for s in samples}
    if args.fixtures and "TransE" in models and len(models) > 1:
        # the published headline gain averages the non-TransE models; TransE's
        # gains are an outlier and are reported on their own
        rest = [s for s in samples if not s.label.startswith("TransE:")]
        headline = delta_summary(rest)
        payload["summary_excluding_transe"] = headline
        print(f"mean |delta| excluding TransE = {headline['mean_abs_delta']:.4f} "
              f"± {headline['sd_abs_delta']:.4f} over {headline['n']} pairs")
    if args.json:
        reporting.dump_json(payload, Path(args.json))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kgbench",
                     description="Link-prediction benchmark sanitization and evaluation.")
    parser.add_argument("--version", action="version", version=f"kgbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", help="overview + OOV report; exit 3 when OOV present")
    _add_data_flags(p)
    p.add_argument("--json", help="write the machine-readable report here")
    p.add_argument("--md", help="write the markdown report here")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("correct", help="write a corrected copy with OOV triples removed")
    _add_data_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--force", action="store_true", help="allow a non-empty output directory")
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("train", help="train an embedding model on the train split")
    _add_data_flags(p)
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--model", choices=MODEL_KINDS)
    p.add_argument("--dim", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--negatives", type=int)
    p.add_argument("--loss", choices=LOSSES)
    p.add_argument("--margin", type=float)
    p.add_argument("--optimizer", choices=OPTIMIZERS)
    p.add_argument("--reciprocal", action="store_true", default=None,
                   help="add inverse relations and reciprocal triples")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")
    p.add_argument("--loss-csv", dest="loss_csv", help="write per-epoch mean loss CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="filtered link/relation prediction metrics")
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=SPLIT_NAMES, default="test")
    p.add_argument("--oov-policy", choices=OOV_POLICIES, default="include", dest="oov_policy")
    p.add_argument("--direction", choices=("entity", "relation"), default="entity")
    p.add_argument("--tie", choices=("mean", "opt", "pess"), default="mean")
    p.add_argument("--json", help="write the metrics report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="Wilcoxon test over two report sets or paired values")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fixtures",
                       help="a shipped published-results fixture (wn18rr, fb15k-237, "
                            "yago3-10) or a CSV with columns "
                            "dataset,model,metric,original,corrected")
    group.add_argument("--a", help="report-set JSON {model: metrics report}")
    p.add_argument("--b", help="second report-set JSON (with --a, and only with it)")
    p.add_argument("--zero-policy", choices=ZERO_POLICIES, default="discard",
                   dest="zero_policy")
    p.add_argument("--json", help="write the comparison result here")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.func is cmd_compare and (args.a is None) != (args.b is None):
            parser.error("--a and --b must be given together")
        if not getattr(args, "data", "skip") and not os.environ.get("KGBENCH_DATA"):
            parser.error("--data not given and KGBENCH_DATA is not set")
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except FileNotFoundError as exc:
        print(f"kgbench: {exc}", file=sys.stderr)
        return EXIT_NOINPUT
    except FileExistsError as exc:
        print(f"kgbench: {exc}", file=sys.stderr)
        return EXIT_CANTCREAT
    except CheckpointError as exc:
        print(f"kgbench: {exc}", file=sys.stderr)
        return EXIT_IOERR
    except (DatasetError, DegenerateSampleError, TrainingError, ValueError) as exc:
        print(f"kgbench: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"kgbench: {exc}", file=sys.stderr)
        return EXIT_IOERR


if __name__ == "__main__":
    sys.exit(main())
