"""kgbench: link-prediction benchmark sanitization and evaluation toolkit."""

from .audit import DegreeStats, OovReport, degree_stats, detect_oov, overview_report
from .core import (
    DatasetError,
    FilterIndex,
    SplitDataset,
    Triple,
    Vocabulary,
    build_vocabulary,
    filter_index_build,
    split_vocab,
)
from .evaluation import (
    MetricsReport,
    RankRecord,
    evaluate,
    evaluate_relation_prediction,
)
from .ingest import DatasetLayout, ParseError, load_dataset, parse_triples, write_corrected
from .models import (
    Batch,
    ModelParams,
    align_params_to_vocab,
    grad,
    init_params,
    load_checkpoint,
    load_checkpoint_for,
    save_checkpoint,
    score,
    score_all_heads,
    score_all_relations,
    score_all_tails,
)
from .stats import PairedSample, TestResult, compare_reports, wilcoxon_signed_rank
from .training import TrainConfig, augment_reciprocal, sample_negatives, train
from .version import __version__

__all__ = [
    "Batch",
    "DatasetError",
    "DatasetLayout",
    "DegreeStats",
    "FilterIndex",
    "MetricsReport",
    "ModelParams",
    "OovReport",
    "PairedSample",
    "ParseError",
    "RankRecord",
    "SplitDataset",
    "TestResult",
    "TrainConfig",
    "Triple",
    "Vocabulary",
    "__version__",
    "align_params_to_vocab",
    "augment_reciprocal",
    "build_vocabulary",
    "compare_reports",
    "degree_stats",
    "detect_oov",
    "evaluate",
    "evaluate_relation_prediction",
    "filter_index_build",
    "grad",
    "init_params",
    "load_checkpoint",
    "load_checkpoint_for",
    "load_dataset",
    "overview_report",
    "parse_triples",
    "sample_negatives",
    "save_checkpoint",
    "score",
    "score_all_heads",
    "score_all_relations",
    "score_all_tails",
    "split_vocab",
    "train",
    "wilcoxon_signed_rank",
    "write_corrected",
]
