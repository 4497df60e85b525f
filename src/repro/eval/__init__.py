"""Evaluation: metrics, ROC, the streaming harness, timing, reporting."""

from repro.eval.algorithms import (
    ALGORITHM_NAMES,
    ALGORITHM_SPECS,
    arm_accepts,
    arm_spec,
    make_algorithm,
)
from repro.eval.drift import DriftHarness, DriftResult, EpochMetrics
from repro.eval.harness import EvaluationResult, evaluate_streaming
from repro.eval.metrics import (
    ConfusionCounts,
    InOutMetrics,
    confusion_from_pairs,
    metrics_from_pairs,
    summarize_metrics,
)
from repro.eval.reporting import format_mean_min_max, format_series, format_table
from repro.eval.roc import RocCurve, auc, finite_scores, roc_curve
from repro.eval.timing import InferenceTiming, measure_batch_update, measure_inference_breakdown

__all__ = [
    "ALGORITHM_NAMES",
    "ALGORITHM_SPECS",
    "arm_accepts",
    "arm_spec",
    "ConfusionCounts",
    "DriftHarness",
    "DriftResult",
    "EpochMetrics",
    "EvaluationResult",
    "InOutMetrics",
    "InferenceTiming",
    "RocCurve",
    "auc",
    "confusion_from_pairs",
    "evaluate_streaming",
    "finite_scores",
    "format_mean_min_max",
    "format_series",
    "format_table",
    "make_algorithm",
    "measure_batch_update",
    "measure_inference_breakdown",
    "metrics_from_pairs",
    "roc_curve",
    "summarize_metrics",
]
