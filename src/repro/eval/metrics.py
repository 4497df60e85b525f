"""Classification metrics in the paper's notation.

``P_in/R_in/F_in`` treat in-premises records as positives;
``P_out/R_out/F_out`` treat outside records as positives (Sec. V,
"Performance metrics").  Degenerate denominators yield 0.0 (not NaN) so
summaries stay well defined on single-class streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["ConfusionCounts", "InOutMetrics", "confusion_from_pairs", "metrics_from_pairs",
           "summarize_metrics"]


@dataclass(frozen=True)
class ConfusionCounts:
    """Counts with in-premises as the positive class."""

    tp: int = 0  # inside, predicted inside
    fp: int = 0  # outside, predicted inside
    fn: int = 0  # inside, predicted outside
    tn: int = 0  # outside, predicted outside



def _precision(tp: int, fp: int) -> float:
    return tp / (tp + fp) if tp + fp else 0.0


def _recall(tp: int, fn: int) -> float:
    return tp / (tp + fn) if tp + fn else 0.0


def _f_score(precision: float, recall: float) -> float:
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


@dataclass(frozen=True)
class InOutMetrics:
    """The six numbers every table in the paper reports."""

    p_in: float
    r_in: float
    f_in: float
    p_out: float
    r_out: float
    f_out: float

    @staticmethod
    def from_confusion(counts: ConfusionCounts) -> "InOutMetrics":
        p_in = _precision(counts.tp, counts.fp)
        r_in = _recall(counts.tp, counts.fn)
        # For the outside view the positive class flips: tn are true
        # positives, fn are false positives, fp are false negatives.
        p_out = _precision(counts.tn, counts.fn)
        r_out = _recall(counts.tn, counts.fp)
        return InOutMetrics(p_in=p_in, r_in=r_in, f_in=_f_score(p_in, r_in),
                            p_out=p_out, r_out=r_out, f_out=_f_score(p_out, r_out))

    def as_row(self) -> tuple[float, float, float, float, float, float]:
        return (self.p_in, self.r_in, self.f_in, self.p_out, self.r_out, self.f_out)


def confusion_from_pairs(pairs: Iterable[tuple[bool, bool]]) -> ConfusionCounts:
    """Build counts from (true_inside, predicted_inside) pairs."""
    tp = fp = fn = tn = 0
    for true_inside, predicted_inside in pairs:
        if true_inside and predicted_inside:
            tp += 1
        elif not true_inside and predicted_inside:
            fp += 1
        elif true_inside and not predicted_inside:
            fn += 1
        else:
            tn += 1
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def metrics_from_pairs(pairs: Iterable[tuple[bool, bool]]) -> InOutMetrics:
    return InOutMetrics.from_confusion(confusion_from_pairs(pairs))


def summarize_metrics(metrics: Sequence[InOutMetrics]) -> dict[str, tuple[float, float, float]]:
    """Per-field (mean, min, max) across runs — the Table I entry format."""
    if not metrics:
        raise ValueError("no metrics to summarise")
    out: dict[str, tuple[float, float, float]] = {}
    for name in ("p_in", "r_in", "f_in", "p_out", "r_out", "f_out"):
        values = [getattr(m, name) for m in metrics]
        out[name] = (sum(values) / len(values), min(values), max(values))
    return out
