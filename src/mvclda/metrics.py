"""Multi-label evaluation: micro/macro F1, P@n, PR AUC and frequency-binned
F1.

Scores are n_docs x n_labels matrices in [0, 1]; gold matrices are binary
with the same shape. All operations are pure and permutation-invariant in
document order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REPORT_FORMAT_VERSION = 1

# Presence threshold: scores strictly greater than 0.5 count as predicted.
DEFAULT_THRESHOLD = 0.5


def binarize(scores: np.ndarray) -> np.ndarray:
    return np.asarray(scores) > DEFAULT_THRESHOLD


def _select(matrix: np.ndarray, labels) -> np.ndarray:
    matrix = np.asarray(matrix)
    if labels is None:
        return matrix
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("label subset is empty")
    return matrix[:, labels]


def micro_counts(pred: np.ndarray, gold: np.ndarray, labels=None) -> tuple[int, int, int]:
    """Pooled (TP, FP, FN) over all (document, label) cells of the subset."""
    p = _select(pred, labels).astype(bool)
    g = _select(gold, labels).astype(bool)
    tp = int(np.sum(p & g))
    fp = int(np.sum(p & ~g))
    fn = int(np.sum(~p & g))
    return tp, fp, fn


def _f1_from_counts(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def micro_f1(pred: np.ndarray, gold: np.ndarray, labels=None) -> float:
    """F1 over confusion counts pooled across every cell of the subset."""
    return _f1_from_counts(*micro_counts(pred, gold, labels))


def macro_f1(pred: np.ndarray, gold: np.ndarray, labels=None) -> float:
    """Unweighted mean of per-label F1. Every label in the subset must have
    at least one gold positive, otherwise its recall is undefined."""
    p = _select(pred, labels).astype(bool)
    g = _select(gold, labels).astype(bool)
    support = g.sum(axis=0)
    if np.any(support == 0):
        raise ValueError(
            "macro F1 is undefined for labels without gold positives; "
            "restrict the label subset"
        )
    # per-label counts as column sums; every label has tp + fn > 0
    tp = np.sum(p & g, axis=0)
    fp = np.sum(p & ~g, axis=0)
    fn = np.sum(~p & g, axis=0)
    precision = np.divide(tp, tp + fp, out=np.zeros(tp.shape), where=tp + fp > 0)
    recall = tp / (tp + fn)
    pr = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr, out=np.zeros(tp.shape), where=pr > 0)
    return float(np.mean(f1))


def precision_at_n(scores: np.ndarray, gold: np.ndarray, n: int) -> float:
    """Mean over documents of the precision of the n top-scored labels.

    Ties are broken toward the lower label index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    gold = np.asarray(gold)
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > scores.shape[1]:
        raise ValueError(f"n={n} exceeds the number of labels {scores.shape[1]}")
    if scores.shape[0] == 0:
        return 0.0
    # a stable sort keeps tied labels in index order
    top = np.argsort(-scores, axis=1, kind="stable")[:, :n]
    hits = np.sum(np.take_along_axis(gold, top, axis=1) > 0, axis=1)
    return float(np.mean(hits / n))


def pr_auc(scores: np.ndarray, gold: np.ndarray) -> float:
    """Area under pooled micro precision vs micro recall.

    Thresholds sweep every distinct score plus 0 and 1; a cell is predicted
    positive when its score is strictly greater than the threshold. Precision
    is integrated over recall with a right-continuous step rule.

    One ascending sort gives, for every threshold, the count of cells above
    it and of gold positives among them; the area is summed threshold by
    threshold, from the highest down.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    g = np.asarray(gold).ravel().astype(bool)
    n_pos = int(g.sum())
    if n_pos == 0:
        raise ValueError("PR AUC is undefined without gold positives")
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    pos_below = np.concatenate([[0], np.cumsum(g[order])])
    thresholds = np.unique(np.concatenate([s, [0.0, 1.0]]))[::-1]
    below = np.searchsorted(s_sorted, thresholds, side="right")
    n_pred = s.size - below
    tp = n_pos - pos_below[below]
    keep = n_pred > 0
    recall = tp[keep] / n_pos
    precision = tp[keep] / n_pred[keep]
    if recall.size == 0:
        return 0.0
    steps = (recall - np.concatenate([[0.0], recall[:-1]])) * precision
    # accumulate, unlike np.sum, adds strictly left to right
    return float(np.add.accumulate(steps)[-1])


@dataclass
class BinRow:
    bin_lo: float
    bin_hi: float
    n_labels: int
    micro_f1: float | None


def frequency_binned_f1(
    pred: np.ndarray,
    gold: np.ndarray,
    train_counts,
    n_bins: int = 10,
) -> list[BinRow]:
    """Micro F1 per bin of ln(training count), over labels present in both
    the training set (count >= 1) and the evaluation gold (support >= 1).

    Bin edges are equal-width over [min, max] of the natural log of counts.
    """
    pred = np.asarray(pred).astype(bool)
    gold = np.asarray(gold).astype(bool)
    counts = np.asarray(train_counts, dtype=np.float64)
    eligible = np.flatnonzero((counts >= 1) & (gold.sum(axis=0) >= 1))
    if eligible.size == 0:
        raise ValueError("no label is present in both the training and evaluation sets")
    logs = np.log(counts[eligible])
    lo, hi = float(logs.min()), float(logs.max())
    width = (hi - lo) / n_bins
    if width == 0.0:
        assignment = np.zeros(eligible.size, dtype=np.int64)
    else:
        assignment = np.minimum(((logs - lo) / width).astype(np.int64), n_bins - 1)
    rows = []
    for b in range(n_bins):
        members = eligible[assignment == b]
        rows.append(
            BinRow(
                bin_lo=lo + b * width,
                bin_hi=lo + (b + 1) * width,
                n_labels=int(members.size),
                micro_f1=micro_f1(pred, gold, members) if members.size else None,
            )
        )
    return rows


@dataclass
class MetricsReport:
    n_docs: int
    n_labels: int
    threshold: float
    tp: int
    fp: int
    fn: int
    micro_f1: float
    micro_f1_by_group: dict[str, float]
    macro_f1: float | None
    macro_n_labels: int
    p_at: dict[str, float]
    pr_auc: float
    bins: list[BinRow] | None
    bin_log_base: str = "e"
    format_version: int = REPORT_FORMAT_VERSION


def evaluate_predictions(
    scores: np.ndarray,
    gold: np.ndarray,
    *,
    p_at: tuple[int, ...] = (8,),
    groups=None,
    train_counts=None,
    macro_labels=None,
) -> MetricsReport:
    """Assemble the full report for a score matrix.

    `groups` is an optional per-label tag sequence; `train_counts` an optional
    per-label training-frequency vector enabling the binned table;
    `macro_labels` an optional label subset for macro F1 (every member must
    have gold support).
    """
    scores = np.asarray(scores, dtype=np.float64)
    gold01 = np.asarray(gold)
    pred = binarize(scores)
    tp, fp, fn = micro_counts(pred, gold01)

    by_group: dict[str, float] = {}
    if groups is not None:
        tags = list(groups)
        for tag in sorted(set(tags)):
            if tag == "none":
                continue
            members = np.flatnonzero(np.array([t == tag for t in tags]))
            by_group[tag] = micro_f1(pred, gold01, members)

    macro = None
    macro_n = 0
    if macro_labels is not None:
        macro_labels = np.asarray(macro_labels, dtype=np.int64)
        macro = macro_f1(pred, gold01, macro_labels)
        macro_n = int(macro_labels.size)

    bins = None
    if train_counts is not None:
        bins = frequency_binned_f1(pred, gold01, train_counts)

    return MetricsReport(
        n_docs=int(scores.shape[0]),
        n_labels=int(scores.shape[1]),
        threshold=DEFAULT_THRESHOLD,
        tp=tp, fp=fp, fn=fn,
        micro_f1=_f1_from_counts(tp, fp, fn),
        micro_f1_by_group=by_group,
        macro_f1=macro,
        macro_n_labels=macro_n,
        p_at={str(n): precision_at_n(scores, gold01, n) for n in p_at},
        pr_auc=pr_auc(scores, gold01),
        bins=bins,
    )
