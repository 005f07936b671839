"""Multi-label evaluation: micro/macro F1, P@n, PR AUC and frequency-binned
F1.

Scores are n_docs x n_labels matrices in [0, 1], taken in their own dtype:
a model's float32 or float64 scores, or a baseline's boolean predictions
(False and True sort, compare and threshold as 0 and 1 do). Every score
converts to float64 exactly, so no float64 copy is made and each report
equals the one of the widened scores, bit for bit. The gold is the int64
(rows, cols) of its positive cells, row-major (`corpus.gold_cells`). All
operations are pure and permutation-invariant in document order.

A report sorts the scores once (PR AUC), selects each row's top n by
partition (P@n) and counts per-label integer TP/FP/FN once: every F1 in it,
micro, per group, macro and per frequency bin, is one formula (`_f1`) over
sums of those counts or over the counts themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REPORT_FORMAT_VERSION = 1

# Presence threshold: scores strictly greater than 0.5 count as predicted.
DEFAULT_THRESHOLD = 0.5

# Cells per row block of the P@n selection: a bound on the transients
# beside the partitioned copy.
P_AT_N_BLOCK = 65_536

# Bins of the frequency-binned F1 table, equal-width in ln(training count).
N_BINS = 10


def binarize(scores: np.ndarray) -> np.ndarray:
    return np.asarray(scores) > DEFAULT_THRESHOLD


def label_counts(pred: np.ndarray, gold) -> np.ndarray:
    """Per-label integer (TP, FP, FN) of a binary prediction matrix against
    the gold cells: a 3 x n_labels int64 table."""
    p = np.asarray(pred, dtype=bool)
    rows, cols = gold
    tp = np.bincount(cols[p[rows, cols]], minlength=p.shape[1])
    fn = np.bincount(cols, minlength=p.shape[1]) - tp
    return np.stack([tp, np.count_nonzero(p, axis=0) - tp, fn])


def _f1(tp, fp, fn) -> np.ndarray:
    """Elementwise F1 of TP/FP/FN counts (exact below 2**53); a precision
    or recall with a zero denominator, or both zero, gives 0.0."""
    tp, fp, fn = (np.asarray(c, dtype=np.float64) for c in (tp, fp, fn))
    precision = np.divide(tp, tp + fp, out=np.zeros(tp.shape), where=tp + fp > 0)
    recall = np.divide(tp, tp + fn, out=np.zeros(tp.shape), where=tp + fn > 0)
    pr = precision + recall
    return np.divide(2.0 * precision * recall, pr, out=np.zeros(tp.shape), where=pr > 0)


def micro_f1(pred: np.ndarray, gold) -> float:
    """F1 over confusion counts pooled across every (document, label) cell."""
    return float(_f1(*label_counts(pred, gold).sum(axis=1)))


def _micro_f1_by(counts: np.ndarray, key: np.ndarray, n_keys: int) -> list[float]:
    """Micro F1 of each of n_keys label groups, label j in group key[j],
    from the label_counts table `counts`: a group's TP/FP/FN are its
    labels' counts summed."""
    return _f1(*(np.bincount(key, weights=row, minlength=n_keys) for row in counts)).tolist()


def macro_f1(counts: np.ndarray, labels) -> float:
    """Unweighted mean of per-label F1 over the columns `labels` of the
    label_counts table `counts`. Every such label must have at least one
    gold positive, otherwise its recall is undefined."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("label subset is empty")
    tp, fp, fn = counts[:, labels]
    if np.any(tp + fn == 0):
        raise ValueError(
            "macro F1 is undefined for labels without gold positives; "
            "restrict the label subset"
        )
    return float(np.mean(_f1(tp, fp, fn)))


def precision_at_n(scores: np.ndarray, gold, n: int) -> float:
    """Mean over documents of the precision of the n top-scored labels.

    Ties are broken toward the lower label index. Each row's n-th highest
    score comes from a partition, not a sort: the labels above it are all
    taken, and its ties fill the remaining places from the lowest label
    index up. Rows go P_AT_N_BLOCK cells at a time.
    """
    rows, cols = gold
    if n < 1:
        raise ValueError("n must be at least 1")
    n_docs, n_labels = scores.shape
    if n > n_labels:
        raise ValueError(f"n={n} exceeds the number of labels {n_labels}")
    if n_docs == 0:
        return 0.0
    hits = np.empty(n_docs, dtype=np.int64)
    step = max(1, P_AT_N_BLOCK // n_labels)
    for r0 in range(0, n_docs, step):
        block = scores[r0 : r0 + step]
        nth = np.partition(block, n_labels - n, axis=1)[:, n_labels - n, None]
        top = block > nth
        tied = block == nth
        free = n - np.count_nonzero(top, axis=1)
        # rows with more ties at the n-th place than free places
        crowded = np.flatnonzero(np.count_nonzero(tied, axis=1) > free)
        tied[crowded] &= np.cumsum(tied[crowded], axis=1) <= free[crowded, None]
        top |= tied
        lo, hi = np.searchsorted(rows, (r0, r0 + step))
        r, c = rows[lo:hi] - r0, cols[lo:hi]
        hits[r0 : r0 + step] = np.bincount(r[top[r, c]], minlength=len(block))
    return float(np.mean(hits / n))


def pr_auc(scores: np.ndarray, gold) -> float:
    """Area under pooled micro precision vs micro recall.

    Thresholds sweep every distinct score plus 0 and 1; a cell is predicted
    positive when its score is strictly greater than the threshold. Precision
    is integrated over recall with a right-continuous step rule, threshold
    by threshold from the highest down, adding strictly left to right.

    Recall moves only at the threshold just below a distinct positive score
    v; every other threshold adds an exact 0.0 step, which leaves the sum's
    bits as they are, so only those thresholds are visited. There the cells
    predicted are the cells scoring v or more, counted by a binary search
    in the scores sorted once, and the true positives the positives scoring
    v or more, counted by v's first place among the positives' scores,
    sorted apart. Such a threshold exists when some cell scores below v, or
    when v > 0 (the threshold 0 then predicts every cell).
    """
    pos = np.sort(scores[tuple(gold)])
    n_pos = pos.size
    if n_pos == 0:
        raise ValueError("PR AUC is undefined without gold positives")
    s = np.sort(scores.ravel())
    n = s.size
    run_start = np.empty(n_pos, dtype=bool)
    run_start[0] = True
    np.not_equal(pos[1:], pos[:-1], out=run_start[1:])
    first = np.flatnonzero(run_start)[::-1]
    v = pos[first]
    n_pred = n - np.searchsorted(s, v, side="left")
    below = (n_pred < n) | (v > 0.0)
    tp = (n_pos - first)[below]
    recall = tp / n_pos
    steps = (recall - np.concatenate(([0.0], recall[:-1]))) * (tp / n_pred[below])
    # accumulate, unlike np.sum, adds strictly left to right
    return float(np.add.accumulate(np.concatenate(([0.0], steps)))[-1])


@dataclass
class BinRow:
    bin_lo: float
    bin_hi: float
    n_labels: int
    micro_f1: float | None


def frequency_binned_f1(counts: np.ndarray, train_counts) -> list[BinRow]:
    """Micro F1 per bin of ln(training count), over labels present in both
    the training set (count >= 1) and the evaluation gold (support >= 1).

    N_BINS bin edges are equal-width over [min, max] of the natural log of
    counts.
    Each bin's TP/FP/FN are its labels' columns of the label_counts table
    `counts` summed.
    """
    freq = np.asarray(train_counts, dtype=np.float64)
    tp, _, fn = counts
    eligible = np.flatnonzero((freq >= 1) & (tp + fn >= 1))
    if eligible.size == 0:
        raise ValueError("no label is present in both the training and evaluation sets")
    logs = np.log(freq[eligible])
    lo, hi = float(logs.min()), float(logs.max())
    width = (hi - lo) / N_BINS
    if width == 0.0:
        assignment = np.zeros(eligible.size, dtype=np.int64)
    else:
        assignment = np.minimum(((logs - lo) / width).astype(np.int64), N_BINS - 1)
    sizes = np.bincount(assignment, minlength=N_BINS)
    f1 = _micro_f1_by(counts[:, eligible], assignment, N_BINS)
    return [
        BinRow(
            bin_lo=lo + b * width,
            bin_hi=lo + (b + 1) * width,
            n_labels=int(sizes[b]),
            micro_f1=f1[b] if sizes[b] else None,
        )
        for b in range(N_BINS)
    ]


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
    gold,
    *,
    p_at: tuple[int, ...],
    groups=None,
    train_counts=None,
    macro_labels=None,
) -> MetricsReport:
    """Assemble the full report for a score matrix and its gold cells.

    `groups` is an optional per-label tag sequence; `train_counts` an optional
    per-label training-frequency vector enabling the binned table;
    `macro_labels` an optional label subset for macro F1 (every member must
    have gold support).
    """
    pred = binarize(scores)
    counts = label_counts(pred, gold)
    tp, fp, fn = (int(c) for c in counts.sum(axis=1))

    by_group: dict[str, float] = {}
    if groups is not None:
        index: dict[str, int] = {}  # tag -> its number, in order of first sight
        key = np.array([index.setdefault(tag, len(index)) for tag in groups], dtype=np.int64)
        f1 = _micro_f1_by(counts, key, len(index))
        by_group = {tag: f1[index[tag]] for tag in sorted(index) if tag != "none"}

    return MetricsReport(
        n_docs=int(scores.shape[0]),
        n_labels=int(scores.shape[1]),
        threshold=DEFAULT_THRESHOLD,
        tp=tp, fp=fp, fn=fn,
        micro_f1=float(_f1(tp, fp, fn)),
        micro_f1_by_group=by_group,
        macro_f1=None if macro_labels is None else macro_f1(counts, macro_labels),
        macro_n_labels=0 if macro_labels is None else len(macro_labels),
        p_at={str(n): precision_at_n(scores, gold, n) for n in p_at},
        pr_auc=pr_auc(scores, gold),
        bins=None if train_counts is None else frequency_binned_f1(counts, train_counts),
    )
