"""Training regimen: Adam, batches of 4, random 10,000-word truncation,
dropout, and early stopping on dev micro F1.

Runs are bitwise reproducible under a fixed seed: shuffling, truncation
offsets, and dropout masks all derive from (seed, epoch, document index),
so results do not depend on batch composition or worker scheduling.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .corpus import EncodedDocument, gold_cells
from .metrics import binarize, micro_f1
from .model import GradientSet, ModelParams, backward, make_dropout_masks, predict_matrix

# Adam's moment decay rates and denominator offset
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8

# Elements of a tensor per row block of `adam_step`: its transients (the
# block's gradient when the tensor's is compact, one scratch) are this
# size, not the tensor's.
ADAM_BLOCK = 1 << 16


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 4
    max_segment: int = 10_000
    patience: int = 10
    max_epochs: int = 100
    dropout: float = 0.2
    min_doc_freq: int = 3  # the vocabulary floor
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.max_segment < 1:
            raise ValueError("max segment must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.min_doc_freq < 1:
            raise ValueError(f"min_doc_freq must be >= 1, not {self.min_doc_freq}")


def truncate_segment(token_ids: np.ndarray, max_segment: int, rng) -> np.ndarray:
    """Identity for short documents; otherwise a uniformly random contiguous
    window of exactly `max_segment` tokens."""
    if len(token_ids) <= max_segment:
        return token_ids
    offset = int(rng.integers(0, len(token_ids) - max_segment + 1))
    return token_ids[offset : offset + max_segment]


@dataclass
class AdamState:
    """Adam's moments, each a table laid out, shaped and typed as the
    parameters' (`ModelParams.zeros_like`), and the step count."""

    m: ModelParams
    v: ModelParams
    t: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(m=params.zeros_like(), v=params.zeros_like())


def adam_step(params: ModelParams, grads: GradientSet, state: AdamState, cfg: TrainConfig) -> None:
    """Bias-corrected Adam update of every row, applied in place. A
    non-finite gradient raises FloatingPointError before anything is
    updated.

    The gradients are one table over W_e's rows `grads.rows` (see
    GradientSet). W_e comes first, as long as `model._tensor_shapes` lists
    it first in every table: it is walked in blocks of whole rows,
    ADAM_BLOCK elements or fewer (one row at least), from its first row on;
    a block's gradient is a zeroed block with the touched rows scattered in,
    so an untouched row gets the update for g = 0: its moments decay and it
    still moves. Then the rest of `grads.flat`, which lines up with the rest
    of the parameters' and each moment's buffer, is walked in one pass, in
    blocks of ADAM_BLOCK elements. Every element takes the operations
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    arr -= lr * (m/bc1) / (sqrt(v/bc2) + eps) in that order, whatever its
    block, and a block's gradient is spent once `v` is updated, so it serves
    as scratch beside one transient; both are in the parameters' dtype.
    Afterwards the gradients after W_e are spent; W_e's is left as it was."""
    grads.check_finite()
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    lr = cfg.learning_rate
    arr, g, m, v, rows = params["W_e"], grads["W_e"], state.m["W_e"], state.v["W_e"], grads.rows
    step = max(1, ADAM_BLOCK // arr.shape[1])
    for r0 in range(0, len(arr), step):
        r1 = min(r0 + step, len(arr))
        lo, hi = np.searchsorted(rows, (r0, r1))
        gb = np.zeros((r1 - r0, arr.shape[1]), arr.dtype)
        gb[rows[lo:hi] - r0] = g[lo:hi]
        _adam_update(arr[r0:r1], gb, m[r0:r1], v[r0:r1], lr, bc1, bc2)
    g = grads.flat[g.size:]
    p, m, v = (table.flat[arr.size:] for table in (params, state.m, state.v))
    for i in range(0, len(g), ADAM_BLOCK):
        block = slice(i, i + ADAM_BLOCK)
        _adam_update(p[block], g[block], m[block], v[block], lr, bc1, bc2)


def _adam_update(p, g, m, v, lr: float, bc1: float, bc2: float) -> None:
    """One block's Adam update in place, with its gradient `g` as scratch."""
    scratch = np.multiply(1.0 - BETA1, g)
    m *= BETA1
    m += scratch
    v *= BETA2
    np.multiply(1.0 - BETA2, g, out=scratch)
    scratch *= g
    v += scratch
    denom = np.divide(v, bc2, out=g)
    np.sqrt(denom, out=denom)
    denom += EPSILON
    np.divide(m, bc1, out=scratch)
    scratch *= lr
    scratch /= denom
    p -= scratch


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    dev_micro_f1: float
    wall_time_s: float


@dataclass
class TrainHistory:
    """The epochs so far, and the early stopper: `best_epoch` moves only on
    a strictly higher dev micro F1, so ties keep the earlier best."""

    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0

    def add(self, stats: EpochStats, patience: int) -> bool:
        """Append an epoch; True once `patience` epochs have passed since
        the best one."""
        self.epochs.append(stats)
        if not self.best_epoch or stats.dev_micro_f1 > self.best_dev_micro_f1:
            self.best_epoch = stats.epoch
        return stats.epoch - self.best_epoch >= patience

    @property
    def best_dev_micro_f1(self) -> float:
        return self.epochs[self.best_epoch - 1].dev_micro_f1


def dev_micro_f1(params: ModelParams, docs) -> float:
    scores = predict_matrix(params, docs)
    return micro_f1(binarize(scores), gold_cells(doc.gold for doc in docs))


def epochs(params: ModelParams, train_docs, dev_docs, desc_ids_list, cfg: TrainConfig):
    """Train `params` in place for `cfg.max_epochs` epochs, yielding each
    epoch's stats together with the parameters after it (live: copy them to
    keep them). Callers pass a freshly initialized set. Shuffling,
    truncation and dropout derive from (seed, epoch, document), so two runs
    from equal `params` agree epoch by epoch whatever their `max_epochs`.

    `desc_ids_list` holds each label's encoded description (required for
    mvc-rlda, ignored for mvc-lda). Both document sets must be non-empty;
    the commands check their splits before any file is written.
    """
    n_labels = params.n_labels
    d_c = params.config.n_filters
    state = AdamState.for_params(params)

    for epoch in range(1, cfg.max_epochs + 1):
        started = time.perf_counter()
        order = np.random.default_rng([cfg.seed, epoch]).permutation(len(train_docs))
        epoch_loss = 0.0
        for batch_idx, start in enumerate(range(0, len(order), cfg.batch_size)):
            batch = order[start : start + cfg.batch_size]
            samples = []
            for di in batch:
                doc = train_docs[int(di)]
                srng = np.random.default_rng([cfg.seed, epoch, int(di)])
                ids = truncate_segment(doc.token_ids, cfg.max_segment, srng)
                masks = make_dropout_masks(srng, len(ids), n_labels, d_c, cfg.dropout)
                samples.append((ids, doc.length, doc.gold, masks))
            try:
                batch_loss, grads = backward(samples, params, desc_ids_list)
                grads.scale_(1.0 / len(batch))
                adam_step(params, grads, state, cfg)
                del grads  # freed before the next batch's backward allocates its own
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"training diverged at epoch {epoch}, batch {batch_idx}: {exc}"
                ) from exc
            epoch_loss += batch_loss
        epoch_loss /= len(train_docs)

        yield EpochStats(epoch, epoch_loss, dev_micro_f1(params, dev_docs),
                         time.perf_counter() - started), params


def train(
    params: ModelParams,
    train_docs,
    dev_docs,
    desc_ids_list,
    cfg: TrainConfig,
) -> tuple[ModelParams, TrainHistory]:
    """Run `epochs` on `params`, which it trains in place, until the early
    stopper halts it; returns a copy of the parameters of the epoch with the
    best dev micro F1 together with the per-epoch history. The first best
    epoch is copied; a later one is copied into that copy, so one copy is
    held at a time."""
    history = TrainHistory()
    best_params = None
    for stats, trained in epochs(params, train_docs, dev_docs, desc_ids_list, cfg):
        stop = history.add(stats, cfg.patience)
        if history.best_epoch == stats.epoch:  # always so at epoch 1
            if best_params is None:
                best_params = trained.copy()
            else:
                np.copyto(best_params.flat, trained.flat)
        if stop:
            break
    return best_params, history


def reduce_document(doc: EncodedDocument) -> EncodedDocument:
    """Reduced-text variant of a document: its first ceil(l/2) tokens."""
    return EncodedDocument(doc.token_ids[: (doc.length + 1) // 2], doc.gold)
