"""Continuous bag-of-words embedding pretraining with negative sampling.

Single-threaded and deterministic: the same corpus and seed reproduce the
table to the last bit. Returns the input-side vectors.

Training holds one 2V x dim table, the input vectors in rows [0, V) and
the output vectors in rows [V, 2V). A document's centers are taken
CBOW_BLOCK at a time. What does not depend on the table is prepared once
per block: the noise words (one `rng.random` call, the same stream as one
call per center, and one `searchsorted`), the learning rates and each
center's row ids (its context, then its center and noise words plus V).
The SGD updates then run one center at a time, in order, as one gather,
the arithmetic of a plain per-center loop, and one buffered scatter, so
the tables are bit-identical to that loop: h is the sum of the context
rows divided by their count (what `mean` computes), a noise word equal to
the center is dropped, and an id repeated in a window or among the noise
words keeps its last copy's update. The halves are returned as two
independent V x dim arrays.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .corpus import DataFormatError, read_tensor_file, write_tensor_file
from .model import sigmoid

EMBED_FORMAT = "mvclda.embeddings"
EMBED_FORMAT_VERSION = 2

# Centers per prepared block. The block's transients (a CBOW_BLOCK x
# (2*window + 1 + negative) index matrix in training, a CBOW_BLOCK x
# 2*window x dim gather in `cbow_pass_loss`, the window taken as at most
# the document's length less one) do not grow with a longer document.
CBOW_BLOCK = 256

# The SGD learning rate decays linearly from LR_START at the first center
# to LR_END at the last.
LR_START = 0.025
LR_END = 0.0001


@dataclass(frozen=True)
class CbowConfig:
    dim: int = 100
    window: int = 5
    epochs: int = 5
    negative: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.negative < 0:
            raise ValueError("negative sample count must be >= 0")
        if self.dim < 1:
            raise ValueError("embedding dimensionality must be >= 1")


def _noise_cumulative(docs, vocab_size: int) -> np.ndarray:
    # adds in place: no copy of the corpus; a bincount per note would cost V each
    counts = np.zeros(vocab_size, dtype=np.float64)
    for ids in docs:
        np.add.at(counts, ids, 1.0)
    weights = counts ** 0.75
    total = weights.sum()
    if total == 0.0:
        raise ValueError("corpus contains no tokens")
    return np.cumsum(weights / total)


def _init_tables(vocab_size: int, cfg: CbowConfig, rng) -> np.ndarray:
    """The stacked 2V x dim table: rows [0, V) the input vectors, uniform in
    [-0.5, 0.5) / dim, rows [V, 2V) the output vectors, zero."""
    table = np.zeros((2 * vocab_size, cfg.dim))
    w_in = table[:vocab_size]
    rng.random(out=w_in)
    w_in -= 0.5
    w_in /= cfg.dim
    # the OOV row (last id) starts at the centroid and then trains normally
    w_in[-1] = w_in.mean(axis=0)
    return table


def _center_blocks(ids: np.ndarray, window: int, negative: int, rng, cum: np.ndarray):
    """One document's centers, CBOW_BLOCK at a time, as (centers, ctx,
    counts, negs). Row i of the m x 2*window `ctx` holds the ids at offsets
    -window..-1 and 1..window from its center, -1 outside the document, so
    the context is the row's counts[i] ids >= 0, in order. `negs` is the
    m x negative noise words, drawn in center order. A window wider than
    the document is taken as len(ids) - 1, which reaches every token from
    every center. A document of fewer than two tokens has no context
    windows."""
    l = len(ids)
    if l < 2:
        return
    window = min(window, l - 1)
    for r0 in range(0, l, CBOW_BLOCK):
        r1 = min(r0 + CBOW_BLOCK, l)
        a, b = max(r0 - window, 0), min(r1 + window, l)
        seg = np.concatenate((np.full(a - r0 + window, -1), ids[a:b], np.full(r1 + window - b, -1)))
        win = np.lib.stride_tricks.sliding_window_view(seg, 2 * window + 1)
        ctx = np.concatenate((win[:, :window], win[:, window + 1 :]), axis=1)
        n = np.arange(r0, r1)
        counts = np.minimum(n, window) + np.minimum(l - 1 - n, window)
        draws = rng.random((r1 - r0) * negative)
        negs = np.searchsorted(cum, draws).reshape(r1 - r0, negative)
        yield ids[r0:r1], ctx, counts, negs


def train_cbow_tables(docs, vocab_size: int, cfg: CbowConfig) -> tuple[np.ndarray, np.ndarray]:
    """Train CBOW and return (input, output) tables; the input table is the
    embedding, the output table is needed to evaluate the objective. The
    two are independent arrays of V rows each."""
    if not docs or all(len(d) == 0 for d in docs):
        raise ValueError("cannot pretrain embeddings on an empty corpus")
    rng = np.random.default_rng(cfg.seed)
    cum = _noise_cumulative(docs, vocab_size)
    table = _init_tables(vocab_size, cfg, rng)

    # single-token documents contribute no context windows
    total = cfg.epochs * sum(len(d) for d in docs if len(d) > 1)
    if total == 0:
        raise ValueError("corpus has no usable context windows")
    processed = 0
    for _epoch in range(cfg.epochs):
        for ids in docs:
            for centers, ctx, counts, negs in _center_blocks(
                ids, cfg.window, cfg.negative, rng, cum
            ):
                m = len(centers)
                steps = np.arange(processed, processed + m)
                lrs = LR_START + (LR_END - LR_START) * (steps / total)
                processed += m
                # center i's int64 row ids (ctx's -1 padding is int64): its
                # context, then the center and its noise words (label 1, then
                # 0s) in the output half, without -1s or noise words equal to
                # the center, end to end
                rows = np.concatenate((ctx, centers[:, None], negs), axis=1)
                keep = rows >= 0
                keep[:, ctx.shape[1] + 1 :] = negs != centers[:, None]
                rows[:, ctx.shape[1] :] += vocab_size
                ends = np.cumsum(keep.sum(axis=1)).tolist()
                rows = rows[keep]
                start = 0
                for end, c, lr in zip(ends, counts.tolist(), lrs.tolist()):
                    idx = rows[start:end]
                    start = end
                    w = table.take(idx, axis=0)
                    hin, wo = w[:c], w[c:]
                    h = np.add.reduce(hin, axis=0) / c
                    grad = sigmoid(wo @ h)
                    grad[0] -= 1.0
                    grad *= lr
                    dh = grad @ wo
                    wo -= grad[:, None] * h
                    hin -= dh / c
                    table[idx] = w
    return _split_tables(table, vocab_size)


def _split_tables(table: np.ndarray, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The halves of a stacked table as (input, output), neither a view: the
    output half is copied, then the table shrinks in place to the input
    half, so at most three V-row tables are held. No view of the table
    outlives its caller's loop to see the buffer move."""
    w_out = table[vocab_size:].copy()
    table.resize((vocab_size, table.shape[1]), refcheck=False)
    return table, w_out


def train_cbow(docs, vocab_size: int, cfg: CbowConfig) -> np.ndarray:
    """Train CBOW vectors on encoded documents (int32 token-id arrays).

    Context vectors are averaged to predict the center word against
    `cfg.negative` noise words drawn from the unigram^0.75 distribution;
    the learning rate decays linearly from LR_START to LR_END.
    """
    w_in, _ = train_cbow_tables(docs, vocab_size, cfg)
    return w_in


def cbow_pass_loss(docs, w_in: np.ndarray, w_out: np.ndarray, cfg: CbowConfig, seed: int) -> float:
    """Mean negative-sampling loss over one full pass with seeded noise.

    Evaluates fixed tables; used to confirm that training reduced the
    objective relative to initialization. Each block of centers is scored
    at once and the per-center losses are summed block by block.
    """
    rng = np.random.default_rng(seed)
    cum = _noise_cumulative(docs, w_in.shape[0])
    eps = 1e-12
    total_loss = 0.0
    n_centers = 0
    for ids in docs:
        for centers, ctx, counts, negs in _center_blocks(
            ids, cfg.window, cfg.negative, rng, cum
        ):
            # -1 marks a position outside the document; its gathered row is
            # zeroed before the sum
            hin = np.where((ctx >= 0)[:, :, None], w_in[ctx], 0.0)
            h = hin.sum(axis=1) / counts[:, None]
            pos = np.einsum("md,md->m", w_out[centers], h)
            neg = np.einsum("mkd,md->mk", w_out[negs], h)
            neg_loss = np.log(np.maximum(sigmoid(-neg), eps))
            loss = -np.log(np.maximum(sigmoid(pos), eps))
            loss -= np.where(negs != centers[:, None], neg_loss, 0.0).sum(axis=1)
            total_loss += float(loss.sum())
            n_centers += len(centers)
    if n_centers == 0:
        raise ValueError("corpus has no usable context windows")
    return total_loss / n_centers


def initial_tables(docs, vocab_size: int, cfg: CbowConfig) -> tuple[np.ndarray, np.ndarray]:
    """The exact initialization train_cbow starts from (for objective checks)."""
    rng = np.random.default_rng(cfg.seed)
    return _split_tables(_init_tables(vocab_size, cfg, rng), vocab_size)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def save_embeddings(path, table: np.ndarray, vocab_checksum: str) -> None:
    """The table as one tensor file; its header's `vocab_sha256` pins the
    vocabulary file the table was trained against."""
    header = {"format": EMBED_FORMAT, "version": EMBED_FORMAT_VERSION,
              "vocab_sha256": vocab_checksum}
    write_tensor_file(path, header, [("embeddings", table)])


def load_embeddings(path, expected_vocab_checksum: str) -> np.ndarray:
    """Read a table written by `save_embeddings` against the vocabulary
    file of checksum `expected_vocab_checksum`. A damaged or foreign file, a header
    without a 2-d `embeddings` tensor and a `vocab_sha256`, or a table
    holding a NaN or an infinity, or a table written against another
    vocabulary raises DataFormatError."""
    with open(path, "rb") as fh:
        if fh.read(5) == b"#emb\t":
            raise DataFormatError(
                f"{path}: embedding file of the old text-header format (version 1), "
                "which this program no longer reads; pretrain it again"
            )
    header, arrays, _ = read_tensor_file(path, EMBED_FORMAT, EMBED_FORMAT_VERSION)
    table = arrays.get("embeddings")
    stored = header.get("vocab_sha256")
    if table is None or table.ndim != 2 or not isinstance(stored, str):
        raise DataFormatError(f"{path}: header lacks a 2-d embeddings tensor or vocab_sha256")
    if stored != expected_vocab_checksum:
        raise DataFormatError(
            f"{path}: embedding table was trained against a different vocabulary "
            f"(checksum {stored[:12]}… != {expected_vocab_checksum[:12]}…)"
        )
    if not np.isfinite(table).all():
        raise DataFormatError(f"{path}: embedding table holds non-finite values")
    return table
