"""Forward and backward computation for the MVC-LDA and MVC-RLDA models.

The architecture, per document of length l:

  X  = W_e[token_ids]                              (l x d_e)  embedded input
  Z_i = zero-padded 1-d convolution with kernel s_i (l x d_c) per channel
  C  = tanh(elementwise max over channels of Z_i)  (l x d_c)
  a_j = C V_j          per-label attention scores  (l,)
  P_j = C^T a_j        attention-pooled features   (d_c,)
      = (C^T C) V_j    Gram form, used for linear attention
  T_j = sigmoid(K_j * l/10000 + d_j)               length feature
  y_j = sigmoid(U_j . P_j + b_j + T_j)

MVC-LDA minimizes summed per-label binary cross entropy; MVC-RLDA adds
g_j * lambda * ||V_j - f(D_j)||^2 for gold-positive labels, where f encodes
the label description with a tied-embedding convolution, spatial max pool,
and sigmoid dense layer.

With linear (unnormalized) attention the l x J score matrix A = C V^T is
never formed: pooling is P = V G with the d_c x d_c Gram matrix G = C^T C,
and the frame gradient is dC = C (V^T dP + dP^T V). A zero-length document
has an empty C, hence G = 0 and P = 0, and scores sigmoid(b + T).

All channels, one or several, run as one convolution. Padding puts s//2
zeros on the left, so channel i's window at a position nests inside the
s_max window at row offset s_max//2 - s_i//2. The kernels are stacked into
one (s_max*d_e) x (n*d_c) matrix, each at its offset in its own column
block, zeros elsewhere. The input is int32 ids in [0, V) and one scale per
row (dropout's, or 0 for a gap row). The output rows are taken CONV_CHUNK
at a time: each chunk's input, padded at s_max, is built as embedding rows
times their scale, and its windows form a (chunk x s_max*d_e) view whose
row stride (d_e) is below its row width, which BLAS cannot take. So the
window matrix is copied into a contiguous one before its GEMM, as numpy
would copy it itself, with the same bits, but faster. Per chunk one GEMM
gives every channel's outputs, and a running maximum over the column
blocks gives the cross-channel max. The winning channels, in the smallest
unsigned type that holds n - 1, are kept by a maximum, not a masked copy:
before channel i every winner is below i, so max(winner, i * (channel i
strictly greater)) sets i exactly where channel i beats the running max
and leaves a tie to the lowest channel. In backward each output's
gradient is put at its winning channel's column by flat offsets of
numpy's index type (a chunk's channel-0 offsets, built once per call,
plus winner * d_c), one GEMM gives the chunk's window gradients, which
s_max shifted adds fold onto its input rows; the rows no later chunk
reaches go, times their scale, straight into the W_e gradient, and one
GEMM with the rebuilt window matrix gives the chunk's kernel gradients.
Both scatters run over flat offsets into raveled arrays, in the order a
row-wise scatter takes. So a training step holds, per document, the
frames C, their gradient and the winning channels (l x d_c each), and
inference only the frames; every other transient depends on CONV_CHUNK,
not on l.

The forward pass splits at the Gram matrix. `_frames` gives one note's
frames and G = C^T C; `_label_side` takes a stack of Grams and the notes'
lengths and gives P, T and y for each. Training, `forward` and
`predict_matrix` each compose the two. A training sample and `forward`'s
note are a stack of one; training keeps the frames, the winning channels
and P, T and y for its backward pass. `predict_matrix` computes each
note's frames and Gram alone, with its own convolution GEMMs (a GEMM
row's bits can depend on the GEMM's row count, so packing notes into one
GEMM is not exact), and runs the label side once per block of notes. A
block's P holds at most CONV_CHUNK x n*d_c elements, as many as one
chunk's products, so that bound, not the number of notes, sets
inference's label-side transients.

`backward` takes a whole training batch. The parameters are fixed within
it, so the kernels are stacked once, and the description encoder runs once
(DescriptionBatch): the descriptions of the batch's gold labels are packed
into one sequence, between gap rows of id 0 at scale 0, encoded by one
convolution, and their gradient is summed over the batch's samples before
one backward pass.

The parameters are one table of named tensors, and `_tensor_shapes` is
the one list of its names and shapes. A table is one flat buffer of one
dtype, each tensor a view of it, laid end to end in `_tensor_shapes`
order, which is also the checkpoint's payload order. Every table has this
layout: the parameters (`ModelParams.flat`), each of Adam's moments, a
batch's gradients (`GradientSet.flat`) and a loaded checkpoint, whose
payload, read once, is the table's buffer. So an update, a scale, a
finiteness check or a copy acts on each buffer once, not on each tensor.
A batch's W_e gradient lives on the rows the batch touches, the sorted
unique ids of its notes and its description sequence (gap id 0
included): its table is laid out for len(rows) word ids, not V, so W_e's
gradient is len(rows) x d_e, and every tensor after it lines up with the
parameters'. Each finished block of input gradients adds into it at its
ids' positions among those rows, in the order a dense buffer would take
the same additions. Only this module knows the layout, but for one fact
`train.adam_step` relies on: `_tensor_shapes` lists W_e first.

Gradients are analytic and exact for this fixed architecture (the max
operations route their full subgradient to the lowest-index winner); no
autodiff framework is involved.

The model computes in its parameters' dtype: every buffer, the dense gold
row `backward` builds from a sample's sorted label ids as a transient, and
the dropout scales take it, so a float32 model runs SGEMM and float32
elementwise work throughout (a single float64 operand would promote the
rest). `init_params` makes float32 parameters; a float64 set (an older
checkpoint, or `init_params(..., dtype=np.float64)`) computes in float64.
Only the loss is summed in float64; `predict_matrix` returns its scores
in the parameters' dtype too, and the metrics take them as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .corpus import DataFormatError, read_tensor_file, write_tensor_file

CHECKPOINT_FORMAT = "mvclda.checkpoint"
CHECKPOINT_FORMAT_VERSION = 1

# Document lengths are divided by this before entering the length feature;
# it equals the training-time truncation window.
LENGTH_SCALE = 10000.0

LOSS_CLAMP = 1e-12

MODEL_KINDS = ("mvc-lda", "mvc-rlda")

# Rows of the window matrix per convolution GEMM. The transients of one
# chunk (its padded input, CONV_CHUNK x n*d_c products, CONV_CHUNK x
# s_max*d_e window gradients) do not grow with the document.
CONV_CHUNK = 512


def sigmoid(x):
    """Logistic function without overflow: with e = exp(-|x|), 1/(1+e) for
    x >= 0 and e/(1+e) below. The numerator is exp(min(x, 0)), 1 or e (an
    exp costs less than a select), and -|x| is min(x, -x); both keep a
    NaN's sign bit through to the output. A float input keeps its dtype; a
    Python float or an integer gives float64."""
    x = np.asarray(x)
    e = np.exp(np.minimum(x, -x))
    out = np.exp(np.minimum(x, 0.0))
    e += 1.0
    out /= e
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ModelConfig:
    kind: str = "mvc-lda"
    kernel_sizes: tuple[int, ...] = (6, 8, 10, 12)
    n_filters: int = 90
    embed_dim: int = 100
    lambda_: float = 0.0005
    use_length: bool = True

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        ks = tuple(self.kernel_sizes)
        if not ks:
            raise ValueError("kernel_sizes lists no size")
        if any(s < 1 for s in ks):
            raise ValueError("kernel sizes must be positive")
        if list(ks) != sorted(ks):
            raise ValueError("kernel sizes must be ascending")
        if len(ks) == 4 and any(b - a != 2 for a, b in zip(ks, ks[1:])):
            raise ValueError("four-channel kernel sizes must step by 2")
        if not (math.isfinite(self.lambda_) and self.lambda_ >= 0):
            raise ValueError("regularization weight (lambda) must be finite and >= 0")
        if self.n_filters < 1 or self.embed_dim < 1:
            raise ValueError("filter count and embedding dim must be positive")


def config_key(field_name: str) -> str:
    """The config-file and checkpoint-header key of a config dataclass field:
    the name without a trailing underscore (`lambda_` is `lambda`)."""
    return field_name.rstrip("_")


def _views(flat: np.ndarray, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """Each tensor of `shapes` as a view of the 1-D buffer `flat`, laid end
    to end in `shapes`' order; the sizes must fill `flat`."""
    views, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    if offset != flat.size:
        raise ValueError(f"a table of {offset} elements laid over a buffer of {flat.size}")
    return views


@dataclass(eq=False)
class ModelParams:
    """The model's tensors, held in one flat buffer `flat`: each tensor
    `_tensor_shapes` lists (under `config`, for `vocab_size` word ids and
    `n_labels` labels) is a view of it, laid end to end in that order, the
    checkpoint's payload order. `arrays` maps each name to its view."""

    config: ModelConfig
    vocab_size: int
    n_labels: int
    flat: np.ndarray
    arrays: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.arrays = _views(self.flat, _tensor_shapes(self.config, self.vocab_size,
                                                       self.n_labels))

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    @property
    def conv(self) -> list[np.ndarray]:
        """The per-channel kernels, s_i x d_e x d_c each."""
        return [self.arrays[f"conv{i}"] for i in range(len(self.config.kernel_sizes))]

    @property
    def dtype(self) -> np.dtype:
        """The float dtype of every tensor, in which the model computes."""
        return self.flat.dtype

    def tensors(self):
        """(name, array) pairs in the fixed serialization order."""
        return self.arrays.items()

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.vocab_size, self.n_labels, self.flat.copy())

    def zeros_like(self) -> "ModelParams":
        """A table of these tensors' names, shapes and dtype, all zero."""
        return ModelParams(self.config, self.vocab_size, self.n_labels, np.zeros_like(self.flat))


class GradientSet:
    """A batch's gradients, one table over `rows`: one flat buffer `flat`,
    laid out by `_tensor_shapes` with W_e's vocabulary size taken as
    len(rows). W_e's gradient is compact, held only on the embedding rows
    `rows` (sorted and unique; its other rows are zero), at the head of the
    buffer; every other tensor is shaped like its parameter, so the tail
    of `flat` after W_e lines up with the tail of the parameters' and each
    Adam moment's buffer. `data` maps each name to its view."""

    @classmethod
    def zeros_like(cls, params: ModelParams, rows: np.ndarray) -> "GradientSet":
        """Zero gradients for `params`, W_e's on the embedding rows `rows`."""
        grads = cls()
        grads.rows = rows
        shapes = _tensor_shapes(params.config, len(grads.rows), params.n_labels)
        grads.flat = np.zeros(sum(map(math.prod, shapes.values())), params.dtype)
        grads.data = _views(grads.flat, shapes)
        return grads

    def __getitem__(self, name: str) -> np.ndarray:
        return self.data[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        # `grads[name] += x` stores back the array it updated in place; any
        # other value is copied in, so every tensor stays a view of `flat`
        if value is not self.data[name]:
            self.data[name][...] = value

    def add_(self, other: "GradientSet") -> None:
        if not np.array_equal(self.rows, other.rows):
            raise ValueError("gradients over other W_e rows do not add")
        self.flat += other.flat

    def scale_(self, factor: float) -> None:
        self.flat *= factor

    def check_finite(self) -> None:
        """Raise FloatingPointError, naming the first tensor in table order
        that holds a non-finite value, if any does."""
        if np.isfinite(self.flat).all():
            return
        for name, arr in self.data.items():
            if not np.isfinite(arr).all():
                raise FloatingPointError(f"non-finite gradient in tensor {name!r}")


def _glorot(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(
    cfg: ModelConfig,
    vocab_size: int,
    n_labels: int,
    rng,
    embeddings: np.ndarray,
    dtype=np.float32,
) -> ModelParams:
    """Variance-preserving initialization; biases and length weights start
    at zero, and W_e is the pretrained `embeddings` table (copied, then
    fine-tuned during training). Each other tensor is drawn in float64,
    then cast into its view of the new table's buffer, in `dtype`, so the
    draws do not depend on it; a table too large for numpy raises
    MemoryError before any draw is made."""
    d_e, d_c = cfg.embed_dim, cfg.n_filters
    if embeddings.shape != (vocab_size, d_e):
        raise ValueError(
            f"embedding table shape {embeddings.shape} does not match "
            f"(vocab {vocab_size}, dim {d_e})"
        )
    shapes = _tensor_shapes(cfg, vocab_size, n_labels)
    size = sum(map(math.prod, shapes.values()))
    if size * 8 > np.iinfo(np.intp).max:
        raise MemoryError("the table's float64 draws exceed numpy's largest array size")
    params = ModelParams(cfg, vocab_size, n_labels, np.zeros(size, dtype))
    # the table order is the RNG draw order
    for name, view in params.tensors():
        shape = view.shape
        if name == "W_e":
            view[...] = embeddings
        elif len(shape) == 3:    # convolution kernels, s x d_e x d_c
            view[...] = _glorot(rng, shape, shape[0] * d_e, shape[0] * d_c)
        elif name in ("V", "U"):  # one d_c -> 1 map per label
            view[...] = _glorot(rng, shape, d_c, 1)
        elif name == "desc_W":
            view[...] = _glorot(rng, shape, d_c, d_c)
        # biases and length weights stay zero
    return params


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------

@dataclass
class DropoutMasks:
    """Inverted-dropout masks for one forward/backward pair.

    Rows of the embedded input are dropped whole: `x_scale` is their keep
    mask divided by 1 - rate. Pooled features are dropped elementwise:
    `p_keep` is their keep mask, held as bools (a batch holds one per
    sample, each n_labels x d_c). A forward pass takes both scales in the
    parameters' dtype (`scales`), so no float64 operand promotes a float32
    model's arithmetic.
    """

    x_scale: np.ndarray     # (l,)
    p_keep: np.ndarray      # (n_labels, d_c), bool
    rate: float

    def scales(self, dtype) -> tuple[np.ndarray, np.ndarray]:
        """(x_scale, p_scale) in `dtype`; p_scale is p_keep / (1 - rate)."""
        return (self.x_scale.astype(dtype, copy=False),
                np.divide(self.p_keep, 1.0 - self.rate, dtype=dtype))


def make_dropout_masks(rng, l: int, n_labels: int, d_c: int, rate: float) -> DropoutMasks | None:
    if rate <= 0.0:
        return None
    return DropoutMasks(
        x_scale=(rng.random(l) >= rate) / (1.0 - rate),
        p_keep=rng.random((n_labels, d_c)) >= rate,
        rate=rate,
    )


# ---------------------------------------------------------------------------
# Layer operations
# ---------------------------------------------------------------------------

def _channel_blocks(W_stack: np.ndarray, kernel_sizes, d_e: int) -> list[np.ndarray]:
    """Channel i's s_i x d_e x d_c block of a stacked (s_max*d_e) x (n*d_c)
    matrix, as a view: column block i, from row offset s_max//2 - s_i//2
    (in units of d_e), where its window sits inside the s_max window."""
    s_max = max(kernel_sizes)
    blocks = W_stack.reshape(s_max, d_e, len(kernel_sizes), -1)
    return [blocks[s_max // 2 - s // 2 : s_max // 2 - s // 2 + s, :, i]
            for i, s in enumerate(kernel_sizes)]


def _stack_kernels(weights) -> np.ndarray:
    """All channels' kernels as one (s_max*d_e) x (n*d_c) matrix, zero
    outside each channel's block."""
    _, d_e, d_c = weights[0].shape
    sizes = [w.shape[0] for w in weights]
    stack = np.zeros((max(sizes) * d_e, len(weights) * d_c), weights[0].dtype)
    for block, w in zip(_channel_blocks(stack, sizes, d_e), weights):
        block[...] = w
    return stack


def _windows(Xp: np.ndarray, s: int) -> np.ndarray:
    # zero-copy (l, s*d_e) view, row-major over (offset, embedding-dim): in
    # the C-contiguous Xp a window is s*d_e consecutive floats, and the next
    # window starts one row later. Xp has at least s rows: a chunk's padded
    # block holds its r1 - r0 >= 1 output rows plus s - 1. Without `dtype`
    # the buffer would be read as float64 whatever Xp's dtype
    return np.ndarray(shape=(Xp.shape[0] - s + 1, s * Xp.shape[1]), dtype=Xp.dtype, buffer=Xp,
                      strides=(Xp.strides[0], Xp.strides[1]))


def _input_block(ids: np.ndarray, W_e: np.ndarray, x_scale, s: int, r0: int,
                 r1: int) -> np.ndarray:
    """The rows of the padded input that the windows of output rows r0..r1
    read: r1 - r0 + s - 1 rows from sequence row r0 - s//2 on (s//2 zero
    rows pad the left, so even kernels get the extra one there). Row i
    holds W_e[ids[i]] times x_scale[i]; rows outside the sequence are
    zero."""
    Xb = np.zeros((r1 - r0 + s - 1, W_e.shape[1]), W_e.dtype)
    lo, hi = max(r0 - s // 2, 0), min(r1 + (s - 1) // 2, len(ids))
    X = Xb[lo - r0 + s // 2 : hi - r0 + s // 2]
    np.take(W_e, ids[lo:hi], axis=0, out=X, mode="clip")
    if x_scale is not None:
        X *= x_scale[lo:hi, None]
    return Xb


def _conv_max(ids: np.ndarray, W_e: np.ndarray, x_scale, W_stack: np.ndarray, d_c: int,
              winner: bool):
    """Cross-channel max M (l x d_c) of the convolutions of the sequence
    `ids` (ids in [0, V), embedded by W_e, rows times `x_scale` if given)
    with the stacked kernels, and, if `winner`, the index of the lowest
    channel attaining it (all zero for one channel), in the smallest
    unsigned type that holds n - 1. Per CONV_CHUNK output rows, the
    chunk's padded input is built and one GEMM gives every channel's
    outputs. The winners are kept by max(winner, i * (Z_i > M)): every
    winner before channel i is below i, so that is i exactly where channel
    i is strictly greater, and a tie stays with the lower channel. The
    product is taken in the winners' dtype; a bool mask viewed as uint16
    would halve each row."""
    n = W_stack.shape[1] // d_c
    s = W_stack.shape[0] // W_e.shape[1]
    l = len(ids)
    M = np.empty((l, d_c), W_stack.dtype)
    arg = np.zeros((l, d_c), dtype=np.min_scalar_type(n - 1)) if winner else None
    for r0 in range(0, l, CONV_CHUNK):
        r1 = min(r0 + CONV_CHUNK, l)
        # the window matrix's copy lives for its product only
        Z = np.ascontiguousarray(_windows(_input_block(ids, W_e, x_scale, s, r0, r1), s)) @ W_stack
        Mc = M[r0:r1]
        Mc[...] = Z[:, :d_c]
        for i in range(1, n):
            Zi = Z[:, i * d_c : (i + 1) * d_c]
            if arg is not None:
                # every winner so far is below i: i where strictly greater
                a = arg[r0:r1]
                np.maximum(a, np.multiply(np.greater(Zi, Mc), i, dtype=a.dtype), out=a)
            np.maximum(Mc, Zi, out=Mc)
    return M, arg


def _conv_max_backward(ids: np.ndarray, W_e: np.ndarray, x_scale, W_stack: np.ndarray,
                       winner: np.ndarray, dM: np.ndarray, dW_e: np.ndarray,
                       rows: np.ndarray) -> np.ndarray:
    """Gradients of `_conv_max` for the upstream gradient dM (l >= 1 rows):
    returns dW_stack, shaped like W_stack, and adds the input gradient,
    times x_scale, into the compact W_e gradient dW_e (C-contiguous), whose
    rows are the embedding rows `rows` (sorted, unique, holding every id of
    `ids`).
    Each position's gradient goes to its winning channel only. Per chunk,
    one GEMM gives the window gradients, which an s_max-step shifted add
    folds onto the chunk's input rows; the last s_max - 1 of those carry
    into the next chunk, the others are finished and added into dW_e in
    row order. One GEMM with the rebuilt chunk input gives the chunk's
    share of dW_stack."""
    l, d_c = dM.shape
    d_e = W_e.shape[1]
    s = W_stack.shape[0] // d_e
    n = W_stack.shape[1] // d_c
    # flat offset of (row k, column j) of a chunk's dZ at channel 0
    base = np.arange(min(l, CONV_CHUNK), dtype=np.intp)[:, None] * (n * d_c) + np.arange(d_c)
    for r0 in range(0, l, CONV_CHUNK):
        r1 = min(r0 + CONV_CHUNK, l)
        # position k's gradient goes to column winner * d_c + j of row k
        dZ = np.zeros((r1 - r0, n * d_c), dM.dtype)
        flat = np.multiply(winner[r0:r1], d_c, dtype=np.intp)
        flat += base[: r1 - r0]
        dZ.reshape(-1)[flat] = dM[r0:r1]
        dwin = dZ @ W_stack.T
        # padded rows r0 .. r1 + s - 2, the first s - 1 carried over
        dXb = np.zeros((r1 - r0 + s - 1, d_e), dM.dtype)
        if r0:
            dXb[: s - 1] = carry
        for a in range(s):
            dXb[a : a + r1 - r0] += dwin[:, a * d_e : (a + 1) * d_e]
        del dwin  # freed before the dW product allocates its own transient
        # finished: every padded row before the next chunk's first window
        done = r1 - r0 if r1 < l else len(dXb)
        carry = dXb[done:]
        lo, hi = max(r0 - s // 2, 0), min(r0 + done - s // 2, l)
        dX = dXb[lo - r0 + s // 2 : hi - r0 + s // 2]
        if x_scale is not None:
            dX *= x_scale[lo:hi, None]
        # element (k, j) of dX adds at flat offset pos_k * d_e + j; in dX's
        # row-major order, each element of dW_e takes its additions in the
        # order of the rows k, as a row-wise scatter would
        np.add.at(dW_e.reshape(-1),
                  (np.searchsorted(rows, ids[lo:hi])[:, None] * d_e + np.arange(d_e)).reshape(-1),
                  dX.reshape(-1))
        win = np.ascontiguousarray(_windows(_input_block(ids, W_e, x_scale, s, r0, r1), s))
        if r0 == 0:
            dW = win.T @ dZ
        else:
            dW += win.T @ dZ
        del win  # freed before the next chunk's transients
    return dW


def _frames(ids: np.ndarray, params: ModelParams, x_scale, W_stack: np.ndarray,
            winner: bool):
    """A note's frames C = tanh(M) (l x d_c) over the stacked kernels
    W_stack, its Gram matrix G = C^T C (d_c x d_c) and, if `winner`, each
    frame's winning channel (see `_conv_max`). Its ids must lie in [0, V)."""
    if len(ids) and (ids.min() < 0 or ids.max() >= params.vocab_size):
        raise ValueError("token id out of range for the embedding table")
    M, arg = _conv_max(ids, params["W_e"], x_scale, W_stack, params.config.n_filters, winner)
    C = np.tanh(M, out=M)
    return C, C.T @ C, arg


def _label_side(G: np.ndarray, lengths, params: ModelParams, p_scale=None):
    """The label side of a stack of notes from their Grams G (B x d_c x d_c)
    and untruncated lengths: pooled features P = V G (B x J x d_c), times
    the dropout scale `p_scale` if given, the length feature T (B x J, None
    without `use_length`) and the scores y (B x J). Each note's numbers are
    the bits of a stack of one. Raises FloatingPointError if a score is
    not finite."""
    P = np.matmul(params["V"], G)
    if p_scale is not None:
        P *= p_scale
    logits = np.sum(params["U"] * P, axis=-1) + params["b"]
    T = None
    if params.config.use_length:
        # cast: a float64 array would promote a float32 model's K * lt
        lt = (np.asarray(lengths) / LENGTH_SCALE).astype(params.dtype)
        T = sigmoid(params["K"] * lt[:, None] + params["d"])
        logits = logits + T
    y = sigmoid(logits)
    if not np.all(np.isfinite(y)):
        raise FloatingPointError("non-finite model output")
    return P, T, y


def forward(token_ids, length: int, params: ModelParams,
            masks: DropoutMasks | None = None) -> np.ndarray:
    """Per-label presence probabilities for one document.

    `length` is the untruncated token count (feeds the length feature);
    `masks` enables training-mode dropout, eval mode passes None. A
    document without tokens pools to P = 0 and scores sigmoid(b + T).
    """
    x_scale, p_scale = (None, None) if masks is None else masks.scales(params.dtype)
    _, G, _ = _frames(np.asarray(token_ids), params, x_scale, _stack_kernels(params.conv), False)
    return _label_side(G[None], [length], params, p_scale)[2][0]


class DescriptionBatch:
    """The description encodings f(D_j) of a batch's labels, all from one
    convolution, and the gradient they collect over the batch.

    The parameters are fixed within a batch, so each label is encoded once.
    The descriptions are laid into one id sequence, `seq`, with s//2 gap
    rows between neighbours (kernel width s = s_max); a gap row holds id 0
    at `x_scale` 0, so it embeds to zero and its gradient adds nothing to
    W_e. A window reaches s//2 rows back and (s-1)//2 ahead, so none
    mixes two descriptions, and each description's rows see exactly the
    windows of its own padded input. One `_conv_max` runs over the
    sequence, and each description takes its spatial max over its own rows
    (ties to the lowest row). `backward` adds each sample's regularizer
    gradient w.r.t. the dense layer's input into one row per label
    (`regularize`); the encoder's gradient is linear in it, so `finish`
    runs the encoder's backward once for the whole batch.
    """

    def __init__(self, params: ModelParams, desc_ids_list, labels):
        self.params = params
        labels = np.asarray(labels, dtype=np.int64)
        self.row = np.full(params.n_labels, -1)  # label -> its row of F and Dpre
        self.row[labels] = np.arange(len(labels))
        descs = [desc_ids_list[j] for j in labels]
        lens = np.array([len(ids) for ids in descs])
        if np.any(lens == 0):
            raise ValueError("cannot encode an empty description")
        s, _, d_c = params["desc_conv"].shape
        # the row of every description token in the packed sequence:
        # description k's tokens follow k gaps of s//2 rows
        self.rows = np.arange(lens.sum()) + s // 2 * np.repeat(np.arange(len(lens)), lens)
        starts = np.concatenate(([0], np.cumsum(lens[:-1])))
        self.seq = np.zeros(self.rows[-1] + 1, dtype=np.int32)
        self.seq[self.rows] = np.concatenate(descs)
        self.x_scale = np.zeros(len(self.seq), params.dtype)
        self.x_scale[self.rows] = 1.0
        self.W = params["desc_conv"].reshape(-1, d_c)  # one channel's stack, as a view
        Z, self.winner = _conv_max(self.seq, params["W_e"], self.x_scale, self.W, d_c, True)
        Zd = Z[self.rows]
        self.m = np.maximum.reduceat(Zd, starts, axis=0)             # (k, d_c)
        # argmax within each description: the first row holding the max
        # (or, as argmax does, the first NaN)
        hit = (Zd == np.repeat(self.m, lens, axis=0)) | np.isnan(Zd)
        pos = np.where(hit, np.arange(len(Zd))[:, None], len(Zd))
        self.amax = self.rows[np.minimum.reduceat(pos, starts, axis=0)]
        self.F = sigmoid(self.m @ params["desc_W"].T + params["desc_b"])  # (k, d_c)
        self.Dpre = np.zeros_like(self.F)

    def regularize(self, js: np.ndarray, grads: GradientSet) -> float:
        """lambda * sum_j ||V_j - f(D_j)||^2 over the gold label ids `js` of
        one sample; adds its gradient into grads["V"] and the batch's Dpre."""
        params, lam = self.params, self.params.config.lambda_
        idx = self.row[js]
        F = self.F[idx]
        diff = params["V"][js] - F
        grads["V"][js] += 2.0 * lam * diff
        self.Dpre[idx] += -2.0 * lam * diff * F * (1.0 - F)
        return lam * float(np.sum(diff * diff))

    def finish(self, grads: GradientSet) -> None:
        """Add the description encoder's gradient for the collected Dpre."""
        params = self.params
        grads["desc_W"] += self.Dpre.T @ self.m
        grads["desc_b"] += self.Dpre.sum(axis=0)
        d_c = self.F.shape[1]
        dZ = np.zeros((len(self.seq), d_c), self.F.dtype)
        dZ[self.amax, np.arange(d_c)] = self.Dpre @ params["desc_W"]
        dW = _conv_max_backward(self.seq, params["W_e"], self.x_scale, self.W, self.winner, dZ,
                                grads["W_e"], grads.rows)
        grads["desc_conv"] += dW.reshape(params["desc_conv"].shape)


def description_batch(params: ModelParams, desc_ids_list, golds) -> DescriptionBatch | None:
    """The DescriptionBatch of every label gold in one of `golds` (each
    sample's gold label ids), or None when no regularizer applies: an
    mvc-lda model, lambda = 0, or no gold label."""
    cfg = params.config
    if cfg.kind != "mvc-rlda" or cfg.lambda_ <= 0.0:
        return None
    labels = np.unique(np.concatenate(golds))
    return DescriptionBatch(params, desc_ids_list, labels) if len(labels) else None


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def loss_mvc_lda(y: np.ndarray, gold: np.ndarray) -> float:
    """Per-sample loss: binary cross entropy summed over labels.

    Outputs are clamped into [1e-12, 1-1e-12] inside the loss only, and
    the loss is computed in float64 whatever y's dtype: in float32,
    1 - 1e-12 rounds to 1.0, and the clamp would leave log(0).
    """
    yc = np.clip(np.asarray(y, dtype=np.float64), LOSS_CLAMP, 1.0 - LOSS_CLAMP)
    g = np.asarray(gold, dtype=np.float64)
    return float(-np.sum(g * np.log(yc) + (1.0 - g) * np.log(1.0 - yc)))


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------

def backward(samples, params: ModelParams, desc_ids_list) -> tuple[float, GradientSet]:
    """Summed loss and analytic gradients of a batch for every trainable tensor.

    `samples` are the batch's (token_ids, length, gold ids, masks) tuples; each
    sample's dropout masks are fixed for its forward/backward pair.
    `desc_ids_list` holds the encoded description of every label, which
    only mvc-rlda reads.

    The parameters are fixed within the batch, so the kernels are stacked
    once and the descriptions of every gold label are encoded once. The
    samples are added in order into one zeroed buffer, and the description
    encoder's backward runs after the last. W_e's gradient is compact on
    the rows the batch touches (`GradientSet.rows`). The sum is not checked
    for finiteness here; `adam_step` checks it before it updates anything.
    """
    desc_batch = description_batch(params, desc_ids_list, [gold for _, _, gold, _ in samples])
    touched = np.zeros(params.vocab_size, dtype=bool)
    for token_ids, _, _, _ in samples:
        # clipped: the forward pass refuses an id out of range
        np.put(touched, token_ids, True, mode="clip")
    if desc_batch is not None:
        touched[desc_batch.seq] = True
    grads = GradientSet.zeros_like(params, rows=np.flatnonzero(touched))
    W_stack = _stack_kernels(params.conv)
    loss = 0.0
    for token_ids, length, gold, masks in samples:
        loss += _sample_backward(token_ids, length, gold, params, masks, W_stack, desc_batch,
                                 grads)
    if desc_batch is not None:
        desc_batch.finish(grads)
    return loss, grads


def _sample_backward(token_ids, length: int, gold, params: ModelParams,
                     masks: DropoutMasks | None, W_stack: np.ndarray,
                     desc_batch: DescriptionBatch | None, grads: GradientSet) -> float:
    """One sample's loss; adds its gradients into `grads`, the description
    encoder's into `desc_batch` for its `finish`."""
    cfg = params.config
    ids = np.asarray(token_ids)
    x_scale, p_scale = (None, None) if masks is None else masks.scales(params.dtype)
    C, G, winner = _frames(ids, params, x_scale, W_stack, True)
    P, T, y = _label_side(G[None], [length], params, p_scale)
    y = y[0]
    g = np.zeros_like(y)  # the gold row over every label
    g[gold] = 1.0

    dlogits = y - g                                  # (J,)
    grads["U"] += dlogits[:, None] * P[0]
    grads["b"] += dlogits
    dP = dlogits[:, None] * params["U"]
    if cfg.use_length:
        T = T[0]
        dz = dlogits * T * (1.0 - T)
        grads["K"] += dz * (length / LENGTH_SCALE)
        grads["d"] += dz

    dP_pre = dP if p_scale is None else dP * p_scale

    VtdP = params["V"].T @ dP_pre                    # (d_c, d_c)
    dC = C @ (VtdP + VtdP.T)
    grads["V"] += dP_pre @ G

    # attention regularizer; the description encoder's gradient waits for
    # the batch's `finish`
    reg = 0.0
    if desc_batch is not None:
        reg = desc_batch.regularize(gold, grads)
    loss = loss_mvc_lda(y, g) + reg
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss")

    # a zero-length document has no frames: its convolution and embedding
    # gradients are zero
    if C.shape[0] > 0:
        # dM = dC * (1 - C*C), the tanh derivative computed in C's buffer
        np.multiply(C, C, out=C)
        np.subtract(1.0, C, out=C)
        dC *= C
        del C
        dW = _conv_max_backward(ids, params["W_e"], x_scale, W_stack, winner, dC, grads["W_e"],
                                grads.rows)
        for i, block in enumerate(_channel_blocks(dW, cfg.kernel_sizes, cfg.embed_dim)):
            grads[f"conv{i}"] += block
    return loss


def predict_matrix(params: ModelParams, docs) -> np.ndarray:
    """Eval-mode score matrix (n_docs x n_labels) for encoded documents, in
    the parameters' dtype: row i is `forward` of docs[i], bit for bit. The
    label side runs once per block of notes (see the module docstring)."""
    out = np.empty((len(docs), params.n_labels), params.dtype)
    # the parameters are fixed here, so the kernels are stacked once
    W_stack = _stack_kernels(params.conv)
    # a block's P (block x J x d_c) is at most one chunk's CONV_CHUNK x n*d_c
    block = max(1, CONV_CHUNK * len(params.config.kernel_sizes) // params.n_labels)
    for b0 in range(0, len(docs), block):
        notes = docs[b0 : b0 + block]
        G = np.stack([_frames(np.asarray(doc.token_ids), params, None, W_stack, False)[1]
                      for doc in notes])
        out[b0 : b0 + len(notes)] = _label_side(G, [doc.length for doc in notes], params)[2]
    return out


# ---------------------------------------------------------------------------
# Checkpoint serialization
# ---------------------------------------------------------------------------

_HEADER_FIELDS = [f.name for f in fields(ModelConfig)]

# Header keys of retired ModelConfig fields, each with the one value the
# model still computes; older checkpoints carry them.
_RETIRED_HEADER_KEYS = {"attention_softmax": False, "length_scale": LENGTH_SCALE}


def save_checkpoint(path, params: ModelParams, vocab_checksum: str) -> None:
    """The model config and vocabulary checksum in a tensor-file header, then
    every tensor in the fixed `tensors()` order, in its dtype. Round-trips
    bit-exactly."""
    header = {config_key(name): getattr(params.config, name) for name in _HEADER_FIELDS}
    header.update(format=CHECKPOINT_FORMAT, version=CHECKPOINT_FORMAT_VERSION,
                  vocab_size=params.vocab_size, n_labels=params.n_labels,
                  vocab_sha256=vocab_checksum)
    write_tensor_file(path, header, params.tensors())


def _tensor_shapes(cfg: ModelConfig, vocab_size: int, n_labels: int) -> dict[str, tuple]:
    """The one list of the model's tensors: each name and its shape under
    `cfg`, in the order `ModelParams.arrays` holds them, `init_params` fills
    them and the checkpoint stores them."""
    d_e, d_c = cfg.embed_dim, cfg.n_filters
    shapes = {"W_e": (vocab_size, d_e)}
    # per channel, its s_i x d_e x d_c kernel
    shapes.update({f"conv{i}": (s, d_e, d_c) for i, s in enumerate(cfg.kernel_sizes)})
    # per label: attention and output weights, output bias, length-feature
    # weight and bias
    shapes.update(V=(n_labels, d_c), U=(n_labels, d_c), b=(n_labels,), K=(n_labels,),
                  d=(n_labels,))
    if cfg.kind == "mvc-rlda":
        # the description encoder: s_max-wide kernel, dense layer
        shapes.update(desc_conv=(max(cfg.kernel_sizes), d_e, d_c), desc_W=(d_c, d_c),
                      desc_b=(d_c,))
    return shapes


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Read a checkpoint written by `save_checkpoint`. A damaged or foreign
    file (see `read_tensor_file`), a header that does not describe a valid
    model, a missing or an extra tensor, tensors out of the table's order,
    a tensor whose shape the header's config does not give, or tensors of
    two dtypes raise DataFormatError, as does a retired key at another
    value than the model computes; other keys the header holds are
    ignored. The parameters keep the stored dtype: a float64 checkpoint is
    scored in float64. The file's payload, read once, is the table's
    buffer."""
    header, arrays, payload = read_tensor_file(path, CHECKPOINT_FORMAT,
                                               CHECKPOINT_FORMAT_VERSION)
    for key, value in _RETIRED_HEADER_KEYS.items():
        if header.get(key, value) != value:
            raise DataFormatError(
                f"{path}: checkpoint header sets retired key {key!r} to {header[key]!r}; "
                f"this model supports only {value!r}"
            )
    try:
        kw = {name: header[config_key(name)] for name in _HEADER_FIELDS}
        cfg = ModelConfig(**dict(kw, kernel_sizes=tuple(kw["kernel_sizes"])))
        shapes = _tensor_shapes(cfg, header["vocab_size"], header["n_labels"])
    except KeyError as exc:
        raise DataFormatError(f"{path}: checkpoint lacks {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: invalid checkpoint header: {exc}") from exc
    for name, shape in shapes.items():
        if name not in arrays:
            raise DataFormatError(f"{path}: checkpoint lacks {name!r}")
        if arrays[name].shape != shape:
            raise DataFormatError(
                f"{path}: tensor {name} has shape {list(arrays[name].shape)}, "
                f"the header's config needs {list(shape)}"
            )
    if list(arrays) != list(shapes):
        raise DataFormatError(f"{path}: checkpoint tensors {list(arrays)} are not the "
                              f"table's {list(shapes)}, in its order")
    dtypes = {a.dtype for a in arrays.values()}
    if len(dtypes) != 1:
        raise DataFormatError(f"{path}: checkpoint tensors must share one dtype, not "
                              f"{sorted(map(str, dtypes))}")
    return ModelParams(cfg, len(arrays["W_e"]), len(arrays["V"]),
                       payload.view(dtypes.pop())), header
