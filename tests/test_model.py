import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from mvclda import model, train
from mvclda.corpus import (DataFormatError, EncodedDocument, read_tensor_file,
                           write_tensor_file)

from oracles import (
    brute_conv,
    dense_gradient,
    dense_gradients,
    fd_gradcheck,
    multi_view_max,
    multi_view_max_backward,
    per_label_regularizer,
    random_table,
    reference_loss,
    two_branch_sigmoid,
)

CHUNK = model.CONV_CHUNK


def assert_rel_close(actual, expected, rel=1e-12):
    # relative to the largest reference entry: a reordered sum that cancels
    # to near zero differs from the reference in its last bits, not by rel
    scale = np.max(np.abs(expected), initial=0.0)
    assert np.max(np.abs(actual - expected), initial=0.0) <= rel * scale


def small_params(kind="mvc-lda", seed=0, vocab=20, labels=3, d_e=5, d_c=4,
                 kernels=(1, 3), **cfg_kwargs):
    cfg = model.ModelConfig(
        kind=kind, kernel_sizes=kernels, n_filters=d_c, embed_dim=d_e, **cfg_kwargs
    )
    rng = np.random.default_rng(seed)
    return model.init_params(cfg, vocab, labels, rng, random_table(rng, vocab, d_e),
                             dtype=np.float64)


def params_over(X, weights, labels=1):
    """Parameters whose embedding table is X and whose convolution kernels
    are `weights` (ascending in size), so the document of ids
    0..len(X)-1 embeds to X on the live path."""
    d_e, d_c = X.shape[1], weights[0].shape[2]
    cfg = model.ModelConfig(kernel_sizes=tuple(w.shape[0] for w in weights),
                            n_filters=d_c, embed_dim=d_e)
    rng = np.random.default_rng(0)
    # in `_tensor_shapes` order: W_e, the kernels, V, U, b, K, d
    tensors = [X, *weights, rng.normal(size=(labels, d_c)), rng.normal(size=(labels, d_c)),
               np.zeros(3 * labels)]
    return model.ModelParams(cfg, len(X), labels,
                             np.concatenate([np.ravel(t) for t in tensors]).astype(np.float64))


def scatter_reference_backward(ids, W_e, x_scale, W_stack, winner, dM, dW_e, rows):
    """`model._conv_max_backward` with the winners put by `put_along_axis`,
    the input gradient added by a row-wise `np.add.at`, and numpy's own
    handling of the window view in the kernel GEMM."""
    l, d_c = dM.shape
    d_e = W_e.shape[1]
    s, n = W_stack.shape[0] // d_e, W_stack.shape[1] // d_c
    for r0 in range(0, l, CHUNK):
        r1 = min(r0 + CHUNK, l)
        dZ = np.zeros((r1 - r0, n, d_c), dM.dtype)
        np.put_along_axis(dZ, winner[r0:r1, None], dM[r0:r1, None], axis=1)
        dZ = dZ.reshape(r1 - r0, n * d_c)
        dwin = dZ @ W_stack.T
        dXb = np.zeros((r1 - r0 + s - 1, d_e), dM.dtype)
        if r0:
            dXb[: s - 1] = carry
        for a in range(s):
            dXb[a : a + r1 - r0] += dwin[:, a * d_e : (a + 1) * d_e]
        done = r1 - r0 if r1 < l else len(dXb)
        carry = dXb[done:]
        lo, hi = max(r0 - s // 2, 0), min(r0 + done - s // 2, l)
        dX = dXb[lo - r0 + s // 2 : hi - r0 + s // 2]
        if x_scale is not None:
            dX *= x_scale[lo:hi, None]
        np.add.at(dW_e, np.searchsorted(rows, ids[lo:hi]), dX)
        win = model._windows(model._input_block(ids, W_e, x_scale, s, r0, r1), s)
        dW = win.T @ dZ if r0 == 0 else dW + win.T @ dZ
    return dW


def halves(params, ids, length=None):
    """The frames C, pooled features P and length feature T of one eval-mode
    note, from the forward halves `_frames` and `_label_side`."""
    ids = np.asarray(ids, dtype=np.int64)
    C, G, _ = model._frames(ids, params, None, model._stack_kernels(params.conv), False)
    P, T, _ = model._label_side(G[None], [len(ids) if length is None else length], params)
    return C, P[0], T[0]


def frames(X, weights):
    """C = tanh(cross-channel max) from `_frames` for a document whose
    embedded rows are X."""
    return halves(params_over(X, weights), np.arange(len(X)))[0]


def pooled(C, V):
    """Pooled features P from `_label_side` for a document whose frames are
    C: embedded rows arctanh(C) under one width-1 identity kernel."""
    d_c = C.shape[1]
    X = np.arctanh(C) if len(C) else np.zeros((1, d_c))
    params = params_over(X, [np.eye(d_c)[None]], labels=len(V))
    params["V"][:] = V
    return halves(params, np.arange(len(C)))[1]


def length_feature(length, K_j, d_j):
    """The length feature T of a one-label model from `_label_side`."""
    params = small_params(labels=1)
    params["K"][:], params["d"][:] = K_j, d_j
    return float(halves(params, [1, 2], length)[2][0])


class TestSigmoid:
    def test_bit_identical_to_two_branch_form(self):
        edge = np.array([0.0, -0.0, 37.0, -37.0, 745.0, -745.0, np.inf, -np.inf, np.nan, -np.nan])
        rng = np.random.default_rng(12)
        for x in [edge, rng.standard_normal(10_000) * 40, rng.uniform(-800, 800, 10_000)]:
            assert np.array_equal(model.sigmoid(x).view(np.uint64),
                                  two_branch_sigmoid(x).view(np.uint64))

    def test_scalar_in_float_out(self):
        assert model.sigmoid(0.0) == 0.5
        assert isinstance(model.sigmoid(-2.0), float)


class TestMultiViewConv:
    """The frames C that `_frames` computes from embedded rows."""

    def test_hand_case_two_channels(self):
        # kernel-1 channel [1] and kernel-3 channel [0.5,0.5,0.5] on [1,2,3]:
        # pre-tanh per position is max([1,2,3],[1.5,3.0,2.5]) = [1.5,3.0,3.0]
        X = np.array([[1.0], [2.0], [3.0]])
        w1 = np.array([[[1.0]]])
        w3 = np.full((3, 1, 1), 0.5)
        C = frames(X, [w1, w3])
        expected = np.tanh([1.5, 3.0, 3.0])
        assert np.allclose(C[:, 0], expected, atol=1e-12)

    def test_all_zero_weights(self):
        X = np.ones((4, 3))
        weights = [np.zeros((s, 3, 2)) for s in (1, 3)]
        assert np.array_equal(frames(X, weights), np.zeros((4, 2)))

    def test_single_channel_equals_plain_convolution(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(9, 4))
        W = rng.normal(size=(5, 4, 3))
        assert np.allclose(frames(X, [W]), np.tanh(brute_conv(X, W)), atol=1e-12)

    @pytest.mark.parametrize("kernels", [(1,), (2,), (3,), (1, 3), (2, 4, 6), (6, 8, 10, 12)])
    def test_output_length_preserved(self, kernels):
        rng = np.random.default_rng(1)
        for l in (1, 2, 5, 13):
            X = rng.normal(size=(l, 3))
            weights = [rng.normal(size=(s, 3, 2)) for s in kernels]
            assert frames(X, weights).shape == (l, 2)

    def test_matches_brute_force_oracle_with_even_kernels(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(7, 3))
        weights = [rng.normal(size=(s, 3, 2)) for s in (2, 4)]
        stacked = np.stack([brute_conv(X, w) for w in weights])
        expected = np.tanh(stacked.max(axis=0))
        assert np.allclose(frames(X, weights), expected, atol=1e-12)

    def test_channel_permutation_invariance(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, 3))
        weights = [rng.normal(size=(s, 3, 2)) for s in (1, 3, 5, 7)]

        def cross_channel_max(ws):
            return model._conv_max(np.arange(len(X)), X, None, model._stack_kernels(ws), 2,
                                   False)[0]

        assert np.allclose(cross_channel_max(weights), cross_channel_max(weights[::-1]),
                           atol=1e-12)

    def test_outputs_strictly_inside_unit_interval(self):
        # float64 tanh saturates to exactly 1.0 above ~19; stay below that
        rng = np.random.default_rng(4)
        X = rng.normal(size=(8, 3))
        weights = [rng.normal(size=(s, 3, 4)) * 0.5 for s in (1, 3)]
        C = frames(X, weights)
        assert np.all(C > -1) and np.all(C < 1)

    def test_dimension_mismatch_rejected(self):
        # kernels over 5 embedding dims cannot convolve 2-dim rows: no
        # parameter table holds them
        with pytest.raises(ValueError):
            params_over(np.ones((3, 2)), [np.ones((1, 5, 2))])


class TestChunkedConv:
    """The stacked, row-chunked convolution against the per-channel one. The
    sequence ids = 0..l-1 over the table X embeds to X, so the input
    gradient is what `_conv_max_backward` adds into a zero table, compact
    on every row of it."""

    @pytest.mark.parametrize("kernels", [(1, 3), (2, 4, 6, 8), (6, 8, 10, 12), (5,)])
    @pytest.mark.parametrize("l", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5])
    def test_matches_per_channel_reference(self, kernels, l):
        rng = np.random.default_rng(l)
        d_e, d_c = 3, 4
        X = rng.normal(size=(l, d_e))
        weights = [rng.normal(size=(s, d_e, d_c)) for s in kernels]
        M_ref, winner_ref = multi_view_max(X, weights)
        ids = np.arange(l)
        W_stack = model._stack_kernels(weights)
        M, winner = model._conv_max(ids, X, None, W_stack, d_c, True)
        assert_rel_close(M, M_ref)
        assert_rel_close(frames(X, weights), np.tanh(M_ref))
        # one channel takes the same path: its winner is all zeros
        assert np.array_equal(winner, winner_ref)

        dM = rng.normal(size=(l, d_c))
        dW_ref, dX_ref = multi_view_max_backward(X, weights, winner_ref, dM)
        dX = np.zeros_like(X)
        dW = model._conv_max_backward(ids, X, None, W_stack, winner, dM, dX, ids)
        assert_rel_close(dX, dX_ref)
        for block, ref in zip(model._channel_blocks(dW, kernels, d_e), dW_ref, strict=True):
            assert_rel_close(block, ref)

    @pytest.mark.parametrize("kernels", [(1, 3), (2, 4, 6, 8), (6, 8, 10, 12), (5,)])
    def test_gapped_sequence_with_dropout_matches_reference(self, kernels):
        # gap rows (one run of them across the first chunk boundary) are
        # rows of id 0 at scale 0: they embed to zero and add zero to their
        # id's gradient; the dropout scale multiplies each row forward and
        # its gradient backward. Ten ids repeat heavily, gap id 0 most
        rng = np.random.default_rng(sum(kernels))
        d_e, d_c, vocab, l = 3, 4, 10, 2 * CHUNK + 5
        table = rng.normal(size=(vocab, d_e))
        weights = [rng.normal(size=(s, d_e, d_c)) for s in kernels]
        ids = rng.integers(0, vocab, l)
        x_scale = (rng.random(l) >= 0.3) / 0.7
        gaps = [0, 7, 8, 9, CHUNK - 2, CHUNK - 1, CHUNK, CHUNK + 1, l - 1]
        ids[gaps] = 0
        x_scale[gaps] = 0.0
        X = table[ids] * x_scale[:, None]
        M_ref, winner_ref = multi_view_max(X, weights)
        W_stack = model._stack_kernels(weights)
        M, winner = model._conv_max(ids, table, x_scale, W_stack, d_c, True)
        assert_rel_close(M, M_ref)
        assert np.array_equal(winner, winner_ref)

        dM = rng.normal(size=(l, d_c))
        dW_ref, dX_ref = multi_view_max_backward(X, weights, winner_ref, dM)
        dtable_ref = np.zeros_like(table)
        np.add.at(dtable_ref, ids, dX_ref * x_scale[:, None])
        dtable = np.zeros_like(table)
        dW = model._conv_max_backward(ids, table, x_scale, W_stack, winner, dM, dtable,
                                      np.arange(vocab))
        assert_rel_close(dtable, dtable_ref)
        for block, ref in zip(model._channel_blocks(dW, kernels, d_e), dW_ref, strict=True):
            assert_rel_close(block, ref)

        # the flat scatters and the contiguous window matrix give the bits
        # of the row-wise scatters on numpy's window view, in either dtype
        for dtype in (np.float64, np.float32):
            args = [a.astype(dtype) for a in (table, x_scale, W_stack)]
            got, want = np.zeros_like(args[0]), np.zeros_like(args[0])
            dW = model._conv_max_backward(ids, *args, winner, dM.astype(dtype), got,
                                          np.arange(vocab))
            dW_want = scatter_reference_backward(ids, *args, winner, dM.astype(dtype), want,
                                                 np.arange(vocab))
            assert got.tobytes() == want.tobytes() and dW.tobytes() == dW_want.tobytes()

    @pytest.mark.parametrize("s,l", [(s, l) for s in (1, 2, 5, 12)
                                     for l in sorted({1, s - 1, CHUNK + 1} - {0})])
    def test_windows_are_the_sliding_window_view(self, s, l):
        d_e = 3
        Xp = np.random.default_rng(s * 1000 + l).normal(size=(l + s - 1, d_e))
        win = model._windows(Xp, s)
        assert win.shape == (l, s * d_e)
        ref = np.lib.stride_tricks.sliding_window_view(Xp, s, axis=0).transpose(0, 2, 1)
        ref = ref.reshape(l, -1)
        assert np.array_equal(win.copy().view(np.uint64), ref.copy().view(np.uint64))
        assert np.shares_memory(win, Xp)

    def test_tied_channels_send_the_gradient_to_the_lower_index(self):
        rng = np.random.default_rng(40)
        l, d_e, d_c = 2 * CHUNK + 5, 3, 4
        X = rng.normal(size=(l, d_e))
        w1, w3 = rng.normal(size=(1, d_e, d_c)), rng.normal(size=(3, d_e, d_c))
        weights = [w1, w3, w3.copy()]  # channels 1 and 2 tie at every position
        ids, W_stack = np.arange(l), model._stack_kernels(weights)
        _, winner = model._conv_max(ids, X, None, W_stack, d_c, True)
        assert np.array_equal(winner, multi_view_max(X, weights)[1])
        assert np.any(winner == 1) and not np.any(winner == 2)
        dW = model._conv_max_backward(ids, X, None, W_stack, winner,
                                      rng.normal(size=(l, d_c)), np.zeros_like(X), ids)
        blocks = model._channel_blocks(dW, (1, 3, 3), d_e)
        assert np.array_equal(blocks[2], np.zeros_like(w3))
        assert not np.allclose(blocks[1], 0.0)

    def test_winners_past_256_channels(self):
        # 300 width-1 channels need uint16 winners, whose update must not
        # read a bool mask as uint16 (that halves each row). Channel 262
        # copies 60 and 290 copies 270, so each tie, one of them past 255,
        # goes to the lower channel
        rng = np.random.default_rng(300)
        l, d_e, d_c = CHUNK + 5, 3, 4
        X = rng.normal(size=(l, d_e))
        weights = [rng.normal(size=(1, d_e, d_c)) for _ in range(300)]
        weights[262], weights[290] = weights[60].copy(), weights[270].copy()
        ids, W_stack = np.arange(l), model._stack_kernels(weights)
        _, winner = model._conv_max(ids, X, None, W_stack, d_c, True)
        assert winner.dtype == np.uint16
        assert np.array_equal(winner, multi_view_max(X, weights)[1])
        assert np.any(winner == 60) and np.any(winner == 270)
        assert not np.any(np.isin(winner, (262, 290)))

        dM = rng.normal(size=(l, d_c))
        for dtype in (np.float64, np.float32):
            X_d, W_d, dM_d = X.astype(dtype), W_stack.astype(dtype), dM.astype(dtype)
            got, want = np.zeros_like(X_d), np.zeros_like(X_d)
            dW = model._conv_max_backward(ids, X_d, None, W_d, winner, dM_d, got, ids)
            dW_want = scatter_reference_backward(ids, X_d, None, W_d, winner, dM_d, want, ids)
            assert got.tobytes() == want.tobytes() and dW.tobytes() == dW_want.tobytes()


class TestMemoryPerToken:
    """One training step and inference hold no l x d_e float64 array: their
    traced peak grows by less than 8 * d_e bytes per extra token, with
    d_e much larger than d_c. Nor does a training step hold a V x d_e one
    beside the parameters and Adam's moments."""

    D_E, D_C, LABELS = 64, 4, 3

    @staticmethod
    def peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def growth_per_token(self, run):
        """Peak growth per token of `run(params, ids, masks)` from a note of
        4 * CHUNK tokens to one of 8 * CHUNK, the inputs made untraced."""
        params = small_params(seed=42, vocab=50, labels=self.LABELS, d_e=self.D_E,
                              d_c=self.D_C, kernels=(6, 8, 10, 12))
        peaks = []
        for l in (4 * CHUNK, 8 * CHUNK):
            rng = np.random.default_rng(l)
            ids = rng.integers(0, 50, l)
            masks = model.make_dropout_masks(rng, l, self.LABELS, self.D_C, 0.2)
            peaks.append(self.peak(lambda: run(params, ids, masks)))
        return (peaks[1] - peaks[0]) / (4 * CHUNK)

    def test_backward(self):
        gold = np.array([0, 2])
        growth = self.growth_per_token(
            lambda params, ids, masks: model.backward([(ids, len(ids), gold, masks)], params,
                                                      None))
        assert growth < 8 * self.D_E

    def test_predict_matrix(self):
        growth = self.growth_per_token(lambda params, ids, masks: model.predict_matrix(
            params, [EncodedDocument(ids, np.zeros(0, np.int64))]))
        assert growth < 8 * self.D_E

    def test_backward_and_adam_step_per_vocabulary_row(self):
        # a dense W_e gradient and a whole-tensor Adam scratch once grew the
        # peak by 16 * d_e bytes per vocabulary row
        gold = np.array([0, 2])
        peaks = []
        for vocab in (10_000, 40_000):
            params = small_params(seed=43, vocab=vocab, labels=self.LABELS, d_e=self.D_E,
                                  d_c=self.D_C, kernels=(6, 8, 10, 12))
            state = train.AdamState.for_params(params)
            rng = np.random.default_rng(vocab)
            ids = rng.integers(0, vocab, 2 * CHUNK)
            masks = model.make_dropout_masks(rng, len(ids), self.LABELS, self.D_C, 0.2)

            def step():
                _, grads = model.backward([(ids, len(ids), gold, masks)], params, None)
                train.adam_step(params, grads, state, train.TrainConfig())

            peaks.append(self.peak(step))
        assert (peaks[1] - peaks[0]) / 30_000 < 8 * self.D_E


def assert_laid_out(flat, tensors, shapes):
    """The (name, array) pairs `tensors` are C-contiguous views of the 1-D
    buffer `flat`, in `shapes`' order and shapes, laid end to end over all
    of it."""
    assert [(name, arr.shape) for name, arr in tensors] == list(shapes.items())
    address, offset = flat.__array_interface__["data"][0], 0
    for name, arr in tensors:
        assert arr.dtype == flat.dtype and arr.flags.c_contiguous, name
        assert np.shares_memory(arr, flat), name
        assert arr.__array_interface__["data"][0] == address + offset * flat.itemsize, name
        offset += arr.size
    assert offset == flat.size


class TestTables:
    """The parameters, the gradients and each of Adam's moments are one
    flat buffer each, every tensor a view of it in `_tensor_shapes`
    order."""

    CFG = model.ModelConfig(kind="mvc-rlda", kernel_sizes=(2, 4), n_filters=4, embed_dim=5,
                            lambda_=0.05)

    def test_every_table_is_one_buffer_in_table_order(self, tmp_path):
        rng = np.random.default_rng(60)
        params = model.init_params(self.CFG, 40, 3, rng, random_table(rng, 40, 5))
        shapes = model._tensor_shapes(self.CFG, 40, 3)
        path = tmp_path / "ckpt"
        model.save_checkpoint(path, params, vocab_checksum="x")
        loaded, _ = model.load_checkpoint(path)
        state = train.AdamState.for_params(params)
        for table in (params, loaded, params.copy(), state.m, state.v):
            assert_laid_out(table.flat, table.tensors(), shapes)
        desc = [rng.integers(0, 40, 3) for _ in range(3)]
        ids = rng.integers(0, 40, 9)
        _, grads = model.backward([(ids, 9, np.array([0, 2]), None)], params, desc)
        # one table over the touched rows (the gold labels' descriptions
        # too), W_e's compact gradient at its head
        assert np.array_equal(grads.rows, np.unique(np.concatenate([ids, desc[0], desc[2], [0]])))
        assert_laid_out(grads.flat, grads.data.items(),
                        model._tensor_shapes(self.CFG, len(grads.rows), 3))
        # so the gradients after W_e line up with the parameters' after W_e
        assert grads.flat.size - grads["W_e"].size == params.flat.size - params["W_e"].size

    def test_copies_are_independent_buffers(self):
        rng = np.random.default_rng(61)
        params = model.init_params(self.CFG, 40, 3, rng, random_table(rng, 40, 5))
        copy = params.copy()
        assert not np.shares_memory(copy.flat, params.flat)
        before = copy.flat.copy()
        params.flat += 1.0
        assert np.array_equal(copy.flat, before)

    def test_check_finite_names_a_compact_w_e(self):
        rng = np.random.default_rng(62)
        params = model.init_params(self.CFG, 40, 3, rng, random_table(rng, 40, 5))
        _, grads = model.backward([(rng.integers(0, 40, 9), 9, np.array([1]), None)], params,
                                  [rng.integers(0, 40, 3) for _ in range(3)])
        grads.check_finite()
        grads["W_e"][1, 2] = np.inf
        grads["b"][0] = np.nan  # a later tensor of the table
        with pytest.raises(FloatingPointError, match="'W_e'"):
            grads.check_finite()

    def test_gradient_buffer_acts_on_its_one_buffer(self):
        rng = np.random.default_rng(63)
        params = model.init_params(self.CFG, 40, 3, rng, random_table(rng, 40, 5))
        rows = np.array([0, 5, 39])
        grads = model.GradientSet.zeros_like(params, rows)
        assert grads.flat.dtype == params.dtype and grads["W_e"].shape == (3, 5)
        grads.flat[:] = np.arange(grads.flat.size)
        other = model.GradientSet.zeros_like(params, rows)
        other.flat[:] = 1.0
        grads.add_(other)
        grads.scale_(0.5)
        assert np.array_equal(grads.flat, (np.arange(grads.flat.size) + 1.0) / 2)
        for name, arr in grads.data.items():
            assert np.shares_memory(arr, grads.flat), name
        # gradients over other rows are not laid out alike
        with pytest.raises(ValueError, match="other W_e rows"):
            grads.add_(model.GradientSet.zeros_like(params, np.array([0, 5, 38])))


class TestAttentionPool:
    """The pooled features P = C^T (C V_j) that `_label_side` computes."""

    def test_hand_case(self):
        # C = 0.5 I, V_j = [1, 2]: C V_j = [0.5, 1], C^T of that = [0.25, 0.5]
        C = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert np.allclose(pooled(C, [[1.0, 2.0]]), [[0.25, 0.5]], atol=1e-12)

    def test_zero_attention_weight(self):
        C = np.tanh(np.random.default_rng(5).normal(size=(4, 3)))
        assert np.array_equal(pooled(C, np.zeros((1, 3))), np.zeros((1, 3)))

    def test_single_nonzero_row(self):
        C = np.zeros((5, 3))
        row = np.array([0.5, -0.9, 0.2])
        C[2] = row
        v = np.array([1.0, 2.0, 0.5])
        expected = row * float(row @ v)
        assert np.allclose(pooled(C, [v]), [expected], atol=1e-12)

    def test_linear_in_attention_weights(self):
        rng = np.random.default_rng(6)
        C = np.tanh(rng.normal(size=(5, 4)))
        v1, v2 = rng.normal(size=4), rng.normal(size=4)
        P = pooled(C, [v1, v2, 2.0 * v1 - 0.5 * v2])
        assert np.allclose(P[2], 2.0 * P[0] - 0.5 * P[1], atol=1e-10)

    def test_empty_frames_pool_to_zero(self):
        P = pooled(np.zeros((0, 3)), [[1.0, -2.0, 0.5]])
        assert np.array_equal(P, np.zeros((1, 3)))


class TestLengthEmbed:
    """The length feature T = sigmoid(K l / 10000 + d) in the cache."""

    def test_zero_weights_give_half(self):
        for l in (0, 10, 10_000, 123_456):
            assert length_feature(l, 0.0, 0.0) == 0.5

    def test_hand_sigmoid_value(self):
        # scaled length 0.5 -> sigmoid(0.5)
        assert length_feature(5000, 1.0, 0.0) == pytest.approx(
            1.0 / (1.0 + math.exp(-0.5)), abs=1e-12
        )
        assert length_feature(5000, 1.0, 0.0) == pytest.approx(0.62246, abs=5e-6)

    def test_strictly_increasing_for_positive_weight(self):
        values = [length_feature(l, 2.0, -0.3) for l in range(0, 30_000, 1000)]
        assert all(b > a for a, b in zip(values, values[1:]))


def predict_one(ids, length, params):
    """`model.predict_matrix`'s row for one note of `ids` (of length
    len(ids)), called as `model.forward` is."""
    assert length == len(ids)
    return model.predict_matrix(params, [EncodedDocument(np.asarray(ids), np.zeros(0))])[0]


SCORERS = [model.forward, predict_one]


class TestForward:
    def test_all_zero_weights_output(self):
        params = small_params()
        for name, arr in params.tensors():
            arr[:] = 0.0
        y = model.forward([1, 2, 3], 3, params)
        assert np.allclose(y, 1.0 / (1.0 + math.exp(-0.5)), atol=1e-12)

    def test_eval_mode_deterministic(self):
        params = small_params(seed=7)
        a = model.forward([1, 2, 3, 4], 4, params)
        b = model.forward([1, 2, 3, 4], 4, params)
        assert np.array_equal(a, b)

    def test_outputs_in_open_unit_interval(self):
        params = small_params(seed=8)
        y = model.forward([0, 5, 9], 3, params)
        assert np.all(y > 0) and np.all(y < 1)

    def test_rlda_forward_equals_lda_with_same_shared_params(self):
        rlda = small_params(kind="mvc-rlda", seed=9)
        lda = small_params(kind="mvc-lda", seed=9)
        for (_, src), (_, dst) in zip(lda.tensors(), rlda.tensors()):
            dst[:] = src
        ids = [3, 1, 4, 1, 5]
        assert np.array_equal(
            model.forward(ids, 5, rlda), model.forward(ids, 5, lda)
        )

    def test_zero_length_document_scores_bias_plus_length(self):
        params = small_params(seed=29)
        params["b"][:] = [0.5, -1.0, 2.0]
        params["K"][:] = 3.0
        params["d"][:] = [0.1, 0.2, -0.3]
        T = model.sigmoid(params["K"] * (7 / model.LENGTH_SCALE) + params["d"])
        assert np.array_equal(model.forward([], 7, params), model.sigmoid(params["b"] + T))
        no_length = small_params(seed=29, use_length=False)
        assert np.array_equal(model.forward([], 0, no_length), model.sigmoid(no_length["b"]))

    def test_gram_form_matches_per_label_attention_pool(self):
        rng = np.random.default_rng(30)
        params = small_params(seed=30, labels=6, kernels=(2, 4, 6))
        params["K"][:] = rng.normal(size=6)
        ids = rng.integers(0, 20, 9)
        C = np.tanh(multi_view_max(params["W_e"][ids], params.conv)[0])
        P = np.stack([C.T @ (C @ v) for v in params["V"]])
        T = two_branch_sigmoid(params["K"] * (9 / model.LENGTH_SCALE) + params["d"])
        y = two_branch_sigmoid(np.sum(params["U"] * P, axis=1) + params["b"] + T)
        assert np.allclose(halves(params, ids)[1], P, rtol=1e-12, atol=0.0)
        assert np.allclose(model.forward(ids, 9, params), y, rtol=1e-12, atol=0.0)

    def test_eval_peak_allocation_bounded_on_a_long_note(self):
        # paper dimensions, 20,000 tokens: the transients are per row chunk,
        # so the peak is one l x d_c array (~14 MB) and chunk-sized
        # transients, where the unchunked per-channel convolution reached
        # 139 MB
        rng = np.random.default_rng(32)
        cfg = model.ModelConfig()
        params = model.init_params(cfg, 500, 48, rng, random_table(rng, 500, cfg.embed_dim))
        ids = rng.integers(0, 500, 20_000)
        tracemalloc.start()
        try:
            model.forward(ids, len(ids), params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_predict_matrix_equals_per_document_forward(self):
        # 512 labels over three channels: a block holds three notes, so the
        # 13 notes span five blocks, the last of one note. They include
        # empty notes, notes of 1-5 tokens (the row counts at which a
        # GEMM row's bits can depend on the GEMM's row count) and a note
        # longer than CONV_CHUNK
        assert model.CONV_CHUNK * 3 // 512 == 3
        rng = np.random.default_rng(13)
        docs = [EncodedDocument(rng.integers(0, 20, n).astype(np.int32), np.zeros(0, np.int64))
                for n in (4, 0, 30, 1, 2, 3, 0, 5, CHUNK + 37, 1, 17, 4, 2)]
        for kind, dtype, use_length in itertools.product(model.MODEL_KINDS,
                                                         (np.float32, np.float64), (True, False)):
            cfg = model.ModelConfig(kind=kind, kernel_sizes=(2, 4, 6), n_filters=4, embed_dim=5,
                                    use_length=use_length)
            params = model.init_params(cfg, 20, 512, rng, random_table(rng, 20, 5), dtype=dtype)
            for name in ("b", "K", "d"):
                params[name][...] = rng.normal(size=512)
            scores = model.predict_matrix(params, docs)
            assert scores.dtype == dtype and scores.shape == (len(docs), 512)
            for row, doc in zip(scores, docs):
                assert np.array_equal(row, model.forward(doc.token_ids, doc.length, params))

    def test_int32_ids_are_used_as_given(self, monkeypatch):
        # ids only index: an int32 note is neither cast nor copied, int32
        # descriptions pack into an int32 sequence, and both give the bits
        # of the same ids as int64
        params = small_params(kind="mvc-rlda", seed=16)
        ids = np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=np.int32)
        seen, conv_max = [], model._conv_max

        def spy(conv_ids, *args):
            seen.append(conv_ids)
            return conv_max(conv_ids, *args)

        desc = [ids[:3], ids[4:], ids[2:7]]
        monkeypatch.setattr(model, "_conv_max", spy)
        y = model.forward(ids, len(ids), params)
        # training's forward pass; no gold label, so no description is encoded
        model.backward([(ids, len(ids), np.zeros(0, np.int64), None)], params, desc)
        assert len(seen) == 2 and all(np.shares_memory(s, ids) for s in seen)
        y64 = model.forward(ids.astype(np.int64), len(ids), params)
        assert np.array_equal(y.view(np.uint64), y64.view(np.uint64))
        batch = model.DescriptionBatch(params, desc, [0, 2])
        batch64 = model.DescriptionBatch(params, [d.astype(np.int64) for d in desc], [0, 2])
        assert batch.seq.dtype == np.int32
        assert np.array_equal(batch.seq, batch64.seq)
        assert np.array_equal(batch.F.view(np.uint64), batch64.F.view(np.uint64))

    def test_out_of_range_token_rejected(self):
        for score, ids in itertools.product(SCORERS, ([99], [-2], [3, 20])):
            with pytest.raises(ValueError, match="out of range"):
                score(ids, len(ids), small_params())
        # backward marks its batch's ids as W_e's gradient rows before the
        # forward pass checks them
        for ids in ([99], [-2]):
            with pytest.raises(ValueError, match="out of range"):
                model.backward([(ids, 1, np.zeros(0, np.int64), None)], small_params(), None)

    def test_non_finite_output_raises(self):
        params = small_params(seed=9)
        params["b"][1] = np.nan
        for score in SCORERS:
            with pytest.raises(FloatingPointError, match="non-finite model output"):
                score([1, 2, 3], 3, params)

    def test_length_feature_uses_given_length_not_ids(self):
        params = small_params(seed=10)
        params["K"][:] = 3.0
        short = model.forward([1, 2], 2, params)
        long = model.forward([1, 2], 20_000, params)
        assert not np.allclose(short, long)

    def test_dropout_masks_change_output_and_eval_does_not(self):
        params = small_params(seed=11)
        ids = [1, 2, 3, 4, 5, 6]
        masks = model.make_dropout_masks(np.random.default_rng(0), 6, 3, 4, 0.5)
        with_do = model.forward(ids, 6, params, masks=masks)
        without = model.forward(ids, 6, params)
        assert not np.allclose(with_do, without)


class TestEncodeDescription:
    """f(D), the description encoding `backward` regularizes V toward."""

    @staticmethod
    def encode(ids, params):
        return model.DescriptionBatch(params, [ids], [0]).F[0]

    def test_kernel_read_in_place(self):
        # one channel's stacked kernel is desc_conv itself, reshaped
        params = small_params(kind="mvc-rlda", seed=65)
        batch = model.DescriptionBatch(params, [np.array([1, 2, 3])], [0])
        assert np.shares_memory(batch.W, params["desc_conv"])

    def test_zero_dense_layer_gives_half(self):
        params = small_params(kind="mvc-rlda", seed=12)
        params["desc_W"][:] = 0.0
        params["desc_b"][:] = 0.0
        assert np.allclose(self.encode([1, 2, 3], params), 0.5, atol=1e-12)

    def test_description_shorter_than_kernel(self):
        params = small_params(kind="mvc-rlda", seed=13, kernels=(1, 3))
        f = self.encode([4], params)
        assert f.shape == (4,)
        assert np.all((f > 0) & (f < 1))

    def test_output_range(self):
        params = small_params(kind="mvc-rlda", seed=14)
        f = self.encode([0, 1, 2, 3, 4, 5], params)
        assert np.all((f > 0) & (f < 1))

    def test_empty_description_rejected(self):
        params = small_params(kind="mvc-rlda", seed=15)
        with pytest.raises(ValueError):
            self.encode([], params)


def per_label_reference(samples, params, desc):
    """Summed loss and gradients of `samples` ((ids, gold, masks) triples):
    the regularizer from the per-gold-label oracle, the rest from `backward`
    at lambda = 0."""
    bare = dataclasses.replace(params, config=dataclasses.replace(params.config, lambda_=0.0))
    loss, grads = model.backward(batch_of(samples), bare, None)
    dense = dense_gradients(grads, params)
    for _, gold, _ in samples:
        loss += per_label_regularizer(gold, params, desc, dense)
    return loss, dense


def batch_of(samples):
    """`backward`'s (token_ids, length, gold ids, masks) tuples of (ids,
    gold row, masks) triples, each document's length its token count."""
    return [(ids, len(ids), np.flatnonzero(gold), masks) for ids, gold, masks in samples]


def batch_path(samples, params, desc):
    """Summed loss and gradients of `samples` through one `backward` call."""
    return model.backward(batch_of(samples), params, desc)


class TestDescriptionBatch:
    """The packed once-per-batch description encoder against the per-label
    loop, for every gradient tensor and the loss."""

    J, VOCAB = 6, 20

    def batch(self, kernels, **cfg):
        rng = np.random.default_rng(sum(kernels))
        params = small_params(kind="mvc-rlda", seed=len(kernels), vocab=self.VOCAB,
                              labels=self.J, kernels=kernels, lambda_=0.05, **cfg)
        # label 1: one token, shorter than the description kernel (s_max);
        # label 2: one repeated id, so interior windows tie in the spatial max
        desc = [rng.integers(0, self.VOCAB, int(rng.integers(2, 7))) for _ in range(self.J)]
        desc[1], desc[2] = np.array([3]), np.full(12, 7)
        golds = [[1, 1, 1, 0, 0, 0], [1, 1, 1, 0, 0, 0], [1, 0, 0, 1, 1, 0], [1, 0, 1, 0, 0, 1]]
        samples = []
        for i, gold in enumerate(golds):  # samples 0 and 1 share a gold set; label 0 is in all
            n = (5, 1, 12, 30)[i]
            masks = model.make_dropout_masks(rng, n, self.J, 4, 0.2) if i % 2 else None
            samples.append((rng.integers(0, self.VOCAB, n), np.array(gold, float), masks))
        return samples, params, desc

    def assert_matches_reference(self, samples, params, desc):
        loss_ref, ref = per_label_reference(samples, params, desc)
        loss, grads = batch_path(samples, params, desc)
        assert loss == pytest.approx(loss_ref, rel=1e-12, abs=0.0)
        for name, arr in ref.items():
            assert_rel_close(dense_gradient(grads, name, arr.shape), arr)
        return grads

    @pytest.mark.parametrize("kernels", [(1, 3), (2, 4, 6, 8), (5,)])
    def test_batch_matches_per_label_loop(self, kernels):
        samples, params, desc = self.batch(kernels)
        grads = self.assert_matches_reference(samples, params, desc)
        for name in ("W_e", "desc_conv", "desc_W", "desc_b"):
            assert np.any(grads[name]), name

    @pytest.mark.parametrize("kernels", [(2, 4, 6, 8), (5,)])
    def test_packed_sequence_across_conv_chunks(self, kernels):
        # descriptions of ~CHUNK/4 tokens: the packed sequence of the batch's
        # six gold labels crosses a CONV_CHUNK boundary
        samples, params, desc = self.batch(kernels)
        rng = np.random.default_rng(41)
        desc = [rng.integers(0, self.VOCAB, CHUNK // 4 + 7 * j) for j in range(self.J)]
        assert len(model.DescriptionBatch(params, desc, range(self.J)).seq) > CHUNK
        self.assert_matches_reference(samples, params, desc)

    @pytest.mark.parametrize("kernels", [(1, 3), (2, 4, 6, 8), (5,)])
    def test_batch_of_one_matches_per_label_loop(self, kernels):
        samples, params, desc = self.batch(kernels)
        for ids, gold, masks in samples:
            loss_ref, ref = per_label_reference([(ids, gold, masks)], params, desc)
            loss, grads = model.backward(batch_of([(ids, gold, masks)]), params, desc)
            assert loss == pytest.approx(loss_ref, rel=1e-12, abs=0.0)
            for name, arr in ref.items():
                assert_rel_close(dense_gradient(grads, name, arr.shape), arr)

    def test_lambda_zero_builds_no_batch(self, monkeypatch):
        samples, params, desc = self.batch((1, 3))
        params = dataclasses.replace(
            params, config=dataclasses.replace(params.config, lambda_=0.0))

        def no_batch(*args, **kwargs):
            raise AssertionError("a description batch was built at lambda = 0")

        monkeypatch.setattr(model, "DescriptionBatch", no_batch)
        golds = [np.flatnonzero(gold) for _, gold, _ in samples]
        assert model.description_batch(params, desc, golds) is None
        model.backward(batch_of(samples), params, desc)


class TestLosses:
    def test_half_prediction_positive_label(self):
        assert model.loss_mvc_lda(np.array([0.5]), np.array([1.0])) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_matching_prediction_loss_vanishes(self):
        y = np.array([1.0 - 1e-9, 1e-9])
        g = np.array([1.0, 0.0])
        assert model.loss_mvc_lda(y, g) < 1e-8

    def test_sum_over_labels(self):
        y = np.array([0.5, 0.5])
        g = np.array([1.0, 0.0])
        assert model.loss_mvc_lda(y, g) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_extreme_outputs_clamped_not_nan(self):
        loss = model.loss_mvc_lda(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert math.isfinite(loss)

    # the mvc-rlda loss is the one `backward` returns; its BCE part is
    # loss_mvc_lda of `forward`
    IDS = [3, 1, 4, 1, 5]

    def rlda_and_lda_loss(self, params, g, desc):
        loss, _ = model.backward([(self.IDS, 5, np.flatnonzero(g), None)], params, desc)
        return loss, model.loss_mvc_lda(model.forward(self.IDS, 5, params), g)

    def test_rlda_reduces_to_lda_when_gold_empty(self):
        params = small_params(kind="mvc-rlda", seed=16, lambda_=0.01)
        desc = [np.array([1, 2]), np.array([3]), np.array([4, 5])]
        rlda, lda = self.rlda_and_lda_loss(params, np.zeros(3), desc)
        assert rlda == lda
        # a batch whose samples have no gold label encodes no description
        assert model.description_batch(params, desc, [np.zeros(0, np.int64)] * 2) is None

    def test_rlda_regularizer_zero_when_attention_matches_encoding(self):
        params = small_params(kind="mvc-rlda", seed=17, lambda_=0.5)
        desc = [np.array([1, 2]), np.array([3]), np.array([4, 5])]
        params["V"][:] = model.DescriptionBatch(params, desc, range(3)).F
        rlda, lda = self.rlda_and_lda_loss(params, np.ones(3), desc)
        assert rlda == pytest.approx(lda, abs=1e-12)

    def test_rlda_loss_never_below_lda(self):
        rng = np.random.default_rng(18)
        params = small_params(kind="mvc-rlda", seed=18, lambda_=0.02)
        desc = [rng.integers(0, 20, 3) for _ in range(3)]
        for _ in range(10):
            g = (rng.random(3) < 0.5).astype(float)
            rlda, lda = self.rlda_and_lda_loss(params, g, desc)
            assert rlda >= lda - 1e-15


class TestBackward:
    def _desc(self, rng, n_labels, vocab):
        return [rng.integers(0, vocab, int(rng.integers(2, 5))) for _ in range(n_labels)]

    # (use_length, kind, labels, tokens); the ids of the 3-label cases
    # predate the others. use_length=False is the length_embedding
    # ablation's model. 5 labels over 3 tokens has more labels than frames,
    # 0 tokens has no frames at all, and CHUNK + 40 tokens span two row
    # chunks of the convolution.
    FD_CASES = [
        pytest.param(use_length, kind, labels, tokens,
                     id=f"{use_length}-{kind}" + ("" if tokens == 12 else f"-{labels}labels-{tokens}tokens"))
        for labels, tokens in ((3, 12), (5, 3), (3, 0), (3, CHUNK + 40))
        for use_length in (False, True)
        for kind in ("mvc-lda", "mvc-rlda")
    ]

    @pytest.mark.parametrize("use_length,kind,labels,tokens", FD_CASES)
    def test_gradients_match_finite_differences(self, use_length, kind, labels, tokens):
        rng = np.random.default_rng(19)
        params = small_params(
            kind=kind, seed=19, labels=labels, kernels=(1, 3), use_length=use_length,
            lambda_=0.02 if kind == "mvc-rlda" else 0.0,
        )
        ids = rng.integers(0, 20, tokens)
        gold = np.array([1.0, 0.0] * labels)[:labels]
        desc = self._desc(rng, labels, 20) if kind == "mvc-rlda" else None

        def loss_fn():
            return reference_loss(model.forward(ids, 12, params), gold, params, desc)

        loss, grads = model.backward([(ids, 12, np.flatnonzero(gold), None)], params, desc)
        if kind == "mvc-lda":
            assert loss == model.loss_mvc_lda(model.forward(ids, 12, params), gold)
        else:
            assert loss == pytest.approx(loss_fn(), rel=1e-12, abs=0.0)
        fd_gradcheck(params, loss_fn, grads, max_per_tensor=25)

    def test_gradients_with_fixed_dropout_masks(self):
        rng = np.random.default_rng(20)
        params = small_params(kind="mvc-rlda", seed=20, lambda_=0.05)
        ids = rng.integers(0, 20, 10)
        gold = np.array([0.0, 1.0, 1.0])
        desc = self._desc(rng, 3, 20)
        masks = model.make_dropout_masks(np.random.default_rng(1), 10, 3, 4, 0.2)

        def loss_fn():
            return reference_loss(model.forward(ids, 10, params, masks=masks), gold, params, desc)

        _, grads = model.backward([(ids, 10, np.flatnonzero(gold), masks)], params, desc)
        fd_gradcheck(params, loss_fn, grads, max_per_tensor=20)

    def test_stationary_point_gives_zero_gradients(self):
        params = small_params(seed=21, use_length=False)
        for name, arr in params.tensors():
            if name != "W_e":
                arr[:] = 0.0
        # all-zero weights give y = sigmoid(b); biases of +-200 round y to
        # exactly the gold row 1, 0, 1, so the BCE gradient vanishes
        # identically
        params["b"][:] = [200.0, -200.0, 200.0]
        _, grads = model.backward([([1, 2, 3], 3, np.array([0, 2]), None)], params, None)
        for name, arr in grads.data.items():
            assert np.allclose(arr, 0.0, atol=1e-15), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", model.MODEL_KINDS)
    def test_training_forward_is_forward_bit_for_bit(self, kind, dtype):
        # training composes the forward halves itself, so its loss is
        # compared with `forward`'s exactly: with dropout and without, on a
        # whole note, a truncated one (its length past its ids) and an empty
        # one. At lambda = 0 an mvc-rlda loss is the BCE alone
        rng = np.random.default_rng(64)
        cfg = model.ModelConfig(kind=kind, kernel_sizes=(2, 4, 6), n_filters=4, embed_dim=5,
                                lambda_=0.0)
        params = model.init_params(cfg, 20, 3, rng, random_table(rng, 20, 5), dtype=dtype)
        params["K"][:] = rng.normal(size=3)  # a length feature that depends on the length
        gold = np.array([0, 2])
        g = np.zeros(3)
        g[gold] = 1.0
        for n, length in ((9, 9), (9, 40), (0, 7)):
            ids = rng.integers(0, 20, n)
            for masks in (None, model.make_dropout_masks(rng, n, 3, 4, 0.3)):
                loss, _ = model.backward([(ids, length, gold, masks)], params, None)
                assert loss == model.loss_mvc_lda(model.forward(ids, length, params, masks), g)

    def test_cross_channel_max_routes_to_lowest_tied_channel(self):
        params = small_params(seed=22, kernels=(1, 1))
        params.conv[1][:] = params.conv[0]  # exact tie at every position
        _, grads = model.backward([([1, 2, 3, 4], 4, np.array([0, 2]), None)], params, None)
        assert np.allclose(grads["conv1"], 0.0)
        assert not np.allclose(grads["conv0"], 0.0)

    def test_bce_path_active_for_negative_labels(self):
        params = small_params(seed=23)
        _, grads = model.backward([([1, 2, 3], 3, np.zeros(0, np.int64), None)], params, None)
        assert not np.allclose(grads["U"], 0.0)

    @pytest.mark.parametrize("kernels", [(1, 3), (2, 4, 6, 8)])
    def test_compact_w_e_gradient_equals_the_dense_add_at_path(self, kernels, monkeypatch):
        # descriptions packed with gap rows of id 0, dropout on all notes but
        # the last, a zero-length note and one of 2 * CHUNK + 5 tokens,
        # over a vocabulary most of whose rows the batch leaves untouched.
        # The dense path takes each row's additions in the same order, so
        # the compact gradient, laid out at full size, is the dense one
        # bit for bit.
        rng = np.random.default_rng(50 + len(kernels))
        vocab, labels = 3000, 4
        params = small_params(kind="mvc-rlda", seed=50, vocab=vocab, labels=labels,
                              kernels=kernels, lambda_=0.05)
        desc = self._desc(rng, labels, vocab)
        samples = []
        for n, rate in ((7, 0.2), (0, 0.2), (2 * CHUNK + 5, 0.2), (9, 0.0)):
            gold = np.array([0, 2, 3]) if n else np.array([1])
            samples.append((rng.integers(0, vocab, n), n, gold,
                            model.make_dropout_masks(rng, n, labels, 4, rate)))
        _, grads = model.backward(samples, params, desc)
        # the gap rows' id 0 is among the touched rows
        rows = np.unique(np.concatenate([ids for ids, *_ in samples] + desc + [[0]]))
        assert np.array_equal(grads.rows, rows) and len(rows) < vocab
        assert grads["W_e"].shape == (len(rows), 5)

        # with every row of the table as `rows`, a block adds at its ids
        # themselves: the dense V x d_e path
        dense = np.zeros_like(params["W_e"])
        compact_path = model._conv_max_backward

        def dense_path(ids, W_e, x_scale, W_stack, winner, dM, dW_e, rows):
            return compact_path(ids, W_e, x_scale, W_stack, winner, dM, dense, np.arange(vocab))

        monkeypatch.setattr(model, "_conv_max_backward", dense_path)
        _, ref = model.backward(samples, params, desc)
        full = dense_gradient(grads, "W_e", dense.shape)
        assert np.array_equal(full.view(np.uint64), dense.view(np.uint64))
        for name, arr in ref.data.items():
            if name != "W_e":
                assert np.array_equal(grads[name].view(np.uint64), arr.view(np.uint64)), name

    def test_batch_buffer_equals_sum_of_sample_gradients(self):
        rng = np.random.default_rng(31)
        params = small_params(kind="mvc-rlda", seed=31, lambda_=0.05)
        desc = self._desc(rng, 3, 20)
        samples = []
        for n in (7, 3, 11):
            ids, gold = rng.integers(0, 20, n), np.flatnonzero(rng.random(3) < 0.5)
            masks = model.make_dropout_masks(np.random.default_rng(n), n, 3, 4, 0.2)
            samples.append((ids, n, gold, masks))
        total = model.GradientSet.zeros_like(params, np.arange(params.vocab_size))
        total_loss = 0.0
        for sample in samples:
            alone, grads = model.backward([sample], params, desc)
            full = model.GradientSet.zeros_like(params, np.arange(params.vocab_size))
            for name, arr in dense_gradients(grads, params).items():
                full[name] = arr
            total.add_(full)
            total_loss += alone
        # the same samples as one batch, through one description batch
        loss, grads = model.backward(samples, params, desc)
        assert loss == pytest.approx(total_loss, rel=1e-12, abs=0.0)
        for name, arr in total.data.items():
            assert np.allclose(dense_gradient(grads, name, arr.shape), arr, rtol=1e-12,
                               atol=1e-15), name


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        for kind in ("mvc-lda", "mvc-rlda"):
            params = small_params(kind=kind, seed=26, kernels=(2, 4, 6, 8))
            path = tmp_path / f"{kind}.ckpt"
            model.save_checkpoint(path, params, vocab_checksum="ab" * 32)
            loaded, header = model.load_checkpoint(path)
            assert header["vocab_sha256"] == "ab" * 32
            assert loaded.config == params.config
            for (na, a), (nb, b) in zip(params.tensors(), loaded.tensors()):
                assert na == nb
                assert np.array_equal(a, b), na
            second = tmp_path / f"{kind}-again.ckpt"
            model.save_checkpoint(second, loaded, vocab_checksum="ab" * 32)
            assert path.read_bytes() == second.read_bytes()

    def test_load_reads_the_payload_as_the_table(self, tmp_path):
        # the payload is read once, into the buffer the table views; copying
        # it into a second buffer would peak at twice the table's bytes
        cfg = model.ModelConfig(kind="mvc-rlda", kernel_sizes=(2, 4), n_filters=8, embed_dim=16)
        rng = np.random.default_rng(29)
        params = model.init_params(cfg, 20_000, 50, rng, random_table(rng, 20_000, 16))
        path = tmp_path / "ckpt"
        model.save_checkpoint(path, params, vocab_checksum="x")
        tracemalloc.start()
        try:
            loaded, _ = model.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * params.flat.nbytes
        assert loaded.dtype == np.float32 and loaded.flat.tobytes() == params.flat.tobytes()

    def test_layout_is_the_version_1_checkpoint(self, tmp_path):
        # files written before the shared tensor container must still load:
        # a sorted-key JSON header line, then every tensor in tensors() order
        params = small_params(kind="mvc-rlda", seed=27)
        path = tmp_path / "ckpt"
        model.save_checkpoint(path, params, vocab_checksum="x")
        head, _, body = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        assert head.decode() == json.dumps(header, sort_keys=True)
        assert set(header) == {
            "format", "version", "kind", "vocab_size", "embed_dim", "n_filters", "n_labels",
            "kernel_sizes", "lambda", "use_length", "vocab_sha256", "tensors",
        }
        assert (header["format"], header["version"]) == ("mvclda.checkpoint", 1)
        assert header["tensors"] == [[n, list(a.shape)] for n, a in params.tensors()]
        assert body == b"".join(a.astype("<f8").tobytes() for _, a in params.tensors())

    def test_invalid_config_header_rejected(self, tmp_path):
        path = tmp_path / "ckpt"
        model.save_checkpoint(path, small_params(seed=27), vocab_checksum="x")
        head, _, body = path.read_bytes().partition(b"\n")
        # a retired key at another value than the model computes would
        # otherwise load silently as the linear, 10000-scaled model
        for key, value, message in [("kernel_sizes", [3, 1], "ascending"),
                                    ("attention_softmax", True, "'attention_softmax'"),
                                    ("length_scale", 0, "'length_scale'")]:
            header = dict(json.loads(head), **{key: value})
            path.write_bytes(json.dumps(header).encode() + b"\n" + body)
            with pytest.raises(DataFormatError, match=message):
                model.load_checkpoint(path)

    def test_retired_keys_at_their_one_value_load(self, tmp_path):
        # headers written before the keys were retired carry them
        params = small_params(kind="mvc-rlda", seed=27)
        path = tmp_path / "ckpt"
        model.save_checkpoint(path, params, vocab_checksum="x")
        head, _, body = path.read_bytes().partition(b"\n")
        header = dict(json.loads(head), attention_softmax=False, length_scale=10000.0)
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)
        loaded, _ = model.load_checkpoint(path)
        assert loaded.config == params.config
        for (na, a), (nb, b) in zip(params.tensors(), loaded.tensors()):
            assert na == nb
            assert np.array_equal(a, b), na


class TestConfigValidation:
    def test_four_channel_structure_enforced(self):
        with pytest.raises(ValueError):
            model.ModelConfig(kernel_sizes=(2, 4, 6, 9))
        model.ModelConfig(kernel_sizes=(6, 8, 10, 12))

    def test_kernels_must_be_ascending_and_positive(self):
        with pytest.raises(ValueError):
            model.ModelConfig(kernel_sizes=(3, 1))
        with pytest.raises(ValueError):
            model.ModelConfig(kernel_sizes=(0,))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            model.ModelConfig(kind="cnn")

    # the scale is the constant model.LENGTH_SCALE; a checkpoint header
    # that carries another value is refused, as a zero scale once divided by
    # zero in forward
    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_length_scale_must_be_finite_and_positive(self, scale, tmp_path):
        assert math.isfinite(model.LENGTH_SCALE) and model.LENGTH_SCALE > 0
        path = tmp_path / "ckpt"
        model.save_checkpoint(path, small_params(seed=27), vocab_checksum="x")
        head, _, body = path.read_bytes().partition(b"\n")
        header = dict(json.loads(head), length_scale=scale)
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(DataFormatError, match="'length_scale'"):
            model.load_checkpoint(path)

    def test_init_deterministic(self):
        a = small_params(seed=28)
        b = small_params(seed=28)
        for (_, x), (_, y) in zip(a.tensors(), b.tensors()):
            assert np.array_equal(x, y)

    def test_defaults_are_the_selected_full_label_values(self):
        cfg = model.ModelConfig()
        assert cfg.kernel_sizes == (6, 8, 10, 12)
        assert cfg.n_filters == 90
        assert cfg.lambda_ == 0.0005
        assert cfg.embed_dim == 100


class TestFloat32:
    """A float32 parameter set computes in float32 end to end, scores
    included; only the loss is summed in float64."""

    CFG = model.ModelConfig(kind="mvc-rlda", kernel_sizes=(2, 4, 6, 8), n_filters=6,
                            embed_dim=8, lambda_=0.01)
    VOCAB, J = 40, 5

    def batch(self, seed):
        """Float32 parameters from `init_params`' default, the float64 set of
        the same values, descriptions, and a batch of three samples with
        dropout: a short note, one spanning two row chunks, and an empty one."""
        rng, init_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        p32 = model.init_params(self.CFG, self.VOCAB, self.J, init_rng,
                                random_table(init_rng, self.VOCAB, self.CFG.embed_dim))
        p64 = model.ModelParams(self.CFG, self.VOCAB, self.J, p32.flat.astype(np.float64))
        desc = [rng.integers(0, self.VOCAB, int(rng.integers(2, 5))) for _ in range(self.J)]
        samples = []
        for l in (30, CHUNK + 100, 0):
            gold = rng.random(self.J) < 0.5
            gold[0] = True  # keep the regularizer active
            samples.append((rng.integers(0, self.VOCAB, l), l, np.flatnonzero(gold),
                            model.make_dropout_masks(rng, l, self.J, 6, 0.2)))
        return p32, p64, desc, samples

    def test_init_params_casts_the_float64_draws(self):
        rng32, rng64 = np.random.default_rng(3), np.random.default_rng(3)
        d_e = self.CFG.embed_dim
        p32 = model.init_params(self.CFG, self.VOCAB, self.J, rng32,
                                random_table(rng32, self.VOCAB, d_e))
        p64 = model.init_params(self.CFG, self.VOCAB, self.J, rng64,
                                random_table(rng64, self.VOCAB, d_e), dtype=np.float64)
        assert p32.dtype == np.float32 and p64.dtype == np.float64
        for (name, a), (_, b) in zip(p32.tensors(), p64.tensors()):
            assert a.dtype == np.float32, name
            assert np.array_equal(a, b.astype(np.float32)), name

    def test_backward_and_adam_stay_float32(self):
        params, _, desc, samples = self.batch(1)
        state = train.AdamState.for_params(params)
        loss, grads = model.backward(samples, params, desc)
        assert isinstance(loss, float) and math.isfinite(loss)
        for name, g in grads.data.items():
            assert g.dtype == np.float32, name
        train.adam_step(params, grads, state, train.TrainConfig())
        for name, arr in params.tensors():
            assert arr.dtype == np.float32, name
            assert state.m[name].dtype == np.float32, name
            assert state.v[name].dtype == np.float32, name
        ids, length, _, masks = samples[0]
        x_scale, p_scale = masks.scales(params.dtype)
        C, G, _ = model._frames(ids, params, x_scale, model._stack_kernels(params.conv), True)
        P, T, y = model._label_side(G[None], [length], params, p_scale)
        halves = dict(x_scale=x_scale, p_scale=p_scale, C=C, G=G, P=P, T=T, y=y)
        for name, arr in halves.items():
            assert arr.dtype == np.float32, name
        assert model.forward(ids, len(ids), params).dtype == np.float32
        scores = model.predict_matrix(params, [EncodedDocument(ids, np.zeros(0, np.int64))])
        assert scores.dtype == np.float32
        assert np.array_equal(scores[0], model.forward(ids, len(ids), params))

    def test_scores_keep_the_parameters_dtype(self):
        # a float64 set (an older checkpoint) scores in float64
        p32, p64, _, samples = self.batch(2)
        docs = [EncodedDocument(ids, np.zeros(0, np.int64)) for ids, *_ in samples]
        for params in (p32, p64):
            scores = model.predict_matrix(params, docs)
            assert scores.dtype == params.dtype
            for doc, row in zip(docs, scores):
                assert np.array_equal(row, model.forward(doc.token_ids, doc.length, params))

    # float32 rounding of the same arithmetic: at most 1.1e-6 of each
    # tensor's largest float64 entry over 20 seeds, so 1e-5 (about 84
    # float32 ulps of 1) leaves a margin of ~9
    @pytest.mark.parametrize("seed", range(4))
    def test_gradients_agree_with_float64(self, seed):
        p32, p64, desc, samples = self.batch(seed)
        loss32, g32 = model.backward(samples, p32, desc)
        loss64, g64 = model.backward(samples, p64, desc)
        assert loss32 == pytest.approx(loss64, rel=1e-5)
        for name, arr in p32.tensors():
            got, want = (dense_gradient(g, name, arr.shape) for g in (g32, g64))
            assert_rel_close(got, want, rel=1e-5)

    def test_loss_finite_at_a_float32_score_of_one(self):
        # float32 sigmoid reaches exactly 1.0 from a logit of about +17; in
        # float32 the clamp 1 - 1e-12 would round to 1.0 and leave log(0)
        y = model.sigmoid(np.array([17.0, 0.0], dtype=np.float32))
        assert y.dtype == np.float32 and y[0] == 1.0
        loss = model.loss_mvc_lda(y, np.array([0.0, 1.0]))
        assert loss == pytest.approx(-math.log(model.LOSS_CLAMP) + math.log(2), rel=1e-6)

    def test_checkpoint_keeps_each_dtype(self, tmp_path):
        p32, p64, _, _ = self.batch(5)
        for params in (p32, p64):
            path = tmp_path / f"{params.dtype}.ckpt"
            model.save_checkpoint(path, params, vocab_checksum="x")
            loaded, _ = model.load_checkpoint(path)
            for (name, a), (_, b) in zip(params.tensors(), loaded.tensors()):
                assert b.dtype == a.dtype, name
                assert a.tobytes() == b.tobytes(), name

    def test_checkpoint_of_two_dtypes_rejected(self, tmp_path):
        p32, _, _, _ = self.batch(6)
        path = tmp_path / "ckpt"
        model.save_checkpoint(path, p32, vocab_checksum="x")
        header, _, _ = read_tensor_file(path, model.CHECKPOINT_FORMAT,
                                        model.CHECKPOINT_FORMAT_VERSION)
        # no table holds two dtypes, so the mixed file is written tensor by tensor
        write_tensor_file(path, header, [(name, a.astype(np.float64) if name == "V" else a)
                                         for name, a in p32.tensors()])
        with pytest.raises(DataFormatError, match="one dtype"):
            model.load_checkpoint(path)
