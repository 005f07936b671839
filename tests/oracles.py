"""Independent brute-force oracles used to pin expected values.

Everything here is written for clarity, not speed, and deliberately avoids
the library's own code paths.
"""

import math
from collections import Counter

import numpy as np


def cells(gold):
    """The row-major (rows, cols) of a dense gold matrix's nonzero cells:
    the gold form the library's metrics and baselines take."""
    return np.nonzero(np.asarray(gold))


def dense_gold(docs, n_labels):
    """The documents x labels 0/1 matrix of encoded documents' gold ids."""
    gold = np.zeros((len(docs), n_labels))
    for i, doc in enumerate(docs):
        gold[i, doc.gold] = 1.0
    return gold


def brute_conv(X, W):
    """Naive zero-padded 1-d convolution: output length equals input length.

    Even kernels take ceil((s-1)/2) zeros on the left, floor on the right.
    """
    s, d_e, d_c = W.shape
    l = X.shape[0]
    left = s // 2
    right = (s - 1) // 2
    Xp = np.zeros((left + l + right, d_e))
    Xp[left : left + l] = X
    out = np.zeros((l, d_c))
    for n in range(l):
        for k in range(d_c):
            acc = 0.0
            for a in range(s):
                for e in range(d_e):
                    acc += Xp[n + a, e] * W[a, e, k]
            out[n, k] = acc
    return out


def _channel_windows(X, s):
    # X zero-padded with s//2 rows on the left, then one row per output
    # position over (offset, embedding-dim)
    left, right = s // 2, (s - 1) // 2
    Xp = np.concatenate([np.zeros((left, X.shape[1])), X, np.zeros((right, X.shape[1]))])
    win = np.lib.stride_tricks.sliding_window_view(Xp, s, axis=0).transpose(0, 2, 1)
    return Xp, win.reshape(win.shape[0], -1)


def channel_conv(X, W):
    """One channel's length-preserving convolution as one GEMM over its own
    windows: the per-channel path the stacked convolution replaced."""
    s, d_e, d_c = W.shape
    return _channel_windows(X, s)[1] @ W.reshape(s * d_e, d_c)


def channel_conv_backward(X, W, dZ):
    """dW and dX of `channel_conv` for the upstream gradient dZ, with one
    GEMM per kernel offset for dX."""
    s, d_e, d_c = W.shape
    l = X.shape[0]
    Xp, win = _channel_windows(X, s)
    dW = (win.T @ dZ).reshape(s, d_e, d_c)
    dXp = np.zeros_like(Xp)
    for a in range(s):
        dXp[a : a + l] += dZ @ W[a].T
    return dW, dXp[s // 2 : s // 2 + l]


def multi_view_max(X, weights):
    """Cross-channel max of the per-channel convolutions and the lowest
    winning channel index (argmax), from one stacked array of all channels."""
    stack = np.stack([channel_conv(X, w) for w in weights])
    winner = stack.argmax(axis=0)
    return np.take_along_axis(stack, winner[None], axis=0)[0], winner


def multi_view_max_backward(X, weights, winner, dM):
    """Per-channel dW and the summed dX of `multi_view_max`: each channel
    gets dM where it won and zero elsewhere."""
    dWs, dX = [], np.zeros_like(X)
    for i, w in enumerate(weights):
        dW, dX_part = channel_conv_backward(X, w, np.where(winner == i, dM, 0.0))
        dWs.append(dW)
        dX += dX_part
    return dWs, dX


def two_branch_sigmoid(x):
    """Logistic function with one exp per branch: 1/(1+exp(-x)) for x >= 0,
    exp(x)/(1+exp(x)) below; the form `model.sigmoid` replaced."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_loss(y, gold, params, desc_ids_list=None):
    """Per-sample loss from the model outputs `y`: summed binary cross
    entropy (outputs clamped into [1e-12, 1-1e-12]), plus, for mvc-rlda
    parameters, lambda * ||V_j - f(D_j)||^2 over the gold-positive labels.
    f(D) is the description encoder spelled out: embedding rows, the
    `channel_conv` of the description kernel, a spatial max, the dense
    layer and a sigmoid."""
    yc = np.clip(y, 1e-12, 1.0 - 1e-12)
    g = np.asarray(gold, dtype=np.float64)
    loss = float(-np.sum(g * np.log(yc) + (1.0 - g) * np.log(1.0 - yc)))
    if params.config.kind != "mvc-rlda":
        return loss
    for j in np.flatnonzero(g > 0):
        m = channel_conv(params["W_e"][desc_ids_list[j]], params["desc_conv"]).max(axis=0)
        f = 1.0 / (1.0 + np.exp(-(params["desc_W"] @ m + params["desc_b"])))
        diff = params["V"][j] - f
        loss += params.config.lambda_ * float(diff @ diff)
    return loss


def per_label_regularizer(gold, params, desc_ids_list, grads):
    """lambda * sum_j ||V_j - f(D_j)||^2 over the gold-positive labels, with
    its gradient added into `grads` (tensor name -> array). Each label's
    description is encoded on its own, forward and backward, through
    `channel_conv`: the per-gold-label loop that the once-per-batch packed
    encoder replaced."""
    lam = params.config.lambda_
    reg = 0.0
    for j in np.flatnonzero(np.asarray(gold) > 0):
        X = params["W_e"][desc_ids_list[j]]
        Z = channel_conv(X, params["desc_conv"])
        amax = Z.argmax(axis=0)
        cols = np.arange(Z.shape[1])
        m = Z[amax, cols]
        f = two_branch_sigmoid(params["desc_W"] @ m + params["desc_b"])
        diff = params["V"][j] - f
        reg += lam * float(diff @ diff)
        grads["V"][j] += 2.0 * lam * diff
        dpre = -2.0 * lam * diff * f * (1.0 - f)
        grads["desc_W"] += np.outer(dpre, m)
        grads["desc_b"] += dpre
        dZ = np.zeros_like(Z)
        dZ[amax, cols] = params["desc_W"].T @ dpre
        dW, dX = channel_conv_backward(X, params["desc_conv"], dZ)
        grads["desc_conv"] += dW
        np.add.at(grads["W_e"], desc_ids_list[j], dX)
    return reg


def _cbow_noise_cumulative(docs, vocab_size):
    counts = np.zeros(vocab_size, dtype=np.float64)
    for ids in docs:
        if len(ids):
            counts += np.bincount(np.asarray(ids, dtype=np.int64), minlength=vocab_size)
    weights = counts ** 0.75
    return np.cumsum(weights / weights.sum())


def _cbow_centers(ids, window):
    for n in range(len(ids)):
        lo = max(0, n - window)
        ctx = np.concatenate([ids[lo:n], ids[n + 1 : n + 1 + window]])
        if len(ctx):
            yield n, ctx


def per_center_cbow(docs, vocab_size, cfg):
    """CBOW with negative sampling, one center at a time: per center one
    draw of `cfg.negative` noise words, the center's own id filtered out of
    them, and two fancy-index updates. Returns (input, output) tables; the
    loop `embed.train_cbow_tables` replaced."""
    from mvclda.embed import LR_END, LR_START

    docs = [np.asarray(d, dtype=np.int64) for d in docs]
    rng = np.random.default_rng(cfg.seed)
    cum = _cbow_noise_cumulative(docs, vocab_size)
    w_in = (rng.random((vocab_size, cfg.dim)) - 0.5) / cfg.dim
    w_in[-1] = w_in.mean(axis=0)
    w_out = np.zeros((vocab_size, cfg.dim))
    total = cfg.epochs * sum(len(d) for d in docs if len(d) > 1)
    processed = 0
    for _epoch in range(cfg.epochs):
        for ids in docs:
            for n, ctx in _cbow_centers(ids, cfg.window):
                lr = LR_START + (LR_END - LR_START) * (processed / total)
                processed += 1
                center = ids[n]
                h = w_in[ctx].mean(axis=0)
                negatives = np.searchsorted(cum, rng.random(cfg.negative))
                negatives = negatives[negatives != center]
                targets = np.concatenate(([center], negatives))
                labels = np.zeros(len(targets))
                labels[0] = 1.0
                scores = w_out[targets] @ h
                grad = (two_branch_sigmoid(scores) - labels) * lr
                dh = grad @ w_out[targets]
                w_out[targets] -= np.outer(grad, h)
                w_in[ctx] -= dh / len(ctx)
    return w_in, w_out


def per_center_cbow_loss(docs, w_in, w_out, cfg, seed):
    """Mean negative-sampling loss of fixed tables over one pass, one center
    at a time, summed in center order."""
    docs = [np.asarray(d, dtype=np.int64) for d in docs]
    rng = np.random.default_rng(seed)
    cum = _cbow_noise_cumulative(docs, w_in.shape[0])
    total_loss = 0.0
    n_centers = 0
    for ids in docs:
        for n, ctx in _cbow_centers(ids, cfg.window):
            center = ids[n]
            h = w_in[ctx].mean(axis=0)
            negatives = np.searchsorted(cum, rng.random(cfg.negative))
            negatives = negatives[negatives != center]
            pos = float(w_out[center] @ h)
            neg = w_out[negatives] @ h
            eps = 1e-12
            loss = -np.log(max(two_branch_sigmoid(np.array([pos]))[0], eps))
            loss -= float(np.sum(np.log(np.maximum(two_branch_sigmoid(-neg), eps))))
            total_loss += loss
            n_centers += 1
    return total_loss / n_centers


def brute_micro_f1(pred, gold):
    tp = fp = fn = 0
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            p, g = bool(pred[i, j]), bool(gold[i, j])
            if p and g:
                tp += 1
            elif p and not g:
                fp += 1
            elif g:
                fn += 1
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def brute_macro_f1(pred, gold, labels):
    scores = []
    for j in labels:
        f1 = brute_micro_f1(pred[:, [j]], gold[:, [j]])
        scores.append(f1)
    return sum(scores) / len(scores)


def brute_precision_at_n(scores, gold, n):
    total = 0.0
    for i in range(scores.shape[0]):
        ranked = sorted(range(scores.shape[1]), key=lambda j: (-scores[i, j], j))
        hits = sum(1 for j in ranked[:n] if gold[i, j])
        total += hits / n
    return total / scores.shape[0]


def grid_pr_auc(scores, gold, n_points=10_001):
    """PR AUC from an exhaustive threshold grid with step interpolation."""
    s = np.asarray(scores, dtype=float).ravel()
    g = np.asarray(gold).ravel().astype(bool)
    n_pos = int(g.sum())
    area = 0.0
    prev_recall = 0.0
    for t in np.linspace(1.0, 0.0, n_points):
        pred = s > t
        n_pred = int(pred.sum())
        tp = int(np.sum(pred & g))
        recall = tp / n_pos
        if n_pred == 0:
            continue
        precision = tp / n_pred
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def threshold_sweep_pr_auc(scores, gold):
    """PR AUC by rescanning every cell at every threshold (every distinct
    score plus 0 and 1, strict >, right-continuous step rule), summed from
    the highest threshold down."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    g = np.asarray(gold).ravel().astype(bool)
    n_pos = int(g.sum())
    thresholds = np.unique(np.concatenate([s, [0.0, 1.0]]))[::-1]
    area = 0.0
    prev_recall = 0.0
    for t in thresholds:
        pred = s > t
        tp = int(np.sum(pred & g))
        n_pred = int(pred.sum())
        recall = tp / n_pos
        if n_pred == 0:
            continue
        precision = tp / n_pred
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return float(area)


def argsort_pr_auc(scores, gold):
    """PR AUC from one stable argsort of every cell, cumulative positive
    counts in that order and `np.unique` over every score plus 0 and 1, with
    the steps added strictly left to right from the highest threshold: the
    form the one-sort blocked sweep replaced."""
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
    return float(np.add.accumulate(steps)[-1])


def argsort_precision_at_n(scores, gold, n):
    """P@n from a full stable argsort of every row (ties to the lower label
    index): the form partial selection replaced."""
    scores = np.asarray(scores, dtype=np.float64)
    gold = np.asarray(gold)
    if scores.shape[0] == 0:
        return 0.0
    top = np.argsort(-scores, axis=1, kind="stable")[:, :n]
    hits = np.sum(np.take_along_axis(gold, top, axis=1) > 0, axis=1)
    return float(np.mean(hits / n))


def _subset_counts(pred, gold, labels=None):
    p = np.asarray(pred).astype(bool)
    g = np.asarray(gold).astype(bool)
    if labels is not None:
        p, g = p[:, labels], g[:, labels]
    return int(np.sum(p & g)), int(np.sum(p & ~g)), int(np.sum(~p & g))


def f1_from_counts(tp, fp, fn):
    """F1 of scalar integer counts: the formula `metrics._f1` replaced."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _masked_macro_f1(pred, gold, labels):
    p = np.asarray(pred).astype(bool)[:, labels]
    g = np.asarray(gold).astype(bool)[:, labels]
    tp = np.sum(p & g, axis=0)
    fp = np.sum(p & ~g, axis=0)
    fn = np.sum(~p & g, axis=0)
    precision = np.divide(tp, tp + fp, out=np.zeros(tp.shape), where=tp + fp > 0)
    recall = tp / (tp + fn)
    pr = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr, out=np.zeros(tp.shape), where=pr > 0)
    return float(np.mean(f1))


def _masked_binned_f1(pred, gold, train_counts, n_bins=10):
    from mvclda.metrics import BinRow

    pred = np.asarray(pred).astype(bool)
    gold = np.asarray(gold).astype(bool)
    counts = np.asarray(train_counts, dtype=np.float64)
    eligible = np.flatnonzero((counts >= 1) & (gold.sum(axis=0) >= 1))
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
        rows.append(BinRow(
            bin_lo=lo + b * width, bin_hi=lo + (b + 1) * width, n_labels=int(members.size),
            micro_f1=(f1_from_counts(*_subset_counts(pred, gold, members))
                      if members.size else None),
        ))
    return rows


def per_subset_report(scores, gold, *, p_at=(8,), groups=None, train_counts=None,
                      macro_labels=None):
    """The metrics report with every F1 recounted over its own label subset
    from boolean masks (groups found by a loop over the labels, ten
    fancy-indexed passes for the binned table), P@n by `argsort_precision_at_n`
    and PR AUC by `argsort_pr_auc`: the form the one-sort report replaced.
    Only the report's dataclasses come from the library."""
    from mvclda.metrics import MetricsReport

    scores = np.asarray(scores, dtype=np.float64)
    gold = np.asarray(gold)
    pred = scores > 0.5
    tp, fp, fn = _subset_counts(pred, gold)
    by_group = {}
    if groups is not None:
        tags = list(groups)
        for tag in sorted(set(tags)):
            if tag != "none":
                members = np.flatnonzero(np.array([t == tag for t in tags]))
                by_group[tag] = f1_from_counts(*_subset_counts(pred, gold, members))
    macro, macro_n = None, 0
    if macro_labels is not None:
        macro_labels = np.asarray(macro_labels, dtype=np.int64)
        macro, macro_n = _masked_macro_f1(pred, gold, macro_labels), int(macro_labels.size)
    return MetricsReport(
        n_docs=int(scores.shape[0]), n_labels=int(scores.shape[1]), threshold=0.5,
        tp=tp, fp=fp, fn=fn, micro_f1=f1_from_counts(tp, fp, fn), micro_f1_by_group=by_group,
        macro_f1=macro, macro_n_labels=macro_n,
        p_at={str(n): argsort_precision_at_n(scores, gold, n) for n in p_at},
        pr_auc=argsort_pr_auc(scores, gold),
        bins=None if train_counts is None else _masked_binned_f1(pred, gold, train_counts),
    )


def dense_gradient(grads, name, shape):
    """Tensor `name` of a GradientSet at its full `shape`: W_e's rows
    (`grads.rows`) laid into zeros, any other tensor as it is."""
    if name != "W_e":
        return grads[name]
    out = np.zeros(shape)
    for k, row in enumerate(grads.rows):
        out[row] = grads[name][k]
    return out


def dense_gradients(grads, params):
    """Every tensor of a GradientSet at its parameter's shape, by name."""
    return {name: dense_gradient(grads, name, arr.shape) for name, arr in params.tensors()}


def inplace_adam_step(arrays, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam over whole tensors at step `t` (the step count
    after this update), in place, with dense gradients (name -> array, used
    up as scratch): the one-pass update the row-blocked one replaced, in
    its operation order."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, arr in arrays.items():
        g = grads[name]
        scratch = np.multiply(1.0 - beta1, g)
        m[name] *= beta1
        m[name] += scratch
        v[name] *= beta2
        np.multiply(1.0 - beta2, g, out=scratch)
        scratch *= g
        v[name] += scratch
        denom = np.divide(v[name], bc2, out=g)
        np.sqrt(denom, out=denom)
        denom += eps
        np.divide(m[name], bc1, out=scratch)
        scratch *= lr
        scratch /= denom
        arr -= scratch


def fd_gradcheck(params, loss_fn, grads, step=1e-5, rtol=1e-4, max_per_tensor=None):
    """Compare analytic gradients against central finite differences.

    Returns the worst relative error, where the error is taken relative to
    max(1, |analytic|, |numeric|). A compact gradient is checked at its
    full shape, every untouched row included.
    """
    worst = 0.0
    for name, arr in params.tensors():
        flat = arr.ravel()
        g = dense_gradient(grads, name, arr.shape).ravel()
        if max_per_tensor is None or flat.size <= max_per_tensor:
            indices = range(flat.size)
        else:
            indices = np.linspace(0, flat.size - 1, max_per_tensor).astype(int)
        for i in indices:
            orig = flat[i]
            flat[i] = orig + step
            lp = loss_fn()
            flat[i] = orig - step
            lm = loss_fn()
            flat[i] = orig
            numeric = (lp - lm) / (2 * step)
            rel = abs(numeric - g[i]) / max(1.0, abs(numeric), abs(g[i]))
            if rel > rtol:
                raise AssertionError(
                    f"gradient mismatch in {name}[{i}]: analytic {g[i]!r} vs "
                    f"finite difference {numeric!r} (rel {rel:.2e})"
                )
            worst = max(worst, rel)
    return worst


def random_table(rng, vocab_size, embed_dim):
    """A random W_e for `model.init_params`, uniform in [-0.5, 0.5) /
    embed_dim: the first draw from `rng`, which then draws the other
    tensors."""
    return (rng.random((vocab_size, embed_dim)) - 0.5) / embed_dim


def word_table(token_docs):
    """Each token list as an int32 array of ids in a word table, a dict
    that gains each unseen word at the next id; returns (arrays, table)."""
    words = {}
    notes = [np.array([words.setdefault(t, len(words)) for t in doc], dtype=np.int32)
             for doc in token_docs]
    return notes, words


def string_vocabulary(token_docs, min_doc_freq):
    """The retained words and their document frequencies, counted over lists
    of token strings: the words in >= min_doc_freq documents, by descending
    frequency with lexicographic ties. The string path `build_vocabulary`
    replaced."""
    df = Counter()
    for doc in token_docs:
        df.update(set(doc))
    retained = sorted(sorted(t for t, c in df.items() if c >= min_doc_freq),
                      key=df.__getitem__, reverse=True)
    return retained, {t: df[t] for t in retained}


def per_token_tfidf(terms, idf, token_docs):
    """L2-normalized tf-idf rows of lists of token strings, one dict lookup
    per token: the `TfidfFeaturizer.transform` the id gather replaced."""
    term_index = {t: i for i, t in enumerate(terms)}
    X = np.zeros((len(token_docs), len(terms)))
    for i, doc in enumerate(token_docs):
        cols = [k for k in map(term_index.get, doc) if k is not None]
        X[i] = np.bincount(np.array(cols, dtype=np.int64), minlength=len(terms))
    X *= idf
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    np.divide(X, norms, out=X, where=norms > 0)
    return X


def contains_phrase(text: str, phrase_tokens) -> bool:
    return f" {' '.join(phrase_tokens)} " in f" {text} "


def hand_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def dense_pegasos(X, y, cfg, label_seed):
    """Pegasos subgradient descent on hinge loss with L2 penalty over dense
    rows: per step one dense margin, one dense shrink of w and one dense
    update. y is +/-1; returns (w, b). The loop `baseline._train_hinge`
    replaced."""
    n, dim = X.shape
    if not np.any(y > 0):
        return np.zeros(dim), -1.0
    if not np.any(y < 0):
        return np.zeros(dim), 1.0
    rng = np.random.default_rng(label_seed)
    w = np.zeros(dim)
    b = 0.0
    t = 0
    for _epoch in range(cfg.epochs):
        for i in rng.permutation(n):
            t += 1
            lr = 1.0 / (cfg.reg * (t + 1.0 / cfg.reg))
            margin = y[i] * (X[i] @ w + b)
            w *= 1.0 - lr * cfg.reg
            if margin < 1.0:
                w += lr * y[i] * X[i]
                b += lr * y[i]
    return w, b


def per_step_pegasos(rows, pool, y, cfg, label_seed):
    """Pegasos-style subgradient descent on hinge loss with L2 penalty, over
    the rows `pool` of `TfidfFeaturizer.transform`'s output.

    y is +/-1 per row. Returns (w, b); b is unregularized. w is kept as
    a * v (Shalev-Shwartz et al., 2011), so the shrink is O(1) and the
    margin and the update touch only the sample's nonzeros. A pool with no
    positive or no negative gives the constant classifier (None, -1 or +1).
    The sparse loop `baseline._train_hinge` replaced, one `np.dot` and
    numpy-scalar margin a step, whose floats the fit keeps bit for bit.
    """
    if not np.any(y > 0):
        return None, -1.0
    if not np.any(y < 0):
        return None, 1.0
    row_cols = [rows[0][r] for r in pool]
    row_vals = [rows[1][r] for r in pool]
    y = y.tolist()
    reg, inv_reg = cfg.reg, 1.0 / cfg.reg
    rng = np.random.default_rng(label_seed)
    v = np.zeros(rows[2])
    a = 1.0
    b = 0.0
    t = 0
    for _epoch in range(cfg.epochs):
        for i in rng.permutation(len(pool)).tolist():
            t += 1
            lr = 1.0 / (reg * (t + inv_reg))
            cols, vals, y_i = row_cols[i], row_vals[i], y[i]
            v_row = v[cols]
            margin = y_i * (a * np.dot(vals, v_row) + b)
            a *= 1.0 - lr * reg
            if a < 1e-100:  # fold the scale into v before it underflows
                v *= a
                v_row *= a
                a = 1.0
            if margin < 1.0:
                v_row += (lr * y_i / a) * vals
                v[cols] = v_row
                b += lr * y_i
    return a * v, b


def subtree_label_columns(node, codes, parents):
    """Label columns whose code lies in the subtree rooted at `node` (the
    node itself included when it is a label), by walking every code's
    ancestor chain."""
    cols = []
    for j, code in enumerate(codes):
        walk = code
        while True:
            if walk == node:
                cols.append(j)
                break
            if walk not in parents:
                break
            walk = parents[walk]
    return np.array(cols, dtype=np.int64)


def walk_hierarchical_fit(X, gold, codes, parents, nodes, cfg, fit=dense_pegasos):
    """Per hierarchy node, `fit` (`dense_pegasos` unless given) on the copied
    rows of its pool: the documents whose gold set meets the parent's subtree
    (all documents for a root), positive when they meet the node's own
    subtree, with the subtrees from `subtree_label_columns`. Returns
    (weights, bias, pools)."""
    gold = np.asarray(gold)

    def meets(node):
        cols = subtree_label_columns(node, codes, parents)
        return gold[:, cols].any(axis=1) if cols.size else np.zeros(len(gold), dtype=bool)

    weights = np.zeros((len(nodes), X.shape[1]))
    bias = np.zeros(len(nodes))
    pools = {}
    for k, node in enumerate(nodes):
        parent = parents.get(node)
        pool = np.flatnonzero(meets(parent)) if parent is not None else np.arange(len(gold))
        pools[node] = pool
        y = np.where(meets(node)[pool], 1.0, -1.0)
        weights[k], bias[k] = fit(X[pool], y, cfg, cfg.seed * 100_003 + k)
    return weights, bias, pools


def loop_predict_hierarchical(model, X, codes, parents):
    """Per code, walk its ancestor chain and AND the fired columns of every
    node on it, one code at a time: the loop `baseline.predict_hierarchical`
    replaced."""
    fired = model.decision(X) > 0
    out = np.zeros((X.shape[0], len(codes)), dtype=bool)
    for j, code in enumerate(codes):
        node, cols = code, [model.node_index[code]]
        while node in parents:
            node = parents[node]
            cols.append(model.node_index[node])
        out[:, j] = fired[:, cols].all(axis=1)
    return out


_SYLLABLES = ["ba", "re", "mo", "ti", "lu", "sa", "ne", "ko", "da", "pi", "fo", "gu"]
_DESC_FILLERS = ["acute", "chronic", "unspecified", "disorder", "of", "with", "primary",
                 "secondary", "syndrome", "recurrent"]


def _word(index):
    parts = []
    index += 1
    while index:
        parts.append(_SYLLABLES[index % len(_SYLLABLES)])
        index //= len(_SYLLABLES)
    return "".join(reversed(parts))


def per_word_synthetic_corpus(cfg):
    """The synthetic corpus of `cfg` built one word and one token at a time:
    the generator `corpus.generate_synthetic_corpus` replaced, drawing the
    same random numbers in the same order."""
    from mvclda.corpus import RawDocument, SyntheticCorpus, make_label_space

    rng = np.random.default_rng(cfg.seed)

    bg_words = [_word(i) for i in range(cfg.background_vocab)]
    code_names = [f"{100 + j}.{j % 10}" for j in range(cfg.n_codes)]

    phrases = []
    descriptions = {}
    next_evidence = cfg.background_vocab
    for j in range(cfg.n_codes):
        length = int(rng.integers(cfg.evidence_len_min, cfg.evidence_len_max + 1))
        phrase = [_word(next_evidence + k) for k in range(length)]
        next_evidence += length
        phrases.append(phrase)
        shared = phrase[: min(2, len(phrase))]
        filler_a = _DESC_FILLERS[int(rng.integers(len(_DESC_FILLERS)))]
        filler_b = _DESC_FILLERS[int(rng.integers(len(_DESC_FILLERS)))]
        descriptions[code_names[j]] = " ".join([filler_a] + shared + [filler_b])

    n_roots = max(1, int(math.isqrt(cfg.n_codes)))
    parents = {}
    for j in range(n_roots, cfg.n_codes):
        parents[code_names[j]] = code_names[int(rng.integers(0, j))]

    groups = {
        code: ("diagnosis" if j % 2 == 0 else "procedure")
        for j, code in enumerate(code_names)
    }

    weights = np.arange(1, cfg.n_codes + 1, dtype=np.float64) ** (-cfg.zipf_exponent)
    marginals = weights / weights.sum()
    card_cap = max(1, min(cfg.n_codes, cfg.doc_len_min // cfg.evidence_len_max))

    def make_doc(split, i):
        length = int(rng.integers(cfg.doc_len_min, cfg.doc_len_max + 1))
        if cfg.doc_len_max > cfg.doc_len_min:
            t = (length - cfg.doc_len_min) / (cfg.doc_len_max - cfg.doc_len_min)
        else:
            t = 0.0
        mix = cfg.coupling * t + (1.0 - cfg.coupling) * rng.random()
        n_pos = 1 + int(math.floor(mix * (card_cap - 1) + 1e-12))
        chosen = rng.choice(cfg.n_codes, size=n_pos, replace=False, p=marginals)
        chosen = sorted(int(j) for j in chosen)
        units = [list(phrases[j]) for j in chosen]
        n_background = length - sum(len(u) for u in units)
        units.extend(
            [bg_words[int(k)]] for k in rng.integers(0, cfg.background_vocab, n_background)
        )
        order = rng.permutation(len(units))
        tokens = [tok for u in order for tok in units[int(u)]]
        return RawDocument(
            doc_id=f"{split}-{i:05d}",
            text=" ".join(tokens),
            codes={code_names[j] for j in chosen},
        )

    train = [make_doc("train", i) for i in range(cfg.n_train)]
    dev = [make_doc("dev", i) for i in range(cfg.n_dev)]
    test = [make_doc("test", i) for i in range(cfg.n_test)]

    labels = make_label_space(descriptions, parents)
    phrases_by_code = {code_names[j]: phrases[j] for j in range(cfg.n_codes)}
    return SyntheticCorpus(train, dev, test, labels, groups, phrases_by_code)
