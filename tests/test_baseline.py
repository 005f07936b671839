import math
import tracemalloc

import numpy as np
import pytest

from mvclda import baseline
from mvclda.corpus import read_tensor_file

from oracles import (cells, dense_pegasos, loop_predict_hierarchical, per_step_pegasos,
                     per_token_tfidf, string_vocabulary, subtree_label_columns,
                     walk_hierarchical_fit, word_table)
from test_corpus import tricky_token_corpus


def tfidf(docs, cfg=baseline.TfidfConfig()):
    """`fit_tfidf` on lists of token strings through a word table, and the
    dense form of the same documents' tf-idf rows."""
    notes, words = word_table(docs)
    feat = baseline.fit_tfidf(notes, words, cfg)
    return feat, baseline.to_dense(feat.transform(notes))


def rows_of(X):
    """A dense matrix in `TfidfFeaturizer.transform`'s form: each row's
    nonzero columns and values, and the column count."""
    cols = [np.flatnonzero(x) for x in X]
    return cols, [x[c] for x, c in zip(X, cols)], X.shape[1]


class TestTfidf:
    def test_hand_case(self):
        docs = [["a", "a", "b"], ["b"]]
        feat, X = tfidf(docs)
        a, b = feat.terms.index("a"), feat.terms.index("b")
        # df(a)=1, df(b)=2, N=2 -> idf(a)=ln2, idf(b)=0
        assert feat.idf[a] == pytest.approx(math.log(2), abs=1e-12)
        assert feat.idf[b] == 0.0
        # unnormalized weights of ["a", "a", "b"] (2 ln2, 0) -> normalized (1, 0)
        assert X[0, a] == pytest.approx(1.0, abs=1e-12)
        assert X[0, b] == 0.0

    def test_ubiquitous_term_weight_zero(self):
        docs = [["x", "y"], ["x", "z"], ["x", "y"]]
        feat, X = tfidf(docs)
        assert np.all(X[:, feat.terms.index("x")] == 0.0)

    def test_small_corpus_keeps_all_terms(self):
        docs = [["a", "b"], ["c"]]
        assert sorted(tfidf(docs)[0].terms) == ["a", "b", "c"]

    def test_selection_by_doc_freq_then_lexicographic(self):
        docs = [["b", "a"], ["b", "a"], ["b"], ["z"]]
        assert tfidf(docs, baseline.TfidfConfig(max_features=2))[0].terms == ["b", "a"]

    def test_vectors_unit_or_zero_norm(self):
        rng = np.random.default_rng(0)
        vocabulary = [f"t{i}" for i in range(20)]
        docs = [
            [vocabulary[int(k)] for k in rng.integers(0, 20, rng.integers(0, 12))]
            for _ in range(30)
        ]
        _, X = tfidf(docs)
        norms = np.linalg.norm(X, axis=1)
        assert np.all((np.abs(norms - 1) < 1e-12) | (norms == 0))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            baseline.fit_tfidf([], {}, baseline.TfidfConfig())

    def test_min_doc_freq_floor_drops_rare_terms(self):
        docs = [["b", "a"], ["b", "a"], ["b"], ["z"]]
        assert tfidf(docs)[0].terms == ["b", "a", "z"]
        for n, terms in ((2, ["b", "a"]), (3, ["b"])):
            assert tfidf(docs, baseline.TfidfConfig(min_doc_freq=n))[0].terms == terms
        with pytest.raises(ValueError, match="no term"):
            tfidf(docs, baseline.TfidfConfig(min_doc_freq=4))

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_per_token_path(self, seed):
        train, _, test = tricky_token_corpus(seed)
        notes, words = word_table(train + test)  # test's own words too, as `baseline` reads
        for cfg in (baseline.TfidfConfig(), baseline.TfidfConfig(max_features=5),
                    baseline.TfidfConfig(min_doc_freq=3)):
            feat = baseline.fit_tfidf(notes[:len(train)], words, cfg)
            terms, df = string_vocabulary(train, cfg.min_doc_freq)
            terms = terms[:cfg.max_features]
            idf = np.array([math.log(len(train) / df[t]) for t in terms])
            assert feat.terms == terms and np.array_equal(feat.idf, idf)
            for split, split_notes in ((train, notes[:len(train)]), (test, notes[len(train):])):
                assert np.array_equal(baseline.to_dense(feat.transform(split_notes)),
                                      per_token_tfidf(terms, idf, split))


class TestSparseRows:
    """Fitting holds each note's nonzero tf-idf entries, not a notes x terms
    matrix."""

    def test_rows_are_the_nonzeros_of_the_dense_form(self):
        train, _, test = tricky_token_corpus(0)
        notes, words = word_table(train + test)
        feat = baseline.fit_tfidf(notes, words, baseline.TfidfConfig())
        cols, vals, dim = feat.transform(notes)
        ref_cols, ref_vals, ref_dim = rows_of(baseline.to_dense((cols, vals, dim)))
        assert dim == ref_dim and len(cols) == len(notes)
        for c, v, ref_c, ref_v in zip(cols, vals, ref_cols, ref_vals):
            assert np.array_equal(c, ref_c) and np.array_equal(v, ref_v)

    def test_transform_and_train_flat_memory_is_far_below_notes_by_terms(self):
        # 500 notes over 10,000 terms, each term in some note: a dense
        # float64 matrix alone would take 40 MB
        rng = np.random.default_rng(24)
        n, n_terms = 500, 10_000
        terms = [f"t{k}" for k in range(n_terms)]
        docs = [terms[20 * i:20 * i + 20] + [terms[k] for k in rng.integers(0, n_terms, 10)]
                for i in range(n)]
        notes, words = word_table(docs)
        feat = baseline.fit_tfidf(notes, words, baseline.TfidfConfig())
        gold = cells(rng.random((n, 3)) < 0.3)
        tracemalloc.start()
        try:
            rows = feat.transform(notes)
            ovr = baseline.train_flat(rows, gold, ["a", "b", "c"],
                                      baseline.SvmConfig(epochs=1, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(feat.terms) == n_terms and ovr.weights.shape == (3, n_terms)
        assert peak < n * n_terms * 8 / 10


def separable_dataset():
    """Docs with token 'x' belong to label 0, token 'y' to label 1."""
    docs, gold = [], []
    for i in range(12):
        if i % 2 == 0:
            docs.append(["x", f"f{i}"])
            gold.append([1, 0])
        else:
            docs.append(["y", f"f{i}"])
            gold.append([0, 1])
    return docs, np.array(gold, dtype=float)


class TestFlatOvr:
    def test_linearly_separable_perfect_training_accuracy(self):
        docs, gold = separable_dataset()
        _, X = tfidf(docs)
        ovr = baseline.train_flat(rows_of(X), cells(gold), ["L0", "L1"],
                                  baseline.SvmConfig(seed=1))
        pred = baseline.predict_flat(ovr, X)
        assert np.array_equal(pred, gold.astype(bool))

    def test_zero_positive_label_always_negative(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(15, 6))
        gold = np.zeros((15, 2))
        gold[:, 0] = (rng.random(15) < 0.5).astype(float)
        gold[0, 0] = 1
        ovr = baseline.train_flat(rows_of(X), cells(gold), ["a", "b"],
                                  baseline.SvmConfig(seed=2))
        pred = baseline.predict_flat(ovr, rng.normal(size=(40, 6)))
        assert not pred[:, 1].any()

    def test_all_positive_label_always_positive(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(10, 4))
        gold = np.ones((10, 1))
        ovr = baseline.train_flat(rows_of(X), cells(gold), ["a"], baseline.SvmConfig(seed=3))
        assert baseline.predict_flat(ovr, rng.normal(size=(20, 4))).all()

    def test_deterministic_under_fixed_seed(self):
        docs, gold = separable_dataset()
        _, X = tfidf(docs)
        rows = rows_of(X)
        a = baseline.train_flat(rows, cells(gold), ["L0", "L1"], baseline.SvmConfig(seed=4))
        b = baseline.train_flat(rows, cells(gold), ["L0", "L1"], baseline.SvmConfig(seed=4))
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_equals_hierarchical_over_an_empty_hierarchy(self):
        rng = np.random.default_rng(6)
        for case in range(5):
            n, dim, n_codes = int(rng.integers(8, 20)), int(rng.integers(3, 8)), 4
            X = rng.normal(size=(n, dim)) * (rng.random((n, dim)) < 0.6)
            gold = (rng.random((n, n_codes)) < 0.4).astype(float)
            gold[:, 0], gold[:, 1] = 0.0, 1.0  # a label with no positive, one with no negative
            codes = [f"c{i}" for i in range(n_codes)]
            cfg = baseline.SvmConfig(epochs=3, seed=case)
            flat = baseline.train_flat(rows_of(X), cells(gold), codes, cfg)
            hier = baseline.train_hierarchical(rows_of(X), cells(gold), codes, {}, cfg)
            assert flat.nodes == hier.nodes == codes
            assert not flat.hierarchical and hier.hierarchical
            assert flat.rows.tolist() == hier.rows.tolist() == [2, 3]
            assert flat.weights.tobytes() == hier.weights.tobytes()
            assert flat.bias.tobytes() == hier.bias.tobytes()
            X_test = rng.normal(size=(10, dim))
            assert np.array_equal(baseline.predict_flat(flat, X_test),
                                  baseline.predict_hierarchical(hier, X_test, codes, {}))


def _manual_model(nodes, fire: dict[str, bool], dim=3):
    """Constant classifiers only: no trained rows, each node's bias +/-1."""
    bias = np.array([1.0 if fire[n] else -1.0 for n in nodes])
    return baseline.LinearOvrModel(nodes=nodes, rows=np.zeros(0, dtype=np.int64),
                                   weights=np.zeros((0, dim)), bias=bias, hierarchical=True)


class TestHierarchical:
    PARENTS = {"child": "parent", "grand": "child"}
    CODES = ["parent", "child", "grand"]

    def test_child_positive_parent_negative_suppressed(self):
        m = _manual_model(self.CODES, {"parent": False, "child": True, "grand": True})
        pred = baseline.predict_hierarchical(m, np.zeros((2, 3)), self.CODES, self.PARENTS)
        assert not pred.any()

    def test_root_level_label_depends_only_on_itself(self):
        m = _manual_model(self.CODES, {"parent": True, "child": False, "grand": True})
        pred = baseline.predict_hierarchical(m, np.zeros((1, 3)), self.CODES, self.PARENTS)
        assert pred[0].tolist() == [True, False, False]

    def test_predictions_ancestor_closed_random_models(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n_codes = int(rng.integers(4, 12))
            codes = [f"c{i}" for i in range(n_codes)]
            parents = {codes[i]: codes[int(rng.integers(0, i))] for i in range(1, n_codes)}
            weights = rng.normal(size=(n_codes, 4))
            bias = rng.normal(size=n_codes)
            m = baseline.LinearOvrModel(codes, np.arange(n_codes), weights, bias,
                                        hierarchical=True)
            X = rng.normal(size=(20, 4))
            pred = baseline.predict_hierarchical(m, X, codes, parents)
            for j, code in enumerate(codes):
                node = code
                while node in parents:
                    node = parents[node]
                    k = codes.index(node)
                    assert np.all(pred[:, j] <= pred[:, k])

    def test_missing_ancestor_classifier_rejected(self):
        m = _manual_model(["child"], {"child": True})
        with pytest.raises(ValueError, match="parent"):
            baseline.predict_hierarchical(m, np.zeros((1, 3)), ["child"], {"child": "parent"})

    def test_flat_and_hierarchical_agree_on_root_labels(self):
        rng = np.random.default_rng(6)
        codes = ["r0", "r1", "k0"]
        parents = {"k0": "r0"}
        weights = rng.normal(size=(3, 4))
        bias = rng.normal(size=3)
        hier = baseline.LinearOvrModel(codes, np.arange(3), weights, bias, hierarchical=True)
        flat = baseline.LinearOvrModel(codes, np.arange(3), weights, bias)
        X = rng.normal(size=(25, 4))
        hp = baseline.predict_hierarchical(hier, X, codes, parents)
        fp = baseline.predict_flat(flat, X)
        assert np.array_equal(hp[:, 0], fp[:, 0])
        assert np.array_equal(hp[:, 1], fp[:, 1])

    def test_training_routes_pool_through_parent_subtree(self):
        # parent subtree = {parent, child}; child classifier trains only on
        # documents whose gold intersects the parent's subtree
        docs_tokens = [["p"], ["p", "c"], ["q"], ["q"]]
        _, X = tfidf(docs_tokens)
        gold = np.array([
            [1, 0, 0],
            [1, 1, 0],
            [0, 0, 1],
            [0, 0, 1],
        ], dtype=float)
        codes = ["parent", "child", "other"]
        parents = {"child": "parent"}
        m = baseline.train_hierarchical(rows_of(X), cells(gold), codes, parents,
                                        baseline.SvmConfig(seed=7))
        assert set(m.nodes) == set(codes)
        pred = baseline.predict_hierarchical(m, X, codes, parents)
        for j, code in enumerate(codes):
            node = code
            while node in parents:
                node = parents[node]
                assert np.all(pred[:, j] <= pred[:, codes.index(node)])

    def test_internal_parent_nodes_get_classifiers(self):
        gold = np.array([[1.0], [1.0], [0.0]])
        X = np.eye(3)
        m = baseline.train_hierarchical(
            rows_of(X), cells(gold), ["leaf"], {"leaf": "internal"}, baseline.SvmConfig(seed=8)
        )
        assert set(m.nodes) == {"leaf", "internal"}


def _sparse_tfidf(rng, n_docs, n_terms=40):
    """Tf-idf rows of random short documents; document 0 has no tokens (an
    all-digit note), so its row is all zeros."""
    terms = [f"t{k}" for k in range(n_terms)]
    docs = [[]] + [
        [terms[int(k)] for k in rng.integers(0, n_terms, rng.integers(1, 9))]
        for _ in range(n_docs - 1)
    ]
    _, X = tfidf(docs)
    assert not X[0].any() and X.any(axis=1)[1:].all()
    return X


def _assert_matches_oracle(weights, bias, ref_weights, ref_bias):
    scale = max(np.abs(ref_weights).max(), 1e-300)
    assert np.abs(weights - ref_weights).max() <= 1e-10 * scale
    assert np.abs(bias - ref_bias).max() <= 1e-10


def _assert_model_matches_oracle(ovr, ref_weights, ref_bias):
    """The trained rows against the oracle's; every other oracle row is the
    zero vector of a constant classifier."""
    untrained = np.setdiff1d(np.arange(len(ovr.nodes)), ovr.rows)
    assert not ref_weights[untrained].any()
    _assert_matches_oracle(ovr.weights, ovr.bias, ref_weights[ovr.rows], ref_bias)


class TestSparsePegasosMatchesDenseLoop:
    """The scaled sparse steps against the dense per-step loop they replaced:
    the same visiting order and arithmetic, only the float sums reordered."""

    def test_flat(self):
        rng = np.random.default_rng(11)
        X = _sparse_tfidf(rng, 30)
        gold = (rng.random((30, 5)) < 0.3).astype(float)
        gold[:, 3] = 1.0   # all positive
        gold[:, 4] = 0.0   # no positive
        gold[0, 0] = 1.0   # the empty row is a positive somewhere
        cfg = baseline.SvmConfig(epochs=4, reg=1e-2, seed=3)
        ovr = baseline.train_flat(rows_of(X), cells(gold), [f"c{j}" for j in range(5)], cfg)
        ref = [dense_pegasos(X, np.where(gold[:, j] > 0, 1.0, -1.0), cfg, 3 * 100_003 + j)
               for j in range(5)]
        _assert_model_matches_oracle(ovr, np.array([w for w, _ in ref]),
                                     np.array([b for _, b in ref]))
        assert ovr.bias[3] == 1.0 and ovr.bias[4] == -1.0
        assert ovr.rows.tolist() == [0, 1, 2]
        assert ovr.weights[1].any()

    # three levels: R > G2 > c3 and G1 > c0 > c1 > c2 (R, G1, G2 are not
    # codes); c4 > c5 > c7; c6 is a lone root; N gets a classifier but has
    # no code below it (its child x is not a code either)
    CODES = ["c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"]
    PARENTS = {"c0": "G1", "c1": "c0", "c2": "c1", "c3": "G2", "G2": "R", "c5": "c4",
               "c7": "c5", "x": "N"}

    def test_node_pools_equal_subtree_walk(self):
        nodes = baseline._hierarchy_nodes(self.CODES, self.PARENTS)
        assert set(nodes) == set(self.CODES) | {"G1", "G2", "R", "N"}
        cols = baseline._subtree_columns(baseline._ancestor_chains(self.CODES, self.PARENTS))
        for node in nodes:
            assert cols.get(node, []) == subtree_label_columns(
                node, self.CODES, self.PARENTS).tolist()

    def test_hierarchical(self):
        rng = np.random.default_rng(12)
        X = _sparse_tfidf(rng, 36)
        gold = (rng.random((36, 8)) < 0.25).astype(float)
        gold[:, 6] = 1.0   # all positive
        gold[:, 5] = 0.0   # no positive
        gold[:, 7] = 0.0   # no positive, and an empty pool (c5's subtree)
        cfg = baseline.SvmConfig(epochs=3, reg=1e-2, seed=5)
        ovr = baseline.train_hierarchical(rows_of(X), cells(gold), self.CODES, self.PARENTS, cfg)
        ref_w, ref_b, pools = walk_hierarchical_fit(
            X, gold, self.CODES, self.PARENTS, ovr.nodes, cfg)
        _assert_model_matches_oracle(ovr, ref_w, ref_b)
        # a child pool is a strict subset here, so the row picks are exercised
        assert 0 < pools["c1"].size < len(X)
        assert pools["c7"].size == 0

    def test_vanishing_scale_folds_into_v(self):
        # a regularizer so strong that the first shrink factor rounds to
        # zero: the scale must be folded away, not divided by
        rng = np.random.default_rng(13)
        X = _sparse_tfidf(rng, 12)
        y = np.where(rng.random(12) < 0.5, 1.0, -1.0)
        y[:2] = 1.0, -1.0
        cfg = baseline.SvmConfig(epochs=2, reg=1e20, seed=0)
        w = np.zeros(X.shape[1])
        b = baseline._train_hinge(baseline._row_steps(rows_of(X)), y.tolist(), cfg, 7, w)
        ref_w, ref_b = dense_pegasos(X, y, cfg, 7)
        assert np.all(np.isfinite(w))
        _assert_matches_oracle(w, np.array([b]), ref_w, np.array([ref_b]))


def per_step_dense(X, y, cfg, label_seed):
    """`per_step_pegasos` over every row of the dense X; a constant
    classifier's weights are zeros, as `dense_pegasos` gives them."""
    w, b = per_step_pegasos(rows_of(X), np.arange(len(X)), y, cfg, label_seed)
    return (np.zeros(X.shape[1]) if w is None else w), b


class TestFitEqualsPerStepLoop:
    """The fit against the sparse per-step loop it replaced, bit for bit:
    the same floats in the same order, on `TestSparsePegasosMatchesDenseLoop`'s
    cases."""

    @staticmethod
    def _assert_model_is(ovr, ref_weights, ref_bias):
        untrained = np.setdiff1d(np.arange(len(ovr.nodes)), ovr.rows)
        assert not ref_weights[untrained].any()
        assert np.array_equal(ovr.weights, ref_weights[ovr.rows])
        assert np.array_equal(ovr.bias, ref_bias)

    def test_flat(self):
        rng = np.random.default_rng(11)
        X = _sparse_tfidf(rng, 30)
        gold = (rng.random((30, 5)) < 0.3).astype(float)
        gold[:, 3] = 1.0   # all positive
        gold[:, 4] = 0.0   # no positive
        gold[0, 0] = 1.0   # the empty row is a positive somewhere
        cfg = baseline.SvmConfig(epochs=4, reg=1e-2, seed=3)
        ovr = baseline.train_flat(rows_of(X), cells(gold), [f"c{j}" for j in range(5)], cfg)
        ref = [per_step_dense(X, np.where(gold[:, j] > 0, 1.0, -1.0), cfg, 3 * 100_003 + j)
               for j in range(5)]
        self._assert_model_is(ovr, np.array([w for w, _ in ref]), np.array([b for _, b in ref]))
        assert ovr.rows.tolist() == [0, 1, 2]

    def test_hierarchical(self):
        rng = np.random.default_rng(12)
        X = _sparse_tfidf(rng, 36)
        gold = (rng.random((36, 8)) < 0.25).astype(float)
        gold[:, 6] = 1.0   # all positive
        gold[:, 5] = 0.0   # no positive
        gold[:, 7] = 0.0   # no positive, and an empty pool (c5's subtree)
        cfg = baseline.SvmConfig(epochs=3, reg=1e-2, seed=5)
        case = TestSparsePegasosMatchesDenseLoop
        ovr = baseline.train_hierarchical(rows_of(X), cells(gold), case.CODES, case.PARENTS, cfg)
        ref_w, ref_b, _ = walk_hierarchical_fit(X, gold, case.CODES, case.PARENTS, ovr.nodes,
                                                cfg, fit=per_step_dense)
        self._assert_model_is(ovr, ref_w, ref_b)
        assert 0 < len(ovr.rows) < len(ovr.nodes)

    def test_vanishing_scale_folds_into_v(self):
        rng = np.random.default_rng(13)
        X = _sparse_tfidf(rng, 12)
        y = np.where(rng.random(12) < 0.5, 1.0, -1.0)
        y[:2] = 1.0, -1.0
        cfg = baseline.SvmConfig(epochs=2, reg=1e20, seed=0)
        ovr = baseline.train_flat(rows_of(X), cells((y > 0)[:, None]), ["c"], cfg)
        ref_w, ref_b = per_step_dense(X, y, cfg, 0)
        self._assert_model_is(ovr, ref_w[None], np.array([ref_b]))
        assert ovr.rows.tolist() == [0] and ovr.weights.any()


class TestSerialization:
    def test_round_trip(self, tmp_path):
        docs, gold = separable_dataset()
        feat, X = tfidf(docs)
        gold = np.hstack([np.zeros((len(gold), 1)), gold])  # L- has no positive
        ovr = baseline.train_flat(rows_of(X), cells(gold), ["L-", "L0", "L1"],
                                  baseline.SvmConfig(seed=9))
        path = tmp_path / "model.bin"
        baseline.save_baseline(path, feat, ovr)
        header, arrays, _ = read_tensor_file(
            path, baseline.BASELINE_FORMAT, baseline.BASELINE_FORMAT_VERSION
        )
        assert header["terms"] == feat.terms
        assert header["nodes"] == ovr.nodes
        assert header["hierarchical"] is False
        assert header["rows"] == [1, 2]
        assert arrays["weights"].shape == (2, len(feat.terms))
        assert np.array_equal(arrays["idf"], feat.idf)
        assert np.array_equal(arrays["weights"], ovr.weights)
        assert np.array_equal(arrays["bias"], ovr.bias)


class TestRowSparse:
    """Only trained classifiers keep a weight row; a constant one scores its
    bias."""

    def test_untrained_scores_are_the_bias_and_trained_match_dense(self):
        rng = np.random.default_rng(21)
        X = _sparse_tfidf(rng, 30)
        gold = (rng.random((30, 6)) < 0.3).astype(float)
        gold[:, 1] = 0.0   # no positive
        gold[:, 4] = 1.0   # no negative
        ovr = baseline.train_flat(rows_of(X), cells(gold), [f"c{j}" for j in range(6)],
                                  baseline.SvmConfig(epochs=3, seed=2))
        assert ovr.rows.tolist() == [0, 2, 3, 5]
        dense = np.zeros((6, X.shape[1]))
        dense[ovr.rows] = ovr.weights
        X_test = rng.random((25, X.shape[1])) * (rng.random((25, X.shape[1])) < 0.3)
        scores, ref = ovr.decision(X_test), X_test @ dense.T + ovr.bias
        assert np.array_equal(scores[:, [1, 4]], np.tile([-1.0, 1.0], (25, 1)))
        scale = np.abs(ref).max()
        assert np.abs(scores - ref).max() <= 1e-12 * scale

    def test_train_flat_memory_grows_with_trained_rows_only(self):
        # 2,000 labels at dim 10,000; only label 0 has positives. Dense
        # weights alone would take 160 MB.
        rng = np.random.default_rng(22)
        n, dim = 20, 10_000
        X = np.zeros((n, dim))
        for i in range(n):
            X[i, rng.choice(dim, 5, replace=False)] = rng.random(5)
        gold = np.zeros((n, 2_000))
        gold[::2, 0] = 1.0
        codes, rows = [f"c{j}" for j in range(2_000)], rows_of(X)
        tracemalloc.start()
        try:
            ovr = baseline.train_flat(rows, cells(gold), codes,
                                      baseline.SvmConfig(epochs=1, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ovr.rows.tolist() == [0] and ovr.weights.shape == (1, dim)
        assert peak < 16 * 2**20

    def test_train_flat_holds_the_weight_rows_once(self):
        # 100 trained labels at dim 10,000: the fit writes each row into the
        # one weights matrix (8 MB) instead of stacking a list of rows
        rng = np.random.default_rng(25)
        n, dim, n_labels = 20, 10_000, 100
        X = np.zeros((n, dim))
        for i in range(n):
            X[i, rng.choice(dim, 5, replace=False)] = rng.random(5)
        gold = rng.random((n, n_labels)) < 0.5
        gold[0], gold[1] = True, False   # every label has both signs
        codes, rows = [f"c{j}" for j in range(n_labels)], rows_of(X)
        tracemalloc.start()
        try:
            ovr = baseline.train_flat(rows, cells(gold), codes,
                                      baseline.SvmConfig(epochs=1, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ovr.weights.shape == (n_labels, dim)
        assert peak < 1.5 * ovr.weights.nbytes

    def test_hierarchical_prediction_matches_per_code_loop(self):
        rng = np.random.default_rng(23)
        for case in range(10):
            n_codes, dim = int(rng.integers(1, 14)), 5
            # internal nodes p* are not codes; chains have uneven depths
            nodes = [f"c{i}" for i in range(n_codes)] + [f"p{i}" for i in range(4)]
            parents = {}
            for i, node in enumerate(nodes[1:], 1):
                if rng.random() < 0.7:
                    parents[node] = nodes[int(rng.integers(0, i))]
            codes = nodes[:n_codes]
            rows = np.flatnonzero(rng.random(len(nodes)) < 0.6)
            m = baseline.LinearOvrModel(nodes, rows, rng.normal(size=(len(rows), dim)),
                                        rng.normal(size=len(nodes)), hierarchical=True)
            X = rng.normal(size=(15, dim))
            pred = baseline.predict_hierarchical(m, X, codes, parents)
            assert pred.dtype == bool and pred.shape == (15, n_codes)
            assert np.array_equal(pred, loop_predict_hierarchical(m, X, codes, parents))
