import math

import numpy as np
import pytest

from mvclda import baseline
from mvclda.corpus import read_tensor_file


class TestTfidf:
    def test_hand_case(self):
        docs = [["a", "a", "b"], ["b"]]
        feat = baseline.fit_tfidf(docs)
        # df(a)=1, df(b)=2, N=2 -> idf(a)=ln2, idf(b)=0
        assert feat.idf[feat.term_index["a"]] == pytest.approx(math.log(2), abs=1e-12)
        assert feat.idf[feat.term_index["b"]] == 0.0
        X = feat.transform([["a", "a", "b"]])
        # unnormalized weights (2 ln2, 0) -> normalized (1, 0)
        assert X[0, feat.term_index["a"]] == pytest.approx(1.0, abs=1e-12)
        assert X[0, feat.term_index["b"]] == 0.0

    def test_ubiquitous_term_weight_zero(self):
        docs = [["x", "y"], ["x", "z"], ["x", "y"]]
        feat = baseline.fit_tfidf(docs)
        X = feat.transform(docs)
        assert np.all(X[:, feat.term_index["x"]] == 0.0)

    def test_small_corpus_keeps_all_terms(self):
        docs = [["a", "b"], ["c"]]
        feat = baseline.fit_tfidf(docs)
        assert sorted(feat.terms) == ["a", "b", "c"]

    def test_selection_by_doc_freq_then_lexicographic(self):
        docs = [["b", "a"], ["b", "a"], ["b"], ["z"]]
        feat = baseline.fit_tfidf(docs, max_features=2)
        assert feat.terms == ["b", "a"]

    def test_vectors_unit_or_zero_norm(self):
        rng = np.random.default_rng(0)
        vocabulary = [f"t{i}" for i in range(20)]
        docs = [
            [vocabulary[int(k)] for k in rng.integers(0, 20, rng.integers(0, 12))]
            for _ in range(30)
        ]
        feat = baseline.fit_tfidf(docs)
        X = feat.transform(docs)
        norms = np.linalg.norm(X, axis=1)
        assert np.all((np.abs(norms - 1) < 1e-12) | (norms == 0))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            baseline.fit_tfidf([])


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
        feat = baseline.fit_tfidf(docs)
        X = feat.transform(docs)
        ovr = baseline.train_flat(X, gold, ["L0", "L1"], baseline.SvmConfig(seed=1))
        pred = baseline.predict_flat(ovr, X)
        assert np.array_equal(pred, gold.astype(bool))

    def test_zero_positive_label_always_negative(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(15, 6))
        gold = np.zeros((15, 2))
        gold[:, 0] = (rng.random(15) < 0.5).astype(float)
        gold[0, 0] = 1
        ovr = baseline.train_flat(X, gold, ["a", "b"], baseline.SvmConfig(seed=2))
        pred = baseline.predict_flat(ovr, rng.normal(size=(40, 6)))
        assert not pred[:, 1].any()

    def test_all_positive_label_always_positive(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(10, 4))
        gold = np.ones((10, 1))
        ovr = baseline.train_flat(X, gold, ["a"], baseline.SvmConfig(seed=3))
        assert baseline.predict_flat(ovr, rng.normal(size=(20, 4))).all()

    def test_deterministic_under_fixed_seed(self):
        docs, gold = separable_dataset()
        feat = baseline.fit_tfidf(docs)
        X = feat.transform(docs)
        a = baseline.train_flat(X, gold, ["L0", "L1"], baseline.SvmConfig(seed=4))
        b = baseline.train_flat(X, gold, ["L0", "L1"], baseline.SvmConfig(seed=4))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


def _manual_model(nodes, fire: dict[str, bool], dim=3):
    weights = np.zeros((len(nodes), dim))
    bias = np.array([1.0 if fire[n] else -1.0 for n in nodes])
    return baseline.LinearOvrModel(nodes=nodes, weights=weights, bias=bias, hierarchical=True)


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
            m = baseline.LinearOvrModel(codes, weights, bias, hierarchical=True)
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
        hier = baseline.LinearOvrModel(codes, weights, bias, hierarchical=True)
        flat = baseline.LinearOvrModel(codes, weights, bias)
        X = rng.normal(size=(25, 4))
        hp = baseline.predict_hierarchical(hier, X, codes, parents)
        fp = baseline.predict_flat(flat, X)
        assert np.array_equal(hp[:, 0], fp[:, 0])
        assert np.array_equal(hp[:, 1], fp[:, 1])

    def test_training_routes_pool_through_parent_subtree(self):
        # parent subtree = {parent, child}; child classifier trains only on
        # documents whose gold intersects the parent's subtree
        docs_tokens = [["p"], ["p", "c"], ["q"], ["q"]]
        feat = baseline.fit_tfidf(docs_tokens)
        X = feat.transform(docs_tokens)
        gold = np.array([
            [1, 0, 0],
            [1, 1, 0],
            [0, 0, 1],
            [0, 0, 1],
        ], dtype=float)
        codes = ["parent", "child", "other"]
        parents = {"child": "parent"}
        m = baseline.train_hierarchical(X, gold, codes, parents, baseline.SvmConfig(seed=7))
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
            X, gold, ["leaf"], {"leaf": "internal"}, baseline.SvmConfig(seed=8)
        )
        assert set(m.nodes) == {"leaf", "internal"}


class TestSerialization:
    def test_round_trip(self, tmp_path):
        docs, gold = separable_dataset()
        feat = baseline.fit_tfidf(docs)
        X = feat.transform(docs)
        ovr = baseline.train_flat(X, gold, ["L0", "L1"], baseline.SvmConfig(seed=9))
        path = tmp_path / "model.bin"
        baseline.save_baseline(path, feat, ovr)
        header, arrays = read_tensor_file(
            path, baseline.BASELINE_FORMAT, baseline.BASELINE_FORMAT_VERSION
        )
        assert header["terms"] == feat.terms
        assert header["nodes"] == ovr.nodes
        assert header["hierarchical"] is False
        assert np.array_equal(arrays["idf"], feat.idf)
        assert np.array_equal(arrays["weights"], ovr.weights)
        assert np.array_equal(arrays["bias"], ovr.bias)
