"""Flat and hierarchical one-vs-rest linear baselines on tf-idf unigrams.

Each label (or hierarchy node) gets an independent binary linear classifier
trained by deterministic subgradient descent on L2-regularized hinge loss.
Hierarchical prediction marks a code present only when its own classifier
and every ancestor's classifier fire, so predictions are ancestor-closed by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import write_tensor_file

BASELINE_FORMAT = "mvclda.baseline"
BASELINE_FORMAT_VERSION = 2

MAX_FEATURES = 10_000


@dataclass
class TfidfFeaturizer:
    terms: list[str]
    idf: np.ndarray

    def __post_init__(self):
        self.term_index = {t: i for i, t in enumerate(self.terms)}

    def transform(self, token_docs) -> np.ndarray:
        """L2-normalized tf-idf vectors (rows of norm 1, or 0 if empty)."""
        X = np.zeros((len(token_docs), len(self.terms)))
        for i, doc in enumerate(token_docs):
            for tok in doc:
                k = self.term_index.get(tok)
                if k is not None:
                    X[i, k] += 1.0
        X *= self.idf
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        np.divide(X, norms, out=X, where=norms > 0)
        return X


def fit_tfidf(token_docs, max_features: int = MAX_FEATURES) -> TfidfFeaturizer:
    """Select the most document-frequent unigrams (ties lexicographic) and
    fit idf = ln(N / df)."""
    if not token_docs:
        raise ValueError("cannot fit tf-idf on an empty corpus")
    df: dict[str, int] = {}
    for doc in token_docs:
        for tok in set(doc):
            df[tok] = df.get(tok, 0) + 1
    terms = sorted(df, key=lambda t: (-df[t], t))[:max_features]
    n = len(token_docs)
    idf = np.array([math.log(n / df[t]) for t in terms])
    return TfidfFeaturizer(terms=terms, idf=idf)


@dataclass(frozen=True)
class SvmConfig:
    epochs: int = 30
    reg: float = 1e-4
    seed: int = 0


def _train_hinge(X: np.ndarray, y: np.ndarray, cfg: SvmConfig, label_seed: int):
    """Pegasos-style subgradient descent on hinge loss with L2 penalty.

    y is +/-1. Returns (w, b); b is unregularized.
    """
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


@dataclass
class LinearOvrModel:
    """One binary linear classifier per node name.

    Flat models have one node per label code; hierarchical models one per
    hierarchy node (label codes plus internal parents).
    """

    nodes: list[str]
    weights: np.ndarray            # n_nodes x dim
    bias: np.ndarray               # n_nodes
    hierarchical: bool = False

    def __post_init__(self):
        self.node_index = {n: i for i, n in enumerate(self.nodes)}

    def decision(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights.T + self.bias


def train_flat(X: np.ndarray, gold: np.ndarray, codes, cfg: SvmConfig) -> LinearOvrModel:
    """Independent classifier per label; zero-positive labels get an
    always-negative classifier."""
    codes = list(codes)
    weights = np.zeros((len(codes), X.shape[1]))
    bias = np.zeros(len(codes))
    for j in range(len(codes)):
        y = np.where(np.asarray(gold)[:, j] > 0, 1.0, -1.0)
        weights[j], bias[j] = _train_hinge(X, y, cfg, label_seed=cfg.seed * 100_003 + j)
    return LinearOvrModel(nodes=codes, weights=weights, bias=bias)


def predict_flat(model: LinearOvrModel, X: np.ndarray) -> np.ndarray:
    return model.decision(X) > 0


def _hierarchy_nodes(codes, parents: dict[str, str]) -> list[str]:
    nodes = list(codes)
    seen = set(nodes)
    for child in sorted(parents):
        node = child
        while node in parents:
            node = parents[node]
            if node not in seen:
                seen.add(node)
                nodes.append(node)
    return nodes


def _subtree_label_columns(node: str, codes, parents: dict[str, str]) -> np.ndarray:
    """Label-space columns whose code lies in the subtree rooted at `node`
    (the node itself included when it is a label)."""
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


def train_hierarchical(
    X: np.ndarray, gold: np.ndarray, codes, parents: dict[str, str], cfg: SvmConfig
) -> LinearOvrModel:
    """One classifier per hierarchy node. A node's training pool is every
    document whose gold set intersects its parent's subtree (root-level
    nodes see all documents); positives are the documents intersecting the
    node's own subtree."""
    codes = list(codes)
    gold = np.asarray(gold)
    nodes = _hierarchy_nodes(codes, parents)
    subtree_pos = {
        node: gold[:, _subtree_label_columns(node, codes, parents)].any(axis=1)
        if _subtree_label_columns(node, codes, parents).size
        else np.zeros(len(gold), dtype=bool)
        for node in nodes
    }
    weights = np.zeros((len(nodes), X.shape[1]))
    bias = np.zeros(len(nodes))
    for k, node in enumerate(nodes):
        parent = parents.get(node)
        pool = subtree_pos[parent] if parent is not None else np.ones(len(gold), dtype=bool)
        pool_idx = np.flatnonzero(pool)
        if pool_idx.size == 0:
            weights[k], bias[k] = np.zeros(X.shape[1]), -1.0
            continue
        y = np.where(subtree_pos[node][pool_idx], 1.0, -1.0)
        weights[k], bias[k] = _train_hinge(
            X[pool_idx], y, cfg, label_seed=cfg.seed * 100_003 + k
        )
    return LinearOvrModel(nodes=nodes, weights=weights, bias=bias, hierarchical=True)


def predict_hierarchical(
    model: LinearOvrModel, X: np.ndarray, codes, parents: dict[str, str]
) -> np.ndarray:
    """A code is present iff its classifier and every ancestor's classifier
    predict positive; the positive set is therefore ancestor-closed."""
    fired = model.decision(X) > 0
    out = np.zeros((X.shape[0], len(codes)), dtype=bool)
    for j, code in enumerate(codes):
        chain = [code]
        node = code
        while node in parents:
            node = parents[node]
            chain.append(node)
        try:
            cols = [model.node_index[n] for n in chain]
        except KeyError as exc:
            raise ValueError(f"no classifier for hierarchy node {exc.args[0]!r}") from exc
        out[:, j] = fired[:, cols].all(axis=1)
    return out


def save_baseline(path, featurizer: TfidfFeaturizer, model: LinearOvrModel) -> None:
    """The featurizer's terms and the model's nodes in a tensor-file header,
    then the idf, weights and bias tensors."""
    header = {
        "format": BASELINE_FORMAT,
        "version": BASELINE_FORMAT_VERSION,
        "hierarchical": model.hierarchical,
        "terms": featurizer.terms,
        "nodes": model.nodes,
    }
    write_tensor_file(path, header, [
        ("idf", featurizer.idf), ("weights", model.weights), ("bias", model.bias),
    ])
