"""Flat and hierarchical one-vs-rest linear baselines on tf-idf unigrams.

Each label (or hierarchy node) gets an independent binary linear classifier
trained by deterministic subgradient descent on L2-regularized hinge loss.
Hierarchical prediction marks a code present only when its own classifier
and every ancestor's classifier fire, so predictions are ancestor-closed by
construction.

Models are row-sparse: a node whose training pool has no positive or no
negative gets a constant classifier, its bias alone, and keeps no weight
row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import build_vocabulary, write_tensor_file

BASELINE_FORMAT = "mvclda.baseline"
BASELINE_FORMAT_VERSION = 3

_MIN_SCALE = 1e-100


@dataclass
class TfidfFeaturizer:
    terms: list[str]
    idf: np.ndarray
    # the term column of each word-table id and of the id past the table,
    # len(terms) for none
    columns: np.ndarray

    def transform(self, notes) -> tuple[list[np.ndarray], list[np.ndarray], int]:
        """Each note's L2-normalized tf-idf vector (norm 1, or 0 if empty) as
        its nonzero term columns and values, and the term count, for notes of
        ids in the word table the featurizer was fitted on, or the id past it."""
        cols, vals, dim = [], [], len(self.terms)
        for note in notes:  # the last count is of words outside the terms
            x = np.bincount(self.columns[note], minlength=dim + 1)[:-1] * self.idf
            cols.append(x.nonzero()[0])
            # np.linalg.norm's sum, over the full row; an empty note divides no value by 0
            vals.append(x[cols[-1]] / math.sqrt(np.add.reduce(x * x)))
        return cols, vals, dim


def to_dense(rows) -> np.ndarray:
    """The notes x terms matrix of `TfidfFeaturizer.transform`'s rows."""
    X = np.zeros((len(rows[0]), rows[2]))
    for x, cols, vals in zip(X, rows[0], rows[1]):
        x[cols] = vals
    return X


@dataclass(frozen=True)
class TfidfConfig:
    max_features: int = 10_000
    min_doc_freq: int = 1

    def __post_init__(self):
        if self.max_features < 1:
            raise ValueError("max_features must be >= 1")
        if self.min_doc_freq < 1:
            raise ValueError(f"min_doc_freq must be >= 1, not {self.min_doc_freq}")


def fit_tfidf(notes, words: dict[str, int], cfg: TfidfConfig) -> TfidfFeaturizer:
    """Select the `cfg.max_features` most document-frequent unigrams (ties
    lexicographic: the `build_vocabulary` ranking) among those in at least
    `cfg.min_doc_freq` of the notes, each an array of ids in the word table
    `words`, and fit idf = ln(N / df). An empty corpus, or a floor that
    keeps no term of one with a token, raises ValueError."""
    vocab = build_vocabulary(notes, words, cfg.min_doc_freq)
    if not vocab.id_to_token and any(map(len, notes)):
        raise ValueError(f"no term occurs in min_doc_freq = {cfg.min_doc_freq} documents")
    terms = vocab.id_to_token[:cfg.max_features]
    n = len(notes)
    idf = np.array([math.log(n / vocab.doc_freq[t]) for t in terms])
    return TfidfFeaturizer(terms, idf, np.minimum(vocab.lookup(words), len(terms)))


@dataclass(frozen=True)
class SvmConfig:
    epochs: int = 30
    reg: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        # the Pegasos step size is 1 / (reg * t)
        if not (math.isfinite(self.reg) and self.reg > 0.0):
            raise ValueError("svm_reg must be finite and > 0")
        if self.epochs < 1:
            raise ValueError("svm_epochs must be >= 1")


def _row_steps(rows) -> list[tuple]:
    """Each row of `TfidfFeaturizer.transform`'s output as what a Pegasos
    step reads: its nonzero columns, their values and the values' bound
    `dot`."""
    return [(cols, vals, vals.dot) for cols, vals in zip(rows[0], rows[1])]


def _train_hinge(steps: list[tuple], y: list[float], cfg: SvmConfig, label_seed: int,
                 v: np.ndarray) -> float:
    """Pegasos-style subgradient descent on hinge loss with L2 penalty over
    `steps`, `_row_steps` of the pool's rows, with y +/-1 per row and both
    signs present.

    Trains w into `v`, zeros on entry, and returns b, which is unregularized.
    w is kept as a * v (Shalev-Shwartz et al., 2011), so the shrink is O(1)
    and the margin and the update touch only the sample's nonzeros. Step
    sizes, margins and the scale are Python floats: a numpy product would
    raise under the commands' errstate where `reg * t` overflows and the
    step size is 0.
    """
    reg, inv_reg = cfg.reg, 1.0 / cfg.reg
    rng = np.random.default_rng(label_seed)
    a = 1.0
    b = 0.0
    t = 0
    for _epoch in range(cfg.epochs):
        for i in rng.permutation(len(steps)).tolist():
            t += 1
            lr = 1.0 / (reg * (t + inv_reg))
            cols, vals, dot = steps[i]
            y_i = y[i]
            v_row = v[cols]
            margin = y_i * (a * float(dot(v_row)) + b)
            a *= 1.0 - lr * reg
            if a < _MIN_SCALE:  # fold the scale into v before it underflows
                v *= a
                v_row *= a
                a = 1.0
            if margin < 1.0:
                v_row += (lr * y_i / a) * vals
                v[cols] = v_row
                b += lr * y_i
    v *= a
    return b


@dataclass
class LinearOvrModel:
    """One binary linear classifier per node name.

    Flat models have one node per label code; hierarchical models one per
    hierarchy node (label codes plus internal parents). Only the trained
    nodes `rows` have weights; every other node's score is its bias.
    """

    nodes: list[str]
    rows: np.ndarray               # ascending node indices of the trained classifiers
    weights: np.ndarray            # len(rows) x dim
    bias: np.ndarray               # n_nodes
    hierarchical: bool = False

    def __post_init__(self):
        self.node_index = {n: i for i, n in enumerate(self.nodes)}

    def decision(self, X: np.ndarray) -> np.ndarray:
        scores = np.tile(self.bias, (X.shape[0], 1))
        scores[:, self.rows] += X @ self.weights.T
        return scores


def train_flat(rows, gold, codes, cfg: SvmConfig) -> LinearOvrModel:
    """Independent classifier per label, for `transform`'s rows and their gold
    cells (`gold_cells`); zero-positive labels get an always-negative
    classifier. This is the hierarchical trainer over an empty hierarchy."""
    return _train_ovr(rows, gold, codes, {}, cfg, hierarchical=False)


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


def _ancestor_chains(codes, parents: dict[str, str]) -> list[list[str]]:
    """Per code, the hierarchy nodes from the code itself up to its root."""
    chains = []
    for code in codes:
        chain = [code]
        while chain[-1] in parents:
            chain.append(parents[chain[-1]])
        chains.append(chain)
    return chains


def _subtree_columns(chains) -> dict[str, list[int]]:
    """Node -> label columns whose code lies in the node's subtree (the
    node itself included when it is a label), from one pass over the
    chains."""
    cols: dict[str, list[int]] = {}
    for j, chain in enumerate(chains):
        for node in chain:
            cols.setdefault(node, []).append(j)
    return cols


def train_hierarchical(rows, gold, codes, parents: dict[str, str],
                       cfg: SvmConfig) -> LinearOvrModel:
    """One classifier per hierarchy node, for `transform`'s rows and their
    gold cells. A node's training pool is every document whose gold set
    intersects its parent's subtree (root-level nodes see all documents);
    positives are the documents intersecting the node's own subtree."""
    return _train_ovr(rows, gold, codes, parents, cfg, hierarchical=True)


def _train_ovr(rows, gold, codes, parents: dict[str, str], cfg: SvmConfig,
               hierarchical: bool) -> LinearOvrModel:
    """`train_hierarchical`'s rule; without parents every node is a root-level
    label with its own column as positives, which is `train_flat`."""
    codes = list(codes)
    nodes = _hierarchy_nodes(codes, parents)
    subtree_cols = _subtree_columns(_ancestor_chains(codes, parents))
    # each label's positive documents: the gold cells grouped by label
    doc_ids, label_ids = gold
    ends = np.cumsum(np.bincount(label_ids, minlength=len(codes)))
    label_docs = np.split(doc_ids[np.argsort(label_ids, kind="stable")], ends[:-1])
    # each node's positive documents, sorted: those with gold in its subtree
    subtree_docs = {node: np.unique(np.concatenate([label_docs[j] for j in node_cols]))
                    for node, node_cols in subtree_cols.items()}
    no_docs, all_docs = np.zeros(0, dtype=np.int64), np.arange(len(rows[0]))
    # each node's pool and its positives, which lie in the sorted pool
    pools = [(subtree_docs.get(parents[node], no_docs) if node in parents else all_docs,
              subtree_docs.get(node, no_docs)) for node in nodes]
    # a pool with no positive or no negative gives the constant classifier,
    # its bias alone
    bias = np.zeros(len(nodes))
    trained = []
    for k, (pool, positives) in enumerate(pools):
        if not len(positives):
            bias[k] = -1.0
        elif len(positives) == len(pool):
            bias[k] = 1.0
        else:
            trained.append(k)
    weights = np.zeros((len(trained), rows[2]))
    steps = _row_steps(rows)
    for k, w in zip(trained, weights):
        pool, positives = pools[k]
        y = np.full(len(pool), -1.0)
        y[np.searchsorted(pool, positives)] = 1.0
        bias[k] = _train_hinge([steps[r] for r in pool.tolist()], y.tolist(), cfg,
                               cfg.seed * 100_003 + k, w)
    return LinearOvrModel(nodes=nodes, rows=np.array(trained, dtype=np.int64),
                          weights=weights, bias=bias, hierarchical=hierarchical)


def predict_hierarchical(
    model: LinearOvrModel, X: np.ndarray, codes, parents: dict[str, str]
) -> np.ndarray:
    """A code is present iff its classifier and every ancestor's classifier
    predict positive; the positive set is therefore ancestor-closed."""
    chains = _ancestor_chains(codes, parents)
    depth = max(map(len, chains), default=1)
    # each code's chain as node indices, padded with the code's own node
    index = np.empty((len(chains), depth), dtype=np.int64)
    for j, chain in enumerate(chains):
        try:
            cols = [model.node_index[n] for n in chain]
        except KeyError as exc:
            raise ValueError(f"no classifier for hierarchy node {exc.args[0]!r}") from exc
        index[j] = cols + cols[:1] * (depth - len(cols))
    fired = model.decision(X) > 0
    return fired[:, index].all(axis=2)


def save_baseline(path, featurizer: TfidfFeaturizer, model: LinearOvrModel) -> None:
    """The featurizer's terms, the model's nodes and its trained node
    indices `rows` in a tensor-file header, then the idf, the trained rows'
    weights and every node's bias."""
    header = {
        "format": BASELINE_FORMAT,
        "version": BASELINE_FORMAT_VERSION,
        "hierarchical": model.hierarchical,
        "terms": featurizer.terms,
        "nodes": model.nodes,
        "rows": model.rows.tolist(),
    }
    write_tensor_file(path, header, [
        ("idf", featurizer.idf), ("weights", model.weights), ("bias", model.bias),
    ])
