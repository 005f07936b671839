"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete. Learning-behavior thresholds were validated by
reference runs before being frozen here.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from mvclda import baseline, cli, corpus, embed, hyperband as hb, metrics, model, train as tr

from oracles import (
    brute_macro_f1,
    brute_micro_f1,
    brute_precision_at_n,
    cells,
    dense_gold,
    fd_gradcheck,
    grid_pr_auc,
    hand_pearson,
    random_table,
    reference_loss,
    word_table,
)


def report_line(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:02d} {description}: {status}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    ids = rng.integers(0, 50, 30)
    gold = (rng.random(5) < 0.5).astype(float)
    gold[0] = 1.0  # keep the regularizer active
    desc = [rng.integers(0, 50, int(rng.integers(2, 6))) for _ in range(5)]
    worst = 0.0
    for kind in ("mvc-lda", "mvc-rlda"):
        cfg = model.ModelConfig(
            kind=kind, kernel_sizes=(1, 3, 5, 7), n_filters=6, embed_dim=8,
            lambda_=0.01 if kind == "mvc-rlda" else 0.0,
        )
        rng = np.random.default_rng(11)
        params = model.init_params(cfg, 50, 5, rng, random_table(rng, 50, 8), dtype=np.float64)
        desc_arg = desc if kind == "mvc-rlda" else None

        def loss_fn():
            return reference_loss(model.forward(ids, 30, params), gold, params, desc_arg)

        _, grads = model.backward([(ids, 30, np.flatnonzero(gold), None)], params, desc_arg)
        worst = max(worst, fd_gradcheck(params, loss_fn, grads, step=1e-5, rtol=1e-4))
    elapsed = time.perf_counter() - started
    report_line(
        1, "gradients match central finite differences", elapsed < 60.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s, every parameter checked",
    )


# ---------------------------------------------------------------------------
# 2. Equation fidelity micro-tests
# ---------------------------------------------------------------------------

def test_criterion_02_equation_fidelity():
    ok = True
    # one document on the live path: embedded rows [1, 2, 3], a kernel-1
    # channel [1] and a kernel-3 channel [0.5, 0.5, 0.5], one label with
    # V = [2], K = 1, d = 0, and length 5000
    rng = np.random.default_rng(2)
    params = model.init_params(
        model.ModelConfig(kernel_sizes=(1, 3), n_filters=1, embed_dim=1),
        3, 1, rng, random_table(rng, 3, 1), dtype=np.float64,
    )
    params["W_e"][:, 0] = [1.0, 2.0, 3.0]
    params.conv[0][:] = 1.0
    params.conv[1][:] = 0.5
    params["V"][:], params["K"][:], params["d"][:] = 2.0, 1.0, 0.0
    C, G, _ = model._frames(np.array([0, 1, 2]), params, None,
                            model._stack_kernels(params.conv), False)
    P, T, _ = model._label_side(G[None], [5000], params)
    # convolution cross-channel max: pre-tanh max([1,2,3], [1.5,3,2.5])
    m = np.tanh([1.5, 3.0, 3.0])
    ok &= bool(np.all(np.abs(C[:, 0] - m) < 1e-12))
    # attention pooling: P = C^T (C V) = 2 (tanh^2 1.5 + 2 tanh^2 3)
    ok &= abs(P[0, 0, 0] - 2.0 * float(m @ m)) < 1e-12
    # length feature: sigmoid(0.5) at scaled length 0.5
    ok &= abs(T[0, 0] - 1.0 / (1.0 + math.exp(-0.5))) < 1e-12
    # binary cross entropy: y=0.5, g=1 -> ln 2
    ok &= abs(model.loss_mvc_lda(np.array([0.5]), np.array([1.0])) - math.log(2)) < 1e-12
    # the regularized loss backward returns reduces exactly to the base
    # loss when gold is empty
    rng = np.random.default_rng(2)
    params = model.init_params(
        model.ModelConfig(kind="mvc-rlda", kernel_sizes=(1, 3), n_filters=4,
                          embed_dim=5, lambda_=0.7),
        20, 3, rng, random_table(rng, 20, 5), dtype=np.float64,
    )
    desc = [np.array([1, 2]), np.array([3, 4]), np.array([5])]
    ids, g = np.array([6, 7, 8, 9]), np.zeros(3)
    loss, _ = model.backward([(ids, 4, np.flatnonzero(g), None)], params, desc)
    ok &= abs(loss - model.loss_mvc_lda(model.forward(ids, 4, params), g)) < 1e-12
    report_line(2, "hand-derived equation cases exact to 1e-12", ok)


# ---------------------------------------------------------------------------
# 3. Metric oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_03_metric_oracle_equivalence():
    rng = np.random.default_rng(303)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 21))
        j = int(rng.integers(2, 31))
        # scores on a 1/256 lattice so the 10,001-point grid oracle resolves
        # every distinct score
        scores = np.round(rng.random((n, j)) * 256) / 256.0
        gold = (rng.random((n, j)) < 0.3).astype(float)
        pred = metrics.binarize(scores)
        assert abs(metrics.micro_f1(pred, cells(gold)) - brute_micro_f1(pred, gold)) < 1e-12
        k = min(3, j)
        assert abs(
            metrics.precision_at_n(scores, cells(gold), k)
            - brute_precision_at_n(scores, gold, k)
        ) < 1e-12
        supported = np.flatnonzero(gold.sum(axis=0) > 0)
        if supported.size:
            assert abs(
                metrics.macro_f1(metrics.label_counts(pred, cells(gold)), supported)
                - brute_macro_f1(pred, gold, supported)
            ) < 1e-12
        if gold.sum() > 0:
            assert abs(metrics.pr_auc(scores, cells(gold)) - grid_pr_auc(scores, gold)) < 1e-3
        checked += 1
    report_line(3, "metrics match brute-force oracles", checked == 200,
                f"{checked} random matrices")


# ---------------------------------------------------------------------------
# 4/6a. Synthetic learning corpus (shared fixture)
# ---------------------------------------------------------------------------

LEARN_CFG = corpus.SynthConfig(
    n_codes=20, zipf_exponent=1.0, n_train=500, n_dev=100, n_test=100,
    background_vocab=150, evidence_len_min=2, evidence_len_max=6,
    doc_len_min=40, doc_len_max=120, coupling=0.8, seed=42,
)


def encode(raws, vocab, labels):
    """`corpus.encode_corpus` of raw documents: their tokens and gold ids."""
    golds, dropped = zip(*(corpus.encode_gold(d, labels) for d in raws))
    return corpus.encode_corpus(*word_table([corpus.preprocess_text(d.text) for d in raws]),
                                (list(golds), sum(dropped)), vocab)


@pytest.fixture(scope="module")
def learn_corpus():
    synth = corpus.generate_synthetic_corpus(LEARN_CFG)
    token_docs = [corpus.preprocess_text(d.text) for d in synth.train]
    vocab = corpus.build_vocabulary(*word_table(token_docs), 3)
    train_docs, _ = encode(synth.train, vocab, synth.labels)
    dev_docs, _ = encode(synth.dev, vocab, synth.labels)
    test_docs, _ = encode(synth.test, vocab, synth.labels)
    return synth, vocab, train_docs, dev_docs, test_docs


def test_criterion_04_synthetic_learning(learn_corpus):
    started = time.perf_counter()
    synth, vocab, train_docs, dev_docs, test_docs = learn_corpus
    table = embed.train_cbow(
        [d.token_ids for d in train_docs], vocab.size,
        embed.CbowConfig(dim=32, window=5, epochs=2, seed=42),
    )
    cfg = model.ModelConfig(
        kind="mvc-lda", kernel_sizes=(2, 4, 6, 8), n_filters=24, embed_dim=32,
        lambda_=0.0,
    )
    params0 = model.init_params(cfg, vocab.size, 20, np.random.default_rng(42),
                                embeddings=table)
    tcfg = tr.TrainConfig(batch_size=4, max_epochs=30, patience=10, dropout=0.2, seed=42)
    best, history = tr.train(params0, train_docs, dev_docs, None, tcfg)

    gold = dense_gold(test_docs, 20)
    scores = model.predict_matrix(best, test_docs)
    test_f1 = metrics.micro_f1(metrics.binarize(scores), cells(gold))

    # label-prior comparator: predict the k most frequent training codes for
    # every document, k = rounded mean training cardinality
    train_gold = dense_gold(train_docs, 20)
    k = max(1, int(round(train_gold.sum(axis=1).mean())))
    top = np.argsort(-train_gold.sum(axis=0))[:k]
    prior = np.zeros_like(gold, dtype=bool)
    prior[:, top] = True
    prior_f1 = metrics.micro_f1(prior, cells(gold))

    elapsed = time.perf_counter() - started
    ok = (
        test_f1 >= 0.80
        and test_f1 - prior_f1 >= 0.30
        and len(history.epochs) <= 30
        and elapsed < 600.0
    )
    report_line(
        4, "MVC-LDA learns the planted synthetic corpus", ok,
        f"test micro F1 {test_f1:.3f} vs prior {prior_f1:.3f}, "
        f"{len(history.epochs)} epochs, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 5. Regularization direction on rare codes
# ---------------------------------------------------------------------------

def test_criterion_05_regularization_helps_rare_codes():
    cfg = corpus.SynthConfig(
        n_codes=40, zipf_exponent=1.5, n_train=250, n_dev=60, n_test=150,
        background_vocab=120, evidence_len_min=2, evidence_len_max=5,
        doc_len_min=30, doc_len_max=80, coupling=0.5, seed=77,
    )
    synth = corpus.generate_synthetic_corpus(cfg)
    token_docs = [corpus.preprocess_text(d.text) for d in synth.train]
    vocab = corpus.build_vocabulary(*word_table(token_docs), 3)
    train_docs, _ = encode(synth.train, vocab, synth.labels)
    dev_docs, _ = encode(synth.dev, vocab, synth.labels)
    test_docs, _ = encode(synth.test, vocab, synth.labels)
    desc_ids = [vocab.encode(t) for t in synth.labels.descriptions]

    train_gold = dense_gold(train_docs, 40)
    test_gold = dense_gold(test_docs, 40)
    rare = np.flatnonzero(train_gold.sum(axis=0) <= 3)
    assert rare.size >= 8, f"corpus has only {rare.size} rare codes"
    assert test_gold[:, rare].sum() > 0

    table = embed.train_cbow(
        [d.token_ids for d in train_docs], vocab.size,
        embed.CbowConfig(dim=32, window=5, epochs=2, seed=77),
    )

    def run(kind, seed):
        mcfg = model.ModelConfig(
            kind=kind, kernel_sizes=(2, 4, 6, 8), n_filters=24, embed_dim=32,
            lambda_=0.01 if kind == "mvc-rlda" else 0.0,
        )
        p0 = model.init_params(mcfg, vocab.size, 40, np.random.default_rng(seed),
                               embeddings=table, dtype=np.float64)
        tcfg = tr.TrainConfig(batch_size=4, max_epochs=12, patience=12,
                              dropout=0.2, seed=seed)
        best, _ = tr.train(p0, train_docs, dev_docs,
                           desc_ids if kind == "mvc-rlda" else None, tcfg)
        pred = metrics.binarize(model.predict_matrix(best, test_docs))
        return metrics.micro_f1(pred[:, rare], cells(test_gold[:, rare]))

    lda_scores = [run("mvc-lda", seed) for seed in range(5)]
    rlda_scores = [run("mvc-rlda", seed) for seed in range(5)]
    lda_mean, rlda_mean = float(np.mean(lda_scores)), float(np.mean(rlda_scores))
    report_line(
        5, "regularization does not hurt rare codes (5-seed average)",
        rlda_mean >= lda_mean,
        f"{rare.size} rare codes; rare micro F1 mvc-rlda {rlda_mean:.3f} "
        f"vs mvc-lda {lda_mean:.3f}",
    )


# ---------------------------------------------------------------------------
# 6/10. Length behavior and the ablation harness (shared cmd_ablate run)
# ---------------------------------------------------------------------------

ABLATE_SYNTH_CFG = """\
n_codes = 12
zipf_exponent = 1.0
n_train = 80
n_dev = 20
n_test = 20
background_vocab = 80
evidence_len_min = 2
evidence_len_max = 4
doc_len_min = 20
doc_len_max = 60
coupling = 0.8
"""

ABLATE_TRAIN_CFG = """\
learning_rate = 0.001
batch_size = 4
max_epochs = 4
patience = 10
dropout = 0.2
lambda = 0.01
kernel_sizes = 2,4,6,8
n_filters = 10
embed_dim = 16
cbow_epochs = 2
"""


@pytest.fixture(scope="module")
def ablation_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept-ablate")
    synth_cfg = root / "synth.cfg"
    synth_cfg.write_text(ABLATE_SYNTH_CFG)
    data = root / "data"
    assert cli.main(["synth", "--config", str(synth_cfg), "--out-dir", str(data),
                     "--seed", "21"]) == 0
    train_cfg = root / "train.cfg"
    train_cfg.write_text(ABLATE_TRAIN_CFG)
    out = root / "ablate"
    code = cli.main([
        "ablate", "--model", "mvc-rlda",
        "--train", str(data / "train.jsonl"),
        "--dev", str(data / "dev.jsonl"),
        "--test", str(data / "test.jsonl"),
        "--labels", str(data / "descriptions.tsv"),
        "--config", str(train_cfg),
        "--seed", "21", "--components", "all", "--p-at", "8",
        "--out", str(out),
    ])
    assert code == 0
    return json.loads((out / "ablation.json").read_text())


def test_criterion_06_length_feature_behavior(learn_corpus, ablation_run):
    synth, _, _, _, _ = learn_corpus
    lengths = [len(d.text.split()) for d in synth.train]
    cards = [len(d.codes) for d in synth.train]
    rho = hand_pearson(lengths, cards)
    dev_delta = ablation_run["ablations"]["length_embedding"]["delta"]["dev_micro_f1"]
    ok = rho > 0.3 and dev_delta != 0.0
    report_line(
        6, "length/cardinality coupling and length-ablation effect", ok,
        f"rho {rho:.3f}, length-embedding dev micro F1 delta {dev_delta:+.4f}",
    )


def test_criterion_10_ablation_harness(ablation_run):
    expected = {"regularization", "multi_view", "length_embedding", "extra_notes"}
    ok = set(ablation_run["ablations"]) == expected
    for entry in ablation_run["ablations"].values():
        delta = entry["delta"]
        ok &= {"micro_f1", "pr_auc", "p_at"} <= set(delta)
        # each delta is full minus ablated, recomputed from the two entries
        ok &= abs(delta["micro_f1"] - (ablation_run["full"]["micro_f1"] - entry["micro_f1"])) < 1e-12
        ok &= abs(delta["pr_auc"] - (ablation_run["full"]["pr_auc"] - entry["pr_auc"])) < 1e-12
        ok &= abs(
            delta["p_at"]["8"] - (ablation_run["full"]["p_at"]["8"] - entry["p_at"]["8"])
        ) < 1e-12
    report_line(10, "four-component ablation report with consistent deltas", ok)


# ---------------------------------------------------------------------------
# 7. Hyperband schedule
# ---------------------------------------------------------------------------

def test_criterion_07_hyperband_schedule():
    schedule = [(n, r) for _s, n, r in hb.bracket_schedule(27, 3)]
    ok = schedule == [(27, 1), (12, 3), (6, 9), (4, 27)]

    def evaluate(config):
        return (config.n_filters / 1000.0 + epochs / 100.0 for epochs in itertools.count(1))

    _, _, log = hb.hyperband_search(hb.SearchSpace(), model.ModelConfig(kind="mvc-rlda"),
                                    evaluate, R=27, eta=3, seed=7)
    populations = {}
    for t in log:
        populations.setdefault((t.bracket, t.rung), 0)
        populations[(t.bracket, t.rung)] += 1
    ok &= populations == {
        (3, 0): 27, (3, 1): 9, (3, 2): 3, (3, 3): 1,
        (2, 0): 12, (2, 1): 4, (2, 2): 1,
        (1, 0): 6, (1, 1): 2,
        (0, 0): 4,
    }
    report_line(7, "Hyperband bracket schedule and survivor counts", ok,
                f"schedule {schedule}")


# ---------------------------------------------------------------------------
# 8. Hierarchy closure
# ---------------------------------------------------------------------------

def test_criterion_08_hierarchy_closure():
    rng = np.random.default_rng(808)
    violations = 0
    for _ in range(50):
        n_codes = int(rng.integers(4, 15))
        codes = [f"c{i}" for i in range(n_codes)]
        parents = {codes[i]: codes[int(rng.integers(0, i))] for i in range(1, n_codes)}
        weights = rng.normal(size=(n_codes, 5))
        bias = rng.normal(size=n_codes)
        ovr = baseline.LinearOvrModel(codes, np.arange(n_codes), weights, bias,
                                      hierarchical=True)
        X = rng.normal(size=(30, 5))
        pred = baseline.predict_hierarchical(ovr, X, codes, parents)
        for j, code in enumerate(codes):
            node = code
            while node in parents:
                node = parents[node]
                k = codes.index(node)
                violations += int(np.any(pred[:, j] & ~pred[:, k]))
    report_line(8, "hierarchical predictions ancestor-closed on 50 hierarchies",
                violations == 0)


# ---------------------------------------------------------------------------
# 9. Command determinism
# ---------------------------------------------------------------------------

def test_criterion_09_command_determinism(tmp_path):
    synth_cfg = tmp_path / "synth.cfg"
    synth_cfg.write_text(ABLATE_SYNTH_CFG)
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text(ABLATE_TRAIN_CFG + "max_epochs = 2\n")
    hb_cfg = tmp_path / "hb.cfg"
    hb_cfg.write_text(ABLATE_TRAIN_CFG + "max_epochs = 2\ns0_min = 1\ns0_max = 2\n"
                      "dc_min = 4\ndc_max = 6\n")

    outputs = {}
    for tag in ("one", "two"):
        data = tmp_path / tag / "data"
        assert cli.main(["synth", "--config", str(synth_cfg), "--out-dir", str(data),
                         "--seed", "9"]) == 0
        run_dir = tmp_path / tag / "train"
        assert cli.main([
            "train", "--model", "mvc-rlda",
            "--train", str(data / "train.jsonl"), "--dev", str(data / "dev.jsonl"),
            "--labels", str(data / "descriptions.tsv"),
            "--config", str(train_cfg), "--seed", "9", "--out", str(run_dir),
        ]) == 0
        hb_dir = tmp_path / tag / "hb"
        assert cli.main([
            "hyperband", "--model", "mvc-lda",
            "--train", str(data / "train.jsonl"), "--dev", str(data / "dev.jsonl"),
            "--labels", str(data / "descriptions.tsv"),
            "--config", str(hb_cfg), "--R", "3", "--eta", "3",
            "--seed", "9", "--out", str(hb_dir),
        ]) == 0
        metrics_path = tmp_path / tag / "metrics.json"
        assert cli.main([
            "evaluate", "--checkpoint", str(run_dir / "checkpoint.bin"),
            "--test", str(data / "test.jsonl"),
            "--labels", str(data / "descriptions.tsv"),
            "--vocab", str(run_dir / "vocab.tsv"),
            "--metrics-out", str(metrics_path),
        ]) == 0
        outputs[tag] = {
            "corpus": (data / "train.jsonl").read_bytes()
            + (data / "dev.jsonl").read_bytes()
            + (data / "test.jsonl").read_bytes()
            + (data / "descriptions.tsv").read_bytes()
            + (data / "hierarchy.tsv").read_bytes(),
            "checkpoint": (run_dir / "checkpoint.bin").read_bytes(),
            "trials": (hb_dir / "trials.jsonl").read_bytes(),
            "metrics": metrics_path.read_bytes(),
        }
    same = {name: outputs["one"][name] == outputs["two"][name] for name in outputs["one"]}
    report_line(9, "reruns produce byte-identical artifacts", all(same.values()),
                ", ".join(f"{k}={'ok' if v else 'DIFFERS'}" for k, v in same.items()))
