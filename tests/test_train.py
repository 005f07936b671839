import dataclasses
import json
import math

import numpy as np
import pytest

from mvclda import cli, model, train
from mvclda.corpus import EncodedDocument

from oracles import inplace_adam_step, random_table
from test_cli import corpus_dir, train_cfg_path  # noqa: F401 (fixtures)


def tiny_dataset(rng, n_docs=10, n_labels=5, vocab=30, length=12):
    """Planted-signal documents: token id j marks label j positive."""
    docs = []
    for i in range(n_docs):
        positives = rng.choice(n_labels, size=int(rng.integers(1, 3)), replace=False)
        ids = list(rng.integers(n_labels, vocab, length - len(positives)))
        ids.extend(int(j) for j in positives)
        ids = np.array(ids, dtype=np.int64)
        rng.shuffle(ids)
        docs.append(EncodedDocument(ids, np.sort(positives).astype(np.int64)))
    return docs


def tiny_params(kind="mvc-lda", seed=0, n_labels=5, vocab=30, dtype=np.float32, **kwargs):
    cfg = model.ModelConfig(
        kind=kind, kernel_sizes=(1, 3), n_filters=6, embed_dim=8,
        lambda_=0.01 if kind == "mvc-rlda" else 0.0, **kwargs,
    )
    rng = np.random.default_rng(seed)
    return model.init_params(cfg, vocab, n_labels, rng, random_table(rng, vocab, 8), dtype=dtype)


def tiny_descriptions(rng, n_labels=5, vocab=30):
    return [rng.integers(0, vocab, 3) for _ in range(n_labels)]


class TestTruncateSegment:
    def test_short_document_unchanged(self):
        ids = np.arange(9_999)
        out = train.truncate_segment(ids, 10_000, np.random.default_rng(0))
        assert out is ids

    def test_long_document_contiguous_window(self):
        ids = np.arange(10_001)
        out = train.truncate_segment(ids, 10_000, np.random.default_rng(0))
        assert len(out) == 10_000
        assert np.array_equal(out, np.arange(out[0], out[0] + 10_000))

    def test_fixed_seed_fixed_offset(self):
        ids = np.arange(500)
        a = train.truncate_segment(ids, 100, np.random.default_rng(7))
        b = train.truncate_segment(ids, 100, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_offsets_cover_range(self):
        ids = np.arange(30)
        rng = np.random.default_rng(1)
        offsets = {int(train.truncate_segment(ids, 29, rng)[0]) for _ in range(50)}
        assert offsets == {0, 1}


class TestAdamStep:
    def test_zero_gradient_leaves_params(self):
        params = tiny_params(seed=1)
        before = {name: arr.copy() for name, arr in params.tensors()}
        state = train.AdamState.for_params(params)
        grads = model.GradientSet.zeros_like(params, np.arange(params.vocab_size))
        train.adam_step(params, grads, state, train.TrainConfig())
        assert state.t == 1
        for name, arr in params.tensors():
            assert np.array_equal(arr, before[name]), name

    def test_first_step_hand_value(self):
        # theta=0, g=1, lr=0.001: bias-corrected m_hat = v_hat = 1
        # -> theta' = -lr / (1 + eps) ~ -0.001
        params = tiny_params(seed=2)
        params["b"][:] = 0.0
        state = train.AdamState.for_params(params)
        grads = model.GradientSet.zeros_like(params, np.arange(params.vocab_size))
        grads["b"][:] = 1.0
        train.adam_step(params, grads, state, train.TrainConfig())
        assert params["b"][0] == pytest.approx(-0.001, abs=1e-8)

    def test_identical_gradients_identical_updates(self):
        params = tiny_params(seed=3)
        params["b"][:] = 0.5
        state = train.AdamState.for_params(params)
        grads = model.GradientSet.zeros_like(params, np.arange(params.vocab_size))
        grads["b"][:] = 0.37
        train.adam_step(params, grads, state, train.TrainConfig())
        assert np.all(params["b"] == params["b"][0])

    # At 30 elements a block: b, K, d and desc_b lie below one block, V and U
    # (5 x 6) fill one, and W_e (30 x 8, blocks of 3 rows), the kernels
    # (rows of 48) and desc_W (6 x 6) span several. At the module's block,
    # W_e spans three blocks and a partial fourth.
    @pytest.mark.parametrize("block", [30, None])
    @pytest.mark.parametrize("compact", [False, True])
    def test_blocked_step_equals_the_whole_tensor_update(self, block, compact, monkeypatch):
        if block is not None:
            monkeypatch.setattr(train, "ADAM_BLOCK", block)
        rows_per_block = train.ADAM_BLOCK // 8
        vocab = 30 if block is not None else 3 * rows_per_block + 5
        params = tiny_params(kind="mvc-rlda", seed=14, vocab=vocab, dtype=np.float64)
        cfg = train.TrainConfig()
        state = train.AdamState.for_params(params)
        ref = {name: arr.copy() for name, arr in params.tensors()}
        m = {name: np.zeros_like(arr) for name, arr in params.tensors()}
        v = {name: np.zeros_like(arr) for name, arr in params.tensors()}
        # touched W_e rows on both sides of the first two block boundaries;
        # no row after the third block's first is touched
        touched = np.array([0, rows_per_block - 1, rows_per_block, 2 * rows_per_block - 1,
                            2 * rows_per_block])
        rng = np.random.default_rng(14)
        for t in range(1, 4):
            dense = {name: rng.normal(size=arr.shape) for name, arr in params.tensors()}
            grads = model.GradientSet.zeros_like(params, touched if compact else np.arange(vocab))
            for name, g in dense.items():
                grads[name] = g[touched] if compact and name == "W_e" else g
            if compact:
                dense["W_e"][np.setdiff1d(np.arange(vocab), touched)] = 0.0
                before = grads["W_e"].copy()
            train.adam_step(params, grads, state, cfg)
            inplace_adam_step(ref, dense, m, v, t, cfg.learning_rate)
            if compact:  # a compact gradient is left as it was
                assert np.array_equal(grads["W_e"], before)
        for name, arr in params.tensors():
            for got, want in ((arr, ref[name]), (state.m[name], m[name]),
                              (state.v[name], v[name])):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name

    @pytest.mark.parametrize("compact", [False, True])
    def test_float32_step_equals_the_float32_whole_tensor_update(self, compact, monkeypatch):
        # the same update in float32: moments, blocks and scratch in the
        # tensor's dtype, bit for bit the one-pass update over float32 arrays
        monkeypatch.setattr(train, "ADAM_BLOCK", 30)
        params = tiny_params(kind="mvc-rlda", seed=15)
        state = train.AdamState.for_params(params)
        ref = {name: arr.copy() for name, arr in params.tensors()}
        m = {name: np.zeros_like(arr) for name, arr in params.tensors()}
        v = {name: np.zeros_like(arr) for name, arr in params.tensors()}
        touched = np.array([0, 2, 3, 17, 29])
        rng = np.random.default_rng(15)
        for t in range(1, 4):
            dense = {name: rng.normal(size=arr.shape).astype(np.float32)
                     for name, arr in params.tensors()}
            grads = model.GradientSet.zeros_like(params, touched if compact else np.arange(30))
            for name, g in dense.items():
                grads[name] = g[touched] if compact and name == "W_e" else g
            if compact:
                dense["W_e"][np.setdiff1d(np.arange(30), touched)] = 0.0
            train.adam_step(params, grads, state, train.TrainConfig())
            inplace_adam_step(ref, dense, m, v, t, train.TrainConfig().learning_rate)
        for name, arr in params.tensors():
            for got, want in ((arr, ref[name]), (state.m[name], m[name]),
                              (state.v[name], v[name])):
                assert got.dtype == np.float32, name
                assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), name

    def test_non_finite_gradient_rejected(self):
        params = tiny_params(seed=4)
        state = train.AdamState.for_params(params)
        grads = model.GradientSet.zeros_like(params, np.arange(params.vocab_size))
        for arr in grads.data.values():
            arr[...] = 0.5
        grads["b"][0] = np.nan  # b comes after W_e, conv*, V and U in update order
        before = params.copy()
        moments = {name: (state.m[name].copy(), state.v[name].copy()) for name in state.m.arrays}
        with pytest.raises(FloatingPointError, match="b"):
            train.adam_step(params, grads, state, train.TrainConfig())
        # rejected before any tensor, moment or the step count moved
        assert state.t == 0
        for (name, arr), (_, old) in zip(params.tensors(), before.tensors()):
            assert np.array_equal(arr, old), name
            assert np.array_equal(state.m[name], moments[name][0]), name
            assert np.array_equal(state.v[name], moments[name][1]), name


def add_epoch(history, epoch, dev_micro_f1, patience):
    return history.add(train.EpochStats(epoch, 0.0, dev_micro_f1, 0.0), patience)


class TestEarlyStopper:
    """`TrainHistory.add` is the early stopper."""

    def test_constant_scores_stop_after_patience_epochs(self):
        history = train.TrainHistory()
        stopped_at = None
        for epoch in range(1, 100):
            if add_epoch(history, epoch, 0.5, patience=10):
                stopped_at = epoch
                break
        assert stopped_at == 11
        assert history.best_epoch == 1

    def test_strict_improvement_never_stops(self):
        history = train.TrainHistory()
        for epoch in range(1, 40):
            assert not add_epoch(history, epoch, epoch * 0.01, patience=10)
        assert history.best_epoch == 39

    def test_tie_keeps_earliest_best(self):
        history = train.TrainHistory()
        add_epoch(history, 1, 0.7, patience=3)
        add_epoch(history, 2, 0.7, patience=3)
        assert history.best_epoch == 1

    def test_counter_resets_on_improvement(self):
        history = train.TrainHistory()
        assert not add_epoch(history, 1, 0.5, patience=2)
        assert not add_epoch(history, 2, 0.4, patience=2)
        assert not add_epoch(history, 3, 0.6, patience=2)
        assert not add_epoch(history, 4, 0.5, patience=2)
        assert add_epoch(history, 5, 0.5, patience=2)
        assert history.best_epoch == 3


class TestTrainLoop:
    CFG = train.TrainConfig(batch_size=4, max_epochs=8, patience=10, dropout=0.2, seed=5)

    @pytest.mark.parametrize("kind", ["mvc-lda", "mvc-rlda"])
    def test_overfits_tiny_dataset(self, kind):
        rng = np.random.default_rng(6)
        docs = tiny_dataset(rng)
        desc = tiny_descriptions(rng) if kind == "mvc-rlda" else None
        params = tiny_params(kind=kind, seed=6)
        cfg = train.TrainConfig(
            learning_rate=0.01, batch_size=4, max_epochs=50, patience=50,
            dropout=0.0, seed=6,
        )
        _, history = train.train(params, docs, docs, desc, cfg)
        first = history.epochs[0].train_loss
        best = min(e.train_loss for e in history.epochs)
        assert best <= 0.5 * first

    def test_returns_best_epoch_params(self):
        rng = np.random.default_rng(7)
        docs = tiny_dataset(rng)
        params = tiny_params(seed=7)
        best, history = train.train(params, docs, docs, None, self.CFG)
        best_f1 = max(e.dev_micro_f1 for e in history.epochs)
        assert history.best_dev_micro_f1 == best_f1
        assert train.dev_micro_f1(best, docs) == best_f1

    @pytest.mark.parametrize("kind", ["mvc-lda", "mvc-rlda"])
    def test_zero_length_documents_train_and_score(self, kind):
        rng = np.random.default_rng(9)
        docs = tiny_dataset(rng)
        docs[3] = EncodedDocument(np.zeros(0, dtype=np.int64), docs[3].gold)
        desc = tiny_descriptions(rng) if kind == "mvc-rlda" else None
        best, history = train.train(tiny_params(kind=kind, seed=9), docs, docs, desc, self.CFG)
        assert all(math.isfinite(e.train_loss) for e in history.epochs)
        scores = model.predict_matrix(best, docs[3:4])
        assert np.array_equal(scores[0], model.sigmoid(best["b"] + model.sigmoid(best["d"])))

    def test_run_to_run_determinism(self):
        rng = np.random.default_rng(8)
        docs = tiny_dataset(rng)
        a_params, a_hist = train.train(tiny_params(seed=8), docs, docs, None, self.CFG)
        b_params, b_hist = train.train(tiny_params(seed=8), docs, docs, None, self.CFG)
        assert [e.train_loss for e in a_hist.epochs] == [e.train_loss for e in b_hist.epochs]
        assert [e.dev_micro_f1 for e in a_hist.epochs] == [e.dev_micro_f1 for e in b_hist.epochs]
        for (_, x), (_, y) in zip(a_params.tensors(), b_params.tensors()):
            assert np.array_equal(x, y)

    def test_best_epoch_copy_is_an_independent_buffer(self):
        rng = np.random.default_rng(11)
        docs = tiny_dataset(rng)
        params = tiny_params(seed=11)
        cfg = train.TrainConfig(learning_rate=0.01, max_epochs=10, dropout=0.0, seed=11)
        best, history = train.train(params, docs, docs, None, cfg)
        assert history.best_epoch > 1  # copied into the first best epoch's copy
        assert not np.shares_memory(best.flat, params.flat)
        before = best.flat.copy()
        params.flat += 1.0
        assert np.array_equal(best.flat, before)

    def test_lambda_zero_rlda_matches_lda_trajectory(self):
        rng = np.random.default_rng(9)
        docs = tiny_dataset(rng)
        desc = tiny_descriptions(rng)
        cfg = train.TrainConfig(batch_size=4, max_epochs=5, patience=10, dropout=0.2, seed=9)
        rlda0 = tiny_params(kind="mvc-rlda", seed=9)
        rlda0 = dataclasses.replace(rlda0, config=dataclasses.replace(rlda0.config, lambda_=0.0))
        lda0 = tiny_params(kind="mvc-lda", seed=9)
        # train.train trains the params it is given in place
        desc_conv0, desc_W0 = rlda0["desc_conv"].copy(), rlda0["desc_W"].copy()
        rlda_best, rlda_hist = train.train(rlda0, docs, docs, desc, cfg)
        lda_best, lda_hist = train.train(lda0, docs, docs, None, cfg)
        assert [e.train_loss for e in rlda_hist.epochs] == [e.train_loss for e in lda_hist.epochs]
        assert [e.dev_micro_f1 for e in rlda_hist.epochs] == [
            e.dev_micro_f1 for e in lda_hist.epochs
        ]
        shared = dict(lda_best.tensors())
        for name, arr in rlda_best.tensors():
            if name in shared:
                assert np.array_equal(arr, shared[name]), name
        # description encoder never moved
        assert np.array_equal(rlda_best["desc_conv"], desc_conv0)
        assert np.array_equal(rlda_best["desc_W"], desc_W0)

    def test_divergence_reports_epoch_and_batch(self, monkeypatch):
        rng = np.random.default_rng(10)
        docs = tiny_dataset(rng)

        def explode(*args, **kwargs):
            raise FloatingPointError("non-finite loss")

        monkeypatch.setattr(train, "backward", explode)
        with pytest.raises(FloatingPointError, match=r"epoch 1, batch 0"):
            train.train(tiny_params(seed=10), docs, docs, None, self.CFG)

    def test_history_jsonl_one_line_per_epoch(self):
        rng = np.random.default_rng(11)
        docs = tiny_dataset(rng)
        _, history = train.train(tiny_params(seed=11), docs, docs, None, self.CFG)
        assert [e.epoch for e in history.epochs] == list(range(1, len(history.epochs) + 1))
        assert 1 <= history.best_epoch <= len(history.epochs)

    def test_early_stopping_halts_on_plateau(self, monkeypatch):
        # a constant dev score (a learning rate of 0 is no longer valid)
        monkeypatch.setattr(train, "dev_micro_f1", lambda params, docs: 0.5)
        docs = tiny_dataset(np.random.default_rng(12))
        cfg = train.TrainConfig(batch_size=4, max_epochs=60, patience=3, dropout=0.0, seed=12)
        _, history = train.train(tiny_params(seed=12, use_length=False), docs, docs, None, cfg)
        assert len(history.epochs) == 4  # plateau from epoch 1, patience 3
        assert history.best_epoch == 1


class TestAblate:
    """The ablate command, on the corpus and config of the CLI tests."""

    def _run(self, corpus_dir, cfg_path, out, *extra):
        return cli.main([
            "ablate",
            "--train", str(corpus_dir / "train.jsonl"),
            "--dev", str(corpus_dir / "dev.jsonl"),
            "--labels", str(corpus_dir / "descriptions.tsv"),
            "--config", str(cfg_path),
            "--seed", "13", "--p-at", "3", "--out", str(out), *extra,
        ])

    def test_unknown_component_rejected(self, corpus_dir, train_cfg_path, tmp_path, capsys):
        out = tmp_path / "abl"
        with pytest.raises(SystemExit) as exc:
            self._run(corpus_dir, train_cfg_path, out, "--components", "regularization,bogus")
        assert exc.value.code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "unknown ablation component 'bogus'" in err
        assert ", ".join(cli.ABLATIONS) in err
        assert not out.exists()

    def test_regularization_ablation_noop_for_lda(self, corpus_dir, train_cfg_path, tmp_path):
        # --p-at takes a comma list, as evaluate's does
        assert self._run(corpus_dir, train_cfg_path, tmp_path, "--model", "mvc-lda",
                         "--components", "regularization", "--p-at", "3,5") == 0
        report = json.loads((tmp_path / "ablation.json").read_text())
        assert (report["format_version"], report["p_at"]) == (2, [3, 5])
        delta = report["ablations"]["regularization"]["delta"]
        assert delta == {"micro_f1": 0.0, "pr_auc": 0.0, "p_at": {"3": 0.0, "5": 0.0},
                         "dev_micro_f1": 0.0}

    def test_all_components_present_with_three_metrics(self, corpus_dir, train_cfg_path,
                                                       tmp_path):
        assert self._run(corpus_dir, train_cfg_path, tmp_path) == 0
        report = json.loads((tmp_path / "ablation.json").read_text())
        full = report["full"]
        assert set(report["ablations"]) == set(cli.ABLATIONS)
        for entry in report["ablations"].values():
            assert entry["delta"] == {
                "micro_f1": full["micro_f1"] - entry["micro_f1"],
                "pr_auc": full["pr_auc"] - entry["pr_auc"],
                "p_at": {"3": full["p_at"]["3"] - entry["p_at"]["3"]},
                "dev_micro_f1": full["best_dev_micro_f1"] - entry["best_dev_micro_f1"],
            }

    def test_reduce_document_halves_tokens(self):
        doc = EncodedDocument(np.arange(9), np.zeros(0, np.int64))
        reduced = train.reduce_document(doc)
        assert reduced.length == 5
        assert np.array_equal(reduced.token_ids, np.arange(5))
        single = train.reduce_document(EncodedDocument(np.arange(1), np.zeros(0, np.int64)))
        assert single.length == 1
        empty = train.reduce_document(EncodedDocument(np.arange(0), np.zeros(0, np.int64)))
        assert empty.length == 0
