import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mvclda import embed, model
from oracles import per_center_cbow, per_center_cbow_loss, random_table


def _toy_corpus(seed=0, vocab_size=30, n_docs=25, doc_len=18):
    """Token ids 0 and 1 always adjacent; the rest uniform background."""
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n_docs):
        ids = list(rng.integers(2, vocab_size, doc_len))
        k = int(rng.integers(0, doc_len - 1))
        ids[k : k + 2] = [0, 1]
        docs.append(np.array(ids))
    return docs


SMALL_CFG = embed.CbowConfig(dim=16, window=3, epochs=3, seed=1)


class TestTrainCbow:
    def test_output_shape_default_dim(self):
        docs = _toy_corpus()
        table = embed.train_cbow(docs, 30, embed.CbowConfig(epochs=1, seed=0))
        assert table.shape == (30, 100)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            embed.train_cbow([], 10, SMALL_CFG)
        with pytest.raises(ValueError):
            embed.train_cbow([np.array([], dtype=np.int64)], 10, SMALL_CFG)

    def test_deterministic_to_the_bit(self):
        docs = _toy_corpus()
        a = embed.train_cbow(docs, 30, SMALL_CFG)
        b = embed.train_cbow(docs, 30, SMALL_CFG)
        assert np.array_equal(a, b)

    def test_all_finite(self):
        table = embed.train_cbow(_toy_corpus(), 30, SMALL_CFG)
        assert np.all(np.isfinite(table))

    def test_cooccurring_tokens_end_up_similar(self):
        docs = _toy_corpus()
        table = embed.train_cbow(docs, 30, embed.CbowConfig(dim=24, window=3, epochs=8, seed=2))

        def cosine(u, v):
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

        together = cosine(table[0], table[1])
        rng = np.random.default_rng(3)
        others = []
        for _ in range(100):
            i, j = rng.integers(2, 30, 2)
            if i != j:
                others.append(cosine(table[i], table[j]))
        assert together > np.mean(others)

    def test_objective_lower_after_training(self):
        docs = _toy_corpus()
        cfg = SMALL_CFG
        w_in0, w_out0 = embed.initial_tables(docs, 30, cfg)
        before = embed.cbow_pass_loss(docs, w_in0, w_out0, cfg, seed=99)
        w_in, w_out = embed.train_cbow_tables(docs, 30, cfg)
        after = embed.cbow_pass_loss(docs, w_in, w_out, cfg, seed=99)
        assert after < before

    def test_window_past_every_document_same_as_longest_less_one(self):
        # a window is taken as at most the document's length less one, which
        # already reaches every token from every center
        docs = [np.arange(12) % 7, np.array([3, 1, 4, 1, 5]), np.array([6])]
        cfg = embed.CbowConfig(dim=6, window=11, epochs=2, seed=3)
        wide = replace(cfg, window=10**9)
        tables = embed.train_cbow_tables(docs, 7, cfg)
        for table, same, ref in zip(tables, embed.train_cbow_tables(docs, 7, wide),
                                    per_center_cbow(docs, 7, wide)):
            assert np.array_equal(table, same)
            assert np.array_equal(table, ref)


class TestReturnedTables:
    """What callers of CBOW hold: the benchmark's tracer keeps the output
    table of the `train_cbow_tables` call that `train_cbow` makes."""

    def test_train_cbow_calls_train_cbow_tables_through_the_module(self, monkeypatch):
        calls, real = [], embed.train_cbow_tables

        def spy(*args):
            calls.append(real(*args))
            return calls[-1]

        monkeypatch.setattr(embed, "train_cbow_tables", spy)
        table = embed.train_cbow(_toy_corpus(), 30, SMALL_CFG)
        assert len(calls) == 1 and table is calls[0][0]

    @pytest.mark.parametrize("tables", [embed.train_cbow_tables, embed.initial_tables])
    def test_halves_are_independent_arrays(self, tables):
        w_in, w_out = tables(_toy_corpus(), 30, SMALL_CFG)
        assert w_in.shape == w_out.shape == (30, SMALL_CFG.dim)
        assert not np.shares_memory(w_in, w_out)
        # neither is a view that keeps the 60-row training table alive
        assert w_in.base is None and w_out.base is None


def _cbow_cases():
    rng = np.random.default_rng(11)
    block = embed.CBOW_BLOCK
    return {
        "window_past_document": (
            [rng.integers(0, 40, 7), rng.integers(0, 40, 3)], 40,
            embed.CbowConfig(dim=8, window=9, epochs=1, seed=1)),
        "empty_and_one_token_documents": (
            [np.array([], dtype=np.int64), rng.integers(0, 40, 30), np.array([5]),
             rng.integers(0, 40, 2), np.array([], dtype=np.int64), np.array([7])], 40,
            embed.CbowConfig(dim=8, window=3, epochs=2, seed=2)),
        "no_negatives": (
            [rng.integers(0, 40, 50) for _ in range(4)], 40,
            embed.CbowConfig(dim=8, window=3, epochs=1, negative=0, seed=3)),
        # nearly every center draws itself among 5 noise words out of 3
        "negatives_hit_the_center": (
            [rng.integers(0, 3, 60) for _ in range(3)], 3,
            embed.CbowConfig(dim=6, window=2, epochs=1, seed=4)),
        "repeated_ids_in_a_window": (
            [np.array([4, 4, 4, 2, 4, 4, 9, 9, 9, 9, 4]), rng.integers(0, 12, 40)], 12,
            embed.CbowConfig(dim=8, window=4, epochs=1, seed=5)),
        "three_epochs": (
            [rng.integers(0, 40, 35) for _ in range(5)], 40,
            embed.CbowConfig(dim=8, window=3, epochs=3, seed=6)),
        "one_center_past_a_block": (
            [rng.integers(0, 60, block + 1), rng.integers(0, 60, 20)], 60,
            embed.CbowConfig(dim=8, window=5, epochs=1, seed=7)),
        # the int32 ids every command passes
        "int32_ids": (
            [rng.integers(0, 40, n).astype(np.int32) for n in (0, 1, 2, 45, block + 3)], 40,
            embed.CbowConfig(dim=8, window=3, epochs=2, seed=8)),
    }


CBOW_CASES = _cbow_cases()


class TestCbowMatchesPerCenterLoop:
    @pytest.mark.parametrize("case", sorted(CBOW_CASES))
    def test_tables_bit_identical(self, case):
        docs, vocab_size, cfg = CBOW_CASES[case]
        w_in, w_out = embed.train_cbow_tables(docs, vocab_size, cfg)
        ref_in, ref_out = per_center_cbow(docs, vocab_size, cfg)
        assert np.array_equal(w_in, ref_in)
        assert np.array_equal(w_out, ref_out)

    @pytest.mark.parametrize("case", sorted(CBOW_CASES))
    def test_pass_loss_matches_per_center_sum(self, case):
        docs, vocab_size, cfg = CBOW_CASES[case]
        w_in, w_out = embed.train_cbow_tables(docs, vocab_size, cfg)
        loss = embed.cbow_pass_loss(docs, w_in, w_out, cfg, seed=13)
        ref = per_center_cbow_loss(docs, w_in, w_out, cfg, seed=13)
        assert abs(loss - ref) <= 1e-12 * abs(ref)

    def test_pass_loss_without_context_windows_rejected(self):
        cfg = embed.CbowConfig(dim=4, seed=0)
        table = np.zeros((10, 4))
        with pytest.raises(ValueError, match="context windows"):
            embed.cbow_pass_loss([np.array([3]), np.array([], dtype=np.int64)], table, table, cfg, 0)

    def test_long_document_memory_bounded(self):
        # the prepared blocks, not the document, set the transient memory
        vocab_size, cfg = 1000, embed.CbowConfig(dim=100, window=5, epochs=1, seed=8)
        doc = np.random.default_rng(9).integers(0, vocab_size, 100_000)
        tracemalloc.start()
        try:
            embed.train_cbow_tables([doc], vocab_size, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = 2 * vocab_size * cfg.dim * 8
        assert peak - tables < 8 * 2**20


class TestEmbedLookup:
    """The embedding step forward and the description encoder share: rows
    of the table written into the zero-padded input of one convolution
    chunk, here the only one."""

    @staticmethod
    def lookup(ids, table, s=1, x_scale=None):
        ids = np.asarray(ids, dtype=np.int64)
        Xp = model._input_block(ids, table, x_scale, s, 0, len(ids))
        return Xp, Xp[s // 2 : s // 2 + len(ids)]

    def test_empty_document(self):
        Xp, X = self.lookup([], np.ones((4, 3)), s=3)
        assert X.shape == (0, 3)
        assert np.array_equal(Xp, np.zeros((2, 3)))

    def test_one_hot_identity(self):
        # an even width 4 pads two rows on the left and one on the right
        Xp, X = self.lookup([2, 0], np.eye(4), s=4)
        rows = np.array([[0, 0, 1, 0], [1, 0, 0, 0]], dtype=float)
        assert np.array_equal(X, rows)
        assert np.array_equal(Xp, np.vstack([np.zeros((2, 4)), rows, np.zeros((1, 4))]))

    def test_gap_rows_zero_and_rows_scaled(self):
        # a gap row is a row of scale 0
        Xp, X = self.lookup([1, 0, 2], np.arange(1.0, 7.0).reshape(3, 2), s=2,
                            x_scale=np.array([2.0, 0.0, 0.5]))
        assert np.array_equal(X, [[6.0, 8.0], [0.0, 0.0], [2.5, 3.0]])
        assert np.array_equal(Xp[0], [0.0, 0.0])

    def test_chunk_block_reads_its_window_rows(self):
        # output rows 2..4 of a width-4 convolution read sequence rows 0..5
        table = np.arange(8.0)[:, None]
        ids = np.array([7, 6, 5, 4, 3, 2, 1])
        block = model._input_block(ids, table, None, 4, 2, 5)
        assert np.array_equal(block[:, 0], [7.0, 6.0, 5.0, 4.0, 3.0, 2.0])

    def test_repeated_ids_identical_rows(self):
        rng = np.random.default_rng(4)
        _, X = self.lookup([3, 3], rng.random((10, 5)))
        assert np.array_equal(X[0], X[1])

    def test_out_of_range_rejected(self):
        # document ids come from outside the model, so forward checks them
        cfg = model.ModelConfig(kernel_sizes=(1,), n_filters=2, embed_dim=3)
        rng = np.random.default_rng(0)
        params = model.init_params(cfg, 4, 1, rng, random_table(rng, 4, 3))
        with pytest.raises(ValueError):
            model.forward([4], 1, params)
        with pytest.raises(ValueError):
            model.forward([-1], 1, params)


class TestEmbeddingFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        table = rng.random((7, 4))
        path = tmp_path / "emb.bin"
        embed.save_embeddings(path, table, "cafe" * 16)
        loaded = embed.load_embeddings(path, expected_vocab_checksum="cafe" * 16)
        assert np.array_equal(loaded, table)
        assert list(tmp_path.iterdir()) == [path]  # no sidecar file

    def test_checksum_mismatch_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        embed.save_embeddings(path, np.zeros((2, 2)), "aaaa")
        with pytest.raises(ValueError, match="vocabulary"):
            embed.load_embeddings(path, expected_vocab_checksum="bbbb")
