import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from mvclda import corpus, metrics

from oracles import (
    argsort_pr_auc,
    argsort_precision_at_n,
    brute_macro_f1,
    brute_micro_f1,
    brute_precision_at_n,
    cells,
    f1_from_counts,
    grid_pr_auc,
    per_subset_report,
    threshold_sweep_pr_auc,
)


def random_case(rng, max_docs=20, max_labels=30):
    n = int(rng.integers(1, max_docs + 1))
    j = int(rng.integers(2, max_labels + 1))
    scores = rng.random((n, j))
    gold = (rng.random((n, j)) < 0.3).astype(float)
    return scores, gold


class TestF1Formula:
    """`metrics._f1` against the scalar formula it replaced (kept in
    oracles.py), bit for bit."""

    @staticmethod
    def _check(tp, fp, fn):
        expected = [f1_from_counts(*c) for c in zip(tp.tolist(), fp.tolist(), fn.tolist())]
        assert metrics._f1(tp, fp, fn).tolist() == expected
        # the per-group sums arrive as floats
        assert metrics._f1(*(c.astype(np.float64) for c in (tp, fp, fn))).tolist() == expected

    def test_every_count_up_to_40(self):
        self._check(*np.indices((41, 41, 41)).reshape(3, -1))

    def test_counts_near_2_to_the_40(self):
        values = [0, 1, 2, 2**40 - 1, 2**40, 2**40 + 1, 2**40 + 7, 3 * 2**39 + 5]
        self._check(*np.array(values)[np.indices((8, 8, 8)).reshape(3, -1)])

    def test_scalar_counts(self):
        for counts in [(0, 0, 0), (0, 3, 4), (2, 1, 1), (2**40, 1, 2**40 - 1)]:
            assert float(metrics._f1(*counts)) == f1_from_counts(*counts)


class TestMicroF1:
    def test_perfect_predictions(self):
        gold = np.array([[1, 0], [0, 1]])
        assert metrics.micro_f1(gold.astype(bool), cells(gold)) == 1.0

    def test_hand_counted_confusion(self):
        # TP=2, FP=1, FN=1 -> P=R=2/3 -> F1=2/3
        pred = np.array([[1, 1, 0, 1]], dtype=bool)
        gold = np.array([[1, 0, 1, 1]])
        assert metrics.micro_f1(pred, cells(gold)) == pytest.approx(2 / 3, abs=1e-12)

    def test_all_negative_predictions(self):
        pred = np.zeros((3, 4), dtype=bool)
        gold = np.zeros((3, 4))
        gold[0, 0] = 1
        assert metrics.micro_f1(pred, cells(gold)) == 0.0

    def test_union_bounded_by_group_extremes(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scores, gold = random_case(rng, max_labels=12)
            if gold.sum() == 0:
                continue
            pred = metrics.binarize(scores)
            j = gold.shape[1]
            split = j // 2
            a = metrics.micro_f1(pred[:, :split], cells(gold[:, :split]))
            b = metrics.micro_f1(pred[:, split:], cells(gold[:, split:]))
            whole = metrics.micro_f1(pred, cells(gold))
            assert min(a, b) - 1e-12 <= whole <= max(a, b) + 1e-12

    def test_document_order_permutation_invariant(self):
        rng = np.random.default_rng(1)
        scores, gold = random_case(rng)
        perm = rng.permutation(scores.shape[0])
        pred = metrics.binarize(scores)
        assert metrics.micro_f1(pred, cells(gold)) == \
            metrics.micro_f1(pred[perm], cells(gold[perm]))


class TestMacroF1:
    def test_perfect(self):
        gold = np.array([[1, 0], [0, 1]])
        counts = metrics.label_counts(gold.astype(bool), cells(gold))
        assert metrics.macro_f1(counts, np.arange(2)) == 1.0

    def test_mean_of_per_label_f1(self):
        pred = np.array([[1, 0], [0, 0]], dtype=bool)
        gold = np.array([[1, 1], [0, 0]])
        # label 0: perfect (1.0); label 1: no predictions (0.0)
        counts = metrics.label_counts(pred, cells(gold))
        assert metrics.macro_f1(counts, np.arange(2)) == pytest.approx(0.5, abs=1e-12)

    def test_zero_support_label_rejected(self):
        pred = np.zeros((2, 2), dtype=bool)
        gold = np.array([[1, 0], [1, 0]])
        counts = metrics.label_counts(pred, cells(gold))
        with pytest.raises(ValueError):
            metrics.macro_f1(counts, np.arange(2))
        assert metrics.macro_f1(counts, labels=[0]) == 0.0

    def test_empty_subset_rejected(self):
        counts = metrics.label_counts(np.ones((1, 2), dtype=bool), cells(np.ones((1, 2))))
        with pytest.raises(ValueError):
            metrics.macro_f1(counts, labels=[])


class TestPrecisionAtN:
    def test_perfect_top_n(self):
        scores = np.array([[0.9, 0.8, 0.1]])
        gold = np.array([[1, 1, 0]])
        assert metrics.precision_at_n(scores, cells(gold), 2) == 1.0

    def test_hand_case(self):
        scores = np.array([[0.9, 0.8, 0.1]])
        gold = np.array([[1, 0, 1]])
        assert metrics.precision_at_n(scores, cells(gold), 2) == pytest.approx(0.5, abs=1e-12)

    def test_all_negative_document_contributes_zero(self):
        scores = np.array([[0.9, 0.8], [0.7, 0.6]])
        gold = np.array([[1, 1], [0, 0]])
        assert metrics.precision_at_n(scores, cells(gold), 2) == pytest.approx(0.5, abs=1e-12)

    def test_tie_break_prefers_lower_index(self):
        scores = np.array([[0.5, 0.5, 0.5]])
        gold = np.array([[0, 1, 1]])
        # top-2 under ties = labels 0 and 1 -> one hit
        assert metrics.precision_at_n(scores, cells(gold), 2) == pytest.approx(0.5, abs=1e-12)

    def test_n_bounds(self):
        scores = np.array([[0.5, 0.5]])
        gold = np.array([[1, 0]])
        with pytest.raises(ValueError):
            metrics.precision_at_n(scores, cells(gold), 3)
        with pytest.raises(ValueError):
            metrics.precision_at_n(scores, cells(gold), 0)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        scores, gold = random_case(rng)
        n = min(3, scores.shape[1])
        before = metrics.precision_at_n(scores, cells(gold), n)
        after = metrics.precision_at_n(np.tanh(4 * scores) + 7, cells(gold), n)
        assert before == after


class TestPrAuc:
    def test_perfect_ranking(self):
        scores = np.array([[0.9, 0.8, 0.2, 0.1]])
        gold = np.array([[1, 1, 0, 0]])
        assert metrics.pr_auc(scores, cells(gold)) == pytest.approx(1.0, abs=1e-12)

    def test_two_cell_hand_case(self):
        scores = np.array([[0.9, 0.1]])
        gold = np.array([[0, 1]])
        assert metrics.pr_auc(scores, cells(gold)) == pytest.approx(0.5, abs=1e-12)

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError):
            metrics.pr_auc(np.array([[0.5]]), cells(np.array([[0]])))

    def test_matches_exhaustive_threshold_grid(self):
        # scores on a 1/256 lattice so the 1e-4 grid resolves every distinct
        # score; a continuous draw can put two scores inside one grid step,
        # which the grid oracle cannot distinguish
        rng = np.random.default_rng(3)
        for _ in range(30):
            scores, gold = random_case(rng, max_docs=12, max_labels=12)
            scores = np.round(scores * 256) / 256.0
            if gold.sum() == 0:
                continue
            exact = metrics.pr_auc(scores, cells(gold))
            grid = grid_pr_auc(scores, gold)
            assert exact == pytest.approx(grid, abs=1e-3)

    def test_bit_identical_to_threshold_sweep(self):
        rng = np.random.default_rng(6)
        for trial in range(40):
            scores, gold = random_case(rng, max_docs=15, max_labels=20)
            if trial % 2:
                scores = np.round(scores * 8) / 8.0  # many tied scores
            if trial % 5 == 0:
                scores.flat[:3] = (0.0, 1.0, 1.0)  # ties with the added thresholds
            if gold.sum() == 0:
                gold[0, 0] = 1
            assert metrics.pr_auc(scores, cells(gold)) == threshold_sweep_pr_auc(scores, gold)

    def test_all_scores_zero_gives_zero_area(self):
        gold = np.array([[1, 0, 1]])
        assert metrics.pr_auc(np.zeros((1, 3)), cells(gold)) == 0.0
        assert threshold_sweep_pr_auc(np.zeros((1, 3)), gold) == 0.0

    def test_random_scores_auc_near_positive_rate(self):
        rng = np.random.default_rng(4)
        p = 0.3
        scores = rng.random((80, 50))
        gold = (rng.random((80, 50)) < p).astype(float)
        auc = metrics.pr_auc(scores, cells(gold))
        assert abs(auc - gold.mean()) < 0.05

    def test_threshold_half_point_on_sweep(self):
        rng = np.random.default_rng(5)
        scores, gold = random_case(rng)
        if gold.sum() == 0:
            gold[0, 0] = 1
        pred = metrics.binarize(scores)
        tp, fp, fn = metrics.label_counts(pred, cells(gold)).sum(axis=1)
        # the sweep at any threshold in [max(s<=0.5), 0.5] yields this exact
        # confusion; verify via direct recomputation with a strict > rule
        s = scores.ravel()
        g = gold.ravel().astype(bool)
        pred_sweep = s > 0.5
        assert tp == int(np.sum(pred_sweep & g))
        assert fp == int(np.sum(pred_sweep & ~g))


class TestFrequencyBinnedF1:
    def test_equal_counts_single_bin(self):
        pred = np.ones((2, 3), dtype=bool)
        gold = np.ones((2, 3))
        rows = metrics.frequency_binned_f1(metrics.label_counts(pred, cells(gold)), [7, 7, 7])
        occupied = [r for r in rows if r.n_labels]
        assert len(rows) == 10
        assert len(occupied) == 1 and occupied[0].n_labels == 3

    def test_spread_counts_fill_all_bins(self):
        counts = [math.e**k for k in range(1, 11)]
        gold = np.ones((1, 10))
        pred = np.ones((1, 10), dtype=bool)
        rows = metrics.frequency_binned_f1(metrics.label_counts(pred, cells(gold)), counts)
        assert all(r.n_labels == 1 for r in rows)

    def test_perfect_predictor_ones_everywhere(self):
        rng = np.random.default_rng(7)
        gold = (rng.random((6, 8)) < 0.5).astype(float)
        gold[0] = 1  # every label has support
        counts = rng.integers(1, 1000, 8)
        rows = metrics.frequency_binned_f1(
            metrics.label_counts(gold.astype(bool), cells(gold)), counts)
        for r in rows:
            if r.n_labels:
                assert r.micro_f1 == 1.0

    def test_restriction_to_train_and_test_presence(self):
        pred = np.zeros((2, 3), dtype=bool)
        gold = np.array([[1, 0, 1], [0, 0, 1]])
        # label 1 has no test support; label 0 has no train count
        rows = metrics.frequency_binned_f1(metrics.label_counts(pred, cells(gold)), [0, 5, 5])
        assert sum(r.n_labels for r in rows) == 1

    def test_no_eligible_labels_rejected(self):
        with pytest.raises(ValueError):
            metrics.frequency_binned_f1(
                metrics.label_counts(np.zeros((1, 2), dtype=bool), cells(np.zeros((1, 2)))), [1, 1]
            )


class TestOracleEquivalence:
    def test_random_matrices_match_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            scores, gold = random_case(rng)
            pred = metrics.binarize(scores)
            assert metrics.micro_f1(pred, cells(gold)) == pytest.approx(
                brute_micro_f1(pred, gold), abs=1e-12
            )
            n = min(3, scores.shape[1])
            assert metrics.precision_at_n(scores, cells(gold), n) == pytest.approx(
                brute_precision_at_n(scores, gold, n), abs=1e-12
            )
            supported = np.flatnonzero(gold.sum(axis=0) > 0)
            if supported.size:
                counts = metrics.label_counts(pred, cells(gold))
                assert metrics.macro_f1(counts, supported) == pytest.approx(
                    brute_macro_f1(pred, gold, supported), abs=1e-12
                )

    def test_tied_scores_match_brute_force(self):
        # three score levels: most top-n cuts fall inside a tie
        rng = np.random.default_rng(9)
        for _ in range(60):
            n_docs, j = int(rng.integers(1, 15)), int(rng.integers(2, 25))
            scores = rng.integers(0, 3, (n_docs, j)) / 2.0
            gold = (rng.random((n_docs, j)) < 0.4).astype(float)
            for n in sorted({1, min(3, j), j}):
                assert metrics.precision_at_n(scores, cells(gold), n) == pytest.approx(
                    brute_precision_at_n(scores, gold, n), abs=1e-12
                )
            # `>= 0.5` predicts two levels of three, so labels with no
            # predictions, no hits and perfect columns all occur
            pred = scores >= 0.5
            supported = np.flatnonzero(gold.sum(axis=0) > 0)
            if supported.size:
                counts = metrics.label_counts(pred, cells(gold))
                assert metrics.macro_f1(counts, supported) == pytest.approx(
                    brute_macro_f1(pred, gold, supported), abs=1e-12
                )


class TestReports:
    def _report(self, seed=9, **kwargs):
        rng = np.random.default_rng(seed)
        scores = rng.random((10, 6))
        gold = (rng.random((10, 6)) < 0.4).astype(float)
        gold[0] = 1
        report = metrics.evaluate_predictions(scores, cells(gold), p_at=(3, 5), **kwargs)
        return report, scores, gold

    def test_report_fields_and_json_round_trip(self, tmp_path):
        report, _, _ = self._report(
            groups=["diagnosis", "procedure"] * 3,
            train_counts=[3, 9, 27, 81, 243, 729],
            macro_labels=np.arange(6),
        )
        corpus.write_json(tmp_path / "metrics.json", dataclasses.asdict(report))
        assert json.loads((tmp_path / "metrics.json").read_text()) == dataclasses.asdict(report)
        assert set(report.p_at) == {"3", "5"}
        assert set(report.micro_f1_by_group) == {"diagnosis", "procedure"}
        assert report.bins is not None and len(report.bins) == 10


MATRIX_KINDS = ["random", "ties", "binary", "ends"]


def kind_case(rng, kind, max_docs=20, max_labels=30):
    """A random case whose scores are continuous, on a 1/8 lattice (many
    ties), two-valued 0/1 (what the baselines score) or continuous with
    exact 0.0 and 1.0 cells (ties with the sweep's added thresholds)."""
    scores, gold = random_case(rng, max_docs, max_labels)
    if kind == "ties":
        scores = np.round(scores * 8) / 8.0
    elif kind == "binary":
        scores = (scores > 0.7).astype(float)
    elif kind == "ends":
        scores[rng.random(scores.shape) < 0.2] = 0.0
        scores[rng.random(scores.shape) < 0.2] = 1.0
    gold[0, 0] = 1
    return scores, gold


def full_report_args(rng, gold):
    j = gold.shape[1]
    return dict(
        p_at=tuple(sorted({1, min(5, j), j})),
        groups=[str(t) for t in rng.choice(["diagnosis", "procedure", "none"], j)],
        train_counts=rng.integers(0, 300, j),
        macro_labels=np.flatnonzero(gold.sum(axis=0) > 0),
    )


class TestOneSortReport:
    """The one-sort report against the per-subset, argsort-based one it
    replaced (kept in oracles.py): the same report, bit for bit."""

    # float32 scores (a float32 model's) and boolean predictions (the
    # baselines') are reported as they are, as their float64 widening is
    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_report_equals_per_subset_report(self, kind):
        rng = np.random.default_rng(MATRIX_KINDS.index(kind))
        for _ in range(40):
            scores, gold = kind_case(rng, kind)
            kwargs = full_report_args(rng, gold)
            for given in (scores, scores.astype(np.float32), scores > 0.5):
                report = metrics.evaluate_predictions(given, cells(gold), **kwargs)
                widened = given.astype(np.float64)
                assert dataclasses.asdict(report) == \
                    dataclasses.asdict(per_subset_report(widened, gold, **kwargs)), given.dtype

    @pytest.mark.parametrize("block", [1, 3])
    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_small_blocks_change_no_bit(self, monkeypatch, kind, block):
        monkeypatch.setattr(metrics, "P_AT_N_BLOCK", block)
        rng = np.random.default_rng(10 + MATRIX_KINDS.index(kind))
        for _ in range(20):
            scores, gold = kind_case(rng, kind, max_docs=12, max_labels=16)
            assert metrics.pr_auc(scores, cells(gold)) == argsort_pr_auc(scores, gold)
            kwargs = full_report_args(rng, gold)
            report = metrics.evaluate_predictions(scores, cells(gold), **kwargs)
            assert dataclasses.asdict(report) == \
                dataclasses.asdict(per_subset_report(scores, gold, **kwargs))

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_pr_auc_equals_argsort_sweep(self, kind):
        rng = np.random.default_rng(20 + MATRIX_KINDS.index(kind))
        for _ in range(60):
            scores, gold = kind_case(rng, kind)
            assert metrics.pr_auc(scores, cells(gold)) == argsort_pr_auc(scores, gold)

    def test_pr_auc_scores_outside_unit_interval(self):
        # 0 and 1 then fall between scores, or below or above every score
        rng = np.random.default_rng(24)
        for shift in (-1.5, -0.5, 0.5, 1.5):
            for _ in range(10):
                scores, gold = kind_case(rng, "ties")
                assert metrics.pr_auc(scores + shift, cells(gold)) == \
                    argsort_pr_auc(scores + shift, gold)

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_p_at_every_n_with_ties_across_the_cut(self, kind):
        # three levels (or two) leave the n-th place inside a tie in most rows
        rng = np.random.default_rng(30 + MATRIX_KINDS.index(kind))
        for _ in range(15):
            scores, gold = kind_case(rng, kind, max_labels=20)
            if kind == "random":
                scores = rng.integers(0, 3, scores.shape) / 2.0
            for n in range(1, scores.shape[1] + 1):
                assert metrics.precision_at_n(scores, cells(gold), n) == \
                    argsort_precision_at_n(scores, gold, n)

    def test_report_peak_memory_per_cell(self):
        # MIMIC-III's full label count; the argsort-based report peaked at
        # ~91 B per cell
        rng = np.random.default_rng(40)
        scores = rng.random((120, 8922))
        gold = (rng.random(scores.shape) < 15 / 8922).astype(float)
        gold[:, 0] = 1
        kwargs = dict(p_at=(8, 5), groups=["diagnosis", "procedure"] * 4461,
                      train_counts=rng.integers(0, 300, 8922),
                      macro_labels=np.flatnonzero(gold.sum(axis=0) > 0))

        def peak_per_cell(func, *args, **kw):
            tracemalloc.start()
            try:
                func(*args, **kw)
                return tracemalloc.get_traced_memory()[1] / scores.size
            finally:
                tracemalloc.stop()

        gold = cells(gold)
        assert peak_per_cell(metrics.evaluate_predictions, scores, gold, **kwargs) < 40
        # a full argsort of the negated scores took 16 B per cell
        assert peak_per_cell(metrics.precision_at_n, scores, gold, 8) <= 16
