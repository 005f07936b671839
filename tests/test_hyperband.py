import collections
import dataclasses

import numpy as np
import pytest

from mvclda import hyperband as hb


class TestBracketSchedule:
    def test_reference_schedule_r27_eta3(self):
        schedule = [(n, r) for _s, n, r in hb.bracket_schedule(27, 3)]
        assert schedule == [(27, 1), (12, 3), (6, 9), (4, 27)]

    def test_r1_single_bracket(self):
        assert hb.bracket_schedule(1, 3) == [(0, 1, 1)]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            hb.bracket_schedule(0, 3)
        with pytest.raises(ValueError):
            hb.bracket_schedule(27, 1)


def scoring_stub():
    """Deterministic evaluator: score improves with epochs and with a
    config-dependent offset; records every call."""
    calls = []

    def evaluate(config, epochs):
        calls.append((config, epochs))
        bonus = config.n_filters / 1000.0 + config.kernel_sizes[0] / 100.0
        return min(1.0, 0.1 * np.log1p(epochs) + bonus)

    return evaluate, calls


class TestHyperbandSearch:
    def test_rung_populations_and_epochs(self):
        evaluate, calls = scoring_stub()
        _best, _score, log = hb.hyperband_search(hb.SearchSpace(), evaluate, R=27, eta=3, seed=0)
        per_rung = collections.Counter((t.bracket, t.rung) for t in log)
        assert per_rung == {
            (3, 0): 27, (3, 1): 9, (3, 2): 3, (3, 3): 1,
            (2, 0): 12, (2, 1): 4, (2, 2): 1,
            (1, 0): 6, (1, 1): 2,
            (0, 0): 4,
        }
        epochs_at = {(t.bracket, t.rung): t.epochs for t in log}
        assert epochs_at[(3, 0)] == 1 and epochs_at[(3, 3)] == 27
        assert epochs_at[(2, 0)] == 3 and epochs_at[(2, 2)] == 27
        assert epochs_at[(1, 0)] == 9 and epochs_at[(1, 1)] == 27
        assert epochs_at[(0, 0)] == 27

    def test_budget_per_bracket_bounded(self):
        evaluate, _ = scoring_stub()
        _, _, log = hb.hyperband_search(hb.SearchSpace(), evaluate, R=27, eta=3, seed=1)
        budget = collections.Counter()
        for t in log:
            budget[t.bracket] += t.epochs
        s_max = 3
        for bracket, spent in budget.items():
            assert spent <= (s_max + 1) * 27

    def test_survivors_are_top_scored_with_tie_to_earlier_trial(self):
        scores = {}

        def evaluate(config, epochs):
            # every config ties; survivors must be the earliest trials
            scores.setdefault(id(config), 0.5)
            return 0.5

        _, _, log = hb.hyperband_search(hb.SearchSpace(), evaluate, R=9, eta=3, seed=2)
        bracket2 = [t for t in log if t.bracket == 2]
        rung0 = [t for t in bracket2 if t.rung == 0]
        rung1 = [t for t in bracket2 if t.rung == 1]
        promoted = {id(t.config) for t in rung1}
        expected = {id(t.config) for t in rung0[: len(rung1)]}
        assert promoted == expected

    def test_best_is_max_over_log(self):
        evaluate, _ = scoring_stub()
        best_cfg, best_score, log = hb.hyperband_search(
            hb.SearchSpace(), evaluate, R=9, eta=3, seed=3
        )
        assert best_score == max(t.dev_micro_f1 for t in log)
        winners = [t for t in log if t.dev_micro_f1 == best_score]
        assert winners[0].config == best_cfg

    def test_reproducible_trial_log(self):
        evaluate_a, _ = scoring_stub()
        evaluate_b, _ = scoring_stub()
        _, _, log_a = hb.hyperband_search(hb.SearchSpace(), evaluate_a, R=9, eta=3, seed=4)
        _, _, log_b = hb.hyperband_search(hb.SearchSpace(), evaluate_b, R=9, eta=3, seed=4)
        assert log_a == log_b

    def test_log_ordered_by_bracket_rung_trial(self):
        evaluate, _ = scoring_stub()
        _, _, log = hb.hyperband_search(hb.SearchSpace(), evaluate, R=9, eta=3, seed=5)
        keys = [(-t.bracket, t.rung, t.trial) for t in log]
        assert keys == sorted(keys)

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            hb.hyperband_search(
                hb.SearchSpace(lambdas=()), lambda c, e: 0.0, R=3, eta=3, seed=6
            )


class TestSampleConfig:
    def test_single_point_space(self):
        space = hb.SearchSpace(s0_min=4, s0_max=4, dc_min=50, dc_max=50, lambdas=(0.01,))
        rng = np.random.default_rng(7)
        for _ in range(5):
            cfg = hb.sample_config(space, rng)
            assert cfg == hb.TrialConfig((4, 6, 8, 10), 50, 0.01)

    def test_seeded_reproducible(self):
        space = hb.SearchSpace()
        a = [hb.sample_config(space, np.random.default_rng(8)) for _ in range(10)]
        b = [hb.sample_config(space, np.random.default_rng(8)) for _ in range(10)]
        assert a == b

    def test_structure_and_ranges(self):
        space = hb.SearchSpace()
        rng = np.random.default_rng(9)
        for _ in range(200):
            cfg = hb.sample_config(space, rng)
            s0, s1, s2, s3 = cfg.kernel_sizes
            assert (s1 - s0, s2 - s1, s3 - s2) == (2, 2, 2)
            assert 2 <= s0 <= 8
            assert 30 <= cfg.n_filters <= 100
            assert cfg.lambda_ in hb.LAMBDA_CANDIDATES

    def test_thousand_samples_cover_all_lambdas(self):
        space = hb.SearchSpace()
        rng = np.random.default_rng(10)
        seen = {hb.sample_config(space, rng).lambda_ for _ in range(1000)}
        assert seen == set(hb.LAMBDA_CANDIDATES)

    def test_lambda_free_space(self):
        space = hb.SearchSpace(lambdas=None)
        cfg = hb.sample_config(space, np.random.default_rng(11))
        assert cfg.lambda_ is None


class TestTrialLog:
    def test_jsonl_fields(self):
        # a trials.jsonl line is a Trial's fields, its config as to_json_obj()
        evaluate, _ = scoring_stub()
        _, _, log = hb.hyperband_search(hb.SearchSpace(), evaluate, R=3, eta=3, seed=12)
        assert set(dataclasses.asdict(log[0])) == {
            "bracket", "rung", "trial", "config", "epochs", "dev_micro_f1"}
        assert log[0].config.to_json_obj() == {
            "kernel_sizes": list(log[0].config.kernel_sizes),
            "n_filters": log[0].config.n_filters, "lambda": log[0].config.lambda_}
