import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest

from mvclda import hyperband as hb, model

# the base every search samples around: mvc-rlda, so lambda is drawn too
RLDA = model.ModelConfig(kind="mvc-rlda")


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

    def test_counts_past_a_float_are_a_value_error(self):
        # ceil((s_max + 1) / (s + 1) * eta**s) converts eta**s to a float
        huge = 10**400
        with pytest.raises(ValueError, match=f"R {huge} with eta 3"):
            hb.bracket_schedule(huge, 3)


def scoring_stub():
    """Deterministic runs: the score after each epoch improves with epochs
    and with a config-dependent offset; records every epoch trained."""
    calls = []

    def start(config):
        bonus = config.n_filters / 1000.0 + config.kernel_sizes[0] / 100.0
        for epoch in itertools.count(1):
            calls.append((config, epoch))
            yield min(1.0, 0.1 * np.log1p(epoch) + bonus)

    return start, calls


class TestHyperbandSearch:
    def test_rung_populations_and_epochs(self):
        evaluate, calls = scoring_stub()
        _best, _score, log = hb.hyperband_search(hb.SearchSpace(), RLDA, evaluate, R=27, eta=3,
                                                 seed=0)
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
        _, _, log = hb.hyperband_search(hb.SearchSpace(), RLDA, evaluate, R=27, eta=3, seed=1)
        budget = collections.Counter()
        for t in log:
            budget[t.bracket] += t.epochs
        s_max = 3
        for bracket, spent in budget.items():
            assert spent <= (s_max + 1) * 27

    def test_survivors_are_top_scored_with_tie_to_earlier_trial(self):
        def evaluate(config):
            # every config ties; survivors must be the earliest trials
            return itertools.repeat(0.5)

        _, _, log = hb.hyperband_search(hb.SearchSpace(), RLDA, evaluate, R=9, eta=3, seed=2)
        bracket2 = [t for t in log if t.bracket == 2]
        rung0 = [t for t in bracket2 if t.rung == 0]
        rung1 = [t for t in bracket2 if t.rung == 1]
        promoted = {id(t.config) for t in rung1}
        expected = {id(t.config) for t in rung0[: len(rung1)]}
        assert promoted == expected

    def test_best_is_max_over_log(self):
        evaluate, _ = scoring_stub()
        best_cfg, best_score, log = hb.hyperband_search(
            hb.SearchSpace(), RLDA, evaluate, R=9, eta=3, seed=3
        )
        assert best_score == max(t.dev_micro_f1 for t in log)
        winners = [t for t in log if t.dev_micro_f1 == best_score]
        assert winners[0].config == best_cfg

    def test_reproducible_trial_log(self):
        evaluate_a, _ = scoring_stub()
        evaluate_b, _ = scoring_stub()
        _, _, log_a = hb.hyperband_search(hb.SearchSpace(), RLDA, evaluate_a, R=9, eta=3, seed=4)
        _, _, log_b = hb.hyperband_search(hb.SearchSpace(), RLDA, evaluate_b, R=9, eta=3, seed=4)
        assert log_a == log_b

    def test_log_ordered_by_bracket_rung_trial(self):
        evaluate, _ = scoring_stub()
        _, _, log = hb.hyperband_search(hb.SearchSpace(), RLDA, evaluate, R=9, eta=3, seed=5)
        keys = [(-t.bracket, t.rung, t.trial) for t in log]
        assert keys == sorted(keys)

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            hb.hyperband_search(
                hb.SearchSpace(lambda_candidates=()), RLDA, lambda c: itertools.repeat(0.0), R=3,
                eta=3, seed=6
            )


class TestRunReuse:
    """Each configuration trains at most once: a promoted trial continues
    its run and a repeated configuration reuses its recorded scores."""

    @staticmethod
    def wavy(config, epoch):
        # not monotone in epochs, so a trial's score is the best of a prefix
        return config.lambda_ * 100.0 + math.sin(epoch) + epoch / 10.0

    def counting_start(self, events, diverge_at=None):
        """Runs of `wavy` scores. `events` gets ("start", config) when a run
        starts and ("epoch", config, runs alive) per epoch; a run is alive
        until it is closed or collected."""
        live = set()

        def start(config):
            events.append(("start", config))
            run = object()
            live.add(run)
            try:
                for epoch in itertools.count(1):
                    if diverge_at and config.lambda_ == diverge_at[0] and epoch == diverge_at[1]:
                        raise FloatingPointError("non-finite loss")
                    events.append(("epoch", config, len(live)))
                    yield self.wavy(config, epoch)
            finally:
                live.discard(run)

        return start

    def test_scores_are_prefix_bests_and_each_run_is_reused(self):
        space = hb.SearchSpace(s0_min=2, s0_max=2, dc_min=9, dc_max=9,
                               lambda_candidates=(0.001, 0.002, 0.003))
        restarted = 0
        for seed in range(8):
            events = []
            _, _, log = hb.hyperband_search(space, RLDA, self.counting_start(events), R=9, eta=3,
                                            seed=seed)
            for t in log:
                assert t.dev_micro_f1 == max(self.wavy(t.config, e)
                                             for e in range(1, t.epochs + 1))
            epochs = sum(1 for e in events if e[0] == "epoch")
            most = {}
            for t in log:
                most[t.config] = max(most.get(t.config, 0), t.epochs)
            starts = collections.Counter(e[1] for e in events if e[0] == "start")
            # at least the distinct epoch-units; beyond them only restarts
            assert sum(most.values()) <= epochs < sum(t.epochs for t in log)
            restarted += sum(starts.values()) - len(starts)
        assert restarted  # a dropped run asked for more epochs starts over

    def test_promoted_trials_continue_their_runs(self):
        # no config repeats at this seed, so only continuing saves epochs:
        # 357 epoch-units where training every trial from scratch costs 423
        start, calls = scoring_stub()
        _, _, log = hb.hyperband_search(hb.SearchSpace(), RLDA, start, R=27, eta=3, seed=0)
        first_rungs = [t.config for t in log if t.rung == 0]
        assert len(set(first_rungs)) == len(first_rungs) == 49
        assert sum(t.epochs for t in log) == 423
        assert len(calls) == 357

    def test_a_single_config_trains_once(self):
        space = hb.SearchSpace(s0_min=3, s0_max=3, dc_min=9, dc_max=9, lambda_candidates=(0.01,))
        events = []
        _, _, log = hb.hyperband_search(space, RLDA, self.counting_start(events), R=27, eta=3,
                                        seed=0)
        assert len(log) == 69
        assert sum(1 for e in events if e[0] == "epoch") == 27
        assert [e[0] for e in events].count("start") == 1

    @pytest.mark.parametrize("s, n, r", hb.bracket_schedule(27, 3))
    def test_live_runs_bounded_by_the_promotable(self, monkeypatch, s, n, r):
        # the rung's running top floor(n/eta) plus the one training; the
        # promoted runs of a later rung are at most that many
        monkeypatch.setattr(hb, "bracket_schedule", lambda R, eta: [(s, n, r)])
        events = []
        hb.hyperband_search(hb.SearchSpace(), RLDA, self.counting_start(events), R=27, eta=3,
                            seed=s)
        peak = max(e[2] for e in events if e[0] == "epoch")
        assert peak <= n // 3 + 1
        if s:
            assert peak == n // 3 + 1  # tight: the promotable runs stay live

    def test_a_diverged_run_scores_zero_from_where_it_raised(self, capsys):
        space = hb.SearchSpace(s0_min=2, s0_max=2, dc_min=9, dc_max=9,
                               lambda_candidates=(0.001, 0.002))
        events = []
        start = self.counting_start(events, diverge_at=(0.002, 4))
        _, _, log = hb.hyperband_search(space, RLDA, start, R=9, eta=3, seed=3)
        err = capsys.readouterr().err
        bad = [t for t in log if t.config.lambda_ == 0.002]
        assert any(t.epochs < 4 for t in bad) and any(t.epochs >= 4 for t in bad)
        for t in bad:
            expected = 0.0 if t.epochs >= 4 else max(self.wavy(t.config, e)
                                                     for e in range(1, t.epochs + 1))
            assert t.dev_micro_f1 == expected
        # it raised once; later trials that need more epochs do not train
        assert err.count("diverged, scored 0.0") == 1
        first = next(t for t in log if t.config.lambda_ == 0.002 and t.epochs >= 4)
        assert f"bracket {first.bracket} rung {first.rung} trial {first.trial} diverged" in err


class TestSampleConfig:
    def test_single_point_space(self):
        space = hb.SearchSpace(s0_min=4, s0_max=4, dc_min=50, dc_max=50, lambda_candidates=(0.01,))
        rng = np.random.default_rng(7)
        for _ in range(5):
            cfg = hb.sample_config(space, RLDA, rng)
            assert cfg == dataclasses.replace(RLDA, kernel_sizes=(4, 6, 8, 10), n_filters=50,
                                              lambda_=0.01)

    def test_seeded_reproducible(self):
        space = hb.SearchSpace()
        a = [hb.sample_config(space, RLDA, np.random.default_rng(8)) for _ in range(10)]
        b = [hb.sample_config(space, RLDA, np.random.default_rng(8)) for _ in range(10)]
        assert a == b

    def test_structure_and_ranges(self):
        space = hb.SearchSpace()
        rng = np.random.default_rng(9)
        for _ in range(200):
            cfg = hb.sample_config(space, RLDA, rng)
            s0, s1, s2, s3 = cfg.kernel_sizes
            assert (s1 - s0, s2 - s1, s3 - s2) == (2, 2, 2)
            assert 2 <= s0 <= 8
            assert 30 <= cfg.n_filters <= 100
            assert cfg.lambda_ in hb.LAMBDA_CANDIDATES

    def test_thousand_samples_cover_all_lambdas(self):
        space = hb.SearchSpace()
        rng = np.random.default_rng(10)
        seen = {hb.sample_config(space, RLDA, rng).lambda_ for _ in range(1000)}
        assert seen == set(hb.LAMBDA_CANDIDATES)

    # an mvc-rlda base draws s0, d_c and a lambda index; an mvc-lda base,
    # which has no regularizer, draws the first two and keeps its lambda
    @pytest.mark.parametrize("kind", ["mvc-rlda", "mvc-lda"])
    def test_draws_in_order_and_carries_the_base(self, kind):
        base = model.ModelConfig(kind=kind, embed_dim=12, lambda_=0.003, use_length=False)
        space = hb.SearchSpace(s0_min=2, s0_max=5, dc_min=4, dc_max=9,
                               lambda_candidates=(0.1, 0.2, 0.3))
        rng, same = np.random.default_rng(11), np.random.default_rng(11)
        cfg = hb.sample_config(space, base, rng)
        s0, d_c = int(same.integers(2, 6)), int(same.integers(4, 10))
        lam = space.lambda_candidates[int(same.integers(3))] if kind == "mvc-rlda" else 0.003
        assert rng.random() == same.random()
        assert cfg == dataclasses.replace(base, kernel_sizes=hb.kernel_sizes(s0), n_filters=d_c,
                                          lambda_=lam)
        assert (cfg.kind, cfg.embed_dim, cfg.use_length) == (kind, 12, False)
        assert hb.config_json(cfg) == {"kernel_sizes": list(hb.kernel_sizes(s0)), "n_filters": d_c,
                                       "lambda": lam if kind == "mvc-rlda" else None}


class TestTrialLog:
    def test_jsonl_fields(self):
        # a trials.jsonl line is a Trial's fields, its config as config_json()
        evaluate, _ = scoring_stub()
        _, _, log = hb.hyperband_search(hb.SearchSpace(), RLDA, evaluate, R=3, eta=3, seed=12)
        assert set(dataclasses.asdict(log[0])) == {
            "bracket", "rung", "trial", "config", "epochs", "dev_micro_f1"}
        assert hb.config_json(log[0].config) == {
            "kernel_sizes": list(log[0].config.kernel_sizes),
            "n_filters": log[0].config.n_filters, "lambda": log[0].config.lambda_}
