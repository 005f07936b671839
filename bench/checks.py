"""Correctness checks on one pipeline pass.

Each check recomputes a result apart from `mvclda` (plain numpy over the
files the commands wrote and the scores they computed), or tests a property
the method must have. Each returns None when it holds and raises
CheckFailed with the reason otherwise.
"""

from __future__ import annotations

import json
import math

import numpy as np

THRESHOLD = 0.5


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_tsv_pairs(path) -> list[tuple[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t")) for line in fh if line.strip()]


def gold_from_files(corpus_path, descriptions_path) -> np.ndarray:
    """Gold matrix from the corpus file; columns in descriptions-file order."""
    codes = [code for code, _ in read_tsv_pairs(descriptions_path)]
    index = {code: j for j, code in enumerate(codes)}
    docs = read_jsonl(corpus_path)
    gold = np.zeros((len(docs), len(codes)), dtype=bool)
    for i, doc in enumerate(docs):
        for code in doc["codes"]:
            gold[i, index[code]] = True
    return gold


def scores_valid(scores: np.ndarray, gold: np.ndarray) -> None:
    require(scores.shape == gold.shape,
            f"score matrix {scores.shape} is not docs x labels {gold.shape}")
    require(bool(np.all(np.isfinite(scores))), "non-finite scores")
    # sigmoid rounds to exactly 0 or 1 in float64 past |logit| ~37
    require(bool(np.all((scores >= 0.0) & (scores <= 1.0))), "scores outside [0, 1]")


def report_matches(report: dict, scores: np.ndarray, gold: np.ndarray) -> None:
    """TP/FP/FN, micro F1 and P@n of the saved report against a recount."""
    pred = scores > THRESHOLD
    tp = int(np.sum(pred & gold))
    fp = int(np.sum(pred & ~gold))
    fn = int(np.sum(~pred & gold))
    require((report["tp"], report["fp"], report["fn"]) == (tp, fp, fn),
            f"counts {report['tp']}/{report['fp']}/{report['fn']} != {tp}/{fp}/{fn}")
    f1 = 2.0 * tp / (2 * tp + fp + fn) if tp else 0.0
    require(math.isclose(report["micro_f1"], f1, rel_tol=1e-12, abs_tol=1e-12),
            f"micro F1 {report['micro_f1']} != {f1}")
    for key, value in report["p_at"].items():
        n = int(key)
        top = np.argsort(-scores, axis=1, kind="stable")[:, :n]
        expect = float(np.mean(np.take_along_axis(gold, top, axis=1).sum(axis=1) / n))
        require(math.isclose(value, expect, rel_tol=1e-12, abs_tol=1e-12),
                f"P@{n} {value} != {expect}")


def sweep_pr_auc(scores: np.ndarray, gold: np.ndarray) -> float:
    """Step-rule PR AUC from one descending sort: thresholds are the distinct
    scores plus 0 and 1, a cell is positive when its score is above the
    threshold, and each threshold adds (recall gain) x precision."""
    order = np.argsort(-scores, kind="stable")
    s, g = scores[order], gold[order]
    # after the last cell of each run of equal scores, every cell above the
    # next lower threshold has been predicted
    ends = np.flatnonzero(np.r_[s[1:] != s[:-1], True])
    above_zero = s[ends] > 0.0
    tp = np.cumsum(g)[ends][above_zero]
    n_pred = (ends + 1)[above_zero]
    recall = tp / gold.sum()
    precision = tp / n_pred
    return float(np.sum(np.diff(np.r_[0.0, recall]) * precision))


def pr_auc_matches(report: dict, scores: np.ndarray, gold: np.ndarray) -> None:
    """The reported PR AUC against the sweep over every cell."""
    got, expect = report["pr_auc"], sweep_pr_auc(scores.ravel(), gold.ravel())
    require(math.isclose(got, expect, rel_tol=1e-9, abs_tol=1e-12),
            f"PR AUC {got} != sweep {expect} on {scores.size} cells")


def loss_decreased(history_path, epochs: int) -> None:
    rows = read_jsonl(history_path)
    require(len(rows) == epochs, f"{len(rows)} epochs trained, {epochs} expected")
    first, last = rows[0]["train_loss"], rows[-1]["train_loss"]
    require(last < first, f"training loss {last} after the last epoch >= {first} after the first")


def above_all_negative(report: dict, floor: float) -> None:
    # an all-negative predictor scores micro F1 = 0
    require(report["micro_f1"] >= floor,
            f"test micro F1 {report['micro_f1']} below {floor}")


def ancestor_closed(pred: np.ndarray, descriptions_path, hierarchy_path) -> None:
    codes = [code for code, _ in read_tsv_pairs(descriptions_path)]
    index = {code: j for j, code in enumerate(codes)}
    for child, parent in read_tsv_pairs(hierarchy_path):
        if parent in index:
            orphans = pred[:, index[child]] & ~pred[:, index[parent]]
            require(not orphans.any(), f"{child} predicted without its parent {parent}")


def hyperband_log_matches(schedule, eta: int, trials_path, best_path) -> None:
    """Trials per rung, survivors = floor(n/eta) best of the rung (earlier
    trial first on ties), and the best config as the argmax of the log."""
    trials = read_jsonl(trials_path)
    pos = 0
    for s, n, r in schedule:
        survivors = None
        for rung in range(s + 1):
            rows = trials[pos:pos + n]
            pos += n
            require(len(rows) == n, f"bracket {s} rung {rung}: {len(rows)} trials, {n} expected")
            for t, row in enumerate(rows):
                require((row["bracket"], row["rung"], row["trial"]) == (s, rung, t),
                        f"trial order broken at bracket {s} rung {rung} trial {t}")
                require(row["epochs"] == r * eta**rung,
                        f"bracket {s} rung {rung}: {row['epochs']} epochs")
            if survivors is not None:
                require([row["config"] for row in rows] == survivors,
                        f"bracket {s} rung {rung}: promoted configs differ")
            n = n // eta
            ranked = sorted(range(len(rows)), key=lambda t: (-rows[t]["dev_micro_f1"], t))
            survivors = [rows[t]["config"] for t in ranked[:n]]
    require(pos == len(trials), f"{len(trials) - pos} trials beyond the schedule")
    with open(best_path, encoding="utf-8") as fh:
        best = json.load(fh)
    top = max(trials, key=lambda row: row["dev_micro_f1"])
    require(best["best_config"] == top["config"]
            and best["best_dev_micro_f1"] == top["dev_micro_f1"],
            "best_config.json is not the argmax of trials.jsonl")


def cbow_objective_fell(docs, vocab_size: int, cfg, w_in, w_out) -> None:
    """`cbow_pass_loss` at the trained tables below its value at the tables
    training started from, on the first 8 documents, 500 tokens each."""
    from mvclda import embed

    sample = [doc[:500] for doc in docs[:8]]
    w_in0, w_out0 = embed.initial_tables(docs, vocab_size, cfg)
    before = embed.cbow_pass_loss(sample, w_in0, w_out0, cfg, seed=7)
    after = embed.cbow_pass_loss(sample, w_in, w_out, cfg, seed=7)
    require(after < before, f"CBOW objective {after} not below {before} at the initial tables")
