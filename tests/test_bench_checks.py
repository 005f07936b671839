"""The bench's own output checks over a tiny synth, train, evaluate,
baseline and hyperband run.

`bench/run.py` checks every pass's scores, metrics report, PR AUC, training
loss, hierarchical baseline predictions, Hyperband log and CBOW objective
with `bench/checks.py`, on what `bench/tracer.py` keeps of the calls and on
the files the commands write. Here the same checks run on the same kept
calls and files, so a change to the score dtype, the report, the baselines
or the search fails in the test suite, not only as a bench run's failed
check.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from mvclda import cli, hyperband

from test_cli import SYNTH_CFG, TRAIN_CFG

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
tracer_mod = _load("tracer")


def test_checks_pass_on_the_kept_scores_report_and_cbow_tables(tmp_path):
    (tmp_path / "synth.cfg").write_text(SYNTH_CFG)
    (tmp_path / "train.cfg").write_text(TRAIN_CFG)
    data, out, hb_dir = tmp_path / "data", tmp_path / "out", tmp_path / "hb"
    tracer = tracer_mod.Tracer("phase")

    def command(*argv):
        # the command span the tracer keeps calls under, as a bench pass opens it
        span = tracer.open(f"cli.{argv[0]}")
        try:
            assert cli.main([str(a) for a in argv]) == 0, argv
        finally:
            tracer.close(span)

    tracer.install()
    try:
        command("synth", "--config", tmp_path / "synth.cfg", "--out-dir", data, "--seed", 13)
        command("train", "--model", "mvc-rlda", "--train", data / "train.jsonl",
                "--dev", data / "dev.jsonl", "--labels", data / "descriptions.tsv",
                "--config", tmp_path / "train.cfg", "--seed", 3, "--out", out)
        command("evaluate", "--checkpoint", out / "checkpoint.bin",
                "--test", data / "test.jsonl", "--labels", data / "descriptions.tsv",
                "--vocab", out / "vocab.tsv", "--metrics-out", out / "metrics.json",
                "--p-at", "1,5")
        for kind, extra in (("flat", ()), ("hier", ("--hierarchy", data / "hierarchy.tsv"))):
            command("baseline", "--train", data / "train.jsonl", "--test", data / "test.jsonl",
                    "--labels", data / "descriptions.tsv", *extra, "--seed", 3,
                    "--p-at", "1,5", "--out", tmp_path / f"base-{kind}")
        command("hyperband", "--model", "mvc-rlda", "--train", data / "train.jsonl",
                "--dev", data / "dev.jsonl", "--labels", data / "descriptions.tsv",
                "--config", tmp_path / "train.cfg", "--embeddings", out / "embeddings.bin",
                "--R", 3, "--eta", 3, "--seed", 3, "--out", hb_dir)
    finally:
        tracer.restore()

    report = json.loads((out / "metrics.json").read_text())
    gold = checks.gold_from_files(data / "test.jsonl", data / "descriptions.tsv")
    scores = np.asarray(tracer.kept["predict"][2])
    checks.scores_valid(scores, gold)
    checks.report_matches(report, scores, gold)
    checks.pr_auc_matches(report, scores, gold)
    (docs, vocab_size, cbow_cfg), _, (w_in, w_out) = tracer.kept["cbow"]
    checks.cbow_objective_fell(docs, vocab_size, cbow_cfg, w_in, w_out)
    checks.loss_decreased(out / "history.jsonl", 2)  # TRAIN_CFG's max_epochs, patience 10
    checks.ancestor_closed(tracer.kept["hier"][2], data / "descriptions.tsv",
                           data / "hierarchy.tsv")
    checks.hyperband_log_matches(hyperband.bracket_schedule(3, 3), 3, hb_dir / "trials.jsonl",
                                 hb_dir / "best_config.json")
