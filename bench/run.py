#!/usr/bin/env python3
"""Benchmark of the whole mvclda pipeline, end to end and layer by layer.

    python3 bench/run.py --workload desk --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from anywhere; the program is imported from `src/` of the checkout this
file sits in. Every workload runs in a fresh process (`all` starts one per
workload). A run generates its corpus from `--seed`, goes through the
`mvclda` CLI (synth, train, evaluate, baseline, hyperband) and checks the
outputs. With `--trace 0` it prints the end-to-end metrics, with `--trace 1`
the per-layer metrics of a traced pass and the tracing overhead. The last
line of standard output is one JSON object. See bench/README.md.
"""

import time

STARTED_NS = time.perf_counter_ns()  # wall_s runs from here to the printed result

import os

# One BLAS / OpenMP thread, and no transparent huge pages for numpy's large
# arrays (whether the kernel can hand one out depends on the fragmentation
# of the machine's memory, which moved the peak RSS of one seed by ~100 MB),
# fixed before numpy is first imported.
PINNED_VARS = {var: "1" for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
PINNED_VARS["NUMPY_MADVISE_HUGEPAGE"] = "0"
os.environ.update(PINNED_VARS)

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"


@dataclass(frozen=True)
class Workload:
    synth: dict
    model: str
    train: dict
    hyperband: dict          # R, eta, and config keys over the train config
    baseline: dict
    # calls per run of each repeated operation: "synth" (set-up), "baseline"
    # (one flat plus one hierarchical run), "hyperband", and replays of the
    # inference ("predict") and metrics-report ("report") calls that
    # `evaluate` made. Each is spread evenly over the pass's rounds, so that
    # every end-to-end time meets the machine at many moments of the run.
    repeats: dict
    f1_floor: float | None = None
    # the splits `hyperband` trains and scores its trials on
    tune_on: tuple[str, str] = ("train", "dev")


P_AT = "8,5"
# `train` and `evaluate` run between round ROUNDS // 2 - 1 and ROUNDS // 2
ROUNDS = 8

# The Hyperband spaces pin kernel sizes and filter count, so every trial
# costs the same whatever configurations the seed draws.
WORKLOADS = {
    # README corpus and train.cfg; tiny tensors, so per-call overhead dominates
    "desk": Workload(
        synth=dict(n_codes=20, n_train=500, n_dev=100, n_test=100, background_vocab=150,
                   doc_len_min=40, doc_len_max=120, coupling=0.8),
        model="mvc-rlda",
        train=dict(kernel_sizes="2,4,6,8", n_filters=24, embed_dim=32, max_epochs=5,
                   patience=5, learning_rate=0.002, cbow_epochs=1, **{"lambda": 0.01}),
        hyperband=dict(R=3, eta=3, s0_min=2, s0_max=2, dc_min=24, dc_max=24),
        baseline=dict(svm_epochs=10),
        repeats=dict(synth=16, baseline=6, hyperband=2, predict=32, report=32),
        f1_floor=0.5,
        # twelve epoch-units over the 500-note training split would take
        # half the run; the 100-note dev split keeps every rung
        tune_on=("dev", "test"),
    ),
    # MIMIC-shaped: 1k Zipf codes, ~20k words, ~1.5k-token notes with ~15 codes
    "mimic": Workload(
        synth=dict(n_codes=1000, zipf_exponent=1.0, n_train=16, n_dev=8, n_test=40,
                   background_vocab=40000, evidence_len_min=2, evidence_len_max=34,
                   doc_len_min=1000, doc_len_max=2000, coupling=0.8),
        model="mvc-rlda",
        train=dict(max_epochs=2, patience=2, min_doc_freq=1, cbow_epochs=1),
        hyperband=dict(R=1, eta=2, s0_min=2, s0_max=2, dc_min=30, dc_max=30),
        baseline=dict(svm_epochs=2, min_doc_freq=1),
        repeats=dict(synth=8, baseline=2, hyperband=3, predict=1, report=1),
        tune_on=("dev", "dev"),
    ),
    # notes longer than max_segment: truncated training, untruncated inference
    "long": Workload(
        synth=dict(n_codes=48, zipf_exponent=0.0, n_train=2, n_dev=1, n_test=12,
                   background_vocab=2000, doc_len_min=12000, doc_len_max=13000, coupling=0.8),
        model="mvc-lda",
        train=dict(max_epochs=2, patience=2, min_doc_freq=1, cbow_epochs=1),
        hyperband=dict(R=1, eta=2, s0_min=2, s0_max=2, dc_min=30, dc_max=30),
        baseline=dict(min_doc_freq=1),
        repeats=dict(synth=8, baseline=4, hyperband=4, predict=0, report=40),
        tune_on=("dev", "dev"),
    ),
}

E2E_UNITS = {
    "setup_s": "s", "pretrain_tokens_per_s": "tok/s", "train_tokens_per_s": "tok/s",
    "infer_tokens_per_s": "tok/s", "metrics_s": "s", "baseline_s": "s", "tune_s": "s",
    "wall_s": "s", "peak_rss_mb": "MB", "test_micro_f1": "1",
}


def write_cfg(path: Path, values: dict) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return path


class Pass:
    """One pipeline pass in its own directory; checks at the end."""

    def __init__(self, wl: Workload, seed: int, work: Path, tracer):
        self.wl, self.seed, self.work, self.tracer = wl, seed, work, tracer
        self.attempted = 0
        self.failed = 0
        self.data = work / "data"
        self.model_dir = work / "model"
        self.eval_dir = work / "eval"
        self.hb_dir = work / "hb"

    def command(self, *argv) -> None:
        from mvclda import cli

        self.attempted += 1
        span = self.tracer.open(f"cli.{argv[0]}")
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([str(a) for a in argv])
        finally:
            self.tracer.close(span)
        # each command would be its own process: leave no garbage to the next
        gc.collect()
        if code != 0:
            self.failed += 1
            print(f"bench: mvclda {argv[0]} exited {code}", file=sys.stderr)

    def replay(self, slot: str, times: int) -> None:
        """Calls the inference or metrics-report function again with the
        arguments `evaluate` passed it."""
        from mvclda import metrics, model

        func = {"predict": model.predict_matrix, "report": metrics.evaluate_predictions}[slot]
        args, kwargs, _ = self.tracer.kept[slot]
        span = self.tracer.open("bench.replay")
        for _ in range(times):
            func(*args, **kwargs)
        self.tracer.close(span)

    def check(self, name: str, func, *args) -> None:
        from checks import CheckFailed

        self.attempted += 1
        try:
            func(*args)
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            self.failed += 1
            print(f"bench: check {name} failed: {exc}", file=sys.stderr)

    def setup(self, out_dir: Path) -> None:
        cfg = write_cfg(self.work / "synth.cfg", self.wl.synth)
        self.command("synth", "--config", cfg, "--out-dir", out_dir, "--seed", self.seed)

    def train(self) -> None:
        d = self.data
        cfg = write_cfg(self.work / "train.cfg", self.wl.train)
        self.command("train", "--model", self.wl.model, "--train", d / "train.jsonl",
                     "--dev", d / "dev.jsonl", "--labels", d / "descriptions.tsv",
                     "--config", cfg, "--seed", self.seed, "--out", self.model_dir)

    def tune(self) -> None:
        d, hb = self.data, self.wl.hyperband
        space = {k: v for k, v in hb.items() if k not in ("R", "eta")}
        cfg = write_cfg(self.work / "hb.cfg", dict(self.wl.train, **space))
        fit, score = self.wl.tune_on
        self.command("hyperband", "--model", self.wl.model, "--train", d / f"{fit}.jsonl",
                     "--dev", d / f"{score}.jsonl", "--labels", d / "descriptions.tsv",
                     "--config", cfg, "--R", hb["R"], "--eta", hb["eta"],
                     "--seed", self.seed, "--out", self.hb_dir)

    def evaluate(self) -> None:
        d, m = self.data, self.model_dir
        self.command("evaluate", "--checkpoint", m / "checkpoint.bin",
                     "--test", d / "test.jsonl", "--labels", d / "descriptions.tsv",
                     "--vocab", m / "vocab.tsv", "--metrics-out", self.eval_dir / "metrics.json",
                     "--p-at", P_AT, "--groups", d / "groups.tsv",
                     "--train-counts", m / "train_counts.tsv")

    def baselines(self) -> None:
        d = self.data
        cfg = write_cfg(self.work / "baseline.cfg", self.wl.baseline)
        for kind, extra in (("flat", ()), ("hier", ("--hierarchy", d / "hierarchy.tsv"))):
            self.command("baseline", "--train", d / "train.jsonl", "--test", d / "test.jsonl",
                         "--labels", d / "descriptions.tsv", *extra, "--config", cfg,
                         "--seed", self.seed, "--p-at", P_AT, "--out", self.work / f"base-{kind}")

    def run_checks(self) -> dict:
        """Checks on the pass's outputs; returns the metrics report."""
        import checks
        import numpy as np
        from mvclda import hyperband

        d, wl, kept = self.data, self.wl, self.tracer.kept
        desc = d / "descriptions.tsv"
        report = json.loads((self.eval_dir / "metrics.json").read_text(encoding="utf-8"))
        gold = checks.gold_from_files(d / "test.jsonl", desc)
        scores = np.asarray(kept["predict"][2])
        self.check("scores", checks.scores_valid, scores, gold)
        self.check("report", checks.report_matches, report, scores, gold)
        self.check("pr_auc", checks.pr_auc_matches, report, scores, gold)
        self.check("train_loss", checks.loss_decreased, self.model_dir / "history.jsonl",
                   int(wl.train["max_epochs"]))
        if wl.f1_floor is not None:
            self.check("f1_floor", checks.above_all_negative, report, wl.f1_floor)
        self.check("ancestors", checks.ancestor_closed, kept["hier"][2], desc,
                   d / "hierarchy.tsv")
        self.check("hyperband", checks.hyperband_log_matches,
                   hyperband.bracket_schedule(wl.hyperband["R"], wl.hyperband["eta"]),
                   wl.hyperband["eta"], self.hb_dir / "trials.jsonl",
                   self.hb_dir / "best_config.json")
        (docs, vocab_size, cfg), _, (w_in, w_out) = kept["cbow"]
        self.check("cbow", checks.cbow_objective_fell, docs, vocab_size, cfg, w_in, w_out)
        return report


def calls_in_round(total: int, rounds: int, i: int) -> int:
    """Calls in round `i` of `total` calls spread evenly over `rounds`."""
    return int((i + 1) * total / rounds + 0.5) - int(i * total / rounds + 0.5)


def run_pass(wl: Workload, seed: int, tracer) -> tuple[Pass, dict]:
    """A fixed sequence of commands: set-up, then ROUNDS rounds of the
    repeated operations with `train` and `evaluate` half-way. Replays are
    spread over the rounds after `evaluate`, the rest over all rounds."""
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    p = Pass(wl, seed, work, tracer)
    again = work / "data-again"
    n = wl.repeats
    evaluated = ROUNDS // 2
    tracer.install()
    try:
        p.setup(p.data)
        for i in range(ROUNDS):
            if i == evaluated:
                p.train()
                p.evaluate()
            for _ in range(calls_in_round(n["synth"] - 1, ROUNDS, i)):
                p.setup(again)
            for _ in range(calls_in_round(n["baseline"], ROUNDS, i)):
                p.baselines()
            for _ in range(calls_in_round(n["hyperband"], ROUNDS, i)):
                p.tune()
            if i >= evaluated and p.failed == 0:
                for slot in ("predict", "report"):
                    times = calls_in_round(n[slot], ROUNDS - evaluated, i - evaluated)
                    if times:
                        p.replay(slot, times)
    finally:
        tracer.restore()
    report = p.run_checks() if p.failed == 0 else None
    shutil.rmtree(work, ignore_errors=True)
    return p, report


def e2e_metrics(t, report: dict, seconds) -> dict:
    """`seconds(start_ns, end_ns)` times an interval. Repeated calls are
    averaged (total work over total time), not taken at a quantile: see
    README.md, "Steadiness"."""
    def mean_time(name, *parents):
        spans = t.find(name, *parents)
        return sum(seconds(s.start, s.end) for s in spans) / len(spans)

    def rate(spans, attr):
        return sum(s.attrs[attr] for s in spans) / sum(seconds(s.start, s.end) for s in spans)

    return {
        "setup_s": mean_time("cli.synth"),
        # CBOW of `train` and of every `hyperband`
        "pretrain_tokens_per_s": rate(t.find("embed.cbow"), "centers"),
        "train_tokens_per_s": rate(t.find("train.train", "cli.train"), "tokens"),
        "infer_tokens_per_s": rate(
            t.find("model.predict_matrix", "cli.evaluate", "bench.replay"), "tokens"),
        "metrics_s": mean_time("metrics.report", "cli.evaluate", "bench.replay"),
        # one flat plus one hierarchical run
        "baseline_s": 2 * mean_time("cli.baseline"),
        "tune_s": mean_time("cli.hyperband"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_micro_f1": float(report["micro_f1"]),
    }


def raw_seconds(start_ns: int, end_ns: int) -> float:
    return (end_ns - start_ns) / 1e9


def layer_metrics(t, overhead_pct: float) -> dict:
    self_s = t.self_times()

    def total(name, attr, *parents):
        return sum(s.attrs.get(attr, 0) for s in t.find(name, *parents))

    def calls(name):
        return len(t.find(name))

    def peak_mb(name, parent):
        return max(s.attrs["peak_alloc_b"] for s in t.find(name, parent)) / 2**20

    hb_train = t.find("train.train", "cli.hyperband")
    out = {
        "corpus.generate_s": self_s["corpus.generate"],
        "corpus.tokenize_s": self_s["corpus.tokenize"],
        "corpus.vocab_s": self_s["corpus.vocab"],
        "corpus.encode_s": self_s["corpus.encode"],
        "corpus.tokens": total("corpus.encode", "tokens"),
        "embed.cbow_s": sum(s.duration for s in t.find("embed.cbow")),
        "embed.cbow_centers": total("embed.cbow", "centers"),
        "model.backward_s": self_s["model.backward"],
        "model.backward_calls": calls("model.backward"),
        "model.grad_buffer_s": self_s["model.grad_buffer"],
        "model.checkpoint_s": self_s["model.checkpoint"],
        "model.checkpoint_bytes": total("model.checkpoint", "bytes"),
        "model.forward_s": self_s["model.forward"],
        "model.forward_calls": calls("model.forward"),
        "model.infer_peak_alloc_mb": peak_mb("model.predict_matrix", "cli.evaluate"),
        "train.loop_s": self_s["train.train"],
        "train.adam_s": self_s["train.adam"],
        "train.adam_steps": calls("train.adam"),
        "train.dev_eval_s": sum(s.duration for s in t.find("train.dev_eval")),
        "train.epochs": total("train.train", "epochs", "cli.train"),
        "train.peak_alloc_mb": peak_mb("train.train", "cli.train"),
        "metrics.pr_auc_s": self_s["metrics.pr_auc"],
        "metrics.p_at_n_s": self_s["metrics.p_at_n"],
        "metrics.macro_f1_s": self_s["metrics.macro_f1"],
        "metrics.binned_f1_s": self_s["metrics.binned_f1"],
        "metrics.report_s": self_s["metrics.report"],
        "metrics.cells": total("metrics.report", "cells"),
        "baseline.tfidf_s": self_s["baseline.tfidf"],
        "baseline.fit_s": self_s["baseline.fit"],
        "baseline.predict_s": self_s["baseline.predict"],
        "baseline.classifiers": total("baseline.fit", "classifiers"),
        "hyperband.trials": total("hyperband.search", "trials"),
        "hyperband.epochs_trained": sum(s.attrs["epochs"] for s in hb_train),
        "hyperband.train_s": sum(s.duration for s in hb_train),
        "trace.overhead_pct": overhead_pct,
        "trace.spans": len(t.spans),
    }
    for cmd in ("synth", "train", "evaluate", "baseline", "hyperband"):
        out[f"cli.{cmd}.self_s"] = self_s[f"cli.{cmd}"]
    return out


LAYER_UNITS = {"_s": "s", "_mb": "MB", "_pct": "%", "_bytes": "B"}


def unit_of(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned": {v: os.environ[v] for v in PINNED_VARS},
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, trace: bool) -> dict:
    from tracer import Tracer

    wl = WORKLOADS[name]
    if trace:
        warm_up()
        # one untraced and one traced pass of the same fixed structure
        plain, _ = run_pass(wl, seed, Tracer("phase"))
        traced = Tracer("layer")
        p, _ = run_pass(wl, seed, traced)
        attempted, failed = plain.attempted + p.attempted, plain.failed + p.failed
        overhead = 100.0 * (command_time(traced) / command_time(plain.tracer) - 1.0)
        metrics = layer_metrics(traced, overhead) if failed == 0 else {}
        record = {"metrics": metrics}
        units = {k: unit_of(k) for k in metrics}
        spans = traced
    else:
        from probe import Prober

        prober = Prober()
        prober.start()
        try:
            warm_up()
            spans = Tracer("phase")
            p, report = run_pass(wl, seed, spans)
            attempted, failed = p.attempted, p.failed
            metrics, raw = {}, {}
            if report is not None:
                metrics = e2e_metrics(spans, report, prober.scaled)
                raw = e2e_metrics(spans, report, raw_seconds)
            # the whole process: imports, warm-up, pass and checks
            end = time.perf_counter_ns()
        finally:
            prober.stop()
        if metrics:
            metrics["wall_s"] = prober.scaled(STARTED_NS, end)
            raw["wall_s"] = raw_seconds(STARTED_NS, end)
        record = {"metrics": metrics, "unscaled_metrics": raw,
                  "probes": {"count": len(prober.starts),
                             "mean_s": sum(b - a for a, b in zip(prober.starts, prober.ends))
                             / max(1, len(prober.starts)) / 1e9}}
        units = E2E_UNITS
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    spans.dump(stem.with_suffix(".spans.json"))
    record = {"workload": name, "seed": seed, "trace": trace, "environment": environment(),
              **record}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def command_time(tracer) -> float:
    """Time of every command and replay of a pass."""
    return sum(s.duration for s in tracer.spans if s.parent is None)


def warm_up() -> None:
    """A tiny pass through every command, so imports, first-call set-up and
    BLAS start-up are paid before anything is timed."""
    from tracer import Tracer

    tiny = Workload(synth=dict(n_codes=10, n_train=24, n_dev=8, n_test=8,
                                       background_vocab=40, doc_len_min=30, doc_len_max=60),
                    model="mvc-rlda",
                    train=dict(kernel_sizes="2,4,6,8", n_filters=8, embed_dim=8, max_epochs=2,
                               patience=2, cbow_epochs=1, min_doc_freq=1),
                    hyperband=dict(R=1, eta=2, s0_min=2, s0_max=2, dc_min=8, dc_max=8),
                    baseline=dict(svm_epochs=1),
                    repeats=dict(synth=1, baseline=1, hyperband=1, predict=1, report=1))
    run_pass(tiny, 0, Tracer("phase"))


def run_all(args) -> int:
    """Each workload in its own process; prints every metric by name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}/{key}"] = metric
            print(f"{name:6s} {key:28s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    # every run of a workload does the same fixed work, whatever its length;
    # the flag is accepted so the command line matches the common form
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mvclda" / "cli.py").is_file():
        print(f"bench: no mvclda sources under {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("MVC_")]:
        del os.environ[key]  # config overrides would change the workload
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.workload == "all":
        return run_all(args)
    import mvclda

    if Path(mvclda.__file__).resolve().parent != SRC / "mvclda":
        print(f"bench: imported mvclda from {mvclda.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, bool(args.trace))
    for key, metric in result["metrics"].items():
        print(f"{key:28s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
