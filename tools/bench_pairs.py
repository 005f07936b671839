"""Benchmark a git revision against the working tree in alternating pairs.

    python tools/bench_pairs.py <rev> --pr 24 --pairs long=10,mimic=5,desk=5 [--seed 1]
        [--traced 5]

Prepares both sides alike under one temporary directory (`prepare_sides`):
`rev` holds `git archive <rev> src`, `tree` a copy of the working tree's
`src/`, and each a copy of the working tree's `bench/`. So both run the
same benchmark on their own source, from paths of the same shape, and
neither writes into the checkout. Then, in one session and one process
at a time, it runs `bench/run.py --workload w --seed s --trace 0` once
with each tree per pair, the revision first in even pairs and the
working tree first in odd ones; the workloads take turns, one pair
each, until each has its pairs. From each run it keeps the result line (the last line of standard
output) and the `unscaled_metrics` of that tree's own
`.bench_runs/<w>-seed<s>-trace0.json`. With `--traced N` it then runs
`--trace 1` N times per side for each of those workloads, in the same
alternation, and keeps each run's per-layer metrics.

Writes `BENCH_<pr>.json` at the root of the checkout: the environment the
benchmark recorded, the revision, every run, and per workload and
end-to-end metric of `BENCHMARK.json`, both scaled and raw, each side's
median and quartiles, the median over pairs of the working tree's gain
(positive is better, in the metric's own direction), and the pairs the
working tree wins, loses and ties. Two verdicts go with each: `claim_met`,
whether a gain meets the claim rule (at least 9 of 10 pairs won, ties
for neither side, and the medians further apart than the revision's
interquartile range), and, for a metric with a `bound`, `within_bound`:
whether the tree's median is worse by at most that fraction, or
"unresolved" where the revision's own spread exceeds it and not every
tree run beats every revision run. Under `traced`, the same, without a
bound, for every per-layer metric of `BENCHMARK.json` over the traced
runs. Per workload and side it also writes `probe_scale`: for each
end-to-end metric, the median over the untraced runs of the scaled value
over the raw one, the factor the benchmark's probe applied to that side.
Exits 0 when every run was correct with no failed operation, and 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from revision import REPO, extract_src


def _pair_counts(text: str) -> dict[str, int]:
    counts = {}
    for item in text.split(","):
        name, _, n = item.partition("=")
        counts[name.strip()] = int(n)
    if any(n < 1 for n in counts.values()):
        raise argparse.ArgumentTypeError("every workload needs at least one pair")
    return counts


_CACHES = shutil.ignore_patterns("__pycache__")


def prepare_sides(tmp: Path, rev: str) -> dict[str, Path]:
    """`tmp/rev` and `tmp/tree`, laid out alike: each its own `src/` (the
    revision's `git archive`, or a copy of the working tree's) and a copy
    of the working tree's `bench/`."""
    roots = {"rev": tmp / "rev", "tree": tmp / "tree"}
    for side, root in roots.items():
        root.mkdir()
        if side == "rev":
            extract_src(rev, root)
        else:
            shutil.copytree(REPO / "src", root / "src", ignore=_CACHES)
        shutil.copytree(REPO / "bench", root / "bench", ignore=_CACHES)
    return roots


def run_bench(root: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One benchmark run of the tree at `root`: its result line, its
    recorded environment and, untraced, its unscaled metrics (a traced
    run's per-layer metrics are unscaled already)."""
    done = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{root}: bench run of {workload} exited {done.returncode}:\n"
                         f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(
        (root / ".bench_runs" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    run = {
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
        "environment": record["environment"],
    }
    if not trace:
        run["unscaled_metrics"] = record["unscaled_metrics"]
    return run


def schedule(pairs: dict[str, int], traced: int) -> list[tuple[str, int, str, int]]:
    """(workload, pair, side, trace) of every run, in running order: the
    untraced pairs, the workloads taking turns one pair each until each has
    its count, then `traced` traced pairs of every workload, in turns the
    same way. The revision runs first in even pairs, the working tree in
    odd ones."""
    rounds = [(pair, workload, 0) for pair in range(max(pairs.values()))
              for workload, n in pairs.items() if pair < n]
    rounds += [(pair, workload, 1) for pair in range(traced) for workload in pairs]
    return [(workload, pair, side, trace) for pair, workload, trace in rounds
            for side in (("rev", "tree") if pair % 2 == 0 else ("tree", "rev"))]


def _cpu_model() -> str | None:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return None
    return next((l.partition(":")[2].strip() for l in lines if l.startswith("model name")), None)


def _quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _within_bound(rev: list[float], tree: list[float], sign: float,
                  bound: float) -> bool | str:
    """Whether the working tree's median is worse than the revision's by at
    most `bound` (a fraction of the revision's median); "unresolved" when
    the revision's own quartile spread is wider than that, unless every
    tree run beats every revision run."""
    if min(sign * t for t in tree) > max(sign * r for r in rev):
        return True
    r, t = _quartiles(rev), statistics.median(tree)
    scale = abs(r["median"]) or 1.0
    if (r["q3"] - r["q1"]) / scale > bound:
        return "unresolved"
    return sign * (r["median"] - t) / scale <= bound


def _compare(rev: list[float], tree: list[float], better: str,
             bound: float | None = None) -> dict:
    """Both sides' quartiles, the working tree's pair gains and wins, and
    whether they meet the claim rule: at least 9 of 10 pairs won (a tie
    counts for neither side), and the medians further apart, the tree's
    way, than the revision's interquartile range. With a `bound`, also
    whether the tree's median stays within it (see `_within_bound`)."""
    if better == "higher":
        gains = [t / r - 1.0 if r else 0.0 for r, t in zip(rev, tree)]
    else:
        gains = [r / t - 1.0 if t else 0.0 for r, t in zip(rev, tree)]
    sign = 1.0 if better == "higher" else -1.0
    rev_q, tree_q = _quartiles(rev), _quartiles(tree)
    wins = sum(g > 0 for g in gains)
    out = {
        "rev": rev_q, "tree": tree_q, "median_gain": statistics.median(gains),
        "tree_wins": wins, "tree_losses": sum(g < 0 for g in gains),
        "ties": sum(g == 0 for g in gains), "pairs": len(gains),
        "claim_met": (10 * wins >= 9 * len(gains)
                      and sign * (tree_q["median"] - rev_q["median"]) > rev_q["q3"] - rev_q["q1"]),
    }
    if bound is not None:
        out["within_bound"] = _within_bound(rev, tree, sign, bound)
    return out


def summarize(runs: list[dict], better: dict[str, str],
              kinds: tuple[str, ...] = ("metrics", "unscaled_metrics"),
              bounds: dict[str, float] | None = None) -> dict:
    """Per workload, per metric named in `better` ('higher' or 'lower'):
    the comparison of the revision's and the working tree's runs, matched
    by pair, for each kind of value `kinds` names: by default the scaled
    (`metrics`) and raw (`unscaled_metrics`) ones, with the metric's bound
    from `bounds`, if it has one. A run is a dict with `workload`, `pair`,
    `side` ('rev' or 'tree') and those metric dicts."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_pair = {}
        for r in runs:
            if r["workload"] == workload:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
        summary[workload] = {
            name: {kind: _compare([p["rev"][kind][name] for p in pairs],
                                  [p["tree"][kind][name] for p in pairs], direction,
                                  (bounds or {}).get(name))
                   for kind in kinds}
            for name, direction in better.items()
            if all(name in p[s][kind] for p in pairs for s in ("rev", "tree") for kind in kinds)
        }
    return summary


def probe_scales(runs: list[dict], names) -> dict:
    """Per workload, side ('rev' or 'tree') and metric of `names`: the
    median over the runs of its scaled (`metrics`) value over its raw
    (`unscaled_metrics`) one. A run whose raw value is 0 or missing gives
    no ratio."""
    ratios = {}
    for r in runs:
        side = ratios.setdefault(r["workload"], {}).setdefault(r["side"], {})
        for name in names:
            raw = r["unscaled_metrics"].get(name)
            if raw:
                side.setdefault(name, []).append(r["metrics"][name] / raw)
    return {workload: {side: {name: statistics.median(v) for name, v in by_name.items()}
                       for side, by_name in sides.items()}
            for workload, sides in ratios.items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--pairs", type=_pair_counts, default="long=10,mimic=5,desk=5")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--traced", type=int, default=0,
                        help="traced runs per side and workload, for per-layer metrics")
    args = parser.parse_args(argv)
    if args.traced < 0:
        parser.error("--traced must be >= 0")

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    layer_better = {m["name"]: m["better"] for m in spec["per_layer"]}
    rev_sha = subprocess.run(["git", "-C", str(REPO), "rev-parse", args.rev],
                             capture_output=True, text=True, check=True).stdout.strip()
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = prepare_sides(Path(tmp), rev_sha)
        for workload, pair, side, trace in schedule(args.pairs, args.traced):
            run = run_bench(roots[side], workload, args.seed, trace)
            runs.append({"workload": workload, "pair": pair, "side": side, "trace": trace,
                         **run})
            print(f"{workload} pair {pair} {side}{' traced' if trace else ''}: "
                  f"train {run['metrics'].get('train_tokens_per_s', 0):.0f} tok/s, "
                  f"backward {run['metrics'].get('model.backward_s', 0):.3f} s", flush=True)
    ok = all(r["correct"] and r["failed"] == 0 for r in runs)
    environment = dict(runs[0]["environment"], cpu=_cpu_model())
    for r in runs:
        del r["environment"]
    untraced = [r for r in runs if not r["trace"]]
    traced = [r for r in runs if r["trace"]]
    out = REPO / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps({
        "command": f"python tools/bench_pairs.py {args.rev} --pr {args.pr} --pairs "
                   + ",".join(f"{w}={n}" for w, n in args.pairs.items())
                   + f" --seed {args.seed}" + (f" --traced {args.traced}" if args.traced else ""),
        "rev": rev_sha, "seed": args.seed, "environment": environment,
        "correct": ok, "summary": summarize(untraced, better, bounds=bounds),
        "probe_scale": probe_scales(untraced, better), "runs": untraced,
        **({"traced": {"summary": summarize(traced, layer_better, kinds=("metrics",)),
                       "runs": traced}} if traced else {}),
    }, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
