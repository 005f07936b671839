"""Hyperband search over a base `model.ModelConfig`'s kernel sizes, filter
count and, for mvc-rlda, regularization weight, maximizing dev micro F1.

The resource is training epochs (R per trial at most); each bracket runs
successive halving with pruning factor eta. A trial's score is the best dev
micro F1 over the first `epochs` epochs of its configuration's one training
run, which is deterministic. So each configuration trains at most once: a
promoted trial continues its run, and a repeated configuration reads the
scores already recorded (Li et al., 2018, "Hyperband", JMLR). A run stays
in memory only while its bracket may still promote it; a later trial that
needs more epochs than recorded retrains it from scratch, with the same
scores.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .model import ModelConfig

LAMBDA_CANDIDATES = (0.001, 0.0001, 0.0005, 0.0007, 0.01)


@dataclass(frozen=True)
class SearchSpace:
    """Kernel tuples follow the fixed (s, s-2, s-4, s-6) structure: only the
    smallest size s0 is sampled and the rest derive from it."""

    s0_min: int = 2
    s0_max: int = 8
    dc_min: int = 30
    dc_max: int = 100
    lambda_candidates: tuple[float, ...] = LAMBDA_CANDIDATES

    def __post_init__(self):
        if self.s0_min < 1 or self.s0_min > self.s0_max:
            raise ValueError("invalid kernel size range")
        if self.dc_min < 1 or self.dc_min > self.dc_max:
            raise ValueError("invalid filter count range")
        if len(self.lambda_candidates) == 0:
            raise ValueError("empty regularization candidate set")
        if not all(math.isfinite(lam) and lam >= 0 for lam in self.lambda_candidates):
            raise ValueError("lambda_candidates must be finite and >= 0")


def kernel_sizes(s0: int) -> tuple[int, ...]:
    """The kernel tuple whose smallest size is s0."""
    return (s0, s0 + 2, s0 + 4, s0 + 6)


def sample_config(space: SearchSpace, base: ModelConfig, rng) -> ModelConfig:
    """`base` with s0 (so its kernel sizes), d_c and, for mvc-rlda, a lambda
    candidate drawn from `space` in that order; mvc-lda, which has no
    regularizer, keeps the base's lambda."""
    s0 = int(rng.integers(space.s0_min, space.s0_max + 1))
    d_c = int(rng.integers(space.dc_min, space.dc_max + 1))
    lam = base.lambda_
    if base.kind == "mvc-rlda":
        lam = float(space.lambda_candidates[int(rng.integers(len(space.lambda_candidates)))])
    return replace(base, kernel_sizes=kernel_sizes(s0), n_filters=d_c, lambda_=lam)


def config_json(cfg: ModelConfig) -> dict:
    """A trial's searched fields as logged; `lambda` is null for mvc-lda."""
    return {
        "kernel_sizes": list(cfg.kernel_sizes),
        "n_filters": cfg.n_filters,
        "lambda": cfg.lambda_ if cfg.kind == "mvc-rlda" else None,
    }


def bracket_schedule(R: int, eta: int) -> list[tuple[int, int, int]]:
    """(s, n, r) per bracket: s from s_max down to 0, n initial configs,
    r initial per-trial epochs. An R whose counts a float cannot hold
    raises ValueError."""
    if R < 1 or eta < 2:
        raise ValueError("R must be >= 1 and eta >= 2")
    s_max = 0
    while eta ** (s_max + 1) <= R:
        s_max += 1
    out = []
    try:
        for s in range(s_max, -1, -1):
            n = math.ceil((s_max + 1) / (s + 1) * eta**s)
            r = max(1, int(math.floor(R / eta**s + 1e-9)))
            out.append((s, n, r))
    except OverflowError:
        raise ValueError(f"R {R} with eta {eta} gives a bracket too large for a float") from None
    return out


@dataclass
class Trial:
    bracket: int
    rung: int
    trial: int
    config: ModelConfig
    epochs: int
    dev_micro_f1: float


class _Runs:
    """Each configuration's run: the dev micro F1 of every epoch trained so
    far, and the live iterator while a promotion may still continue it."""

    def __init__(self, start):
        self.start = start
        self.scores: dict[ModelConfig, list[float]] = {}
        self.live: dict[ModelConfig, Iterator[float]] = {}
        self.diverged: set[ModelConfig] = set()  # its scores end where its run raised

    def score(self, config: ModelConfig, epochs: int, where: str) -> float:
        """Best of the first `epochs` scores of `config`'s run, training it
        only as far as needed; 0.0 when the run diverges before then."""
        done = self.scores.setdefault(config, [])
        if len(done) < epochs and config not in self.diverged:
            if config not in self.live:  # a dropped run starts over, scoring the same
                self.live[config] = iter(self.start(config))
                done.clear()
            try:
                while len(done) < epochs:
                    done.append(float(next(self.live[config])))
            except FloatingPointError as exc:
                print(f"warning: {where} diverged, scored 0.0: {exc}", file=sys.stderr)
                del self.live[config]
                self.diverged.add(config)
        return max(done[:epochs]) if len(done) >= epochs else 0.0

    def keep_only(self, configs) -> None:
        for config in self.live.keys() - set(configs):
            del self.live[config]


def hyperband_search(
    space: SearchSpace, base: ModelConfig, start, R: int, eta: int, seed: int
) -> tuple[ModelConfig, float, list[Trial]]:
    """Run all brackets over configs sampled from `space` around `base`
    (`sample_config`); `start(config)` must return that config's training
    run, an iterator of the dev micro F1 after each epoch (at least R), the
    same on every call. A trial whose run raises FloatingPointError (a
    non-finite loss, output or gradient, or a float overflow, invalid
    operation or division by zero under the command's `np.errstate`)
    scores 0.0, with a warning, and the search goes on.

    Survivors of each rung are the top floor(n_i/eta) configs by score,
    earlier trial index winning ties. Returns (best config, its score, the
    complete trial log ordered by bracket/rung/trial).
    """
    rng = np.random.default_rng(seed)
    runs = _Runs(start)
    log: list[Trial] = []
    best: Trial | None = None
    for s, n, r in bracket_schedule(R, eta):
        configs = [sample_config(space, base, rng) for _ in range(n)]
        for i in range(s + 1):
            epochs = r * eta**i
            keep = len(configs) // eta if i < s else 0
            top: list[tuple[float, int, ModelConfig]] = []  # the rung's running top-`keep`
            for t, config in enumerate(configs):
                score = runs.score(config, epochs, f"bracket {s} rung {i} trial {t}")
                trial = Trial(
                    bracket=s, rung=i, trial=t,
                    config=config, epochs=epochs, dev_micro_f1=score,
                )
                log.append(trial)
                if best is None or score > best.dev_micro_f1:
                    best = trial
                top = sorted(top + [(-score, t, config)])[:keep]
                # live: the runs still promotable, and the promoted ones not yet continued
                runs.keep_only([c for *_, c in top] + (configs[t + 1:] if i else []))
            configs = [config for *_, config in top]
    assert best is not None
    return best.config, best.dev_micro_f1, log
