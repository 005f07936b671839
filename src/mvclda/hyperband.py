"""Hyperband search over kernel sizes, filter count, and regularization
weight, maximizing dev micro F1.

The resource is training epochs (R per trial at most); each bracket runs
successive halving with pruning factor eta. Trials at higher rungs retrain
from scratch with the larger epoch budget, which keeps every trial a pure
function of (config, epochs, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LAMBDA_CANDIDATES = (0.001, 0.0001, 0.0005, 0.0007, 0.01)


@dataclass(frozen=True)
class SearchSpace:
    """Kernel tuples follow the fixed (s, s-2, s-4, s-6) structure: only the
    smallest size s0 is sampled and the rest derive from it."""

    s0_min: int = 2
    s0_max: int = 8
    dc_min: int = 30
    dc_max: int = 100
    lambdas: tuple[float, ...] | None = LAMBDA_CANDIDATES

    def __post_init__(self):
        if self.s0_min < 1 or self.s0_min > self.s0_max:
            raise ValueError("invalid kernel size range")
        if self.dc_min < 1 or self.dc_min > self.dc_max:
            raise ValueError("invalid filter count range")
        if self.lambdas is not None and len(self.lambdas) == 0:
            raise ValueError("empty regularization candidate set")


@dataclass(frozen=True)
class TrialConfig:
    kernel_sizes: tuple[int, ...]
    n_filters: int
    lambda_: float | None = None

    def to_json_obj(self) -> dict:
        return {
            "kernel_sizes": list(self.kernel_sizes),
            "n_filters": self.n_filters,
            "lambda": self.lambda_,
        }


def sample_config(space: SearchSpace, rng) -> TrialConfig:
    s0 = int(rng.integers(space.s0_min, space.s0_max + 1))
    d_c = int(rng.integers(space.dc_min, space.dc_max + 1))
    lam = None
    if space.lambdas is not None:
        lam = float(space.lambdas[int(rng.integers(len(space.lambdas)))])
    return TrialConfig(kernel_sizes=(s0, s0 + 2, s0 + 4, s0 + 6), n_filters=d_c, lambda_=lam)


def bracket_schedule(R: int, eta: int) -> list[tuple[int, int, int]]:
    """(s, n, r) per bracket: s from s_max down to 0, n initial configs,
    r initial per-trial epochs."""
    if R < 1 or eta < 2:
        raise ValueError("R must be >= 1 and eta >= 2")
    s_max = 0
    while eta ** (s_max + 1) <= R:
        s_max += 1
    out = []
    for s in range(s_max, -1, -1):
        n = math.ceil((s_max + 1) / (s + 1) * eta**s)
        r = max(1, int(math.floor(R / eta**s + 1e-9)))
        out.append((s, n, r))
    return out


@dataclass
class Trial:
    bracket: int
    rung: int
    trial: int
    config: TrialConfig
    epochs: int
    dev_micro_f1: float


def hyperband_search(
    space: SearchSpace,
    evaluate,
    R: int = 27,
    eta: int = 3,
    seed: int = 0,
) -> tuple[TrialConfig, float, list[Trial]]:
    """Run all brackets; `evaluate(config, epochs)` must deterministically
    return the dev micro F1 achieved with that budget.

    Survivors of each rung are the top floor(n_i/eta) configs by score,
    earlier trial index winning ties. Returns (best config, its score, the
    complete trial log ordered by bracket/rung/trial).
    """
    rng = np.random.default_rng(seed)
    log: list[Trial] = []
    best: Trial | None = None
    for s, n, r in bracket_schedule(R, eta):
        configs = [sample_config(space, rng) for _ in range(n)]
        for i in range(s + 1):
            epochs = r * eta**i
            scored = []
            for t, config in enumerate(configs):
                score = float(evaluate(config, epochs))
                trial = Trial(
                    bracket=s, rung=i, trial=t,
                    config=config, epochs=epochs, dev_micro_f1=score,
                )
                log.append(trial)
                scored.append((score, t, config))
                if best is None or score > best.dev_micro_f1:
                    best = trial
            if i < s:
                keep = len(configs) // eta
                scored.sort(key=lambda item: (-item[0], item[1]))
                configs = [config for _score, _t, config in scored[:keep]]
    assert best is not None
    return best.config, best.dev_micro_f1, log
