"""Weighted Fourier-side norms and momentum diagnostics."""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from .spectral import TWO_PI, FourierState


def japanese_bracket(n) -> np.ndarray:
    """<n> = (1 + n^2)^(1/2), vectorized."""
    arr = np.asarray(n, dtype=np.float64)
    return np.sqrt(1.0 + arr * arr)


@dataclasses.dataclass(frozen=True)
class NormSpec:
    """Weighted-norm parameters: s (regularity), p (mode exponent)."""

    s: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "s", float(self.s))
        p = float(self.p)
        if not p >= 1.0:  # rejects NaN too
            raise ValueError(f"p must satisfy p >= 1, got {p}")
        object.__setattr__(self, "p", p)


def _weighted_lp(values: np.ndarray, p: float) -> float:
    """l^p of nonnegative values; p = inf gives the sup."""
    if math.isinf(p):
        return float(np.max(values, initial=0.0))
    if p == 1.0:
        return float(np.sum(values))
    if p == 2.0:
        return float(np.sqrt(np.sum(values * values)))
    return float(np.sum(values**p) ** (1.0 / p))


def fl_norm(state: FourierState, spec: NormSpec) -> float:
    """|| <n>^s u_hat(n) ||_{l^p} over |n| <= mode_cap."""
    weights = japanese_bracket(state.modes) ** spec.s
    return _weighted_lp(weights * np.abs(state.coeffs), spec.p)


def _row_mass(coeffs: np.ndarray, squares=None, out=None) -> np.ndarray:
    """sum |u_hat(n)|^2 of each row of a C-contiguous coefficient stack,
    independent of the other rows and of the BLAS thread count.  The
    squared parts go to ``squares`` and the sums to ``out`` when given."""
    return np.add.reduce(np.square(coeffs.view(np.float64), out=squares), axis=-1, out=out)


def mass(state: FourierState) -> float:
    """sum |u_hat(n)|^2 = (1/2pi) int |u|^2 dx."""
    return float(_row_mass(state.coeffs))


def momentum(state: FourierState) -> float:
    """P(u) = sum n |u_hat(n)|^2; real by construction."""
    mags = np.abs(state.coeffs)
    return float(np.sum(state.modes * mags * mags))


CoefficientRule = Callable[[int], complex]


@dataclasses.dataclass(frozen=True)
class MomentumSeries:
    """Truncated momenta P_N along a schedule plus a limit verdict."""

    truncations: tuple[tuple[int, float], ...]
    verdict: str  # "converged" | "diverging" | "undetermined"


def momentum_limit_diagnostic(
    rule: CoefficientRule,
    schedule: Sequence[int],
    tol: float,
) -> MomentumSeries:
    """Classify the truncation limit of P_N along an increasing schedule,
    with u_hat(n) = rule(n).

    converged: the last three successive differences all fall below
    tol * (1 + |P_last|).  diverging: |P_last| has grown by a factor >= 2
    over |P_first| across the schedule.  Anything else: undetermined.
    This is a heuristic on finitely many truncations: for u_hat(n) = n^-1.01
    the momentum converges, yet it reads "diverging"; where the rule's
    exponent is known, decide by the exponent instead.
    """
    sched = [int(N) for N in schedule]
    if len(sched) < 4:
        raise ValueError("schedule needs at least 4 entries")
    if any(b <= a for a, b in zip(sched, sched[1:])) or sched[0] < 0:
        raise ValueError("schedule must be strictly increasing and nonnegative")

    ns = np.arange(-sched[-1], sched[-1] + 1)
    coeffs = np.array([complex(rule(int(n))) for n in ns], dtype=np.complex128)
    terms = ns * np.abs(coeffs) ** 2
    values = [float(np.sum(terms[np.abs(ns) <= N])) for N in sched]

    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    scale = tol * (1.0 + abs(values[-1]))
    if all(d <= scale for d in diffs[-3:]):
        verdict = "converged"
    elif abs(values[-1]) >= 2.0 * abs(values[0]):
        verdict = "diverging"
    else:
        verdict = "undetermined"
    return MomentumSeries(tuple(zip(sched, values)), verdict)


def raised_cosine(t, span: float):
    """Window w(t) = (1 - cos(2 pi t / span)) / 2 on [0, span], 0 outside."""
    arr = np.asarray(t, dtype=np.float64)
    inside = (arr >= 0.0) & (arr <= span)
    values = np.where(inside, 0.5 * (1.0 - np.cos(TWO_PI * arr / span)), 0.0)
    if np.isscalar(t):
        return float(values)
    return values
