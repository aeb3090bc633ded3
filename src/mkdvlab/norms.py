"""Weighted Fourier-side norms, mass and momentum."""

from __future__ import annotations

import dataclasses
import math

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


def raised_cosine(t, span: float):
    """Window w(t) = (1 - cos(2 pi t / span)) / 2 on [0, span], 0 outside."""
    arr = np.asarray(t, dtype=np.float64)
    inside = (arr >= 0.0) & (arr <= span)
    values = np.where(inside, 0.5 * (1.0 - np.cos(TWO_PI * arr / span)), 0.0)
    if np.isscalar(t):
        return float(values)
    return values
