"""Band-limited states on the torus and exact spectral primitives.

Convention: u(x) = sum_{|n| <= M} u_hat(n) e^{inx} with
u_hat(n) = (1/2pi) int_0^{2pi} u(x) e^{-inx} dx, on the uniform grid
x_j = 2pi j / K.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

import numpy as np
from scipy import fft as sfft

from .errors import AliasingError

TWO_PI = 2.0 * np.pi

REAL_SYMMETRY_TOL = 1e-14


def _frozen_complex_array(values, length_name, expected_len=None):
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"{length_name} must be one-dimensional")
    if expected_len is not None and arr.size != expected_len:
        raise ValueError(
            f"{length_name} has length {arr.size}, expected {expected_len}"
        )
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclasses.dataclass(frozen=True)
class FourierState:
    """Coefficients of a band-limited function at one instant.

    ``coeffs[i]`` stores mode ``n = i - mode_cap`` for ``|n| <= mode_cap``,
    so the array has length ``2 * mode_cap + 1``.
    """

    coeffs: np.ndarray
    mode_cap: int
    time: float = 0.0

    def __post_init__(self):
        if self.mode_cap < 0:
            raise ValueError("mode_cap must be >= 0")
        arr = _frozen_complex_array(
            self.coeffs, "coeffs", expected_len=2 * self.mode_cap + 1
        )
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "time", float(self.time))

    @property
    def modes(self) -> np.ndarray:
        """Mode numbers -M..M aligned with ``coeffs``."""
        return np.arange(-self.mode_cap, self.mode_cap + 1)

    def coeff(self, n: int) -> complex:
        if abs(n) > self.mode_cap:
            return 0.0 + 0.0j
        return complex(self.coeffs[n + self.mode_cap])

    def is_real_valued(self, tol: float = REAL_SYMMETRY_TOL) -> bool:
        """True when coeffs(-n) = conj(coeffs(n)) within ``tol``."""
        reflected = np.conj(self.coeffs[::-1])
        scale = max(1.0, float(np.max(np.abs(self.coeffs), initial=0.0)))
        return bool(np.max(np.abs(self.coeffs - reflected), initial=0.0) <= tol * scale)

    def with_(self, coeffs=None, time=None) -> "FourierState":
        return FourierState(
            coeffs=self.coeffs if coeffs is None else coeffs,
            mode_cap=self.mode_cap,
            time=self.time if time is None else time,
        )


@dataclasses.dataclass(frozen=True)
class GridFunction:
    """Samples on the uniform grid x_j = 2pi j / K, j = 0..K-1."""

    samples: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        arr = _frozen_complex_array(self.samples, "samples")
        if arr.size == 0:
            raise ValueError("samples must be non-empty")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "time", float(self.time))

    @property
    def num_points(self) -> int:
        return self.samples.size

    @property
    def points(self) -> np.ndarray:
        return TWO_PI * np.arange(self.num_points) / self.num_points


def zero_state(mode_cap: int, time: float = 0.0) -> FourierState:
    return FourierState(np.zeros(2 * mode_cap + 1, dtype=np.complex128), mode_cap, time)


def state_from_modes(
    mode_cap: int, amplitudes: Mapping[int, complex], time: float = 0.0
) -> FourierState:
    """Build a state from a sparse {mode: amplitude} mapping."""
    coeffs = np.zeros(2 * mode_cap + 1, dtype=np.complex128)
    for n, value in amplitudes.items():
        if abs(int(n)) > mode_cap:
            raise ValueError(f"mode {n} exceeds mode_cap {mode_cap}")
        coeffs[int(n) + mode_cap] = value
    return FourierState(coeffs, mode_cap, time)


def conjugate_state(state: FourierState) -> FourierState:
    """Coefficients of conj(u): n -> conj(u_hat(-n))."""
    return state.with_(coeffs=np.conj(state.coeffs[::-1]))


def _spread_modes(coeffs: np.ndarray, mode_cap: int, out: np.ndarray) -> np.ndarray:
    """Write modes n = -M..M (last axis of ``coeffs``) to index n mod K of
    the length-K last axis of ``out``: modes 0..M go to 0..M and modes
    -M..-1 to K-M..K-1.  The entries in between are left as they are.
    """
    num_points = out.shape[-1]
    out[..., : mode_cap + 1] = coeffs[..., mode_cap:]
    out[..., num_points - mode_cap :] = coeffs[..., :mode_cap]
    return out


def _gather_modes(values: np.ndarray, mode_cap: int) -> np.ndarray:
    """Entries n mod K of the last axis for n = -M..M, in mode order; the
    inverse of ``_spread_modes``."""
    num_points = values.shape[-1]
    out = np.empty(values.shape[:-1] + (2 * mode_cap + 1,), dtype=values.dtype)
    out[..., :mode_cap] = values[..., num_points - mode_cap :]
    out[..., mode_cap:] = values[..., : mode_cap + 1]
    return out


def _require_resolving(num_points: int, mode_cap: int, what: str) -> None:
    needed = 2 * mode_cap + 1
    if num_points < needed:
        raise AliasingError(
            f"{what} needs at least {needed} grid points for mode_cap "
            f"{mode_cap}, got {num_points}"
        )


def synthesis(coeffs: np.ndarray, mode_cap: int, num_points: int) -> np.ndarray:
    """Raw coefficient array(s) -> samples on ``num_points`` grid points.

    Works along the last axis, so a (B, 2M+1) stack gives (B, K) samples.
    """
    _require_resolving(num_points, mode_cap, "synthesis")
    coeffs = np.asarray(coeffs)
    spread = np.zeros(coeffs.shape[:-1] + (num_points,), dtype=np.complex128)
    _spread_modes(coeffs, mode_cap, spread)
    return sfft.ifft(spread, overwrite_x=True) * num_points


def analysis(samples: np.ndarray, mode_cap: int) -> np.ndarray:
    """Samples -> coefficient array for |n| <= mode_cap, along the last axis."""
    _require_resolving(samples.shape[-1], mode_cap, "analysis")
    return _gather_modes(sfft.fft(samples), mode_cap) / samples.shape[-1]


def to_physical(state: FourierState, num_points: int) -> GridFunction:
    """Evaluate the state on the K-point grid; exact for K >= 2M+1."""
    _require_resolving(num_points, state.mode_cap, "to_physical")
    return GridFunction(synthesis(state.coeffs, state.mode_cap, num_points), state.time)


def to_fourier(grid: GridFunction, mode_cap: int) -> FourierState:
    """Recover modes |n| <= mode_cap; left inverse of to_physical."""
    _require_resolving(grid.num_points, mode_cap, "to_fourier")
    return FourierState(analysis(grid.samples, mode_cap), mode_cap, grid.time)


def project_low(state: FourierState, cutoff: int) -> FourierState:
    """Keep modes |n| <= cutoff, zero the rest."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    mask = np.abs(state.modes) <= cutoff
    return state.with_(coeffs=np.where(mask, state.coeffs, 0.0))


def project_high(state: FourierState, cutoff: int) -> FourierState:
    """Keep modes |n| > cutoff, zero the rest."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    mask = np.abs(state.modes) > cutoff
    return state.with_(coeffs=np.where(mask, state.coeffs, 0.0))


def project_band(state: FourierState, low: int, high: int) -> FourierState:
    """Keep modes with low <= |n| <= high."""
    if not 0 <= low <= high:
        raise ValueError("band bounds must satisfy 0 <= low <= high")
    absn = np.abs(state.modes)
    mask = (absn >= low) & (absn <= high)
    return state.with_(coeffs=np.where(mask, state.coeffs, 0.0))


def derivative(state: FourierState, order: int = 1) -> FourierState:
    """Spatial derivative: multiply mode n by (in)^order."""
    if order < 0:
        raise ValueError("order must be >= 0")
    factors = (1j * state.modes.astype(np.float64)) ** order
    return state.with_(coeffs=factors * state.coeffs)


def padded_grid_size(mode_cap: int) -> int:
    """Grid length used for alias-free cubic products.

    4M+1 points make the cubic convolution exact on |n| <= M: the product
    of three band-limited factors carries modes up to 3M, and a length-K
    DFT wraps mode m onto m - K, which stays outside [-M, M] once
    K >= 4M+1.  Rounded up to an FFT-friendly length.
    """
    return int(sfft.next_fast_len(4 * mode_cap + 1, real=False))


def dealiased_triple_product(
    a: FourierState, b: FourierState, c: FourierState
) -> FourierState:
    """Modes |n| <= M of the pointwise product a*b*c, alias-free.

    All three factors must share one mode_cap; the result is truncated to
    the same cap and keeps ``a``'s time stamp.
    """
    if not (a.mode_cap == b.mode_cap == c.mode_cap):
        raise ValueError("triple product requires matching mode caps")
    cap = a.mode_cap
    pa, pb, pc = synthesis(
        np.stack((a.coeffs, b.coeffs, c.coeffs)), cap, padded_grid_size(cap)
    )
    return FourierState(analysis(pa * pb * pc, cap), cap, a.time)
