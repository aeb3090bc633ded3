"""Band-limited states on the torus and exact spectral primitives.

Convention: u(x) = sum_{|n| <= M} u_hat(n) e^{inx} with
u_hat(n) = (1/2pi) int_0^{2pi} u(x) e^{-inx} dx, on the uniform grid
x_j = 2pi j / K.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Mapping

import numpy as np

from .errors import AliasingError

TWO_PI = 2.0 * np.pi


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
        arr = np.array(self.coeffs, dtype=np.complex128)  # a private copy
        if arr.ndim != 1:
            raise ValueError("coeffs must be one-dimensional")
        if arr.size != 2 * self.mode_cap + 1:
            raise ValueError(
                f"coeffs has length {arr.size}, expected {2 * self.mode_cap + 1}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "time", float(self.time))

    def __reduce__(self):
        # through the constructor, so an unpickled state is read-only too
        return FourierState, (self.coeffs, self.mode_cap, self.time)

    @property
    def modes(self) -> np.ndarray:
        """Mode numbers -M..M aligned with ``coeffs``."""
        return np.arange(-self.mode_cap, self.mode_cap + 1)

    def coeff(self, n: int) -> complex:
        if abs(n) > self.mode_cap:
            return 0.0 + 0.0j
        return complex(self.coeffs[n + self.mode_cap])

    def with_(self, coeffs=None, time=None) -> "FourierState":
        return FourierState(
            coeffs=self.coeffs if coeffs is None else coeffs,
            mode_cap=self.mode_cap,
            time=self.time if time is None else time,
        )


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


def synthesis(coeffs: np.ndarray, mode_cap: int, num_points: int) -> np.ndarray:
    """Raw coefficient array(s) -> samples on ``num_points`` grid points.

    Works along the last axis, so a (B, 2M+1) stack gives (B, K) samples;
    exact for K >= 2M+1.  Transforms as the stepper does, calling pocketfft's
    binding as ``scipy.fft.ifft(x, overwrite_x=True)`` does.
    """
    from scipy.fft._pocketfft import pypocketfft

    if num_points < 2 * mode_cap + 1:
        raise AliasingError(
            f"synthesis needs at least {2 * mode_cap + 1} grid points for "
            f"mode_cap {mode_cap}, got {num_points}"
        )
    coeffs = np.asarray(coeffs)
    spread = np.zeros(coeffs.shape[:-1] + (num_points,), dtype=np.complex128)
    _spread_modes(coeffs, mode_cap, spread)
    return pypocketfft.c2c(spread, (-1,), False, 2, spread, 1) * num_points


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


def padded_grid_size(mode_cap: int) -> int:
    """Grid length used for alias-free cubic products.

    4M+1 points make the cubic convolution exact on |n| <= M: the product
    of three band-limited factors carries modes up to 3M, and a length-K
    DFT wraps mode m onto m - K, which stays outside [-M, M] once
    K >= 4M+1.  Rounded up to an FFT-friendly length: scipy.fft's complex
    ``next_fast_len``, computed here without importing scipy.
    """
    return _next_fast_len(4 * int(mode_cap) + 1, (2, 3, 5, 7, 11))


@functools.lru_cache(maxsize=64)
def _next_fast_len(target: int, primes: tuple[int, ...]) -> int:
    """The smallest integer >= target (>= 1) with no prime factor outside
    ``primes``, which must start with 2.

    With primes 2..11 this is ``scipy.fft.next_fast_len(target)``, and with
    2, 3, 5 it is ``next_fast_len(target, real=True)``: the lengths pocketfft
    transforms fastest.
    """
    power_of_two = 1 << (target - 1).bit_length()
    # every product of the odd primes up to that power of two, each then
    # doubled until it reaches the target
    odd = [1]
    for prime in primes[1:]:
        grown = []
        for product in odd:
            while product <= power_of_two:
                grown.append(product)
                product *= prime
        odd = grown
    return min(product << ((target - 1) // product).bit_length() for product in odd)
