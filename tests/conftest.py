"""Shared helpers: independent oracles, a JSON state writer and state factories.

The oracles recompute spectral quantities straight from the definitions
(direct quadrature sums and the brute-force resonance decomposition, no
FFT anywhere), giving every transform-based result in the package a
second, structurally different route to agree with.  Two exceptions,
``reference_rhs_builder`` and ``reference_ifrk4_stepper``, are bitwise
references rather than independent routes: the right-hand side as written
on public scipy.fft, and the step as written on broadcast operands.
"""

import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np
# mkdvlab imports scipy.fft when it builds its first stepper; import it
# with the test modules, so that no test's timing (hypothesis deadlines
# included) pays that one-time import
import scipy.fft  # noqa: F401

import mkdvlab
from mkdvlab.dynamics import VARIANTS
from mkdvlab.io import canonical_json
from mkdvlab.spectral import FourierState, _spread_modes, padded_grid_size

TWO_PI = 2.0 * np.pi


def oracle_synthesis(state: FourierState, num_points: int) -> np.ndarray:
    """u(x_j) = sum_n u_hat(n) e^{i n x_j} by direct summation."""
    xs = TWO_PI * np.arange(num_points) / num_points
    return np.exp(1j * np.outer(xs, state.modes)) @ state.coeffs


def oracle_analysis(samples: np.ndarray, mode_cap: int) -> np.ndarray:
    """u_hat(n) = (1/2pi) int u e^{-inx} dx via the exact periodic rule."""
    num = samples.size
    xs = TWO_PI * np.arange(num) / num
    ns = np.arange(-mode_cap, mode_cap + 1)
    return np.exp(-1j * np.outer(ns, xs)) @ samples / num


def oracle_cubic(state: FourierState) -> np.ndarray:
    """Coefficients of |u|^2 u_x on |n| <= M by physical-space quadrature.

    4M+1 points make the periodic rule exact for the degree-3M integrand,
    so this route shares nothing with either the padded-FFT product or
    the Fourier-side convolution sum.
    """
    cap = state.mode_cap
    num = 4 * cap + 1
    u = oracle_synthesis(state, num)
    ux = oracle_synthesis(
        state.with_(coeffs=1j * state.modes * state.coeffs), num
    )
    return oracle_analysis(np.abs(u) ** 2 * ux, cap)


#: Mode-cap ceiling for the brute-force decomposition.
DECOMPOSITION_CAP = 64


@dataclasses.dataclass(frozen=True)
class NonlinearityParts:
    """Sign-free pieces of the cubic term.

    full cubic = nonresonant - resonant + momentum_part + mean_part, where
    the variants keep (mkdv) all four, (mkdv1) all but mean_part, and
    (mkdv2) only nonresonant - resonant.
    """

    nonresonant: FourierState
    resonant: FourierState
    momentum_part: FourierState
    mean_part: FourierState


def decompose_nonlinearity(state: FourierState) -> NonlinearityParts:
    """Brute-force resonance decomposition; the oracle for the FFT path.

    Direct O(M^3) summation over the nonresonant set, sharing no code with
    ``mkdvlab.dynamics.nonlinearity``; refused above mode_cap 64.
    """
    cap = state.mode_cap
    if cap > DECOMPOSITION_CAP:
        raise ValueError(
            f"decompose_nonlinearity is a brute-force oracle capped at "
            f"mode_cap {DECOMPOSITION_CAP} (got {cap}); use "
            f"mkdvlab.dynamics.nonlinearity() for production-size states"
        )
    modes = state.modes
    coeffs = state.coeffs
    reflected = np.conj(coeffs[::-1])  # index m+cap holds conj(u_hat(-m))

    n1 = modes[:, None]
    n2 = modes[None, :]
    pair12 = n1 + n2
    outer = coeffs[:, None] * reflected[None, :]

    nonres = np.zeros_like(coeffs)
    for i, n in enumerate(modes):
        n3 = n - pair12
        valid = (
            (np.abs(n3) <= cap)
            & (pair12 != 0)
            & ((n1 + n3) != 0)
            & ((n2 + n3) != 0)
        )
        gather = np.clip(n3 + cap, 0, 2 * cap)
        terms = (1j * n3) * outer * coeffs[gather]
        nonres[i] = np.sum(terms[valid])

    mags = coeffs.real**2 + coeffs.imag**2
    resonant = (1j * modes) * mags * coeffs
    mom = float(np.sum(modes * mags))
    mu = float(np.sum(mags))
    momentum_part = 1j * mom * coeffs
    mean_part = mu * (1j * modes) * coeffs
    return NonlinearityParts(
        nonresonant=state.with_(coeffs=nonres),
        resonant=state.with_(coeffs=resonant),
        momentum_part=state.with_(coeffs=momentum_part),
        mean_part=state.with_(coeffs=mean_part),
    )


def state_to_json_text(state: FourierState) -> str:
    """A JSON state as ``mkdvlab.io.load_state`` reads it: canonical JSON
    with mode_cap, time and one [n, re, im] row per mode."""
    payload = {
        "mode_cap": state.mode_cap,
        "time": state.time,
        "coeffs": [
            [int(n), value.real, value.imag]
            for n, value in zip(state.modes, state.coeffs)
        ],
    }
    return canonical_json(payload)


def is_conjugate_symmetric(coeffs: np.ndarray, tol: float = 1e-14) -> bool:
    """coeffs(-n) = conj(coeffs(n)) within ``tol`` of the largest modulus
    (at least 1): the coefficients of a real-valued function."""
    reflected = np.conj(coeffs[::-1])
    scale = max(1.0, float(np.max(np.abs(coeffs), initial=0.0)))
    return bool(np.max(np.abs(coeffs - reflected), initial=0.0) <= tol * scale)


def stdout_per_blas_thread_count(code: str) -> list[str]:
    """stdout of ``python -c code`` under OPENBLAS_NUM_THREADS=1 and =2,
    importing the mkdvlab under test."""
    src = str(pathlib.Path(mkdvlab.__file__).parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        outputs.append(done.stdout)
    return outputs


#: the reduced nonexistence config of tools/golden.py
REDUCED_NONEXISTENCE = {
    "modes": "32", "schedule": "4,8,16", "T": "0.2", "save_points": "20",
    "control_modes": "16", "control_schedule": "8,16",
    "mom_schedule": "8,16,32,64,128",
}


def random_state(mode_cap: int, seed: int, scale: float = 0.3) -> FourierState:
    rng = np.random.default_rng(seed)
    size = 2 * mode_cap + 1
    coeffs = scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    return FourierState(coeffs, mode_cap)


def _gather_modes(values: np.ndarray, mode_cap: int) -> np.ndarray:
    """Entries n mod K of the last axis for n = -M..M, in mode order; the
    inverse of ``_spread_modes``."""
    num_points = values.shape[-1]
    out = np.empty(values.shape[:-1] + (2 * mode_cap + 1,), dtype=values.dtype)
    out[..., :mode_cap] = values[..., num_points - mode_cap :]
    out[..., mode_cap:] = values[..., : mode_cap + 1]
    return out


def reference_rhs_builder(cap, equations):
    """``mkdvlab.dynamics._rhs_builder`` as written on public ``scipy.fft``:
    the spread (in) u_hat comes from a padded-grid derivative row, and the
    modes are gathered and then scaled.  Every operation and operand order
    of the production right-hand side, through different calls, so the two
    must agree bitwise.  ``rhs(coeffs, stage)`` copies its result into
    stage ``stage`` of ``rhs.stages`` and returns that stage, as the
    production one does; ``rhs(coeffs)`` returns a fresh array.  Like the
    production ``rhs.coeffs``, ``rhs.coeffs`` is an input buffer that a
    caller may fill and pass.
    """
    from scipy import fft as sfft

    num_points = padded_grid_size(cap)
    nvec = np.arange(-cap, cap + 1).astype(np.float64)[None]
    deriv = 1j * nvec
    paired_nvec = np.repeat(nvec, 2, axis=-1)
    padded_deriv = _spread_modes(deriv, cap, np.zeros((1, num_points), dtype=np.complex128))
    sign = np.array([[complex(eq.sign)] for eq in equations])
    signed_scale = sign * (float(num_points) * float(num_points))
    # rows of rank 1 or more in VARIANTS subtract the mean transport, and
    # rows of rank 2 the momentum phase too
    ranks = np.array([[VARIANTS.index(eq.variant)] for eq in equations])
    mean_rows, momentum_rows = (
        True if rows.all() else rows for rows in (ranks >= 1, ranks >= 2)
    )
    subtract_mean = bool(np.any(mean_rows))
    subtract_momentum = bool(np.any(momentum_rows))
    spread = np.zeros((2, len(equations), num_points), dtype=np.complex128)

    def rhs(coeffs, stage=None):
        _spread_modes(coeffs, cap, spread[0])
        np.multiply(padded_deriv, spread[0], out=spread[1])
        phys, phys_dx = sfft.ifft(spread)
        product = np.multiply(phys, np.conj(phys))  # not '*': its elision swaps operands
        product *= phys_dx
        cubic = _gather_modes(sfft.fft(product, overwrite_x=True), cap)
        cubic *= signed_scale
        if subtract_mean or subtract_momentum:
            squares = np.square(coeffs.view(np.float64))
        if subtract_mean:
            mu = np.add.reduce(squares, axis=-1, keepdims=True)
            term = (sign * mu) * (deriv * coeffs)
            np.subtract(cubic, term, out=cubic, where=mean_rows)
        if subtract_momentum:
            mom = np.add.reduce(paired_nvec * squares, axis=-1, keepdims=True)
            term = 1j * (sign * mom) * coeffs
            np.subtract(cubic, term, out=cubic, where=momentum_rows)
        if stage is None:
            return cubic
        np.copyto(rhs.stages[stage], cubic)
        return rhs.stages[stage]

    rhs.coeffs = np.empty((len(equations), 2 * cap + 1), dtype=np.complex128)
    rhs.stages = np.empty((4,) + rhs.coeffs.shape, dtype=np.complex128)
    return rhs


def reference_ifrk4_stepper(cap, equations, dt):
    """``mkdvlab.dynamics._ifrk4_stepper`` as it was on broadcast operands:
    (1, 2M+1) propagator rows, Python-float step factors, and the reference
    right-hand side, which takes the equations in any order.  Every
    operation and operand order of the production step, so the two must
    agree bitwise.
    """
    rhs = reference_rhs_builder(cap, equations)
    ncube = np.arange(-cap, cap + 1).astype(np.float64)[None] ** 3
    half_prop = np.exp(1j * ncube * (dt / 2.0))
    full_prop = half_prop * half_prop
    half_back = np.conj(half_prop)
    full_back = np.conj(full_prop)

    def stage(u, k, factor, prop):
        out = np.multiply(factor, k)
        out += u
        return np.multiply(prop, out, out=out)

    def advance(u):
        k1 = rhs(u)
        k2 = rhs(stage(u, k1, dt / 2.0, half_prop))
        np.multiply(half_back, k2, out=k2)
        k3 = rhs(stage(u, k2, dt / 2.0, half_prop))
        np.multiply(half_back, k3, out=k3)
        k4 = rhs(stage(u, k3, dt, full_prop))
        np.multiply(full_back, k4, out=k4)
        k2 += k3
        np.multiply(2.0, k2, out=k2)
        np.add(k1, k2, out=k2)
        k2 += k4
        return stage(u, k2, dt / 6.0, full_prop)

    return advance
