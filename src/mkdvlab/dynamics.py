"""Equation family, resonance arithmetic, and time integration.

The family on the torus, with sign = +1 or -1:

    mkdv   du/dt + u_xxx = sign |u|^2 u_x
    mkdv1  du/dt + u_xxx = sign (|u|^2 - mean|u|^2) u_x
    mkdv2  as mkdv1 minus sign * i * (mean Im(conj(u) u_x)) u

Fourier side, with P(u) = sum n |u_hat(n)|^2 and mu = sum |u_hat(n)|^2:
the full cubic term splits over the resonant set into a nonresonant sum
NR, the diagonal resonance R(n) = i n |u_hat(n)|^2 u_hat(n), the momentum
phase i P(u) u_hat, and the mean transport mu * (in) u_hat.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Sequence

import numpy as np
from scipy import fft as sfft

from .errors import SolverAbort, StabilityWarning
from .norms import NormSpec, fl_norm, japanese_bracket
from .spectral import (
    FourierState,
    _embed_indices,
    padded_grid_size,
    synthesis,
)

VARIANTS = ("mkdv", "mkdv1", "mkdv2")

#: |n_j| bound for exact resonance arithmetic.
RESONANCE_DOMAIN = 1 << 20

#: Mode-cap ceiling for the brute-force decomposition.
DECOMPOSITION_CAP = 64

#: Largest relative rounding estimate j1_multiplier_sum accepts from its FFT.
J1_FFT_TOLERANCE = 1e-12

#: Inter-step relative mass drift that aborts the solver.
MASS_DRIFT_LIMIT = 0.01


@dataclasses.dataclass(frozen=True)
class EquationSpec:
    """Which member of the family, and the nonlinearity sign."""

    variant: str
    sign: int = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; choose from {VARIANTS}"
            )
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        object.__setattr__(self, "sign", int(self.sign))


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """States on a uniform time grid, plus solver metadata."""

    states: tuple[FourierState, ...]
    dt: float
    equation: EquationSpec | None = None
    metadata: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        states = tuple(self.states)
        if not states:
            raise ValueError("a trajectory needs at least one state")
        cap = states[0].mode_cap
        if any(st.mode_cap != cap for st in states):
            raise ValueError("all trajectory states must share one mode_cap")
        dt = float(self.dt)
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        t0 = states[0].time
        span = max(1.0, abs(t0) + len(states) * dt)
        for k, st in enumerate(states):
            if abs(st.time - (t0 + k * dt)) > 1e-9 * span:
                raise ValueError("state times are not uniform with spacing dt")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "dt", dt)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def mode_cap(self) -> int:
        return self.states[0].mode_cap

    @property
    def times(self) -> np.ndarray:
        return np.array([st.time for st in self.states])

    @property
    def initial(self) -> FourierState:
        return self.states[0]

    @property
    def final(self) -> FourierState:
        return self.states[-1]


def _check_resonance_domain(*ns: int) -> None:
    for n in ns:
        if abs(int(n)) > RESONANCE_DOMAIN:
            raise ValueError(
                f"|n| = {abs(int(n))} outside the exact-arithmetic domain "
                f"(|n| <= 2^20)"
            )


def phi_resonance(n1: int, n2: int, n3: int) -> int:
    """Phi = 3 (n1+n2)(n1+n3)(n2+n3), exactly, as a Python int.

    Equals (n1+n2+n3)^3 - n1^3 - n2^3 - n3^3; evaluated in arbitrary
    precision so no overflow is possible inside the admitted domain.
    """
    _check_resonance_domain(n1, n2, n3)
    n1, n2, n3 = int(n1), int(n2), int(n3)
    return 3 * (n1 + n2) * (n1 + n3) * (n2 + n3)


def lambda_membership(n: int, n1: int, n2: int, n3: int) -> bool:
    """True when (n1,n2,n3) lies in the nonresonant set Lambda(n)."""
    n, n1, n2, n3 = int(n), int(n1), int(n2), int(n3)
    if n1 + n2 + n3 != n:
        return False
    return (n1 + n2) != 0 and (n1 + n3) != 0 and (n2 + n3) != 0


def _rhs_builder(cap: int, equation: EquationSpec):
    """Signed right-hand-side transform on raw coefficient arrays."""
    num_points = padded_grid_size(cap)
    embed = _embed_indices(cap, num_points)
    nvec = np.arange(-cap, cap + 1).astype(np.float64)
    deriv = 1j * nvec
    scale = float(num_points) * float(num_points)
    subtract_mean = equation.variant in ("mkdv1", "mkdv2")
    subtract_momentum = equation.variant == "mkdv2"
    sign = float(equation.sign)

    def rhs(coeffs: np.ndarray) -> np.ndarray:
        spread = np.zeros(num_points, dtype=np.complex128)
        spread[embed] = coeffs
        phys = sfft.ifft(spread)
        spread2 = np.zeros(num_points, dtype=np.complex128)
        spread2[embed] = deriv * coeffs
        phys_dx = sfft.ifft(spread2)
        cubic = sfft.fft(phys * np.conj(phys) * phys_dx)[embed] * scale
        if subtract_mean:
            mu = float(np.vdot(coeffs, coeffs).real)
            cubic = cubic - mu * (deriv * coeffs)
        if subtract_momentum:
            mags = coeffs.real**2 + coeffs.imag**2
            mom = float(np.sum(nvec * mags))
            cubic = cubic - 1j * mom * coeffs
        return sign * cubic

    return rhs


def nonlinearity(state: FourierState, equation: EquationSpec) -> FourierState:
    """Signed right-hand side of the chosen equation, dealiased."""
    rhs = _rhs_builder(state.mode_cap, equation)
    return state.with_(coeffs=rhs(state.coeffs))


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

    Direct O(M^3) summation over the nonresonant set; refused above
    mode_cap 64 -- evaluate ``nonlinearity`` instead at larger caps.
    """
    cap = state.mode_cap
    if cap > DECOMPOSITION_CAP:
        raise ValueError(
            f"decompose_nonlinearity is a brute-force oracle capped at "
            f"mode_cap {DECOMPOSITION_CAP} (got {cap}); use nonlinearity() "
            f"for production-size states"
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


def j1_multiplier_sum(n: int, s: float, p: float, radius: int) -> float:
    """Truncated multiplier sum behind the key bilinear estimate.

    Sums ( <n>^s |n3| / (|Phi|^{1/2} <n1>^s <n2>^s <n3>^s) )^{p'} over the
    nonresonant triples with |n1|, |n2| <= radius and n3 = n - n1 - n2.
    Returns the raw sum; take the 1/p' power for the norm-like value.
    p = 1 returns the largest single term (the sup flavor).  radius = 0
    leaves an empty triple range, so the sum is 0.

    With m = n1 + n2, |Phi| = 3 |m| |n - n1| |n - n2|, so every term
    factors as c(m) a(n1) a(n2) with

        a(k) = (<k>^s |n - k|^{1/2})^{-p'}           (a(n) = 0)
        c(m) = (<n>^s |n - m| / (sqrt(3|m|) <n - m>^s))^{p'}   (c(0) = 0)

    (p' = 1 for p = 1 and p = inf); the zero factors drop exactly the
    resonant triples.  For p > 1 the sum is then sum_m c(m) (a * a)(m),
    one real-FFT convolution: O(R log R) time and O(R) memory.  Where the
    FFT's rounding estimate exceeds J1_FFT_TOLERANCE of the sum (s < 1/2
    with p near 1), the convolution is redone directly in O(R^2).  A max
    over products has no such form, so p = 1 stays a dense O(R^2) scan in
    row blocks.
    """
    _check_resonance_domain(n)
    if radius < 0 or radius > (1 << 16):
        raise ValueError("radius must lie in 0..2^16")
    if radius == 0:
        return 0.0
    p = float(p)
    if not p >= 1.0:  # rejects NaN too
        raise ValueError("p must satisfy p >= 1")
    conjugate = 1.0 if p == 1.0 or math.isinf(p) else p / (p - 1.0)

    n = int(n)
    k = np.arange(-radius, radius + 1, dtype=np.float64)
    gap = np.abs(n - k)
    a = np.zeros_like(k)
    live = gap != 0
    a[live] = (japanese_bracket(k[live]) ** s * np.sqrt(gap[live])) ** -conjugate

    m = np.arange(-2 * radius, 2 * radius + 1, dtype=np.float64)
    c = np.zeros_like(m)
    live = m != 0
    n3 = n - m[live]
    c[live] = (
        japanese_bracket(float(n)) ** s
        * np.abs(n3)
        / (np.sqrt(3.0 * np.abs(m[live])) * japanese_bracket(n3) ** s)
    ) ** conjugate

    if p == 1.0:
        # row i of the Hankel view holds c at n1 + n2 for n1 = i - radius
        hankel = np.lib.stride_tricks.sliding_window_view(c, k.size)
        # row blocks keep the (2R+1)^2 products out of memory at large radii
        block = max(1, (1 << 22) // k.size)
        return max(
            float(np.max(a[i : i + block, None] * a * hankel[i : i + block]))
            for i in range(0, k.size, block)
        )
    size = sfft.next_fast_len(m.size, real=True)
    spectrum = sfft.rfft(a, size)
    total = float(c @ sfft.irfft(spectrum * spectrum, size)[: m.size])
    # The FFT's rounding is normwise, eps log2(size) |a|_1 |a|_2 |c|_2, which
    # overstates the observed error 30-fold or more.  When s < 1/2 and p is
    # near 1, c grows where a * a is tiny and that error swamps the sum; the
    # direct O(R^2) convolution of the nonnegative a is accurate termwise.
    estimate = (
        np.finfo(np.float64).eps
        * math.log2(size)
        * np.sum(a)
        * np.linalg.norm(a)
        * np.linalg.norm(c)
    )
    if not estimate <= J1_FFT_TOLERANCE * total:
        total = float(c @ np.convolve(a, a))
    return total


def linear_propagator(state: FourierState, elapsed: float) -> FourierState:
    """Airy group S(t): u_hat(n) -> e^{i n^3 t} u_hat(n); exact isometry."""
    phases = np.exp(1j * state.modes.astype(np.float64) ** 3 * float(elapsed))
    return state.with_(coeffs=phases * state.coeffs, time=state.time + float(elapsed))


def to_interaction_frame(trajectory: Trajectory) -> Trajectory:
    """Undo the free flow slice-wise: v(t) = S(-t) u(t)."""
    slices = []
    for st in trajectory.states:
        phases = np.exp(-1j * st.modes.astype(np.float64) ** 3 * st.time)
        slices.append(st.with_(coeffs=phases * st.coeffs))
    meta = dict(trajectory.metadata)
    meta["frame"] = "interaction"
    return Trajectory(tuple(slices), trajectory.dt, None, meta)


def stability_dt_limit(state: FourierState) -> float:
    """Advisory step bound 0.5 / (M max|u|^2 + 1)."""
    samples = synthesis(state.coeffs, state.mode_cap, padded_grid_size(state.mode_cap))
    peak = float(np.max(np.abs(samples), initial=0.0))
    return 0.5 / (state.mode_cap * peak * peak + 1.0)


def _ifrk4_stepper(cap: int, equation: EquationSpec, dt: float):
    """One integrating-factor RK4 step on raw coefficient arrays.

    Works on w = S(-t) u_hat, re-referenced to the step start, so the
    linear phases are applied exactly and only the cubic term is sampled.
    The mkdv2 momentum scalar is recomputed at every stage inside rhs.
    """
    rhs = _rhs_builder(cap, equation)
    ncube = np.arange(-cap, cap + 1).astype(np.float64) ** 3
    half_prop = np.exp(1j * ncube * (dt / 2.0))
    full_prop = half_prop * half_prop
    half_back = np.conj(half_prop)
    full_back = np.conj(full_prop)

    def advance(u: np.ndarray) -> np.ndarray:
        k1 = rhs(u)
        k2 = half_back * rhs(half_prop * (u + (dt / 2.0) * k1))
        k3 = half_back * rhs(half_prop * (u + (dt / 2.0) * k2))
        k4 = full_back * rhs(full_prop * (u + dt * k3))
        return full_prop * (u + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))

    return advance


def step(state: FourierState, equation: EquationSpec, dt: float) -> FourierState:
    """Advance one step of size dt."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if not np.isfinite(state.coeffs).all():
        raise SolverAbort(f"non-finite state at t = {state.time}")
    advance = _ifrk4_stepper(state.mode_cap, equation, float(dt))
    out = advance(state.coeffs)
    if not np.isfinite(out).all():
        raise SolverAbort(f"non-finite state produced at t = {state.time + dt}")
    return state.with_(coeffs=out, time=state.time + float(dt))


def solve(
    state: FourierState,
    equation: EquationSpec,
    dt: float,
    horizon: float,
    save_every: int = 1,
) -> Trajectory:
    """Integrate over [t0, t0 + horizon], saving every ``save_every`` steps.

    dt must divide the horizon within rounding, and the step count must be
    a multiple of save_every so the final time is always saved.  Aborts
    (with the partial trajectory attached) when the mass drifts more than
    1% between consecutive steps or a state stops being finite.
    """
    dt = float(dt)
    horizon = float(horizon)
    if dt <= 0.0 or horizon <= 0.0:
        raise ValueError("dt and horizon must be positive")
    n_steps = int(round(horizon / dt))
    if n_steps < 1 or abs(n_steps * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(
            f"dt = {dt} does not divide the horizon {horizon} within rounding"
        )
    save_every = int(save_every)
    if save_every < 1 or n_steps % save_every != 0:
        raise ValueError("save_every must be >= 1 and divide the step count")

    dt_limit = stability_dt_limit(state)
    meta_warnings = []
    if dt > dt_limit * (1.0 + 1e-12):
        message = (
            f"dt = {dt:g} exceeds the stability heuristic "
            f"0.5/(M max|u|^2 + 1) = {dt_limit:g}"
        )
        warnings.warn(message, StabilityWarning)
        meta_warnings.append(message)

    metadata = {
        "dt_step": dt,
        "save_every": save_every,
        "n_steps": n_steps,
        "padded_grid": padded_grid_size(state.mode_cap),
        "stability_dt": dt_limit,
        "warnings": tuple(meta_warnings),
    }

    advance = _ifrk4_stepper(state.mode_cap, equation, dt)
    t0 = state.time
    current = state.coeffs.copy()
    saved = [state]
    mass_prev = float(np.vdot(current, current).real)
    mass_floor = 1e-13 * max(1.0, mass_prev)

    def partial() -> Trajectory:
        return Trajectory(tuple(saved), dt * save_every, equation, dict(metadata))

    for k in range(1, n_steps + 1):
        current = advance(current)
        t_now = t0 + k * dt
        if not np.isfinite(current).all():
            raise SolverAbort(
                f"non-finite state at t = {t_now:g} (step {k})", partial()
            )
        mass_now = float(np.vdot(current, current).real)
        if abs(mass_now - mass_prev) > MASS_DRIFT_LIMIT * mass_prev + mass_floor:
            raise SolverAbort(
                f"mass drifted {abs(mass_now - mass_prev):g} in one step at "
                f"t = {t_now:g} (step {k}); likely unstable dt",
                partial(),
            )
        mass_prev = mass_now
        if k % save_every == 0:
            saved.append(FourierState(current, state.mode_cap, t_now))
    return partial()


def residual_check(
    trajectory: Trajectory, spec: NormSpec = NormSpec(0.0, 2.0)
) -> tuple[tuple[float, float], ...]:
    """Equation residual at interior samples, O(dt^2) on true solutions.

    Per interior time t_k: fl_norm of the centered difference of u_hat
    plus (in)^3 u_hat minus the signed nonlinearity transform.
    """
    if trajectory.equation is None:
        raise ValueError("residual_check needs a trajectory with an equation")
    if len(trajectory) < 3:
        raise ValueError("residual_check needs at least 3 samples")
    rhs = _rhs_builder(trajectory.mode_cap, trajectory.equation)
    nvec = trajectory.states[0].modes.astype(np.float64)
    dissipation = (1j * nvec) ** 3
    out = []
    states = trajectory.states
    for k in range(1, len(states) - 1):
        mid = states[k]
        diff = (states[k + 1].coeffs - states[k - 1].coeffs) / (2.0 * trajectory.dt)
        resid = diff + dissipation * mid.coeffs - rhs(mid.coeffs)
        out.append((mid.time, fl_norm(mid.with_(coeffs=resid), spec)))
    return tuple(out)


def phase_schedule(total: float, dt_cap: float, save_points: int) -> tuple[float, int]:
    """Largest dt <= dt_cap that divides ``total`` into save_points blocks.

    Returns (dt, save_every) with save_points * save_every steps overall.
    """
    if total <= 0.0 or dt_cap <= 0.0 or save_points < 1:
        raise ValueError("total, dt_cap and save_points must be positive")
    per_block = total / save_points
    save_every = max(1, math.ceil(per_block / dt_cap))
    return per_block / save_every, save_every
