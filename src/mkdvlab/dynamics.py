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
import os
import sys
import warnings
from typing import Sequence

import numpy as np

from .errors import SolverAbort, StabilityWarning
from .norms import NormSpec, _row_mass, fl_norm, japanese_bracket
from .spectral import (
    FourierState,
    _next_fast_len,
    _spread_modes,
    padded_grid_size,
    synthesis,
)

VARIANTS = ("mkdv", "mkdv1", "mkdv2")

#: |n_j| bound for exact resonance arithmetic.
RESONANCE_DOMAIN = 1 << 20

#: Largest summation radius j1_multiplier_sum accepts.
J1_MAX_RADIUS = 1 << 16

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


def _positive_finite(name: str, value) -> float:
    """``float(value)``, or a ValueError naming ``name`` unless 0 < value < inf."""
    value = float(value)
    if not 0.0 < value < math.inf:  # rejects NaN too
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


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
        dt = _positive_finite("dt", self.dt)
        t0 = states[0].time
        span = max(1.0, abs(t0) + len(states) * dt)
        for k, st in enumerate(states):
            if not abs(st.time - (t0 + k * dt)) <= 1e-9 * span:  # NaN fails too
                raise ValueError("state times must be finite and uniform with spacing dt")
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


#: Whether each variant subtracts the mean transport mu (in) u_hat and the
#: momentum phase i P(u) u_hat from the full cubic term.
_SUBTRACTS = {"mkdv": (False, False), "mkdv1": (True, False), "mkdv2": (True, True)}


def _rhs_builder(cap: int, equations: Sequence[EquationSpec]):
    """Signed right-hand side on a (B, 2M+1) stack, row b under equations[b].

    Rows never mix: every FFT, product and reduction works row by row, so
    a row's value does not depend on the other rows or on B.  The scalars
    mu and P(u) are computed only when some row subtracts them, and only
    those rows are changed.  The sign is folded into the FFT scale and the
    scalars; multiplying by -1 is exact, so that costs no rounding.
    """
    # Imported by the first stepper built, not with this module.  rhs calls
    # pocketfft's binding as scipy.fft.ifft and fft(overwrite_x=True) do, minus
    # their dispatch, looking c2c up per call so a wrapper on it sees them all
    from scipy.fft._pocketfft import pypocketfft

    num_points = padded_grid_size(cap)
    # per-mode factors are (1, L) rows, which numpy combines with a B = 1
    # stack faster than (L,) vectors
    nvec = np.arange(-cap, cap + 1).astype(np.float64)[None]
    deriv = 1j * nvec
    paired_nvec = np.repeat(nvec, 2, axis=-1)
    # complex, so that the products with complex arrays below need no cast
    sign = np.array([[complex(eq.sign)] for eq in equations])
    signed_scale = sign * (float(num_points) * float(num_points))
    # where= masks of the rows that subtract each term; True when every row
    # does, which lets numpy run its faster unmasked loop
    mean_rows, momentum_rows = (
        True if rows.all() else rows
        for rows in np.array([_SUBTRACTS[eq.variant] for eq in equations]).T[:, :, None]
    )
    subtract_mean = bool(np.any(mean_rows))
    subtract_momentum = bool(np.any(momentum_rows))
    # u_hat and (in) u_hat on the padded grid; the band between M and K-M
    # stays zero
    spread = np.zeros((2, len(equations), num_points), dtype=np.complex128)
    # conj(u), then u conj(u) u_x (operands in the formula's order, which
    # the rounding depends on) and its transform, in place
    product = np.empty(spread.shape[1:], dtype=np.complex128)
    low, high = slice(num_points - cap, None), slice(None, cap + 1)

    def rhs(coeffs: np.ndarray) -> np.ndarray:
        coeffs_dx = deriv * coeffs
        _spread_modes(coeffs, cap, spread[0])
        _spread_modes(coeffs_dx, cap, spread[1])
        phys, phys_dx = pypocketfft.c2c(spread, (-1,), False, 2, None, 1)
        np.multiply(phys, np.conj(phys, out=product), out=product)
        np.multiply(product, phys_dx, out=product)
        pypocketfft.c2c(product, (-1,), True, 0, product, 1)
        # a fresh array per call: the stepper keeps k1..k4
        cubic = np.empty_like(coeffs_dx)
        np.multiply(product[:, low], signed_scale, out=cubic[:, :cap])
        np.multiply(product[:, high], signed_scale, out=cubic[:, cap:])
        if subtract_mean or subtract_momentum:
            # re^2 and im^2 of every mode, side by side in each row
            squares = np.square(coeffs.view(np.float64))
        if subtract_mean:
            mu = np.add.reduce(squares, axis=-1, keepdims=True)
            term = (sign * mu) * coeffs_dx
            np.subtract(cubic, term, out=cubic, where=mean_rows)
        if subtract_momentum:
            mom = np.add.reduce(paired_nvec * squares, axis=-1, keepdims=True)
            term = 1j * (sign * mom) * coeffs
            np.subtract(cubic, term, out=cubic, where=momentum_rows)
        return cubic

    return rhs


def nonlinearity(state: FourierState, equation: EquationSpec) -> FourierState:
    """Signed right-hand side of the chosen equation, dealiased."""
    rhs = _rhs_builder(state.mode_cap, (equation,))
    return state.with_(coeffs=rhs(state.coeffs[None])[0])


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
    if radius < 0 or radius > J1_MAX_RADIUS:
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
    # np.add.reduce, not BLAS, here and in the norms below: a threaded dot
    # sums in an order that depends on the BLAS thread count
    size = _next_fast_len(m.size, (2, 3, 5))
    spectrum = np.fft.rfft(a, size)
    total = float(np.add.reduce(c * np.fft.irfft(spectrum * spectrum, size)[: m.size]))
    # The FFT's rounding is normwise, eps log2(size) |a|_1 |a|_2 |c|_2, which
    # overstates the observed error 30-fold or more.  When s < 1/2 and p is
    # near 1, c grows where a * a is tiny and that error swamps the sum; the
    # direct O(R^2) convolution of the nonnegative a is accurate termwise.
    estimate = (
        np.finfo(np.float64).eps
        * math.log2(size)
        * np.sum(a)
        * np.sqrt(np.add.reduce(np.square(a)))
        * np.sqrt(np.add.reduce(np.square(c)))
    )
    if not estimate <= J1_FFT_TOLERANCE * total:
        total = float(np.add.reduce(c * np.convolve(a, a)))
    return total


def stability_dt_limit(state: FourierState) -> float:
    """Advisory step bound 0.5 / (M max|u|^2 + 1)."""
    samples = synthesis(state.coeffs, state.mode_cap, padded_grid_size(state.mode_cap))
    peak = float(np.max(np.abs(samples), initial=0.0))
    return 0.5 / (state.mode_cap * peak * peak + 1.0)


def _ifrk4_stepper(cap: int, equations: Sequence[EquationSpec], dt: float):
    """One integrating-factor RK4 step on a (B, 2M+1) coefficient stack.

    Works on w = S(-t) u_hat, re-referenced to the step start, so the
    linear phases are applied exactly and only the cubic term is sampled.
    The mkdv2 momentum scalar is recomputed at every stage inside rhs.
    """
    rhs = _rhs_builder(cap, equations)
    ncube = np.arange(-cap, cap + 1).astype(np.float64)[None] ** 3
    half_prop = np.exp(1j * ncube * (dt / 2.0))
    full_prop = half_prop * half_prop
    half_back = np.conj(half_prop)
    full_back = np.conj(full_prop)

    def stage(u, k, factor, prop):
        # prop * (u + factor * k) in one new array, operands in the order
        # of the formula so that the rounding is the formula's
        out = np.multiply(factor, k)
        out += u
        return np.multiply(prop, out, out=out)

    def advance(u: np.ndarray) -> np.ndarray:
        k1 = rhs(u)
        k2 = rhs(stage(u, k1, dt / 2.0, half_prop))
        np.multiply(half_back, k2, out=k2)
        k3 = rhs(stage(u, k2, dt / 2.0, half_prop))
        np.multiply(half_back, k3, out=k3)
        k4 = rhs(stage(u, k3, dt, full_prop))
        np.multiply(full_back, k4, out=k4)
        # full_prop * (u + (dt/6) (k1 + 2 (k2 + k3) + k4))
        k2 += k3
        np.multiply(2.0, k2, out=k2)
        np.add(k1, k2, out=k2)
        k2 += k4
        return stage(u, k2, dt / 6.0, full_prop)

    return advance


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
    1% between consecutive steps or a state stops being finite.  This is
    ``solve_many`` with one member.
    """
    return raise_first_abort(solve_many((state,), (equation,), dt, horizon, save_every))[0]


def _solve_each(jobs: Sequence[tuple]) -> list[Trajectory]:
    """``[solve(*job) for job in jobs]``, on one forked worker per available CPU.

    Uses min(len(jobs), CPUs in this process's affinity mask) workers, and
    runs the plain loop when that is 1, where CPU affinity or the fork
    start method does not exist, or when another thread is running, which
    fork is not safe with.  Workers are forked, not spawned: a spawned one
    would import numpy and scipy again, which takes about as long as a
    short solve.  The longest jobs (steps x padded grid length) are handed
    out first; results come back in job order, bitwise the loop's.  Each job's
    warnings are issued again here, in job order, from their own source
    lines.  When jobs raise, the lowest-index job's exception is raised
    after the warnings of the jobs before it, as the loop would raise it
    (without the worker's traceback).
    """
    jobs = list(jobs)
    getaffinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(jobs), len(getaffinity(0))) if getaffinity else 1
    if workers > 1:
        import multiprocessing
        import threading

        forkable = "fork" in multiprocessing.get_all_start_methods()
        if not forkable or threading.active_count() > 1:
            workers = 1
    if workers <= 1:
        return [solve(*job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor

    def cost(job) -> float:
        state, _, dt, horizon = job[:4]
        return horizon / dt * padded_grid_size(state.mode_cap) if dt > 0 else 0.0

    longest_first = sorted(range(len(jobs)), key=lambda i: -cost(jobs[i]))
    # the steppers import pocketfft's binding, and with it scipy.fft, when
    # built; import it before the fork so that the workers inherit both
    # rather than each spending ~0.4 s importing them on every call
    import scipy.fft._pocketfft.pypocketfft  # noqa: F401

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        futures = {i: pool.submit(_recorded_solve, jobs[i]) for i in longest_first}
        outcomes = [futures[i].result() for i in range(len(jobs))]
    for outcome, caught in outcomes:
        for message, filename, lineno in caught:
            _warn_again(message, filename, lineno)
        if isinstance(outcome, Exception):
            raise outcome
    return [outcome for outcome, _ in outcomes]


def _recorded_solve(job: tuple):
    """Worker side of ``_solve_each``: solve's outcome and the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = solve(*job)
        except Exception as exc:
            outcome = exc
    return outcome, [(w.message, w.filename, w.lineno) for w in caught]


def _warn_again(message: Warning, filename: str, lineno: int) -> None:
    """Issue a worker's warning as ``warnings.warn`` at filename:lineno would.

    The module that owns ``filename`` supplies the name the filters match
    and the registry that the 'default' and 'module' actions consult.
    """
    owner = next(
        (mod for mod in list(sys.modules.values())
         if getattr(mod, "__file__", None) == filename),
        None,
    )
    namespace = vars(owner) if owner is not None else {}
    warnings.warn_explicit(
        message, type(message), filename, lineno,
        module=namespace.get("__name__"),
        registry=namespace.setdefault("__warningregistry__", {}),
    )


def raise_first_abort(results: Sequence[Trajectory | SolverAbort]) -> list[Trajectory]:
    """The trajectories of ``solve_many``; raises its first member's abort."""
    for result in results:
        if isinstance(result, SolverAbort):
            raise result
    return list(results)


def solve_many(
    states: Sequence[FourierState],
    equations: Sequence[EquationSpec],
    dt: float,
    horizon: float,
    save_every: int = 1,
) -> list[Trajectory | SolverAbort]:
    """``solve`` for several members at once, stepped as one (B, 2M+1) stack.

    Member b starts from states[b] under equations[b]; all members share
    mode_cap, dt, horizon and save_every.  Rows never mix, so each member's
    trajectory is bitwise the one it gets when solved alone.  The checks
    stay per member: the stability warning (issued in member order), the
    finite check and the 1% mass-drift abort.  An aborting member's row is
    zeroed and frozen while the others go on; its entry in the returned
    list is the SolverAbort, with the partial trajectory, that ``solve``
    raises for it.
    """
    states = tuple(states)
    equations = tuple(equations)
    if not states or len(states) != len(equations):
        raise ValueError("solve_many needs one equation per state, and at least one")
    cap = states[0].mode_cap
    if any(st.mode_cap != cap for st in states):
        raise ValueError("all members must share one mode_cap")
    for b, st in enumerate(states):
        if not math.isfinite(st.time):
            raise ValueError(f"states[{b}].time must be finite, got {st.time}")
    dt = _positive_finite("dt", dt)
    horizon = _positive_finite("horizon", horizon)
    n_steps = int(round(horizon / dt))
    if n_steps < 1 or abs(n_steps * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(
            f"dt = {dt} does not divide the horizon {horizon} within rounding"
        )
    save_every = int(save_every)
    if save_every < 1 or n_steps % save_every != 0:
        raise ValueError("save_every must be >= 1 and divide the step count")

    metadata = []
    for state in states:
        dt_limit = stability_dt_limit(state)
        meta_warnings = []
        if dt > dt_limit * (1.0 + 1e-12):
            message = (
                f"dt = {dt:g} exceeds the stability heuristic "
                f"0.5/(M max|u|^2 + 1) = {dt_limit:g}"
            )
            warnings.warn(message, StabilityWarning)
            meta_warnings.append(message)
        metadata.append({
            "dt_step": dt,
            "save_every": save_every,
            "n_steps": n_steps,
            "padded_grid": padded_grid_size(cap),
            "stability_dt": dt_limit,
            "warnings": tuple(meta_warnings),
        })

    advance = _ifrk4_stepper(cap, equations, dt)
    current = np.array([st.coeffs for st in states])
    saved = [[st] for st in states]
    results: list[Trajectory | SolverAbort | None] = [None] * len(states)
    starts = [st.time for st in states]
    mass_prev = _row_mass(current).tolist()
    mass_floor = [1e-13 * max(1.0, m) for m in mass_prev]

    def partial(row: int) -> Trajectory:
        return Trajectory(
            tuple(saved[row]), dt * save_every, equations[row], dict(metadata[row])
        )

    live = list(range(len(states)))
    for k in range(1, n_steps + 1):
        current = advance(current)
        mass_now = _row_mass(current).tolist()
        for row in live:
            drift = abs(mass_now[row] - mass_prev[row])
            # a non-finite row has a nan or inf mass and fails this test too
            if drift <= MASS_DRIFT_LIMIT * mass_prev[row] + mass_floor[row]:
                continue
            t_now = starts[row] + k * dt
            if not np.isfinite(current[row]).all():
                message = f"non-finite state at t = {t_now:g} (step {k})"
            else:
                message = (
                    f"mass drifted {drift:g} in one step at "
                    f"t = {t_now:g} (step {k}); likely unstable dt"
                )
            results[row] = SolverAbort(message, partial(row))
            current[row] = 0.0
        if len(live) != results.count(None):
            live = [row for row in live if results[row] is None]
            if not live:
                break
        mass_prev = mass_now
        if k % save_every == 0:
            for row in live:
                saved[row].append(FourierState(current[row], cap, starts[row] + k * dt))
    for row in live:
        results[row] = partial(row)
    return results


def residual_check(
    trajectory: Trajectory, spec: NormSpec = NormSpec(0.0, 2.0)
) -> tuple[tuple[float, float], ...]:
    """Equation residual at interior samples, O(dt^2) on true solutions.

    Per interior time t_k: fl_norm of the centered difference of u_hat
    plus (in)^3 u_hat minus the signed nonlinearity, one stack for all t_k.
    """
    if trajectory.equation is None:
        raise ValueError("residual_check needs a trajectory with an equation")
    if len(trajectory) < 3:
        raise ValueError("residual_check needs at least 3 samples")
    states = trajectory.states
    coeffs = np.array([st.coeffs for st in states])
    rhs = _rhs_builder(trajectory.mode_cap, (trajectory.equation,) * (len(states) - 2))
    dissipation = (1j * states[0].modes.astype(np.float64)) ** 3
    diff = (coeffs[2:] - coeffs[:-2]) / (2.0 * trajectory.dt)
    resid = diff + dissipation * coeffs[1:-1] - rhs(coeffs[1:-1])
    return tuple(
        (mid.time, fl_norm(mid.with_(coeffs=row), spec))
        for mid, row in zip(states[1:-1], resid)
    )


def phase_schedule(total: float, dt_cap: float, save_points: int) -> tuple[float, int]:
    """Largest dt <= dt_cap that divides ``total`` into save_points blocks.

    Returns (dt, save_every) with save_points * save_every steps overall.
    """
    total = _positive_finite("total", total)
    dt_cap = _positive_finite("dt_cap", dt_cap)
    if save_points < 1:
        raise ValueError("save_points must be positive")
    per_block = total / save_points
    save_every = max(1, math.ceil(per_block / dt_cap))
    return per_block / save_every, save_every
