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
import warnings
from typing import Sequence

import numpy as np

from .errors import SolverAbort, StabilityWarning
from .norms import NormSpec, _row_mass, fl_norm, japanese_bracket
from .spectral import (
    FourierState,
    _next_fast_len,
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

#: Most steps one solve takes: about 35 h at 58.4 us per step (mkdv2, M = 32).
MAX_STEPS = 1 << 31


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


def _check_step_count(name: str, dt: float, horizon: float) -> None:
    """A ValueError unless ``horizon`` takes at most MAX_STEPS steps of ``dt``."""
    if not horizon / dt <= MAX_STEPS:  # an overflow to inf too
        raise ValueError(f"{name} = {dt} takes more than MAX_STEPS = {MAX_STEPS} steps "
                         f"over the horizon {horizon}")


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


def _rhs_builder(cap: int, equations: Sequence[EquationSpec]):
    """Signed right-hand side on a (B, 2M+1) stack, row b under equations[b].

    ``rhs(coeffs, stage=0)`` writes the right-hand side into stage
    ``stage`` of ``rhs.stages``, one (4, B, 2M+1) block for a stepper's
    k1..k4, and returns that stage; the next call on the same stage
    overwrites it.  It first copies ``coeffs`` into its input buffer
    ``rhs.coeffs``, unless ``coeffs`` is that buffer: a caller that builds
    its input there saves the copy.  Every buffer, and every view a stage
    is written through, is made once, here.

    The equations must be grouped by variant, in the order of VARIANTS, the
    ladder of ``gauges.GAUGES``: rows of rank 1 or more subtract the mean
    transport and rows of rank 2 also the momentum phase, so each set is a
    tail of the stack.  Rows never mix:
    every FFT, product and reduction works row by row, so a row's value
    does not depend on the other rows or on B.  Each per-mode factor is a
    full (B, 2M+1) array, so that numpy combines it with the stack in its
    same-shape loop.  The cubic term, the mean transport and the momentum
    phase are each linear in d/dx, so the sign rides on the derivative:
    row b differentiates with sign (in) and weighs the momentum with
    sign n.  Multiplying by -1 is exact, so that costs no rounding.

    mu and sign P come from one reduction of a float buffer that holds the
    squared real and imaginary parts of the tail rows, then sign n times
    those squares for the momentum rows.  The mean transport is then a real
    multiply on the float view of sign (in) u_hat, and the momentum phase a
    complex multiply by the column (0, sign P).  Both give the bits of the
    complex products (sign mu + 0i) (in) u_hat and i (sign P + 0i) u_hat,
    except at most the sign of a zero.
    """
    # Imported by the first stepper built, not with this module.  rhs calls
    # pocketfft's binding as scipy.fft.ifft and fft(overwrite_x=True) do, minus
    # their dispatch, looking c2c up per call so a wrapper on it sees them all
    from scipy.fft._pocketfft import pypocketfft

    ranks = [VARIANTS.index(eq.variant) for eq in equations]
    if ranks != sorted(ranks):
        raise ValueError("equations must be grouped by variant, in the order "
                         + ", ".join(VARIANTS))
    # the first row that subtracts the mean transport, and the first that
    # subtracts the momentum phase
    mean_start, momentum_start = (sum(rank < step for rank in ranks) for step in (1, 2))
    rows, width, num_points = len(equations), 2 * cap + 1, padded_grid_size(cap)
    mean_rows, momentum_rows = rows - mean_start, rows - momentum_start
    nvec = np.arange(-cap, cap + 1).astype(np.float64)
    sign = np.array([[float(eq.sign)] for eq in equations])
    deriv = 1j * (sign * nvec)
    paired_nvec = sign[momentum_start:] * np.repeat(nvec, 2)
    # complex, so that the product with the complex stack needs no cast
    scale = np.full((rows, width), float(num_points) ** 2, dtype=np.complex128)
    # u_hat and (in) u_hat side by side, and on the padded grid, where the
    # band between M and K-M stays zero
    pair = np.empty((2, rows, width), dtype=np.complex128)
    source, coeffs_dx = pair
    spread = np.zeros((2, rows, num_points), dtype=np.complex128)
    # modes 0..M to the front of the padded grid, modes -M..-1 to its end
    spread_front, pair_front = spread[..., : cap + 1], pair[..., cap:]
    spread_back, pair_back = spread[..., num_points - cap :], pair[..., :cap]
    phys_pair = np.empty_like(spread)
    phys, phys_dx = phys_pair
    # conj(u), then u conj(u) u_x (operands in the formula's order, which
    # the rounding depends on) and its transform, in place
    product = np.empty(spread.shape[1:], dtype=np.complex128)
    low, high = product[:, num_points - cap :], product[:, : cap + 1]
    # re^2 and im^2 of every mode of the tail rows, side by side in each
    # row, then sign n re^2 and sign n im^2 of the momentum rows; their row
    # sums, mu and sign P, go to the imaginary parts of ``scalars``, whose
    # real parts stay 0, so its last rows are the columns (0, sign P)
    weights = np.empty((mean_rows + momentum_rows, 2 * width))
    squares, moments = weights[:mean_rows], weights[mean_rows:]
    momentum_squares = squares[momentum_start - mean_start :]
    scalars = np.zeros((weights.shape[0], 1), dtype=np.complex128)
    sums = scalars.imag
    mean_factor, momentum_phase = sums[:mean_rows], scalars[mean_rows:]
    source_tail = source.view(np.float64)[mean_start:]
    dx_tail = coeffs_dx.view(np.float64)[mean_start:]
    source_momentum = source[momentum_start:]
    term = np.empty((mean_rows, width), dtype=np.complex128)
    term_pairs, term_momentum = term.view(np.float64), term[:momentum_rows]

    # per stage: its buffer, its halves for modes -M..-1 and 0..M, the float
    # view of its tail rows and its momentum rows
    stages = np.empty((4, rows, width), dtype=np.complex128)
    views = [(out, out[:, :cap], out[:, cap:], out.view(np.float64)[mean_start:],
              out[momentum_start:]) for out in stages]
    multiply, subtract, add_reduce = np.multiply, np.subtract, np.add.reduce

    def rhs(coeffs: np.ndarray, stage: int = 0) -> np.ndarray:
        if coeffs is not source:
            source[...] = coeffs
        multiply(deriv, source, coeffs_dx)
        spread_front[...] = pair_front
        spread_back[...] = pair_back
        pypocketfft.c2c(spread, (-1,), False, 2, phys_pair, 1)
        multiply(phys, np.conj(phys, product), product)
        multiply(product, phys_dx, product)
        pypocketfft.c2c(product, (-1,), True, 0, product, 1)
        out, out_low, out_high, out_tail, out_momentum = views[stage]
        out_low[...] = low
        out_high[...] = high
        multiply(out, scale, out)
        if mean_rows:
            np.square(source_tail, squares)
            if momentum_rows:
                multiply(paired_nvec, momentum_squares, moments)
            add_reduce(weights, -1, None, sums, True)
            multiply(mean_factor, dx_tail, term_pairs)
            subtract(out_tail, term_pairs, out_tail)
        if momentum_rows:
            multiply(momentum_phase, source_momentum, term_momentum)
            subtract(out_momentum, term_momentum, out_momentum)
        return out

    rhs.coeffs, rhs.stages = source, stages
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
    return _j1_sums(n, s, p, (radius,))[0]


# weights beyond float64 become inf or nan; each sum's finiteness check reports them
@np.errstate(all="ignore")
def _j1_sums(n: int, s: float, p: float, radii: Sequence[int]) -> tuple[float, ...]:
    """j1_multiplier_sum(n, s, p, R) for each R in radii, in that order.

    a and c are built once, at the largest radius top; radius R sums the
    centred slices a[top-R : top+R+1] and c[2top-2R : 2top+2R+1].  Those
    hold the values that radius R alone would build, and each R keeps its
    own FFT length, rounding estimate and fallback, so every sum keeps its
    bits.  A sum that is not finite raises ValueError naming (n, s, p, R).
    """
    _check_resonance_domain(n)
    if any(radius < 0 or radius > J1_MAX_RADIUS for radius in radii):
        raise ValueError("radius must lie in 0..2^16")
    p = float(p)
    if not p >= 1.0:  # rejects NaN too
        raise ValueError("p must satisfy p >= 1")
    conjugate = 1.0 if p == 1.0 or math.isinf(p) else p / (p - 1.0)

    n = int(n)
    top = max(radii, default=0)
    k = np.arange(-top, top + 1, dtype=np.float64)
    gap = np.abs(n - k)
    a_top = np.zeros_like(k)
    live = gap != 0
    a_top[live] = (japanese_bracket(k[live]) ** s * np.sqrt(gap[live])) ** -conjugate

    m = np.arange(-2 * top, 2 * top + 1, dtype=np.float64)
    c_top = np.zeros_like(m)
    live = m != 0
    n3 = n - m[live]
    c_top[live] = (
        japanese_bracket(float(n)) ** s
        * np.abs(n3)
        / (np.sqrt(3.0 * np.abs(m[live])) * japanese_bracket(n3) ** s)
    ) ** conjugate

    sums = []
    for radius in radii:
        if radius == 0:
            sums.append(0.0)
            continue
        a = a_top[top - radius : top + radius + 1]
        c = c_top[2 * (top - radius) : 2 * (top + radius) + 1]
        if p == 1.0:
            # row i of the Hankel view holds c at n1 + n2 for n1 = i - radius
            hankel = np.lib.stride_tricks.sliding_window_view(c, a.size)
            # row blocks keep the (2R+1)^2 products out of memory at large radii
            block = max(1, (1 << 22) // a.size)
            total = max(
                float(np.max(a[i : i + block, None] * a * hankel[i : i + block]))
                for i in range(0, a.size, block)
            )
        else:
            # np.add.reduce, not BLAS, here and in the norms below: a threaded
            # dot sums in an order that depends on the BLAS thread count
            size = _next_fast_len(c.size, (2, 3, 5))
            spectrum = np.fft.rfft(a, size)
            total = float(np.add.reduce(c * np.fft.irfft(spectrum * spectrum, size)[: c.size]))
            # The FFT's rounding is normwise, eps log2(size) |a|_1 |a|_2 |c|_2,
            # which overstates the observed error 30-fold or more.  When s < 1/2
            # and p is near 1, c grows where a * a is tiny and that error swamps
            # the sum; the direct O(R^2) convolution of the nonnegative a is
            # accurate termwise.
            estimate = (
                np.finfo(np.float64).eps
                * math.log2(size)
                * np.sum(a)
                * np.sqrt(np.add.reduce(np.square(a)))
                * np.sqrt(np.add.reduce(np.square(c)))
            )
            if not estimate <= J1_FFT_TOLERANCE * total:
                total = float(np.add.reduce(c * np.convolve(a, a)))
        if not math.isfinite(total):
            raise ValueError(
                f"J'_1 sum at n = {n}, s = {s}, p = {p}, radius = {radius} "
                f"is not finite: its weights overflow float64"
            )
        sums.append(total)
    return tuple(sums)


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
    The equations must be grouped by variant, as rhs requires.  Every
    propagator and step factor is a full (B, 2M+1) array, so that each
    elementwise call runs numpy's same-shape loop.

    A step allocates no buffer: k1..k4 are rhs's own stages 0..3, which it
    fills through views built with it; each stage input is built in rhs's
    input buffer; and the step returns one of two result buffers,
    alternating, so ``advance(u)`` never writes the u it reads.  A returned
    stack is overwritten two calls later: copy what must outlive that.
    """
    rhs = _rhs_builder(cap, equations)
    source = rhs.coeffs
    shape = source.shape
    ncube = np.arange(-cap, cap + 1).astype(np.float64) ** 3
    half_prop = np.tile(np.exp(1j * ncube * (dt / 2.0)), (shape[0], 1))
    full_prop = half_prop * half_prop
    half_back = np.conj(half_prop)
    full_back = np.conj(full_prop)
    # the step factors, complex as numpy makes a Python float to multiply
    # a complex array
    half_dt, full_dt, sixth_dt, two = (
        np.full(shape, complex(factor)) for factor in (dt / 2.0, dt, dt / 6.0, 2.0)
    )
    k1, k2, k3, k4 = rhs.stages
    results = (np.empty(shape, dtype=np.complex128), np.empty(shape, dtype=np.complex128))
    multiply, add = np.multiply, np.add

    def stage(u, k, factor, prop, out):
        # prop * (u + factor * k) into out, operands in the order of the
        # formula so that the rounding is the formula's
        multiply(factor, k, out)
        add(out, u, out)
        return multiply(prop, out, out)

    def advance(u: np.ndarray) -> np.ndarray:
        rhs(u, 0)
        rhs(stage(u, k1, half_dt, half_prop, source), 1)
        multiply(half_back, k2, k2)
        rhs(stage(u, k2, half_dt, half_prop, source), 2)
        multiply(half_back, k3, k3)
        rhs(stage(u, k3, full_dt, full_prop, source), 3)
        multiply(full_back, k4, k4)
        # full_prop * (u + (dt/6) (k1 + 2 (k2 + k3) + k4))
        add(k2, k3, k2)
        multiply(two, k2, k2)
        add(k1, k2, k2)
        add(k2, k4, k2)
        # results[1] when u is results[0], else results[0]
        return stage(u, k2, sixth_dt, full_prop, results[u is results[0]])

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
    out first; results come back in job order, bitwise the loop's.  A job's
    stability warnings travel in its outcome's metadata; they are issued
    here in job order, from the line an in-process solve uses.  When jobs
    raise, the lowest-index job's exception is raised after the warnings
    of the jobs before it, as the loop would raise it (without the
    worker's traceback).
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
        futures = {i: pool.submit(_solo_outcome, jobs[i]) for i in longest_first}
        outcomes = [futures[i].result() for i in range(len(jobs))]
    for outcome in outcomes:
        # an abort carries its metadata on its partial; other exceptions none
        solved = getattr(outcome, "partial", outcome)
        for message in getattr(solved, "metadata", {}).get("warnings", ()):
            _warn_unstable(message)
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def _solo_outcome(job: tuple):
    """Worker side of ``_solve_each``: solve_many's outcome, or the exception."""
    # the parent issues the warnings; a forked worker has one thread
    warnings.simplefilter("ignore", StabilityWarning)
    state, equation, *grid = job
    try:
        return solve_many((state,), (equation,), *grid)[0]
    except Exception as exc:
        return exc


def _warn_unstable(message: str) -> None:
    """Issue a StabilityWarning, from this one line on every path."""
    warnings.warn(message, StabilityWarning)


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
    mode_cap, dt, horizon and save_every.  The stack holds the members
    grouped by variant (a stable sort); the results come back in member
    order.  Rows never mix, so each member's trajectory is bitwise the one
    it gets when solved alone.  The checks stay per member: the stability
    warning (issued in member order), the finite check and the 1%
    mass-drift abort.  An aborting member's row is zeroed and frozen while
    the others go on; its entry in the returned list is the SolverAbort,
    with the partial trajectory, that ``solve`` raises for it.
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
    _check_step_count("dt", dt, horizon)
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
            _warn_unstable(message)
            meta_warnings.append(message)
        metadata.append({
            "dt_step": dt,
            "save_every": save_every,
            "n_steps": n_steps,
            "padded_grid": padded_grid_size(cap),
            "stability_dt": dt_limit,
            "warnings": tuple(meta_warnings),
        })

    # the stack holds the members grouped by variant, as rhs requires: row r
    # is member order[r], and the results go back to member order at the end
    order = sorted(range(len(states)), key=lambda b: VARIANTS.index(equations[b].variant))
    states, equations, metadata = (
        [members[b] for b in order] for members in (states, equations, metadata)
    )
    advance = _ifrk4_stepper(cap, equations, dt)
    current = np.array([st.coeffs for st in states])
    saved = [[st] for st in states]
    results: list[Trajectory | SolverAbort | None] = [None] * len(states)
    starts = [st.time for st in states]
    # _row_mass's buffers, reused at every step
    squares = np.empty((current.shape[0], 2 * current.shape[1]))
    masses = np.empty(current.shape[0])

    def partial(row: int) -> Trajectory:
        return Trajectory(
            tuple(saved[row]), dt * save_every, equations[row], dict(metadata[row])
        )

    live = list(range(len(states)))
    # a blow-up overflows in the step or in the mass; it shows as a
    # non-finite mass, which aborts its row below, so numpy's warnings
    # would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        mass_prev = _row_mass(current, squares, masses).tolist()
        mass_floor = [1e-13 * max(1.0, m) for m in mass_prev]
        for k in range(1, n_steps + 1):
            current = advance(current)
            mass_now = _row_mass(current, squares, masses).tolist()
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
    return [result for _, result in sorted(zip(order, results), key=lambda pair: pair[0])]


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
    _check_step_count("dt_cap", dt_cap, total)
    if save_points < 1:
        raise ValueError("save_points must be positive")
    per_block = total / save_points
    save_every = max(1, math.ceil(per_block / dt_cap))
    return per_block / save_every, save_every
