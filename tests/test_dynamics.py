"""Resonance algebra, nonlinearity decomposition, integrator, multiplier sums."""

import concurrent.futures
import math
import os
import pickle
import warnings

import numpy as np
import pytest

import mkdvlab
from conftest import (
    decompose_nonlinearity,
    oracle_cubic,
    random_state,
    reference_ifrk4_stepper,
    reference_rhs_builder,
    stdout_per_blas_thread_count,
)
from mkdvlab import dynamics
from mkdvlab.dynamics import (
    EquationSpec,
    Trajectory,
    _rhs_builder,
    _j1_sums,
    _solve_each,
    j1_multiplier_sum,
    nonlinearity,
    phase_schedule,
    phi_resonance,
    residual_check,
    solve,
    solve_many,
    stability_dt_limit,
)
from mkdvlab.errors import SolverAbort, StabilityWarning
from mkdvlab.norms import NormSpec, fl_norm, mass, momentum
from mkdvlab.presets import preset_state
from mkdvlab.spectral import state_from_modes


# ---------------------------------------------------------------- resonance

def test_phi_hand_values():
    assert phi_resonance(1, 1, 1) == 24
    assert phi_resonance(1, -1, 2) == 0
    assert phi_resonance(2, 3, 5) == 3 * 5 * 7 * 8


def test_phi_cube_identity_exhaustive():
    for n1 in range(-6, 7):
        for n2 in range(-6, 7):
            for n3 in range(-6, 7):
                total = n1 + n2 + n3
                cube = total**3 - (n1**3 + n2**3 + n3**3)
                assert phi_resonance(n1, n2, n3) == cube


def test_phi_vanishes_iff_pairwise_sum_does():
    rng = np.random.default_rng(2)
    triples = rng.integers(-50, 51, size=(2000, 3))
    for n1, n2, n3 in triples:
        value = phi_resonance(int(n1), int(n2), int(n3))
        pairwise_zero = (n1 + n2 == 0) or (n1 + n3 == 0) or (n2 + n3 == 0)
        assert (value == 0) == pairwise_zero


# ----------------------------------------------------------- decomposition

def test_decomposition_reassembles_full_cubic():
    # NR - R + momentum + mean must equal the physical-quadrature cubic
    for seed in (1, 4, 9):
        state = random_state(10, seed=seed)
        parts = decompose_nonlinearity(state)
        total = (
            parts.nonresonant.coeffs
            - parts.resonant.coeffs
            + parts.momentum_part.coeffs
            + parts.mean_part.coeffs
        )
        assert np.max(np.abs(total - oracle_cubic(state))) < 1e-12


def test_decomposition_matches_fft_nonlinearity():
    for seed, sign in ((0, 1), (1, -1), (2, 1)):
        state = random_state(8, seed=seed)
        parts = decompose_nonlinearity(state)
        mkdv1 = sign * (
            parts.nonresonant.coeffs
            - parts.resonant.coeffs
            + parts.momentum_part.coeffs
        )
        mkdv2 = sign * (parts.nonresonant.coeffs - parts.resonant.coeffs)
        got1 = nonlinearity(state, EquationSpec("mkdv1", sign)).coeffs
        got2 = nonlinearity(state, EquationSpec("mkdv2", sign)).coeffs
        assert np.max(np.abs(got1 - mkdv1)) < 1e-12
        assert np.max(np.abs(got2 - mkdv2)) < 1e-12


def test_decomposition_scalar_parts():
    state = random_state(6, seed=12)
    parts = decompose_nonlinearity(state)
    expected_mom = 1j * momentum(state) * state.coeffs
    expected_mean = 1j * mass(state) * state.modes * state.coeffs
    assert np.max(np.abs(parts.momentum_part.coeffs - expected_mom)) < 1e-14
    assert np.max(np.abs(parts.mean_part.coeffs - expected_mean)) < 1e-14
    diag = 1j * state.modes * np.abs(state.coeffs) ** 2 * state.coeffs
    assert np.max(np.abs(parts.resonant.coeffs - diag)) < 1e-14


def test_decomposition_refuses_large_cap():
    with pytest.raises(ValueError):
        decompose_nonlinearity(random_state(65, seed=0))


def test_single_mode_has_no_nonresonant_part():
    state = state_from_modes(8, {5: 0.3 + 0.4j})
    parts = decompose_nonlinearity(state)
    assert np.max(np.abs(parts.nonresonant.coeffs)) == 0.0
    # resonant and momentum parts cancel exactly on one mode
    assert np.max(
        np.abs(parts.resonant.coeffs - parts.momentum_part.coeffs)
    ) < 1e-15


def test_equation_spec_validation():
    with pytest.raises(ValueError):
        EquationSpec("mkdv3", 1)
    with pytest.raises(ValueError):
        EquationSpec("mkdv", 2)


# -------------------------------------------------------------- plane waves

def exact_plane_wave(variant, sign, cap, wave, amp, s, t):
    """Closed-form single-mode solutions.

    On one mode the cubic reduces to its diagonal, so each variant keeps
    a different scalar phase rate:
        mkdv   d/dt u_hat = i(N^3 + sign |c|^2 N) u_hat
        mkdv1  d/dt u_hat = i N^3 u_hat              (mean term cancels all)
        mkdv2  d/dt u_hat = i(N^3 - sign |c|^2 N) u_hat
    with c = amp * N^-s.
    """
    c = amp * float(wave) ** (-s)
    rate = {"mkdv": 1.0, "mkdv1": 0.0, "mkdv2": -1.0}[variant]
    omega = wave**3 + rate * sign * abs(c) ** 2 * wave
    return state_from_modes(cap, {wave: c * np.exp(1j * omega * t)}, time=t)


@pytest.mark.parametrize("variant", ["mkdv", "mkdv1", "mkdv2"])
@pytest.mark.parametrize("sign", [1, -1])
def test_plane_wave_solutions(variant, sign):
    cap, wave, amp, s = 8, 3, 1.5, 0.0
    dt, horizon = 1e-3, 0.05
    start = exact_plane_wave(variant, sign, cap, wave, amp, s, 0.0)
    traj = solve(start, EquationSpec(variant, sign), dt, horizon, save_every=10)
    worst = 0.0
    for st in traj.states:
        exact = exact_plane_wave(variant, sign, cap, wave, amp, s, st.time)
        worst = max(worst, float(np.max(np.abs(st.coeffs - exact.coeffs))))
    assert worst < 1e-9


def test_plane_wave_exact_frequency_126():
    # N=5, a=1, s=1/2, ++ sign: omega = 125 + 1 = 126
    state = exact_plane_wave("mkdv", 1, 8, 5, 1.0, 0.5, 0.3)
    expected = 5**-0.5 * np.exp(1j * 126.0 * 0.3)
    assert abs(state.coeff(5) - expected) < 1e-15


# ----------------------------------------------------------------- solver

def test_solve_save_grid_and_times():
    state = preset_state(8, "random_smooth:1.5,3")
    traj = solve(state, EquationSpec("mkdv", 1), 1e-3, 0.02, save_every=4)
    assert len(traj) == 6
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.02, abs=1e-12)
    assert traj.dt == pytest.approx(4e-3)
    assert traj.equation == EquationSpec("mkdv", 1)


def test_solve_validates_grid():
    state = preset_state(4, "plane_wave:1,0.5,0")
    eq = EquationSpec("mkdv", 1)
    with pytest.raises(ValueError):
        solve(state, eq, 3e-3, 0.01)  # dt does not divide horizon
    with pytest.raises(ValueError):
        solve(state, eq, 1e-3, 0.01, save_every=3)  # 10 % 3 != 0
    with pytest.raises(ValueError):
        solve(state, eq, -1e-3, 0.01)


def test_solve_aborts_with_partial_trajectory():
    state = preset_state(8, "plane_wave:1,40,0")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        with pytest.raises(SolverAbort) as info:
            solve(state, EquationSpec("mkdv", 1), 0.1, 1.0)
    partial = info.value.partial
    assert partial is not None
    assert len(partial) >= 1
    assert partial.states[0].time == 0.0


def test_unstable_dt_warns():
    state = preset_state(8, "plane_wave:2,3,0")
    limit = stability_dt_limit(state)
    with pytest.warns(StabilityWarning):
        try:
            solve(state, EquationSpec("mkdv", 1), 4 * limit, 40 * limit, 10)
        except SolverAbort:
            pass


def test_stability_limit_formula():
    state = preset_state(16, "plane_wave:3,2,0")  # max |u| = 2
    assert stability_dt_limit(state) == pytest.approx(0.5 / (16 * 4.0 + 1.0))


def test_mass_momentum_semidiscrete_conservation():
    state = preset_state(12, "random_smooth:1.0,2")
    for variant in ("mkdv", "mkdv1", "mkdv2"):
        traj = solve(state, EquationSpec(variant, 1), 5e-4, 0.05, save_every=20)
        m0, p0 = mass(traj.initial), momentum(traj.initial)
        for st in traj.states:
            assert abs(mass(st) - m0) < 1e-10
            assert abs(momentum(st) - p0) < 1e-10


# ------------------------------------------------------------ batch solve

def assert_same_trajectory(got, want):
    """Bitwise equal states and times, equal step, equation and metadata."""
    assert len(got) == len(want)
    for a, b in zip(got.states, want.states):
        assert a.coeffs.tobytes() == b.coeffs.tobytes()
        assert a.time == b.time
    assert (got.dt, got.equation) == (want.dt, want.equation)
    assert repr(got.metadata) == repr(want.metadata)  # nan-safe


def solo(state, equation, dt, horizon, save_every):
    """solve's outcome for one member: its trajectory or its SolverAbort."""
    try:
        return solve(state, equation, dt, horizon, save_every)
    except SolverAbort as abort:
        return abort


def assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, SolverAbort):
        assert str(got) == str(want)
        assert_same_trajectory(got.partial, want.partial)
    else:
        assert_same_trajectory(got, want)


def test_batch_members_match_solo_bitwise():
    # all three variants, both signs and four amplitudes in one stack
    base = preset_state(16, "random_smooth:1.2,7")
    members = [
        (base.with_(coeffs=base.coeffs * amp, time=0.25), EquationSpec(variant, sign))
        for amp, (variant, sign) in zip(
            (1.0, 0.5, 2.0, 1.5, 0.75, 1.25),
            [(v, s) for s in (1, -1) for v in ("mkdv", "mkdv1", "mkdv2")],
        )
    ]
    states, equations = zip(*members)
    batch = solve_many(states, equations, 1e-3, 0.05, 10)
    assert len(batch) == len(members)
    for got, (state, equation) in zip(batch, members):
        assert_same_trajectory(got, solve(state, equation, 1e-3, 0.05, 10))


def test_large_batch_members_match_solo_bitwise():
    # the (64, 264) padded product stack is 264 KiB, past the 256 KiB from
    # which numpy reuses temporaries in place
    base = preset_state(64, "random_smooth:1.2,7")
    states = [base.with_(coeffs=base.coeffs * (1.0 + 0.01 * b)) for b in range(64)]
    equation = EquationSpec("mkdv2", 1)
    batch = solve_many(states, [equation] * 64, 1e-4, 3e-4, 1)
    for got, state in zip(batch, states):
        assert_same_trajectory(got, solve(state, equation, 1e-4, 3e-4, 1))


@pytest.mark.parametrize("cap, members", [
    (32, [("mkdv", 1), ("mkdv1", -1), ("mkdv2", 1)]),
    (64, [("mkdv", 1)]),
    (64, [("mkdv", -1)]),
    (512, [("mkdv2", 1)]),
], ids=["32-mixed", "64-plus", "64-minus", "512-mkdv2"])
def test_stepper_matches_reference_rhs_bitwise(monkeypatch, cap, members):
    # 200 IF-RK4 steps on the production right-hand side and on the
    # reference one built on public scipy.fft
    base = preset_state(cap, "random_smooth:1.5,3")
    states = [base.with_(coeffs=base.coeffs * (1.0 + 0.5 * b)) for b in range(len(members))]
    equations = [EquationSpec(*member) for member in members]
    got = solve_many(states, equations, 1e-4, 0.02, 1)
    monkeypatch.setattr(dynamics, "_rhs_builder", reference_rhs_builder)
    want = solve_many(states, equations, 1e-4, 0.02, 1)
    for a, b in zip(got, want):
        assert isinstance(a, Trajectory) and len(a) == 201
        assert_same_trajectory(a, b)


@pytest.mark.parametrize("cap, members", [
    (16, [("mkdv2", 1), ("mkdv", -1), ("mkdv1", 1), ("mkdv", 1)]),
    (32, [("mkdv2", 1), ("mkdv", -1), ("mkdv1", 1), ("mkdv", 1)]),
    (512, [("mkdv2", 1)]),
], ids=["16-unsorted", "32-unsorted", "512-mkdv2"])
def test_step_matches_reference_stepper_bitwise(monkeypatch, cap, members):
    # 200 IF-RK4 steps on the production stepper, which takes full-shape
    # operands and rows grouped by variant, and on the reference stepper,
    # which takes broadcast operands and rows in any order
    base = preset_state(cap, "random_smooth:1.5,3")
    states = [base.with_(coeffs=base.coeffs * (1.0 + 0.5 * b)) for b in range(len(members))]
    equations = [EquationSpec(*member) for member in members]
    got = solve_many(states, equations, 1e-4, 0.02, 1)
    monkeypatch.setattr(dynamics, "_ifrk4_stepper", reference_ifrk4_stepper)
    want = solve_many(states, equations, 1e-4, 0.02, 1)
    for a, b, state, equation in zip(got, want, states, equations):
        assert isinstance(a, Trajectory) and len(a) == 201
        assert a.equation == equation
        assert a.initial.coeffs.tobytes() == state.coeffs.tobytes()
        assert_same_trajectory(a, b)


def _real_control(cap):
    """Coefficients of the real function u + conj(u): conjugate symmetric,
    so the momentum sum n |u_hat(n)|^2 reduces to exactly 0."""
    base = preset_state(cap, "random_smooth:1.5,3")
    return base.with_(coeffs=base.coeffs + np.conj(base.coeffs[::-1]))


_BOTH_SIGNS = [(variant, sign) for sign in (1, -1) for variant in dynamics.VARIANTS]


@pytest.mark.parametrize("case", ["one-sided", "minus-sign", "real", "zero", "abort"])
def test_step_matches_reference_stepper_where_zero_signs_matter(monkeypatch, case):
    # The stepper forms the mean transport as a real multiply and the
    # momentum phase with a preset-zero real part, where the reference
    # takes complex products; the two differ at most in the sign of a
    # zero.  These stacks hold the exact zeros that could expose it:
    # one_sided data vanish at n <= 0, real data have P = 0 exactly, the
    # two right-hand sides of the zero state differ in the signs of their
    # zeros, and an aborting row is zeroed while the others go on
    cap = 32
    if case in ("one-sided", "zero"):
        state = preset_state(cap, "one_sided:0.9" if case == "one-sided" else "zero")
        members = [(state, EquationSpec(*member)) for member in _BOTH_SIGNS]
    elif case == "minus-sign":
        base = preset_state(cap, "random_smooth:1.2,7")
        members = [(base.with_(coeffs=base.coeffs * amp), EquationSpec(variant, -1))
                   for amp in (0.5, 1.5) for variant in ("mkdv2", "mkdv1")]
    elif case == "real":
        state = _real_control(cap)
        paired_modes = np.repeat(state.modes.astype(np.float64), 2)
        assert np.add.reduce(paired_modes * np.square(state.coeffs.view(np.float64))) == 0.0
        members = [(state, EquationSpec(*member)) for member in _BOTH_SIGNS]
    else:
        base = preset_state(16, "random_smooth:1.2,7")
        # amplitude 50 aborts in step 1 under mkdv1 and mkdv2, 35.6 in
        # step 3 under mkdv; the zeroed rows then ride along
        members = [
            (base, EquationSpec("mkdv2", -1)),
            (base.with_(coeffs=base.coeffs * 50.0), EquationSpec("mkdv2", 1)),
            (base.with_(coeffs=base.coeffs * 0.5), EquationSpec("mkdv1", -1)),
            (base.with_(coeffs=base.coeffs * 50.0), EquationSpec("mkdv1", 1)),
            (base.with_(coeffs=base.coeffs * 35.6), EquationSpec("mkdv", 1)),
            (base, EquationSpec("mkdv", -1)),
        ]
    states, equations = zip(*members)
    dt, horizon = (1e-3, 0.01) if case == "abort" else (1e-4, 5e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        got = solve_many(states, equations, dt, horizon, 1)
        monkeypatch.setattr(dynamics, "_ifrk4_stepper", reference_ifrk4_stepper)
        want = solve_many(states, equations, dt, horizon, 1)
    if case == "abort":
        assert [type(r) for r in got] == [Trajectory, SolverAbort] * 2 + [SolverAbort, Trajectory]
    else:
        assert all(isinstance(r, Trajectory) for r in got)
    for a, b in zip(got, want):
        assert_same_outcome(a, b)


def test_stepper_buffers_never_reach_saved_states(monkeypatch):
    # rhs's input and output buffers and the two step results, recorded as
    # the stepper uses them, share no memory with any saved state
    buffers = []
    build_rhs, build_stepper = dynamics._rhs_builder, dynamics._ifrk4_stepper

    def recording_rhs_builder(cap, equations):
        rhs = build_rhs(cap, equations)

        def recording_rhs(coeffs, out=None):
            buffers.extend((coeffs, out))
            return rhs(coeffs, out)

        recording_rhs.coeffs = rhs.coeffs
        return recording_rhs

    def recording_stepper(cap, equations, dt):
        advance = build_stepper(cap, equations, dt)

        def recording_advance(u):
            buffers.append(advance(u))
            return buffers[-1]

        return recording_advance

    monkeypatch.setattr(dynamics, "_rhs_builder", recording_rhs_builder)
    monkeypatch.setattr(dynamics, "_ifrk4_stepper", recording_stepper)
    base = preset_state(16, "random_smooth:1.2,7")
    states = [base, base.with_(coeffs=base.coeffs * 35.6), base.with_(coeffs=base.coeffs * 0.5)]
    equations = [EquationSpec("mkdv2", 1), EquationSpec("mkdv", 1), EquationSpec("mkdv1", -1)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        results = solve_many(states, equations, 1e-3, 0.01, 1)
    assert [type(r) for r in results] == [Trajectory, SolverAbort, Trajectory]
    unique = {id(buf): buf for buf in buffers if buf is not None}.values()
    # the initial stack, rhs's input buffer, k1..k4 and the two results
    assert len({buf.__array_interface__["data"][0] for buf in unique}) == 8
    for result in results:
        traj = result.partial if isinstance(result, SolverAbort) else result
        for state in traj.states:
            assert not state.coeffs.flags.writeable
            assert not any(np.shares_memory(state.coeffs, buf) for buf in unique)


def test_nonlinearity_and_residual_check_return_independent_values():
    state = preset_state(16, "random_smooth:1.5,3")
    other = preset_state(16, "random_smooth:1.2,7")
    equation = EquationSpec("mkdv2", -1)
    first = nonlinearity(state, equation)
    kept = first.coeffs.copy()
    second = nonlinearity(other, equation)
    assert not np.shares_memory(first.coeffs, second.coeffs)
    assert first.coeffs.tobytes() == kept.tobytes()
    for got, source in ((first, state), (second, other)):
        want = reference_rhs_builder(16, (equation,))(source.coeffs[None])[0]
        assert got.coeffs.tobytes() == want.tobytes()
    # residual_check against its formula on the reference right-hand side
    traj = solve(state, equation, 1e-4, 2e-3)
    rhs = reference_rhs_builder(16, (equation,))
    dissipation = (1j * state.modes.astype(np.float64)) ** 3
    expected = []
    for before, mid, after in zip(traj.states, traj.states[1:], traj.states[2:]):
        diff = (after.coeffs - before.coeffs) / (2.0 * traj.dt)
        resid = diff + dissipation * mid.coeffs - rhs(mid.coeffs[None])[0]
        expected.append((mid.time, fl_norm(mid.with_(coeffs=resid), NormSpec(0.0, 2.0))))
    assert residual_check(traj) == tuple(expected)


def test_rhs_returns_a_fresh_array_per_call():
    rhs = _rhs_builder(16, (EquationSpec("mkdv2", 1),))
    first = rhs(preset_state(16, "random_smooth:1.5,3").coeffs[None])
    kept = first.copy()
    second = rhs(preset_state(16, "random_smooth:1.2,7").coeffs[None])
    assert not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes()


def test_batch_abort_leaves_neighbours_unchanged():
    # at the shared dt, amplitude 35.6 blows up in step 3 and the NaN state
    # is non-finite at step 1; their neighbours run to the end.  Neither
    # member order is grouped by variant, as the stack's rows are
    base = preset_state(16, "random_smooth:1.2,7")
    nan_state = base.with_(coeffs=np.full_like(base.coeffs, np.nan))
    members = [
        (base, EquationSpec("mkdv2", 1), Trajectory),
        (base.with_(coeffs=base.coeffs * 35.6), EquationSpec("mkdv", 1), SolverAbort),
        (nan_state, EquationSpec("mkdv1", -1), SolverAbort),
        (base.with_(coeffs=base.coeffs * 0.5), EquationSpec("mkdv", -1), Trajectory),
    ]
    for order in ((0, 1, 2, 3), (2, 0, 3, 1)):
        states, equations, kinds = zip(*(members[i] for i in order))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            batch = solve_many(states, equations, 1e-3, 0.01, 1)
            alone = [solo(*member, 1e-3, 0.01, 1) for member in zip(states, equations)]
        assert [type(r) for r in batch] == list(kinds)
        blown, nan_abort = (batch[order.index(i)] for i in (1, 2))
        assert "mass drifted" in str(blown) and "(step 3)" in str(blown)
        assert len(blown.partial) == 3
        assert str(nan_abort).startswith("non-finite state at t = 0.001 (step 1)")
        for got, state, equation in zip(batch, states, equations):
            traj = got.partial if isinstance(got, SolverAbort) else got
            assert traj.equation == equation
            assert traj.initial.coeffs.tobytes() == state.coeffs.tobytes()
        for got, want in zip(batch, alone):
            assert_same_outcome(got, want)


def test_rhs_refuses_ungrouped_equations():
    # signs may come in any order within a variant's group
    grouped = [EquationSpec(v, s) for v, s in (("mkdv", -1), ("mkdv", 1), ("mkdv1", 1),
                                                 ("mkdv2", -1), ("mkdv2", 1))]
    _rhs_builder(8, grouped)
    mkdv, mkdv1, mkdv2 = grouped[0], grouped[2], grouped[4]
    for ungrouped in (grouped[::-1], [mkdv1, mkdv], [mkdv, mkdv2, mkdv1],
                      [mkdv2, mkdv2, mkdv], [mkdv, mkdv1, mkdv, mkdv1]):
        with pytest.raises(ValueError, match="grouped by variant"):
            _rhs_builder(8, ungrouped)


def test_batch_warns_in_member_order():
    calm = preset_state(8, "plane_wave:2,0.1,0")
    loud = [preset_state(8, f"plane_wave:2,{amp},0") for amp in (3, 4)]
    dt = 2 * stability_dt_limit(loud[0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", StabilityWarning)
        batch = solve_many(
            [loud[1], calm, loud[0]], [EquationSpec("mkdv", 1)] * 3, dt, 4 * dt
        )
    messages = [str(w.message) for w in caught if w.category is StabilityWarning]
    expected = [stability_dt_limit(st) for st in (loud[1], loud[0])]
    assert messages == [
        f"dt = {dt:g} exceeds the stability heuristic 0.5/(M max|u|^2 + 1) = {limit:g}"
        for limit in expected
    ]
    assert batch[1].metadata["warnings"] == ()


def test_solve_many_validation(monkeypatch):
    state = preset_state(4, "plane_wave:1,0.5,0")
    eq = EquationSpec("mkdv", 1)
    with pytest.raises(ValueError):
        solve_many([], [], 1e-3, 0.01)
    with pytest.raises(ValueError):
        solve_many([state, state], [eq], 1e-3, 0.01)
    with pytest.raises(ValueError):
        solve_many([state, preset_state(5, "plane_wave:1,0.5,0")], [eq, eq], 1e-3, 0.01)
    with pytest.raises(ValueError):
        solve_many([state], [eq], 3e-3, 0.01)

    # more than MAX_STEPS steps, or an inf count: refused before any
    # stability limit or stepper
    def not_reached(*args):
        raise AssertionError("the step count was not checked first")

    monkeypatch.setattr(dynamics, "stability_dt_limit", not_reached)
    monkeypatch.setattr(dynamics, "_ifrk4_stepper", not_reached)
    for dt, horizon in ((1e-300, 1.0), (1e-10, 1e300), (1.0, dynamics.MAX_STEPS + 1.0)):
        with pytest.raises(ValueError, match=r"^dt = .* takes more than MAX_STEPS = "
                                             r"2147483648 steps over the horizon "):
            solve_many([state], [eq], dt, horizon)
    # phase_schedule's own count could overflow to inf first
    with pytest.raises(ValueError, match=r"^dt_cap = 1e-320 takes more than MAX_STEPS"):
        phase_schedule(0.8, 1e-320, 4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_start_times_are_checked_before_stepping(monkeypatch, bad):
    def no_stepper(*args):
        raise AssertionError("a stepper was built")

    monkeypatch.setattr(dynamics, "_ifrk4_stepper", no_stepper)
    state = preset_state(64, "random_smooth:1.5,0")
    eq = EquationSpec("mkdv", 1)
    with pytest.raises(ValueError, match=r"^states\[1\]\.time must be finite"):
        solve_many([state, state.with_(time=bad)], [eq, eq], 1e-4, 0.05)
    with pytest.raises(ValueError, match=r"^states\[0\]\.time must be finite"):
        solve(state.with_(time=bad), eq, 1e-4, 0.05)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_time_inputs_must_be_positive_and_finite(bad):
    state = preset_state(4, "plane_wave:1,0.5,0")
    eq = EquationSpec("mkdv", 1)
    with pytest.raises(ValueError, match="^dt must be positive and finite"):
        Trajectory((state,), bad)
    with pytest.raises(ValueError, match="^state times must be finite"):
        Trajectory((state.with_(time=bad),), 1e-3)
    with pytest.raises(ValueError, match="^dt must be positive and finite"):
        solve_many([state], [eq], bad, 0.01)
    with pytest.raises(ValueError, match="^horizon must be positive and finite"):
        solve_many([state], [eq], 1e-3, bad)
    with pytest.raises(ValueError, match="^total must be positive and finite"):
        phase_schedule(bad, 1e-3, 4)
    with pytest.raises(ValueError, match="^dt_cap must be positive and finite"):
        phase_schedule(0.1, bad, 4)


# ------------------------------------------------------ independent solves

def use_cpus(monkeypatch, count):
    """Make _solve_each see ``count`` CPUs: 1 takes the serial loop."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def solve_each_recorded(jobs):
    """_solve_each's results or exception, and the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = _solve_each(jobs)
        except SolverAbort as abort:
            outcome = abort
    return outcome, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def test_pickled_state_and_abort_stay_frozen():
    state = preset_state(8, "random_smooth:1.2,3").with_(time=0.5)
    back = pickle.loads(pickle.dumps(state))
    assert not back.coeffs.flags.writeable
    assert back.coeffs.tobytes() == state.coeffs.tobytes()
    assert (back.mode_cap, back.time) == (state.mode_cap, state.time)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        abort = solo(preset_state(8, "plane_wave:1,40,0"), EquationSpec("mkdv", 1),
                     0.1, 1.0, 1)
    back = pickle.loads(pickle.dumps(abort))
    assert type(back) is SolverAbort
    assert back.diagnostic == abort.diagnostic
    assert_same_outcome(back, abort)
    assert not any(st.coeffs.flags.writeable for st in back.partial.states)


@pytest.mark.parametrize("cpus", [1, 3])
def test_solve_each_returns_solo_results_in_job_order(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    pools = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            pools.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    # the costs run short, long, medium: workers take them out of order
    jobs = [
        (preset_state(8, "random_smooth:1.2,1"), EquationSpec("mkdv", 1), 1e-3, 0.01, 5),
        (preset_state(32, "random_smooth:1.2,2"), EquationSpec("mkdv2", -1), 5e-4, 0.02, 8),
        (preset_state(16, "random_smooth:1.2,3").with_(time=0.25),
         EquationSpec("mkdv1", 1), 1e-3, 0.03, 10),
    ]
    got = _solve_each(jobs)
    assert pools == ([] if cpus == 1 else [3])
    assert len(got) == len(jobs)
    for trajectory, job in zip(got, jobs):
        assert_same_trajectory(trajectory, solve(*job))
        assert not trajectory.final.coeffs.flags.writeable


def test_solve_each_warns_in_job_order_on_every_path(monkeypatch):
    calm = preset_state(8, "plane_wave:2,0.1,0")
    loud = [preset_state(8, f"plane_wave:2,{amp},0") for amp in (3, 4)]
    dt = 2 * stability_dt_limit(loud[0])
    jobs = [(state, EquationSpec("mkdv", 1), dt, 4 * dt) for state in (loud[1], calm, loud[0])]
    use_cpus(monkeypatch, 1)
    serial = solve_each_recorded(jobs)
    use_cpus(monkeypatch, 3)
    forked = solve_each_recorded(jobs)
    assert [message for _, message, _, _ in serial[1]] == [
        f"dt = {dt:g} exceeds the stability heuristic 0.5/(M max|u|^2 + 1) = "
        f"{stability_dt_limit(state):g}" for state in (loud[1], loud[0])
    ]
    assert forked[1] == serial[1]
    for got, want in zip(forked[0], serial[0]):
        assert_same_trajectory(got, want)


@pytest.mark.parametrize("cpus", [1, 3])
def test_parent_warning_filters_govern_forked_jobs(monkeypatch, cpus):
    calm = preset_state(8, "plane_wave:2,0.1,0")
    loud = [preset_state(8, f"plane_wave:2,{amp},0") for amp in (3, 4)]
    dt = 2 * stability_dt_limit(loud[0])
    jobs = [(state, EquationSpec("mkdv", 1), dt, 4 * dt) for state in (calm, loud[1], loud[0])]
    use_cpus(monkeypatch, cpus)
    with warnings.catch_warnings():
        warnings.simplefilter("error", StabilityWarning)
        with pytest.raises(StabilityWarning) as raised:
            _solve_each(jobs)
    assert str(raised.value) == (
        f"dt = {dt:g} exceeds the stability heuristic 0.5/(M max|u|^2 + 1) = "
        f"{stability_dt_limit(loud[1]):g}"
    )


def test_solve_each_raises_the_lowest_index_abort(monkeypatch):
    # jobs 1 and 2 abort; job 2, the costlier, is dispatched first; job 3
    # warns, but the serial loop never reaches it
    base = preset_state(16, "random_smooth:1.2,7")
    nan_state = preset_state(32, "random_smooth:1.2,7")
    nan_state = nan_state.with_(coeffs=np.full_like(nan_state.coeffs, np.nan))
    loud = preset_state(8, "plane_wave:2,4,0")
    jobs = [
        (base, EquationSpec("mkdv2", 1), 1e-3, 0.01, 1),
        (base.with_(coeffs=base.coeffs * 35.6), EquationSpec("mkdv", 1), 1e-3, 0.01, 1),
        (nan_state, EquationSpec("mkdv1", -1), 1e-3, 0.01, 1),
        (loud, EquationSpec("mkdv", 1), 2 * stability_dt_limit(loud),
         8 * stability_dt_limit(loud), 1),
    ]
    use_cpus(monkeypatch, 1)
    serial = solve_each_recorded(jobs)
    use_cpus(monkeypatch, 4)
    forked = solve_each_recorded(jobs)
    assert isinstance(serial[0], SolverAbort)
    assert "mass drifted" in str(serial[0]) and len(serial[0].partial) == 3
    assert_same_outcome(forked[0], serial[0])
    assert forked[1] == serial[1]
    assert [message for _, message, _, _ in serial[1]] == [
        "dt = 0.001 exceeds the stability heuristic 0.5/(M max|u|^2 + 1) = "
        f"{stability_dt_limit(jobs[1][0]):g}"
    ]


# ------------------------------------------------- propagator and residual

def test_residual_quadratic_in_dt():
    state = preset_state(8, "plane_wave:4,1.5,0")
    eq = EquationSpec("mkdv", 1)
    maxima = []
    for dt in (2e-4, 1e-4):
        traj = solve(state, eq, dt, 0.01)
        maxima.append(max(v for _, v in residual_check(traj)))
    ratio = maxima[0] / maxima[1]
    assert 3.5 < ratio < 4.5


def test_residual_stack_matches_per_slice_formula():
    # 79 interior slices: a 326 KiB padded product stack
    traj = solve(preset_state(64, "random_smooth:1.2,3"), EquationSpec("mkdv2", 1),
                 1e-4, 0.008)
    dissipation = (1j * traj.initial.modes.astype(np.float64)) ** 3
    expected = []
    for before, mid, after in zip(traj.states, traj.states[1:], traj.states[2:]):
        diff = (after.coeffs - before.coeffs) / (2.0 * traj.dt)
        resid = diff + dissipation * mid.coeffs - nonlinearity(mid, traj.equation).coeffs
        expected.append((mid.time, fl_norm(mid.with_(coeffs=resid), NormSpec(0.0, 2.0))))
    assert residual_check(traj) == tuple(expected)


def test_residual_validation():
    state = preset_state(4, "plane_wave:1,0.5,0")
    traj = solve(state, EquationSpec("mkdv", 1), 1e-3, 2e-3)
    with pytest.raises(ValueError):
        residual_check(Trajectory(traj.states, traj.dt, None, {}))
    short = solve(state, EquationSpec("mkdv", 1), 1e-3, 1e-3)
    with pytest.raises(ValueError):
        residual_check(short)


def test_phase_schedule_divides_exactly():
    for total, cap, points in ((0.8, 1e-3, 160), (1.0, 2.5e-4, 7), (0.1, 0.5, 3)):
        dt, save_every = phase_schedule(total, cap, points)
        assert dt <= cap * (1 + 1e-12)
        assert dt * save_every * points == pytest.approx(total, rel=1e-12)
    with pytest.raises(ValueError):
        phase_schedule(0.0, 1e-3, 4)


# ------------------------------------------------------------ multiplier sum

def dense_j1(n, s, p, radius):
    """Direct triple loop over the truncation; the oracle at small radii."""
    best, total = 0.0, 0.0
    if p == 1.0:
        conjugate = None
    else:
        conjugate = 1.0 if math.isinf(p) else p / (p - 1.0)
    for n1 in range(-radius, radius + 1):
        for n2 in range(-radius, radius + 1):
            n3 = n - n1 - n2
            if n1 + n2 == 0 or n1 + n3 == 0 or n2 + n3 == 0:
                continue
            phi = 3 * abs((n1 + n2) * (n1 + n3) * (n2 + n3))
            weight = (
                math.sqrt(1.0 + n * n) ** s
                * abs(n3)
                / (
                    math.sqrt(phi)
                    * math.sqrt(1.0 + n1 * n1) ** s
                    * math.sqrt(1.0 + n2 * n2) ** s
                    * math.sqrt(1.0 + n3 * n3) ** s
                )
            )
            if conjugate is None:
                best = max(best, weight)
            else:
                total += weight**conjugate
    return best if conjugate is None else total


def blocked_j1(n, s, p, radius):
    """Dense (n1, n2) grid in row blocks, vectorised; the oracle at large radii."""
    if p == 1.0:
        conjugate = None
    else:
        conjugate = 1.0 if math.isinf(p) else p / (p - 1.0)
    span = np.arange(-radius, radius + 1)
    n2 = span[None, :]
    total = 0.0
    block = max(1, (1 << 22) // (2 * radius + 1))
    for start in range(0, len(span), block):
        n1 = span[start : start + block, None]
        n3 = n - n1 - n2
        s12, s13, s23 = n1 + n2, n1 + n3, n2 + n3
        valid = (s12 != 0) & (s13 != 0) & (s23 != 0)
        phi = 3.0 * np.abs(
            s12.astype(np.float64) * s13.astype(np.float64) * s23.astype(np.float64)
        )
        phi[~valid] = 1.0
        weight = (1.0 + n * n) ** (s / 2) * np.abs(n3) / (
            np.sqrt(phi)
            * (1.0 + n1 * n1) ** (s / 2)
            * (1.0 + n2 * n2) ** (s / 2)
            * (1.0 + n3 * n3.astype(np.float64)) ** (s / 2)
        )
        weight[~valid] = 0.0
        if conjugate is None:
            total = max(total, float(np.max(weight)))
        else:
            total += float(np.sum(weight**conjugate))
    return total


@pytest.mark.parametrize(
    "n,s,p",
    [(0, 0.5, 2.0), (5, 0.75, 8.0), (-3, 0.5, 1.0), (2, 0.5, math.inf)],
)
def test_j1_matches_dense_loop(n, s, p):
    for radius in (4, 9):
        expected = dense_j1(n, s, p, radius)
        assert j1_multiplier_sum(n, s, p, radius) == pytest.approx(expected, rel=1e-12)
        assert blocked_j1(n, s, p, radius) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("s,p", [(0.5, 2.0), (0.75, 8.0), (0.5, math.inf)])
def test_j1_convolution_matches_blocked_oracle(s, p):
    # n = 512 lies outside the summation window at radius 256
    for radius in (256, 512):
        for n in (0, 32, -256, 512):
            assert j1_multiplier_sum(n, s, p, radius) == pytest.approx(
                blocked_j1(n, s, p, radius), rel=1e-12
            )


@pytest.mark.parametrize("s,p", [(0.0, 1.05), (0.25, 1.2)])
def test_j1_direct_convolution_where_fft_rounding_dominates(s, p):
    # s < 1/2 with p near 1: c(m) grows like |m|^{(1/2-s)p'} where a*a is
    # below the FFT's rounding, which then swamps the sum
    for n in (0, -40):
        assert j1_multiplier_sum(n, s, p, 256) == pytest.approx(
            blocked_j1(n, s, p, 256), rel=1e-12
        )


def test_j1_fallback_decision_calls_no_blas(monkeypatch):
    # the rounding estimate's 2-norms are numpy reductions: a BLAS norm's
    # last digits depend on the thread count, and so could the branch taken
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.norm called")

    # (0, 1/2, 2) keeps its FFT sum; (-40, 0, 1.05) takes the direct one
    cases = [(0, 0.5, 2.0, 256), (-40, 0.0, 1.05, 256)]
    expected = [j1_multiplier_sum(*case) for case in cases]
    monkeypatch.setattr(np.linalg, "norm", refuse)
    assert [j1_multiplier_sum(*case) for case in cases] == expected


def test_j1_empty_and_monotone():
    assert j1_multiplier_sum(3, 0.5, 2.0, 0) == 0.0
    values = [j1_multiplier_sum(0, 0.5, 2.0, radius) for radius in (4, 8, 16, 32)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_j1_chunking_is_seamless():
    # the sup flavor scans rows in blocks of 2^22 // (2R+1): two at R = 1100;
    # at (n, s) = (1000, 0) the largest term lies in the second block
    for n, s in ((0, 0.5), (1000, 0.0)):
        got = j1_multiplier_sum(n, s, 1.0, 1100)
        assert got == pytest.approx(blocked_j1(n, s, 1.0, 1100), rel=1e-12)
    got = j1_multiplier_sum(2, 0.75, 8.0, 24)
    assert got == pytest.approx(dense_j1(2, 0.75, 8.0, 24), rel=1e-12)


def test_j1_validation():
    with pytest.raises(ValueError):
        j1_multiplier_sum(0, 0.5, 0.5, 8)
    with pytest.raises(ValueError):
        j1_multiplier_sum(0, 0.5, math.nan, 8)
    with pytest.raises(ValueError):
        j1_multiplier_sum(0, 0.5, 2.0, -1)
    # <k>^-400 underflows, so a(k) = inf: refused, naming the pair and radius
    with pytest.raises(ValueError, match=r"n = 0, s = -400.0, p = 2.0, radius = 8 "):
        j1_multiplier_sum(0, -400.0, 2.0, 8)


def test_j1_sums_match_single_radius_bitwise(monkeypatch):
    # each j1_multiplier_sum call builds its own weights at its radius, so
    # the slices of the weights built once at the largest radius must match
    grid = (64, 128, 256, 512, 1024, 2048, 4096)
    cases = [(n, s, p, grid) for s, p in ((0.5, 2.0), (0.75, 8.0))
             for n in (0, 32, -32, 256, -256)]
    # (0, 1.05) and (1/4, 1.2) take the direct convolution
    cases += [(n, s, p, (64, 128, 256)) for s, p in ((0.0, 1.05), (0.25, 1.2))
              for n in (0, -40)]
    cases += [(n, 0.5, p, (64, 128, 256)) for p in (1.0, math.inf) for n in (0, 5)]
    cases += [(3, 0.5, 2.0, (32, 0, 8)), (-3, 0.5, 1.0, (32, 0, 8))]
    for n, s, p, radii in cases:
        expected = tuple(j1_multiplier_sum(n, s, p, radius) for radius in radii)
        assert _j1_sums(n, s, p, radii) == expected, (n, s, p)

    def refuse(*args, **kwargs):
        raise AssertionError("weights built before the radii were checked")

    monkeypatch.setattr(dynamics, "japanese_bracket", refuse)
    with pytest.raises(ValueError, match="radius"):
        _j1_sums(0, 0.5, 2.0, (8, 2**17))


def test_j1_sum_does_not_depend_on_blas_threads():
    # OpenBLAS threads a dot product of this length, and its threads sum in
    # another order; a numpy reduction gives one repr whatever their count
    outputs = stdout_per_blas_thread_count(
        "from mkdvlab.dynamics import j1_multiplier_sum; "
        "print(repr(j1_multiplier_sum(0, 0.5, 2.0, 16384)))")
    assert outputs[0] == outputs[1] == f"{j1_multiplier_sum(0, 0.5, 2.0, 16384)!r}\n"


def test_j1_numpy_fft_matches_scipy_bitwise(monkeypatch):
    from scipy import fft as sfft

    cases = [(n, s, p, radius) for s, p in ((0.5, 2.0), (0.75, 8.0))
             for n in (0, 32, -32, 256, -256)
             for radius in (64, 128, 256, 512, 1024, 2048, 4096)]
    got = [j1_multiplier_sum(*case) for case in cases]
    # the same sums through scipy's real FFT at scipy's fast length
    monkeypatch.setattr(np.fft, "rfft", sfft.rfft)
    monkeypatch.setattr(np.fft, "irfft", sfft.irfft)
    monkeypatch.setattr(mkdvlab.dynamics, "_next_fast_len",
                        lambda target, primes: sfft.next_fast_len(target, real=True))
    assert got == [j1_multiplier_sum(*case) for case in cases]
