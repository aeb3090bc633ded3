"""Invariants checked over generated inputs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mkdvlab.dynamics import (
    EquationSpec,
    j1_multiplier_sum,
    nonlinearity,
    phase_schedule,
    phi_resonance,
)
from mkdvlab.io import state_from_csv_text, state_to_csv_text
from mkdvlab.norms import NormSpec, fl_norm, mass, momentum
from mkdvlab.spectral import (
    FourierState,
    conjugate_state,
    project_high,
    project_low,
)

frequencies = st.integers(min_value=-2000, max_value=2000)


@given(frequencies, frequencies, frequencies)
def test_phi_equals_cube_difference(n1, n2, n3):
    total = n1 + n2 + n3
    assert phi_resonance(n1, n2, n3) == total**3 - (n1**3 + n2**3 + n3**3)


@given(frequencies, frequencies, frequencies)
def test_phi_zero_iff_pairwise_cancellation(n1, n2, n3):
    vanishes = phi_resonance(n1, n2, n3) == 0
    assert vanishes == ((n1 + n2 == 0) or (n1 + n3 == 0) or (n2 + n3 == 0))


def states(max_cap=10, max_mag=2.0):
    def build(draw):
        cap = draw(st.integers(min_value=0, max_value=max_cap))
        size = 2 * cap + 1
        parts = draw(
            st.lists(
                st.floats(-max_mag, max_mag, allow_nan=False, width=32),
                min_size=2 * size,
                max_size=2 * size,
            )
        )
        arr = np.array(parts[:size]) + 1j * np.array(parts[size:])
        return FourierState(arr, cap)

    return st.composite(lambda draw: build(draw))()


@given(states(), st.integers(min_value=0, max_value=12))
def test_projections_partition_exactly(state, cutoff):
    low = project_low(state, cutoff)
    high = project_high(state, cutoff)
    assert np.array_equal(low.coeffs + high.coeffs, state.coeffs)
    assert np.all(low.coeffs * high.coeffs == 0)


@given(states(), st.floats(-np.pi, np.pi, allow_nan=False))
def test_norms_ignore_modewise_phases(state, theta):
    # fl norms and mass see only moduli, so unimodular factors are invisible
    phases = np.exp(1j * theta * np.arange(state.coeffs.size))
    rotated = state.with_(coeffs=state.coeffs * phases)
    for spec in (NormSpec(0.0, 2.0), NormSpec(0.5, 3.0), NormSpec(-1.0, np.inf)):
        assert np.isclose(
            fl_norm(rotated, spec), fl_norm(state, spec), rtol=1e-12, atol=1e-12
        )
    assert np.isclose(mass(rotated), mass(state), rtol=1e-12, atol=1e-12)
    assert np.isclose(momentum(rotated), momentum(state), rtol=1e-10, atol=1e-12)


@given(states(max_cap=6))
def test_conjugation_is_an_involution(state):
    twice = conjugate_state(conjugate_state(state))
    assert np.array_equal(twice.coeffs, state.coeffs)


@given(states(max_cap=6))
@settings(max_examples=40)
def test_conjugate_symmetry_survives_the_flow(state):
    # real-valued data stays real-valued: one step of each variant
    symmetric = state.with_(
        coeffs=0.5 * (state.coeffs + np.conj(state.coeffs[::-1]))
    )
    if not symmetric.is_real_valued():
        return
    from mkdvlab.dynamics import step

    for variant in ("mkdv", "mkdv1", "mkdv2"):
        moved = step(symmetric, EquationSpec(variant, 1), 1e-4)
        assert moved.is_real_valued(tol=1e-10)


@given(
    states(max_cap=6),
    st.floats(min_value=0.25, max_value=2.0, allow_nan=False),
    st.floats(-np.pi, np.pi, allow_nan=False),
)
@settings(max_examples=40)
def test_cubic_homogeneity(state, magnitude, angle):
    # |lam u|^2 d_x(lam u) = |lam|^2 lam |u|^2 u_x
    lam = magnitude * np.exp(1j * angle)
    eq = EquationSpec("mkdv", 1)
    scaled = nonlinearity(state.with_(coeffs=lam * state.coeffs), eq)
    expected = abs(lam) ** 2 * lam * nonlinearity(state, eq).coeffs
    assert np.allclose(scaled.coeffs, expected, rtol=1e-10, atol=1e-12)


@given(states(max_cap=8))
def test_state_csv_round_trip(state):
    back = state_from_csv_text(state_to_csv_text(state))
    assert back.mode_cap == state.mode_cap
    assert np.array_equal(back.coeffs, state.coeffs)


@given(
    st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
    st.floats(min_value=1e-5, max_value=1.0, allow_nan=False),
    st.integers(min_value=1, max_value=200),
)
def test_phase_schedule_invariants(total, dt_cap, save_points):
    dt, save_every = phase_schedule(total, dt_cap, save_points)
    assert dt <= dt_cap * (1 + 1e-9)
    assert save_every >= 1
    assert np.isclose(dt * save_every * save_points, total, rtol=1e-9)


@given(
    st.integers(min_value=-300, max_value=300),
    st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
    st.one_of(
        st.sampled_from([1.0, 2.0, 8.0, math.inf]),
        st.floats(min_value=1.05, max_value=20.0, allow_nan=False),
    ),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=200),
)
@settings(max_examples=60, deadline=None)
def test_j1_even_in_n_and_nondecreasing_in_radius(n, s, p, r1, r2):
    # the triple set at -n is the mirror image of the one at n, and a
    # larger radius only adds nonnegative terms
    small, large = sorted((r1, r2))
    value = j1_multiplier_sum(n, s, p, small)
    assert j1_multiplier_sum(-n, s, p, small) == pytest.approx(value, rel=1e-12)
    assert j1_multiplier_sum(n, s, p, large) >= value * (1.0 - 1e-12)
