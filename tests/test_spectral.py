"""Transforms, projections, and the dealiased product against direct quadrature."""

import numpy as np
import pytest

from conftest import oracle_analysis, oracle_cubic, oracle_synthesis, random_state
from mkdvlab.errors import AliasingError
from mkdvlab.spectral import (
    FourierState,
    analysis,
    conjugate_state,
    dealiased_triple_product,
    derivative,
    padded_grid_size,
    project_high,
    project_low,
    state_from_modes,
    synthesis,
    to_physical,
    zero_state,
)


def test_state_layout():
    state = state_from_modes(3, {-3: 1.0, 0: 2.0, 2: 3.0 + 1.0j})
    assert state.coeffs.shape == (7,)
    assert state.coeff(-3) == 1.0
    assert state.coeff(0) == 2.0
    assert state.coeff(2) == 3.0 + 1.0j
    assert state.coeff(1) == 0.0
    assert list(state.modes) == [-3, -2, -1, 0, 1, 2, 3]


def test_state_validation():
    with pytest.raises(ValueError):
        FourierState(np.zeros(4, dtype=np.complex128), 2)  # wrong length
    with pytest.raises(ValueError):
        FourierState(np.zeros(3, dtype=np.complex128), -1)
    with pytest.raises(ValueError):
        state_from_modes(2, {5: 1.0})


def test_coeffs_are_frozen():
    state = zero_state(2)
    with pytest.raises(ValueError):
        state.coeffs[0] = 1.0


def test_transforms_match_direct_quadrature():
    state = random_state(9, seed=11)
    for num in (19, 24, 40):
        grid = to_physical(state, num)
        direct = oracle_synthesis(state, num)
        assert np.max(np.abs(grid.samples - direct)) < 1e-12
        back = analysis(grid.samples, state.mode_cap)
        assert np.max(np.abs(back - state.coeffs)) < 1e-13
        assert np.max(np.abs(back - oracle_analysis(grid.samples, 9))) < 1e-13


def test_transform_requires_resolving_grid():
    state = random_state(8, seed=0)
    with pytest.raises(AliasingError):
        to_physical(state, 16)  # needs 2M+1 = 17
    grid = to_physical(state, 17)
    with pytest.raises(AliasingError):
        analysis(grid.samples, 9)


def test_raw_transforms_require_resolving_grid():
    # modes -M..M land on n mod K, which only separates them when K >= 2M+1
    state = random_state(8, seed=0)
    with pytest.raises(AliasingError):
        synthesis(state.coeffs, 8, 16)
    with pytest.raises(AliasingError):
        analysis(np.zeros(16, dtype=np.complex128), 8)


def test_synthesis_of_a_stack_is_rowwise():
    rows = [random_state(5, seed=k).coeffs for k in range(3)]
    stacked = synthesis(np.stack(rows), 5, 11)
    for row, samples in zip(rows, stacked):
        assert samples.tobytes() == synthesis(row, 5, 11).tobytes()
    back = analysis(stacked, 5)
    for row, coeffs in zip(stacked, back):
        assert coeffs.tobytes() == analysis(row, 5).tobytes()


def test_conjugate_state_is_physical_conjugate():
    state = random_state(6, seed=3)
    conj = conjugate_state(state)
    samples = to_physical(state, 16).samples
    conj_samples = to_physical(conj, 16).samples
    assert np.max(np.abs(conj_samples - np.conj(samples))) < 1e-13


def test_real_symmetry_detection():
    sym = state_from_modes(4, {1: 0.5 + 0.25j, -1: 0.5 - 0.25j, 0: 1.0})
    assert sym.is_real_valued()
    assert not state_from_modes(4, {1: 0.5}).is_real_valued()


def test_projections_partition_modes():
    state = random_state(10, seed=5)
    low = project_low(state, 4)
    high = project_high(state, 4)
    assert np.array_equal(low.coeffs + high.coeffs, state.coeffs)
    assert np.all(low.coeffs[np.abs(state.modes) > 4] == 0)
    assert np.all(high.coeffs[np.abs(state.modes) <= 4] == 0)


def test_projection_validation():
    state = random_state(4, seed=1)
    with pytest.raises(ValueError):
        project_low(state, -1)
    with pytest.raises(ValueError):
        project_high(state, -1)


def test_derivative_is_mode_multiplication():
    state = random_state(7, seed=8)
    first = derivative(state)
    assert np.max(np.abs(first.coeffs - 1j * state.modes * state.coeffs)) == 0
    third = derivative(state, order=3)
    expected = (1j * state.modes.astype(float)) ** 3 * state.coeffs
    assert np.max(np.abs(third.coeffs - expected)) < 1e-15


def test_padded_grid_resolves_cubic():
    for cap in (1, 4, 16, 100, 512):
        assert padded_grid_size(cap) >= 4 * cap + 1


def test_triple_product_matches_quadrature_oracle():
    # |u|^2 u_x written as u * conj(u) * u_x through the public product
    for seed in (0, 7, 21):
        state = random_state(12, seed=seed)
        product = dealiased_triple_product(
            state, conjugate_state(state), derivative(state)
        )
        assert np.max(np.abs(product.coeffs - oracle_cubic(state))) < 1e-12


def test_triple_product_requires_matching_caps():
    with pytest.raises(ValueError):
        dealiased_triple_product(
            random_state(4, seed=0), random_state(5, seed=0), random_state(4, seed=0)
        )


def test_triple_product_has_no_wraparound():
    # single mode at the cap: cube lands on 3M, outside the band entirely
    cap = 5
    state = state_from_modes(cap, {cap: 1.0})
    cube = dealiased_triple_product(state, state, state)
    assert np.max(np.abs(cube.coeffs)) < 1e-14
