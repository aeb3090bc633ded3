"""Transforms and projections against direct quadrature."""

import numpy as np
import pytest
from scipy import fft as sfft

from conftest import is_conjugate_symmetric, oracle_synthesis, random_state
from mkdvlab.dynamics import J1_MAX_RADIUS
from mkdvlab.errors import AliasingError
from mkdvlab.spectral import (
    FourierState,
    _next_fast_len,
    _spread_modes,
    conjugate_state,
    padded_grid_size,
    project_high,
    project_low,
    state_from_modes,
    synthesis,
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
        samples = synthesis(state.coeffs, state.mode_cap, num)
        direct = oracle_synthesis(state, num)
        assert np.max(np.abs(samples - direct)) < 1e-12


def test_transform_requires_resolving_grid():
    stack = np.stack([random_state(8, seed=k).coeffs for k in range(2)])
    with pytest.raises(AliasingError):
        synthesis(stack, 8, 16)  # needs 2M+1 = 17


def test_raw_transforms_require_resolving_grid():
    # modes -M..M land on n mod K, which only separates them when K >= 2M+1
    state = random_state(8, seed=0)
    with pytest.raises(AliasingError):
        synthesis(state.coeffs, 8, 16)


def test_synthesis_of_a_stack_is_rowwise():
    rows = [random_state(5, seed=k).coeffs for k in range(3)]
    stacked = synthesis(np.stack(rows), 5, 11)
    for row, samples in zip(rows, stacked):
        assert samples.tobytes() == synthesis(row, 5, 11).tobytes()


def test_conjugate_state_is_physical_conjugate():
    state = random_state(6, seed=3)
    conj = conjugate_state(state)
    samples = synthesis(state.coeffs, 6, 16)
    conj_samples = synthesis(conj.coeffs, 6, 16)
    assert np.max(np.abs(conj_samples - np.conj(samples))) < 1e-13


def test_real_symmetry_detection():
    sym = state_from_modes(4, {1: 0.5 + 0.25j, -1: 0.5 - 0.25j, 0: 1.0})
    assert is_conjugate_symmetric(sym.coeffs)
    assert np.max(np.abs(synthesis(sym.coeffs, 4, 9).imag)) < 1e-15
    one_sided = state_from_modes(4, {1: 0.5})
    assert not is_conjugate_symmetric(one_sided.coeffs)
    assert np.max(np.abs(synthesis(one_sided.coeffs, 4, 9).imag)) > 0.4


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


def test_padded_grid_resolves_cubic():
    for cap in (1, 4, 16, 100, 512):
        assert padded_grid_size(cap) >= 4 * cap + 1


@pytest.mark.parametrize("cap", [8, 32, 64, 128, 512])
@pytest.mark.parametrize("lead", [(1,), (3,), (2, 1), (2, 3)])
def test_direct_pocketfft_calls_match_scipy_fft_bitwise(cap, lead):
    # the stepper and synthesis call scipy's private pocketfft binding as
    # scipy.fft.ifft and fft(overwrite_x=True) do; a scipy that changes the
    # binding fails here
    from scipy.fft._pocketfft import pypocketfft

    num_points = padded_grid_size(cap)
    rng = np.random.default_rng(cap)
    shape = lead + (num_points,)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    inverse = pypocketfft.c2c(x, (-1,), False, 2, None, 1)
    assert inverse.tobytes() == sfft.ifft(x).tobytes()
    forward = x.copy()
    assert pypocketfft.c2c(forward, (-1,), True, 0, forward, 1) is forward
    assert forward.tobytes() == sfft.fft(x.copy(), overwrite_x=True).tobytes()
    coeffs = x[..., : 2 * cap + 1]
    spread = _spread_modes(coeffs, cap, np.zeros(shape, dtype=np.complex128))
    want = sfft.ifft(spread, overwrite_x=True) * num_points
    assert synthesis(coeffs, cap, num_points).tobytes() == want.tobytes()


def test_next_fast_len_matches_scipy():
    for target in (*range(1, 20001), 4 * J1_MAX_RADIUS + 1):
        assert _next_fast_len(target, (2, 3, 5, 7, 11)) == sfft.next_fast_len(target)
        assert _next_fast_len(target, (2, 3, 5)) == sfft.next_fast_len(target, real=True)
