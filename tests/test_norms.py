"""Norm functionals, mass and momentum, and their frozen oracle values."""

import numpy as np
import pytest

from conftest import REDUCED_NONEXISTENCE, stdout_per_blas_thread_count
from mkdvlab.experiments import run_experiment
from mkdvlab.norms import NormSpec, fl_norm, japanese_bracket, mass, momentum, raised_cosine
from mkdvlab.presets import preset_state
from mkdvlab.spectral import FourierState, project_low, state_from_modes

# Frozen oracle values.  Single mode n=5 with unit amplitude:
# <5> = sqrt(26), so FL^(1/2,2) = 26^(1/4).  The one-sided partial sum
# was evaluated once as sum(n**-0.8 for n in 1..100) and pinned.
FL_SINGLE_MODE_5 = 2.2581008643532257
ONE_SIDED_SUM_100 = 8.13443642804101


def test_japanese_bracket_values():
    assert japanese_bracket(0) == 1.0
    assert japanese_bracket(1) == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert japanese_bracket(-3) == japanese_bracket(3)
    arr = japanese_bracket([0, 5])
    assert arr[1] == pytest.approx(np.sqrt(26.0), rel=1e-15)


def test_fl_norm_frozen_single_mode():
    state = state_from_modes(8, {5: 1.0})
    assert fl_norm(state, NormSpec(0.5, 2.0)) == pytest.approx(
        FL_SINGLE_MODE_5, rel=1e-14
    )


def test_fl_norm_frozen_one_sided_partial_sum():
    state = preset_state(100, "one_sided:0.8")
    assert fl_norm(state, NormSpec(0.0, 1.0)) == pytest.approx(
        ONE_SIDED_SUM_100, rel=1e-13
    )


def test_fl_norm_flavors_consistent():
    state = state_from_modes(3, {-2: 3.0, 1: 4.0j})
    assert fl_norm(state, NormSpec(0.0, 1.0)) == pytest.approx(7.0, rel=1e-15)
    assert fl_norm(state, NormSpec(0.0, 2.0)) == pytest.approx(5.0, rel=1e-15)
    assert fl_norm(state, NormSpec(0.0, np.inf)) == pytest.approx(4.0, rel=1e-15)
    # p=4 by hand: (3^4 + 4^4)^(1/4)
    assert fl_norm(state, NormSpec(0.0, 4.0)) == pytest.approx(
        (81.0 + 256.0) ** 0.25, rel=1e-15
    )
    # p = 1 is the plain weighted sum, bit for bit
    state = state_from_modes(5, {n: (0.3 - 1.1j) * (n + 0.7) for n in range(-5, 6)})
    weights = japanese_bracket(state.modes) ** 0.75
    assert fl_norm(state, NormSpec(0.75, 1.0)) == float(np.sum(weights * abs(state.coeffs)))


def test_norm_spec_rejects_bad_exponent():
    with pytest.raises(ValueError):
        NormSpec(0.0, 0.5)
    with pytest.raises(ValueError):
        NormSpec(0.0, float("nan"))


def test_mass_and_momentum_by_hand():
    state = state_from_modes(4, {3: 2.0, -1: 1.0j})
    assert mass(state) == pytest.approx(5.0, rel=1e-15)
    assert momentum(state) == pytest.approx(3 * 4.0 - 1 * 1.0, rel=1e-15)


def test_mass_does_not_depend_on_blas_threads():
    # at M = 8192 a threaded BLAS dot product sums in another order with two
    # OpenBLAS threads than with one; the numpy reduction gives one repr
    outputs = stdout_per_blas_thread_count(
        "import numpy as np\n"
        "from mkdvlab.norms import mass\n"
        "from mkdvlab.presets import preset_state\n"
        "from mkdvlab.spectral import FourierState\n"
        "rng = np.random.default_rng(8192)\n"
        "coeffs = rng.standard_normal(16385) + 1j * rng.standard_normal(16385)\n"
        "print(repr(mass(preset_state(8192, 'gaussian_bump:3000,1'))),\n"
        "      repr(mass(FourierState(coeffs, 8192))))\n")
    rng = np.random.default_rng(8192)
    coeffs = rng.standard_normal(16385) + 1j * rng.standard_normal(16385)
    expected = (f"{mass(preset_state(8192, 'gaussian_bump:3000,1'))!r} "
                f"{mass(FourierState(coeffs, 8192))!r}\n")
    assert outputs[0] == outputs[1] == expected


def test_momentum_sign_indefinite():
    plus = state_from_modes(2, {1: 1.0})
    minus = state_from_modes(2, {-1: 1.0})
    assert momentum(plus) == 1.0
    assert momentum(minus) == -1.0


@pytest.fixture(scope="module")
def one_sided_momenta():
    """(momentum_rule, momentum_data) of a reduced nonexistence run on the
    one-sided n^-0.9 data, as {N: P_N}; the states are capped at 32."""
    config = {**REDUCED_NONEXISTENCE, "mom_schedule": "4,8,16,32,64,128,256"}
    report = run_experiment("nonexistence", config)
    return tuple(dict(report.series[name].rows) for name in ("momentum_rule", "momentum_data"))


def test_truncated_momentum_state_and_rule_agree(one_sided_momenta):
    rule, data = one_sided_momenta
    assert list(data) == [4, 8, 16]
    for cutoff, p_state in data.items():
        assert p_state == pytest.approx(rule[cutoff], rel=1e-14), cutoff
    # beyond the cap the state has no modes; the rule keeps summing
    state = preset_state(64, "one_sided:0.9")
    assert momentum(project_low(state, 128)) == pytest.approx(momentum(state), rel=1e-15)
    assert rule[128] > rule[64]


# P_N = sum_{n<=N} n^(1-1.8) for the one-sided n^-0.9 data, pinned once.
ONE_SIDED_MOMENTA = {32: 5.593581, 64: 7.067356, 128: 8.767839, 256: 10.725545}


def test_truncated_momentum_frozen_table(one_sided_momenta):
    rule, _ = one_sided_momenta
    assert {N: rule[N] for N in ONE_SIDED_MOMENTA} == pytest.approx(ONE_SIDED_MOMENTA, abs=5e-7)


def test_raised_cosine_window():
    assert raised_cosine(0.0, 2.0) == 0.0
    assert raised_cosine(2.0, 2.0) == pytest.approx(0.0, abs=1e-15)
    assert raised_cosine(1.0, 2.0) == 1.0
    assert raised_cosine(-0.1, 2.0) == 0.0
    assert raised_cosine(2.1, 2.0) == 0.0
    values = raised_cosine(np.linspace(0, 2, 9), 2.0)
    assert values.max() <= 1.0 and values.min() >= 0.0
