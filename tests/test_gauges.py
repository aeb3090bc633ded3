"""Gauge maps: equation relabeling, inversion, and plane-wave algebra."""

import numpy as np
import pytest

from mkdvlab.dynamics import EquationSpec, Trajectory, solve
from mkdvlab.gauges import GaugeSpec, apply_gauge, invert_gauge
from mkdvlab.norms import NormSpec, fl_norm, mass, momentum
from mkdvlab.presets import preset_state
from mkdvlab.spectral import state_from_modes

from test_dynamics import exact_plane_wave


def last_gauge(trajectory):
    return GaugeSpec(**trajectory.metadata["gauges"][-1])


def smooth_trajectory(variant="mkdv", sign=1):
    state = preset_state(12, "random_smooth:1.4,6")
    return solve(state, EquationSpec(variant, sign), 5e-4, 0.05, save_every=20)


def test_gauge1_relabels_and_records():
    traj = smooth_trajectory()
    gauged = apply_gauge(traj, "G1")
    assert gauged.equation == EquationSpec("mkdv1", 1)
    record = last_gauge(gauged)
    assert record.which == "G1"
    assert record.sign == 1
    assert record.scalar == pytest.approx(mass(traj.initial))


def test_gauge2_relabels_and_records():
    gauged = apply_gauge(apply_gauge(smooth_trajectory(), "G1"), "G2")
    assert gauged.equation == EquationSpec("mkdv2", 1)
    record = last_gauge(gauged)
    assert record.which == "G2"
    assert len(gauged.metadata["gauges"]) == 2


def test_gauge2_is_global_phase():
    traj = smooth_trajectory("mkdv1")
    gauged = apply_gauge(traj, "G2")
    for before, after in zip(traj.states, gauged.states):
        # one unimodular scalar per slice: all weighted norms untouched
        for spec in (NormSpec(0.0, 2.0), NormSpec(0.5, 2.0), NormSpec(1.0, 3.0)):
            assert fl_norm(after, spec) == pytest.approx(
                fl_norm(before, spec), rel=1e-14
            )
        ratio = after.coeffs[before.coeffs != 0] / before.coeffs[before.coeffs != 0]
        assert np.max(np.abs(ratio - ratio[0])) < 1e-12
        assert abs(abs(ratio[0]) - 1.0) < 1e-14


def test_gauge1_mixes_nothing_at_t_zero():
    traj = smooth_trajectory()
    gauged = apply_gauge(traj, "G1")
    assert np.array_equal(gauged.states[0].coeffs, traj.states[0].coeffs)


def test_gauge_inversion_is_exact():
    traj = smooth_trajectory()
    once = apply_gauge(traj, "G1")
    back = invert_gauge(once)
    assert back.equation == traj.equation
    assert back.metadata["gauges"] == []
    for orig, restored in zip(traj.states, back.states):
        assert np.max(np.abs(orig.coeffs - restored.coeffs)) < 1e-15


def test_invert_refuses_a_spec_beside_the_record():
    # the record alone undoes a recorded gauge, even a spec equal to it is refused
    traj = apply_gauge(smooth_trajectory(), "G1")
    for spec in (last_gauge(traj), GaugeSpec("G2", 1, 0.0)):
        with pytest.raises(ValueError, match="^trajectory records its gauge"):
            invert_gauge(traj, spec)


def test_invert_without_record_fails():
    with pytest.raises(ValueError, match="^trajectory has no recorded gauge to invert$"):
        invert_gauge(smooth_trajectory())


def test_invert_reads_a_loaded_record():
    # a manifest's record may hold the sign as 1.0, and keys besides the three
    traj = smooth_trajectory()
    once = apply_gauge(traj, "G1")
    record = {**once.metadata["gauges"][-1], "sign": 1.0, "note": "loaded"}
    loaded = Trajectory(once.states, once.dt, once.equation, {"gauges": [record]})
    back = invert_gauge(loaded)
    assert back.equation == traj.equation
    for orig, restored in zip(traj.states, back.states):
        assert np.max(np.abs(orig.coeffs - restored.coeffs)) < 1e-15


def test_explicit_sign_conflict_rejected():
    traj = smooth_trajectory(sign=1)
    with pytest.raises(ValueError):
        apply_gauge(traj, "G1", sign=-1)
    with pytest.raises(ValueError):
        apply_gauge(traj, "G2", sign=3)


def test_gauge_spec_validation():
    with pytest.raises(ValueError):
        GaugeSpec("G3", 1, 0.0)
    with pytest.raises(ValueError):
        GaugeSpec("G1", 0, 0.0)
    # apply_gauge refuses an unknown gauge as GaugeSpec does
    with pytest.raises(ValueError, match="gauge must be G1 or G2, got 'G3'"):
        apply_gauge(smooth_trajectory(), "G3")


@pytest.mark.parametrize("sign", [1, -1])
def test_plane_wave_gauge_algebra(sign):
    # G1 moves the mkdv wave onto the free wave (the mkdv1 solution),
    # G2 then yields the mkdv2 closed form; checked against the solver
    cap, wave, amp, s = 8, 3, 1.5, 0.0
    start = exact_plane_wave("mkdv", sign, cap, wave, amp, s, 0.0)
    traj = solve(start, EquationSpec("mkdv", sign), 1e-3, 0.05, save_every=10)
    after_g1 = apply_gauge(traj, "G1")
    after_g2 = apply_gauge(after_g1, "G2")
    worst1 = worst2 = 0.0
    for st1, st2 in zip(after_g1.states, after_g2.states):
        exact1 = exact_plane_wave("mkdv1", sign, cap, wave, amp, s, st1.time)
        exact2 = exact_plane_wave("mkdv2", sign, cap, wave, amp, s, st2.time)
        worst1 = max(worst1, float(np.max(np.abs(st1.coeffs - exact1.coeffs))))
        worst2 = max(worst2, float(np.max(np.abs(st2.coeffs - exact2.coeffs))))
    assert worst1 < 1e-9
    assert worst2 < 1e-9


def test_gauge_scalars_frozen_from_initial_slice():
    # the recorded scalar is the t=0 momentum even if later slices differ
    states = [
        state_from_modes(4, {1: 1.0}, time=0.0),
        state_from_modes(4, {2: 1.0}, time=0.1),
    ]
    traj = Trajectory(tuple(states), 0.1, EquationSpec("mkdv1", 1), {})
    gauged = apply_gauge(traj, "G2")
    assert last_gauge(gauged).scalar == pytest.approx(momentum(states[0]))
