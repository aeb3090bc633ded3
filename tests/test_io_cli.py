"""Serialization round trips, the command-line surface and the package exports."""

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import mkdvlab
import mkdvlab.io
from conftest import random_state, state_to_json_text
from mkdvlab.cli import main
from mkdvlab.dynamics import EquationSpec, solve
from mkdvlab.errors import StabilityWarning
from mkdvlab.norms import NormSpec, fl_norm, mass, momentum
from mkdvlab.io import (
    canonical_json,
    fmt17,
    load_state,
    series_to_csv_text,
    state_from_csv_text,
    state_from_json_text,
    state_to_csv_text,
    trajectory_from_dir,
    trajectory_to_dir,
)
from mkdvlab.presets import preset_state
from mkdvlab.spectral import FourierState


def run_cli(*args):
    try:
        main(list(args))
    except SystemExit as exc:
        return int(exc.code)
    return 0


# ------------------------------------------------------------ serialization

def test_fmt17_round_trips_float64():
    for value in (1 / 3, 0.1, -1e-300, 2**-52, 1e17 + 1.0, -0.0, 126.0):
        assert float(fmt17(value)) == value


def test_canonical_json_is_deterministic_and_sorted():
    payload = {"b": 1.5, "a": [True, False, None, 3], "c": {"z": np.float64(0.25)}}
    text = canonical_json(payload)
    assert text == canonical_json(dict(reversed(list(payload.items()))))
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert json.loads(text) == {
        "a": [True, False, None, 3],
        "b": 1.5,
        "c": {"z": 0.25},
    }
    assert text.endswith("\n")


def test_canonical_json_numpy_scalars():
    text = canonical_json(
        {"i": np.int64(7), "f": np.float64(1 / 3), "t": np.bool_(True)}
    )
    assert json.loads(text) == {"i": 7, "f": 1 / 3, "t": True}


def test_canonical_json_rejects_bad_values():
    with pytest.raises(ValueError):
        canonical_json({"x": float("inf")})
    with pytest.raises(TypeError):
        canonical_json({"x": object()})
    with pytest.raises(TypeError):
        canonical_json({1: "non-string key"})


def test_state_csv_round_trip_exact():
    state = random_state(6, seed=4).with_(time=0.125)
    text = state_to_csv_text(state)
    assert text.splitlines()[0] == "n,re,im"
    back = state_from_csv_text(text, time=0.125)
    assert back.mode_cap == 6
    assert np.array_equal(back.coeffs, state.coeffs)


def test_state_csv_validation():
    with pytest.raises(ValueError):
        state_from_csv_text("wrong,header\n0,1,0\n")
    # mode 1 missing
    with pytest.raises(ValueError):
        state_from_csv_text("n,re,im\n-1,1,0\n0,1,0\n")
    # duplicate mode
    with pytest.raises(ValueError):
        state_from_csv_text("n,re,im\n0,1,0\n0,2,0\n")


def per_row_csv_text(state):
    """The state CSV as one f-string per row, the writer's reference layout."""
    lines = ["n,re,im"]
    for n, value in zip(state.modes, state.coeffs):
        lines.append(f"{int(n)},{fmt17(value.real)},{fmt17(value.imag)}")
    return "\n".join(lines) + "\n"


def test_state_csv_text_matches_per_row_writer():
    edges = [0.0, -0.0, 5e-324, -1e308, np.inf, -np.inf, np.nan, 1 / 3, -2.5e-17, 126.0]
    for cap in (0, 1, 7, 64, 200):
        parts = np.random.default_rng(cap).standard_normal(2 * (2 * cap + 1))
        parts[: len(edges)] = edges[: parts.size]
        state = FourierState(parts.view(np.complex128), cap)
        assert state_to_csv_text(state) == per_row_csv_text(state)


def test_state_csv_written_text_skips_the_line_reader(monkeypatch):
    def refuse(*args):
        raise AssertionError("the writer's own layout went to the line reader")

    state = random_state(64, seed=3)
    text = state_to_csv_text(state)
    monkeypatch.setattr(mkdvlab.io, "_state_from_csv_lines", refuse)
    assert np.array_equal(state_from_csv_text(text).coeffs, state.coeffs)
    # signed zeros and infinities too, each part kept as written
    edges = FourierState(np.array([-0.0, 0.0, 1.0, np.inf, 0.0, -0.0, -np.inf, -0.0,
                                   np.nan, 2.5]).view(np.complex128), 2)
    back = state_from_csv_text(state_to_csv_text(edges))
    assert back.coeffs.tobytes() == edges.coeffs.tobytes()


def test_state_json_round_trip_exact():
    state = random_state(5, seed=9).with_(time=2.5)
    back = state_from_json_text(state_to_json_text(state))
    assert back.mode_cap == 5
    assert back.time == 2.5
    assert np.array_equal(back.coeffs, state.coeffs)


def test_state_json_keeps_signed_zeros():
    # -0.0 is written as -0, which JSON reads as the integer 0
    parts = np.array([-0.0, 0.0, 1.0, -0.0, 0.0, -0.0, -0.0, -0.0, -3.0, 0.0])
    state = FourierState(parts.view(np.complex128), 2, -0.0)
    text = state_to_json_text(state)
    assert '"time": -0' in text
    back = state_from_json_text(text)
    assert back.coeffs.tobytes() == state.coeffs.tobytes()
    assert math.copysign(1.0, back.time) == -1.0 and back.mode_cap == 2


def test_load_state_dispatches_on_suffix(tmp_path):
    state = random_state(4, seed=2)
    csv_path = tmp_path / "s.csv"
    json_path = tmp_path / "s.json"
    csv_path.write_text(state_to_csv_text(state))
    json_path.write_text(state_to_json_text(state))
    assert np.array_equal(load_state(csv_path).coeffs, state.coeffs)
    assert np.array_equal(load_state(json_path).coeffs, state.coeffs)


def test_series_csv_shape():
    text = series_to_csv_text("t", "value", [(0.0, 1.0), (0.5, 0.25)])
    lines = text.splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 3
    assert float(lines[2].split(",")[1]) == 0.25


def test_trajectory_dir_round_trip(tmp_path):
    state = preset_state(8, "random_smooth:1.5,1")
    traj = solve(state, EquationSpec("mkdv2", -1), 1e-3, 0.01, save_every=5)
    out = tmp_path / "traj"
    trajectory_to_dir(traj, out, extra_manifest={"note": "round trip"})
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kind"] == "trajectory"
    assert manifest["note"] == "round trip"
    back = trajectory_from_dir(out)
    assert back.equation == traj.equation
    assert len(back) == len(traj)
    for orig, restored in zip(traj.states, back.states):
        assert np.array_equal(orig.coeffs, restored.coeffs)
        assert restored.time == pytest.approx(orig.time, abs=1e-15)


# -------------------------------------------------------------------- cli

def test_cli_solve_gauge_invert_cycle(tmp_path):
    traj_dir = tmp_path / "run"
    code = run_cli(
        "solve",
        "--eq", "mkdv",
        "--modes", "8",
        "--dt", "1e-3",
        "--T", "0.01",
        "--ic", "random_smooth:1.5,0",
        "--save-every", "5",
        "--out", str(traj_dir),
    )
    assert code == 0
    assert (traj_dir / "states" / "state_000000.csv").exists()

    gauged_dir = tmp_path / "g1"
    assert run_cli(
        "gauge", "--traj", str(traj_dir), "--which", "G1", "--out", str(gauged_dir)
    ) == 0
    restored_dir = tmp_path / "back"
    assert run_cli(
        "gauge", "--traj", str(gauged_dir), "--invert", "--out", str(restored_dir)
    ) == 0
    original = trajectory_from_dir(traj_dir)
    restored = trajectory_from_dir(restored_dir)
    for a, b in zip(original.states, restored.states):
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-15


def test_cli_norms_csv_and_json(tmp_path, capsys):
    state = preset_state(6, "plane_wave:5,1,0.5")
    state_path = tmp_path / "state.csv"
    state_path.write_text(state_to_csv_text(state))
    out_path = tmp_path / "norms.json"
    code = run_cli(
        "norms",
        "--state", str(state_path),
        "--s", "0.5",
        "--p", "2,4",
        "--out", str(out_path),
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "s,p,fl_norm"
    assert len(lines) == 3
    payload = json.loads(out_path.read_text())
    assert payload["mass"] == pytest.approx(0.2)
    assert payload["norms"][0]["value"] == pytest.approx(
        (26.0 ** 0.25) * 5.0 ** -0.5, rel=1e-12
    )
    # p = inf is the sup norm; JSON has no infinity, so p is written as text
    code = run_cli(
        "norms", "--state", str(state_path), "--s", "0.5", "--p", "inf",
        "--out", str(out_path),
    )
    assert code == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row.startswith("0.5,inf,")
    payload = json.loads(out_path.read_text())
    assert payload["norms"] == [
        {"s": 0.5, "p": "inf", "value": float(row.split(",")[2])}
    ]


def test_cli_config_file_and_flag_precedence(tmp_path, capsys):
    config = tmp_path / "solve.cfg"
    config.write_text(
        "# comment line\n"
        "eq = mkdv2\n"
        "modes = 8\n"
        "dt = 1e-3\n"
        "T = 0.01\n"
        "ic = plane_wave:2,1,0\n"
    )
    out_dir = tmp_path / "out"
    code = run_cli(
        "solve", "--config", str(config), "--T", "0.005", "--out", str(out_dir)
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["T"] == "0.005"  # flag beats file
    assert manifest["config"]["eq"] == "mkdv2"


def test_cli_rejects_malformed_config(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("eq mkdv\n")
    assert run_cli("solve", "--config", str(bad), "--out", "x") == 1
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("contrast = high\n")
    assert run_cli("solve", "--config", str(unknown), "--out", "x") == 1


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    # usage error: missing required ic
    assert run_cli(
        "solve", "--eq", "mkdv", "--out", str(tmp_path / "a")
    ) == 1
    # unknown experiment name
    assert run_cli("experiment", "nope", "--out", str(tmp_path / "b")) == 1
    # unknown config key
    assert run_cli(
        "experiment", "apriori_probe", "--set", "bogus=1",
        "--out", str(tmp_path / "c"),
    ) == 1
    # numerical abort from an unstable step
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        code = run_cli(
            "solve",
            "--eq", "mkdv",
            "--modes", "8",
            "--dt", "0.1",
            "--T", "1.0",
            "--ic", "plane_wave:1,40,0",
            "--out", str(tmp_path / "d"),
        )
    assert code == 2
    # the partial trajectory and the diagnostic are kept
    assert (tmp_path / "d" / "states" / "state_000000.csv").exists()
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert "mass drifted" in manifest["abort"]
    capsys.readouterr()
    # missing input paths: a one-line error, no traceback
    for argv in (
        ("gauge", "--traj", str(tmp_path / "nowhere"), "--out", str(tmp_path / "e")),
        ("norms", "--state", str(tmp_path / "nowhere.csv")),
    ):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert "nowhere" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
    # a regular file where a directory is wanted, or a directory where a
    # file is: a used --out is refused before any work starts, and an input
    # gives one line naming it
    a_file = tmp_path / "a_file"
    a_file.write_text("")

    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(mkdvlab.dynamics, "solve", no_work)
    monkeypatch.setattr(mkdvlab.cli, "run_experiment", no_work)
    for argv, named in (
        (("solve", "--ic", "zero", "--out", str(a_file)), a_file),
        (("solve", "--ic", "zero", "--out", str(a_file / "sub")), a_file),
        (("experiment", "conservation", "--out", str(a_file)), a_file),
        (("gauge", "--traj", str(tmp_path / "d"), "--out", str(a_file)), a_file),
        (("gauge", "--traj", str(a_file), "--out", str(tmp_path / "e")), a_file),
        (("norms", "--state", str(tmp_path)), tmp_path),
        (("norms", "--state", str(a_file / "state.csv")), a_file),
    ):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert str(named) in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
    monkeypatch.undo()
    assert a_file.read_text() == ""
    # manifests with a gauge record missing its sign or with metadata that is
    # not an object, one without dt, a JSON state without mode_cap: one line
    # naming the file and the field, no traceback
    for name, metadata in (("g", {"gauges": [{"which": "G1"}]}), ("h", [1, 2])):
        shutil.copytree(tmp_path / "d", tmp_path / name)
        (tmp_path / name / "manifest.json").write_text(
            json.dumps({**manifest, "metadata": metadata}))
    # a non-finite or non-positive step, a non-finite start time, state
    # counts that are not integers, gauge records with a non-finite scalar
    # (json writes NaN and Infinity) and signs that are not JSON integers
    def gauge(sign, scalar):
        return {"gauges": [{"which": "G1", "sign": sign, "scalar": scalar}]}

    bad_manifests = (("k", "dt", float("nan")), ("l", "dt", -0.001),
                     ("m", "t0", float("inf")),
                     ("n", "num_states", 3.7), ("o", "num_states", True),
                     ("p", "metadata", gauge(1, float("nan"))),
                     ("q", "metadata", gauge(1, float("inf"))),
                     ("r", "equation", {"variant": "mkdv", "sign": 1.5}),
                     ("s", "equation", {"variant": "mkdv", "sign": True}),
                     ("t", "metadata", gauge("-1", 0.25)))
    for name, field, value in bad_manifests:
        shutil.copytree(tmp_path / "d", tmp_path / name)
        (tmp_path / name / "manifest.json").write_text(
            json.dumps({**manifest, field: value}))
    del manifest["dt"]
    (tmp_path / "d" / "manifest.json").write_text(json.dumps(manifest))
    state_path = tmp_path / "st.json"
    payload = json.loads(state_to_json_text(preset_state(4, "plane_wave:2,1,0")))
    # JSON states with a fractional or boolean mode_cap, a fractional mode, a
    # repeated mode and a non-finite time (json writes NaN and Infinity)
    bad_states = []
    for name, field, change in (
        ("cap_frac", "mode_cap", {"mode_cap": 4.5}),
        ("cap_bool", "mode_cap", {"mode_cap": True}),
        ("mode_frac", "coeffs", {"coeffs": [[1.6, 1.0, 0.0]]}),
        ("mode_twice", "coeffs", {"coeffs": [[2, 1.0, 0.0], [2, 0.5, 0.0]]}),
        ("time_nan", "time", {"time": float("nan")}),
        ("time_inf", "time", {"time": float("inf")}),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**payload, **change}))
        bad_states.append((("norms", "--state", str(path)), path, field))
    del payload["mode_cap"]
    state_path.write_text(json.dumps(payload))
    for argv, path, field in (
        (("gauge", "--traj", str(tmp_path / "d"), "--out", str(tmp_path / "f")),
         tmp_path / "d" / "manifest.json", "dt"),
        (("norms", "--state", str(state_path)), state_path, "mode_cap"),
        (("gauge", "--traj", str(tmp_path / "g"), "--invert",
          "--out", str(tmp_path / "i")), tmp_path / "g" / "manifest.json", "metadata"),
        (("gauge", "--traj", str(tmp_path / "h"), "--which", "G1",
          "--out", str(tmp_path / "j")), tmp_path / "h" / "manifest.json", "metadata"),
        *((("gauge", "--traj", str(tmp_path / name), "--out", str(tmp_path / f"{name}_out")),
           tmp_path / name / "manifest.json", field) for name, field, _ in bad_manifests),
        *bad_states,
    ):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid value: ")
        assert str(path) in err and f"'{field}'" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
    assert not any((tmp_path / f"{name}_out").exists() for name, _, _ in bad_manifests)


def test_cli_names_a_malformed_state_file(tmp_path, capsys):
    solved = tmp_path / "s"
    assert run_cli("solve", "--modes", "4", "--ic", "random_smooth:1.5,0",
                   "--T", "0.0003", "--out", str(solved)) == 0
    first, second = (solved / "states" / f"state_00000{k}.csv" for k in (1, 2))
    # a non-integer mode on line 3 of one state file, a bad header in the next
    original = first.read_text()
    lines = original.splitlines()
    lines[2] = "abc," + lines[2].split(",", 1)[1]
    first.write_text("\n".join(lines) + "\n")
    second.write_text("wrong,header\n" + second.read_text().split("\n", 1)[1])
    row_error = f"{first}:3: bad row 'abc,"
    header_error = f"{second}: must start with header 'n,re,im'"
    gauge = ("gauge", "--traj", str(solved), "--out", str(tmp_path / "g"))

    def assert_one_line_naming(argv, named):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid value: ") and named in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    assert_one_line_naming(("norms", "--state", str(first)), row_error)
    assert_one_line_naming(("norms", "--state", str(second)), header_error)
    assert_one_line_naming(gauge, row_error)  # the states are read in order
    first.write_text(original)
    assert_one_line_naming(gauge, header_error)


def test_cli_gauge_g2_and_pretty_norms(tmp_path, capsys):
    solved, gauged = tmp_path / "s", tmp_path / "g2"
    assert run_cli("solve", "--eq", "mkdv1", "--modes", "6", "--dt", "1e-3",
                   "--T", "0.004", "--ic", "random_smooth:1.5,2",
                   "--out", str(solved)) == 0
    assert run_cli("gauge", "--traj", str(solved), "--which", "G2",
                   "--out", str(gauged)) == 0
    original, result = trajectory_from_dir(solved), trajectory_from_dir(gauged)
    assert result.equation == EquationSpec("mkdv2", 1)
    [record] = result.metadata["gauges"]
    assert record == {"which": "G2", "sign": 1, "scalar": momentum(original.initial)}
    for before, after in zip(original.states, result.states):
        phase = np.exp(-1j * record["scalar"] * before.time)
        assert np.max(np.abs(after.coeffs - phase * before.coeffs)) < 1e-15
    capsys.readouterr()
    last = gauged / "states" / "state_000004.csv"
    assert run_cli("norms", "--state", str(last), "--s", "0,1", "--pretty") == 0
    lines = capsys.readouterr().out.splitlines()
    state = load_state(last)
    assert lines == [
        f"mass     = {mass(state):.12g}",
        f"momentum = {momentum(state):.12g}",
        f"FL^(0,2)  {fl_norm(state, NormSpec(0.0, 2.0)):.12g}",
        f"FL^(1,2)  {fl_norm(state, NormSpec(1.0, 2.0)):.12g}",
    ]


# (argv, part of the error): each is refused with exit code 1; {tmp} is the
# test's directory, where eq.cfg holds the line "=3", invert.cfg the line
# "invert = treu", which.cfg the line "which = G1", and g1 a G1 trajectory
REJECTED = [
    (("experiment", "multiplier_probe", "--set", "radii", "--out", "{tmp}/o"),
     "config error: --set expects key=value, got 'radii'"),
    (("solve", "--config", "{tmp}/eq.cfg", "--out", "{tmp}/o"), "eq.cfg:1: empty key"),
    (("solve", "--bogus", "1"), "No such option"),
    (("solve", "--ic", "nope", "--out", "{tmp}/o"), "unknown ic preset 'nope'"),
    (("solve", "--ic", "plane_wave:1,2", "--out", "{tmp}/o"),
     "ic preset plane_wave takes 3 arguments, got 2"),
    (("solve", "--modes", "4", "--ic", "plane_wave:5,1,0", "--out", "{tmp}/o"),
     "plane_wave mode 5 exceeds mode_cap 4"),
    (("solve", "--ic", "gaussian_bump:0,1", "--out", "{tmp}/o"),
     "gaussian_bump width must be positive"),
    (("solve", "--ic", "random_smooth:1.5,-1", "--out", "{tmp}/o"),
     "random_smooth seed must be a nonnegative integer"),
    (("solve", "--ic", "gaussian_bump:1,nan", "--out", "{tmp}/o"),
     "config error: non-finite ic preset argument in 'gaussian_bump:1,nan'"),
    (("gauge", "--traj", "{tmp}/g1", "--invert", "--which", "G2", "--sign", "-1",
      "--out", "{tmp}/o"),
     "config error: 'invert' undoes the recorded gauge; drop 'which' and 'sign'"),
    (("gauge", "--config", "{tmp}/which.cfg", "--traj", "{tmp}/g1", "--invert",
      "--out", "{tmp}/o"),
     "config error: 'invert' undoes the recorded gauge; drop 'which' and 'sign'"),
    (("gauge", "--config", "{tmp}/invert.cfg", "--traj", "{tmp}/g1", "--out", "{tmp}/o"),
     "config error: 'invert' must be one of true, 1, yes, false, 0, no, got 'treu'"),
]


@pytest.mark.parametrize("argv, message", REJECTED)
def test_cli_rejections_exit_one(tmp_path, capsys, argv, message):
    (tmp_path / "eq.cfg").write_text("=3\n")
    (tmp_path / "invert.cfg").write_text("invert = treu\n")
    (tmp_path / "which.cfg").write_text("which = G1\n")
    if "{tmp}/g1" in argv:
        solved = str(tmp_path / "s")
        assert run_cli("solve", "--modes", "4", "--ic", "random_smooth:1.5,0",
                       "--T", "0.0003", "--out", solved) == 0
        assert run_cli("gauge", "--traj", solved, "--out", str(tmp_path / "g1")) == 0
        capsys.readouterr()
    assert run_cli(*(arg.format(tmp=tmp_path) for arg in argv)) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_cli_norms_rejects_exponent_below_one(tmp_path, capsys):
    state_path = tmp_path / "state.csv"
    state_path.write_text(state_to_csv_text(preset_state(6, "plane_wave:5,1,0.5")))
    assert run_cli("norms", "--state", str(state_path), "--p", "inf,0.5") == 1
    assert "config error: 'p' must be at least 1" in capsys.readouterr().err
    assert run_cli("norms", "--state", str(state_path), "--s", "nan,inf") == 1
    assert "config error: 's' must be finite, got nan" in capsys.readouterr().err


def _assert_refused(argv, out, capsys):
    """A second run into ``out`` exits 1 naming it and changes no file."""
    before = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(out) in err
    after = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
    assert after == before


def test_cli_solve_refuses_a_used_out(tmp_path, capsys):
    out = tmp_path / "s"
    solve = ["solve", "--modes", "8", "--ic", "random_smooth:1.5,0", "--out", str(out)]
    assert run_cli(*solve, "--T", "0.002") == 0
    assert len(list((out / "states").iterdir())) == 21
    _assert_refused(solve + ["--T", "0.001"], out, capsys)


def test_cli_gauge_refuses_a_used_out(tmp_path, capsys):
    solved, out = tmp_path / "s", tmp_path / "g"
    assert run_cli("solve", "--modes", "8", "--ic", "random_smooth:1.5,0",
                   "--T", "0.001", "--out", str(solved)) == 0
    gauge = ["gauge", "--traj", str(solved), "--out", str(out)]
    assert run_cli(*gauge, "--which", "G1") == 0
    _assert_refused(gauge + ["--which", "G2"], out, capsys)


def test_cli_experiment_refuses_a_used_out(tmp_path, capsys):
    out = tmp_path / "report"
    sets = ["--set", "modes=8", "--set", "dt=1e-3", "--set", "T=0.01",
            "--set", "save_every=5"]
    experiment = ["experiment", "conservation", *sets, "--out", str(out)]
    assert run_cli(*experiment, "--set", "variants=mkdv") == 0
    _assert_refused(experiment + ["--set", "variants=mkdv1"], out, capsys)
    assert sorted(path.name for path in (out / "series").iterdir()) == [
        "mkdv_fl_half_2.csv", "mkdv_mass.csv", "mkdv_momentum.csv",
    ]


def test_cli_experiment_report_and_verdict_exit(tmp_path, capsys):
    out_good = tmp_path / "good"
    code = run_cli(
        "experiment", "random_momentum",
        "--set", "samples=400", "--set", "n_max=50",
        "--out", str(out_good),
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "PASS second_moment_matches" in stdout
    assert (out_good / "report.json").exists()
    assert (out_good / "series" / "running_second_moment.csv").exists()
    manifest = json.loads((out_good / "manifest.json").read_text())
    assert manifest["all_passed"] is True

    out_bad = tmp_path / "bad"
    code = run_cli(
        "experiment", "random_momentum",
        "--set", "samples=400", "--set", "n_max=50",
        "--set", "se_factor=0.001",
        "--out", str(out_bad),
    )
    assert code == 3
    # the report is still written before the failing exit
    report = json.loads((out_bad / "report.json").read_text())
    assert report["all_passed"] is False


def test_package_exports_resolve_once():
    names = mkdvlab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(mkdvlab, name), name


# Runs each step of argv[1] in order, a Python statement or CLI arguments,
# and prints one JSON line: per step, its exit code and the scipy modules
# loaded by then.
STARTUP_PROBE = """
import json, sys

def run(step):
    if isinstance(step, str):
        exec(step, {})
        return 0
    from mkdvlab.cli import main
    try:
        main(step)
    except SystemExit as exc:
        return exc.code
    return 0

report = []
for step in json.loads(sys.argv[1]):
    code = run(step)
    report.append([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])
print(json.dumps(report))
"""


def fresh_interpreter_steps(steps):
    """[(exit code, scipy modules loaded after it)] for each step, run in order
    in one fresh interpreter."""
    src = str(pathlib.Path(mkdvlab.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", STARTUP_PROBE, json.dumps(steps)],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    return [tuple(step) for step in json.loads(done.stdout.splitlines()[-1])]


def test_only_stepping_loads_scipy(tmp_path):
    traj = tmp_path / "solved"
    assert run_cli("solve", "--modes", "8", "--ic", "random_smooth:1.5,0", "--T", "0.002",
                   "--save-every", "1", "--out", str(traj)) == 0
    probe = ["experiment", "multiplier_probe", "--set", "pairs=0.5:2", "--set", "n_list=0,4",
             "--set", "radii=8,16,32", "--set", "stab_tol=1.0"]
    steps = [
        "import mkdvlab",
        "import mkdvlab.cli",
        ["gauge", "--traj", str(traj), "--which", "G1", "--out", str(tmp_path / "g1")],
        ["gauge", "--traj", str(tmp_path / "g1"), "--invert", "--out", str(tmp_path / "back")],
        ["norms", "--state", str(tmp_path / "back" / "states" / "state_000002.csv"),
         "--p", "2,inf"],
        [*probe, "--out", str(tmp_path / "probe")],
        [*probe, "--set", "bogus=1", "--out", str(tmp_path / "refused")],
    ]
    outcomes = fresh_interpreter_steps(steps + [
        ["solve", "--modes", "8", "--ic", "random_smooth:1.5,0", "--T", "0.002",
         "--out", str(tmp_path / "again")],
    ])
    assert outcomes[: len(steps)] == [(0, [])] * (len(steps) - 1) + [(1, [])]
    code, loaded = outcomes[-1]
    assert code == 0 and "scipy.fft" in loaded


def test_forked_solves_inherit_scipy():
    # with two CPUs, the parent only forks and collects; it loads scipy.fft
    # itself, so that the workers inherit it
    job = "(preset_state(8, 'random_smooth:1.2,1'), EquationSpec('mkdv', 1), 1e-3, 0.002)"
    outcomes = fresh_interpreter_steps([
        "import os; os.sched_getaffinity = lambda pid: {0, 1}",
        "from mkdvlab.dynamics import EquationSpec, _solve_each; "
        "from mkdvlab.presets import preset_state; "
        f"assert len(_solve_each([{job}, {job}])) == 2",
    ])
    assert "scipy.fft" in outcomes[-1][1]
