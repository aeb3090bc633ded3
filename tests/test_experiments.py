"""Experiment harness: config plumbing, verdicts, determinism, cheap smoke runs."""

import hashlib
import math
import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from mkdvlab import __version__, experiments
from mkdvlab.dynamics import (
    EquationSpec,
    _solve_each,
    phase_schedule,
    solve,
    stability_dt_limit,
)
from mkdvlab.errors import ConfigError, SolverAbort, StabilityWarning
from mkdvlab.experiments import (
    EXPERIMENTS,
    ExperimentReport,
    Series,
    VerdictRecord,
    _at_least,
    _at_most,
    _cutoff_ladder,
    _illposedness_frequency,
    _pseries_block_ratio,
    _stable_schedule,
    integer,
    number,
    parse_config,
    run_experiment,
    write_report,
)
from mkdvlab.gauges import GaugeSpec, invert_gauge
from mkdvlab.io import canonical_json
from mkdvlab.norms import mass, momentum
from mkdvlab.presets import preset_state
from mkdvlab.spectral import project_low


# ------------------------------------------------------------------ config

def test_parse_config_merges_and_rejects_unknown():
    schema = {"alpha": ("0.9", number), "modes": ("32", integer)}
    merged, opt = parse_config(schema, {"alpha": "1.1"})
    assert merged == {"alpha": "1.1", "modes": "32"}
    assert (opt.alpha, opt.modes) == (1.1, 32)
    with pytest.raises(ConfigError) as info:
        parse_config(schema, {"alhpa": "1.1"})
    assert "alhpa" in str(info.value)
    assert "alpha" in str(info.value)  # lists the valid keys


# (experiment, key, bad value): each rule reads that key alone, so its parser
# rejects the value before any experiment body runs
SINGLE_KEY_RULES = [
    ("nonexistence", "schedule", "32"),
    ("nonexistence", "control_schedule", "32"),
    ("nonexistence", "mom_schedule", "32,64,128"),
    ("nonexistence", "p", "0.5"),
    ("nonexistence", "cauchy_p", "0.5"),
    ("illposedness", "s", "0.5"),
    ("illposedness", "p", "0.5"),
    ("illposedness", "n_list", ""),
    ("illposedness", "n_list", "0,2"),
    ("random_momentum", "samples", "99"),
    ("energy_drift", "cutoffs", ""),
    ("energy_drift", "cutoffs", "0,8"),
    ("apriori_probe", "s", "0"),
    ("apriori_probe", "p", "1.5"),
    ("apriori_probe", "amplitudes", "1.0"),
    ("apriori_probe", "amplitudes", "-1.0,1.0"),
    ("gauge_equivalence", "norm_p", "0.5"),
    ("multiplier_probe", "n_list", ""),
    ("multiplier_probe", "n_list", "0,1048577"),
    ("multiplier_probe", "radii", "8,16"),
    ("multiplier_probe", "radii", "0,0,0"),
    ("multiplier_probe", "radii", "8,12,24"),
    ("multiplier_probe", "radii", "32768,65536,131072"),
    ("multiplier_probe", "pairs", "0.5:2,0.5:2"),
    ("conservation", "variants", "mkdv,mkdv"),
]


@pytest.mark.parametrize("name, key, bad", SINGLE_KEY_RULES)
def test_single_key_rules_live_in_the_schema(name, key, bad):
    with pytest.raises(ConfigError, match=f"'{key}'"):
        parse_config(EXPERIMENTS[name][0], {key: bad})


def test_run_experiment_unknown_name():
    with pytest.raises(ConfigError) as info:
        run_experiment("does_not_exist")
    assert "conservation" in str(info.value)


def test_malformed_numbers_are_reported():
    with pytest.raises(ConfigError):
        run_experiment("random_momentum", {"samples": "many"})
    with pytest.raises(ConfigError):
        run_experiment("conservation", {"dt": "fast"})
    with pytest.raises(ConfigError):
        run_experiment("conservation", {"sign": "0"})


def test_pseries_block_ratio_tracks_exponent():
    # dyadic block sums of n^-e scale like 2^(1-e)
    assert _pseries_block_ratio(0.8) == pytest.approx(2**0.2, abs=2e-3)
    assert _pseries_block_ratio(1.2) == pytest.approx(2**-0.2, abs=2e-3)
    assert _pseries_block_ratio(2.0) == pytest.approx(0.5, abs=2e-3)


def test_bound_verdicts_pass_exactly_at_their_threshold():
    opt = SimpleNamespace(tol=0.25)
    assert _at_most(opt, "small", 0.25, "tol") == VerdictRecord("small", True, 0.25, "tol")
    assert not _at_most(opt, "small", math.nextafter(0.25, 1.0), "tol").passed
    assert _at_least(opt, "big", 0.25, "tol", "why") == VerdictRecord(
        "big", True, 0.25, "tol", "why")
    assert not _at_least(opt, "big", math.nextafter(0.25, 0.0), "tol").passed


def test_stable_schedule_takes_the_smaller_step():
    state = preset_state(16, "one_sided:0.9")
    limit = stability_dt_limit(state)
    assert _stable_schedule(state, 0.1, 4, math.inf) == phase_schedule(0.1, limit, 4)
    assert _stable_schedule(state, 0.1, 4, limit / 3) == phase_schedule(0.1, limit / 3, 4)


@pytest.mark.parametrize("cpus", [1, 3])
def test_cutoff_ladder_is_solve_then_inverse_gauge(monkeypatch, cpus):
    # one _solve_each call for both arms: serial on one CPU, forked on three
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    calls = []
    monkeypatch.setattr(experiments, "_solve_each",
                        lambda jobs: calls.append(jobs) or _solve_each(jobs))
    arms = [(preset_state(16, "one_sided:0.9"), (4, 16)),
            (preset_state(8, "random_smooth:1.5,2"), (2, 8))]
    runs = _cutoff_ladder(arms, -1, 0.02, 4, math.inf)
    assert [len(jobs) for jobs in calls] == [4]
    assert [len(arm_runs) for arm_runs in runs] == [2, 2]
    for (u0, cutoffs), arm_runs in zip(arms, runs):
        for N, (trajectory, u_states, rate) in zip(cutoffs, arm_runs, strict=True):
            state = project_low(u0, N)
            dt, save_every = _stable_schedule(state, 0.02, 4, math.inf)
            expected = solve(state, EquationSpec("mkdv2", -1), dt, 0.02, save_every)
            undone = invert_gauge(expected, GaugeSpec("G2", -1, momentum(state))).states
            assert rate == momentum(state)
            assert trajectory.metadata == expected.metadata and len(trajectory) == 5
            for got, want in zip(trajectory.states + u_states,
                                 expected.states + undone, strict=True):
                assert got.time == want.time
                assert got.coeffs.tobytes() == want.coeffs.tobytes()


# ----------------------------------------------------------------- reports

def test_report_rejects_dangling_threshold_key():
    verdict = VerdictRecord("check", True, 0.0, "missing_key")
    with pytest.raises(ValueError):
        ExperimentReport("demo", {"tol": "1"}, {}, {}, (verdict,), {})


def test_report_dict_echoes_thresholds():
    verdict = VerdictRecord("check", False, "diverging", "tol", note="why")
    report = ExperimentReport(
        "demo",
        {"tol": "1e-6"},
        {"curve": Series("t", "y", ((0.0, 1.0),))},
        {"worst": 2.0},
        (verdict,),
        {"seed": "0"},
    )
    payload = report.to_dict()
    assert payload["all_passed"] is False
    entry = payload["verdicts"][0]
    assert entry["threshold_value"] == "1e-6"
    assert entry["observed"] == "diverging"
    assert payload["series"]["curve"]["rows"] == [[0.0, 1.0]]


def test_write_report_layout(tmp_path):
    report = run_experiment("random_momentum", {"samples": "300", "n_max": "40"})
    write_report(report, tmp_path)
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "series" / "running_second_moment.csv").exists()
    text = (tmp_path / "series" / "running_second_moment.csv").read_text()
    assert text.splitlines()[0] == "samples,mean_P_sq"


def test_run_experiment_assembles_the_report():
    cheap = (
        ("random_momentum", {"samples": "300", "n_max": "40", "seed": "7"}, "7"),
        ("multiplier_probe", {"n_list": "0", "radii": "8,16,32"}, "-"),  # no seed key
    )
    for name, overrides, seed in cheap:
        report = run_experiment(name, overrides)
        assert report.name == name
        assert report.provenance["seed"] == seed
        assert report.provenance["version"] == __version__
        echo = canonical_json({"experiment": name, "parameters": report.parameters})
        digest = hashlib.sha256(echo.encode()).hexdigest()
        assert report.provenance["config_digest"] == digest


def test_reports_are_byte_identical():
    config = {"samples": "300", "n_max": "40"}
    first = canonical_json(run_experiment("random_momentum", config).to_dict())
    second = canonical_json(run_experiment("random_momentum", config).to_dict())
    assert first == second


def test_registry_covers_all_experiments():
    assert set(EXPERIMENTS) == {
        "conservation",
        "gauge_equivalence",
        "nonexistence",
        "illposedness",
        "random_momentum",
        "energy_drift",
        "apriori_probe",
        "multiplier_probe",
    }
    for defaults, runner in EXPERIMENTS.values():
        assert isinstance(defaults, dict)
        assert callable(runner)


# -------------------------------------------------------------- smoke runs

def test_conservation_smoke():
    report = run_experiment(
        "conservation",
        {"modes": "8", "dt": "1e-3", "T": "0.05", "save_every": "10",
         "seeds": "0,1", "ic": "random_smooth:1.2345678,0"},
    )
    assert report.all_passed
    assert "mkdv2_mass_drift" in report.scalars
    assert set(report.series) >= {"mkdv_mass", "mkdv1_momentum", "mkdv2_fl_half_2"}
    # the seed sweep keeps the decay exactly as given, not rounded to 6 digits
    first_member = preset_state(8, "random_smooth:1.2345678,0")
    assert report.series["mkdv_mass"].rows[0][1] == mass(first_member)


def test_conservation_seeds_need_random_preset():
    with pytest.raises(ConfigError):
        run_experiment(
            "conservation",
            {"ic": "plane_wave:2,1,0", "seeds": "0,1", "T": "0.01", "dt": "1e-3",
             "save_every": "10"},
        )


def test_gauge_equivalence_smoke():
    report = run_experiment(
        "gauge_equivalence",
        {"modes": "8", "dt": "1e-3", "T": "0.05", "save_every": "10"},
    )
    assert report.all_passed
    assert report.scalars["sup_gauge1_gap"] < 1e-8
    assert set(report.series) == {"gauge1_gap", "gauge2_gap", "composed_gap"}


def test_illposedness_frequency_table():
    # minimal N and the separation time, pinned from the closed form
    expected = {2: (6, 0.418879), 4: (23, 0.242828), 8: (95, 0.124497),
                16: (390, 0.062490)}
    for n, (big_n, t_n) in expected.items():
        got_n, got_t = _illposedness_frequency(n, 0.0)
        assert got_n == big_n
        assert got_t == pytest.approx(t_n, abs=5e-7)
    assert _illposedness_frequency(2, 0.25)[0] == 26


def test_illposedness_smoke():
    report = run_experiment("illposedness", {"n_list": "2", "save_points": "4"})
    assert report.all_passed
    assert report.scalars["solver_agreement_max"] < 1e-8


def test_random_momentum_control_and_crosscheck():
    report = run_experiment("random_momentum", {"samples": "500", "n_max": "60"})
    assert report.all_passed
    assert report.scalars["crosscheck_gap"] < 1e-12
    assert report.scalars["control_momentum_max"] < 1e-12


def test_random_momentum_running_moment_ends_once_at_samples():
    # 400 samples is a multiple of the stride 2, 401 is not
    for samples in (400, 401):
        report = run_experiment(
            "random_momentum", {"samples": str(samples), "n_max": "40"}
        )
        counts = [x for x, _ in report.series["running_second_moment"].rows]
        assert all(b > a for a, b in zip(counts, counts[1:]))
        assert counts[-1] == samples


def test_random_momentum_rejects_tiny_sample():
    with pytest.raises(ConfigError):
        run_experiment("random_momentum", {"samples": "50"})
    with pytest.raises(ConfigError, match="seed"):
        run_experiment("random_momentum", {"seed": "-1"})


def test_energy_drift_smoke():
    report = run_experiment(
        "energy_drift",
        {"modes": "32", "cutoffs": "4,8,16", "dt": "1e-3", "T": "0.1",
         "save_every": "20"},
    )
    assert report.all_passed
    assert "drift_vs_cutoff" in report.series
    # drift must shrink as the cutoff grows
    values = [y for _, y in report.series["drift_vs_cutoff"].rows]
    assert values[-1] < values[0]


def test_energy_drift_below_noise_on_zero_data():
    report = run_experiment(
        "energy_drift",
        {"ic": "zero", "modes": "16", "cutoffs": "4,8", "dt": "1e-3", "T": "0.01",
         "save_every": "5"},
    )
    [verdict] = report.verdicts
    assert (verdict.passed, verdict.observed) == (True, "below noise")
    assert verdict.threshold_key == "noise_floor"
    assert "fitted_slope" not in report.scalars
    assert all(y == 0.0 for _, y in report.series["drift_vs_cutoff"].rows)


def test_energy_drift_rejects_cutoff_at_cap():
    with pytest.raises(ConfigError):
        run_experiment("energy_drift", {"modes": "16", "cutoffs": "8,16"})


def test_apriori_smoke():
    report = run_experiment(
        "apriori_probe",
        {"modes": "16", "amplitudes": "0.5,1.0", "dt": "1e-3", "T": "0.05",
         "save_every": "10"},
    )
    assert report.all_passed
    assert "ratio_vs_amplitude" in report.series
    # amplitudes that agree to 6 digits still get one series and scalar each
    close = run_experiment(
        "apriori_probe",
        {"modes": "16", "amplitudes": "1.0000001,1.0000002", "dt": "1e-3",
         "T": "0.05", "save_every": "10"},
    )
    assert len([k for k in close.series if k.startswith("norm_t_a")]) == 2
    assert len([k for k in close.scalars if k.startswith("ratio_a")]) == 2


def test_conservation_raises_the_first_aborting_members_abort():
    # at this dt mkdv1 blows up in step 99, mkdv2 in step 57 and mkdv in
    # step 1; the serial loop raised the first member's abort, and so does
    # the batch, although a later member aborts sooner
    ic = "gaussian_bump:2,2.5,1"
    settings = {"variants": "mkdv1,mkdv2,mkdv", "ic": ic, "seeds": "",
                "modes": "8", "dt": "0.01", "T": "1.0", "save_every": "10"}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        with pytest.raises(SolverAbort) as alone:
            solve(preset_state(8, ic), EquationSpec("mkdv1", 1), 0.01, 1.0, 10)
        with pytest.raises(SolverAbort) as info:
            run_experiment("conservation", settings)
    assert "(step 99)" in str(alone.value)
    assert str(info.value) == str(alone.value)
    assert info.value.partial.equation == EquationSpec("mkdv1", 1)
    assert len(info.value.partial) == len(alone.value.partial) == 10


def test_apriori_records_an_aborted_amplitude():
    # amplitude 60 blows up in the first step; the amplitudes stepped beside
    # it in one batch keep the values they get without it
    settings = {"modes": "16", "dt": "1e-3", "T": "0.05", "save_every": "10"}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        report = run_experiment("apriori_probe", {**settings, "amplitudes": "0.5,1.0,60"})
    alone = run_experiment("apriori_probe", {**settings, "amplitudes": "0.5,1.0"})
    completed, stable = report.verdicts
    assert not completed.passed and completed.observed == "1 aborted"
    assert completed.note.startswith("amp 60: mass drifted ")
    assert completed.note.endswith("(step 1); likely unstable dt")
    assert not stable.passed
    assert report.scalars == alone.scalars
    assert report.series == alone.series


def test_apriori_validates_exponents():
    with pytest.raises(ConfigError):
        run_experiment("apriori_probe", {"s": "0.8", "p": "3"})  # s >= 1 - 1/p
    with pytest.raises(ConfigError):
        run_experiment("apriori_probe", {"amplitudes": "1.0,0.5"})


def test_multiplier_probe_smoke():
    report = run_experiment(
        "multiplier_probe",
        {"pairs": "0.5:2", "n_list": "0,4", "radii": "8,16,32", "stab_tol": "1.0"},
    )
    assert report.all_passed
    assert "j1_s0.5_p2_n0" in report.series
    assert report.scalars["sup_j1_s0.5_p2"] > 0.0


def test_multiplier_probe_validates_radii():
    with pytest.raises(ConfigError):
        run_experiment("multiplier_probe", {"radii": "8,12"})  # not doubling
    with pytest.raises(ConfigError):
        run_experiment("multiplier_probe", {"pairs": "0.5-2"})
    for pairs in ("nan:2", "0.5:0.5"):  # s must be finite, p >= 1
        with pytest.raises(ConfigError):
            run_experiment("multiplier_probe", {"pairs": pairs})
    # both limits are checked before any sum runs, naming the key
    with pytest.raises(ConfigError, match="radii"):
        run_experiment(
            "multiplier_probe",
            {"radii": "16384,32768,65536,131072", "n_list": "0", "pairs": "0.5:2"},
        )
    with pytest.raises(ConfigError, match="n_list"):
        run_experiment("multiplier_probe", {"n_list": "0,1048577"})


#: the reduced nonexistence config of tools/golden.py
REDUCED_NONEXISTENCE = {
    "modes": "32", "schedule": "8,16", "T": "0.2", "save_points": "20",
    "control_modes": "16", "control_schedule": "8,16",
    "mom_schedule": "8,16,32,64,128",
}


def test_nonexistence_reduced_smoke():
    # far below the asymptotic regime; checks structure and the controls,
    # not the mechanism verdicts (the full run lives in the acceptance gate)
    report = run_experiment("nonexistence", REDUCED_NONEXISTENCE)
    names = {v.name for v in report.verdicts}
    assert names == {
        "v_cauchy_shrinks", "u_separation_persists", "pairing_decays",
        "momentum_diverges", "control_momentum_zero", "control_gauge_trivial",
        "control_pairing_persists",
    }
    by_name = {v.name: v for v in report.verdicts}
    assert by_name["momentum_diverges"].passed
    assert by_name["control_momentum_zero"].passed
    assert by_name["control_gauge_trivial"].passed
    assert report.scalars["state_rule_momentum_gap"] < 1e-10
    assert set(report.series) >= {"v_cauchy", "u_cauchy", "pairing",
                                  "momentum_rule", "momentum_data"}


def test_nonexistence_schedule_validation():
    with pytest.raises(ConfigError):
        run_experiment("nonexistence", {"schedule": "64,512", "modes": "256"})
    with pytest.raises(ConfigError):
        run_experiment("nonexistence", {"alpha": "2.0"})  # momentum converges
    with pytest.raises(ConfigError):
        run_experiment("nonexistence", {"dt_cap": "-1"})
    # a mode past either cap has coefficient 0: a pairing with no signal
    for mode in ("100000", "-129"):
        with pytest.raises(ConfigError, match="pairing_mode"):
            run_experiment("nonexistence", {"pairing_mode": mode})
    # a negative cutoff is rejected up front, naming its key
    for key, cutoffs in (("schedule", "-4,16"), ("mom_schedule", "-1,8,16,32,64"),
                         ("control_schedule", "-8,16")):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            run_experiment("nonexistence", {**REDUCED_NONEXISTENCE, key: cutoffs})


def test_nonexistence_report_same_on_one_cpu(monkeypatch):
    # the cutoff solves run on two forked workers, then serially on one CPU
    reports = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                            raising=False)
        reports.append(canonical_json(run_experiment(
            "nonexistence", REDUCED_NONEXISTENCE).to_dict()))
    assert reports[0] == reports[1]
