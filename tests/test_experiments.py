"""Experiment harness: config plumbing, verdicts, determinism, cheap smoke runs."""

import warnings

import numpy as np
import pytest

from mkdvlab.dynamics import EquationSpec, solve
from mkdvlab.errors import ConfigError, SolverAbort, StabilityWarning
from mkdvlab.experiments import (
    EXPERIMENTS,
    ExperimentReport,
    Series,
    VerdictRecord,
    _illposedness_frequency,
    _pseries_block_ratio,
    resolve_config,
    run_experiment,
    write_report,
)
from mkdvlab.io import canonical_json
from mkdvlab.norms import mass
from mkdvlab.presets import preset_state


# ------------------------------------------------------------------ config

def test_resolve_config_merges_and_rejects_unknown():
    defaults = {"alpha": "0.9", "modes": "32"}
    merged = resolve_config(defaults, {"alpha": "1.1"})
    assert merged == {"alpha": "1.1", "modes": "32"}
    with pytest.raises(ConfigError) as info:
        resolve_config(defaults, {"alhpa": "1.1"})
    assert "alhpa" in str(info.value)
    assert "alpha" in str(info.value)  # lists the valid keys


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


def test_nonexistence_reduced_smoke():
    # far below the asymptotic regime; checks structure and the controls,
    # not the mechanism verdicts (the full run lives in the acceptance gate)
    report = run_experiment(
        "nonexistence",
        {
            "modes": "32", "schedule": "8,16", "T": "0.2", "save_points": "20",
            "control_modes": "16", "control_schedule": "8,16",
            "mom_schedule": "8,16,32,64,128",
        },
    )
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
