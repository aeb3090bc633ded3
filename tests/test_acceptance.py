"""Acceptance gate: the ten primary checks, one pass/fail line each.

Each test prints a single ``criterion NN name: PASS/FAIL (details)`` line
and then asserts, so a plain ``pytest -v`` run shows the verdict table.
Criterion 09 is expected to fail at its pinned truncation budget: the
(3/4, 8) multiplier sum genuinely needs truncation radii beyond 512
before successive doublings settle under 5% at n = +-256 (it does settle
by K = 4096; the multiplier_probe experiment's default radii show that).
The check is kept at the pinned budget rather than weakened.
"""

import time

import numpy as np
import pytest

from conftest import decompose_nonlinearity, random_state
from mkdvlab.dynamics import (
    EquationSpec,
    j1_multiplier_sum,
    nonlinearity,
    phi_resonance,
    residual_check,
    solve,
)
from mkdvlab.experiments import run_experiment, write_report
from mkdvlab.io import canonical_json
from mkdvlab.presets import preset_state
from mkdvlab.spectral import state_from_modes, synthesis


def _line(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_exact_plane_wave():
    started = time.perf_counter()
    amplitude = 5.0**-0.5
    start = state_from_modes(32, {5: amplitude})
    traj = solve(start, EquationSpec("mkdv", 1), 1e-4, 0.1, save_every=10)
    worst = 0.0
    for st in traj.states:
        exact = state_from_modes(32, {5: amplitude * np.exp(1j * 126.0 * st.time)})
        diff = synthesis(st.coeffs - exact.coeffs, 32, 128)
        worst = max(worst, float(np.max(np.abs(diff))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 5.0
    assert _line(
        1, "exact_plane_wave", ok, f"sup err {worst:.3e}, {elapsed:.2f} s"
    ), f"sup error {worst} (tol 1e-8), elapsed {elapsed:.2f} s (budget 5 s)"


def test_criterion_02_resonance_identity():
    rng = np.random.default_rng(20260822)
    triples = rng.integers(-2000, 2001, size=(1_000_000, 3))
    mismatched = characterization_broken = 0
    for n1, n2, n3 in triples.tolist():
        value = phi_resonance(n1, n2, n3)
        total = n1 + n2 + n3
        if value != total**3 - (n1**3 + n2**3 + n3**3):
            mismatched += 1
        if (value == 0) != (n1 + n2 == 0 or n1 + n3 == 0 or n2 + n3 == 0):
            characterization_broken += 1
    # the random sweep rarely hits the zero set; exercise it directly too
    for a in range(-20, 21):
        for c in range(-20, 21):
            if phi_resonance(a, -a, c) != 0 or phi_resonance(a, c, -c) != 0:
                characterization_broken += 1
    ok = mismatched == 0 and characterization_broken == 0
    assert _line(
        2, "resonance_identity", ok,
        f"10^6 triples, {mismatched} mismatches, "
        f"{characterization_broken} characterization breaks",
    )


def test_criterion_03_decomposition_identity():
    started = time.perf_counter()
    worst = 0.0
    for index in range(100):
        cap = 2 + index % 15
        sign = 1 if index % 2 == 0 else -1
        state = random_state(cap, seed=1000 + index)
        parts = decompose_nonlinearity(state)
        mkdv1 = sign * (
            parts.nonresonant.coeffs
            - parts.resonant.coeffs
            + parts.momentum_part.coeffs
        )
        mkdv2 = sign * (parts.nonresonant.coeffs - parts.resonant.coeffs)
        got1 = nonlinearity(state, EquationSpec("mkdv1", sign)).coeffs
        got2 = nonlinearity(state, EquationSpec("mkdv2", sign)).coeffs
        worst = max(
            worst,
            float(np.max(np.abs(got1 - mkdv1))),
            float(np.max(np.abs(got2 - mkdv2))),
        )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 30.0
    assert _line(
        3, "decomposition_identity", ok,
        f"100 states, worst gap {worst:.3e}, {elapsed:.1f} s",
    ), f"componentwise gap {worst} (tol 1e-12), elapsed {elapsed:.1f} s"


def test_criterion_04_conservation():
    report = run_experiment(
        "conservation", {"seeds": ",".join(str(k) for k in range(20))}
    )
    worst = max(
        report.scalars[f"{variant}_{quantity}_drift"]
        for variant in ("mkdv", "mkdv1", "mkdv2")
        for quantity in ("mass", "momentum")
    )
    ok = report.all_passed and worst <= 1e-8
    assert _line(
        4, "conservation", ok, f"20 seeds, worst drift {worst:.3e}"
    ), f"worst drift {worst} (tol 1e-8)"


def test_criterion_05_gauge_equivalence():
    report = run_experiment("gauge_equivalence")
    gap1 = report.scalars["sup_gauge1_gap"]
    gap2 = report.scalars["sup_gauge2_gap"]
    ok = report.all_passed and max(gap1, gap2) <= 1e-6
    assert _line(
        5, "gauge_equivalence", ok,
        f"sup-t FL(1/2,2) gaps {gap1:.3e} / {gap2:.3e}",
    ), f"gauge gaps {gap1}, {gap2} (tol 1e-6)"


def test_criterion_06_illposedness():
    report = run_experiment("illposedness")
    agreement = report.scalars["solver_agreement_max"]
    separation = report.scalars["min_solution_distance"]
    ok = report.all_passed and agreement <= 1e-6 and separation >= 1.9
    assert _line(
        6, "illposedness", ok,
        f"separation {separation:.4f}, solver vs analytic {agreement:.3e}",
    ), f"agreement {agreement} (tol 1e-6), separation {separation} (floor 1.9)"


def test_criterion_07_nonexistence():
    started = time.perf_counter()
    report = run_experiment("nonexistence")
    elapsed = time.perf_counter() - started
    failed = [v.name for v in report.verdicts if not v.passed]
    ok = report.all_passed and elapsed < 120.0
    assert _line(
        7, "nonexistence", ok,
        f"{len(report.verdicts)} verdicts, failed {failed or 'none'}, "
        f"{elapsed:.0f} s",
    ), f"failed verdicts {failed}, elapsed {elapsed:.0f} s (budget 120 s)"


def test_criterion_08_random_momentum(tmp_path):
    report = run_experiment("random_momentum")
    gap_se = abs(
        report.scalars["second_moment"] - report.scalars["target_second_moment"]
    ) / report.scalars["se_second_moment"]

    repeat = run_experiment("random_momentum")
    first_dir, second_dir = tmp_path / "a", tmp_path / "b"
    write_report(report, first_dir)
    write_report(repeat, second_dir)
    same_bytes = (first_dir / "report.json").read_bytes() == (
        second_dir / "report.json"
    ).read_bytes()
    assert canonical_json(report.to_dict()) == canonical_json(repeat.to_dict())

    ok = report.all_passed and gap_se <= 4.0 and same_bytes
    assert _line(
        8, "random_momentum", ok,
        f"second moment off by {gap_se:.2f} SE, bytes identical: {same_bytes}",
    ), f"gap {gap_se:.2f} SE (limit 4), byte-identical {same_bytes}"


def test_criterion_09_multiplier_stabilization():
    # pinned budget: radii up to 512, the last doubling being 256 -> 512
    lines = []
    all_ok = True
    for s, p in ((0.5, 2.0), (0.75, 8.0)):
        worst = 0.0
        for n in (0, 32, -32, 256, -256):
            coarse = j1_multiplier_sum(n, s, p, 256)
            fine = j1_multiplier_sum(n, s, p, 512)
            worst = max(worst, abs(fine - coarse) / fine)
        pair_ok = worst < 0.05
        all_ok = all_ok and pair_ok
        lines.append(f"(s={s:g},p={p:g}) last doubling {worst:.1%}")
    assert _line(
        9, "multiplier_stabilization", all_ok, "; ".join(lines)
    ), ("; ".join(lines) + " -- the (3/4,8) sum needs radii beyond 512 "
        "to settle at n = +-256; see the multiplier_probe experiment")


def test_criterion_10_integrator_order():
    wave, amp = 8, 2.0
    start = state_from_modes(16, {wave: amp})
    eq = EquationSpec("mkdv", 1)
    rate = wave**3 + amp**2 * wave  # 544

    errors = []
    dts = (1e-3, 5e-4, 2.5e-4)
    for dt in dts:
        steps = int(round(0.1 / dt))
        traj = solve(start, eq, dt, 0.1, save_every=steps)
        exact = amp * np.exp(1j * rate * 0.1)
        errors.append(float(np.max(np.abs(
            traj.final.coeffs - state_from_modes(16, {wave: exact}).coeffs
        ))))
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])

    residual_maxima = []
    for dt in (2e-4, 1e-4):
        traj = solve(start, eq, dt, 0.01)
        residual_maxima.append(max(v for _, v in residual_check(traj)))
    residual_ratio = residual_maxima[0] / residual_maxima[1]

    ok = abs(slope - 4.0) <= 0.3 and 3.4 < residual_ratio < 4.6
    assert _line(
        10, "integrator_order", ok,
        f"slope {slope:.3f}, residual halving ratio {residual_ratio:.2f}",
    ), f"slope {slope} (want 4 +- 0.3), residual ratio {residual_ratio}"
