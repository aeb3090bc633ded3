"""The four benchmark workloads: the mkdvlab commands each one issues, and
the checks that decide whether each command's output is correct.

A workload runs as a closed loop: one client issues one command at a time
through ``mkdvlab.cli.main`` and waits for it to finish.  Every command
writes under an iteration root that the caller creates and deletes.

``digits`` is the accuracy the run reached, as -log10 of a relative error,
so that a faster stepper cannot be bought with accuracy unnoticed; a run
reports its worst iteration:

- cli_roundtrip, ensemble_m32: worst relative drift of mass or momentum;
- nonexistence_m512: the finest v_N Cauchy gap (``v_gap_last``);
- multiplier_r2048: the largest relative change of J'_1 over the last
  radius doubling, i.e. how far the truncated sums have settled.

The log keeps the figure steady across seeds, where the raw drift (which
sits near rounding at these step sizes) varies by a factor of two.
"""

from __future__ import annotations

import json
import math
import pathlib

REFERENCE_FILE = pathlib.Path(__file__).with_name("reference.json")

#: Relative tolerance of every comparison against a reference value.
REL_TOL = 1e-12


def close(observed: float, expected: float) -> bool:
    """Equal within REL_TOL, relative to max(|expected|, 1)."""
    return abs(observed - expected) <= REL_TOL * max(abs(expected), 1.0)


def load_reference(workload: str, size: str) -> dict:
    return json.loads(REFERENCE_FILE.read_text())[workload][size]


def read_report(out_dir: pathlib.Path) -> dict:
    return json.loads((out_dir / "report.json").read_text())


def report_summary(report: dict) -> dict:
    """The parts of an experiment report that the references pin."""
    return {
        "verdicts": [[v["name"], v["passed"]] for v in report["verdicts"]],
        "scalars": report["scalars"],
        "series": {k: s["rows"] for k, s in report["series"].items()},
    }


class Workload:
    """One workload: its inputs (from the seed), commands and checks."""

    name = ""
    #: exit code each command must return, in issue order
    expected_exits: tuple[int, ...] = (0,)
    #: calibrate.py kernels that match this workload's kinds of work; the
    #: default fits the stepping workloads: per-step interpreter overhead
    #: and FFTs
    calibration: tuple[str, ...] = ("python", "fft")

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.size = "tiny" if tiny else "full"

    def setup(self) -> None:
        """Import mkdvlab and build the inputs; timed as ``setup_s``."""
        import mkdvlab.cli  # noqa: F401

    def commands(self, root: pathlib.Path, index: int = 0) -> list[list[str]]:
        """The commands of iteration ``index``, writing under ``root``."""
        raise NotImplementedError

    def check(self, root: pathlib.Path, stdouts: list[str]) -> tuple[dict[int, str], float]:
        """Return ({command index: failure reason}, digits)."""
        raise NotImplementedError


class CliRoundtrip(Workload):
    """solve -> gauge G1 -> gauge --invert -> norms at the CLI defaults but
    T=0.02 (201 saved states), so that a run holds many iterations.

    The only workload that writes and reads trajectories (one CSV file per
    saved state), so trajectory I/O dominates it.
    """

    name = "cli_roundtrip"
    expected_exits = (0, 0, 0, 0)
    modes = 64
    dt = 1e-4

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.horizon = 0.005 if tiny else 0.02
        self.steps = round(self.horizon / self.dt)
        self.ic = f"random_smooth:1.5,{seed}"

    def setup(self) -> None:
        from mkdvlab.presets import preset_state

        super().setup()
        preset_state(self.modes, self.ic)

    def commands(self, root, index=0):
        solved, gauged, inverted = root / "solved", root / "g1", root / "inverted"
        return [
            ["solve", "--ic", self.ic, "--T", str(self.horizon), "--out", str(solved)],
            ["gauge", "--traj", str(solved), "--which", "G1", "--out", str(gauged)],
            ["gauge", "--traj", str(gauged), "--invert", "--out", str(inverted)],
            ["norms", "--state", str(self.final_state_path(root))],
        ]

    def final_state_path(self, root: pathlib.Path) -> pathlib.Path:
        return root / "inverted" / "states" / f"state_{self.steps:06d}.csv"

    def check(self, root, stdouts):
        import numpy as np
        from mkdvlab import EquationSpec, NormSpec, fl_norm, preset_state, solve
        from mkdvlab.io import load_state, trajectory_from_dir

        failures = {}
        reference = solve(
            preset_state(self.modes, self.ic), EquationSpec("mkdv", 1), self.dt,
            self.horizon, 1,
        )
        expected = np.array([st.coeffs for st in reference.states])
        inverted = trajectory_from_dir(root / "inverted")
        got = np.array([st.coeffs for st in inverted.states])
        if got.shape != expected.shape:
            failures[2] = f"inverted trajectory has shape {got.shape}, expected {expected.shape}"
        else:
            err = float(np.max(np.abs(got - expected)))
            if err > REL_TOL * max(1.0, float(np.max(np.abs(expected)))):
                failures[2] = f"inverted trajectory differs from the solve by {err:.3g}"

        final = load_state(self.final_state_path(root))
        rows = [line.split(",") for line in stdouts[3].split()[1:]]
        if len(rows) != 3:
            failures[3] = f"norms printed {len(rows)} rows, expected 3"
        for s_val, p_val, value in rows:
            want = fl_norm(final, NormSpec(float(s_val), float(p_val)))
            if not close(float(value), want):
                failures[3] = f"norms row s={s_val} p={p_val}: {value} != {want!r}"

        modes = np.arange(-self.modes, self.modes + 1)
        power = np.abs(got) ** 2
        drift = max(_relative_drift(power.sum(axis=1)), _relative_drift(power @ modes))
        return failures, -math.log10(drift)


def _relative_drift(series) -> float:
    """max_t |q(t) - q(0)| / max(1, |q(0)|), as the conservation experiment."""
    return float(max(abs(q - series[0]) for q in series)) / max(1.0, abs(series[0]))


class EnsembleM32(Workload):
    """experiment conservation at M=32, one seed of seed..seed+7 per
    iteration in turn: 3 members of 2,000 steps each, 24 over eight.

    At this cap per-step Python overhead outweighs the FFT work; there is
    no trajectory I/O.
    """

    name = "ensemble_m32"
    #: the ensemble's seeds are seed..seed+SEEDS-1
    SEEDS = 8

    def commands(self, root, index=0):
        sets = [f"seeds={self.seed + index % self.SEEDS}"]
        if self.tiny:
            sets.append("T=0.01")
        return [_experiment("conservation", sets, root)]

    def check(self, root, stdouts):
        report = read_report(root / "report")
        failures = {}
        verdicts = report["verdicts"]
        if len(verdicts) != 6 or not all(v["passed"] for v in verdicts):
            failures[0] = "conservation verdicts: " + ", ".join(
                f"{v['name']}={v['passed']}" for v in verdicts
            )
        drift = max(v for k, v in report["scalars"].items() if k.endswith("_drift"))
        return failures, -math.log10(drift)


class ReferenceExperiment(Workload):
    """An experiment whose report must match a recorded reference."""

    experiment = ""
    #: scalar keys that must match the reference to REL_TOL
    pinned_scalars: tuple[str, ...] = ()
    #: series whose every y value must match the reference to REL_TOL;
    #: None pins every series
    pinned_series: tuple[str, ...] | None = None

    def settings(self) -> list[str]:
        raise NotImplementedError

    def commands(self, root, index=0):
        return [_experiment(self.experiment, self.settings(), root)]

    def check(self, root, stdouts):
        got = report_summary(read_report(root / "report"))
        want = load_reference(self.name, self.size)
        problems = []
        if got["verdicts"] != want["verdicts"]:
            problems.append(f"verdicts {got['verdicts']} != {want['verdicts']}")
        for key in self.pinned_scalars:
            if not close(got["scalars"][key], want["scalars"][key]):
                problems.append(f"scalar {key}: {got['scalars'][key]!r}")
        for key in self.pinned_series or want["series"]:
            rows, ref_rows = got["series"].get(key, []), want["series"][key]
            if len(rows) != len(ref_rows) or not all(
                x == rx and close(y, ry) for (x, y), (rx, ry) in zip(rows, ref_rows)
            ):
                problems.append(f"series {key} differs from the reference")
        failures = {0: "; ".join(problems)} if problems else {}
        return failures, -math.log10(self.error(got))

    def error(self, summary: dict) -> float:
        raise NotImplementedError


class NonexistenceM512(ReferenceExperiment):
    """experiment nonexistence at T=0.01: FFT-bound stepping at M=512.

    Saves every 0.005, as the default run does, so the step size is the
    default one.  Deterministic; ``pairing_decays`` needs the full horizon,
    so at T=0.01 it fails and exit code 3 is the expected output.
    """

    name = "nonexistence_m512"
    experiment = "nonexistence"
    expected_exits = (3,)
    # momentum series and block ratios do not depend on the step size
    pinned_scalars = (
        "membership_block_ratio",
        "divergence_block_ratio",
        "control_momentum_max",
        "state_rule_momentum_gap",
    )
    pinned_series = ("momentum_rule", "momentum_data")

    def settings(self):
        if self.tiny:
            return [
                "T=0.01", "save_points=4", "modes=64", "schedule=8,16,32,64",
                "control_modes=32", "control_schedule=8,32",
            ]
        return ["T=0.01", "save_points=2"]

    def error(self, summary):
        return summary["scalars"]["v_gap_last"]


class MultiplierR2048(ReferenceExperiment):
    """experiment multiplier_probe for n=0 up to radius 2048: the O(R^2)
    J'_1 sum only."""

    name = "multiplier_r2048"
    experiment = "multiplier_probe"
    # array arithmetic over blocks of 4M lattice points
    calibration = ("memory",)

    def settings(self):
        if self.tiny:
            # the (3/4, 8) sums only settle at large radii
            return ["pairs=0.5:2", "n_list=0,32,-32", "radii=64,128,256"]
        return ["n_list=0", "radii=128,256,512,1024,2048"]

    def error(self, summary):
        return max(v for k, v in summary["scalars"].items() if k.startswith("worst_change"))


def _experiment(name: str, sets: list[str], root: pathlib.Path) -> list[str]:
    argv = ["experiment", name]
    for item in sets:
        argv += ["--set", item]
    return argv + ["--out", str(root / "report")]


WORKLOADS = {
    cls.name: cls for cls in (CliRoundtrip, EnsembleM32, NonexistenceM512, MultiplierR2048)
}
