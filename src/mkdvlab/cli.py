"""Command line front end: solve, gauge, norms, experiment.

Every subcommand resolves its configuration the same way: schema defaults,
then a flat key=value file (# comments allowed), then flags (``--set`` for
experiments), later sources winning.  Every key is parsed before any work
starts, and the resolved strings are echoed into each run's manifest;
``solve``, ``gauge`` and ``experiment`` refuse an output directory that
already holds one, so two runs never mix.  Exit codes: 0 success, 1
configuration or usage error, 2 numerical abort, 3 verdict failure (after
the report is written).
"""

from __future__ import annotations

import math
import pathlib
import sys

import click
import numpy as np

from . import dynamics
from .dynamics import EquationSpec
from .errors import ConfigError, SolverAbort
from .experiments import (
    any_exponent,
    choice,
    flag,
    integer,
    mode_cap,
    number,
    optional,
    parse_config,
    positive,
    required,
    run_experiment,
    sign,
    some_of,
    text,
    variant,
    write_report,
)
from .gauges import GAUGES, apply_gauge, invert_gauge
from .io import canonical_json, fmt17, load_state, trajectory_from_dir, trajectory_to_dir
from .norms import NormSpec, fl_norm, mass, momentum
from .presets import preset_state


def _key_value(item: str, where: str) -> tuple[str, str]:
    """``item`` split at its first '=', both sides stripped; a missing '=' or
    an empty key is refused, naming ``where`` the item came from."""
    key, equals, value = item.partition("=")
    if not equals:
        raise ConfigError(f"{where} expects key=value, got {item!r}")
    if not key.strip():
        raise ConfigError(f"{where}: empty key")
    return key.strip(), value.strip()


def _read_config_file(path: str) -> dict[str, str]:
    return dict(
        _key_value(raw, f"{path}:{line_no}")
        for line_no, raw in enumerate(pathlib.Path(path).read_text().splitlines(), 1)
        if raw.strip()[:1] not in ("", "#")  # blank and comment lines
    )


def _fresh_out(out) -> pathlib.Path:
    """The output directory, refused if it already holds a run's manifest
    or if it, or the nearest existing path above it, is not a directory."""
    out = pathlib.Path(out)
    nearest = next(path for path in (out, *out.parents) if path.exists())
    if not nearest.is_dir():
        where = "is" if nearest == out else f"lies under {str(nearest)!r}, which is"
        raise ConfigError(f"output directory {str(out)!r} {where} not a directory; "
                          "choose another --out")
    if (out / "manifest.json").exists():
        raise ConfigError(f"output directory {str(out)!r} already holds a run "
                          "(manifest.json); choose another --out")
    return out


def _overrides(config_path, flags: dict) -> dict[str, str]:
    """Config-file values, overlaid by the flags that were given."""
    overrides = _read_config_file(config_path) if config_path else {}
    overrides.update((key, value) for key, value in flags.items() if value is not None)
    return overrides


@click.group()
def cli() -> None:
    """Pseudo-spectral laboratory for the modified KdV family on the torus."""


SOLVE_SCHEMA = {
    "eq": ("mkdv", variant),
    "sign": ("+1", sign),
    "modes": ("64", mode_cap),
    "dt": ("1e-4", positive(number)),
    "T": ("0.5", positive(number)),
    "ic": ("", required),
    "save_every": ("1", positive(integer)),
    "out": ("", required),
}


@cli.command(name="solve")
@click.option("--eq", default=None, help="equation variant: mkdv, mkdv1, mkdv2")
@click.option("--sign", default=None, help="+1 or -1")
@click.option("--modes", default=None, help="mode cap M")
@click.option("--dt", default=None, help="time step")
@click.option("--T", "T", default=None, help="integration horizon")
@click.option("--ic", default=None, help="initial-condition preset, e.g. plane_wave:5,1,0.5")
@click.option("--save-every", default=None, help="save stride in steps")
@click.option("--config", "config_path", default=None, help="key=value config file")
@click.option("--out", default=None, help="output trajectory directory")
def solve_command(config_path, **flags):
    """Integrate one initial condition and write the trajectory.

    On a numerical abort the partial trajectory is written, with the
    diagnostic under ``abort`` in its manifest, before exiting with code 2.
    """
    config, opt = parse_config(SOLVE_SCHEMA, _overrides(config_path, flags))
    _fresh_out(opt.out)
    initial = preset_state(opt.modes, opt.ic)
    manifest = {"command": "solve", "config": config}
    try:
        trajectory = dynamics.solve(
            initial, EquationSpec(opt.eq, opt.sign), opt.dt, opt.T, opt.save_every
        )
    except SolverAbort as abort:
        manifest["abort"] = abort.diagnostic
        trajectory_to_dir(abort.partial, opt.out, extra_manifest=manifest)
        raise
    trajectory_to_dir(trajectory, opt.out, extra_manifest=manifest)
    click.echo(
        f"wrote {len(trajectory)} states to {opt.out} "
        f"(dt={fmt17(trajectory.dt)}, final t={fmt17(trajectory.final.time)})"
    )


GAUGE_SCHEMA = {
    "traj": ("", required),
    "which": ("G1", choice("G1", "G2")),
    "invert": ("false", flag),
    "sign": ("", optional(sign)),
    "out": ("", required),
}


@cli.command(name="gauge")
@click.option("--traj", default=None, help="input trajectory directory")
@click.option("--which", default=None, help="G1 or G2")
@click.option("--invert", is_flag=True, default=None, help="undo the recorded gauge")
@click.option("--sign", default=None, help="override the equation sign")
@click.option("--config", "config_path", default=None, help="key=value config file")
@click.option("--out", default=None, help="output trajectory directory")
def gauge_command(config_path, **flags):
    """Apply or invert a gauge transformation on a stored trajectory."""
    overrides = _overrides(config_path, flags)
    config, opt = parse_config(GAUGE_SCHEMA, overrides)
    if opt.invert and ("which" in overrides or "sign" in overrides):
        raise ConfigError("'invert' undoes the recorded gauge; drop 'which' and 'sign'")
    _fresh_out(opt.out)
    trajectory = trajectory_from_dir(opt.traj)
    if not opt.invert:
        invariant = GAUGES[opt.which][2]
        value = invariant(trajectory.initial)
        if not math.isfinite(value):
            raise ValueError(f"{opt.which} needs a finite {invariant.__name__}; the initial "
                             f"state of {str(opt.traj)!r} has {fmt17(value)}")
    result = (invert_gauge(trajectory) if opt.invert
              else apply_gauge(trajectory, opt.which, opt.sign))
    trajectory_to_dir(
        result, opt.out, extra_manifest={"command": "gauge", "config": config}
    )
    click.echo(f"wrote gauged trajectory to {opt.out}")


NORMS_SCHEMA = {
    "state": ("", required),
    "s": ("0,0.5,1", some_of(number)),
    "p": ("2", some_of(any_exponent)),
    "out": ("", text),
}


def _json_number(value: float):
    """JSON has no infinities or NaN: write those as the CSV's fmt17 text."""
    return value if math.isfinite(value) else fmt17(value)


@cli.command(name="norms")
@click.option("--state", default=None, help="serialized state (.csv or .json)")
@click.option("--s", default=None, help="comma list of regularities")
@click.option("--p", default=None, help="comma list of integrability exponents")
@click.option("--config", "config_path", default=None, help="key=value config file")
@click.option("--out", default=None, help="optional JSON output path")
@click.option("--pretty", is_flag=True, default=False, help="aligned human table")
def norms_command(config_path, pretty, **flags):
    """Print an FL-norm table (CSV on stdout) for a stored state."""
    _, opt = parse_config(NORMS_SCHEMA, _overrides(config_path, flags))
    loaded = load_state(opt.state)
    # a huge or infinite coefficient gives inf or nan, printed as it is
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [
            (s_val, p_val, fl_norm(loaded, NormSpec(s_val, p_val)))
            for s_val in opt.s
            for p_val in opt.p
        ]
        if pretty or opt.out:
            totals = {"mass": mass(loaded), "momentum": momentum(loaded)}
    if pretty:
        for key, value in totals.items():
            click.echo(f"{key:<8} = {value:.12g}")
        for s_val, p_val, value in rows:
            click.echo(f"FL^({s_val:g},{p_val:g})  {value:.12g}")
    else:
        click.echo("s,p,fl_norm")
        for s_val, p_val, value in rows:
            click.echo(f"{fmt17(s_val)},{fmt17(p_val)},{fmt17(value)}")
    if opt.out:
        payload = {key: _json_number(value) for key, value in totals.items()}
        payload["norms"] = [
            {"s": _json_number(s_val), "p": _json_number(p_val),
             "value": _json_number(value)}
            for s_val, p_val, value in rows
        ]
        pathlib.Path(opt.out).write_text(canonical_json(payload))


@cli.command(name="experiment")
@click.argument("name")
@click.option("--config", "config_path", default=None, help="key=value config file")
@click.option(
    "--set",
    "assignments",
    multiple=True,
    help="override one config key, key=value; repeatable",
)
@click.option("--out", required=True, help="output report directory")
def experiment_command(name, config_path, assignments, out):
    """Run a named experiment and write report.json plus series CSVs."""
    assigned = dict(_key_value(item, "--set") for item in assignments)
    out_dir = _fresh_out(out)
    report = run_experiment(name, _overrides(config_path, assigned))
    write_report(report, out_dir)
    manifest = {
        "command": "experiment",
        "experiment": name,
        "config": report.parameters,
        "all_passed": report.all_passed,
    }
    (out_dir / "manifest.json").write_text(canonical_json(manifest))

    for verdict in report.verdicts:
        mark = "PASS" if verdict.passed else "FAIL"
        observed = (
            verdict.observed
            if isinstance(verdict.observed, str)
            else f"{verdict.observed:.6g}"
        )
        threshold = report.parameters[verdict.threshold_key]
        click.echo(
            f"{mark} {verdict.name}: observed {observed} "
            f"({verdict.threshold_key}={threshold})"
        )
    click.echo(f"report: {out_dir / 'report.json'}")
    if not report.all_passed:
        click.echo(f"verdict failure in experiment {name}", err=True)
        click.get_current_context().exit(3)


# (exception, stderr prefix, exit code), first match first: ConfigError is a
# ValueError.  A failed verdict exits 3 from its command, after its report.
_EXITS = (
    (ConfigError, "config error", 1),
    (FileNotFoundError, "missing path", 1),
    (NotADirectoryError, "wrong kind of path", 1),
    (IsADirectoryError, "wrong kind of path", 1),
    (SolverAbort, "numerical abort", 2),
    (ValueError, "invalid value", 1),
    (MemoryError, "out of memory", 1),
)


def main(argv=None) -> None:
    try:
        code = cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        code = 1
    except click.Abort:
        code = 1
    except tuple(kind for kind, _, _ in _EXITS) as exc:
        prefix, code = next((prefix, code) for kind, prefix, code in _EXITS
                            if isinstance(exc, kind))
        click.echo(f"{prefix}: {exc}", err=True)
    if code:
        sys.exit(code)


if __name__ == "__main__":
    main()
