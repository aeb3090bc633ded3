"""Scripted experiments that exercise the solver and produce verdict reports.

An experiment is a schema (key -> (default text, parser)) and a body,
registered together in EXPERIMENTS.  A key's parser holds every rule that
reads that key alone; a body checks only combinations of keys.
``run_experiment`` merges the overrides into the schema defaults and parses
every key up front, hands the parsed values to the body, and builds the
ExperimentReport from what the body returns (series, scalars, verdicts),
the config echo and the provenance.
Bodies run deterministically given their configuration.  Each verdict names
the config key holding its threshold, so reports are self-describing;
serialization is byte-stable across runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import pathlib
from collections.abc import Sequence
from types import SimpleNamespace

import numpy as np

from ._version import __version__
from .dynamics import (
    J1_MAX_RADIUS,
    RESONANCE_DOMAIN,
    VARIANTS,
    EquationSpec,
    _solve_each,
    j1_multiplier_sum,
    phase_schedule,
    raise_first_abort,
    solve,
    solve_many,
    stability_dt_limit,
)
from .errors import ConfigError, SolverAbort
from .gauges import GaugeSpec, apply_gauge1, apply_gauge2, invert_gauge
from .io import canonical_json, fmt17, series_to_csv_text
from .norms import (
    NormSpec,
    fl_norm,
    japanese_bracket,
    mass,
    momentum,
    momentum_limit_diagnostic,
    raised_cosine,
)
from .presets import parse_preset, preset_state
from .spectral import (
    FourierState,
    conjugate_state,
    project_high,
    project_low,
    state_from_modes,
)

# ---------------------------------------------------------------------------
# report plumbing


@dataclasses.dataclass(frozen=True)
class Series:
    """A named (x, y) sequence destined for one CSV file."""

    xlabel: str
    ylabel: str
    rows: tuple[tuple[float, float], ...]


@dataclasses.dataclass(frozen=True)
class VerdictRecord:
    """One pass/fail check; threshold_key points into the config echo."""

    name: str
    passed: bool
    observed: float | str
    threshold_key: str
    note: str = ""


@dataclasses.dataclass(frozen=True)
class ExperimentReport:
    name: str
    parameters: dict[str, str]
    series: dict[str, Series]
    scalars: dict[str, float]
    verdicts: tuple[VerdictRecord, ...]
    provenance: dict[str, str]

    def __post_init__(self):
        for verdict in self.verdicts:
            if verdict.threshold_key not in self.parameters:
                raise ValueError(
                    f"verdict {verdict.name!r} references threshold key "
                    f"{verdict.threshold_key!r} missing from parameters"
                )

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_dict(self) -> dict:
        """The report.json payload, built without copying the values it holds."""
        return {
            "name": self.name,
            "parameters": self.parameters,
            "series": {
                key: {"xlabel": s.xlabel, "ylabel": s.ylabel, "rows": list(map(list, s.rows))}
                for key, s in self.series.items()
            },
            "scalars": self.scalars,
            "verdicts": [
                {**vars(v), "threshold_value": self.parameters[v.threshold_key]}
                for v in self.verdicts
            ],
            "provenance": self.provenance,
            "all_passed": self.all_passed,
        }


def write_report(report: ExperimentReport, directory) -> None:
    """report.json plus one series/<name>.csv per series."""
    directory = pathlib.Path(directory)
    series_dir = directory / "series"
    series_dir.mkdir(parents=True, exist_ok=True)
    (directory / "report.json").write_text(canonical_json(report.to_dict()))
    for key, s in report.series.items():
        path = series_dir / f"{key}.csv"
        path.write_text(series_to_csv_text(s.xlabel, s.ylabel, s.rows))


#: What an experiment body returns: series, scalars and verdicts.
Findings = tuple[dict[str, Series], dict[str, float], Sequence[VerdictRecord]]


# ---------------------------------------------------------------------------
# configuration


def parse_config(schema, overrides) -> tuple[dict[str, str], SimpleNamespace]:
    """Resolve a schema (key -> (default text, parser)) against overrides.

    Any override key outside the schema is rejected.  Returns the string
    echo that reports and manifests record, and the parsed values as
    attributes.  Every key is parsed, so a bad value is reported before any
    work starts.
    """
    overrides = dict(overrides or {})
    unknown = sorted(key for key in overrides if key not in schema)
    if unknown:
        raise ConfigError(
            f"unknown config key(s): {', '.join(unknown)}; "
            f"valid keys: {', '.join(sorted(schema))}"
        )
    config = {
        key: str(overrides.get(key, default)) for key, (default, _) in schema.items()
    }
    return config, SimpleNamespace(
        **{key: parse(key, config[key]) for key, (_, parse) in schema.items()}
    )


# Parsers take (key, text) and return the value or raise ConfigError naming
# the key; combinators build parsers from parsers.


def text(key: str, raw: str) -> str:
    return raw


def flag(key: str, raw: str) -> bool:
    word = choice("true", "1", "yes", "false", "0", "no")(key, raw.strip().lower())
    return word in ("true", "1", "yes")


def integer(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"malformed integer for {key!r}: {raw!r}") from None


def any_float(key: str, raw: str) -> float:
    """A float, infinities and NaN included."""
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"malformed number for {key!r}: {raw!r}") from None


def sign(key: str, raw: str) -> int:
    raw = raw.strip()
    if raw in ("+1", "1", "+"):
        return 1
    if raw in ("-1", "-"):
        return -1
    raise ConfigError(f"{key!r} must be +1 or -1, got {raw!r}")


def _checked(parse, holds, wording: str):
    """``parse``, then a ConfigError unless ``holds(value)``."""

    def check(key: str, raw: str):
        value = parse(key, raw)
        if not holds(value):
            raise ConfigError(f"{key!r} must be {wording}, got {value!r}")
        return value

    return check


def positive(parse):
    return _checked(parse, lambda value: value > 0, "positive")


def nonnegative(parse):
    return _checked(parse, lambda value: value >= 0, "non-negative")


def increasing(parse):
    return _checked(
        parse, lambda values: all(b > a for a, b in zip(values, values[1:])),
        "strictly increasing",
    )


def at_least(count: int, parse):
    return _checked(parse, lambda values: len(values) >= count,
                    f"a list of {count} or more entries")


def distinct(parse):
    return _checked(parse, lambda values: len(set(values)) == len(values),
                    "free of repeats")


def choice(*options: str):
    return _checked(text, options.__contains__, f"one of {', '.join(options)}")


def optional(parse):
    """An empty text means None."""
    return lambda key, raw: parse(key, raw) if raw else None


required = _checked(text, bool, "given")
number = _checked(any_float, math.isfinite, "finite")
variant = choice(*VARIANTS)
# FL exponents p >= 1, the domain NormSpec takes (NaN fails the test too);
# s:p pairs and the norms table also take p = inf
any_exponent = _checked(any_float, lambda p: p >= 1.0, "at least 1")
exponent = _checked(number, lambda p: p >= 1.0, "at least 1")


def sp_pair(key: str, raw: str) -> tuple[float, float]:
    """'s:p' with a finite s and p >= 1 (p = inf allowed)."""
    s_text, colon, p_text = raw.partition(":")
    if not colon:
        raise ConfigError(f"malformed (s,p) pair {raw!r} in {key!r}; expected 's:p'")
    return number(key, s_text), any_exponent(key, p_text)


def list_of(item):
    """Comma-separated items; an empty text is the empty tuple."""

    def parse(key: str, raw: str) -> tuple:
        raw = raw.strip()
        return tuple(item(key, piece) for piece in raw.split(",")) if raw else ()

    return parse


def some_of(item):
    """Comma-separated items, blanks skipped; at least one is required."""

    def parse(key: str, raw: str) -> tuple:
        pieces = [piece.strip() for piece in raw.split(",") if piece.strip()]
        if not pieces:
            raise ConfigError(f"{key!r} must list at least one value")
        return tuple(item(key, piece) for piece in pieces)

    return parse


int_list = list_of(integer)
cutoff_list = increasing(list_of(nonnegative(integer)))
ladder = increasing(at_least(1, list_of(positive(integer))))


# ---------------------------------------------------------------------------
# shared numerics


def _fl_gaps(left, right, spec: NormSpec) -> list[float]:
    """fl_norm(a - b) for each pair of states, slice by slice."""
    return [
        fl_norm(a.with_(coeffs=a.coeffs - b.coeffs), spec)
        for a, b in zip(left, right, strict=True)
    ]


def _window_pairing(states, span: float, mode: int) -> float:
    """|<u, w(t) e^{i mode x}>| over the save grid, w a raised cosine on [0, span].

    The spatial integral picks out 2 pi u_hat(mode); the time integral is a
    plain Riemann sum, exact enough since w vanishes at both ends.
    """
    times = np.array([st.time - states[0].time for st in states])
    dt = times[1] - times[0]
    window = raised_cosine(times, span)
    values = np.array([st.coeff(mode) for st in states])
    return float(2.0 * np.pi * dt * abs(np.sum(window * values)))


def _pseries_block_ratio(exponent: float) -> float:
    """Tail behavior of sum n^{-exponent} via consecutive dyadic block sums.

    The sum over [2^11, 2^12) is divided by the sum over [2^10, 2^11).
    Block sums scale like 2^{k(1 - exponent)}, so a limiting ratio below 1
    certifies convergence by geometric comparison and a ratio >= 1 certifies
    divergence; the numeric ratio replaces trusting the exponent algebra.
    """
    lo = np.arange(2**10, 2**11, dtype=np.float64)
    hi = np.arange(2**11, 2**12, dtype=np.float64)
    return float(np.sum(hi**-exponent) / np.sum(lo**-exponent))


def _at_most(opt, name: str, observed, key: str, note: str = "") -> VerdictRecord:
    """Passes when ``observed`` is at most the config value under ``key``."""
    return VerdictRecord(name, observed <= getattr(opt, key), observed, key, note)


def _at_least(opt, name: str, observed, key: str, note: str = "") -> VerdictRecord:
    """Passes when ``observed`` is at least the config value under ``key``."""
    return VerdictRecord(name, observed >= getattr(opt, key), observed, key, note)


def _stable_schedule(state, horizon: float, save_points: int, dt_cap: float):
    """``phase_schedule`` under the smaller of ``dt_cap`` and the state's stable dt."""
    return phase_schedule(horizon, min(stability_dt_limit(state), dt_cap), save_points)


def _cutoff_ladder(arms, sign: int, horizon: float, save_points: int, dt_cap: float):
    """mkdv2 solves from P_{<=N} u0 for each arm ``(u0, cutoffs)`` and cutoff N.

    Every job of every arm, in arm order, goes through one ``_solve_each``
    call.  Returns, per arm, one ``(v_N trajectory, u_N states, P_N)`` per
    cutoff, where P_N is the truncation's momentum and u_N = e^{+i sign P_N t}
    v_N undoes the G2 gauge.
    """
    equation = EquationSpec("mkdv2", sign)
    truncations = [project_low(u0, N) for u0, cutoffs in arms for N in cutoffs]
    jobs = []
    for state in truncations:
        dt, save_every = _stable_schedule(state, horizon, save_points, dt_cap)
        jobs.append((state, equation, dt, horizon, save_every))
    runs = []
    for state, trajectory in zip(truncations, _solve_each(jobs)):
        rate = momentum(state)
        u_states = invert_gauge(trajectory, GaugeSpec("G2", sign, rate)).states
        runs.append((trajectory, u_states, rate))
    runs = iter(runs)
    return [[next(runs) for _ in cutoffs] for _, cutoffs in arms]


# ---------------------------------------------------------------------------
# conservation


CONSERVATION_SCHEMA = {
    "variants": ("mkdv,mkdv1,mkdv2", distinct(some_of(variant))),
    "sign": ("+1", sign),
    "modes": ("32", positive(integer)),
    "ic": ("random_smooth:1.5,0", text),
    "seeds": ("0,1,2", int_list),
    "dt": ("5e-4", positive(number)),
    "T": ("1.0", positive(number)),
    "save_every": ("20", positive(integer)),
    "drift_tol": ("1e-8", positive(number)),
}


def exp_conservation(opt) -> Findings:
    """Mass and momentum stay put along all three flows.

    Both quantities are conserved exactly by the semi-discrete system, so any
    drift measures integrator error alone.  When a seed sweep is requested the
    initial condition must be random_smooth; its seed argument is replaced by
    each sweep entry in turn.  Time series are reported for the first member
    of each variant, drifts for the worst member.
    """
    ic_name, ic_args = parse_preset(opt.ic)
    if opt.seeds and (ic_name != "random_smooth" or len(ic_args) < 1):
        raise ConfigError("a 'seeds' sweep requires a random_smooth:decay,seed ic")
    members = []
    for variant in opt.variants:
        if opt.seeds:
            for seed in opt.seeds:
                members.append((variant, f"random_smooth:{fmt17(ic_args[0])},{seed}"))
        else:
            members.append((variant, opt.ic))

    fl_spec = NormSpec(0.5, 2)
    trajectories = raise_first_abort(solve_many(
        [preset_state(opt.modes, preset) for _, preset in members],
        [EquationSpec(variant, opt.sign) for variant, _ in members],
        opt.dt, opt.T, opt.save_every,
    ))

    def summarize(variant, trajectory):
        masses = np.array([mass(st) for st in trajectory.states])
        momenta = np.array([momentum(st) for st in trajectory.states])
        fls = np.array([fl_norm(st, fl_spec) for st in trajectory.states])
        return variant, trajectory.times, masses, momenta, fls

    results = [
        summarize(variant, trajectory)
        for (variant, _), trajectory in zip(members, trajectories)
    ]

    series: dict[str, Series] = {}
    scalars: dict[str, float] = {}
    verdicts = []
    for variant in opt.variants:
        rows = [r for r in results if r[0] == variant]
        mass_drift = 0.0
        mom_drift = 0.0
        for _, times, masses, momenta, fls in rows:
            mass_drift = max(
                mass_drift,
                float(np.max(np.abs(masses - masses[0]))) / max(1.0, abs(masses[0])),
            )
            mom_drift = max(
                mom_drift,
                float(np.max(np.abs(momenta - momenta[0]))) / max(1.0, abs(momenta[0])),
            )
        _, times, masses, momenta, fls = rows[0]
        series[f"{variant}_mass"] = Series("t", "mass", tuple(zip(times, masses)))
        series[f"{variant}_momentum"] = Series(
            "t", "momentum", tuple(zip(times, momenta))
        )
        series[f"{variant}_fl_half_2"] = Series("t", "fl_norm", tuple(zip(times, fls)))
        scalars[f"{variant}_mass_drift"] = mass_drift
        scalars[f"{variant}_momentum_drift"] = mom_drift
        verdicts.append(_at_most(opt, f"{variant}_mass_conserved", mass_drift, "drift_tol"))
        verdicts.append(
            _at_most(opt, f"{variant}_momentum_conserved", mom_drift, "drift_tol")
        )

    return series, scalars, verdicts


# ---------------------------------------------------------------------------
# gauge equivalence


GAUGE_EQUIVALENCE_SCHEMA = {
    "ic": ("random_smooth:1.5,0", text),
    "sign": ("+1", sign),
    "modes": ("32", positive(integer)),
    "dt": ("2.5e-4", positive(number)),
    "T": ("0.5", positive(number)),
    "save_every": ("10", positive(integer)),
    "gap_tol": ("1e-6", positive(number)),
    "norm_s": ("0.5", number),
    "norm_p": ("2", exponent),
}


def exp_gauge_equivalence(opt) -> Findings:
    """The three flows from shared data agree once explicitly gauged.

    Solves all three equations from the same initial state, pushes the first
    through the translation gauge, the second through the phase gauge, and the
    first through both, then compares against the directly-computed targets in
    sup-over-time FL norm.
    """
    spec = NormSpec(opt.norm_s, opt.norm_p)
    initial = preset_state(opt.modes, opt.ic)

    traj_plain, traj_first, traj_second = raise_first_abort(solve_many(
        [initial] * len(VARIANTS),
        [EquationSpec(variant, opt.sign) for variant in VARIANTS],
        opt.dt, opt.T, opt.save_every,
    ))
    gauged_once = apply_gauge1(traj_plain)
    gauged_twice = apply_gauge2(gauged_once)
    gauged_second = apply_gauge2(traj_first)

    times = traj_plain.times
    gaps = {
        "gauge1_gap": _fl_gaps(gauged_once.states, traj_first.states, spec),
        "gauge2_gap": _fl_gaps(gauged_second.states, traj_second.states, spec),
        "composed_gap": _fl_gaps(gauged_twice.states, traj_second.states, spec),
    }

    series = {
        key: Series("t", "fl_gap", tuple(zip(times, values)))
        for key, values in gaps.items()
    }
    scalars = {f"sup_{key}": float(np.max(values)) for key, values in gaps.items()}
    verdicts = tuple(
        _at_most(opt, f"{key}_small", scalars[f"sup_{key}"], "gap_tol") for key in gaps
    )
    return series, scalars, verdicts


# ---------------------------------------------------------------------------
# non-existence mechanism


NONEXISTENCE_SCHEMA = {
    "s": ("0.5", number),
    "p": ("3", exponent),
    "alpha": ("0.9", positive(number)),
    "sign": ("+1", sign),
    "modes": ("512", positive(integer)),
    "schedule": ("32,64,128,256", at_least(2, cutoff_list)),
    "T": ("0.8", positive(number)),
    "save_points": ("160", positive(integer)),
    "pairing_mode": ("1", integer),
    "cauchy_s": ("-1", number),
    "cauchy_p": ("2", exponent),
    "shrink_factor": ("4", positive(number)),
    "u_floor": ("0.1", positive(number)),
    "pairing_drop": ("0.5", positive(number)),
    "mom_schedule": ("32,64,128,256,512,1024,2048,4096", at_least(4, cutoff_list)),
    "mom_tol": ("1e-6", positive(number)),
    "dt_cap": ("0", nonnegative(number)),
    "control_modes": ("128", positive(integer)),
    "control_schedule": ("32,128", at_least(2, cutoff_list)),
    "control_scale": ("0.5", positive(number)),
    "control_tol": ("1e-12", positive(number)),
    "control_pairing_floor": ("0.5", positive(number)),
}


def exp_nonexistence(opt) -> Findings:
    """One-sided data: gauged solutions converge, ungauged ones cannot.

    Solves the twice-renormalized equation from truncations P_{<=N} of
    u0_hat(n) = n^{-alpha} (n >= 1) and rebuilds the once-renormalized
    candidates u_N = e^{+i sign P_N t} v_N.  The v_N form a Cauchy sequence;
    the u_N stay apart because the phase rates P_N diverge, and their pairing
    against a fixed smooth window test function decays.  A real-valued control
    data set, whose momentum vanishes identically, runs through the same
    machinery to show the separation is the phase's doing.

    The divergence verdict is evaluated on the defining coefficient rule over
    an extended cutoff schedule, since a cap-M state trivially stabilizes past
    M; rule and state momenta are cross-checked where both exist.
    """
    s, p, alpha, sign = opt.s, opt.p, opt.alpha, opt.sign
    schedule, control_schedule = opt.schedule, opt.control_schedule
    cauchy_spec = NormSpec(opt.cauchy_s, opt.cauchy_p)
    u_spec = NormSpec(s, p)

    if schedule[-1] > opt.modes:
        raise ConfigError(
            f"schedule entry {schedule[-1]} exceeds the mode cap {opt.modes}"
        )
    if control_schedule[-1] > opt.control_modes:
        raise ConfigError(
            f"control schedule entry {control_schedule[-1]} exceeds "
            f"control_modes {opt.control_modes}"
        )
    # past a cap the coefficient is 0, so the pairing would carry no signal
    if abs(opt.pairing_mode) > min(opt.modes, opt.control_modes):
        raise ConfigError(
            f"'pairing_mode' {opt.pairing_mode} lies beyond the mode caps "
            f"(modes {opt.modes}, control_modes {opt.control_modes})"
        )

    # Both data-class conditions are p-series facts; certify them numerically
    # from dyadic block ratios rather than trusting the exponent algebra.
    membership_ratio = _pseries_block_ratio(p * (alpha - s))
    if membership_ratio >= 1.0:
        raise ConfigError(
            "data falls outside FL^(s,p): sum n^(p(s-alpha)) diverges "
            f"(block ratio {membership_ratio:.4f})"
        )
    divergence_ratio = _pseries_block_ratio(2.0 * alpha - 1.0)
    if divergence_ratio < 1.0:
        raise ConfigError(
            "truncated momentum of the data converges: sum n^(1-2 alpha) "
            f"has block ratio {divergence_ratio:.4f} < 1"
        )

    # the control is real-valued data: mirrored coefficients, momentum cancels
    data = f"one_sided:{fmt17(alpha)}"
    u0, c0 = preset_state(opt.modes, data), preset_state(opt.control_modes, data)
    control = c0.with_(coeffs=opt.control_scale * (c0.coeffs + conjugate_state(c0).coeffs))
    main_runs, control_runs = _cutoff_ladder(
        [(u0, schedule), (control, control_schedule)], sign, opt.T, opt.save_points,
        opt.dt_cap or math.inf,
    )
    v_trajs, u_states, rates = zip(*main_runs)
    control_trajs, control_u, control_rates = zip(*control_runs)

    v_gaps = [
        max(_fl_gaps(a.states, b.states, cauchy_spec))
        for a, b in zip(v_trajs, v_trajs[1:])
    ]
    u_gap_rows = [_fl_gaps(a, b, u_spec) for a, b in zip(u_states, u_states[1:])]
    u_gaps = [max(per_time) for per_time in u_gap_rows]
    vnorm_ref = max(max(fl_norm(st, u_spec) for st in traj.states) for traj in v_trajs)
    pairings = [_window_pairing(u, opt.T, opt.pairing_mode) for u in u_states]

    # momentum divergence, on the ideal coefficient rule
    def rule(n: int) -> complex:
        return complex(float(n) ** -alpha) if n >= 1 else 0j

    diagnostic = momentum_limit_diagnostic(rule, opt.mom_schedule, opt.mom_tol)
    state_rule_gap = max(
        abs(
            rate
            - float(
                np.sum(np.arange(1, N + 1, dtype=np.float64) ** (1.0 - 2.0 * alpha))
            )
        )
        for rate, N in zip(rates, schedule)
    )

    control_mom_max = max(abs(rate) for rate in control_rates)
    control_gauge_gap = max(
        max(_fl_gaps(traj.states, u, u_spec)) for traj, u in zip(control_trajs, control_u)
    )
    control_pairings = [_window_pairing(u, opt.T, opt.pairing_mode) for u in control_u]
    control_pairing_ratio = control_pairings[-1] / max(control_pairings[0], 1e-300)

    v_ratio = min(v_gaps[0] / max(v_gaps[-1], 1e-300), 1e12)
    u_ratio = min(u_gaps) / max(vnorm_ref, 1e-300)
    pairing_ratio = pairings[-1] / max(pairings[0], 1e-300)

    series = {
        "v_cauchy": Series("N", "sup_t_gap", tuple(zip(schedule[1:], v_gaps))),
        "u_cauchy": Series("N", "sup_t_gap", tuple(zip(schedule[1:], u_gaps))),
        "u_gap_last_pair": Series(
            "t", "fl_gap", tuple(zip(v_trajs[-2].times, u_gap_rows[-1]))
        ),
        "pairing": Series("N", "abs_pairing", tuple(zip(schedule, pairings))),
        "momentum_rule": Series(
            "N", "P_N", tuple((float(N), v) for N, v in diagnostic.truncations)
        ),
        "momentum_data": Series(
            "N", "P_N", tuple((float(N), rate) for rate, N in zip(rates, schedule))
        ),
        "control_pairing": Series(
            "N", "abs_pairing", tuple(zip(control_schedule, control_pairings))
        ),
    }
    scalars = {
        "v_gap_first": v_gaps[0],
        "v_gap_last": v_gaps[-1],
        "u_gap_min": min(u_gaps),
        "vnorm_ref": vnorm_ref,
        "pairing_first": pairings[0],
        "pairing_last": pairings[-1],
        "membership_block_ratio": membership_ratio,
        "divergence_block_ratio": divergence_ratio,
        "state_rule_momentum_gap": state_rule_gap,
        "control_momentum_max": control_mom_max,
        "control_gauge_gap": control_gauge_gap,
        "control_pairing_ratio": control_pairing_ratio,
    }
    verdicts = (
        _at_least(
            opt, "v_cauchy_shrinks", v_ratio, "shrink_factor",
            "first over last consecutive sup-t gap of the gauged solutions",
        ),
        _at_least(
            opt, "u_separation_persists", u_ratio, "u_floor",
            "smallest consecutive u_N gap over the solution norm scale",
        ),
        _at_most(
            opt, "pairing_decays", pairing_ratio, "pairing_drop",
            "largest-N pairing over smallest-N pairing",
        ),
        VerdictRecord(
            "momentum_diverges", diagnostic.verdict == "diverging",
            diagnostic.verdict, "mom_tol",
            "limit diagnostic on the defining coefficient rule",
        ),
        _at_most(opt, "control_momentum_zero", control_mom_max, "control_tol"),
        _at_most(
            opt, "control_gauge_trivial", control_gauge_gap, "control_tol",
            "u_N and v_N coincide when the data momentum vanishes",
        ),
        _at_least(
            opt, "control_pairing_persists", control_pairing_ratio, "control_pairing_floor"
        ),
    )
    return series, scalars, verdicts


# ---------------------------------------------------------------------------
# ill-posedness below s = 1/2


ILLPOSEDNESS_SCHEMA = {
    "s": ("0", _checked(number, lambda s: s < 0.5, "below 1/2")),
    "p": ("2", exponent),
    "sign": ("+1", sign),
    "n_list": ("2,4,8,16", ladder),
    "N_rule": ("minimal", choice("minimal")),
    "save_points": ("16", positive(integer)),
    "agree_tol": ("1e-8", positive(number)),
    "init_tol": ("0.05", positive(number)),
    "sep_floor": ("1.9", positive(number)),
}


def _illposedness_frequency(n: int, s: float) -> tuple[int, float]:
    """Smallest N with t_n = pi N^{2s-1} / ((1+1/n)^2 - 1) at most 1/n."""
    gap = (1.0 + 1.0 / n) ** 2 - 1.0
    target = (math.pi * n / gap) ** (1.0 / (1.0 - 2.0 * s))
    N = max(1, math.ceil(target - 1e-12))
    t_n = math.pi * float(N) ** (2.0 * s - 1.0) / gap
    return N, t_n


def exp_illposedness(opt) -> Findings:
    """Explicit plane-wave pairs: data converge, solutions separate.

    For each n the pair a = 1, a~ = 1 + 1/n rides frequency N_n, chosen so the
    first time t_n at which the two nonlinear phase rotations are opposite
    satisfies t_n <= 1/n.  Initial distances scale like 1/n while distances at
    t_n reach <N>^s N^{-s} (2 + 1/n) >= 2.  Analytic values never touch the
    solver; a separate verdict confirms the solver reproduces them.
    """
    s, sign, n_list = opt.s, opt.sign, opt.n_list
    spec = NormSpec(s, opt.p)

    def run(n):
        N, t_n = _illposedness_frequency(n, s)
        if t_n > 1.0 / n + 1e-12:
            raise ConfigError(f"N rule produced t_n = {t_n} > 1/{n}")
        amp_a = 1.0
        amp_b = 1.0 + 1.0 / n
        scale = float(N) ** -s

        def exact_coeff(amp: float, t: float) -> complex:
            rate = amp**2 * float(N) ** (1.0 - 2.0 * s)
            return amp * scale * complex(
                np.exp(1j * (float(N) ** 3 + sign * rate) * t)
            )

        data_a = state_from_modes(N, {N: amp_a * scale})
        data_b = state_from_modes(N, {N: amp_b * scale})
        (initial_gap,) = _fl_gaps([data_a], [data_b], spec)
        analytic_gap = fl_norm(
            state_from_modes(
                N, {N: exact_coeff(amp_a, t_n) - exact_coeff(amp_b, t_n)}
            ),
            spec,
        )

        # nonlinear rotation rates fix the accuracy-driven step size
        rate_b = amp_b**2 * float(N) ** (1.0 - 2.0 * s)
        budget = (120.0 * (opt.agree_tol / 20.0) / (t_n * rate_b**5)) ** 0.25
        dt, save_every = _stable_schedule(data_b, t_n, opt.save_points, min(budget, t_n))

        traj_a, traj_b = raise_first_abort(solve_many(
            [data_a, data_b], [EquationSpec("mkdv", sign)] * 2, dt, t_n, save_every
        ))
        largest = 0.0
        for amp, trajectory in ((amp_a, traj_a), (amp_b, traj_b)):
            for st in trajectory.states:
                gap = float(japanese_bracket(N)) ** s * abs(
                    st.coeff(N) - exact_coeff(amp, st.time)
                )
                largest = max(largest, gap)
        (solver_gap,) = _fl_gaps([traj_a.final], [traj_b.final], spec)
        largest = max(largest, abs(solver_gap - analytic_gap))
        return N, t_n, initial_gap, analytic_gap, solver_gap, largest

    results = [run(n) for n in n_list]
    Ns = [r[0] for r in results]
    t_ns = [r[1] for r in results]
    initial_gaps = [r[2] for r in results]
    analytic_gaps = [r[3] for r in results]
    solver_gaps = [r[4] for r in results]
    agreement = max(r[5] for r in results)

    decay_dev = max(
        abs(
            gap * n / (float(japanese_bracket(N)) ** s * float(N) ** -s) - 1.0
        )
        for gap, n, N in zip(initial_gaps, n_list, Ns)
    )
    times_ok = all(b < a for a, b in zip(t_ns, t_ns[1:])) and all(
        t <= 1.0 / n + 1e-12 for t, n in zip(t_ns, n_list)
    )

    series = {
        "initial_distance": Series("n", "fl_gap", tuple(zip(n_list, initial_gaps))),
        "solution_distance": Series("n", "fl_gap", tuple(zip(n_list, analytic_gaps))),
        "solver_distance": Series("n", "fl_gap", tuple(zip(n_list, solver_gaps))),
        "critical_time": Series("n", "t_n", tuple(zip(n_list, t_ns))),
        "frequency": Series("n", "N_n", tuple(zip(n_list, (float(N) for N in Ns)))),
    }
    scalars = {
        "solver_agreement_max": agreement,
        "initial_decay_deviation": decay_dev,
        "min_solution_distance": min(analytic_gaps),
        "last_critical_time": t_ns[-1],
    }
    verdicts = (
        _at_most(
            opt, "initial_distances_decay", decay_dev, "init_tol",
            "relative deviation of n * initial gap from its exact prefactor",
        ),
        _at_least(opt, "solutions_separate", min(analytic_gaps), "sep_floor"),
        VerdictRecord(
            "critical_times_shrink", times_ok,
            "decreasing" if times_ok else "not decreasing", "N_rule",
            "t_n <= 1/n and strictly decreasing along n_list",
        ),
        _at_most(opt, "solver_matches_analytic", agreement, "agree_tol"),
    )
    return series, scalars, verdicts


# ---------------------------------------------------------------------------
# random-data momentum statistics


RANDOM_MOMENTUM_SCHEMA = {
    "samples": ("10000", _checked(integer, lambda n: n >= 100, "at least 100")),
    "n_max": ("1000", positive(integer)),
    "seed": ("0", nonnegative(integer)),
    "chunk": ("500", positive(integer)),
    "se_factor": ("4", positive(number)),
    "mean_se_factor": ("4", positive(number)),
    "control_samples": ("3", positive(integer)),
    "control_tol": ("1e-12", positive(number)),
    "crosscheck_tol": ("1e-10", positive(number)),
}


def exp_random_momentum(opt) -> Findings:
    """Monte Carlo second moment of the truncated momentum of random data.

    Draws u0_hat(n) = g_n / |n| with independent standard-normal real and
    imaginary parts.  Each |g_n|^2 has variance 4, the +n and -n lines are
    independent, so P(P_{<= n_max} u0) has mean 0 and second moment
    8 sum_{n <= n_max} n^{-2}.  A forced conjugate-symmetric control makes
    the momentum vanish identically, and the vectorized formula is checked
    against an assembled state once.
    """
    samples, n_max = opt.samples, opt.n_max

    rng = np.random.default_rng(opt.seed)
    inv_n = 1.0 / np.arange(1, n_max + 1, dtype=np.float64)
    chunks = []
    first_draw = None
    remaining = samples
    while remaining > 0:
        take = min(opt.chunk, remaining)
        g_plus = rng.standard_normal((take, n_max, 2))
        g_minus = rng.standard_normal((take, n_max, 2))
        if first_draw is None:
            first_draw = (g_plus[0].copy(), g_minus[0].copy())
        # a reduction, not BLAS's matrix-vector product, whose summation
        # order depends on the BLAS thread count
        weights = (g_plus**2).sum(axis=2) - (g_minus**2).sum(axis=2)
        chunks.append(np.add.reduce(weights * inv_n, axis=1))
        remaining -= take
    momenta = np.concatenate(chunks)

    sample_mean = float(np.mean(momenta))
    second_moment = float(np.mean(momenta**2))
    se_mean = float(np.std(momenta, ddof=1) / math.sqrt(samples))
    se_second = float(np.std(momenta**2, ddof=1) / math.sqrt(samples))
    target = float(8.0 * np.sum(inv_n**2))

    # one assembled state guards the vectorized formula against drift
    g_plus0, g_minus0 = first_draw
    coeffs = np.zeros(2 * n_max + 1, dtype=np.complex128)
    coeffs[n_max + 1 :] = (g_plus0[:, 0] + 1j * g_plus0[:, 1]) * inv_n
    coeffs[:n_max] = ((g_minus0[:, 0] + 1j * g_minus0[:, 1]) * inv_n)[::-1]
    crosscheck_gap = abs(momentum(FourierState(coeffs, n_max)) - momenta[0]) / (
        1.0 + abs(momenta[0])
    )

    control_max = 0.0
    for _ in range(opt.control_samples):
        g = rng.standard_normal((n_max, 2))
        sym = np.zeros(2 * n_max + 1, dtype=np.complex128)
        sym[n_max + 1 :] = (g[:, 0] + 1j * g[:, 1]) * inv_n
        sym[:n_max] = np.conj(sym[n_max + 1 :])[::-1]
        control_max = max(control_max, abs(momentum(FourierState(sym, n_max))))

    counts = np.arange(1, samples + 1, dtype=np.float64)
    running = np.cumsum(momenta**2) / counts
    stride = max(1, samples // 200)
    picks = list(range(stride - 1, samples, stride))
    if picks[-1] != samples - 1:
        picks.append(samples - 1)
    running_rows = tuple((float(counts[i]), float(running[i])) for i in picks)

    series = {"running_second_moment": Series("samples", "mean_P_sq", running_rows)}
    scalars = {
        "sample_mean": sample_mean,
        "second_moment": second_moment,
        "target_second_moment": target,
        "se_mean": se_mean,
        "se_second_moment": se_second,
        "crosscheck_gap": crosscheck_gap,
        "control_momentum_max": control_max,
    }
    verdicts = (
        VerdictRecord(
            "second_moment_matches",
            abs(second_moment - target) <= opt.se_factor * se_second,
            abs(second_moment - target) / max(se_second, 1e-300), "se_factor",
            "distance to the analytic value in standard errors",
        ),
        VerdictRecord(
            "mean_vanishes", abs(sample_mean) <= opt.mean_se_factor * se_mean,
            abs(sample_mean) / max(se_mean, 1e-300), "mean_se_factor",
        ),
        _at_most(opt, "formula_matches_state", crosscheck_gap, "crosscheck_tol"),
        _at_most(opt, "symmetric_control_vanishes", control_max, "control_tol"),
    )
    return series, scalars, verdicts


# ---------------------------------------------------------------------------
# high-frequency momentum drift


ENERGY_DRIFT_SCHEMA = {
    "variant": ("mkdv2", variant),
    "sign": ("+1", sign),
    "modes": ("128", positive(integer)),
    "ic": ("gaussian_bump:6,0.35,4", text),
    "cutoffs": ("8,16,32,64", ladder),
    "dt": ("2e-4", positive(number)),
    "T": ("1.0", positive(number)),
    "save_every": ("25", positive(integer)),
    "slope_max": ("-0.1", number),
    "noise_floor": ("1e-13", positive(number)),
}


def exp_energy_drift(opt) -> Findings:
    """Momentum above a cutoff moves less the higher the cutoff.

    One smooth solve; for each cutoff N the drift sup_t |P(P_{>N} u(t)) -
    P(P_{>N} u(0))| is measured and a log-log slope fitted.  The slope
    threshold is an artifact choice, not a value the source material
    quantifies; drifts at rounding scale pass as below noise.
    """
    cutoffs = opt.cutoffs
    if cutoffs[-1] >= opt.modes:
        raise ConfigError(
            f"cutoff {cutoffs[-1]} must stay below the mode cap {opt.modes}"
        )

    trajectory = solve(
        preset_state(opt.modes, opt.ic), EquationSpec(opt.variant, opt.sign), opt.dt,
        opt.T, opt.save_every,
    )
    times = trajectory.times

    series = {}
    drifts = []
    for cutoff in cutoffs:
        high0 = momentum(project_high(trajectory.initial, cutoff))
        gaps = [
            abs(momentum(project_high(st, cutoff)) - high0)
            for st in trajectory.states
        ]
        drifts.append(float(np.max(gaps)))
        series[f"drift_t_N{cutoff}"] = Series("t", "drift", tuple(zip(times, gaps)))
    series["drift_vs_cutoff"] = Series(
        "N", "sup_t_drift", tuple((float(N), d) for N, d in zip(cutoffs, drifts))
    )

    visible = [(N, d) for N, d in zip(cutoffs, drifts) if d > opt.noise_floor]
    scalars = {f"drift_N{N}": d for N, d in zip(cutoffs, drifts)}
    if len(visible) >= 2:
        slope = float(
            np.polyfit(
                np.log([float(N) for N, _ in visible]),
                np.log([d for _, d in visible]),
                1,
            )[0]
        )
        scalars["fitted_slope"] = slope
        verdict = _at_most(
            opt, "drift_decays_in_cutoff", slope, "slope_max",
            "log-log slope over cutoffs above the noise floor; threshold is an "
            "artifact choice",
        )
    else:
        verdict = VerdictRecord(
            "drift_decays_in_cutoff", True, "below noise", "noise_floor",
            "all drifts at rounding scale",
        )
    return series, scalars, (verdict,)


# ---------------------------------------------------------------------------
# a priori bound probe


APRIORI_SCHEMA = {
    "variant": ("mkdv1", variant),
    "s": ("0.6", positive(number)),
    "p": ("3", _checked(number, lambda p: p >= 2.0, "at least 2")),
    "sign": ("+1", sign),
    "modes": ("48", positive(integer)),
    "ic": ("random_smooth:1.2,7", text),
    "amplitudes": (
        "0.25,0.5,1.0,2.0,4.0", increasing(at_least(2, list_of(positive(number))))
    ),
    "dt": ("5e-4", positive(number)),
    "T": ("0.5", positive(number)),
    "save_every": ("10", positive(integer)),
    "growth_limit": ("1.5", positive(number)),
}


def exp_apriori_probe(opt) -> Findings:
    """Growth of sup_t FL norm against the shape (1+||u0||)^{p/2-1} ||u0||.

    Scales one smooth profile through a ladder of amplitudes and reports the
    ratio of the observed sup-in-time norm to the bound shape with unit
    constant; the family passes when every member finishes and the ratio
    stays stable under amplitude doubling.
    """
    p = opt.p
    if opt.s >= 1.0 - 1.0 / p:
        raise ConfigError(f"'s' must lie in (0, 1 - 1/p) = (0, {1.0 - 1.0/p:g})")

    spec = NormSpec(opt.s, p)
    base = preset_state(opt.modes, opt.ic)
    equation = EquationSpec(opt.variant, opt.sign)

    initials = [base.with_(coeffs=base.coeffs * amp) for amp in opt.amplitudes]
    outcomes = solve_many(
        initials, [equation] * len(initials), opt.dt, opt.T, opt.save_every
    )

    def summarize(amp, initial, outcome):
        if isinstance(outcome, SolverAbort):
            return amp, None, str(outcome), None
        norm0 = fl_norm(initial, spec)
        bound = (1.0 + norm0) ** (p / 2.0 - 1.0) * norm0
        norms = [fl_norm(st, spec) for st in outcome.states]
        return amp, float(np.max(norms)) / bound, None, tuple(
            zip(outcome.times, norms)
        )

    results = [
        summarize(amp, initial, outcome)
        for amp, initial, outcome in zip(opt.amplitudes, initials, outcomes)
    ]
    failures = [(amp, message) for amp, ratio, message, _ in results if ratio is None]
    ratios = [(amp, ratio) for amp, ratio, _, rows in results if ratio is not None]

    series = {
        "ratio_vs_amplitude": Series("amplitude", "ratio", tuple(ratios)),
    }
    for amp, ratio, _, rows in results:
        if rows is not None:
            series[f"norm_t_a{fmt17(amp)}"] = Series("t", "fl_norm", rows)
    scalars = {f"ratio_a{fmt17(amp)}": ratio for amp, ratio in ratios}
    if ratios:
        scalars["max_ratio"] = max(r for _, r in ratios)

    worst_quotient = 0.0
    for (_, ra), (_, rb) in zip(ratios, ratios[1:]):
        worst_quotient = max(worst_quotient, rb / max(ra, 1e-300))
    verdicts = (
        VerdictRecord(
            "family_completed", not failures,
            "all members" if not failures else f"{len(failures)} aborted",
            "amplitudes",
            "; ".join(f"amp {fmt17(amp)}: {msg}" for amp, msg in failures),
        ),
        VerdictRecord(
            "stable_under_doubling",
            bool(ratios) and not failures and worst_quotient <= opt.growth_limit,
            worst_quotient, "growth_limit",
            "largest ratio quotient across consecutive amplitudes",
        ),
    )
    return series, scalars, verdicts


# ---------------------------------------------------------------------------
# multiplier stabilization


MULTIPLIER_SCHEMA = {
    "pairs": ("0.5:2,0.75:8", distinct(some_of(sp_pair))),
    "n_list": ("0,32,-32,256,-256", at_least(1, list_of(_checked(
        integer, lambda n: abs(n) <= RESONANCE_DOMAIN, f"at most {RESONANCE_DOMAIN} in size"
    )))),
    "radii": ("64,128,256,512,1024,2048,4096", _checked(
        at_least(3, list_of(positive(integer))),
        lambda radii: all(b == 2 * a for a, b in zip(radii, radii[1:]))
        and radii[-1] <= J1_MAX_RADIUS,
        f"doubling at each step up to at most {J1_MAX_RADIUS}",
    )),
    "stab_tol": ("0.05", positive(number)),
}


def exp_multiplier_probe(opt) -> Findings:
    """Truncated multiplier sums stabilize as the summation radius doubles."""
    n_list, radii = opt.n_list, opt.radii

    values = {
        (s, p, n): tuple(j1_multiplier_sum(n, s, p, K) for K in radii)
        for s, p in opt.pairs
        for n in n_list
    }

    series = {}
    scalars = {}
    verdicts = []
    for s, p in opt.pairs:
        tag = f"s{fmt17(s)}_p{fmt17(p)}"
        worst_change = 0.0
        for n in n_list:
            sums = values[(s, p, n)]
            series[f"j1_{tag}_n{n}"] = Series(
                "K", "j1_sum", tuple((float(K), v) for K, v in zip(radii, sums))
            )
            for older, newer in ((sums[-3], sums[-2]), (sums[-2], sums[-1])):
                change = abs(newer - older) / max(abs(newer), 1e-12)
                worst_change = max(worst_change, change)
        scalars[f"sup_j1_{tag}"] = max(values[(s, p, n)][-1] for n in n_list)
        scalars[f"worst_change_{tag}"] = worst_change
        verdicts.append(_at_most(
            opt, f"stabilized_{tag}", worst_change, "stab_tol",
            "largest relative change over the last two doublings",
        ))
    return series, scalars, verdicts


# ---------------------------------------------------------------------------


EXPERIMENTS = {
    "conservation": (CONSERVATION_SCHEMA, exp_conservation),
    "gauge_equivalence": (GAUGE_EQUIVALENCE_SCHEMA, exp_gauge_equivalence),
    "nonexistence": (NONEXISTENCE_SCHEMA, exp_nonexistence),
    "illposedness": (ILLPOSEDNESS_SCHEMA, exp_illposedness),
    "random_momentum": (RANDOM_MOMENTUM_SCHEMA, exp_random_momentum),
    "energy_drift": (ENERGY_DRIFT_SCHEMA, exp_energy_drift),
    "apriori_probe": (APRIORI_SCHEMA, exp_apriori_probe),
    "multiplier_probe": (MULTIPLIER_SCHEMA, exp_multiplier_probe),
}


def run_experiment(name: str, overrides=None) -> ExperimentReport:
    """Parse the experiment's config, run its body and assemble the report."""
    if name not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r}; available: {', '.join(sorted(EXPERIMENTS))}"
        )
    schema, body = EXPERIMENTS[name]
    config, opt = parse_config(schema, overrides)
    series, scalars, verdicts = body(opt)
    digest = hashlib.sha256(
        canonical_json({"experiment": name, "parameters": config}).encode()
    ).hexdigest()
    provenance = {
        "seed": config.get("seed", config.get("seeds", "-")),
        "version": __version__,
        "config_digest": digest,
    }
    return ExperimentReport(name, config, series, scalars, tuple(verdicts), provenance)
