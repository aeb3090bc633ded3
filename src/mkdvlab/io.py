"""Deterministic serialization: states, trajectories, series, reports.

Floats are written with 17 significant digits, which round-trips float64
exactly; JSON objects are emitted with sorted keys so identical inputs
yield identical bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import pathlib

import numpy as np

from .dynamics import EquationSpec, Trajectory
from .gauges import GaugeSpec
from .spectral import FourierState


def fmt17(value: float) -> str:
    """17-significant-digit decimal form; exact float64 round-trip."""
    return format(float(value), ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, 17-digit floats, 2-space indent."""
    pieces: list[str] = []
    _write_json(obj, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def _write_json(obj, out: list[str], depth: int) -> None:
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(inner + json.dumps(key) + ": ")
            _write_json(obj[key], out, depth + 1)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(inner)
            _write_json(item, out, depth + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not np.isfinite(value):
            raise ValueError("non-finite floats cannot be serialized")
        out.append(fmt17(value))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


@functools.lru_cache(maxsize=64)
def _csv_template(cap: int) -> str:
    """A state CSV for mode cap ``cap`` with ``%.17g`` (fmt17's form) for each value."""
    return "n,re,im\n" + "".join(f"{n},%.17g,%.17g\n" for n in range(-cap, cap + 1))


def state_to_csv_text(state: FourierState) -> str:
    """Header ``n,re,im``, then one ``n,re,im`` row per mode -M..M, each value fmt17."""
    return _csv_template(state.mode_cap) % tuple(state.coeffs.view(np.float64).tolist())


@functools.lru_cache(maxsize=64)
def _csv_mode_cells(cap: int) -> tuple[str, ...]:
    """Every third cell of a canonical CSV body split as in ``_canonical_csv``."""
    return (str(-cap), *(f"\n{n}" for n in range(1 - cap, cap + 1)), "\n")


# the ASCII characters besides "\n" at which str.splitlines breaks a line
# (isascii() rules out the others); text holding one goes to the line reader
_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"


def _canonical_csv(text: str):
    """``(coeffs, cap)`` of a CSV laid out exactly as the writer lays it out, else None.

    Only the numbers may differ from the writer's text.  Each is parsed as
    ``float`` parses it in the line reader, and both build each value from
    its two parts, so any text accepted here gives the line reader's state
    bit for bit.
    """
    if not (text.startswith("n,re,im\n") and text.isascii()):
        return None
    if any(ch in text for ch in _LINE_BREAKS):
        return None
    body = text[8:]
    # each line break becomes ",\n", so cell 3k holds row k's mode after a "\n"
    cells = body.replace("\n", ",\n").split(",")
    rows, rest = divmod(len(cells), 3)
    if rest != 1 or rows % 2 == 0 or body.count("\n") != rows:
        return None
    cap = rows // 2
    if tuple(cells[::3]) != _csv_mode_cells(cap):
        return None
    try:
        values = np.array([cells[1::3], cells[2::3]], dtype=np.float64)
    except ValueError:
        return None
    coeffs = np.empty(2 * cap + 1, dtype=np.complex128)
    coeffs.real, coeffs.imag = values
    return coeffs, cap


def state_from_csv_text(text: str, time: float = 0.0, source="state CSV") -> FourierState:
    canonical = _canonical_csv(text)
    if canonical is None:
        return _state_from_csv_lines(text, time, source)
    coeffs, cap = canonical
    return FourierState(coeffs, cap, time)


def _state_from_csv_lines(text: str, time: float, source) -> FourierState:
    """Line by line: any row order, blank lines, CRLF; names the first bad line.

    Each value is ``complex(re, im)``, which keeps both parts' bits: ``re +
    1j * im`` would read -0+0j as 0j and 1+infj as nan+infj.
    """
    rows: dict[int, complex] = {}
    lines = [(no, line.strip()) for no, line in enumerate(text.splitlines(), 1)
             if line.strip()]
    if not lines or lines[0][1].lower().replace(" ", "") != "n,re,im":
        raise ValueError(f"{source}: must start with header 'n,re,im'")
    for line_no, line in lines[1:]:
        try:
            n, real, imag = line.split(",")
            n, value = int(n), complex(float(real), float(imag))
        except ValueError:
            raise ValueError(f"{source}:{line_no}: bad row {line!r}") from None
        if n in rows:
            raise ValueError(f"{source}:{line_no}: mode {n} listed twice")
        rows[n] = value
    if not rows:
        raise ValueError(f"{source}: carries no modes")
    cap = max(abs(n) for n in rows)
    if sorted(rows) != list(range(-cap, cap + 1)):
        raise ValueError(f"{source}: must list every mode -M..M exactly once")
    coeffs = np.array([rows[n] for n in range(-cap, cap + 1)])
    return FourierState(coeffs, cap, time)


def _json_int(text: str):
    """A JSON integer; "-0", which is how fmt17 writes -0.0, stays -0.0."""
    return -0.0 if text == "-0" else int(text)


def _json_object(text: str, source) -> dict:
    try:
        payload = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source}: malformed JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{source}: expected a JSON object")
    return payload


def _field(payload: dict, key: str, convert, source):
    """``convert(payload[key])``, or a ValueError naming the source and key."""
    try:
        return convert(payload[key])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"{source}: missing or malformed field {key!r}") from None


def _integer(value) -> int:
    """``int(value)``, refusing booleans, strings and numbers with a fractional part."""
    if isinstance(value, (bool, str)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _count(value) -> int:
    count = _integer(value)
    if count < 0:
        raise ValueError(f"negative count {value!r}")
    return count


def _finite(value, low=-math.inf) -> float:
    if isinstance(value, (bool, str)) or not low < float(value) < math.inf:
        raise ValueError(f"{value!r} is not a finite number above {low}")
    return float(value)


def state_from_json_text(text: str, source="JSON state") -> FourierState:
    payload = {"time": 0.0, **_json_object(text, source)}
    cap = _field(payload, "mode_cap", _count, source)
    coeffs = np.zeros(2 * cap + 1, dtype=np.complex128)
    rows = _field(payload, "coeffs", lambda rows: [
        (_integer(n), complex(float(re), float(im))) for n, re, im in rows
    ], source)
    seen = set()
    for n, value in rows:
        if abs(n) > cap:
            raise ValueError(f"{source}: mode {n} exceeds mode_cap {cap}")
        if n in seen:
            raise ValueError(f"{source}: field 'coeffs' lists mode {n} twice")
        seen.add(n)
        coeffs[n + cap] = value
    return FourierState(coeffs, cap, _field(payload, "time", _finite, source))


def load_state(path) -> FourierState:
    path = pathlib.Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".json":
        return state_from_json_text(text, path)
    return state_from_csv_text(text, source=path)


def series_to_csv_text(xlabel: str, ylabel: str, rows) -> str:
    lines = [f"{xlabel},{ylabel}"]
    for x, y in rows:
        lines.append(f"{fmt17(x)},{fmt17(y)}")
    return "\n".join(lines) + "\n"


def trajectory_to_dir(trajectory: Trajectory, directory, extra_manifest=None) -> None:
    """Write manifest.json plus states/state_NNNNNN.csv under ``directory``."""
    directory = pathlib.Path(directory)
    states_dir = directory / "states"
    states_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "kind": "trajectory",
        "mode_cap": trajectory.mode_cap,
        "dt": trajectory.dt,
        "t0": trajectory.states[0].time,
        "num_states": len(trajectory),
        "equation": None
        if trajectory.equation is None
        else dataclasses.asdict(trajectory.equation),
        "metadata": trajectory.metadata,
    }
    if extra_manifest:
        for key, value in extra_manifest.items():
            manifest[key] = value
    (directory / "manifest.json").write_text(canonical_json(manifest))
    for k, state in enumerate(trajectory.states):
        (states_dir / f"state_{k:06d}.csv").write_text(state_to_csv_text(state))


def _metadata(value) -> dict:
    """A manifest's metadata: a JSON object whose gauge records all parse."""
    if not isinstance(value, dict):
        raise TypeError("metadata must be a JSON object")
    for record in value.get("gauges", []):
        GaugeSpec(record["which"], _integer(record["sign"]), _finite(record["scalar"]))
    return value


def trajectory_from_dir(directory) -> Trajectory:
    directory = pathlib.Path(directory)
    source = directory / "manifest.json"
    manifest = _json_object(source.read_text(), source)
    if manifest.get("kind") != "trajectory":
        raise ValueError(f"{directory} does not hold a trajectory")
    dt = _field(manifest, "dt", lambda value: _finite(value, 0.0), source)
    t0 = _field(manifest, "t0", _finite, source)
    count = _field(manifest, "num_states", _count, source)
    states = []
    for k in range(count):
        path = directory / "states" / f"state_{k:06d}.csv"
        states.append(state_from_csv_text(path.read_text(), t0 + k * dt, path))
    equation = None
    if manifest.get("equation"):
        equation = _field(
            manifest, "equation",
            lambda spec: EquationSpec(spec["variant"], _integer(spec["sign"])), source,
        )
    metadata = {}
    if manifest.get("metadata"):
        metadata = _field(manifest, "metadata", _metadata, source)
    return Trajectory(tuple(states), dt, equation, metadata)
