"""Span recorder for the traced run.

The tracer replaces module attributes that mkdvlab looks up at call time
with wrappers that record one span per call: layer name, start, end and
the enclosing span.  Spans stay in memory (compact typed arrays) and are
written once at the end.  A layer's self time is its spans' duration
minus the duration of their direct child spans.

Only names that exist are wrapped, so a layer that a later version of the
package removes or renames reads as zero calls instead of breaking the run.
"""

from __future__ import annotations

import array
import inspect
import os
import pathlib
import time

import numpy as np

#: (module, attribute, layer) for every call boundary the tracer wraps.
#: experiments, cli and gauges bind these names at import, so each binding
#: is wrapped where it is looked up.
BOUNDARIES = (
    ("scipy.fft", "fft", "fft"),
    ("scipy.fft", "ifft", "fft"),
    ("mkdvlab.dynamics", "solve", "dynamics.solve"),
    ("mkdvlab.experiments", "solve", "dynamics.solve"),
    ("mkdvlab.experiments", "j1_multiplier_sum", "dynamics.j1"),
    ("mkdvlab.cli", "trajectory_to_dir", "io.write"),
    ("mkdvlab.cli", "trajectory_from_dir", "io.read"),
    ("mkdvlab.cli", "load_state", "io.read"),
    ("mkdvlab.cli", "write_report", "experiments.report_write"),
    ("mkdvlab.cli", "run_experiment", "experiments"),
    ("mkdvlab.cli", "fl_norm", "norms.fl_norm"),
    ("mkdvlab.experiments", "fl_norm", "norms.fl_norm"),
    ("mkdvlab.dynamics", "fl_norm", "norms.fl_norm"),
    ("mkdvlab.cli", "mass", "norms.mass_momentum"),
    ("mkdvlab.cli", "momentum", "norms.mass_momentum"),
    ("mkdvlab.experiments", "mass", "norms.mass_momentum"),
    ("mkdvlab.experiments", "momentum", "norms.mass_momentum"),
    ("mkdvlab.gauges", "mass", "norms.mass_momentum"),
    ("mkdvlab.gauges", "momentum", "norms.mass_momentum"),
    ("mkdvlab.cli", "apply_gauge1", "gauges"),
    ("mkdvlab.cli", "apply_gauge2", "gauges"),
    ("mkdvlab.cli", "invert_gauge", "gauges"),
    ("mkdvlab.experiments", "apply_gauge1", "gauges"),
    ("mkdvlab.experiments", "apply_gauge2", "gauges"),
    ("mkdvlab.dynamics", "synthesis", "spectral"),
    ("mkdvlab.experiments", "project_low", "spectral"),
    ("mkdvlab.experiments", "project_high", "spectral"),
    ("mkdvlab.experiments", "state_from_modes", "spectral"),
    ("mkdvlab.cli", "preset_state", "presets"),
    ("mkdvlab.experiments", "preset_state", "presets"),
    ("mkdvlab.experiments", "parse_preset", "presets"),
)

#: IF-RK4 evaluates the right-hand side four times per step.
RHS_EVALS_PER_STEP = 4


def dir_size(path: pathlib.Path) -> tuple[int, int]:
    """(files, bytes) under ``path``; a single file counts as one."""
    if path.is_file():
        return 1, path.stat().st_size
    files = size = 0
    for base, _, names in os.walk(path):
        for name in names:
            files += 1
            size += os.stat(os.path.join(base, name)).st_size
    return files, size


class Tracer:
    """Records spans while installed; ``with tracer:`` installs the wrappers."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        #: per-span work: transform points (fft), steps (solve), terms (j1),
        #: files (io), states (gauges); zero elsewhere
        self.work = array.array("d")
        #: per-span second figure: transform length (fft), bytes (io)
        self.extra = array.array("d")
        self.aborts = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._abort_type: type = Exception

    def _open(self, layer: str) -> int:
        layer_id = self._layer_ids.setdefault(layer, len(self._layer_ids))
        if layer_id == len(self.layers):
            self.layers.append(layer)
        idx = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.work.append(0.0)
        self.extra.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer``."""
        idx = self._open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, layer: str, fn):
        if layer == "fft":
            return self._wrap_fft(fn)
        measure = _WORK.get(layer)
        signature = inspect.signature(fn) if measure else None

        def wrapper(*args, **kwargs):
            idx = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                if isinstance(exc, self._abort_type):
                    self.aborts += 1
                raise
            self._close(idx)
            if measure:
                bound = signature.bind(*args, **kwargs)
                self.work[idx], self.extra[idx] = measure(bound.arguments, result)
            return result

        return wrapper

    def _wrap_fft(self, fn):
        # the hot path: hundreds of thousands of calls, so no signature binding
        def wrapper(x, *args, **kwargs):
            idx = self._open("fft")
            try:
                return fn(x, *args, **kwargs)
            finally:
                self._close(idx)
                axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
                self.work[idx] = x.size
                self.extra[idx] = x.shape[axis]

        return wrapper

    def __enter__(self):
        import importlib

        from mkdvlab.errors import SolverAbort

        self._abort_type = SolverAbort
        for module_name, attr, layer in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        # copies, so the arrays stay appendable
        return {
            "layer": np.array(self.layer, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "work": np.array(self.work, dtype=np.float64),
            "extra": np.array(self.extra, dtype=np.float64),
        }

    def write(self, path: pathlib.Path) -> None:
        """Spans as .npz: per-span arrays plus the ``layers`` name table."""
        np.savez_compressed(path, layers=np.array(self.layers), **self.arrays())

    def summary(self) -> dict[str, dict]:
        """Per layer: calls, busy_s, self_s, work, extra, and span durations."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        nested = spans["parent"] >= 0
        child_time = np.zeros_like(duration)
        np.add.at(child_time, spans["parent"][nested], duration[nested])
        self_time = duration - child_time
        out = {}
        for layer_id, layer in enumerate(self.layers):
            mask = spans["layer"] == layer_id
            out[layer] = {
                "calls": int(mask.sum()),
                "busy_s": float(duration[mask].sum()),
                "self_s": float(self_time[mask].sum()),
                "work": float(spans["work"][mask].sum()),
                "extra": float(spans["extra"][mask].sum()),
                "durations": duration[mask],
            }
        return out

    def fft_figures(self) -> tuple[float, float]:
        """(FFT busy time inside solve spans, FLOPs of all FFTs at 5 K log2 K)."""
        spans = self.arrays()
        ids = self._layer_ids
        if "fft" not in ids:
            return 0.0, 0.0
        is_fft = spans["layer"] == ids["fft"]
        points, length = spans["work"][is_fft], spans["extra"][is_fft]
        flops = float(np.sum(5.0 * points * np.log2(np.maximum(length, 1.0))))
        if "dynamics.solve" not in ids:
            return 0.0, flops
        parent = spans["parent"]
        is_solve = spans["layer"] == ids["dynamics.solve"]
        under = np.zeros(len(parent), dtype=bool)
        ancestor = parent.copy()
        while (ancestor >= 0).any():
            live = ancestor >= 0
            under[live] |= is_solve[ancestor[live]]
            ancestor[live] = parent[ancestor[live]]
        duration = spans["end"] - spans["start"]
        return float(duration[is_fft & under].sum()), flops


def _solve_work(args, result):
    return round(float(args["horizon"]) / float(args["dt"])), 0.0


def _j1_work(args, result):
    return float((2 * int(args["radius"]) + 1) ** 2), 0.0


def _io_work(args, result):
    files, size = dir_size(pathlib.Path(args.get("directory", args.get("path"))))
    return float(files), float(size)


def _gauge_work(args, result):
    return float(len(result)), 0.0


_WORK = {
    "dynamics.solve": _solve_work,
    "dynamics.j1": _j1_work,
    "io.write": _io_work,
    "io.read": _io_work,
    "gauges": _gauge_work,
}


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Every per-layer metric; layers the workload never calls read zero."""
    layers = tracer.summary()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0.0, "extra": 0.0,
             "durations": np.zeros(0)}

    def get(name):
        return layers.get(name, empty)

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    fft, solve, j1 = get("fft"), get("dynamics.solve"), get("dynamics.j1")
    fft_in_solve, flops = tracer.fft_figures()
    steps = solve["work"]
    out = {
        "fft.calls": fft["calls"],
        "fft.busy_s": fft["busy_s"],
        "fft.points": fft["work"],
        "fft.flops_computed": flops,
        "fft.gflops": ratio(flops, fft["busy_s"]) / 1e9,
        "fft.share_of_solve": ratio(fft_in_solve, solve["busy_s"]),
        "dynamics.solve.calls": solve["calls"],
        "dynamics.solve.steps": steps,
        "dynamics.solve.busy_s": solve["busy_s"],
        "dynamics.solve.self_s": solve["self_s"],
        "dynamics.solve.aborts": tracer.aborts,
        "dynamics.rhs_evals": RHS_EVALS_PER_STEP * steps,
        "dynamics.step_us": ratio(solve["busy_s"], steps) * 1e6,
        "dynamics.step_nonfft_us": ratio(solve["busy_s"] - fft_in_solve, steps) * 1e6,
        "dynamics.j1.calls": j1["calls"],
        "dynamics.j1.busy_s": j1["busy_s"],
        "dynamics.j1.terms": j1["work"],
        "dynamics.j1.ns_per_term": ratio(j1["busy_s"], j1["work"]) * 1e9,
    }
    for direction in ("write", "read"):
        layer = get(f"io.{direction}")
        out.update({
            f"io.{direction}.calls": layer["calls"],
            f"io.{direction}.busy_s": layer["busy_s"],
            f"io.{direction}.files": layer["work"],
            f"io.{direction}.bytes": layer["extra"],
            f"io.{direction}.mb_per_s": ratio(layer["extra"], layer["busy_s"]) / 1e6,
        })
    fl, mm = get("norms.fl_norm"), get("norms.mass_momentum")
    fl_us = fl["durations"] * 1e6
    out.update({
        "experiments.report_write_s": get("experiments.report_write")["busy_s"],
        "norms.fl_norm.calls": fl["calls"],
        "norms.fl_norm.busy_s": fl["busy_s"],
        "norms.fl_norm.p50_us": float(np.percentile(fl_us, 50)) if fl["calls"] else 0.0,
        "norms.fl_norm.p90_us": float(np.percentile(fl_us, 90)) if fl["calls"] else 0.0,
        "norms.mass_momentum.calls": mm["calls"],
        "norms.mass_momentum.busy_s": mm["busy_s"],
        "gauges.calls": get("gauges")["calls"],
        "gauges.busy_s": get("gauges")["busy_s"],
        "gauges.states": get("gauges")["work"],
        "spectral.calls": get("spectral")["calls"],
        "spectral.busy_s": get("spectral")["busy_s"],
        "presets.calls": get("presets")["calls"],
        "presets.busy_s": get("presets")["busy_s"],
        "experiments.self_s": get("experiments")["self_s"],
        "cli.self_s": get("cli")["self_s"],
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return {k: float(v) for k, v in out.items()}


def layer_table(tracer: Tracer, wall: float) -> str:
    """Per-layer table (calls, busy, self, self share of the traced wall
    time), then the self share of each module, which sums its layers."""
    layers = tracer.summary()
    lines = [f"{'layer':<26}{'calls':>10}{'busy_s':>11}{'self_s':>11}{'self/wall':>11}"]
    modules: dict[str, float] = {}
    for layer, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{layer:<26}{row['calls']:>10}{row['busy_s']:>11.4f}"
            f"{row['self_s']:>11.4f}{row['self_s'] / wall:>11.1%}"
        )
        module = layer.split(".")[0]
        modules[module] = modules.get(module, 0.0) + row["self_s"]
    lines.append("module self share of wall: " + ", ".join(
        f"{module} {self_s / wall:.1%}"
        for module, self_s in sorted(modules.items(), key=lambda kv: -kv[1])
    ))
    return "\n".join(lines)
