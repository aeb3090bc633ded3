"""mkdvlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload cli_roundtrip --seed 1 --seconds 25 --trace 0

Run from the repository root.  mkdvlab is imported from ``src/``; without
it the script exits with code 2 and prints no result.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` they are its per-layer ones, taken from a
traced iteration, and the span file and per-layer table are written too.

Each operation is one mkdvlab command, called in process through
``mkdvlab.cli.main``; it fails when it raises, returns another exit code
than expected, or fails its output check.  A warm-up iteration comes
first; timed iterations then repeat (at least MIN_ITERATIONS) while
another one fits in ``--seconds``, and set-up is timed last.  The
host-speed loops of calibrate.py run right before and right after every
timed region, and the time metrics are medians of the regions' times at
the reference speed.
Each iteration writes into its own temporary root under ``perfbench/out``,
deleted once the iteration is checked.
"""

from __future__ import annotations

import os

# Serial path and single-threaded BLAS/OpenMP, set before numpy loads.
THREAD_ENV = ("MKDV_LAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.pop("MKDV_LAB_THREADS", None)
for _name in THREAD_ENV[1:]:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from calibrate import Calibration  # noqa: E402

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: setup_s is the median of this many fresh-process set-ups
SETUP_PROBES = 5
#: wall_s is the median of at least this many timed iterations, after the
#: warm-up one
MIN_ITERATIONS = 2

# The probe prints time.perf_counter() once set up.  On Linux that is
# CLOCK_MONOTONIC, shared by all processes, so the parent can subtract its
# own reading taken just before the spawn; interpreter teardown stays out.
_SETUP_PROBE = (
    "import sys, time; sys.path[:0] = [{bench!r}, {src!r}]; import workloads; "
    "workloads.WORKLOADS[{name!r}]({seed}, {tiny}).setup(); print(time.perf_counter())"
)


def measure_setup(name: str, seed: int, tiny: bool,
                  calibration: Calibration) -> tuple[list[float], list[float]]:
    """(raw, scaled): seconds from process start until mkdvlab is imported
    and the inputs exist, once per fresh interpreter, as measured and at the
    reference host speed."""
    code = _SETUP_PROBE.format(bench=str(BENCH_DIR), src=str(SRC), name=name,
                               seed=seed, tiny=tiny)
    raw, scaled = [], []
    before = calibration.measure()
    for _ in range(SETUP_PROBES):
        began = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls in sleeps of up to 50 ms
        probe = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                               capture_output=True, text=True)
        raw.append(float(probe.stdout.split()[-1]) - began)
        after = calibration.measure()
        scaled.append(calibration.scale(raw[-1], before, after))
        before = after
    return raw, scaled


def run_command(main, argv: list[str], tracer) -> tuple[int | None, str, str]:
    """(exit code or None if it raised, captured stdout, error text)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            if tracer is None:
                main(argv)
            else:
                tracer.call("cli", main, argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) or exc.code is None else 1
        return code or 0, out.getvalue(), ""
    except Exception:  # a crashing command is a failed operation
        return None, out.getvalue(), traceback.format_exc()
    return 0, out.getvalue(), ""


def run_iteration(workload, main, root: pathlib.Path, index: int = 0, tracer=None,
                  after_commands=None, calibration: Calibration | None = None) -> dict:
    """Issue the workload's commands once, then check their output; the
    caller deletes ``root``.

    With ``calibration``, the host's speed is measured right before and
    right after the commands, and ``scaled_wall_s`` is their time at the
    reference speed.  ``after_commands(root)`` runs between the commands
    and the checks; the self-test uses it to corrupt an output file.
    """
    root.mkdir(parents=True)
    commands = workload.commands(root, index)
    results = []
    before = calibration.measure() if calibration is not None else None
    marks = [time.perf_counter()]
    with tracer if tracer is not None else contextlib.nullcontext():
        for argv in commands:
            results.append(run_command(main, argv, tracer))
            marks.append(time.perf_counter())
    wall = marks[-1] - marks[0]
    scaled = None
    if calibration is not None:
        scaled = calibration.scale(wall, before, calibration.measure())
    # taken before the checks, whose own allocations would count otherwise
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    files, size = spans.dir_size(root)
    if after_commands is not None:
        after_commands(root)
    failures = {}
    for index, ((code, _, error), expected) in enumerate(zip(results, workload.expected_exits)):
        if code != expected:
            failures[index] = f"exit code {code}, expected {expected}" + (f"\n{error}" if error else "")
    digits = None
    try:
        check_failures, digits = workload.check(root, [stdout for _, stdout, _ in results])
    except Exception:  # output missing or malformed: every command's check fails
        reason = "check raised:\n" + traceback.format_exc()
        check_failures = {index: reason for index in range(len(commands))}
    for index, reason in check_failures.items():
        failures.setdefault(index, reason)
    return {
        "wall_s": wall,
        "scaled_wall_s": scaled,
        "command_s": [b - a for a, b in zip(marks, marks[1:])],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(commands),
        "failed": len(failures),
        "failures": {commands[i][0] + f"#{i}": r for i, r in sorted(failures.items())},
        "out_files": files,
        "out_bytes": size,
        "digits": digits,
    }


def provenance(name: str, seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "workload": name,
        "seed": seed,
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "click")},
        "thread_env": {key: os.environ.get(key, "unset") for key in THREAD_ENV},
    }


def benchmark(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
              after_commands=None) -> tuple[dict, dict]:
    """Run one workload; return (result line, detail record)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[name](seed, tiny)
    setup_times = raw_setup = []

    from mkdvlab.cli import main

    OUT_DIR.mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    calibration = Calibration(workload.calibration)
    # set-up is interpreter start-up and imports: Python work
    setup_calibration = Calibration(("python",))
    try:
        samples = []
        if trace:
            samples.append(run_iteration(workload, main, tmp / "untraced"))
            tracer = spans.Tracer()
            samples.append(run_iteration(workload, main, tmp / "traced", 0, tracer,
                                         after_commands))
            values = spans.layer_metrics(tracer, samples[1]["wall_s"], samples[0]["wall_s"])
            tracer.write(OUT_DIR / f"spans-{name}.npz")
            print(f"per-layer table, {name} (traced wall {samples[1]['wall_s']:.3f} s):",
                  file=sys.stderr)
            print(spans.layer_table(tracer, samples[1]["wall_s"]), file=sys.stderr)
            wanted = spec["per_layer"]
        else:
            began = time.perf_counter()
            # warm-up: first-call costs stay out of the timed figures, and
            # no calibration has run yet, so peak memory is the commands' own
            samples.append(run_iteration(workload, main, tmp / "warmup", 0, None, after_commands))
            shutil.rmtree(tmp / "warmup")
            while True:
                start = time.perf_counter()
                root = tmp / f"it{len(samples)}"
                samples.append(run_iteration(workload, main, root, len(samples), None,
                                             after_commands, calibration))
                # deleted before its data reaches the disk, so that every
                # iteration starts with the file system in the same state
                shutil.rmtree(root)
                now = time.perf_counter()
                if len(samples) > MIN_ITERATIONS and now - began + (now - start) > seconds:
                    break
            raw_setup, setup_times = measure_setup(name, seed, tiny, setup_calibration)
            values = end_to_end(samples, setup_times)
            wanted = spec["end_to_end"]
    finally:
        # whatever a failed or traced run left; committing the deletion
        # before exit keeps it out of the next run
        shutil.rmtree(tmp, ignore_errors=True)
        out_fd = os.open(OUT_DIR, os.O_RDONLY)
        try:
            os.fsync(out_fd)
        finally:
            os.close(out_fd)

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    detail = {
        "provenance": provenance(name, seed),
        "seconds": seconds,
        "trace": int(trace),
        "calibration": {
            phase: {"kernels": list(cal.kernels), "reference_s": cal.reference_s,
                    "samples_s": cal.samples}
            for phase, cal in (("iterations", calibration), ("setup", setup_calibration))
        },
        "setup_s_samples": setup_times,
        "raw_setup_s_samples": raw_setup,
        "iterations": samples,
        "result": result,
    }
    return result, detail


def end_to_end(samples: list[dict], setup_times: list[float]) -> dict[str, float]:
    """The end-to-end metrics of a run whose first sample is the warm-up."""
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    digits = [s["digits"] for s in samples if s["digits"] is not None]
    return {
        "wall_s": statistics.median(s["scaled_wall_s"] for s in samples[1:]),
        "setup_s": statistics.median(setup_times),
        # the first iteration's figure precedes every check
        "peak_rss_mb": samples[0]["peak_rss_mb"],
        "ok_frac": 1.0 - failed / attempted,
        "out_files": statistics.median(s["out_files"] for s in samples),
        "out_mb": statistics.median(s["out_bytes"] for s in samples) / 1e6,
        # the worst iteration: on ensemble_m32, the worst of its eight seeds
        "digits": min(digits) if digits else 0.0,
    }


def main(argv=None, tiny: bool = False) -> int:
    """Command-line entry; ``tiny`` shrinks every workload for the self-test."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mkdvlab" / "__init__.py").is_file():
        print(f"no mkdvlab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    result, detail = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), tiny)
    record = OUT_DIR / f"result-{args.workload}-trace{args.trace}.json"
    record.write_text(json.dumps(detail, indent=2) + "\n")
    for key, value in detail["provenance"].items():
        print(f"{key}: {value}", file=sys.stderr)
    for metric, entry in result["metrics"].items():
        print(f"{metric:<28}{entry['value']:>16.6g} {entry['unit']}", file=sys.stderr)
    if not args.trace:
        timed = detail["iterations"][1:]
        print(f"{len(timed)} timed iterations; medians as measured, before scaling "
              f"to the reference speed: wall {statistics.median(s['wall_s'] for s in timed):.6g}"
              f" s, set-up {statistics.median(detail['raw_setup_s_samples']):.6g} s",
              file=sys.stderr)
    for sample in detail["iterations"]:
        for command, reason in sample["failures"].items():
            print(f"FAILED {command}: {reason}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
