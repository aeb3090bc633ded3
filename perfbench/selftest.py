"""Self-test of the benchmark: every workload at a tiny size, in a few seconds.

    python3 perfbench/selftest.py

Run from the repository root.  For each workload and both trace modes it
checks that the result line is well formed, that every metric of
BENCHMARK.json is printed with its name and unit, and that the run is
correct.  Then it corrupts one coefficient in a trajectory that
cli_roundtrip wrote and checks that exactly that operation is counted as
failed.  Exits 1 on the first problem.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def printed_result(argv: list[str]) -> dict:
    """Run run.py's entry point at tiny size; parse its last stdout line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, tiny=True)
    assert code == 0, f"{argv}: exit code {code}"
    return json.loads(out.getvalue().splitlines()[-1])


def check_result(label: str, result: dict, wanted: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0, f"{label}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    names = [m["name"] for m in wanted]
    assert list(result["metrics"]) == names, f"{label}: metrics {list(result['metrics'])}"
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"], f"{label}: {metric['name']} unit {entry}"
        assert isinstance(entry["value"], (int, float)), f"{label}: {metric['name']} {entry}"


def corrupt_one_coefficient(root: pathlib.Path) -> None:
    """Change the real part of one mode in one middle state of the inverted
    trajectory; the final state, which ``norms`` read, stays intact."""
    path = root / "inverted" / "states" / "state_000001.csv"
    lines = path.read_text().splitlines()
    n, re, im = lines[5].split(",")
    lines[5] = f"{n},{float(re) + 1e-6!r},{im}"
    path.write_text("\n".join(lines) + "\n")


def main() -> int:
    try:
        for name in workloads.WORKLOADS:
            for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
                argv = ["--workload", name, "--seed", "3", "--seconds", "0.1",
                        "--trace", str(int(trace))]
                check_result(f"{name} trace={int(trace)}", printed_result(argv), SPEC[kind])
                print(f"ok {name} trace={int(trace)}")

        result, detail = run.benchmark(
            "cli_roundtrip", seed=3, seconds=0.1, trace=False, tiny=True,
            after_commands=corrupt_one_coefficient,
        )
        failures = [sample["failures"] for sample in detail["iterations"]]
        assert result["failed"] == len(failures), failures
        assert all(list(f) == ["gauge#2"] for f in failures), failures
        ok_frac = result["metrics"]["ok_frac"]["value"]
        assert ok_frac == 0.75, ok_frac
        print("ok corrupted coefficient counted: ok_frac", ok_frac)
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
