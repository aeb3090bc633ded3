"""Record reference.json: the reports that the deterministic workloads
(nonexistence_m512, multiplier_r2048) must reproduce, at full and tiny size.

    python3 perfbench/record_reference.py

Run from the repository root, on the commit whose output is the reference.
The checks compare verdicts exactly and pinned values to 1e-12 relative.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys
import tempfile

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402
from mkdvlab.cli import main  # noqa: E402


def record(cls, tiny: bool) -> dict:
    workload = cls(0, tiny)
    root = pathlib.Path(tempfile.mkdtemp(dir=BENCH_DIR))
    try:
        (argv,) = workload.commands(root)
        try:
            main(argv)
        except SystemExit as exc:
            if exc.code != workload.expected_exits[0]:
                raise
        return workloads.report_summary(workloads.read_report(root / "report"))
    finally:
        shutil.rmtree(root)


if __name__ == "__main__":
    reference = {
        cls.name: {size: record(cls, size == "tiny") for size in ("full", "tiny")}
        for cls in (workloads.NonexistenceM512, workloads.MultiplierR2048)
    }
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
