"""Run a fixed list of mkdvlab commands and keep every output, for diffing.

    python3 tools/golden.py SRC OUT

SRC is the package source directory of a checkout (its ``src``); it goes
first on sys.path.  OUT must not exist yet.  Each command runs in process
through ``mkdvlab.cli.main`` with OUT as the working directory, and
OUT/<command>.txt records its exit code, stdout and stderr with SRC replaced
by ``<src>``.  Before they run, OUT/state.json receives JSON_STATE, for the
command that reads a JSON state.  Warnings are recorded as category and
message only, so a moved source line does not show as a difference.
Run it on two checkouts and compare the two OUT trees with ``diff -r``.
"""

import contextlib
import io
import os
import pathlib
import sys
import warnings

REDUCED = ("modes=32 schedule=8,16 T=0.2 save_points=20 control_modes=16 "
           "control_schedule=8,16 mom_schedule=8,16,32,64,128").split()
NAMES = ("conservation gauge_equivalence nonexistence illposedness random_momentum "
         "energy_drift apriori_probe multiplier_probe").split()


def experiment(name, tag, *sets):
    return f"{name}{tag}", ["experiment", name, "--out", f"{name}{tag}"] + [
        arg for item in sets for arg in ("--set", item)]


COMMANDS = [experiment(name, "") for name in NAMES] + [
    # members listed out of variant order, which solve_many regroups
    experiment("conservation", "_unsorted", "variants=mkdv2,mkdv,mkdv1", "seeds=0,1",
               "T=0.2"),
    experiment("nonexistence", "_t0.01", "T=0.01", "save_points=2"),
    experiment("nonexistence", "_reduced", *REDUCED),
    # dt_cap below every cutoff's stable step, in both arms
    experiment("nonexistence", "_dtcap", *REDUCED, "dt_cap=2e-4", "sign=-1"),
    experiment("nonexistence", "_neg_schedule", *REDUCED, "schedule=-4,16"),
    experiment("nonexistence", "_neg_mom", *REDUCED, "mom_schedule=-1,8,16,32,64"),
    experiment("nonexistence", "_neg_control", *REDUCED, "control_schedule=-8,16"),
    experiment("apriori_probe", "_abort", "modes=16", "amplitudes=0.5,1.0,60",
               "dt=1e-3", "T=0.05", "save_every=10"),
    ("solve", "solve --ic random_smooth:1.5,0 --T 0.005 --out solved".split()),
    ("gauge_g1", "gauge --traj solved --which G1 --out g1".split()),
    ("gauge_g2", "gauge --traj solved --which G2 --out g2".split()),
    ("gauge_invert", "gauge --traj g1 --invert --out inverted".split()),
    ("norms", "norms --state inverted/states/state_000050.csv --p inf,2 "
              "--out norms.json".split()),
    # a cap far above the defaults, where a BLAS-threaded mass would move
    ("solve_big", "solve --modes 8192 --ic gaussian_bump:3000,1e-3 --T 1e-6 "
                  "--dt 1e-6 --out big".split()),
    ("norms_big", "norms --state big/states/state_000000.csv "
                  "--out big_norms.json".split()),
    ("norms_json", "norms --state state.json --s 0,0.5 --p 1,2,inf "
                   "--out json_norms.json".split()),
]

# cap 2 with mode 0 left out (it reads as zero) and -0 parts, as fmt17 writes -0.0
JSON_STATE = """{
  "coeffs": [[-2, 0.25, -0], [-1, 1.5, 0.75], [1, -0.5, 2], [2, -0, 0.125]],
  "mode_cap": 2,
  "time": 0.5
}
"""


def show_warning(message, category, *_):
    """Write category and message only; the source line moves between checkouts."""
    sys.stderr.write(f"{category.__name__}: {message}\n")


if __name__ == "__main__":
    src, out = (str(pathlib.Path(arg).resolve()) for arg in sys.argv[1:3])
    sys.path.insert(0, src)
    from mkdvlab.cli import main

    # a rerun into an old OUT would only record refusals of the existing runs
    if os.path.exists(out):
        sys.exit(f"{out} already exists; give a fresh OUT directory")
    os.makedirs(out)
    os.chdir(out)
    pathlib.Path("state.json").write_text(JSON_STATE)
    warnings.showwarning = show_warning
    for name, argv in COMMANDS:
        stdout, stderr, code = io.StringIO(), io.StringIO(), 0
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                main(argv)
            except SystemExit as exc:
                code = exc.code
        record = (f"exit {code}\n--- stdout\n{stdout.getvalue()}"
                  f"--- stderr\n{stderr.getvalue()}")
        pathlib.Path(f"{name}.txt").write_text(record.replace(src, "<src>"))
        print(name, code, flush=True)
