"""Run a fixed list of mkdvlab commands and keep every output, for diffing.

    python3 tools/golden.py SRC OUT

SRC is the package source directory of a checkout (its ``src``); it goes
first on sys.path.  OUT must not exist yet.  Each command runs in process
through ``mkdvlab.cli.main`` with OUT as the working directory, and
OUT/<command>.txt records its exit code, stdout and stderr with SRC replaced
by ``<src>``; the ``--help`` commands print as the ``mkdvlab`` script
would, wrapped at 80 columns.  Before they run, OUT receives the INPUTS
files that some commands read: a JSON state, a state CSV that only the
line-by-line reader accepts, one naming a single huge mode, one holding a
NaN, one holding 1e300 and one holding inf, a JSON state with a huge mode
cap, and a solve config file.
Warnings are recorded as category and message only, so a moved source
line does not show as a difference.
Run it on two checkouts and compare the two OUT trees with ``diff -r``.
"""

import contextlib
import io
import os
import pathlib
import sys
import warnings

REDUCED = ("modes=32 schedule=4,8,16 T=0.2 save_points=20 control_modes=16 "
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
    # mkdv1 and mkdv2 rows at sign -1 (the default variants are all three)
    experiment("conservation", "_neg_sign", "sign=-1", "seeds=0", "T=0.1"),
    experiment("nonexistence", "_t0.01", "T=0.01", "save_points=2"),
    experiment("nonexistence", "_reduced", *REDUCED),
    # four momentum cutoffs, the fewest mom_schedule takes
    experiment("nonexistence", "_short_mom", *REDUCED, "mom_schedule=32,64,128,256"),
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
    ("norms_csv", "norms --state state.csv --s 0,0.5 --p 1,2,inf "
                  "--out csv_norms.json".split()),
    # the flag overrides the file's T
    ("solve_config", "solve --config solve.cfg --T 0.002 --out configured".split()),
    # blows up: exits 2 and writes the partial trajectory with its abort
    ("solve_abort", "solve --modes 16 --ic gaussian_bump:3,2 --dt 0.01 --T 0.5 "
                    "--out aborted".split()),
    ("norms_pretty", "norms --state solved/states/state_000050.csv --pretty".split()),
    # an explicit sign that agrees with the trajectory, then one that does not
    ("gauge_sign_plus", "gauge --traj configured --which G1 --sign +1 "
                        "--out g1_plus".split()),
    ("gauge_sign_minus", "gauge --traj configured --which G1 --sign -1 "
                         "--out g1_minus".split()),
    ("help", ["--help"]),
] + [(f"help_{name}", [name, "--help"])
      for name in ("solve", "gauge", "norms", "experiment")]
# last, so the commands before them stay comparable with a checkout that
# escapes main on one of them
COMMANDS += [
    ("norms_huge_mode", "norms --state huge_mode.csv".split()),
    ("norms_huge_cap", "norms --state huge_cap.json".split()),
    experiment("illposedness", "_near_half", "s=0.4999"),
    experiment("apriori_probe", "_zero", "ic=zero"),
    experiment("multiplier_probe", "_overflow", "pairs=-400:2", "n_list=0", "radii=8,16,32"),
    experiment("multiplier_probe", "_repeat_n", "n_list=0,0", "radii=8,16,32"),
    # coefficients that overflow float64: refused where the preset is built
    ("solve_overflow_ic", "solve --modes 4 --ic one_sided:-1000 --T 0.002 "
                          "--dt 1e-3 --out overflow".split()),
    # a NaN mass and momentum, written to JSON as text
    ("norms_nan_out", "norms --state nan_state.csv --out nan_norms.json".split()),
    # cutoff 0: a rung at mode cap 0, below pairing mode 1: exit 1
    experiment("nonexistence", "_zero_cutoff", *REDUCED, "schedule=0,8,16"),
    # squares that overflow, and an inf mass with a nan momentum: no warnings
    ("norms_overflow", "norms --state big_coeff.csv".split()),
    ("norms_inf_out", "norms --state inf_state.csv --out inf_norms.json".split()),
    # pairing mode 5 beyond cap 4 of the rung at cutoff 2: exit 1
    experiment("nonexistence", "_small_rung", *REDUCED, "schedule=2,8,16", "pairing_mode=5"),
    # a trajectory that records no gauge has none to undo: exit 1
    ("gauge_invert_ungauged", "gauge --traj solved --invert --out ungauged".split()),
    # more than MAX_STEPS = 2^31 steps, or a step count that overflows: exit 1
    ("solve_tiny_dt", "solve --modes 4 --ic zero --T 1 --dt 1e-300 --out tiny_dt".split()),
    ("solve_huge_T", "solve --modes 4 --ic zero --T 1e300 --dt 1e-10 --out huge_T".split()),
    experiment("illposedness", "_tiny_tol", "agree_tol=1e-300"),
    # one drift above noise_floor, at the smallest cutoff: passes, with no slope
    experiment("energy_drift", "_one_visible", "cutoffs=32,64"),
    # an output name past the file system's 255-byte limit: exit 1, one line
    ("solve_long_out", "solve --modes 4 --ic zero --T 0.002 --dt 1e-3 --out".split()
     + ["x" * 300]),
]

INPUTS = {
    # cap 2 with mode 0 left out (it reads as zero) and -0 parts, as fmt17
    # writes -0.0
    "state.json": """{
  "coeffs": [[-2, 0.25, -0], [-1, 1.5, 0.75], [1, -0.5, 2], [2, -0, 0.125]],
  "mode_cap": 2,
  "time": 0.5
}
""",
    # the same state with CRLF line ends, rows out of order and a blank line
    "state.csv": "n,re,im\r\n2,-0,0.125\r\n-2,0.25,-0\r\n\r\n1,-0.5,2\r\n"
                 "0,0,0\r\n-1,1.5,0.75\r\n",
    "solve.cfg": "# plane wave under mkdv2\neq = mkdv2\nmodes = 8\ndt = 1e-3\n"
                 "T = 0.01\nic = plane_wave:2,1,0\n",
    # one row naming mode 2^62: refused by its row count, exit 1
    "huge_mode.csv": "n,re,im\n4611686018427387904,0,0\n",
    # cap 1 with a NaN mode 0, which the reader accepts
    "nan_state.csv": "n,re,im\n-1,0,0\n0,nan,0\n1,0.5,0\n",
    # mode_cap 2^62, too large to allocate: refused naming the file, exit 1
    "huge_cap.json": '{"coeffs": [], "mode_cap": 4611686018427387904}\n',
    # cap 1 with a mode 0 of 1e300, whose square overflows
    "big_coeff.csv": "n,re,im\n-1,0,0\n0,1e300,0\n1,0.5,0\n",
    # cap 1 with an infinite mode 0
    "inf_state.csv": "n,re,im\n-1,0,0\n0,inf,0\n1,0.5,0\n",
}


def show_warning(message, category, *_):
    """Write category and message only; the source line moves between checkouts."""
    sys.stderr.write(f"{category.__name__}: {message}\n")


if __name__ == "__main__":
    src, out = (str(pathlib.Path(arg).resolve()) for arg in sys.argv[1:3])
    # help text as the console script prints it, wrapped at a fixed width
    sys.argv[0] = "mkdvlab"
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, src)
    from mkdvlab.cli import main

    # a rerun into an old OUT would only record refusals of the existing runs
    if os.path.exists(out):
        sys.exit(f"{out} already exists; give a fresh OUT directory")
    os.makedirs(out)
    os.chdir(out)
    for filename, content in INPUTS.items():
        pathlib.Path(filename).write_bytes(content.encode())
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
