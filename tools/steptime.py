"""Time one IF-RK4 step of two source trees, in fresh processes that alternate.

    python3 tools/steptime.py SRC_A SRC_B [--cap 32] [--members mkdv:1,mkdv1:1,mkdv2:1]
                              [--steps 2000] [--runs 3]

SRC_A and SRC_B are package source directories (a checkout's ``src``; give
the same one twice to time a tree against itself).  Each run starts one
process per tree, A then B.  A process builds the stepper for the members
(variant:sign pairs, grouped by variant as ``solve_many`` groups them) with
dt = 1e-5, from random_smooth:1.5,3 data scaled by 1, 1.5, 2, ... per
member.  It takes one step to warm up, then times BLOCKS blocks of
``--steps`` steps, carrying the state on.  For each tree the script prints
the median and quartiles of the per-step time over every block of every
run, and the numpy and pocketfft operations of one step, counted by tracing
it (see ``count_calls``).
"""

import argparse
import dis
import json
import statistics
import subprocess
import sys
import time

BLOCKS = 7
DT = 1e-5
COUNTED = {dis.opmap[name] for name in
           ("CALL", "CALL_KW", "CALL_FUNCTION_EX", "STORE_SUBSCR", "BINARY_OP")
           if name in dis.opmap}


def count_calls(advance, u) -> int:
    """Array operations of one ``advance(u)`` in the frames of its module:
    calls, slice stores and binary operators, less the calls into Python
    functions and into builtins (``len``, dict methods)."""
    module = advance.__code__.co_filename
    count = 0

    def opcode(frame, event, arg):
        nonlocal count
        if event == "opcode" and frame.f_code.co_code[frame.f_lasti] in COUNTED:
            count += 1
        return opcode

    def trace(frame, event, arg):
        nonlocal count
        if frame.f_code.co_filename != module:
            return None
        count -= frame.f_back.f_code.co_filename == module
        frame.f_trace_opcodes = True
        return opcode

    def profile(frame, event, arg):
        nonlocal count
        if event == "c_call" and frame.f_code.co_filename == module:
            owner = getattr(arg, "__module__", None) or type(arg.__self__).__module__
            count -= owner == "builtins"

    sys.settrace(trace)
    sys.setprofile(profile)
    try:
        advance(u)
    finally:
        sys.setprofile(None)
        sys.settrace(None)
    return count


def child(src: str, cap: int, members: str, steps: int) -> dict:
    sys.path.insert(0, src)
    import numpy as np
    from mkdvlab import dynamics
    from mkdvlab.presets import preset_state

    equations = [dynamics.EquationSpec(variant, int(sign))
                 for variant, sign in (item.split(":") for item in members.split(","))]
    equations.sort(key=lambda eq: dynamics.VARIANTS.index(eq.variant))
    base = preset_state(cap, "random_smooth:1.5,3").coeffs
    u = np.array([base * (1.0 + 0.5 * b) for b in range(len(equations))])
    advance = dynamics._ifrk4_stepper(cap, equations, DT)
    u = advance(u)
    per_step = []
    for _ in range(BLOCKS):
        start = time.perf_counter()
        for _ in range(steps):
            u = advance(u)
        per_step.append((time.perf_counter() - start) / steps)
    return {"per_step": per_step, "calls": count_calls(advance, u)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs=2, metavar="SRC")
    parser.add_argument("--cap", type=int, default=32)
    parser.add_argument("--members", default="mkdv:1,mkdv1:1,mkdv2:1")
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.trees[0], args.cap, args.members, args.steps)))
        return 0
    options = ["--cap", str(args.cap), "--members", args.members, "--steps", str(args.steps)]
    per_step, calls = {"A": [], "B": []}, {}
    for _ in range(args.runs):
        for label, src in zip("AB", args.trees):
            done = subprocess.run([sys.executable, __file__, src, src, "--child", *options],
                                  stdout=subprocess.PIPE, text=True, check=True)
            outcome = json.loads(done.stdout)
            per_step[label] += outcome["per_step"]
            calls[label] = outcome["calls"]
    print(f"cap {args.cap}, members {args.members}, {args.runs} run(s) of "
          f"{BLOCKS} x {args.steps} steps per tree")
    print("tree  median_us    q1_us    q3_us  calls/step  src")
    for label, src in zip("AB", args.trees):
        q1, median, q3 = (1e6 * q for q in statistics.quantiles(
            per_step[label], n=4, method="inclusive"))
        print(f"{label}     {median:9.2f}  {q1:7.2f}  {q3:7.2f}  {calls[label]:>10}  {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
