#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload offline_draw --seed 1 --seconds 10 --trace 0

Builds perfbench/main.exe with dune (build output goes to stderr), runs
it, and passes its standard output through: the last line is the JSON
result. Exits non-zero, without a result line, when the build fails
(for instance outside a checkout of the repository).

    python3 perfbench/run.py --workload W --seed N --seconds S --check-repeat

runs the traced workload twice with the same seed and fails unless
every exact per-layer count is identical across the two runs.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175

# Per-layer metrics that are counts, not timings: a function of the
# code and the workload seed only, so two same-seed runs must agree.
EXACT = [
    "unigen.attempts_per_witness",
    "unigen.alloc_kwords_per_witness",
    "bsat.alloc_kwords_per_call",
    "bsat.models_per_witness",
    "solver.solve_calls_per_witness",
    "solver.conflicts_per_witness",
    "solver.propagations_per_witness",
    "solver.conflicts_per_prepare",
    "gauss.row_reductions_per_witness",
    "hxor.avg_xor_len",
    "approxmc.hash_sizes_per_count",
    "approxmc.cell_size_mean",
    "approxmc.alloc_mwords_per_count",
    "approxmc.log2_error",
]


def build():
    if not os.path.isfile("dune-project"):
        sys.exit("perfbench: run from the root of a repository checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if done.returncode != 0 or not os.path.isfile(EXE):
        sys.exit("perfbench: build failed")


def run(args, trace):
    """Runs the benchmark once; returns (exit code, stdout lines)."""
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    # its own process group, so a timeout also stops the daemon it forks
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench: run timed out")
    return proc.returncode, out.splitlines()


def check_repeat(args):
    results = []
    for _ in range(2):
        code, lines = run(args, 1)
        if code != 0 or not lines:
            print("\n".join(lines))
            sys.exit("perfbench: traced run failed")
        results.append(json.loads(lines[-1])["metrics"])
    differ = [m for m in EXACT if results[0][m]["value"] != results[1][m]["value"]]
    for m in EXACT:
        print(f"{m:36s} {results[0][m]['value']!r:>24} {results[1][m]['value']!r:>24}")
    if differ:
        sys.exit("perfbench: counts differ across same-seed runs: " + ", ".join(differ))
    print("perfbench: exact counts identical across two same-seed runs")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--check-repeat", action="store_true")
    args = p.parse_args()
    build()
    if args.check_repeat:
        check_repeat(args)
        return
    code, lines = run(args, args.trace)
    print("\n".join(lines), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
