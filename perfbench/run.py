#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the benchmark and the
job server from source with dune into .bench_build/, runs
perfbench.exe (see perfbench/perfbench.ml), and prints that program's
result, one JSON object, as the last line of standard output. It exits
with the benchmark's code: 0 only when every output checked out. It
exits non-zero without printing a result when the checkout cannot be
built or the benchmark does not finish in time.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["bdd-lookahead", "table2-rewrite", "deep-blif", "serve-closed"]
BUILD_DIR = os.path.join(".bench_build", "dune")
BENCH = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
SERVER = os.path.join(BUILD_DIR, "default", "bin", "lookahead_serve.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def run_group(cmd, timeout, stdout=None):
    """Run cmd in its own process group; kill the whole group on timeout.
    Returns (exit code or None on timeout, captured stdout)."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True,
                            env=dict(os.environ, LOOKAHEAD_JOBS="1"))
    try:
        out, _ = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        out, code = None, None
    # Nothing the command started may outlive it.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return code, out


def build():
    for path in ("dune-project", "lib", os.path.join("bin", "lookahead_serve.ml"),
                 os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            log("%s is missing: run from the root of a full checkout" % path)
            return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
           "--cache=disabled", "--display=quiet",
           "./perfbench/perfbench.exe", "./bin/lookahead_serve.exe"]
    try:
        # Build output goes to stderr: stdout carries only the result.
        code, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
    except FileNotFoundError:
        log("dune is not installed")
        return False
    if code != 0:
        log("build failed" if code is not None else "build timed out")
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if not build():
        return 2
    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", SERVER]
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    if code is None:
        log("benchmark timed out after %d s" % RUN_TIMEOUT_S)
        return 3
    lines = out.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == RESULT_KEYS and result["metrics"]
    except (IndexError, ValueError, AssertionError):
        log("benchmark exited %d without a result" % code)
        return code or 4
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
