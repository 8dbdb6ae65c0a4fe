#!/usr/bin/env python3
"""Entry point of the conv-io benchmark.

Run from the root of a conv-io checkout:

    python3 convbench/run.py --workload cold_tune --seed 1 --seconds 10 --trace 0

Builds the benchmark probe (convbench/bench.exe) and the conv_io daemon
with dune, runs one workload, and prints the probe's JSON result as the
last line of standard output.  Scratch files (caches, the daemon socket and
its log) go to .convbench_work/ in the checkout.  Exits non-zero, printing
no result, when the build, the run or the result fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("cold_tune", "warm_live", "model_sweep")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"convbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a conv-io checkout")
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("neither dune nor opam found on PATH")
    # Keep every build artefact inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    bench = os.path.join("_build", "default", "convbench", "bench.exe")
    daemon = os.path.join("_build", "default", "bin", "main.exe")
    try:
        build = subprocess.run(
            dune + ["build", "--root", ".", "./convbench/bench.exe", "./bin/main.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        fail("build failed")

    work = ".convbench_work"
    os.makedirs(work, exist_ok=True)
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", daemon, "--work", work]
    # Its own process group, so a timeout also stops the daemon it spawned.
    run = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        fail("workload timed out")
    lines = out.decode(errors="replace").strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"workload exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("workload printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        fail("malformed result")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
