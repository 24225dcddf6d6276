#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload roster --seed 1 --seconds 20 --trace 0

It builds the benchmark and the fault-campaign worker from source with
dune, runs perfbench.exe, and prints as the last line of stdout one JSON
object with the keys correct, attempted, failed and metrics. The metric
names and units come from BENCHMARK.json: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A per-layer metric the
workload does not exercise reads 0. Any error exits non-zero without a
result line.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170
BUILD_TARGETS = ["./perfbench/perfbench.exe", "./bench/main.exe"]
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run([dune, "build", "--root", "."] + BUILD_TARGETS,
                          env=env, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        fail("build failed")


def run(args):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--max-unattributed", str(args.max_unattributed)]
    # its own process group, so a timeout also stops the campaign workers
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("perfbench.exe exited with code %d" % proc.returncode)
    lines = stdout.strip().splitlines()
    if not lines:
        fail("perfbench.exe printed no result")
    return json.loads(lines[-1])


def result(spec, trace, out):
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in metrics}
    unknown = sorted(set(out["values"]) - names)
    if unknown:
        fail("values not declared in BENCHMARK.json: " + ", ".join(unknown))
    reported = {}
    for m in metrics:
        value = out["values"].get(m["name"])
        if value is None:
            if not trace:
                fail("end-to-end metric %s was not measured" % m["name"])
            value = 0
        reported[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"], "metrics": reported}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--max-unattributed", type=float, default=0.05,
                    help="largest share of traced wall time the spans may "
                         "leave unattributed")
    args = ap.parse_args()

    for path in ("BENCHMARK.json", "dune-project", "lib", "bench",
                 os.path.join("results", "baseline.json")):
        if not os.path.exists(path):
            fail("not at the root of a repository checkout: %s is missing"
                 % path)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    t0 = time.monotonic()
    build()
    print("perfbench: build took %.1f s" % (time.monotonic() - t0),
          file=sys.stderr)
    out = run(args)
    print(json.dumps(result(spec, args.trace == 1, out)))


if __name__ == "__main__":
    main()
