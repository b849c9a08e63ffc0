#!/usr/bin/env python3
"""Build and run the libcsr benchmark.

    python3 perfbench/run.py --workload paper-sim|kv-inproc|kv-wire \\
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the repository's libraries plus the csrbench
program, Release) into .bench_build/perfbench, runs one workload, checks
the digest of its deterministic counters against the value pinned in
perfbench/expected.json for that seed, and prints as the last line one
JSON object with "correct", "attempted", "failed" and "metrics": every
end_to_end metric of BENCHMARK.json with --trace 0, every per_layer
metric with --trace 1.  A per-layer metric of a layer the workload does
not cross (or one with too few samples) reads 0 there and "n/a" in the
report above it.

    python3 perfbench/run.py --pin 0-99

re-pins the counters of every workload for seeds 0..99 (run it only
when a change is meant to alter what the simulators and caches do).
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-run")
BINARY = os.path.join(BUILD, "csrbench")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("paper-sim", "kv-inproc", "kv-wire")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("the libcsr sources (src/) are not next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                die("build failed: " + " ".join(cmd))


def run_binary(args):
    os.makedirs(WORK, exist_ok=True)
    proc = subprocess.run([BINARY, "--work-dir", WORK] + args,
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        die("csrbench %s exited with %d" % (" ".join(args), proc.returncode))
    return lines[:-1], json.loads(lines[-1])


def load_expected():
    if not os.path.isfile(EXPECTED):
        return {}
    with open(EXPECTED) as f:
        return json.load(f)


def pin(spec):
    lo, _, hi = spec.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    expected = load_expected()
    pins = expected.setdefault("digests", {})
    for workload in WORKLOADS:
        for seed in seeds:
            _, res = run_binary(["--workload", workload, "--seed", str(seed),
                                 "--seconds", "1", "--trace", "0",
                                 "--counters-only"])
            if not res["correct"]:
                die("%s seed %d fails its checks: %s"
                    % (workload, seed, "; ".join(res["problems"])))
            pins.setdefault(workload, {})[str(seed)] = res["digest"]
            print(workload, seed, res["digest"], file=sys.stderr)
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", metavar="LO-HI")
    opts = parser.parse_args()

    build()
    if opts.pin:
        pin(opts.pin)
        return
    if not opts.workload:
        die("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer" if opts.trace else "end_to_end"]

    report, res = run_binary(["--workload", opts.workload,
                              "--seed", str(opts.seed),
                              "--seconds", str(opts.seconds),
                              "--trace", str(opts.trace)])
    for line in report:
        print(line)

    correct = res["correct"]
    failed = res["failed"]
    pinned = load_expected().get("digests", {}).get(opts.workload, {})
    digest = pinned.get(str(opts.seed))
    if digest is None:
        print("pinned counters: n/a (seed %d is not pinned)" % opts.seed)
    elif digest != res["digest"]:
        print("CHECK FAILED: counters digest %s, pinned %s (see %s)"
              % (res["digest"], digest,
                 os.path.join(WORK, "%s-seed%d.counters.txt"
                              % (opts.workload, opts.seed))))
        correct = False
        failed += 1
    else:
        print("pinned counters: match (%s)" % digest)

    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is not None and got["unit"] != m["unit"]:
            die("metric %s has unit %s, BENCHMARK.json says %s"
                % (m["name"], got["unit"], m["unit"]))
        if got is None:
            if not opts.trace:
                die("end-to-end metric %s was not measured" % m["name"])
            got = {"value": 0, "unit": m["unit"]}
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
