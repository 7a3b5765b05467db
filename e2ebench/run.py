#!/usr/bin/env python3
"""Build and run the SC-GNN end-to-end benchmark.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py compare <result-a.json> <result-b.json>

The first form configures and builds e2ebench/ (which builds the libraries
from the checkout) into .bench_build/e2ebench, runs one workload, keeps the
full record (provenance, checks, every metric) under .bench_build/results/,
and prints as its last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the `end_to_end` metrics of
BENCHMARK.json with --trace 0, its `per_layer` metrics with --trace 1.

The second form prints the per-metric ratio b/a of two kept records, and
refuses (exit 3) when their provenance differs in anything but the commit.
Standard library only.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Provenance fields two records must share before they are compared; the
# commit and source hash are what a comparison is about, so they may differ.
SAME_PROVENANCE = ("workload", "seed", "trace", "build_type", "native",
                   "kernels", "pool_width", "nproc")


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    # A configure that failed leaves a cache but no build system behind.
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD, "--target", "e2e_bench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "e2e_bench")


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_hash():
    """SHA-256 over the sources the benchmark builds from, so records from a
    checkout without git history still name the code they measured."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, d) for d in ("include", "src", "e2ebench")]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def run(args):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % done.returncode)
    for line in lines[:-1]:
        print(line)
    record = json.loads(lines[-1])
    record["provenance"]["commit"] = commit()
    record["provenance"]["source_sha256"] = source_hash()

    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            fail("metric %s missing from the run" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got

    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                       % (args.workload, args.seed, args.trace))
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("# provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print("# record: " + os.path.relpath(out, ROOT))
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))


def compare(path_a, path_b):
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    differ = [k for k in SAME_PROVENANCE
              if a["provenance"].get(k) != b["provenance"].get(k)]
    if differ:
        for k in differ:
            print("provenance differs in %s: %r vs %r"
                  % (k, a["provenance"].get(k), b["provenance"].get(k)))
        print("refusing to compare")
        sys.exit(3)
    print("%-34s %16s %16s %8s" % ("metric", "a", "b", "b/a"))
    for name, ma in sorted(a["metrics"].items()):
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print("%-34s %16.6g %16.6g %8.4f %s"
              % (name, ma["value"], mb["value"], ratio, ma["unit"]))


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare <result-a.json> <result-b.json>")
        compare(sys.argv[2], sys.argv[3])
        return
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run(p.parse_args())


if __name__ == "__main__":
    main()
