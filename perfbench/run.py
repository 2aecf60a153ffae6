#!/usr/bin/env python3
"""Builds the benchmark from source, runs one workload, prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/ and runs the
benchmark's unit tests; later runs rebuild only what changed.  The last line
of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is the run's provenance: source revision, build type,
nproc, argv, seed, date, and the repetitions and sample counts behind the
metrics.  Traced runs also write
.bench_out/<workload>-seed<N>.trace.json (Chrome trace_event JSON of a
bounded sample of request spans, with the provenance and the result).
Exit codes: 0 ok; 1 an accounting check failed; 2 usage or missing sources;
3 build or unit tests failed; 4 malformed benchmark output or timeout.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def run_logged(cmd, **kwargs):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          **kwargs).returncode == 0


def build():
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                           "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    if not run_logged(["cmake", "--build", BUILD_DIR, "-j",
                       str(os.cpu_count() or 1)]):
        return False
    # The unit tests run once per new test binary.
    tests = os.path.join(BUILD_DIR, "perfbench_tests")
    stamp = tests + ".passed"
    if (not os.path.exists(stamp)
            or os.path.getmtime(stamp) < os.path.getmtime(tests)):
        if not run_logged([tests, "--gtest_brief=1"], timeout=120):
            log("benchmark unit tests failed")
            return False
        with open(stamp, "w"):
            pass
    return True


def source_digest():
    """sha256 over every file under src/ and perfbench/, in path order."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(HERE, "..", top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cmake_cache(name):
    """The value of `name` in the build tree's CMakeCache.txt, or None."""
    prefix = name + ":"
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(prefix):
                return line.rstrip("\n").split("=", 1)[1]
    return None


def provenance(args):
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "cxx_flags": cmake_cache("CMAKE_CXX_FLAGS"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "argv": sys.argv,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run, if any."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    args = parse_args(argv)
    if not build():
        return 3
    spans = None
    cmd = [os.path.join(BUILD_DIR, "arlo_perfbench"),
           "--workload=" + args.workload, "--seed=" + str(args.seed),
           "--seconds=" + str(args.seconds), "--trace=" + str(args.trace)]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, "%s-seed%d.trace.json"
                             % (args.workload, args.seed))
        cmd.append("--spans=" + spans)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload timed out after %d s" % RUN_TIMEOUT_S)
        return 4
    if proc.returncode not in (0, 1):
        log("benchmark exited with %d" % proc.returncode)
        return proc.returncode or 4
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        names = set(result["metrics"])
    except (IndexError, ValueError, AssertionError, TypeError) as e:
        log("malformed benchmark output: %r" % e)
        return 4
    expected = expected_metrics(args.trace)
    if expected is not None and names != expected:
        log("metrics differ from BENCHMARK.json: %s"
            % sorted(names.symmetric_difference(expected)))
        return 4
    prov = provenance(args)
    try:
        prov.update(json.loads(lines[-2])["info"])
    except (IndexError, ValueError, KeyError, TypeError):
        log("benchmark printed no sample counts")
        return 4
    if spans is not None:
        with open(spans) as f:
            trace = json.load(f)
        trace["provenance"] = prov
        trace["result"] = result
        with open(spans, "w") as f:
            json.dump(trace, f)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
