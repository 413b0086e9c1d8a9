#!/usr/bin/env python3
"""Build and run the odmpi host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload nas_comm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds the library and the perfbench binary
from source with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later calls only rebuild what changed. The
binary's stdout is passed through; its last line is the JSON result. The
exit code is non-zero when the build fails, an output check fails, or the
run exceeds its time limit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    """Configures (once) and builds; returns the binary's path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                return fail_build(out, log_path)
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            return fail_build(out, log_path)
    return os.path.join(out, "perfbench")


def fail_build(out, log_path):
    # A failed configure must not leave a cache that skips it next time.
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        os.remove(cache)
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-30:]))
    sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
    return None


def run_bench(exe, args, capture=False):
    """Runs the binary; returns (exit code, stdout or None)."""
    try:
        proc = subprocess.run([exe] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3, None
    return proc.returncode, proc.stdout


def self_test(exe):
    """The binary's own checks, then metric names against BENCHMARK.json."""
    problems = 0
    code, _ = run_bench(exe, ["--self-test"])
    if code != 0:
        problems += 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(BENCH_DIR, "metrics.json")) as f:
        notes = json.load(f)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    undocumented = [n for n in names if n not in notes["metrics"]]
    undocumented += [w["name"] for w in spec["workloads"]
                     if w["name"] not in notes["workloads"]]
    print("self-test: %-4s metrics.json documents every metric and workload%s"
          % ("FAIL" if undocumented else "ok",
             " (missing %s)" % undocumented if undocumented else ""))
    problems += bool(undocumented)
    for w in spec["workloads"]:
        fingerprints = []
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = tiny_run(exe, w["name"], trace)
            if trace == "0":
                fingerprints.append(fingerprint(out))
            result = json.loads(out.strip().splitlines()[-1]) if out else {}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            ok = code == 0 and result.get("correct") is True and got == want
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                print("self-test: missing %s extra %s" % (missing, extra))
            print("self-test: %-4s %s --trace %s prints every %s metric" %
                  ("ok" if ok else "FAIL", w["name"], trace, key))
            problems += not ok
        # Unlike the in-process comparison, two fresh processes must agree
        # on every workload, rendezvous ones included.
        fingerprints.append(fingerprint(tiny_run(exe, w["name"], "0")[1]))
        ok = fingerprints[0] is not None and fingerprints[0] == fingerprints[1]
        print("self-test: %-4s %s: fingerprint equal across two processes "
              "(%s, %s)" % ("ok" if ok else "FAIL", w["name"], *fingerprints))
        problems += not ok
    return 0 if problems == 0 else 1


def tiny_run(exe, workload, trace):
    return run_bench(exe, ["--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", trace,
                           "--size", "tiny"], capture=True)


def fingerprint(out):
    """The hash from a run's '# fingerprint <workload> <hex>' line."""
    for line in (out or "").splitlines():
        if line.startswith("# fingerprint "):
            return line.split()[-1]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    exe = build()
    if exe is None:
        return 2
    if args.self_test:
        return self_test(exe)
    runs = os.path.join(build_dir(), "runs")
    os.makedirs(runs, exist_ok=True)
    spans = os.path.join(runs, "%s-seed%d-trace%s.json" %
                         (args.workload, args.seed, args.trace))
    code, _ = run_bench(exe, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--spans", spans])
    return code


if __name__ == "__main__":
    sys.exit(main())
