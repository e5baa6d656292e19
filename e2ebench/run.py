#!/usr/bin/env python3
"""End-to-end authorization benchmark: build, run one workload, report.

Usage (from the repository root):

    python3 e2ebench/run.py --workload <authz_mixed|cred_import|binder_exchange>
                            --seed <n> --seconds <s> --trace <0|1>

Configures and builds the benchmark (a Release build of the lbtrust
libraries plus e2ebench/bench/*.cc) under .bench_build/e2ebench, then runs
one workload. Output lines are human-readable; the last line is the JSON
result object. The exit code is the benchmark's: 0 only when every
request returned the expected verdict. With --trace 1 the Chrome
trace-event file lands in .bench_build/traces/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
WORKLOADS = ("authz_mixed", "cred_import", "binder_exchange")
# A run measures for --seconds, plus input generation, a warm-up pass and
# the last pass's overrun; allow twice the measured time and a minute.
SETUP_ALLOWANCE_S = 60


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; exits on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("e2ebench: no lbtrust source tree at %s" % ROOT)
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2e_bench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("e2ebench: build step failed: %s" % " ".join(cmd))
            sys.exit(2)


def source_sha():
    """The git commit of the tree, or "unknown" outside a git checkout.
    The ceiling keeps git from reporting an enclosing repository's commit."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def run(workload, seed, seconds, trace):
    """Runs the built binary; returns (exit code, stdout text)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--sha", source_sha()]
    if trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, "%s-seed%d.json" % (workload, seed))]
    timeout = 2 * seconds + SETUP_ALLOWANCE_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:
        out = e.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        return 3, out + "error run exceeded %gs\n" % timeout
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    build()
    code, out = run(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    if code != 0:
        log("e2ebench: %s exited with %d" % (args.workload, code))
        return code if code > 0 else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
