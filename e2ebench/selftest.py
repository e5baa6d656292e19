#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Usage (from the repository root):  python3 e2ebench/selftest.py

Builds the benchmark, then checks:
  1. seed determinism: the same seed gives byte-identical inputs (SHA-256
     of the generated inputs), a different seed different inputs;
  2. metric names: every name in BENCHMARK.json matches [A-Za-z0-9_.-]+
     and is unique, and each run reports exactly the listed metrics;
  3. smoke: a short untraced and traced run of every workload exits 0 with
     "correct": true and no failed request.
Exits 0 when all checks pass.
"""

import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own runner)

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def digest(workload, seed):
    out = subprocess.run([run.BINARY, "--workload", workload, "--seed",
                          str(seed), "--seconds", "1", "--inputs-digest"],
                         capture_output=True, text=True, check=True).stdout
    return out.strip()


def main():
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for group in ("end_to_end", "per_layer"):
        names = [m["name"] for m in spec[group]]
        check(all(NAME_RE.match(n) for n in names),
              "%s metric names match [A-Za-z0-9_.-]+" % group)
        check(len(names) == len(set(names)), "%s metric names unique" % group)
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.py")

    for workload in run.WORKLOADS:
        a, b, c = digest(workload, 7), digest(workload, 7), digest(workload, 8)
        check(a == b and len(a) == 64, "%s: seed 7 inputs identical" % workload)
        check(a != c, "%s: seed 8 inputs differ from seed 7" % workload)
        for trace in (0, 1):
            code, out = run.run(workload, 7, 0.2, trace)
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
            check(code == 0 and result.get("correct") is True
                  and result.get("failed") == 0
                  and result.get("attempted", 0) >= 1,
                  "%s trace=%d: smoke run correct" % (workload, trace))
            got = set(result.get("metrics", {}))
            check(got == expected[trace],
                  "%s trace=%d: reports exactly the listed metrics%s" %
                  (workload, trace,
                   "" if got == expected[trace] else
                   " (missing %s, extra %s)" % (sorted(expected[trace] - got),
                                                sorted(got - expected[trace]))))
    print("selftest %s" % ("FAILED: %d check(s)" % len(failures)
                           if failures else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
