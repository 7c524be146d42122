#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, in short mode (a tenth of every simulated window).

Run from the repository root:

    python3 e2ebench/selftest.py

It checks, for every workload and both --trace modes, that two runs at one seed report
bit-identical simulated metrics; that a deliberately wrong --expect-checksum makes the
benchmark fail (negative control) while the right one passes; and that the benchmark refuses
to run when an environment knob would change the program under test. Exits non-zero on the
first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # Leave no __pycache__ in the checkout.
import run  # noqa: E402  (the build step lives there)

SEED = "3"


def bench(*args, env=None):
    cmd = [run.BINARY, "--seed", SEED, "--seconds", "0.5", "--short", "--out-dir", run.OUT_DIR]
    proc = subprocess.run(cmd + list(args), cwd=run.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env)
    return proc.returncode, proc.stdout


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def kinds(stdout):
    """Metric name -> kind ("sim" | "host"), from the human-readable metric tables."""
    out = {}
    in_table = False
    for line in stdout.splitlines():
        if line.endswith("metrics (name value unit kind note):"):
            in_table = True
            continue
        fields = line.split()
        if in_table and line.startswith("  ") and len(fields) >= 4:
            out[fields[0]] = fields[3]
        else:
            in_table = False
    return out


def line_value(stdout, prefix):
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line.split()[1]
    return None


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)
    print("ok: " + message)


def main():
    run.build()
    os.makedirs(run.OUT_DIR, exist_ok=True)

    for workload in run.WORKLOADS:
        for trace in ("0", "1"):
            runs = [bench("--workload", workload, "--trace", trace) for _ in range(2)]
            for code, out in runs:
                check(code == 0 and result(out)["correct"],
                      f"{workload} trace={trace} passes its output checks")
            first, second = (result(out)["metrics"] for _, out in runs)
            sim = [name for name, kind in kinds(runs[0][1]).items()
                   if kind == "sim" and name in first]
            check(len(sim) > 0, f"{workload} trace={trace} reports simulated metrics")
            differing = [name for name in sim if first[name] != second[name]]
            check(not differing,
                  f"{workload} trace={trace}: {len(sim)} simulated metrics bit-identical "
                  f"across two runs (differing: {differing})")

    code, out = bench("--workload", "movie-hmwrite-durable")
    checksum = line_value(out, "content_checksum")
    check(code == 0 and checksum is not None, "movie-hmwrite-durable prints its checksum")
    code, out = bench("--workload", "movie-hmwrite-durable", "--expect-checksum", checksum)
    check(code == 0 and result(out)["correct"], "the right expected checksum passes")
    wrong = format(int(checksum, 16) ^ 1, "016x")
    code, out = bench("--workload", "movie-hmwrite-durable", "--expect-checksum", wrong)
    check(code != 0 and not result(out)["correct"],
          "a wrong expected checksum fails the run (negative control)")

    env = dict(os.environ, HM_DURABLE="1")
    code, out = bench("--workload", "travel-hmread", env=env)
    check(code != 0 and out.strip() == "",
          "HM_DURABLE in the environment is refused")
    print("selftest passed")


if __name__ == "__main__":
    main()
