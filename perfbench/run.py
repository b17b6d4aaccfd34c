#!/usr/bin/env python3
"""Build and run the ERIC device-path benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <fleet_rollout|boot_suite|ota_patch> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (release profile, offline) into
$CARGO_TARGET_DIR, or perfbench/target when it is unset, then runs it with
the given arguments. Build output goes to stderr. The benchmark's standard
output is passed through; its last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Exits non-zero, without a
result line, when the build fails, a correctness check fails, or the result
line is malformed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def check_result(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"result line is not JSON: {e}")
    if not isinstance(result, dict) or sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result line must have exactly correct, attempted, failed and metrics")
    if result["correct"] is not True:
        fail("outputs were not correct")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number of at least 1")
    for name, metric in result["metrics"].items():
        if sorted(metric) != ["unit", "value"] or not isinstance(metric["value"], (int, float)):
            fail(f"metric {name} must be {{value, unit}} with a numeric value")


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")
    exe = os.path.join(target, "release", "eric-perfbench")
    try:
        bench = subprocess.run([exe, *sys.argv[1:]], stdout=subprocess.PIPE,
                               env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if bench.returncode != 0:
        fail(f"benchmark exited with code {bench.returncode}")
    lines = bench.stdout.decode().rstrip("\n").split("\n")
    check_result(lines[-1])
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
