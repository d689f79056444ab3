#!/usr/bin/env python3
"""Build and run the rcuarray benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. Builds `perfbench` (a workspace of its
own, so nothing else is compiled into the measured binary) with cargo into
$CARGO_TARGET_DIR (default: .bench_build), runs it, checks that its result
names exactly the metrics BENCHMARK.json lists for the requested mode, and
prints the result as the last line of standard output. Exits non-zero, with
no result, when the tree cannot be built, an output check fails or the
result is malformed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = [
    "cargo", "build", "--release", "--offline", "--locked",
    "--manifest-path", "perfbench/Cargo.toml", "-p", "perfbench",
]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def arg(argv, name):
    try:
        return argv[argv.index(name) + 1]
    except (ValueError, IndexError):
        fail(f"missing {name}; usage: {__doc__.strip().splitlines()[2].strip()}")


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        fail("the benchmark printed no result line", 3)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(res)}", 3)
    if res["correct"] is not True or not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail("result is not a correct run with at least one attempted operation", 3)
    want = expected_metrics(trace)
    got = res["metrics"]
    if set(got) != set(want):
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}", 3)
    for name, m in got.items():
        if m.get("unit") != want[name] or not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name} is {m}, expected a number in {want[name]}", 3)


def main():
    argv = sys.argv[1:]
    trace = arg(argv, "--trace") == "1"
    for name in ("--workload", "--seed", "--seconds"):
        arg(argv, name)
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"{ROOT} is not a source tree of the project (no Cargo.toml and crates/)")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        built = subprocess.run(BUILD, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if built.returncode != 0:
        fail(f"build failed: {' '.join(BUILD)}")

    env.update(PERFBENCH_GIT_REV=git_rev(), PERFBENCH_BUILD_COMMAND=" ".join(BUILD))
    try:
        run = subprocess.run(
            [str(target / "release" / "perfbench"), *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"benchmark exited with {run.returncode}", run.returncode)
    if not lines:
        fail("the benchmark printed nothing", 3)
    check_result(lines[-1], trace)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
