#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py                # every workload, untraced then traced

Builds the `perfbench` binary (perfbench/Cargo.toml, release profile) from
the sources in this checkout, then runs one workload in its own process.
The binary's standard output is passed through; its last line is the JSON
result `{"correct", "attempted", "failed", "metrics"}`. With no
`--workload`, every workload runs twice (trace 0, then trace 1) and a
combined JSON object is printed last.

Build artifacts go to $CARGO_TARGET_DIR (default `.bench_build`), durable
session state to `.bench_state`, span files to `.bench_out`; all three are
relative to the checkout root. Exits non-zero, printing no result, when
the checkout lacks the crates the benchmark builds against.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ["plan_100k", "session_20k", "ingest_durable_20k"]
REQUIRED = ["crates/ses-core", "crates/ses-algorithms", "crates/ses-datasets", "vendor"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return t if t.is_absolute() else ROOT / t


def build():
    missing = [p for p in REQUIRED if not (ROOT / p).is_dir()]
    if missing:
        fail(f"checkout at {ROOT} lacks {', '.join(missing)}; nothing to build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    except FileNotFoundError:
        fail("cargo not found")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    binary = target_dir() / "release" / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises for this trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Why `result` is not a valid result for this trace mode, or None."""
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "last line is not a result object"
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metrics differ from BENCHMARK.json (missing {missing}, extra {extra}, or units)"
    return None


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed result or None). The
    result line is passed on only when `check_result` accepts it."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", str(ROOT / ".bench_state"), "--out", str(ROOT / ".bench_out")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return 1, None
    lines = done.stdout.rstrip("\n").splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    problem = check_result(result, trace)
    if problem:
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        print(f"perfbench: {workload}: {problem}", file=sys.stderr)
        return done.returncode or 1, None
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    args = ap.parse_args()

    binary = build()
    if args.workload:
        trace = args.trace if args.trace is not None else 0
        code, result = run_one(binary, args.workload, args.seed, args.seconds, trace)
        if result is None:
            print(f"perfbench: {args.workload} printed no result", file=sys.stderr)
            sys.exit(code or 1)
        sys.exit(code)

    traces = [args.trace] if args.trace is not None else [0, 1]
    combined, worst = {}, 0
    for workload in WORKLOADS:
        for trace in traces:
            code, result = run_one(binary, workload, args.seed, args.seconds, trace)
            worst = max(worst, code if result is not None else max(code, 1))
            combined[f"{workload}/trace{trace}"] = result
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
