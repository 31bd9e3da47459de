#!/usr/bin/env python3
"""Builds and runs the verifier benchmark (see README.md in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is non-zero
when the build fails, when any verify call fails its answer key, or when the
traced driver disagrees with `Verifier::verify`.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["grid", "travel-a2", "gadget"]
BINARY_TIMEOUT_S = 170
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark binary from source; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("error: the repository sources are missing", file=sys.stderr)
        return None
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"error: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("error: the benchmark did not build", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "has-perfbench")


def capture(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment_line():
    commit = capture(["git", "rev-parse", "HEAD"])
    rustc = capture(["rustc", "--version"])
    return f"# env nproc={os.cpu_count()} commit={commit} rustc={rustc}"


def run_binary(binary, args):
    """Runs the binary; returns its exit code, its last line of output and
    the lines before it."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"error: {' '.join(args)} ran past {BINARY_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, "", []
    lines = out.splitlines()
    return proc.returncode, (lines[-1] if lines else ""), lines[:-1]


def run_workload(binary, workload, opts):
    args = ["--workload", workload, "--seed", str(opts.seed), "--seconds",
            str(opts.seconds), "--trace", str(opts.trace)]
    code, last, before = run_binary(binary, args)
    for line in before:
        print(line)
    return code, last


def run(opts):
    binary = build()
    if binary is None:
        return 1
    print(environment_line())
    if opts.workload != "all":
        code, last = run_workload(binary, opts.workload, opts)
        if last:
            print(last)
        return code
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, last = run_workload(binary, workload, opts)
        worst = worst or code
        if not last.startswith("{"):
            return code or 1
        result = json.loads(last)
        print(f"# {workload}: " + "  ".join(
            f"{name}={m['value']:.6g} {m['unit']}"
            for name, m in result["metrics"].items()))
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return worst


def check_declaration(spec):
    """Returns the problems with BENCHMARK.json's metric declarations."""
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        if not NAME.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(metric["unit"]):
            problems.append(f"bad unit {metric['unit']!r}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("workloads differ from the benchmark's")
    return problems


def self_test():
    """Checks the declared names, that the binary prints exactly the declared
    metrics, and that a flipped answer key fails the run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = check_declaration(spec)
    binary = build()
    if binary is None:
        return 1
    for trace, declared in [("0", spec["end_to_end"]), ("1", spec["per_layer"])]:
        args = ["--workload", "gadget", "--seed", "1", "--seconds", "1",
                "--trace", trace]
        code, last, _ = run_binary(binary, args)
        result = json.loads(last) if last.startswith("{") else {}
        if code != 0 or not result.get("correct"):
            problems.append(f"gadget --trace {trace} failed")
            continue
        for name in result["metrics"]:
            if not NAME.match(name):
                problems.append(f"printed metric name {name!r} is malformed")
        printed = {n: m["unit"] for n, m in result["metrics"].items()}
        wanted = {m["name"]: m["unit"] for m in declared}
        if printed != wanted:
            problems.append(f"--trace {trace} prints {printed}, declared {wanted}")
    args = ["--workload", "travel-a2", "--seed", "1", "--seconds", "1",
            "--trace", "0", "--flip-key"]
    code, last, _ = run_binary(binary, args)
    result = json.loads(last) if last.startswith("{") else {}
    ok_share = result.get("metrics", {}).get("ok_share", {}).get("value", 1)
    if code == 0 or result.get("correct", True) or result.get("failed", 0) == 0 \
            or ok_share >= 1:
        problems.append("a flipped answer key did not fail the run")
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if opts.self_test:
        return self_test()
    if opts.workload is None:
        parser.error("--workload is required")
    return run(opts)


if __name__ == "__main__":
    sys.exit(main())
