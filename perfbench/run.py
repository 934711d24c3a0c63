#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

One workload (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload ks-ops --seed 1 --seconds 25 --trace 0

Every workload in turn, with each workload's metrics also printed under
its own name (hmult_ms_p50, segment_ms_p50, req_ms_p99.high, ...):

    python3 perfbench/run.py --all [--seed 1] [--seconds 25] [--trace 0|1]

The build goes to $CARGO_TARGET_DIR, or to .bench_build/ under the current
directory when that is unset. The run fails without a result line when the
repository's crates are not beside this directory.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["ks-ops", "coeff-to-slot", "serve-open"]

# Each workload's own names for the generic end-to-end metrics.
ALIASES = {
    "ks-ops": {
        "setup_s": "setup_cpu_s",
        "op_ms_p50": "hmult_cpu_ms_p50",
        "op_ms_tail": "hmult_cpu_ms_p90",
        "op2_ms_p50": "hrotate_cpu_ms_p50",
        "op2_ms_tail": "hrotate_cpu_ms_p90",
        "rate_per_s": "ops_per_cpu_s",
    },
    "coeff-to-slot": {
        "setup_s": "setup_cpu_s",
        "op_ms_p50": "segment_cpu_ms_p50",
        "op_ms_tail": "segment_cpu_ms_p80",
        "op2_ms_p50": "stage_cpu_ms_p50",
        "op2_ms_tail": "stage_cpu_ms_p80",
        "rate_per_s": "segments_per_cpu_s",
    },
    "serve-open": {
        "setup_s": "setup_cpu_s",
        "op_ms_p50": "req_ms_p50.low",
        "op_ms_tail": "req_ms_p90.low",
        "op2_ms_p50": "req_ms_p50.high",
        "op2_ms_tail": "req_ms_p90.high",
        "rate_per_s": "max_rate_rps",
    },
}


def build():
    """Builds the release binary and returns its path; exits on failure."""
    if not os.path.isdir(os.path.join(HERE, "..", "crates")):
        sys.exit("perfbench: the repository's crates/ directory is missing")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def flag(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def run_all(binary, argv):
    seed = flag(argv, "--seed", "1")
    seconds = flag(argv, "--seconds", "25")
    trace = flag(argv, "--trace", "0")
    ok = True
    for w in WORKLOADS:
        out = subprocess.run(
            [binary, "--workload", w, "--seed", seed, "--seconds", seconds,
             "--trace", trace],
            stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            print(f"{w}: exit code {out.returncode}, no result")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"== {w}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            alias = ALIASES[w].get(name, name) if trace == "0" else name
            print(f"   {alias:<34} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    binary = build()
    if "--all" in argv:
        sys.exit(run_all(binary, argv))
    os.execv(binary, [binary] + argv)


if __name__ == "__main__":
    main()
