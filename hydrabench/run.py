#!/usr/bin/env python3
"""Benchmark of the HydraDB reproduction: one YCSB workload at one seed.

    python3 hydrabench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `hydrabench` binary (a package of
its own in this directory) into $CARGO_TARGET_DIR (default `.bench_build`),
then runs the workload in fresh processes, one run per process, until
`--seconds` have passed.

--trace 0  measures the end-to-end metrics with tracing off. Virtual-clock
           metrics must be byte-identical in every process (the simulator is
           deterministic); host-clock metrics are the median over processes.
--trace 1  alternates untraced and traced processes and reports the
           per-layer metrics of the traced ones, plus the tracing overhead.
           Request and phase spans go to
           $CARGO_TARGET_DIR/hydrabench-traces/<workload>-<seed>.csv.

Prints every applicable metric by name and unit, then, as the last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}. The metric
names and units come from BENCHMARK.json at the repository root. Exits 1
when a correctness check fails or the program cannot be built or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A whole invocation must end within 180 s: no process starts unless the
# previous one's duration still fits under this.
BUDGET_S = 165.0
# Host-clock metrics the untraced processes report (median over processes).
HOST_METRICS = ("setup_s", "run_s", "peak_rss_mib")
# End-to-end metrics printed but not listed in BENCHMARK.json: each is
# missing on one workload, or (run_s) its run-to-run spread on a shared host
# can exceed the largest bound allowed (README.md).
PRINTED_ONLY = (
    ("update_p50_us", "us"),
    ("update_p999_us", "us"),
    ("scan_p50_us", "us"),
    ("scan_p999_us", "us"),
    ("run_s", "s"),
)
# Environment variables the program reads that would override the inputs.
SCRUBBED_ENV = ("HYDRA_SEED", "HYDRA_SCALE")


def fail(msg):
    print(f"hydrabench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    # Build output goes to stderr so the result stays the last stdout line.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target_dir(), "release", "hydrabench")


def run_child(binary, workload, seed, trace_path=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if trace_path:
        cmd += ["--trace", trace_path]
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(lines[-1]), elapsed


def repeat(seconds, step):
    """Calls step() until `seconds` have passed, at least once, and never
    past the budget. Returns the results."""
    start = time.monotonic()
    results = []
    while True:
        t = time.monotonic()
        results.append(step())
        took = time.monotonic() - t
        elapsed = time.monotonic() - start
        if elapsed >= seconds or elapsed + took > BUDGET_S:
            return results


def failed_checks(children):
    return [
        f"seed {c['seed']}: {chk['name']} ({chk['detail']})"
        for c in children
        for chk in c["checks"]
        if not chk["ok"]
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    binary = build()

    problems = []
    metrics = {}
    if args.trace == 0:
        children = [c for c, _ in repeat(args.seconds, lambda: run_child(binary, args.workload, args.seed))]
        first = children[0]
        values = dict(first["virtual"])
        for name in HOST_METRICS:
            values[name] = statistics.median(c["host"][name] for c in children)
        wanted = spec["end_to_end"]
        print(f"# {args.workload} seed {args.seed}: {len(children)} processes, tracing off")
        for kind in ("get", "update", "scan"):
            if f"{kind}_samples" in values:
                print(f"{kind}_samples {values[kind + '_samples']} ({values[kind + '_beyond_p999']} beyond p99.9)")
        print(f"failed_frac {values['failed_frac']} ratio")
        for name, unit in PRINTED_ONLY:
            if name in values and name not in [m["name"] for m in wanted]:
                print(f"{name} {values[name]} {unit}")
    else:
        traces = os.path.join(target_dir(), "hydrabench-traces")
        trace_path = os.path.join(traces, f"{args.workload}-{args.seed}.csv")

        def pair():
            plain, _ = run_child(binary, args.workload, args.seed)
            traced, _ = run_child(binary, args.workload, args.seed, trace_path)
            return plain, traced

        pairs = repeat(args.seconds, pair)
        children = [c for p in pairs for c in p]
        traced = [t for _, t in pairs]
        values = {
            name: statistics.median(t["layers"][name] for t in traced)
            for name in traced[0]["layers"]
        }
        values["trace.overhead_frac"] = statistics.median(
            t["host"]["run_s"] / p["host"]["run_s"] - 1 for p, t in pairs
        )
        wanted = spec["per_layer"]
        first = traced[0]
        print(f"# {args.workload} seed {args.seed}: {len(pairs)} untraced/traced pairs; spans in {trace_path}")

    # The simulator is deterministic, and tracing must not perturb it: every
    # process at this seed, traced or not, must agree exactly.
    for c in children[1:]:
        for key in ("virtual", "attempted", "failed"):
            if json.dumps(c[key]) != json.dumps(children[0][key]):
                problems.append(f"{key} differs between processes at the same seed")
    problems += failed_checks(children)
    for m in wanted:
        if m["name"] not in values:
            problems.append(f"metric {m['name']} not measured on {args.workload}")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]} {m['unit']}")
    for p in problems:
        print(f"FAILED: {p}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": first["attempted"],
                "failed": first["failed"],
                "metrics": metrics,
            }
        )
    )
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
