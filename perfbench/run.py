#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload (or all).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. `--trace 0` runs the default build and
reports the end-to-end metrics; `--trace 1` also builds with the
`telemetry-timing` feature, runs both builds for half of `--seconds`
each, and reports the per-layer metrics (their tracing overhead is the
traced build's `run_s` against the untraced one's). The last line of
standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; lines before it record the host and the build
and give the details. The exit code is non-zero when any operation
failed or any output missed its pinned value.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    """The workload names and the metric names and units, from the
    `BENCHMARK.json` beside the benchmark's directory."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return ([w["name"] for w in doc["workloads"]],
            {m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def target_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(timing):
    """Builds the benchmark binary; returns its path."""
    out = os.path.join(target_dir(), "timing" if timing else "plain")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", out,
    ]
    if timing:
        cmd += ["--features", "telemetry-timing"]
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed (exit {done.returncode})")
    return os.path.join(out, "release", "perfbench")


def run_binary(binary, workload, seed, seconds):
    """Runs one measurement; returns the binary's JSON document."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{workload}: {e}")
    lines = [l for l in done.stdout.splitlines() if l.startswith("{")]
    if not lines:
        fail(f"{workload}: no result (exit {done.returncode})")
    return json.loads(lines[-1])


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds, standing in for
    the commit where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", ".bench_build"))
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def host_record(trace):
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "rustc": command_output(["rustc", "-V"]),
        "features": ["telemetry-timing"] if trace else [],
        "timing": "on (traced run) and off (overhead baseline)" if trace else "off",
        "git_commit": commit,
        "source_digest": source_digest(),
    }


def measure(workload, seed, seconds, trace, plain, timed, bench):
    """Runs one workload; returns (result line, detail record)."""
    _, end_to_end, per_layer = bench
    if not trace:
        doc = run_binary(plain, workload, seed, seconds)
        metrics = {name: doc["end_to_end"].get(name) for name in end_to_end}
        if any(m is None or m["unit"] != end_to_end[n] for n, m in metrics.items()):
            fail(f"{workload}: the binary's metrics do not match BENCHMARK.json")
        detail = {k: doc[k] for k in ("workload", "seed", "variant", "passes", "pass_run_s", "pass_setup_s", "pass_rss_mb",
                                      "error", "slice_tail_percentile", "slice_samples")}
        return {"correct": doc["correct"], "attempted": doc["attempted"],
                "failed": doc["failed"], "metrics": metrics}, detail
    base = run_binary(plain, workload, seed, seconds / 2)
    doc = run_binary(timed, workload, seed, seconds / 2)
    layers = dict(doc["layers"])
    base_run = base["end_to_end"]["run_s"]["value"]
    traced_run = doc["end_to_end"]["run_s"]["value"]
    layers["trace.overhead_frac"] = traced_run / base_run - 1.0 if base_run > 0 else 0.0
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in per_layer.items()}
    detail = {"workload": workload, "seed": seed, "variant": doc["variant"],
              "passes": [base["passes"], doc["passes"]], "error": doc["error"] or base["error"]}
    return {"correct": doc["correct"] and base["correct"],
            "attempted": doc["attempted"] + base["attempted"],
            "failed": doc["failed"] + base["failed"], "metrics": metrics}, detail


def main():
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=bench[0] + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be non-negative and --seconds positive")
    if not os.path.isfile(os.path.join(ROOT, "crates", "scenario", "Cargo.toml")):
        fail(f"no repository sources under {ROOT}; run from a full checkout")

    plain = build(timing=False)
    timed = build(timing=True) if args.trace else None
    print("# host " + json.dumps(host_record(args.trace)), flush=True)

    workloads = bench[0] if args.workload == "all" else [args.workload]
    results = []
    for w in workloads:
        result, detail = measure(w, args.seed, args.seconds, args.trace, plain, timed, bench)
        print("# detail " + json.dumps(detail), flush=True)
        for name, m in result["metrics"].items():
            print(f"# {w:<16} {name:<36} {m['value']:>16.6g} {m['unit']}", flush=True)
        attempted = max(result["attempted"], 1)
        print(f"# {w:<16} {'fail_rate':<36} {result['failed'] / attempted:>16.6g} "
              f"({result['failed']} of {result['attempted']})", flush=True)
        results.append(result)
        if len(workloads) > 1:
            print(json.dumps(result), flush=True)

    if len(results) == 1:
        print(json.dumps(results[0]), flush=True)
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{k}": v for w, r in zip(workloads, results)
                        for k, v in r["metrics"].items()},
        }), flush=True)
    sys.exit(0 if all(r["correct"] for r in results) else 1)


if __name__ == "__main__":
    main()
