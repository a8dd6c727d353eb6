#!/usr/bin/env python3
"""Run one workload of the placesim benchmark and print its result.

Usage, from the repository root:

    python3 placebench/run.py --workload paper-sweep --seed 1 --seconds 12 --trace 0

The script builds the measuring program (`placebench/`, a Cargo package of
its own) into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs it
twice: once to make the workload's inputs from the seed (`setup`), once to
measure (`run`), so that the measuring process starts with none of the
set-up's allocations in its heap.

Standard output ends with one JSON line:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
with `--trace 1` its per-layer metrics. The lines before it give the run's
metadata and every metric with its unit, including `failed_frac`. Spans of
a traced run are written to `.placebench/spans-<workload>-seed<N>.jsonl`.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-sweep", "stream-profile", "service-mixed")
# Seed kept out of all tuning; a later claim of a gain must also hold on it.
HELD_OUT_SEED = 7919
# A run must finish inside 180 s, and the first run, which builds, inside
# 900 s.
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 700.0
# Files whose contents identify the measured source.
SOURCE_DIRS = ("crates", "src", "vendor", "placebench")
SOURCE_SUFFIXES = (".rs", ".toml", ".lock", ".py")


def fail(msg):
    print(f"placebench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_child(argv, timeout):
    """Runs argv from ROOT; returns (exit code, stdout)."""
    try:
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{argv[1]} did not finish within {timeout:.0f} s")
    return done.returncode, done.stdout.decode()


def build(target_dir, deadline):
    argv = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join("placebench", "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target_dir, "release", "placebench")


def source_digest():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock")]
    for d in SOURCE_DIRS:
        for base, dirs, files in os.walk(os.path.join(ROOT, d)):
            dirs[:] = sorted(x for x in dirs if not x.startswith(".") and x != "target")
            paths += [os.path.join(base, f) for f in files if f.endswith(SOURCE_SUFFIXES)]
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    """The commit of a git checkout at ROOT, read without leaving ROOT."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()[:12]
        return ref[:12]
    except OSError:
        return "none"


def last_json_line(text, what):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        fail(f"{what} printed nothing")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"{what} printed a bad result line: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()
    trace = args.trace == "1"
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target, time.monotonic() + BUILD_BUDGET_S)

    deadline = time.monotonic() + RUN_BUDGET_S
    out_dir = os.path.join(ROOT, ".placebench")
    work_rel = os.path.join(".placebench", f"work-{os.getpid()}")
    work = os.path.join(ROOT, work_rel)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spans_rel = os.path.join(".placebench", f"spans-{args.workload}-seed{args.seed}.jsonl")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", work_rel]
    try:
        code, out = run_child([binary, "setup"] + common,
                                 max(1.0, deadline - time.monotonic()))
        if code != 0:
            fail(f"setup exited with {code}")
        setup = last_json_line(out, "setup")

        run_argv = [binary, "run"] + common + [
            "--seconds", str(args.seconds), "--trace", args.trace]
        if trace:
            run_argv += ["--spans", spans_rel]
        code, out = run_child(run_argv, max(1.0, deadline - time.monotonic()))
        if code != 0:
            fail(f"run exited with {code}")
        run = last_json_line(out, "run")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(out_dir)
        except OSError:
            pass

    # The program reports name -> value; units come from BENCHMARK.json.
    # A traced run reports 0 for a layer its workload never enters.
    values = dict(run["metrics"])
    if trace:
        values.update(setup["layers"])
        values = dict.fromkeys(units, 0.0) | values
    else:
        values["setup_s"] = setup["setup_s"]
    unknown = sorted(set(values) - set(units))
    missing = [n for n in units if n not in values]
    if unknown or missing:
        fail(f"metrics not in BENCHMARK.json {kind}: {', '.join(unknown) or '-'}; "
             f"not measured: {', '.join(missing) or '-'}")
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": trace,
        "host_cpus": os.cpu_count(),
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "build_profile": "release",
        "info": run.get("info", {}),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"  {'failed_frac':<32} {run['failed_frac']:<14.6g} frac "
          f"({run['failed']} of {run['attempted']} operations)")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:<14.6g} {m['unit']}")
    for msg in run.get("failures", []):
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
