#!/usr/bin/env python3
"""Build and run the perfbench host-time benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload elastic-mandelbulb --seed 1 \
        --seconds 20 --trace 0

Configures and builds the `perfbench` binary from source on first use (into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench). Then it runs
the binary once per repetition, each in a fresh process, until --seconds
have passed and at least --reps repetitions are done. It checks the
repetitions and prints the metrics as one JSON object on the last line of
stdout. It exits 1 when a correctness check fails or the run is invalid.

Extra options: --size full|smoke (smoke is the tiny size the benchmark's own
tests use), --reps N (minimum repetitions, default 3), --reference FILE
(expected outputs, default perfbench/reference.json).
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("elastic-mandelbulb", "staging-flood", "bulk-qos", "viewer-fanout")
REP_TIMEOUT_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Runs a build step; its output goes to stderr only if it fails."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout)
        log("perfbench: build step failed: " + " ".join(cmd))
        sys.exit(proc.returncode or 1)


def build():
    src = os.path.join(ROOT, "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        log("perfbench: no library sources at " + os.path.dirname(src))
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    return os.path.join(out, "perfbench")


def source_id():
    """The commit when the checkout is a git repository, else a digest of the
    library and benchmark sources, so every result names the code it ran."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
        return head.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run_rep(binary, args, traced):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if traced else "0", "--size", args.size,
           "--reference", os.path.abspath(args.reference)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stdout + proc.stderr)
        log("perfbench: repetition exited with code %d" % proc.returncode)
        sys.exit(1)
    return json.loads(lines[-1])


def tail(values):
    """The highest whole percentile, at least the median, with at least ten
    samples beyond it (nearest-rank); the maximum when there are too few."""
    v = sorted(values)
    n = len(v)
    for p in range(99, 49, -1):
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return v[rank - 1], p
    return v[-1], 100


def across(values):
    """Reduces one number per repetition to the run's value: the mean without
    the fastest and the slowest when there are five or more. On a shared VM
    a repetition can run whole at one of two host speeds (viewer-fanout:
    about 1.2 or 1.7 s, see README.md "Noise"); a median over them jumps
    between the two, while a mean moves smoothly with their mix."""
    v = sorted(values)
    if len(v) >= 5:
        v = v[1:-1]
    return statistics.fmean(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--reference",
                    default=os.path.join(HERE, "reference.json"))
    args = ap.parse_args()
    trace = args.trace == "1"

    binary = build()
    errors = ["environment toggle set: %s=%s" % (k, v)
              for k, v in sorted(os.environ.items()) if k.startswith("COLZA_")]

    # Untraced and traced repetitions alternate in a traced run, so both
    # see the same host conditions.
    plain, traced = [], []
    min_reps = 2 * args.reps if trace else args.reps
    start = time.monotonic()
    while True:
        is_traced = trace and len(plain) > len(traced)
        (traced if is_traced else plain).append(run_rep(binary, args, is_traced))
        paired = not trace or len(plain) == len(traced)
        if (paired and len(plain) + len(traced) >= min_reps
                and time.monotonic() - start >= args.seconds):
            break
    elapsed = time.monotonic() - start

    first = plain[0]
    build_info = first["build"]
    if not build_info["optimized"]:
        errors.append("binary built without optimization")
    for r in plain + traced:
        errors.extend(r["errors"])
        if (r["des_events"], r["virtual_end_ns"]) != (
                first["des_events"], first["virtual_end_ns"]):
            errors.append("a repetition moved virtual time: des.events %d vs %d"
                          % (r["des_events"], first["des_events"]))
    errors = sorted(set(errors))
    attempted = max(1, sum(r["attempted"] for r in plain + traced))
    failed = sum(r["failed"] for r in plain + traced)

    print("provenance: " + json.dumps({
        "commit": source_id(), "build_type": build_info["build_type"],
        "cxx_flags": build_info["cxx_flags"].strip(),
        "compiler": build_info["compiler"], "nproc": os.cpu_count()}))
    print("workload: %s seed %d size %s, %d untraced + %d traced repetitions "
          "in %.3f s" % (args.workload, args.seed, args.size, len(plain),
                         len(traced), elapsed))
    print("repetitions wall_s: " + " ".join("%.4f" % r["wall_s"] for r in plain))
    print("digest: virtual_end_ns %d des.events %d"
          % (first["virtual_end_ns"], first["des_events"]))
    for note in first["notes"]:
        print("observed: " + note)
    for e in errors:
        print("CHECK FAILED: " + e)

    wall = across(r["wall_s"] for r in plain)
    metrics = {}
    if not trace:
        # Percentiles are taken within each repetition, so one disturbed
        # repetition cannot set the tail.
        tails = [tail(r["unit_ms"]) for r in plain]
        print("iter_ms_tail: p%d of %d samples per repetition"
              % (tails[0][1], len(first["unit_ms"])))
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (across(r["setup_s"] for r in plain), "s"),
            "iter_ms_p50": (across(statistics.median(r["unit_ms"])
                                   for r in plain), "ms"),
            "iter_ms_tail": (across(t for t, _ in tails), "ms"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MiB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        wall_traced = across(r["wall_s"] for r in traced)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            per_layer = json.load(f)["per_layer"]
        for m in per_layer:
            name, unit = m["name"], m["unit"]
            if name == "des.ns_per_event":
                v = wall * 1e9 / max(1, first["des_events"])
            elif name == "obs.trace_overhead_pct":
                v = (wall_traced / wall - 1.0) * 100.0
            else:
                v = statistics.median(r["layer"].get(name, 0.0) for r in traced)
            metrics[name] = (v, unit)

    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    sys.exit(0 if not errors else 1)


if __name__ == "__main__":
    main()
