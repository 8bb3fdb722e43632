#!/usr/bin/env python3
"""Smoke tests of the perfbench benchmark itself.

Runs every workload at its smoke size and shows that each correctness check
passes against perfbench/reference.json and fails against a corrupted copy
of it; that the traced run's self-checks hold; and that a run with a COLZA_*
toggle set is marked invalid. Run from the root of a checkout:

    python3 -m unittest discover -s perfbench/tests -v

The first test builds the benchmark binary (about a minute).
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
REFERENCE = os.path.join(BENCH, "reference.json")
WORKLOADS = ("elastic-mandelbulb", "staging-flood", "bulk-qos", "viewer-fanout")


def flip_hex(s):
    return ("1" if s[0] == "0" else "0") + s[1:]


# Per workload: how to corrupt its smoke reference, and the check that must
# then fail.
CORRUPTIONS = {
    "elastic-mandelbulb": (lambda r: r.update(image_hash=flip_hex(r["image_hash"])),
                           "differs from the reference"),
    "staging-flood": (lambda r: r.update(image_hash=flip_hex(r["image_hash"])),
                      "differs from the reference"),
    "bulk-qos": (lambda r: r.update(share_a=0.5), "share_a"),
    "viewer-fanout": (lambda r: r.update(frame_digest=flip_hex(r["frame_digest"])),
                      "produced frames digest"),
}


def run(workload, trace="0", reference=REFERENCE, env=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", trace, "--size", "smoke", "--reps", "1",
           "--reference", reference]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout + proc.stderr


class SmokeTest(unittest.TestCase):
    def test_checks_pass_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, out = run(w)
                self.assertEqual(code, 0, out)
                self.assertTrue(result["correct"], out)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(
                    sorted(result["metrics"]),
                    sorted(["wall_s", "setup_s", "iter_ms_p50", "iter_ms_tail",
                            "peak_rss_mb", "ok_ratio"]))
                self.assertIn("digest: virtual_end_ns", out)

    def test_traced_self_checks_hold(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            per_layer = [m["name"] for m in json.load(f)["per_layer"]]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, out = run(w, trace="1")
                self.assertEqual(code, 0, out)
                self.assertTrue(result["correct"], out)
                self.assertEqual(sorted(result["metrics"]), sorted(per_layer))

    def test_checks_fail_against_corrupted_reference(self):
        with open(REFERENCE) as f:
            reference = json.load(f)
        build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        os.makedirs(build, exist_ok=True)
        for w, (corrupt, message) in CORRUPTIONS.items():
            with self.subTest(workload=w):
                bad = copy.deepcopy(reference)
                corrupt(bad[w]["smoke"])
                with tempfile.NamedTemporaryFile("w", suffix=".json", dir=build,
                                                 delete=False) as f:
                    json.dump(bad, f)
                try:
                    code, result, out = run(w, reference=f.name)
                finally:
                    os.unlink(f.name)
                self.assertEqual(code, 1, out)
                self.assertFalse(result["correct"], out)
                self.assertIn("CHECK FAILED", out)
                self.assertIn(message, out)

    def test_toggle_marks_run_invalid(self):
        env = dict(os.environ, COLZA_SIMD="off")
        code, result, out = run("bulk-qos", env=env)
        self.assertEqual(code, 1, out)
        self.assertFalse(result["correct"], out)
        self.assertIn("environment toggle set: COLZA_SIMD=off", out)


if __name__ == "__main__":
    unittest.main()
