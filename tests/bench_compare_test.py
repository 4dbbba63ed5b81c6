#!/usr/bin/env python3
"""Tests for scripts/bench_compare.py on canned perfbench captures."""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))

import bench_compare  # noqa: E402


def capture(workload, seed, answers="00000000000000aa", norm_ops=100.0,
            choose_iter=7):
    """One run's standard output, shaped as perfbench prints it."""
    metrics = {
        "norm_ops_per_s": {"value": norm_ops, "unit": "1/s"},
        "converged_ratio": {"value": 0.99, "unit": "ratio"},
        "setup_s": {"value": 0.5, "unit": "s"},
        "peak_rss_mb": {"value": 40.0, "unit": "MiB"},
    }
    return (f"{workload} samples=120\n"
            f"digest workload={workload} seed={seed} ops=24 exec=100 "
            f"get_state=5 store_state=5 choose_iter={choose_iter} "
            f"answers={answers}\n"
            f"{workload} norm_ops_per_s {norm_ops:.6g} 1/s\n"
            + json.dumps({"correct": True, "attempted": 120, "failed": 0,
                          "metrics": metrics}) + "\n")


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, text):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as out:
            out.write(text)
        return path

    def run_compare(self, change_for_seed, flags=()):
        parent, change = [], []
        for seed in range(1, 11):
            parent.append(self.write(f"parent-{seed}.txt",
                                     capture("serve_storm", seed)))
            change.append(self.write(f"change-{seed}.txt",
                                     change_for_seed(seed)))
        with redirect_stdout(io.StringIO()) as out:
            code = bench_compare.main(["--parent", *parent,
                                       "--change", *change, *flags])
        return code, out.getvalue()

    def test_equal_digests_pass(self):
        code, out = self.run_compare(lambda s: capture("serve_storm", s))
        self.assertEqual(code, 0, out)
        self.assertIn("norm_ops_per_s: parent 100", out)
        self.assertTrue(out.rstrip().endswith("OK"), out)

    def test_one_changed_digest_fails(self):
        code, out = self.run_compare(
            lambda s: capture("serve_storm", s,
                              answers="00000000000000bb" if s == 4
                              else "00000000000000aa"))
        self.assertEqual(code, 1, out)
        self.assertIn("serve_storm seed 4: digests differ", out)

    def test_differing_fields_are_named(self):
        code, out = self.run_compare(
            lambda s: capture("serve_storm", s, choose_iter=3))
        self.assertEqual(code, 1, out)
        self.assertIn("serve_storm seed 2: digest fields differ: "
                      "choose_iter 7 -> 3", out)
        self.assertIn("serve_storm seed 2: digests differ in choose_iter",
                      out)

    def test_allowed_fields_may_differ(self):
        code, out = self.run_compare(
            lambda s: capture("serve_storm", s, choose_iter=3,
                              answers="00000000000000bb"),
            ["--allow-digest-fields", "choose_iter,answers"])
        self.assertEqual(code, 0, out)
        self.assertIn("digest fields differ: choose_iter 7 -> 3, answers "
                      "00000000000000aa -> 00000000000000bb", out)
        self.assertTrue(out.rstrip().endswith("OK"), out)

    def test_an_unallowed_field_still_fails(self):
        code, out = self.run_compare(
            lambda s: capture("serve_storm", s, choose_iter=3,
                              answers="00000000000000bb"),
            ["--allow-digest-fields", "choose_iter"])
        self.assertEqual(code, 1, out)
        self.assertIn("digests differ in answers", out)
        self.assertNotIn("digests differ in choose_iter", out)

    def test_throughput_drop_past_its_bound_fails(self):
        code, out = self.run_compare(
            lambda s: capture("serve_storm", s, norm_ops=70.0))
        self.assertEqual(code, 1, out)
        self.assertIn("norm_ops_per_s median worse by 0.3000", out)


if __name__ == "__main__":
    unittest.main()
