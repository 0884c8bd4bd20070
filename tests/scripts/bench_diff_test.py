#!/usr/bin/env python3
"""Unit tests of scripts/bench_diff.py's cell matching.

Run: python3 tests/scripts/bench_diff_test.py (ctest runs it as
bench_diff_test).
"""

import copy
import importlib.util
import json
import os
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load_bench_diff():
    spec = importlib.util.spec_from_file_location(
        "bench_diff", os.path.join(ROOT, "scripts", "bench_diff.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class CompareRecordsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bd = load_bench_diff()
        with open(os.path.join(ROOT, "BENCH_throughput.json")) as f:
            cls.record = json.load(f)

    def test_identical_record_matches_every_cell(self):
        warnings, matched = self.bd.compare_records(
            "BENCH_throughput.json", self.record, self.record, 0.2)
        self.assertEqual(warnings, [])
        self.assertEqual(matched, len(self.record["cells"]))
        self.assertGreater(matched, 0)

    def test_changed_identity_keys_warn_instead_of_passing(self):
        stripped = copy.deepcopy(self.record)
        for cell in stripped["cells"]:
            for key in [k for k in cell if k.startswith("eval_cache_")]:
                del cell[key]
        warnings, matched = self.bd.compare_records(
            "BENCH_throughput.json", stripped, self.record, 0.2)
        self.assertEqual(matched, 0)
        self.assertEqual(len(warnings), 1)
        self.assertIn("nothing was compared", warnings[0])

    def test_regression_in_a_matched_cell_warns(self):
        slower = copy.deepcopy(self.record)
        slower["cells"][0]["wall_ms"] = self.record["cells"][0]["wall_ms"] * 2
        warnings, matched = self.bd.compare_records(
            "BENCH_throughput.json", slower, self.record, 0.2)
        self.assertEqual(matched, len(self.record["cells"]))
        self.assertEqual(len(warnings), 1)
        self.assertIn("wall_ms", warnings[0])


if __name__ == "__main__":
    unittest.main()
