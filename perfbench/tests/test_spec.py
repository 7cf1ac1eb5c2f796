"""BENCHMARK.json names exactly the workloads and metrics run.py prints."""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class SpecTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            cls.doc = json.load(f)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.doc["workloads"]],
                         list(run.LISTED))

    def test_end_to_end_metrics(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.doc["end_to_end"]],
                         list(run.E2E))
        bounds = {m["name"]: m["bound"] for m in self.doc["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))

    def test_per_layer_metrics(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.doc["per_layer"]],
                         run.layer_spec(run.TRACED))

    def test_names_and_units_are_well_formed(self):
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in self.doc[key]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in self.doc["end_to_end"] + self.doc["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))


if __name__ == "__main__":
    unittest.main()
