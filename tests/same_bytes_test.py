#!/usr/bin/env python3
"""The byte-identity oracle (tools/same_bytes.py) must be able to fail.

Feeds crafted document pairs through its comparison and through every
pair it runs, without running any binary:

    python3 tests/same_bytes_test.py
"""

import copy
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools"))
import same_bytes  # noqa: E402


def document(**top):
    """A small scenario document: one run with params and a table."""
    doc = {"schema": "dpkron.scenarios.v1", "threads": 4,
           "simd": {"dispatch": "avx2"},
           "cache": {"hits": 2, "disk_hits": 1, "disk_misses": 0,
                     "domains": {"graph_load": {"disk_hits": 1}}},
           "runs": [{"scenario": "fig2_as20", "elapsed_seconds": 0.5,
                     "params": {"epsilon": 0.2, "dataset": "g.edges"},
                     "tables": [{"rows": [{"x": 0, "y": 150}]}]}]}
    doc.update(top)
    return doc


def nested(key, value, depth):
    """{key: value} nested `depth` levels under other keys and lists."""
    node = {key: value, "kept": 1}
    for level in range(depth):
        node = {"level%d" % level: [node]}
    return node


class CompareTest(unittest.TestCase):

    def test_difference_three_levels_down_names_its_path(self):
        a = document()
        b = copy.deepcopy(a)
        b["runs"][0]["params"]["epsilon"] = 0.5
        self.assertEqual(same_bytes.compare(a, b),
                         "DIFFERS at $.runs[0].params.epsilon")

    def test_volatile_keys_are_ignored_at_any_depth(self):
        for key in same_bytes.VOLATILE_KEYS:
            for depth in range(4):
                self.assertEqual(
                    same_bytes.compare(nested(key, 1.0, depth),
                                       nested(key, 2.0, depth)),
                    "same", (key, depth))
                # ... but only those keys.
                self.assertNotEqual(
                    same_bytes.compare(nested(key + "_not", 1.0, depth),
                                       nested(key + "_not", 2.0, depth)),
                    "same", (key, depth))

    def test_list_length_change_is_reported(self):
        a = document()
        b = copy.deepcopy(a)
        b["runs"][0]["tables"][0]["rows"].append({"x": 1, "y": 7})
        self.assertEqual(
            same_bytes.compare(a, b),
            "DIFFERS at $.runs[0].tables[0].rows (length 1 != 2)")

    def test_dotted_ignore_drops_the_key_only_under_its_parent(self):
        a = document(dataset="g.edges")
        b = copy.deepcopy(a)
        b["runs"][0]["params"]["dataset"] = "g.edges.dpkb"
        self.assertEqual(same_bytes.compare(a, b, ("params.dataset",)),
                         "same")
        b["dataset"] = "g.edges.dpkb"
        self.assertEqual(same_bytes.compare(a, b, ("params.dataset",)),
                         "DIFFERS at $.dataset")


def axis(name):
    return [pair for pair in same_bytes.AXES if pair.axis == name]


def passing_right(pair):
    """A right document that holds every check of `pair`."""
    doc = document(healthz={"disk_hits": 3})
    for path, op, want in pair.checks:
        keys = path.split(".")[1:]
        node = doc
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = want + 1 if op == ">" else want
    return doc


class AxisTest(unittest.TestCase):

    def test_every_axis_is_present(self):
        self.assertEqual({pair.axis for pair in same_bytes.AXES},
                         {"threads", "backing", "dispatch", "cache tier"})

    def test_every_pair_reads_same_on_matching_documents(self):
        for pair in same_bytes.AXES:
            right = passing_right(pair)
            self.assertEqual(same_bytes.compare(
                copy.deepcopy(right), right, pair.ignore, pair.checks),
                "same", pair)

    def test_every_pair_reports_a_difference_with_its_path(self):
        for pair in same_bytes.AXES:
            right = passing_right(pair)
            left = copy.deepcopy(right)
            left["runs"][0]["tables"][0]["rows"][0]["y"] = 149
            self.assertEqual(
                same_bytes.compare(left, right, pair.ignore, pair.checks),
                "DIFFERS at $.runs[0].tables[0].rows[0].y", pair)

    def test_every_check_can_fail(self):
        for pair in same_bytes.AXES:
            for path, op, want in pair.checks:
                right = passing_right(pair)
                keys = path.split(".")[1:]
                node = right
                for key in keys[:-1]:
                    node = node[key]
                # At the bound of ">", or any other value for "==".
                node[keys[-1]] = want if op == ">" else "not %s" % want
                self.assertTrue(same_bytes.compare(
                    copy.deepcopy(right), right, pair.ignore, pair.checks)
                    .startswith("FAILS " + path), (pair, path))

    def test_dispatch_axis_reports_a_differing_cache_counter(self):
        (pair,) = axis("dispatch")
        right = passing_right(pair)
        left = copy.deepcopy(right)
        left["simd"]["dispatch"] = "avx2"
        self.assertEqual(same_bytes.compare(left, right, pair.ignore,
                                            pair.checks), "same")
        left["cache"]["hits"] += 1
        self.assertEqual(same_bytes.compare(left, right, pair.ignore,
                                            pair.checks),
                         "DIFFERS at $.cache.hits")
        left = copy.deepcopy(right)
        left["threads"] = 1
        self.assertEqual(same_bytes.compare(left, right, pair.ignore,
                                            pair.checks),
                         "DIFFERS at $.threads")

    def test_threads_axis_compares_cache_counters(self):
        (pair,) = axis("threads")
        right = document()
        left = copy.deepcopy(right)
        left["cache"]["domains"]["graph_load"]["disk_hits"] = 0
        self.assertEqual(
            same_bytes.compare(left, right, pair.ignore, pair.checks),
            "DIFFERS at $.cache.domains.graph_load.disk_hits")


if __name__ == "__main__":
    unittest.main()
