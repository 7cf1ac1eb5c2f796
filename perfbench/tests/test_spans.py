"""Span files and self-time subtraction (perfbench/spans.py)."""

import os
import struct
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import spans  # noqa: E402


def make(id_, start, end, parent=0, name="x"):
    return spans.Span(id_, name, start, end, parent)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(spans.self_times([make(1, 10, 30)]), {1: 20})

    def test_sequential_children_are_subtracted(self):
        s = [make(1, 0, 100), make(2, 10, 30, 1), make(3, 50, 60, 1)]
        self.assertEqual(spans.self_times(s)[1], 100 - 20 - 10)

    def test_overlapping_children_count_once(self):
        # Concurrent children (spawned ULTs): [10,40] and [20,50] cover 40.
        s = [make(1, 0, 100), make(2, 10, 40, 1), make(3, 20, 50, 1),
             make(4, 45, 48, 1)]
        self.assertEqual(spans.self_times(s)[1], 60)

    def test_children_are_clipped_to_the_parent(self):
        s = [make(1, 100, 200), make(2, 50, 120, 1), make(3, 190, 300, 1),
             make(4, 300, 400, 1)]
        self.assertEqual(spans.self_times(s)[1], 100 - 20 - 10)

    def test_grandchildren_do_not_count_against_the_grandparent(self):
        s = [make(1, 0, 100), make(2, 10, 50, 1), make(3, 60, 90, 2)]
        st = spans.self_times(s)
        self.assertEqual(st[1], 60)  # only its child [10,50]
        self.assertEqual(st[2], 40)  # [60,90] lies outside its own span


class FileTest(unittest.TestCase):
    def test_reads_what_lptbench_writes(self):
        names = ["tree", "spawn"]
        records = [(100, 200, 0, 0), (120, 130, 1, 1), (0, 0, 1, 1)]
        blob = b"LPTSPAN1" + struct.pack("<QQI", len(records), 7, len(names))
        for n in names:
            blob += struct.pack("<H", len(n)) + n.encode()
        for start, end, parent, name in records:
            blob += struct.pack("<qqIHH", start, end, parent, name, 0)
        with tempfile.NamedTemporaryFile(suffix=".spans", delete=False) as f:
            f.write(blob)
        try:
            got, dropped = spans.read(f.name)
        finally:
            os.unlink(f.name)
        self.assertEqual(dropped, 7)
        # The third record never finished (start 0) and is skipped.
        self.assertEqual([(s.id, s.name, s.duration, s.parent) for s in got],
                         [(1, "tree", 100, 0), (2, "spawn", 10, 1)])
        by = spans.by_name(got)
        self.assertEqual(by["tree"]["self"], [90])
        self.assertEqual(by["spawn"]["durations"], [10])


if __name__ == "__main__":
    unittest.main()
