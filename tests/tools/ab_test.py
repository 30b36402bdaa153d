#!/usr/bin/env python3
"""Self-test of tools/ab.py's statistics on fixed inputs (ctest suite
`ab_selftest`). Runs no build and no benchmark."""

import importlib.util
import os
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
AB_PATH = os.path.join(os.path.dirname(os.path.dirname(HERE)), "tools",
                       "ab.py")
SPEC = importlib.util.spec_from_file_location("ab", AB_PATH)
ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab)


class QuartilesTest(unittest.TestCase):
    def test_inclusive_interpolation(self):
        self.assertEqual(ab.quartiles([1, 2, 3, 4, 5]), (2, 3, 4))
        self.assertEqual(ab.quartiles([5, 1, 4, 2, 3]), (2, 3, 4))
        # Even count: q1 = 1 + 0.75 * (2 - 1), q3 = 3 + 0.25 * (4 - 3).
        self.assertEqual(ab.quartiles([1, 2, 3, 4]), (1.75, 2.5, 3.25))

    def test_single_value(self):
        self.assertEqual(ab.quartiles([7.0]), (7.0, 7.0, 7.0))


class SummarizeTest(unittest.TestCase):
    PARENT = [10.0, 11.0, 12.0, 13.0, 14.0]

    def test_higher_is_better(self):
        row = ab.summarize(self.PARENT, [12.0, 10.0, 15.0, 14.0, 16.0],
                           "higher")
        self.assertEqual(row["wins"], 4)  # pair 2 (10 vs 11) is a loss
        self.assertEqual(row["pairs"], 5)
        self.assertEqual(row["parent"], {"q1": 11.0, "median": 12.0,
                                         "q3": 13.0})
        self.assertEqual(row["candidate"]["median"], 14.0)
        self.assertEqual(row["parent_iqr"], 2.0)
        self.assertEqual(row["median_gain"], 2.0)
        self.assertFalse(row["gain_exceeds_iqr"])  # 2 is not above 2
        # Ratios 1.2, 0.909, 1.25, 1.0769, 1.1428: median 1.1428...
        self.assertAlmostEqual(row["paired_ratio"], 16.0 / 14.0)

    def test_lower_is_better_and_ties_are_not_wins(self):
        row = ab.summarize(self.PARENT, [5.0, 11.0, 6.0, 6.5, 7.0], "lower")
        self.assertEqual(row["wins"], 4)  # pair 2 ties at 11
        self.assertEqual(row["median_gain"], 12.0 - 6.5)
        self.assertTrue(row["gain_exceeds_iqr"])
        self.assertAlmostEqual(row["paired_ratio"], 6.5 / 13.0)

    def test_a_loss_is_a_negative_gain(self):
        row = ab.summarize(self.PARENT, [9.0, 10.0, 11.0, 12.0, 13.0],
                           "higher")
        self.assertEqual(row["wins"], 0)
        self.assertEqual(row["median_gain"], -1.0)
        self.assertFalse(row["gain_exceeds_iqr"])

    def test_zero_parent_values_have_no_ratio(self):
        row = ab.summarize([0.0, 0.0], [1.0, 2.0], "lower")
        self.assertIsNone(row["paired_ratio"])
        self.assertEqual(row["wins"], 0)


class RunOrderTest(unittest.TestCase):
    def test_sides_alternate(self):
        self.assertEqual(ab.run_order(0), ("parent", "candidate"))
        self.assertEqual(ab.run_order(1), ("candidate", "parent"))
        self.assertEqual(ab.run_order(2), ("parent", "candidate"))


class ParseResultTest(unittest.TestCase):
    def test_last_line_is_the_result(self):
        out = ('# context: {"workload": "batch_product"}\n'
               '{"correct": true, "attempted": 3, "failed": 0, '
               '"metrics": {"items_per_s": {"value": 5.0, "unit": "1/s"}}}\n'
               "\n")
        result = ab.parse_result(out)
        self.assertEqual(result["metrics"]["items_per_s"]["value"], 5.0)

    def test_missing_result_raises(self):
        with self.assertRaises(ValueError):
            ab.parse_result("")
        with self.assertRaises(ValueError):
            ab.parse_result('{"correct": true}\n')


class FormatTableTest(unittest.TestCase):
    def test_one_row_per_metric(self):
        rows = {"items_per_s": ab.summarize([1.0, 2.0], [2.0, 3.0], "higher")}
        text = ab.format_table(rows, {"parent": 0.5, "candidate": 0.25})
        lines = text.splitlines()
        self.assertEqual(len(lines), 3)
        self.assertTrue(lines[1].startswith("items_per_s"))
        self.assertIn("2/2", lines[1])
        self.assertIn("parent 0.50, candidate 0.25", lines[2])


if __name__ == "__main__":
    unittest.main()
