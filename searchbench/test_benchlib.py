"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m unittest discover -s searchbench``
"""

import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402


class MedianAndSpread(unittest.TestCase):
    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(benchlib.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(benchlib.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_spread_is_iqr_over_median_with_exclusive_quartiles(self):
        values = [float(v) for v in range(1, 11)]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchlib.spread(values), (q3 - q1) / 5.5)
        # Exclusive method on 1..10: Q1 = 2.75, Q3 = 8.25.
        self.assertAlmostEqual(benchlib.spread(values), 5.5 / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(benchlib.spread([7.0] * 10), 0.0)
        self.assertEqual(benchlib.spread([0.0] * 10), 0.0)

    def test_spread_ignores_scale(self):
        values = [0.9, 1.0, 1.1, 1.05, 0.95]
        scaled = [v * 1000 for v in values]
        self.assertAlmostEqual(benchlib.spread(values), benchlib.spread(scaled))

    def test_zero_median_with_variation_is_infinite(self):
        self.assertEqual(benchlib.spread([-1.0, 0.0, 0.0, 0.0, 1.0]), float("inf"))


class Steal(unittest.TestCase):
    def test_steal_is_discounted_from_wall_time(self):
        self.assertEqual(benchlib.unstolen_s(2.0, 0.0), 2.0)
        self.assertAlmostEqual(benchlib.unstolen_s(2.0, 0.5), 1.5)

    def test_discount_is_capped_at_half_the_wall_time(self):
        self.assertEqual(benchlib.unstolen_s(2.0, 3.0), 1.0)

    def test_host_steal_reading_is_monotonic(self):
        first = benchlib.host_steal_s()
        self.assertGreaterEqual(first, 0.0)
        self.assertGreaterEqual(benchlib.host_steal_s(), first)


class Digest(unittest.TestCase):
    HISTORY = "step,mean_reward,best_reward,entropy,step_time_ms\n0,1.5,2.5,0.9,{t}\n"
    CANDIDATES = "reward,quality,perf_0,sample\n2.5,2.5,0.001,1/2/3\n1.5,1.5,0.002,0/2/3\n"

    def write(self, directory, name, history_time="0.5", candidates=None):
        hist = os.path.join(directory, name + "_history.csv")
        cands = os.path.join(directory, name + "_candidates.csv")
        with open(hist, "w") as f:
            f.write(self.HISTORY.format(t=history_time))
        with open(cands, "w") as f:
            f.write(candidates if candidates is not None else self.CANDIDATES)
        return cands, hist

    def test_step_time_column_is_excluded(self):
        with tempfile.TemporaryDirectory() as d:
            a, rows = benchlib.csv_digest(*self.write(d, "a", history_time="0.5"))
            b, _ = benchlib.csv_digest(*self.write(d, "b", history_time="91.25"))
        self.assertEqual(a, b)
        self.assertEqual(rows, 2)

    def test_any_candidate_change_changes_the_digest(self):
        changed = self.CANDIDATES.replace("0.002", "0.0020000000000000005")
        with tempfile.TemporaryDirectory() as d:
            a, _ = benchlib.csv_digest(*self.write(d, "a"))
            b, _ = benchlib.csv_digest(*self.write(d, "b", candidates=changed))
        self.assertNotEqual(a, b)

    def test_history_value_change_changes_the_digest(self):
        with tempfile.TemporaryDirectory() as d:
            a, _ = benchlib.csv_digest(*self.write(d, "a"))
            cands, hist = self.write(d, "b")
            with open(hist, "w") as f:
                f.write(self.HISTORY.replace("0.9", "0.8").format(t="0.5"))
            b, _ = benchlib.csv_digest(cands, hist)
        self.assertNotEqual(a, b)

    def test_digest_comparison(self):
        self.assertTrue(benchlib.digest_matches("ab12", "ab12"))
        self.assertFalse(benchlib.digest_matches("ab12", "ab13"))
        self.assertFalse(benchlib.digest_matches("ab12", None))

    def test_missing_csv_raises(self):
        with tempfile.TemporaryDirectory() as d:
            with self.assertRaises(OSError):
                benchlib.csv_digest(os.path.join(d, "x.csv"), os.path.join(d, "y.csv"))


class ProcessReaders(unittest.TestCase):
    def run_python(self, code, timeout_s=30):
        with tempfile.TemporaryDirectory() as d:
            return benchlib.run_measured([sys.executable, "-c", code], d, dict(os.environ),
                                         timeout_s, os.path.join(d, "stderr.log"))

    def test_peak_rss_sees_a_large_allocation(self):
        usage = self.run_python("b = bytearray(80 * 1000 * 1000); b[::4096] = b'x' * len(b[::4096])")
        self.assertEqual(usage.returncode, 0)
        self.assertGreater(usage.peak_rss_mb, 80)
        self.assertLess(usage.peak_rss_mb, 400)

    def test_cpu_time_counts_busy_work_and_not_sleep(self):
        busy = self.run_python(
            "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.3: pass")
        idle = self.run_python("import time; time.sleep(0.3)")
        self.assertGreaterEqual(busy.cpu_s, 0.28)
        self.assertLess(idle.cpu_s, 0.2)
        self.assertGreaterEqual(idle.wall_s, 0.3)

    def test_cpu_time_includes_reaped_children(self):
        code = ("import subprocess, sys\n"
                "subprocess.run([sys.executable, '-c', "
                "'import time\\nt = time.process_time()\\n"
                "while time.process_time() - t < 0.3: pass'])")
        usage = self.run_python(code)
        self.assertGreaterEqual(usage.cpu_s, 0.28)

    def test_exit_code_and_timeout(self):
        self.assertEqual(self.run_python("raise SystemExit(3)").returncode, 3)
        hung = self.run_python("import time; time.sleep(30)", timeout_s=0.5)
        self.assertNotEqual(hung.returncode, 0)
        self.assertLess(hung.wall_s, 10)

    def test_dir_bytes(self):
        with tempfile.TemporaryDirectory() as d:
            os.makedirs(os.path.join(d, "sub"))
            for name, size in (("a", 10), ("sub/b", 2500)):
                with open(os.path.join(d, name), "wb") as f:
                    f.write(b"x" * size)
            self.assertEqual(benchlib.dir_bytes(d), 2510)
            self.assertEqual(benchlib.dir_bytes(os.path.join(d, "missing")), 0)


class HostGuard(unittest.TestCase):
    def test_refuses_more_workers_than_cpus(self):
        self.assertIsNotNone(benchlib.host_guard(8, 1))
        self.assertIn("2 concurrent", benchlib.host_guard(2, 1))

    def test_allows_up_to_the_cpu_count(self):
        self.assertIsNone(benchlib.host_guard(2, 2))
        self.assertIsNone(benchlib.host_guard(1, 4))

    def test_available_cpus_is_positive(self):
        self.assertGreaterEqual(benchlib.available_cpus(), 1)


if __name__ == "__main__":
    unittest.main()
