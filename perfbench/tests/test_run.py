"""Tests of run.py's scrape arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import run  # noqa: E402

TEXT = """# HELP ccpr_writes_total Store-level write operations
# TYPE ccpr_writes_total counter
ccpr_writes_total{site="0"} 40
ccpr_peer_msgs_sent_total{site="0",peer="1"} 7
ccpr_peer_msgs_sent_total{site="0",peer="2"} 5
ccpr_apply_delay_us{site="0",quantile="0.5"} 12.5
ccpr_apply_delay_us{site="0",quantile="0.99"} 90
"""


def scrape(text):
    return [{"metrics": text, "store": {}, "engine": {}}]


class ScrapeTest(unittest.TestCase):
    def test_labelled_samples_sum_per_name(self):
        c = run.Counters(scrape(TEXT))
        self.assertEqual(c.total("ccpr_writes_total"), 40)
        self.assertEqual(c.total("ccpr_peer_msgs_sent_total"), 12)
        self.assertEqual(c.quantile("ccpr_apply_delay_us", "0.5"), [12.5])

    def test_a_missing_counter_is_an_error_not_zero(self):
        c = run.Counters(scrape(TEXT))
        with self.assertRaises(run.BenchError):
            c.total("ccpr_wal_bytes_total")
        with self.assertRaises(run.BenchError):
            c.quantile("ccpr_read_latency_us", "0.5")

    def test_steal_share_of_all_ticks(self):
        before = [100, 0, 50, 800, 0, 0, 0, 50, 0, 0]
        after = [200, 0, 100, 1500, 0, 0, 0, 150, 0, 0]
        # 100 steal ticks of 100 + 50 + 700 + 100 = 950
        self.assertAlmostEqual(run.steal_pct(before, after), 100 * 100 / 950)


if __name__ == "__main__":
    unittest.main()
