"""The benchmark's own tests: its arithmetic, and a fast pass of each
workload with all of its correctness checks.

    python3 perfbench/run.py --selftest          # builds first, runs all
    python3 -m unittest perfbench/test_perfbench.py   # after a build
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 50), 3)

    def test_failed_requests_miss_every_limit(self):
        ok = [10.0] * 98
        # Two failures out of 100: p98 is still a real latency, p99
        # lands on a failed request.
        self.assertEqual(stats.percentile(ok, 98, missed=2), 10.0)
        self.assertEqual(stats.percentile(ok, 99, missed=2),
                         stats.MISSED_US)
        self.assertEqual(stats.percentile([], 50, missed=1),
                         stats.MISSED_US)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(100, 99), 1)


class OpenLoopTest(unittest.TestCase):
    def test_latency_runs_from_due_time(self):
        # Sent 300 ns late, answered 1000 ns after it was due.
        lat, late, missed = stats.open_loop([1000], [1300], [2000])
        self.assertEqual(lat, [1.0])
        self.assertEqual(late, [0.3])
        self.assertEqual(missed, 0)

    def test_stall_is_charged_to_delayed_requests(self):
        # A 5 us generator stall delays three requests due 1 us apart;
        # each one's latency includes the time it waited to be sent.
        due = [0, 1000, 2000]
        sent = [5000, 5000, 5000]
        ok = [6000, 6000, 6000]
        lat, late, _ = stats.open_loop(due, sent, ok)
        self.assertEqual(lat, [6.0, 5.0, 4.0])
        self.assertEqual(late, [5.0, 4.0, 3.0])

    def test_unsent_and_unanswered_are_missed(self):
        lat, late, missed = stats.open_loop([0, 10, 20], [0, 10, -1],
                                            [50, -1, -1])
        self.assertEqual(lat, [0.05])
        self.assertEqual(late, [0.0, 0.0])
        self.assertEqual(missed, 2)


def span(id_, parent, name, start, end):
    return {"id": id_, "parent": parent, "name": name, "start_ns": start,
            "end_ns": end}


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [span(0, -1, "root", 0, 100),
                 span(1, 0, "a", 10, 30),
                 span(2, 0, "b", 50, 60)]
        self.assertEqual(stats.self_times(spans),
                         {"root": 70, "a": 20, "b": 10})

    def test_overlapping_children_count_once(self):
        spans = [span(0, -1, "root", 0, 100),
                 span(1, 0, "a", 10, 40),
                 span(2, 0, "a", 30, 50)]
        self.assertEqual(stats.self_times(spans)["root"], 60)
        self.assertEqual(stats.self_times(spans)["a"], 50)

    def test_only_direct_children_and_clipped(self):
        spans = [span(0, -1, "root", 0, 100),
                 span(1, 0, "mid", 0, 50),
                 span(2, 1, "leaf", 40, 120)]  # overruns its parent
        self.assertEqual(stats.self_times(spans),
                         {"root": 50, "mid": 40, "leaf": 80})


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_printed(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER_UNITS)


def bench(*args):
    """Run the benchmark command; return (exit code, result, stdout)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py")] +
        [str(a) for a in args], capture_output=True, text=True,
        cwd=run.ROOT, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout + proc.stderr


class FastPassTest(unittest.TestCase):
    """One short run of each workload, every check included."""

    def check(self, workload, seconds, trace=0):
        code, result, out = bench("--workload", workload, "--seed", 3,
                                  "--seconds", seconds, "--trace", trace)
        self.assertEqual(code, 0, out)
        self.assertTrue(result["correct"], out)
        self.assertEqual(result["failed"], 0, out)
        self.assertGreaterEqual(result["attempted"], 1)
        want = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
        self.assertEqual(set(result["metrics"]), set(want))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], want[name])
        self.assertIn("# stamp ", out)
        return result

    def test_trng_quac(self):
        self.check("trng_quac", 1)

    def test_puf_study(self):
        self.check("puf_study", 1)

    def test_serve_mix(self):
        self.check("serve_mix", 2)

    def test_traced_counts_repeat(self):
        # Simulated counts are a pure function of the seed: two traced
        # runs must agree exactly, whatever the host did.
        counts = [k for k, u in run.PER_LAYER_UNITS.items()
                  if u == "count"]
        first = self.check("trng_quac", 1, trace=1)["metrics"]
        second = self.check("trng_quac", 1, trace=1)["metrics"]
        for k in counts:
            self.assertEqual(first[k]["value"], second[k]["value"], k)


if __name__ == "__main__":
    unittest.main()
