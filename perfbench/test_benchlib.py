"""Self-tests of the benchmark's own Python code. run.py runs them before
every workload; by hand: python3 -m unittest discover -s perfbench -p 'test_*.py'"""

import json
import os
import tempfile
import unittest

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(values, 0.5), 50)
        self.assertEqual(benchlib.percentile(values, 0.99), 99)
        self.assertEqual(benchlib.percentile(values, 1.0), 100)
        self.assertEqual(benchlib.percentile([7], 0.99), 7)
        self.assertEqual(benchlib.percentile([3, 1, 2], 0.5), 2)

    def test_median(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 2, 3]), 2.5)

    def test_tail_picks_highest_supported_percentile(self):
        # 10,000 samples: p99.9 has 10 beyond it, p99.99 only 1.
        values = list(range(10000))
        q, value, count = benchlib.tail(values)
        self.assertEqual(q, 0.999)
        self.assertEqual(value, 9989)
        self.assertEqual(count, 10)
        # 1,000 samples: only p99 has 10 beyond.
        q, _, count = benchlib.tail(list(range(1000)))
        self.assertEqual((q, count), (0.99, 10))
        # Too few samples for any tail percentile.
        self.assertIsNone(benchlib.tail(list(range(100))))

    def test_ties_do_not_count_as_beyond(self):
        values = [1.0] * 50 + [2.0] * 50
        self.assertEqual(benchlib.beyond(values, benchlib.percentile(values, 0.5)), 50)
        self.assertEqual(benchlib.beyond(values, 2.0), 0)


class ProcReaders(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.proc = self.dir.name
        os.makedirs(os.path.join(self.proc, "42"))

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, text):
        path = os.path.join(self.proc, name)
        with open(path, "w") as f:
            f.write(text)
        return path

    def test_cpu_seconds_survives_odd_command_names(self):
        ticks = os.sysconf("SC_CLK_TCK")
        fields = ["S"] + ["0"] * 10 + [str(3 * ticks), str(2 * ticks)] + ["0"] * 30
        self.write("42/stat", "42 (a) b (c)) " + " ".join(fields) + "\n")
        self.assertAlmostEqual(benchlib.read_cpu_seconds(42, self.proc), 5.0)

    def test_vmhwm(self):
        self.write("42/status", "Name:\tx\nVmPeak:\t 9 kB\nVmHWM:\t   2048 kB\n")
        self.assertEqual(benchlib.read_vmhwm_mb(42, self.proc), 2.0)

    def test_steal(self):
        before = self.write("stat0", "cpu  100 0 50 800 10 0 0 40 0 0\ncpu0 1 2 3\n")
        after = self.write("stat1", "cpu  200 0 100 1600 20 0 0 80 0 0\ncpu0 1 2 3\n")
        b, a = benchlib.read_cpu_times(before), benchlib.read_cpu_times(after)
        self.assertEqual(b, (40, 1000))
        self.assertAlmostEqual(benchlib.steal_frac(b, a), 0.04)

    def test_live_proc(self):
        pid = os.getpid()
        self.assertGreater(benchlib.read_vmhwm_mb(pid), 0)
        self.assertGreaterEqual(benchlib.read_cpu_seconds(pid), 0)
        steal, total = benchlib.read_cpu_times()
        self.assertGreater(total, steal)


class Records(unittest.TestCase):
    def test_parse(self):
        with tempfile.NamedTemporaryFile("w", delete=False) as f:
            f.write("# 100 200 300 20\n0 5 210 260 0 1,2,3\n1 6 220 0 3 -\n")
        try:
            header, rows = benchlib.parse_records(f.name)
        finally:
            os.unlink(f.name)
        self.assertEqual(header, {"start": 100, "from": 200, "to": 300, "k": 20})
        self.assertEqual(rows, [(0, 5, 210, 260, 0), (1, 6, 220, 0, 3)])


class Declarations(unittest.TestCase):
    """BENCHMARK.json, run.py and the layer map name the same metrics."""

    def test_metric_names_agree(self):
        import run
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)
        driven = [w["name"] for w in bench["workloads"]]
        self.assertLessEqual(set(driven), set(run.WORKLOADS))
        with open(os.path.join(HERE, "layer_map.json")) as f:
            layer_map = json.load(f)
        self.assertEqual(set(layer_map), set(run.PER_LAYER))
        for name, entry in layer_map.items():
            for target in entry["moves"]:
                self.assertIn(target["metric"], run.END_TO_END, name)
                self.assertIn(target["workload"], run.WORKLOADS, name)
            # Every layer metric moves something the driver runs.
            self.assertTrue(any(t["workload"] in driven for t in entry["moves"]), name)


if __name__ == "__main__":
    unittest.main()
