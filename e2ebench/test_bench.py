#!/usr/bin/env python3
"""Self-checks of the e2ebench benchmark. Run from the repository root:

    python3 e2ebench/test_bench.py

- Determinism: two traced quick runs of a workload with the same seed give
  the same op-stream digest and identical count-based layer metrics; a
  different seed gives a different digest.
- Coverage: a quick (--seconds 1) run of every workload, untraced and
  traced, passes its correctness check and emits every metric that
  BENCHMARK.json names, finite and with its unit.
"""
import json
import math
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own build + run wrapper)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Layer metrics that are counts or ratios of counts, not times: with one
# client thread and a serial engine they must repeat exactly.
COUNT_UNITS = {"1/op", "B/B", "ratio", "count"}
BINARY = None


def execute(workload, seed, trace, seconds=1):
    """Runs the benchmark binary once; returns (result, raw record)."""
    with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
        raw_path = Path(tmp) / "raw.json"
        proc = subprocess.run(
            [str(BINARY), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--raw", str(raw_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=run.RUN_TIMEOUT_S)
        if proc.returncode != 0:
            raise AssertionError(f"{workload} trace={trace} exit "
                                 f"{proc.returncode}:\n{proc.stderr[-3000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        return result, json.loads(raw_path.read_text())


class Coverage(unittest.TestCase):
    def check(self, workload, trace):
        result, _ = execute(workload, seed=7, trace=trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        names = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in names})
        for m in names:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, trace=0)

    def test_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, trace=1)


class Determinism(unittest.TestCase):
    def test_same_seed_repeats_and_other_seed_differs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, raw_a = execute(w, seed=3, trace=1)
                b, raw_b = execute(w, seed=3, trace=1)
                _, raw_c = execute(w, seed=4, trace=1)
                self.assertEqual(raw_a["digest"], raw_b["digest"])
                self.assertNotEqual(raw_a["digest"], raw_c["digest"])
                counts = [n for n, m in a["metrics"].items()
                          if m["unit"] in COUNT_UNITS]
                for name in ("rpc.requests_per_op", "net.doorbells_per_op",
                             "dfs.chunk_ops_per_op", "dfs.lookup_hit_ratio",
                             "vos.read_amp", "vos.write_amp"):
                    self.assertIn(name, counts)
                for name in counts:
                    self.assertEqual(a["metrics"][name]["value"],
                                     b["metrics"][name]["value"], name)


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
