"""Self-test of the benchmark on tiny inputs.

Run from the repository root:

    python3 bench/selftest.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit by every workload in both modes, that a wrong serve response and a
corrupted grid artifact each count as failures, and that the benchmark
refuses to run without the program's source.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import TINY, check_prep_command, serve_data  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Per-layer metrics that may legitimately read 0 on every tiny workload.
MAY_BE_ZERO = {"pipeline.requests_failed", "augment.l1_after", "postprocess.repair_changed_ratio"}


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        nonzero: set[str] = set()
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    with contextlib.redirect_stdout(io.StringIO()):
                        result = run.run(workload, 5, 0.3, trace, TINY)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], float)
                        if m["value"] != 0:
                            nonzero.add(name)
                    if not trace:
                        zero = [n for n, m in result["metrics"].items() if m["value"] <= 0]
                        self.assertEqual(zero, [], "end-to-end metrics must never be 0")
        # A per-layer name that no workload fills is a typo or a lost span.
        unfilled = {m["name"] for m in SPEC["per_layer"]} - nonzero - MAY_BE_ZERO
        self.assertEqual(unfilled, set())


class FailuresAreCaught(unittest.TestCase):
    def setUp(self):
        self.work = ROOT / ".bench_work" / "selftest"
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def test_wrong_serve_response(self):
        from espunct.crosslingual import anglicize_to_spanish_conventions
        from espunct.pipeline import restore
        from espunct.tagger import Strategy, TrainConfig, run_strategy
        from serve import LoopResult, ServerProcess, check_response, closed_loop

        es, en, requests = serve_data(5, TINY)
        model = run_strategy(
            Strategy.JOINT, es, [anglicize_to_spanish_conventions(u) for u in en],
            TrainConfig(epochs=1),
        )
        model_path = self.work / "model.json"
        model.save(model_path)
        texts = [t for t, _ in requests]
        expected = []
        for text in texts:
            rendered, labels = restore(model, text)
            expected.append((rendered, [lab.name for lab in labels]))
        good = json.dumps({"id": "r0", "text": expected[0][0], "labels": expected[0][1]})
        self.assertIsNone(check_response(good.encode(), "r0", expected[0]))
        # The benchmark's expectation is tampered with, so the server's
        # correct answer must be counted as a parity mismatch.
        expected[0] = (expected[0][0] + " x", expected[0][1])
        server = ServerProcess(ROOT, model_path)
        loop = LoopResult()
        try:
            closed_loop(server.port, texts, expected, 2, 0.0, 0.2, loop)
        finally:
            server.stop()
        self.assertTrue(any("differs" in f for f in loop.failures), loop.failures)
        self.assertEqual(
            check_response(b'{"id":"r1","error":"MalformedRequest","message":"x"}', "r1", expected[1]),
            "error response MalformedRequest: x",
        )

    def test_corrupted_grid_artifact(self):
        import worker
        from workloads import write_grid_inputs

        config = write_grid_inputs(5, TINY, self.work)
        runner = worker.GridRunner({"dir": str(self.work), "config": config})
        _, failures = runner.unit()
        self.assertEqual(failures, [])
        _, failures = runner.unit()
        self.assertEqual(failures, [], "repeated grid runs must be byte-identical")

        original = worker.run_experiment

        def corrupting(cfg):
            reports = original(cfg)
            path = cfg.output_dir / "model_joint.json"
            path.write_bytes(path.read_bytes().replace(b"0", b"1", 1))
            return reports

        worker.run_experiment = corrupting
        try:
            _, failures = runner.unit()
        finally:
            worker.run_experiment = original
        self.assertEqual(failures, ["artifact differs: model_joint.json"])

    def test_prep_invariant_violation(self):
        out = self.work
        (out / "selected.jsonl").write_text('{"text":"a"}\n', encoding="utf-8")
        self.assertEqual(
            check_prep_command("select", out, {"k": 2}), "select wrote 1 records, want 2"
        )

    def test_refuses_without_program(self):
        bare = self.work / "bare"
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
