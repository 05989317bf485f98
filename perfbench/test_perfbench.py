"""Self-test of the benchmark, run from the root of a checkout::

    python3 -m unittest perfbench/test_perfbench.py

Runs every workload at tiny size in both modes, checks that every metric
of ``BENCHMARK.json`` is printed with its unit, and feeds the checker
tampered outputs to prove that it reports them.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SCRATCH = run.WORK / "selftest"


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


class TinyRuns(unittest.TestCase):
    def check_result(self, proc: subprocess.CompletedProcess, metrics: list[dict]) -> dict:
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in metrics}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, expected)
        report = "\n".join(lines[:-1])
        for name, unit in expected.items():
            self.assertRegex(report, rf"(?m)^{re.escape(name)} +[-\d.]+ {re.escape(unit)} ")
        return result

    def test_every_workload_end_to_end(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench("--workload", workload, "--seed", str(run.DEFAULT_SEED),
                             "--seconds", "1", "--trace", "0", "--scale", "tiny")
                result = self.check_result(proc, SPEC["end_to_end"])
                self.assertEqual(result["metrics"]["ok_ratio"]["value"], 1.0)
                self.assertIn("work counts:", proc.stdout)

    def test_traced_replay(self):
        proc = bench("--workload", "simulate-mixed", "--seed", "3", "--seconds", "1",
                     "--trace", "1", "--scale", "tiny")
        self.check_result(proc, SPEC["per_layer"])
        with (run.WORK / "trace" / "spans.jsonl").open() as fh:
            spans = [json.loads(line) for line in fh]
        self.assertTrue(all(len(span) == 7 for span in spans))
        self.assertEqual({span[5] for span in spans}, set(run.WORKLOADS))

    def test_refuses_checkout_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "simulate-mixed", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


class Checker(unittest.TestCase):
    def setUp(self):
        self.deadline = run.time.monotonic() + 120

    def produce(self, workload: str) -> tuple[run.Command, Path]:
        full, _ = run.workload_commands(workload, run.DEFAULT_SEED, "tiny")
        out = SCRATCH / workload
        outcome = run.run_command(full, out, self.deadline)
        self.assertEqual(outcome.verdict.problems, [])
        return full, out

    def assert_rejected(self, cmd: run.Command, out: Path) -> None:
        verdict = run.check_outcome(cmd, out, 0)
        self.assertTrue(verdict.problems)
        self.assertGreater(verdict.failed, 0)

    @staticmethod
    def edit(path: Path, old: str, new: str) -> None:
        text = path.read_text()
        assert old in text, (old, path)
        path.write_text(text.replace(old, new, 1))

    def test_undiscovered_trial(self):
        cmd, out = self.produce("simulate-mixed")
        trials = out / "hedis_trials.csv"
        last = trials.read_text().splitlines()[-1]
        trial, drift, _, _ = last.split(",")
        self.edit(trials, last, f"{trial},{drift},,0")
        self.assert_rejected(cmd, out)

    def test_latency_above_bound(self):
        cmd, out = self.produce("simulate-mixed")
        stdout = out / "stdout"
        stdout.write_text(re.sub(r"bound=\d+", "bound=0", stdout.read_text()))
        self.assert_rejected(cmd, out)

    def test_missing_sweep_row(self):
        cmd, out = self.produce("granularity-sweep")
        csv = out / "out.csv"
        csv.write_text("\n".join(csv.read_text().splitlines()[:-1]) + "\n")
        self.assert_rejected(cmd, out)

    def test_all_discover_false(self):
        cmd, out = self.produce("verify-exhaustive")
        self.edit(out / "out.txt", "all_discover=true", "all_discover=false")
        self.assert_rejected(cmd, out)

    def test_changed_data_line_misses_golden_digest(self):
        cmd, out = self.produce("verify-sampled-todis")
        self.edit(out / "out.txt", "mean_latency=", "mean_latency=1")
        tally = run.Tally(run.DEFAULT_SEED)
        tally.add(cmd, run.collect(cmd, out, 0))
        self.assertFalse(tally.correct)
        self.assertTrue(any("golden" in p for p in tally.problems))

    def test_inputs_depend_only_on_seed(self):
        for name in run.WORKLOADS:
            first = [c.key() for c in run.workload_commands(name, 5, "full")]
            again = [c.key() for c in run.workload_commands(name, 5, "full")]
            self.assertEqual(first, again)
        other = run.workload_commands("granularity-sweep", 6, "full")[0].key()
        self.assertNotEqual(other, run.workload_commands("granularity-sweep", 5, "full")[0].key())


if __name__ == "__main__":
    unittest.main()
