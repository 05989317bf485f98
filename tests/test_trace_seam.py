"""The traced benchmark replay still reaches every layer it rebinds.

``perfbench/replay.py --trace 1`` times each layer by rebinding module-level
names such as ``protocols.build_schedule`` and
``simulator.solve_congruence_pair``.  A refactor that deletes or bypasses one
of them breaks the traced benchmark; this test makes that a tier-1 failure.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced_span_counts(tmp_path, argv):
    """Replay ``nbrdisc <argv>`` traced; return how many spans of each name it recorded."""
    result = tmp_path / "seam.result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "replay.py"), "--workload", "seam",
         "--trace", "1", "--result", str(result), "--stdout", str(tmp_path / "stdout.txt"),
         "--", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(result.read_text())["rc"] == 0
    spans = (tmp_path / "seam.spans.jsonl").read_text().splitlines()
    return Counter(json.loads(line)[1] for line in spans)


def test_traced_replay_records_each_layer(tmp_path):
    argv = ["simulate", "--protocols", "all", "--delta-a", "1%", "--delta-b", "5%",
            "--trials", "2", "--out", str(tmp_path / "sim")]
    assert {
        "protocols.build_schedule",
        "simulator.latency_trials",
        "numtheory.solve_congruence_pair",
    } <= _traced_span_counts(tmp_path, argv).keys()


def test_traced_replay_records_granularity_selection(tmp_path):
    argv = ["granularity", "--protocols", "all", "--sweep", "list:0.05,0.01"]
    assert {
        "protocols.select_params",
        "granularity.sweep",
        "granularity.todis_error_upper_bound",
    } <= _traced_span_counts(tmp_path, argv).keys()


def test_traced_replay_records_sampled_verify(tmp_path):
    argv = ["verify", "todis:n=201", "todis:n=61", "--sample", "2"]
    spans = _traced_span_counts(tmp_path, argv)
    assert "simulator.verify_all_drifts" in spans
    # two divisibility specs are answered analytically: no schedule is built
    assert "protocols.build_schedule" not in spans


def test_traced_granularity_selects_fewer_times_than_cells(tmp_path):
    # the count perfbench reports as protocols.select_calls
    argv = ["granularity", "--protocols", "all", "--sweep", "percent:1..100"]
    assert _traced_span_counts(tmp_path, argv)["protocols.select_params"] < 5 * 100
