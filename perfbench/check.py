"""Correctness checks for the outputs of one nbrdisc CLI invocation.

Each ``check_*`` function reads the files one invocation wrote and returns a
:class:`Verdict`: how many of its units failed, what went wrong, and the
deterministic work counts read from the output.  A unit fails when it is an
undiscovered trial or an ``error:`` sweep row; a structural problem (wrong
row count, a broken invariant, a non-zero exit) fails every unit of the
invocation.

Digests cover data lines only: the ``#`` metadata block carries the output
path, which differs between checkouts.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path

PROTOCOLS = ("disco", "uconnect", "searchlight", "hedis", "todis")
# Size of each divisibility protocol's divisor set: disco {p1, p2},
# todis {n-2, n, n+2}.  The other three build grid schedules.
DIVISOR_SET_SIZE = {"disco": 2, "todis": 3}

_SUMMARY = re.compile(
    r"(?P<protocol>\w+): node_a=(?P<a>\S+) \(achieved [^)]*\) "
    r"node_b=(?P<b>\S+) \(achieved [^)]*\) "
    r"trials=(?P<trials>\d+) undiscovered=(?P<undiscovered>\d+) "
    r"max_latency=(?P<max>\d*)(?: bound=(?P<bound>\w+))?"
)


@dataclass
class Verdict:
    units: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    built: list[str] = field(default_factory=list)  # notations of schedules built

    def fail(self, message: str) -> None:
        """Record a structural problem; it fails every unit."""
        self.problems.append(message)
        self.failed = self.units


def data_digest(path: Path) -> str:
    """SHA-256 of the lines of ``path`` that are not ``#`` metadata."""
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for line in fh:
            if not line.startswith(b"#"):
                h.update(line)
    return h.hexdigest()


def _data_lines(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    return [line for line in text.splitlines() if not line.startswith("#")]


def check_simulate(out_dir: Path, stdout: Path, trials: int) -> Verdict:
    """``simulate --protocols all``: five summaries, N discovered trials each."""
    v = Verdict(units=trials * len(PROTOCOLS))
    summaries = [m for m in map(_SUMMARY.fullmatch, _data_lines(stdout)) if m]
    if [m["protocol"] for m in summaries] != list(PROTOCOLS):
        v.fail(f"summary lists {[m['protocol'] for m in summaries]}, not {list(PROTOCOLS)}")
        return v
    pairs = 0
    undiscovered = 0
    for m in summaries:
        name = m["protocol"]
        if name not in DIVISOR_SET_SIZE:
            v.built += [m["a"], m["b"]]
        if int(m["trials"]) != trials:
            v.fail(f"{name}: summary trials={m['trials']}, expected {trials}")
        rows = _data_lines(out_dir / f"{name}_trials.csv")
        if rows[:1] != ["trial,drift,latency,discovered"] or len(rows) - 1 != trials:
            v.fail(f"{name}_trials.csv: {len(rows) - 1} rows, expected {trials}")
            continue
        peak = -1
        for index, row in enumerate(rows[1:]):
            trial, _, latency, discovered = row.split(",")
            if int(trial) != index:
                v.fail(f"{name}_trials.csv: row {index} is trial {trial}")
                break
            if discovered != "1" or not latency:
                undiscovered += 1
                continue
            peak = max(peak, int(latency))
        if int(m["undiscovered"]) != 0:
            v.problems.append(f"{name}: {m['undiscovered']} undiscovered trials")
        if m["max"] != (str(peak) if peak >= 0 else ""):
            v.fail(f"{name}: summary max_latency={m['max']}, trials CSV max {peak}")
        bound = m["bound"]
        if bound is not None and bound.isdigit() and peak > int(bound):
            v.fail(f"{name}: max latency {peak} above the co-primality bound {bound}")
        cdf = _data_lines(out_dir / f"{name}_cdf.csv")
        if cdf[:1] != ["latency,fraction"] or len(cdf) < 2 or cdf[-1].split(",")[1] != "1":
            v.fail(f"{name}_cdf.csv does not end at fraction 1")
        pairs += trials * DIVISOR_SET_SIZE.get(name, 0) ** 2
    if undiscovered:
        v.problems.append(f"{undiscovered} undiscovered trials in the trial CSVs")
        v.failed = max(v.failed, undiscovered)
    v.counts = {"trials": trials * len(PROTOCOLS), "congruence_pairs": pairs}
    return v


def check_granularity(out_file: Path, deltas: int) -> Verdict:
    """``granularity --protocols all``: one row per cell, todis under its envelope."""
    cells = deltas * len(PROTOCOLS)
    v = Verdict(units=cells)
    rows = _data_lines(out_file)
    header = "protocol,desired_delta,achieved_delta,relative_error,params,todis_bound"
    if rows[:1] != [header] or len(rows) - 1 != cells:
        v.fail(f"granularity CSV has {len(rows) - 1} rows, expected {cells}")
        return v
    errors = 0
    for row in rows[1:]:
        protocol, _, _, rel, params, bound = row.split(",", 5)
        if params.startswith('"error:'):
            errors += 1
            continue
        if protocol == "todis" and bound and float(rel) > float(bound):
            v.fail(f"todis relative error {rel} above todis_bound {bound}")
    if errors:
        v.problems.append(f"{errors} error rows")
        v.failed = max(v.failed, errors)
    v.counts = {"cells": cells}
    return v


def check_verify(out_file: Path, drifts: int, exhaustive: bool) -> Verdict:
    """``verify A B``: every drift discovered, the expected number covered."""
    v = Verdict(units=drifts)
    fields = dict(line.split("=", 1) for line in _data_lines(out_file) if "=" in line)
    v.built = [fields.get("schedule_a", ""), fields.get("schedule_b", "")]
    if fields.get("all_discover") != "true":
        v.fail(f"all_discover={fields.get('all_discover')}")
    if fields.get("drifts_checked") != str(drifts):
        v.fail(f"drifts_checked={fields.get('drifts_checked')}, expected {drifts}")
    if fields.get("exhaustive") != str(exhaustive).lower():
        v.fail(f"exhaustive={fields.get('exhaustive')}, expected {str(exhaustive).lower()}")
    if not fields.get("max_latency", "").isdigit():
        v.fail(f"max_latency={fields.get('max_latency')!r} is not a slot count")
    v.counts = {"drifts": drifts}
    return v
