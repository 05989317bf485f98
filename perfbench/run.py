#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the nbrdisc CLI.

Run from the root of a checkout (stdlib only, nothing to install)::

    python3 perfbench/run.py --workload simulate-mixed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload simulate-mixed --seed 1 --seconds 25 --trace 1

Untraced mode (``--trace 0``) is one closed-loop client: it runs one command
at a time, each in a fresh ``python -m nbrdisc.cli`` process, as the CLI's
users do, so every invocation pays the cold ``lru_cache``s of parameter
selection.  For ``--seconds`` it repeats: the workload's full command, a
fixed calibration loop, three runs of its set-up command (the same command
at one unit), and the calibration loop again.  It then reports:

  wall_s       median wall seconds per full invocation
  units_per_s  units per invocation divided by wall_s
  cpu_s        median user+sys CPU seconds of the child (``os.wait4``)
  setup_s      median wall seconds of the set-up command
  peak_rss_mb  median ``ru_maxrss`` of the full command's child
  ok_ratio     units that passed the correctness check / units attempted

The three times are rescaled to a reference speed of the machine.  A fixed
calibration program (``CALIBRATION``) runs right before and right after each
full invocation and each batch of set-up runs, on the same pinned CPU.
Wall and CPU seconds are scaled by the speed of its interpreter loop, set-up
seconds by the speed of its start-up and imports, each against the
reference machine's figures.  On a shared 2-vCPU host the medians of ten
25-second runs spread (interquartile range over median) by 7-22 % unscaled
and by 2-5 % rescaled.  The unscaled medians are printed and kept in the
report.

``ok_ratio`` is ``1 - fail_ratio``.  A unit fails when its command exits
non-zero, when the output breaks an invariant, or when it is an
undiscovered trial, an ``error:`` sweep row or ``all_discover=false``.
Outputs of one seed must be byte-identical across invocations, and for the
default seed (1) their data lines must match the digests in
``perfbench/golden.json``.

Traced mode (``--trace 1``) replays every workload, whichever ``--workload``
names, in process through the public functions of each module
(``perfbench/replay.py``): each replay in a fresh process so caches start
cold, once untraced and once with a span around every call into a layer.
Every per-layer metric is thus measured on every traced run; the spans carry
the workload they belong to.  It prints the per-layer metrics listed in
``LAYERS``, each with the end-to-end metric and workload it should move, and
writes the spans to ``.perfbench/trace/spans.jsonl``.

Workloads (the unit in brackets).  Each names its predicted no-change
partner: the workload on which an optimisation of its main layer should
show no change.

  simulate-mixed [trial]
      ``simulate --protocols all --delta-a 1% --delta-b 5% --trials 5000``,
      the README's headline run.  About 60 % scan engine (hedis, uconnect, searchlight)
      and 35 % analytic engine with numtheory (disco, todis).
      Partner: granularity-sweep, which runs no simulator code.
  granularity-sweep [sweep cell]
      ``granularity --protocols all`` over 1,000 duty cycles drawn from
      the seed in [1 %, 100 %].  Parameter selection, CSV rendering and the
      todis envelope; it builds no schedule.
      Partner: verify-exhaustive, which selects no parameters.
  verify-exhaustive [drift]
      ``verify hedis:n=40 hedis:n=60``: 92,040 drifts, each a fresh scan
      over small active sets.  Where the drift-class sweep engine will run.
      Fixed inputs: exhaustive mode draws nothing from the seed.
      Partner: verify-sampled-todis, which that engine's budget leaves alone.
  verify-sampled-todis [drift]
      ``verify todis:n=201 todis:n=61 --sample 40``: the only workload where
      ``build_schedule`` and ``Schedule`` validation do real work (a
      120,597-slot schedule), then few drifts scanned over that huge set.
      A sweep-engine budget fallback or a size guard must neither slow nor
      refuse it.
      Partner: simulate-mixed, whose schedules are small, for build and
      validation changes.
      Not listed in ``BENCHMARK.json``: its time is mostly ``sorted()`` over
      a 120,597-element set, which neighbours on a shared host slow unlike
      the calibration loop, so its rescaled medians spread by about 10 %
      between runs against 2-5 % for the others.  Run it by name; traced
      mode replays it, so the build and validation layers are measured.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller report,
with the environment, sample counts, tails and deterministic work counts,
goes to ``.perfbench/report-<workload>-<seed>-<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))
from check import (  # noqa: E402
    Verdict,
    check_granularity,
    check_simulate,
    check_verify,
    data_digest,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 1
# Set-up invocations after each full one; short ones need more samples.
SETUPS_PER_ITERATION = 3
# Every run must end within 180 s; stop starting commands well before that.
DEADLINE_S = 165.0


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One CLI invocation: the arguments after ``nbrdisc`` and how to check it.

    ``{out}`` in ``argv`` stands for the invocation's output directory.
    """

    argv: tuple[str, ...]
    units: int
    check: Callable[[Path], Verdict]

    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    """A workload's unit of work and its (full, set-up) commands for a seed and scale.

    Why each workload exists, and its no-change partner, is in the module
    docstring."""

    name: str
    unit: str
    commands: Callable[[random.Random, str], tuple[Command, Command]]


def _simulate(rng: random.Random, scale: str) -> tuple[Command, Command]:
    seed = str(rng.randrange(1, 2**31))

    def command(trials: int) -> Command:
        argv = ("simulate", "--protocols", "all", "--delta-a", "1%", "--delta-b", "5%",
                "--trials", str(trials), "--seed", seed, "--out", "{out}")
        return Command(argv, 5 * trials, lambda d: check_simulate(d, d / "stdout", trials))

    return command(5000 if scale == "full" else 20), command(1)


def _granularity(rng: random.Random, scale: str) -> tuple[Command, Command]:
    count = 1000 if scale == "full" else 10
    deltas = [f"{rng.randint(100, 10000)}/10000" for _ in range(count)]

    def command(chosen: list[str]) -> Command:
        argv = ("granularity", "--protocols", "all", "--sweep", "list:" + ",".join(chosen),
                "--out", "{out}/out.csv")
        return Command(argv, 5 * len(chosen),
                       lambda d: check_granularity(d / "out.csv", len(chosen)))

    return command(deltas), command(deltas[:1])


def _verify(a: str, b: str, drifts: int, sample: Optional[int], seed: str) -> Command:
    argv = ("verify", a, b, "--out", "{out}/out.txt")
    if sample is not None:
        argv += ("--sample", str(sample), "--seed", seed)
    units = drifts if sample is None else sample
    return Command(argv, units, lambda d: check_verify(d / "out.txt", units, sample is None))


def _verify_exhaustive(rng: random.Random, scale: str) -> tuple[Command, Command]:
    seed = str(rng.randrange(1, 2**31))
    n_a, n_b = (40, 60) if scale == "full" else (10, 12)
    drifts = math.lcm(n_a * (n_a - 1), n_b * (n_b - 1))  # hedis period n(n-1)
    a, b = f"hedis:n={n_a}", f"hedis:n={n_b}"
    return _verify(a, b, drifts, None, seed), _verify(a, b, drifts, 1, seed)


def _verify_todis(rng: random.Random, scale: str) -> tuple[Command, Command]:
    seed = str(rng.randrange(1, 2**31))
    sample = 40 if scale == "full" else 2
    a, b = "todis:n=201", "todis:n=61"
    return _verify(a, b, 0, sample, seed), _verify(a, b, 0, 1, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate-mixed", "trial", _simulate),
        Workload("granularity-sweep", "sweep cell", _granularity),
        Workload("verify-exhaustive", "drift", _verify_exhaustive),
        Workload("verify-sampled-todis", "drift", _verify_todis),
    )
}


def workload_commands(name: str, seed: int, scale: str) -> tuple[Command, Command]:
    """The (full, set-up) commands of a workload; inputs depend only on the seed."""
    return WORKLOADS[name].commands(random.Random(f"{name}:{seed}"), scale)


# --------------------------------------------------------------------------
# Running and checking one invocation
# --------------------------------------------------------------------------


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    verdict: Verdict
    raw_digest: str
    data_digests: dict[str, str]


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(argv: list[str], stdout, stderr, deadline: float) -> tuple[int, float, float, float]:
    """Run ``argv`` to completion; return (exit code, wall s, user+sys CPU s, max RSS MB).

    The child is killed at ``deadline`` (``time.monotonic``)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=stdout, stderr=stderr)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def run_command(cmd: Command, out_dir: Path, deadline: float) -> Outcome:
    """Run ``nbrdisc <argv>`` in a fresh process and check what it wrote."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    rel = out_dir.relative_to(ROOT).as_posix()
    argv = [a.replace("{out}", rel) for a in cmd.argv]
    with (out_dir / "stdout").open("wb") as out, (out_dir / "stderr").open("wb") as err:
        returncode, wall, cpu, rss = spawn([sys.executable, "-m", "nbrdisc.cli", *argv],
                                           out, err, deadline)
    return collect(cmd, out_dir, returncode, wall, cpu, rss)


# A fixed program, independent of the one under test, run in a fresh process
# between measured invocations.  On a shared host the speed of a CPU drifts
# by up to 2x over seconds as neighbours come and go; the drift scales the
# program and this calibration alike, so their ratio holds still.  It starts
# an interpreter and imports what the CLI imports from the standard library,
# then times two passes of an interpreter-bound loop.
CALIBRATION = """\
import argparse, bisect, dataclasses, fractions, functools, hashlib, pathlib, sys, time
active = set(range(0, 60000, 7))
wall, cpu = time.perf_counter(), time.process_time()
for _ in range(2):
    hits = 0
    for t in range(700000):
        if (t * 31 + 7) % 60000 in active:
            hits += 1
print(time.perf_counter() - wall, time.process_time() - cpu)
"""
# The calibration on the reference machine (Intel Xeon, 2 vCPUs, Python
# 3.11.7, quiet phase): seconds per loop pass, and seconds of the rest of the
# process (start-up, imports, exit).  Reported times are the measured times
# rescaled to that speed.
LOOP_REFERENCE_S = 0.12
STARTUP_REFERENCE_S = 0.07


@dataclass(frozen=True)
class Calibration:
    loop_wall: float  # wall seconds per loop pass
    loop_cpu: float  # CPU seconds per loop pass
    startup: float  # wall seconds of the process outside the loop


def calibrate(deadline: float) -> Calibration:
    """Run the calibration program once."""
    path = WORK / "calibration.out"
    with path.open("wb") as out:
        returncode, wall, _, _ = spawn([sys.executable, "-c", CALIBRATION], out,
                                       subprocess.DEVNULL, deadline)
    if returncode != 0:
        raise RuntimeError(f"calibration exited with status {returncode}")
    loop_wall, loop_cpu = map(float, path.read_text().split())
    return Calibration(loop_wall / 2, loop_cpu / 2, wall - loop_wall)


def rescale(before: Calibration, after: Calibration) -> tuple[float, float, float]:
    """Factors that bring wall, CPU and set-up seconds measured between two
    calibrations to the reference speed."""
    return (
        2 * LOOP_REFERENCE_S / (before.loop_wall + after.loop_wall),
        2 * LOOP_REFERENCE_S / (before.loop_cpu + after.loop_cpu),
        2 * STARTUP_REFERENCE_S / (before.startup + after.startup),
    )


def collect(cmd: Command, out_dir: Path, returncode: int, wall: float = 0.0,
            cpu: float = 0.0, rss_mb: float = 0.0) -> Outcome:
    """Check what one invocation wrote and digest it."""
    verdict = check_outcome(cmd, out_dir, returncode)
    files = sorted(p for p in out_dir.iterdir() if p.name != "stderr")
    raw = hashlib.sha256()
    for path in files:
        raw.update(path.name.encode() + b"\0" + path.read_bytes())
    return Outcome(wall, cpu, rss_mb, verdict, raw.hexdigest(),
                   {p.name: data_digest(p) for p in files})


def check_outcome(cmd: Command, out_dir: Path, returncode: int) -> Verdict:
    """Exit status plus the command's own output check."""
    if returncode != 0:
        verdict = Verdict(units=cmd.units)
        err = (out_dir / "stderr").read_text(encoding="utf-8", errors="replace").strip()
        verdict.fail(f"exit status {returncode}: {err[-300:]}")
        return verdict
    try:
        return cmd.check(out_dir)
    except (OSError, ValueError, IndexError) as exc:
        verdict = Verdict(units=cmd.units)
        verdict.fail(f"malformed output: {exc!r}")
        return verdict


class Tally:
    """Attempted and failed units, problems, and per-command consistency."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict[str, Outcome] = {}
        self._golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}

    def add(self, cmd: Command, outcome: Outcome) -> None:
        v = outcome.verdict
        self.attempted += v.units
        self.failed += v.failed
        self.problems += [p for p in v.problems if p not in self.problems]
        first = self._first.setdefault(cmd.key(), outcome)
        if first is outcome:
            if self.seed == DEFAULT_SEED:
                self._check_golden(cmd, outcome)
            return
        if outcome.verdict.counts != first.verdict.counts:
            self._problem(cmd, outcome, f"work counts differ: {first.verdict.counts} "
                                        f"then {outcome.verdict.counts}")
        elif outcome.raw_digest != first.raw_digest:
            self._problem(cmd, outcome, "output differs between two runs of one seed")

    def _check_golden(self, cmd: Command, outcome: Outcome) -> None:
        expected = self._golden.get(cmd.key())
        if expected is None:
            self._problem(cmd, outcome, "no golden digest recorded for the default seed")
        elif expected != outcome.data_digests:
            bad = sorted(k for k in expected.keys() | outcome.data_digests.keys()
                         if expected.get(k) != outcome.data_digests.get(k))
            self._problem(cmd, outcome, f"data lines differ from golden digests: {bad}")

    def _problem(self, cmd: Command, outcome: Outcome, message: str) -> None:
        self.problems.append(f"{cmd.argv[0]}: {message}")
        self.failed += outcome.verdict.units - outcome.verdict.failed
        outcome.verdict.failed = outcome.verdict.units

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


# --------------------------------------------------------------------------
# Statistics and the environment stamp
# --------------------------------------------------------------------------

TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(math.ceil(pct / 100 * len(ordered)) - 1, 0)]


def tail(values: list[float]) -> Optional[tuple[float, float]]:
    """(percentile, value) for the highest percentile with 10+ samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n - math.ceil(pct / 100 * n) >= 10:
            return pct, percentile(ordered, pct)
    return None


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def loadavg() -> str:
    return " ".join(_read("/proc/loadavg").split()[:3]) or "unknown"


def environment() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": loadavg(),
        "src_lines": src_lines,
    }


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU.

    The CPUs of a shared host are slowed by neighbours independently of each
    other, so the calibration loop only tracks the program's speed when both
    run on the same CPU.  The CLI is single-threaded; pinning does not change
    what it does."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: measure unpinned


def active_slots_built(notations: list[str]) -> int:
    """Active slots of the schedules a command builds, from the library itself."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from nbrdisc.protocols import build_schedule, parse_params

    return sum(len(build_schedule(parse_params(n)).active) for n in notations)


# --------------------------------------------------------------------------
# Untraced mode: end-to-end metrics
# --------------------------------------------------------------------------

END_TO_END = {
    "wall_s": "s",
    "units_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def measure(name: str, seed: int, seconds: float, scale: str, deadline: float) -> dict:
    full, setup = workload_commands(name, seed, scale)
    tally = Tally(seed)
    out = WORK / name
    # Warm-up: a fresh checkout compiles bytecode on the first run. Checked, not timed.
    tally.add(setup, run_command(setup, out / "setup", deadline))
    runs: list[Outcome] = []
    setups: list[Outcome] = []
    walls: list[float] = []
    cpus: list[float] = []
    setup_walls: list[float] = []
    calibrations = [calibrate(deadline)]
    started = time.monotonic()
    while True:
        runs.append(run_command(full, out / "full", deadline))
        tally.add(full, runs[-1])
        calibrations.append(calibrate(deadline))
        wall_k, cpu_k, _ = rescale(*calibrations[-2:])
        walls.append(runs[-1].wall_s * wall_k)
        cpus.append(runs[-1].cpu_s * cpu_k)
        batch = [run_command(setup, out / "setup", deadline)
                 for _ in range(SETUPS_PER_ITERATION)]
        for outcome in batch:
            tally.add(setup, outcome)
        calibrations.append(calibrate(deadline))
        setup_k = rescale(*calibrations[-2:])[2]
        setups += batch
        setup_walls += [s.wall_s * setup_k for s in batch]
        now = time.monotonic()
        per_iteration = (now - started) / len(runs)
        if now - started >= seconds or now + 2 * per_iteration >= deadline:
            break

    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "units_per_s": full.units / wall,
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        "ok_ratio": 1 - tally.failed / tally.attempted,
    }
    counts = dict(runs[0].verdict.counts, units=full.units)
    if not tally.problems:
        counts["active_slots_built"] = active_slots_built(runs[0].verdict.built)
    tails = {}
    for key, values in (("wall_s", walls), ("setup_s", setup_walls)):
        found = tail(values)
        tails[key] = None if found is None else {"percentile": found[0], "value": found[1]}
    return {
        "workload": name,
        "unit": WORKLOADS[name].unit,
        "command": "nbrdisc " + full.key(),
        "setup_command": "nbrdisc " + setup.key(),
        "samples": {"wall_s": len(runs), "setup_s": len(setups)},
        "tails": tails,
        "work_counts": counts,
        "metrics": metrics,
        "raw_seconds": {
            "wall": [r.wall_s for r in runs],
            "cpu": [r.cpu_s for r in runs],
            "setup": [s.wall_s for s in setups],
            "calibration_loop": [c.loop_wall for c in calibrations],
            "calibration_startup": [c.startup for c in calibrations],
        },
        "tally": tally,
    }


def print_end_to_end(result: dict) -> None:
    n = result["samples"]
    print(f"command: {result['command'][:160]}")
    print(f"set-up:  {result['setup_command'][:160]}")
    for key, unit in END_TO_END.items():
        value = result["metrics"][key]
        note = ""
        if key in result["tails"]:
            t = result["tails"][key]
            tail_text = "n/a (under 20 samples)" if t is None else \
                f"p{t['percentile']:g} {t['value']:.4f} s"
            note = f"median of {n[key]} invocations; tail {tail_text}"
        elif key == "units_per_s":
            note = f"{result['work_counts']['units']} {result['unit']}s per invocation / wall_s"
        print(f"{key:<12} {value:14.6f} {unit:<6} {note}")
    raw = result["raw_seconds"]
    print("unscaled medians: " + ", ".join(f"{k} {statistics.median(v):.4f} s"
                                           for k, v in raw.items()))
    counts = " ".join(f"{k}={v}" for k, v in result["work_counts"].items())
    print(f"work counts: {counts}")


# --------------------------------------------------------------------------
# Traced mode: per-layer metrics
# --------------------------------------------------------------------------

# name -> (unit, which end-to-end metric it should move, on which workload)
LAYERS = {
    "cli.import_s": ("s", "setup_s on every workload"),
    "protocols.select_s": ("s", "units_per_s on granularity-sweep"),
    "protocols.select_calls": ("count", "units_per_s on granularity-sweep"),
    "protocols.select_us.p50": ("us", "units_per_s on granularity-sweep"),
    "protocols.select_us.tail": ("us", "units_per_s on granularity-sweep"),
    "protocols.build_s": ("s", "setup_s and peak_rss_mb on verify-sampled-todis"),
    "protocols.active_slots": ("count", "setup_s and peak_rss_mb on verify-sampled-todis"),
    "schedule.validate_s": ("s", "setup_s and peak_rss_mb on verify-sampled-todis"),
    **{f"simulator.trials_s.{p}": ("s", "units_per_s on simulate-mixed")
       for p in ("disco", "uconnect", "searchlight", "hedis", "todis")},
    "simulator.first_discovery_us.p50": ("us", "units_per_s on simulate-mixed"),
    "simulator.first_discovery_us.tail": ("us", "units_per_s on simulate-mixed"),
    "simulator.csv_s": ("s", "units_per_s on simulate-mixed"),
    "simulator.analytic_us.p50": ("us", "units_per_s on simulate-mixed (disco, todis)"),
    "simulator.analytic_us.tail": ("us", "units_per_s on simulate-mixed (disco, todis)"),
    "numtheory.solve_s": ("s", "units_per_s on simulate-mixed (disco, todis)"),
    "numtheory.solves": ("count", "units_per_s on simulate-mixed (disco, todis)"),
    "simulator.trial_drift_s": ("s", "simulate-mixed and verify-sampled-todis"),
    "simulator.trial_drifts": ("count", "simulate-mixed and verify-sampled-todis"),
    "simulator.verify_s": ("s", "units_per_s on both verify workloads"),
    "simulator.drifts": ("count", "units_per_s on both verify workloads"),
    "numtheory.primes_s": ("s", "setup_s on simulate-mixed and granularity-sweep"),
    "granularity.sweep_s": ("s", "units_per_s on granularity-sweep"),
    "granularity.cells": ("count", "units_per_s on granularity-sweep"),
    "granularity.envelope_s": ("s", "units_per_s on granularity-sweep"),
    "granularity.csv_s": ("s", "units_per_s on granularity-sweep"),
    "trace.overhead_s": ("s", "none: traced minus untraced replay time"),
}

# Span names recorded by replay.py, by the per-layer metric they feed.
_SUM_S = {
    "protocols.select_s": ("protocols.select_params",),
    "protocols.build_s": ("protocols.build_schedule",),
    "schedule.validate_s": ("schedule.make_schedule",),
    "simulator.csv_s": ("simulator.trials_csv_rows", "simulator.cdf_csv_rows"),
    "numtheory.solve_s": ("numtheory.solve_congruence_pair",),
    "simulator.trial_drift_s": ("simulator.trial_drift",),
    "simulator.verify_s": ("simulator.verify_all_drifts",),
    "numtheory.primes_s": ("numtheory.primes_up_to",),
    "granularity.sweep_s": ("granularity.sweep",),
    "granularity.envelope_s": ("granularity.todis_error_upper_bound",),
    "granularity.csv_s": ("granularity.granularity_csv_rows",),
}
_CALLS = {
    "protocols.select_calls": "protocols.select_params",
    "numtheory.solves": "numtheory.solve_congruence_pair",
    "simulator.trial_drifts": "simulator.trial_drift",
}
_NOTE_SUM = {  # the span's note carries the count
    "protocols.active_slots": "protocols.build_schedule",
    "simulator.drifts": "simulator.verify_all_drifts",
    "granularity.cells": "granularity.sweep",
}
_PER_CALL_US = {
    "protocols.select_us": "protocols.select_params",
    "simulator.first_discovery_us": "simulator._scan",
    "simulator.analytic_us": "simulator.first_discovery_analytic",
}


def replay(name: str, cmd: Command, traced: bool, tally: Tally, deadline: float) -> dict:
    """Run ``replay.py`` for one command in a fresh process; return its result."""
    out_dir = WORK / "trace" / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    rel = out_dir.relative_to(ROOT).as_posix()
    result_file = WORK / "trace" / f"{name}.result.json"
    result_file.unlink(missing_ok=True)
    (WORK / "trace" / f"{name}.spans.jsonl").unlink(missing_ok=True)
    argv = [a.replace("{out}", rel) for a in cmd.argv]
    with (out_dir / "stderr").open("wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("replay.py")),
             "--workload", name, "--trace", str(int(traced)),
             "--result", str(result_file), "--stdout", str(out_dir / "stdout"),
             "--", *argv],
            cwd=ROOT, env=_child_env(), stderr=err)
        try:
            proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    result = json.loads(result_file.read_text()) if result_file.is_file() else {}
    tally.add(cmd, collect(cmd, out_dir, result.get("rc", proc.returncode or 1)))
    return result


def layer_round(results: list[dict], spans: list[list]) -> dict:
    """Per-layer metrics of one round of replays (every workload, both modes)."""
    durations: dict[str, list[int]] = {}
    notes: dict[str, list] = {}
    for _, span_name, start, end, _, _, note in spans:
        durations.setdefault(span_name, []).append(end - start)
        notes.setdefault(span_name, []).append(note)
    m: dict[str, float] = {}
    m["cli.import_s"] = statistics.median(r["import_s"] for r in results)
    for metric, names in _SUM_S.items():
        m[metric] = sum(sum(durations.get(n, [])) for n in names) / 1e9
    for metric, span_name in _CALLS.items():
        m[metric] = len(durations.get(span_name, []))
    for metric, span_name in _NOTE_SUM.items():
        m[metric] = sum(notes.get(span_name, []))
    by_protocol: dict[str, int] = {}
    for d, note in zip(durations.get("simulator.latency_trials", []),
                       notes.get("simulator.latency_trials", [])):
        by_protocol[note] = by_protocol.get(note, 0) + d
    for protocol in ("disco", "uconnect", "searchlight", "hedis", "todis"):
        m[f"simulator.trials_s.{protocol}"] = by_protocol.get(protocol, 0) / 1e9
    tails = {}
    for metric, span_name in _PER_CALL_US.items():
        values = sorted(d / 1e3 for d in durations.get(span_name, []))
        m[f"{metric}.p50"] = statistics.median(values) if values else 0.0
        found = tail(values)
        m[f"{metric}.tail"] = found[1] if found else (values[-1] if values else 0.0)
        tails[f"{metric}.tail"] = {"percentile": found[0] if found else 100.0,
                                   "samples": len(values)}
    traced = sum(r["replay_s"] for r in results if r["traced"])
    plain = sum(r["replay_s"] for r in results if not r["traced"])
    m["trace.overhead_s"] = traced - plain
    return {"metrics": m, "tails": tails}


def measure_layers(seed: int, seconds: float, scale: str, deadline: float) -> dict:
    tally = Tally(seed)
    trace_dir = WORK / "trace"
    rounds = []
    stop = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        results, spans = [], []
        for name in WORKLOADS:
            full, _ = workload_commands(name, seed, scale)
            for traced in (False, True):
                results.append(replay(name, full, traced, tally, deadline))
            span_file = trace_dir / f"{name}.spans.jsonl"
            if not all(results) or not span_file.is_file():
                tally.problems.append(f"{name}: a replay produced no result")
                break
            with span_file.open(encoding="utf-8") as fh:
                spans += [json.loads(line) for line in fh]
        if tally.problems:
            break
        rounds.append(layer_round(results, spans))
        now = time.monotonic()
        if now >= stop or now + (now - started) >= deadline:
            break
    with (trace_dir / "spans.jsonl").open("wb") as merged:
        for name in WORKLOADS:
            part = trace_dir / f"{name}.spans.jsonl"
            if part.is_file():
                merged.write(part.read_bytes())
    metrics, counts = {}, {}
    for key, (unit, _) in LAYERS.items():
        values = [r["metrics"][key] for r in rounds]
        if not values:
            continue
        if unit == "count":
            counts[key] = values[0]
            if len(set(values)) != 1:
                tally.problems.append(f"{key} differs between rounds: {values}")
        metrics[key] = values[0] if unit == "count" else statistics.median(values)
    return {
        "rounds": len(rounds),
        "metrics": metrics,
        "tails": rounds[0]["tails"] if rounds else {},
        "work_counts": counts,
        "span_file": str((trace_dir / "spans.jsonl").relative_to(ROOT)),
        "tally": tally,
    }


def print_layers(result: dict) -> None:
    print(f"traced replay of every workload, {result['rounds']} round(s); "
          f"spans: {result['span_file']}")
    for key, (unit, moves) in LAYERS.items():
        if key not in result["metrics"]:
            continue
        value = result["metrics"][key]
        extra = ""
        if key in result["tails"]:
            t = result["tails"][key]
            extra = f" (p{t['percentile']:g} of {t['samples']} calls)"
        shown = f"{value:14d}" if unit == "count" else f"{value:14.6f}"
        print(f"{key:<36} {shown} {unit:<5} moves {moves}{extra}")


# --------------------------------------------------------------------------
# Golden digests and the command line
# --------------------------------------------------------------------------


def record_golden() -> None:
    """Write the data-line digests of every command at the default seed."""
    golden = {}
    deadline = time.monotonic() + 600
    for scale in ("full", "tiny"):
        for name in WORKLOADS:
            for cmd in workload_commands(name, DEFAULT_SEED, scale):
                outcome = run_command(cmd, WORK / "golden", deadline)
                if outcome.verdict.problems or outcome.verdict.failed:
                    raise SystemExit(f"{name}: {outcome.verdict.problems}")
                golden[cmd.key()] = outcome.data_digests
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {GOLDEN.relative_to(ROOT)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description=__doc__.split("\n\n")[0],
        epilog=__doc__[__doc__.index("Workloads ("):__doc__.index("The last line")],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced per-layer replay instead of end-to-end timing")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the self-test")
    parser.add_argument("--record-golden", action="store_true",
                        help="record the default seed's output digests and exit")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "nbrdisc" / "cli.py").is_file():
        print(f"error: no nbrdisc sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        print("error: --workload is required", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    pin_to_one_cpu()
    env = environment()
    print(f"nbrdisc benchmark: workload={args.workload} seed={args.seed} "
          f"scale={args.scale} trace={args.trace} seconds={args.seconds:g}")
    print(f"environment: python {env['python']}, nproc {env['nproc']}, {env['cpu_model']}, "
          f"src lines {env['src_lines']}, loadavg {env['loadavg_start']}")
    if args.trace:
        result = measure_layers(args.seed, args.seconds, args.scale, deadline)
        print_layers(result)
        units = {key: unit for key, (unit, _) in LAYERS.items()}
    else:
        result = measure(args.workload, args.seed, args.seconds, args.scale, deadline)
        print_end_to_end(result)
        units = END_TO_END
    tally: Tally = result.pop("tally")
    env["loadavg_end"] = loadavg()
    print(f"loadavg at end {env['loadavg_end']}")
    for problem in tally.problems[:20]:
        print(f"problem: {problem}")
    print(f"correct: {tally.correct} (units attempted {tally.attempted}, failed {tally.failed})")
    report = WORK / f"report-{args.workload}-{args.seed}-{args.trace}.json"
    report.write_text(json.dumps(
        dict(result, environment=env, seed=args.seed, scale=args.scale,
             problems=tally.problems, attempted=tally.attempted, failed=tally.failed),
        indent=1, default=str) + "\n")
    print(f"report: {report.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
