"""In-process replay of one nbrdisc CLI command, optionally traced.

Run by ``perfbench/run.py --trace 1``, one fresh process per replay so the
library's caches start cold::

    python3 perfbench/replay.py --workload NAME --trace 0|1 \\
        --result RESULT.json --stdout FILE -- <nbrdisc arguments>

The replay times ``import nbrdisc.cli`` and ``nbrdisc.cli.main(argv)``.
With ``--trace 1`` it first rebinds the module-level names through which the
CLI and the library call each layer, so every call into a layer records a
span (id, name, start ns, end ns, parent id, workload, note).  Spans stay in
memory and go to ``<RESULT stem>.spans.jsonl`` (one JSON list per line) when
the command has finished.  After the command, each schedule it built is
passed again through ``make_schedule(period, active)`` to time the
``Schedule`` validation on its own.  Nothing in ``src/`` is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional


class Tracer:
    """Collects spans of the calls made through the functions it wraps."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[tuple] = []
        self.built: list[Any] = []
        self._stack: list[Optional[int]] = [None]
        self._ids = itertools.count(1)

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        materialize: bool = False,
        note: Optional[Callable[[tuple, Any], Any]] = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``materialize`` lists a generator
        inside the span so that the span covers the work."""
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                end = clock()
                stack.pop()
            spans.append((span_id, name, start, end, parent,
                          note(args, result) if note else None))
            return result

        return traced

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, note in self.spans:
                fh.write(json.dumps([span_id, name, start, end, parent, self.workload, note]))
                fh.write("\n")


def install(tracer: Tracer) -> None:
    """Rebind, in the modules that look them up, the layer functions to traced ones."""
    from nbrdisc import cli, granularity, protocols, simulator

    wrap = tracer.wrap

    def built(args, schedule):
        tracer.built.append(schedule)
        return len(schedule.active)

    select = wrap("protocols.select_params", protocols.select_params)
    cli.select_params = granularity.select_params = select
    build = wrap("protocols.build_schedule", protocols.build_schedule, note=built)
    cli.build_schedule = protocols.build_schedule = build
    protocols.primes_up_to = wrap("numtheory.primes_up_to", protocols.primes_up_to)
    simulator.solve_congruence_pair = wrap(
        "numtheory.solve_congruence_pair", simulator.solve_congruence_pair)
    cli.latency_trials = wrap(
        "simulator.latency_trials", cli.latency_trials,
        note=lambda args, _: protocols.protocol_tag(args[0].params))
    simulator._scan = wrap("simulator._scan", simulator._scan)
    simulator.first_discovery_analytic = wrap(
        "simulator.first_discovery_analytic", simulator.first_discovery_analytic)
    simulator.trial_drift = wrap("simulator.trial_drift", simulator.trial_drift)
    cli.verify_all_drifts = wrap(
        "simulator.verify_all_drifts", cli.verify_all_drifts,
        note=lambda _, result: result.drifts_checked)
    cli.trials_csv_rows = wrap("simulator.trials_csv_rows", cli.trials_csv_rows,
                               materialize=True)
    cli.cdf_csv_rows = wrap("simulator.cdf_csv_rows", cli.cdf_csv_rows, materialize=True)
    cli.sweep = wrap("granularity.sweep", cli.sweep, note=lambda _, records: len(records))
    cli.granularity_csv_rows = wrap(
        "granularity.granularity_csv_rows", cli.granularity_csv_rows, materialize=True)
    granularity.todis_error_upper_bound = wrap(
        "granularity.todis_error_upper_bound", granularity.todis_error_upper_bound)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--stdout", type=Path, required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    start = time.perf_counter()
    import nbrdisc.cli as cli
    from nbrdisc.schedule import make_schedule

    import_s = time.perf_counter() - start
    tracer = Tracer(args.workload) if args.trace else None
    if tracer is not None:
        install(tracer)
    with args.stdout.open("w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        start = time.perf_counter()
        rc = cli.main(argv)
        replay_s = time.perf_counter() - start
    if tracer is not None:
        validate = tracer.wrap("schedule.make_schedule", make_schedule)
        for schedule in list(tracer.built):
            validate(schedule.period, schedule.active)
        tracer.write(args.result.with_name(args.result.name.replace(".result.json",
                                                                    ".spans.jsonl")))
    args.result.write_text(json.dumps({
        "workload": args.workload,
        "traced": bool(args.trace),
        "rc": rc,
        "import_s": import_s,
        "replay_s": replay_s,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
