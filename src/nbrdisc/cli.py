"""Command-line front end: one ``cmd_*`` function per subcommand.

Every output file starts with a metadata comment block carrying the exact
command line, the seed and the library version; reruns of the same
invocation produce byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import __version__
from .protocols import (
    DEFAULT_OPTIONS,
    MAX_WORK,
    PROTOCOL_ORDER,
    NotationError,
    ParameterError,
    ScanBudgetError,
    SelectionError,
    SelectionOptions,
    escape_error,
    format_params,
    format_rational,
    parse_params,
    select_params,
)
from .numtheory import worst_case_bound

# The names this module takes from each engine module.  A command binds
# those of the engines it runs (``_load``), so it imports no other engine;
# they stay module globals that the traced replay (perfbench/replay.py) reads
# and rebinds, and a rebinding made before the command runs is kept.
_ENGINES = {
    "granularity": ("sweep", "granularity_csv_rows"),
    "simulator": ("latency_trials", "verify_all_drifts", "trials_csv_rows", "cdf_csv_rows"),
}


def _load(module: str) -> None:
    engine = getattr(__import__(__package__, fromlist=[module]), module)
    for name in _ENGINES[module]:
        globals().setdefault(name, getattr(engine, name))


def __getattr__(name: str):
    """An engine name read before any command has bound it (PEP 562)."""
    for module, names in _ENGINES.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def parse_delta(text: str) -> Fraction:
    """Duty cycle from '0.05', '1/20' or '5%'."""
    token = text.strip()
    num, _, den = token.partition("/")
    try:
        if num.isdigit() and den.isdigit():
            return Fraction(int(num), int(den))  # exact, as Fraction(token) reads it
        if token.endswith("%"):
            return Fraction(token[:-1]) / 100
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise NotationError(f"bad duty cycle '{text}'") from None


def parse_sweep(text: str) -> list[Fraction]:
    """Sweep grammar: ``reciprocal:<K>``, ``percent:<a>..<b>``, ``list:<floats>``."""
    kind, sep, rest = text.strip().partition(":")
    if not sep:
        raise NotationError(f"bad sweep '{text}' (expected kind:args)")
    if kind == "reciprocal":
        try:
            k = int(rest)
        except ValueError:
            raise NotationError(f"bad reciprocal count '{rest}'") from None
        if k < 1:
            raise NotationError(f"reciprocal count must be >= 1, got {k}")
        return [Fraction(1, i) for i in range(1, k + 1)]
    if kind == "percent":
        lo_txt, sep2, hi_txt = rest.partition("..")
        if not sep2:
            raise NotationError(f"bad percent range '{rest}' (expected a..b)")
        try:
            lo, hi = int(lo_txt), int(hi_txt)
        except ValueError:
            raise NotationError(f"bad percent range '{rest}'") from None
        lo = max(lo, 1)  # relative error is undefined at 0%
        if hi > 100 or lo > hi:
            raise NotationError(f"percent range '{rest}' outside 1..100")
        return [Fraction(p, 100) for p in range(lo, hi + 1)]
    if kind == "list":
        return [parse_delta(tok) for tok in rest.split(",") if tok.strip()]
    raise NotationError(f"unknown sweep kind '{kind}'")


def parse_protocols(text: str) -> list[str]:
    if text.strip() == "all":
        return list(PROTOCOL_ORDER)
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    for i, name in enumerate(names):
        if name not in PROTOCOL_ORDER:
            raise NotationError(f"unknown protocol '{name}'")
        if name in names[:i]:
            raise NotationError(f"duplicate protocol '{name}'")
    if not names:
        raise NotationError("empty protocol list")
    return names


def _options_from(args: argparse.Namespace) -> SelectionOptions:
    return SelectionOptions(hedis_parity=args.parity, searchlight_t=args.searchlight_t)


class OutputError(ValueError):
    """An ``--out`` path that cannot be written; reported like other refused input."""

    def __init__(self, path: str | Path, exc: OSError) -> None:
        super().__init__(f"cannot write '{path}': {exc.strerror or exc}")


def _write_lines(
    out: Optional[str], lines: Iterable[str], argv: Sequence[str], seed: int
) -> None:
    head = f"# command: nbrdisc {' '.join(argv)}\n# seed: {seed}\n# version: {__version__}"
    text = "\n".join([head, *lines]) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise OutputError(out, exc) from None


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_schedule(args: argparse.Namespace, argv: Sequence[str]) -> int:
    if args.limit < 0:
        raise NotationError(f"--limit must be >= 0, got {args.limit}")
    params = parse_params(args.spec)
    period, duty = params.period, params.duty
    limit = min(args.limit, period) if args.limit else period
    slots = params.wake_slots(limit)
    lines = [
        f"params={format_params(params)}",
        f"period={period}",
        f"duty_cycle={duty} ({format_rational(duty * 100)}%)",
        f"limit={limit}",
        "active=" + ",".join(str(t) for t in slots),
    ]
    _write_lines(args.out, lines, argv, args.seed)
    return 0


def cmd_params(args: argparse.Namespace, argv: Sequence[str]) -> int:
    _load("granularity")
    delta = parse_delta(args.delta)
    records = sweep(parse_protocols(args.protocols), [delta], _options_from(args))
    desired = format_rational(delta)
    lines = ["protocol,params,desired_delta,achieved_delta,relative_error"]
    for rec in records:
        if rec.error is not None:
            lines.append(f'{rec.protocol},"error:{escape_error(rec.error)}",{desired},,')
            continue
        achieved, err = format_rational(rec.achieved_delta), format_rational(rec.relative_error)
        lines.append(f'{rec.protocol},"{format_params(rec.params)}",{desired},{achieved},{err}')
    _write_lines(args.out, lines, argv, args.seed)
    return 1 if any(rec.error is not None for rec in records) else 0


def cmd_granularity(args: argparse.Namespace, argv: Sequence[str]) -> int:
    _load("granularity")
    protocols = parse_protocols(args.protocols)
    deltas = parse_sweep(args.sweep)
    records = sweep(protocols, deltas, _options_from(args))
    lines = list(granularity_csv_rows(records))
    _write_lines(args.out, lines, argv, args.seed)
    return 1 if any(rec.error is not None for rec in records) else 0


def cmd_verify(args: argparse.Namespace, argv: Sequence[str]) -> int:
    _load("simulator")
    params_a, params_b = parse_params(args.spec_a), parse_params(args.spec_b)
    result = verify_all_drifts(
        params_a, params_b, max_work=args.max_work, sample=args.sample, seed=args.seed
    )
    mean = "" if result.mean_latency is None else format_rational(result.mean_latency)
    peak = "" if result.max_latency is None else str(result.max_latency)
    lines = [
        f"schedule_a={format_params(params_a)}",
        f"schedule_b={format_params(params_b)}",
        f"all_discover={str(result.all_discover).lower()}",
        f"max_latency={peak}",
        f"mean_latency={mean}",
        f"drifts_checked={result.drifts_checked}",
        f"exhaustive={str(result.exhaustive).lower()}",
    ]
    _write_lines(args.out, lines, argv, args.seed)
    return 0 if result.all_discover else 1


def cmd_simulate(args: argparse.Namespace, argv: Sequence[str]) -> int:
    _load("simulator")
    protocols = parse_protocols(args.protocols)
    delta_a = parse_delta(args.delta_a)
    delta_b = parse_delta(args.delta_b)
    options = _options_from(args)
    if args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(out_dir, exc) from None
    status = 0
    for protocol in protocols:
        try:
            cfg_a = select_params(protocol, delta_a, options)
            cfg_b = select_params(protocol, delta_b, options)
            dist = latency_trials(cfg_a, cfg_b, args.trials, args.seed)
        except (SelectionError, ParameterError) as exc:
            print(f"{protocol}: error:{escape_error(str(exc))}")
            status = 1
            continue
        _write_lines(
            str(out_dir / f"{protocol}_trials.csv"), trials_csv_rows(dist), argv, args.seed
        )
        _write_lines(str(out_dir / f"{protocol}_cdf.csv"), cdf_csv_rows(dist), argv, args.seed)
        value = worst_case_bound(cfg_a.params.rendezvous, cfg_b.params.rendezvous)
        bound = "" if value is None else f" bound={value}"
        peak = max(dist.latencies) if dist.latencies else ""
        print(
            f"{protocol}: node_a={format_params(cfg_a.params)} "
            f"(achieved {format_rational(cfg_a.achieved_delta * 100)}%) "
            f"node_b={format_params(cfg_b.params)} "
            f"(achieved {format_rational(cfg_b.achieved_delta * 100)}%) "
            f"trials={dist.trial_count} undiscovered={dist.undiscovered_count} "
            f"max_latency={peak}{bound}"
        )
    return status


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbrdisc",
        description="Duty-cycled wake-up schedules and pairwise neighbor discovery.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")

    def selection(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--parity",
            choices=("even", "odd"),
            default=DEFAULT_OPTIONS.hedis_parity,
            help="deployment-wide hedis parameter parity (default %(default)s)",
        )
        p.add_argument(
            "--searchlight-t",
            type=int,
            default=DEFAULT_OPTIONS.searchlight_t,
            help="searchlight base stride t (default %(default)s)",
        )

    p = sub.add_parser("schedule", help="print period, duty cycle and active slots")
    p.add_argument("spec", help="parameter notation, e.g. todis:n=15")
    p.add_argument(
        "--limit", type=int, default=100, help="list slots below this; 0 lists the whole period"
    )
    common(p)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("params", help="select parameters for a duty cycle")
    p.add_argument("--protocols", default="all", help="'all' or comma list")
    p.add_argument("--delta", required=True, help="duty cycle: 0.05, 1/20 or 5%%")
    selection(p)
    common(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("granularity", help="relative-error sweep as CSV")
    p.add_argument("--protocols", default="all", help="'all' or comma list")
    p.add_argument(
        "--sweep",
        required=True,
        help="reciprocal:<K> | percent:<a>..<b> | list:<comma duty cycles>",
    )
    selection(p)
    common(p)
    p.set_defaults(func=cmd_granularity)

    p = sub.add_parser("verify", help="drift verification for a schedule pair")
    p.add_argument("spec_a", help="parameter notation for node a")
    p.add_argument("spec_b", help="parameter notation for node b")
    p.add_argument("--sample", type=int, default=None, help="sampled drifts instead of exhaustive")
    p.add_argument("--max-work", type=int, default=MAX_WORK, help="exhaustive work guard")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="seeded latency trials with CSV output")
    p.add_argument("--protocols", default="all", help="'all' or comma list")
    p.add_argument("--delta-a", required=True, help="node a duty cycle")
    p.add_argument("--delta-b", required=True, help="node b duty cycle")
    p.add_argument("--trials", type=int, default=1000, help="trial count (default 1000)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    selection(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except (ScanBudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Entry point of the ``nbrdisc`` command and ``python -m nbrdisc.cli``.

    Ends the process once ``main`` returns and its output is flushed, without
    interpreter teardown (module clearing and a last full garbage collection),
    so ``atexit`` handlers do not run.  ``SystemExit`` from argparse and
    uncaught exceptions leave the normal way.
    """
    status = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(status)  # a closed pipe: teardown reports it, as for any program
    # Every output file is closed here: _write_lines writes each one whole with
    # Path.write_text.  A file still open at this call would lose its buffer.
    os._exit(status)


if __name__ == "__main__":
    run()
