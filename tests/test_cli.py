"""CLI behavior: notation, sweep grammar, output metadata and determinism."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from nbrdisc import cli, protocols
from nbrdisc.cli import main, parse_protocols, parse_sweep
from nbrdisc.granularity import BoundDomainError, relative_error, todis_error_upper_bound
from nbrdisc.protocols import (
    PROTOCOL_ORDER,
    NotationError,
    ParameterError,
    ScanBudgetError,
    SelectionError,
    SelectionOptions,
    TodisParams,
    as_fraction,
    select_params,
)
from test_cli_fuzz import BAD_DELTAS, DELTAS

SRC = Path(__file__).resolve().parents[1] / "src"


def test_parse_delta_forms():
    assert as_fraction("0.05") == Fraction(1, 20)
    assert as_fraction("1/20") == Fraction(1, 20)
    assert as_fraction("5%") == Fraction(1, 20)
    with pytest.raises(NotationError):
        as_fraction("lots")


def _fraction_text(text):
    """``as_fraction`` of text through ``Fraction(str)`` alone: the value, or the error text."""
    token = text.strip()
    try:
        return Fraction(token[:-1]) / 100 if token.endswith("%") else Fraction(token)
    except (ValueError, ZeroDivisionError):
        return f"bad duty cycle '{text}'"


@pytest.mark.parametrize(
    "token",
    ["01/20", "1/0", " 3/4 ", "1_000/3", "-1/2", "1/-2", "1/ 2", "\u00b2/3", "\u0663/\u0664",
     "7" * 4301 + "/9", "0.05", "5%"],
)
def test_parse_delta_fast_path_matches_fraction_text(token):
    # p/q tokens of digits (any Unicode isdigit) skip Fraction's parser and go through int();
    # every token reads as Fraction(str) reads it, value or error
    try:
        got = as_fraction(token)
    except NotationError as exc:
        got = str(exc)
    expected = _fraction_text(token)
    assert got == expected and type(got) is type(expected)


HUGE_EXPONENTS = ["1e-99999999", "1e-100000000"]
LIBRARY_CALLS = [(select_params, "hedis"), (relative_error, "hedis"), (todis_error_upper_bound,)]


@pytest.mark.parametrize("token", [t for t in DELTAS + BAD_DELTAS if t not in HUGE_EXPONENTS])
def test_library_reads_a_duty_cycle_as_the_cli_does(token, capsys):
    # every library entry that takes a duty cycle answers or raises a ValueError
    # (any other type fails here), and refuses what the CLI refuses, with its message
    for call, *args in LIBRARY_CALLS:
        try:
            call(*args, token)
        except ValueError:
            pass
    rc = main(["params", "--protocols", "hedis", f"--delta={token}"])
    err = capsys.readouterr().err
    try:
        select_params("hedis", token)
    except NotationError as exc:
        assert (rc, err) == (2, f"error: {exc}\n")
    except ValueError:
        assert rc == 1
    else:
        assert rc == 0


def test_library_refuses_a_huge_exponent_at_once(capsys):
    # the exponent is refused before 10**k is built, so the child never nears its timeout
    child = (
        "import sys, time\n"
        "from nbrdisc.granularity import relative_error, todis_error_upper_bound\n"
        "from nbrdisc.protocols import select_params\n"
        "for token in sys.argv[1:]:\n"
        "    for call, *args in [(select_params, 'hedis'), (relative_error, 'hedis'),\n"
        "                        (todis_error_upper_bound,)]:\n"
        "        start = time.perf_counter()\n"
        "        try:\n"
        "            call(*args, token)\n"
        "        except Exception as exc:\n"
        "            print(type(exc).__name__, exc, time.perf_counter() - start < 1, sep='|')\n"
    )
    proc = subprocess.run([sys.executable, "-c", child, *HUGE_EXPONENTS],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=10)
    expected = []
    for token in HUGE_EXPONENTS:
        assert main(["params", "--protocols", "hedis", f"--delta={token}"]) == 2
        message = capsys.readouterr().err.removeprefix("error: ").rstrip("\n")
        expected += [f"NotationError|{message}|True"] * 3
    assert (proc.returncode, proc.stdout.splitlines()) == (0, expected)


def test_parse_sweep_grammar():
    assert parse_sweep("reciprocal:4") == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(1, 4),
    ]
    assert parse_sweep("percent:1..3") == [
        Fraction(1, 100),
        Fraction(2, 100),
        Fraction(3, 100),
    ]
    # 0% has no defined relative error and is silently excluded
    assert parse_sweep("percent:0..2")[0] == Fraction(1, 100)
    assert parse_sweep("list:0.2,1/4") == [Fraction(1, 5), Fraction(1, 4)]
    with pytest.raises(NotationError):
        parse_sweep("linear:4")
    with pytest.raises(NotationError):
        parse_sweep("reciprocal")


def test_parse_protocols():
    assert parse_protocols("all") == [
        "disco",
        "uconnect",
        "searchlight",
        "hedis",
        "todis",
    ]
    assert parse_protocols("hedis,todis") == ["hedis", "todis"]
    with pytest.raises(NotationError):
        parse_protocols("hedis,frisbee")
    with pytest.raises(NotationError, match="^duplicate protocol 'hedis'$"):
        parse_protocols("hedis,todis,hedis")


def test_cmd_schedule_todis_listing(capsys):
    assert main(["schedule", "todis:n=15", "--limit", "71"]) == 0
    out = capsys.readouterr().out
    assert "# command: nbrdisc schedule todis:n=15 --limit 71" in out
    assert "# seed: 0" in out
    assert "# version:" in out
    assert "period=3315" in out
    assert "duty_cycle=209/1105" in out
    assert "active=0,13,15,17,26,30,34,39,45,51,52,60,65,68" in out


def test_cmd_schedule_hedis(capsys):
    assert main(["schedule", "hedis:n=4"]) == 0
    out = capsys.readouterr().out
    assert "period=12" in out
    assert "duty_cycle=1/2 (50%)" in out
    assert "active=0,1,4,6,8,11" in out


def test_cmd_schedule_disco_limit(capsys):
    assert main(["schedule", "disco:p1=2,p2=3", "--limit", "6"]) == 0
    assert "active=0,2,3,4" in capsys.readouterr().out


def test_cmd_schedule_bad_spec_names_token(capsys):
    assert main(["schedule", "frisbee:n=4"]) == 2
    assert "frisbee" in capsys.readouterr().err


REFUSALS = [
    (["granularity", "--sweep", "reciprocal:x"], "bad reciprocal count 'x'"),
    (["granularity", "--sweep", "reciprocal:0"], "reciprocal count must be >= 1, got 0"),
    (["granularity", "--sweep", "percent:5"], "bad percent range '5' (expected a..b)"),
    (["granularity", "--sweep", "percent:a..b"], "bad percent range 'a..b'"),
    (["granularity", "--sweep", "percent:0..101"], "percent range '0..101' outside 1..100"),
    (["granularity", "--protocols", ",", "--sweep", "list:0.5"], "empty protocol list"),
    (["schedule", "disco:"], "missing parameters after 'disco:'"),
    (["schedule", "disco:p1"], "bad parameter token 'p1' (expected key=value)"),
    (["schedule", "disco:p1=3,p1=5"], "duplicate parameter 'p1'"),
    (["schedule", "foo:n=3"], "unknown protocol 'foo'"),
    (["schedule", "disco:p1=1,p2=3"], "disco parameter 1 is not prime"),
    (["params", "--delta", "5%", "--searchlight-t", "1"], "searchlight_t must be >= 2, got 1"),
    (["granularity", "--protocols", "hedis,hedis", "--sweep", "list:1/2"],
     "duplicate protocol 'hedis'"),
    (["schedule", "searchlight:t=3,i=10000000", "--limit", "10"],
     "searchlight stride 3**10000000 passes the integer string limit"),
]


@pytest.mark.parametrize("argv, message", REFUSALS)
def test_cmd_refuses_bad_input_with_one_error_line(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "error",
    [NotationError, ParameterError, SelectionError, ScanBudgetError, BoundDomainError,
     cli.OutputError],
)
def test_every_refusal_type_is_a_value_error(error):
    # main and the in-row handlers each catch ValueError alone
    assert issubclass(error, ValueError)


@pytest.mark.parametrize(
    "flags, env",
    [([], {"PYTHONINTMAXSTRDIGITS": "0"}), (["-X", "int_max_str_digits=640"], {})],
    ids=["no-digit-limit", "digit-limit-640"],
)
def test_process_refuses_bad_input_whatever_the_digit_limit(flags, env, tmp_path):
    # every size guard reads MAX_DIGITS, not the interpreter's digit limit
    env = {**os.environ, **env, "PYTHONPATH": str(SRC)}
    for argv, message in REFUSALS:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *flags, "-m", "nbrdisc.cli", *argv], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 1, argv
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_cmd_schedule_tests_a_large_disco_prime_quickly(capsys):
    start = time.perf_counter()
    assert main(["schedule", "disco:p1=10000000000000061,p2=5", "--limit", "10"]) == 0
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().out.endswith(
        "params=disco:p1=10000000000000061,p2=5\nperiod=50000000000000305\n"
        "duty_cycle=2000000000000013/10000000000000061 (20%)\nlimit=10\nactive=0,5\n"
    )


def test_cmd_granularity_row_count(tmp_path):
    out = tmp_path / "g.csv"
    assert (
        main(
            [
                "granularity",
                "--protocols",
                "all",
                "--sweep",
                "reciprocal:6",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    lines = out.read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")]
    assert header[0].endswith(",todis_bound")
    assert len(header) == 1 + 5 * 6


def test_cmd_granularity_bound_column(tmp_path):
    out = tmp_path / "g.csv"
    assert (
        main(
            ["granularity", "--protocols", "todis", "--sweep", "list:0.2", "--out", str(out)]
        )
        == 0
    )
    row = out.read_text().splitlines()[-1]
    bound = float(row.rsplit(",", 1)[1])
    assert abs(bound - 0.0671) < 0.0005


def test_cmd_granularity_leaves_bound_empty_below_float_range(capsys):
    assert main(["granularity", "--protocols", "hedis", "--sweep", "list:1e-400"]) == 0
    rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert rows[0].endswith(",todis_bound")
    assert len(rows) == 2
    assert rows[1].endswith('",')


def test_cmd_granularity_renders_duty_cycles_below_float_range(capsys):
    sweep = "list:1e-400,1e-330,1e-320"
    assert main(["granularity", "--protocols", "hedis", "--sweep", sweep]) == 0
    rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert [r.split(",")[:4] for r in rows[1:]] == [
        ["hedis", "1e-400", "1e-400", "0"],
        ["hedis", "1e-330", "1e-330", "0"],
        # nonzero as a float: rendered from the float, as before
        ["hedis", "9.99988867183e-321", "9.99988867183e-321", "0"],
    ]


def test_cmd_granularity_writes_error_row_above_float_range(capsys):
    code = main(["granularity", "--protocols", "hedis", "--sweep", "list:1e400,0.5"])
    assert code == 1
    rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert len(rows) == 3
    assert rows[1] == 'hedis,0.5,0.5,0,"hedis:n=4",0.17646451248'
    desired, achieved, err, cell, bound = rows[2].split(",")[1:]
    assert [desired, achieved, err, bound] == ["1e+400", "", "", ""]
    assert cell.startswith('"error:duty cycle must be in (0; 1]; got 1000')


def test_cmd_params_writes_error_row_above_float_range(capsys):
    assert main(["params", "--protocols", "hedis", "--delta", "1e400"]) == 1
    rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert len(rows) == 2
    assert rows[1].startswith('hedis,"error:duty cycle must be in (0; 1]; got 1000')
    assert rows[1].endswith('",1e+400,,')


def test_cmd_granularity_writes_error_row_beyond_digit_limit(capsys):
    # hedis would need n = 2 * 10**5000, which str() refuses to print
    assert main(["granularity", "--protocols", "hedis", "--sweep", "list:1e-5000"]) == 1
    rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    message = "hedis needs a parameter of more than 4300 digits; beyond the integer"
    assert rows[1:] == [f'hedis,1e-5000,,,"error:{message} string limit",']


def test_cmd_params_searchlight_stride_up_to_the_digit_limit(capsys):
    # 2**14282 has 4,300 digits; the pick for 1e-4300, 2**14285, has 4,301
    rows = []
    for delta, code in (("1e-4299", 0), ("1e-4300", 1)):
        assert main(["params", "--protocols", "searchlight", "--delta", delta]) == code
        rows += [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")][1:]
    assert rows[0].startswith('searchlight,"searchlight:t=2,i=14282",1e-4299,')
    assert rows[1] == ('searchlight,"error:searchlight stride 2**14285 passes the integer '
                       'string limit",1e-4300,,')


def test_cmd_params_writes_range_error_beyond_digit_limit(capsys):
    for exponent in (5000, 100000):
        assert main(["params", "--protocols", "all", "--delta", f"1e{exponent}"]) == 1
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        cells = f'"error:duty cycle must be in (0; 1]; got 1e+{exponent}",1e+{exponent},,'
        assert rows[1:] == [f"{protocol},{cells}" for protocol in PROTOCOL_ORDER]


@pytest.mark.parametrize("delta, values", [("1e-5000", 1), ("1e-400", 2)])
def test_cmd_params_renders_each_exact_value_once(monkeypatch, capsys, delta, values):
    # each exact rendering makes one decimal Context.  1e-5000 fills the desired
    # column and three error messages; 1e-400 fills the desired column and hedis's
    # achieved one, and searchlight achieves a second value below the float range
    made = []
    context = protocols.Context
    monkeypatch.setattr(protocols, "Context", lambda **kw: made.append(kw) or context(**kw))
    protocols.decimal_text.cache_clear()
    main(["params", "--delta", delta])
    assert f",{delta}," in capsys.readouterr().out
    assert len(made) == values


def test_cmd_granularity_error_rows_set_exit_status(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code = main(
        [
            "granularity",
            "--protocols",
            "todis",
            "--sweep",
            "list:0.00001,0.1",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 3
    assert "error:" in rows[1]


@pytest.mark.parametrize(
    "specs, sample, seed, peak, mean, built",
    [
        (["todis:n=299", "todis:n=59"], "1000", "3", "10166", "2032.805", []),
        (["hedis:n=4", "hedis:n=100000"], "5", "1", "297803", "118625.8", ["hedis", "hedis"]),
        # a divisor-set b answers from its divisors' tables, walked from the built a, and is
        # never built: todis 2001 and 5001 have more wake slots than the 10**7 build cap
        (["hedis:n=40", "todis:n=1201"], "5", "0", "13080", "6523.6", ["hedis"]),
        (["hedis:n=40", "todis:n=2001"], "5", "0", "25740", "10528", ["hedis"]),
        (["hedis:n=4", "todis:n=5001"], "5", "0", "6652", "2882.8", ["hedis"]),
        # a divisor-set a is walked as its divisors' multiples against a grid b, never built
        (["todis:n=5001", "hedis:n=4"], "5", "0", "9998", "2999.4", ["hedis"]),
        (["todis:n=201", "hedis:n=61"], "40", "0", "5481", "1590.85", ["hedis"]),
    ],
    ids=["todis", "hedis", "hedis-todis-1201", "hedis-todis-2001", "hedis-todis-5001",
         "todis-5001-hedis", "todis-201-hedis"],
)
def test_cmd_verify_sampled_latencies(monkeypatch, specs, sample, seed, peak, mean, built, capsys):
    names, build = [], protocols.build_schedule

    def counting_build(params):
        names.append(params.name)
        return build(params)

    monkeypatch.setattr(protocols, "build_schedule", counting_build)
    assert main(["verify", *specs, "--sample", sample, "--seed", seed]) == 0
    out = capsys.readouterr().out
    assert f"all_discover=true\nmax_latency={peak}\nmean_latency={mean}\n" in out
    assert f"drifts_checked={sample}\nexhaustive=false\n" in out
    assert names == built


def test_cmd_verify_sampled_walk_refused_at_the_wake_slot_cap(monkeypatch, capsys):
    # --max-work does not bind a sampled run, but each walk of a's wake slots against a
    # divisor of b stops at MAX_WAKE_SLOTS probes; the refusal names it and does not advise
    # --sample to a run that samples.  At the real cap this run is refused in about 2 s.
    build = protocols.build_schedule

    def build_a_only(params):
        if params.name != "hedis":
            pytest.fail(f"built {params}")
        return build(params)

    monkeypatch.setattr(protocols, "build_schedule", build_a_only)
    monkeypatch.setattr(protocols, "MAX_WAKE_SLOTS", 10**5)
    start = time.perf_counter()
    assert main(["verify", "hedis:n=40", "todis:n=100000001", "--sample", "5"]) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: drift-class sweep against period 99999999 exceeded the "
                            "work guard 100000\n")


def test_cmd_verify_prints_canonical_specs(capsys):
    assert main(["verify", "hedis:n=040", "hedis:n=6"]) == 0
    out = capsys.readouterr().out
    assert "# command: nbrdisc verify hedis:n=040 hedis:n=6" in out
    assert "schedule_a=hedis:n=40\nschedule_b=hedis:n=6\n" in out


@pytest.mark.parametrize(
    "specs, peak, mean",
    [
        (["hedis:n=113", "hedis:n=130"], "14464", "2991.32838402"),
        (["todis:n=299", "todis:n=59"], "14749", "2007.09717124"),
    ],
    ids=["hedis", "todis"],
)
def test_cmd_verify_answers_when_classes_fit_though_the_lcm_does_not(specs, peak, mean, capsys):
    # lcm(T_a, T_b) passes --max-work, but exhaustive verify lists only b's T_b classes
    assert main(["verify", *specs]) == 0
    out = capsys.readouterr().out
    assert f"all_discover=true\nmax_latency={peak}\nmean_latency={mean}\n" in out
    assert out.endswith("exhaustive=true\n")


@pytest.mark.parametrize(
    "argv, price, limit",
    [
        (["hedis:n=40", "hedis:n=60", "--max-work", "3539"], "3540 drift classes", 3539),
        (["hedis:n=4", "hedis:n=3163", "--max-work", str(10**20)], "10001406 drift classes",
         10**7),
        (["todis:n=5", "todis:n=100000001", "--max-work", str(10**20)],
         "900000018 solves and table entries", 10**7),
        (["todis:n=100000001", "todis:n=99999999"], "900000000 solves and table entries", 10**7),
        # hedis 3162 has 6,322 wake slots; lcm(T_a, y) / T_a is 1201, 1199/109 and 1203/3
        (["hedis:n=3162", "todis:n=1201"], "10197386 wake slots walked", 10**7),
    ],
    ids=["max-work", "class cap", "divisibility price", "default max-work", "walk price"],
)
def test_cmd_verify_refuses_classes_past_each_bound_before_building(
    monkeypatch, capsys, argv, price, limit
):
    def no_build(params):
        pytest.fail(f"built {params} before the drift-class guard")

    monkeypatch.setattr(protocols, "build_schedule", no_build)
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {price} exceed {limit}, the lesser of --max-work and the "
        "10000000-class cap; pass --sample N (sample=N in the library) to verify a seeded subset\n"
    )


@pytest.mark.parametrize("sample", [0, -5])
def test_cmd_verify_refuses_sample_below_one_before_building(monkeypatch, capsys, sample):
    def no_build(params):
        pytest.fail(f"built {params} before refusing --sample {sample}")

    monkeypatch.setattr(protocols, "build_schedule", no_build)
    assert main(["verify", "todis:n=1201", "todis:n=1199", "--sample", str(sample)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: sample must be >= 1, got {sample}\n"


def _no_build(params):
    pytest.fail(f"built {params} past the wake-slot cap")


def _main_small(argv):
    """``main(argv)``, asserting that it never held 8 MiB: 10**7 wake slots take over 280 MB."""
    tracemalloc.start()
    try:
        code = main(argv)
        assert tracemalloc.get_traced_memory()[1] < 8 << 20
    finally:
        tracemalloc.stop()
    return code


@pytest.mark.parametrize(
    "argv, message",
    [
        (["schedule", "todis:n=5001", "--limit", "0"],
         "todis:n=5001 has over 10000000 wake slots"),
        (["verify", "searchlight:t=2,i=30", "hedis:n=4", "--sample", "5"],
         "searchlight:t=2,i=30 has over 10000000 wake slots"),
        (["schedule", "searchlight:t=2,i=30", "--limit", "0"],
         "searchlight:t=2,i=30 has over 10000000 wake slots"),
    ],
    ids=["schedule-todis", "verify-searchlight", "schedule-searchlight"],
)
def test_cmd_refuses_oversize_schedule_before_building(argv, message, capsys):
    assert _main_small(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cmd_schedule_lists_slots_past_the_build_cap_without_building(monkeypatch, capsys):
    monkeypatch.setattr(protocols, "build_schedule", _no_build)
    monkeypatch.setattr(TodisParams, "build", _no_build)
    assert main(["schedule", "todis:n=5001", "--limit", "100"]) == 0
    out = capsys.readouterr().out
    assert "period=125074994997\n" in out
    assert out.endswith("limit=100\nactive=0\n")


def test_cmd_schedule_refuses_period_past_the_string_limit(capsys):
    n = 10**1500 + 1
    assert main(["schedule", f"todis:n={n}", "--limit", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: todis period passes the integer string limit\n"


@pytest.mark.parametrize("max_work", [0, -1])
def test_cmd_verify_refuses_max_work_below_one(capsys, max_work):
    assert main(["verify", "hedis:n=4", "hedis:n=6", "--max-work", str(max_work)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: max_work must be >= 1, got {max_work}\n"


def test_cmd_verify_answers_divisibility_pair_past_the_build_cap(monkeypatch, capsys):
    # two divisibility specs are answered analytically, so the cap never applies
    monkeypatch.setattr(protocols, "build_schedule", _no_build)
    assert main(["verify", "todis:n=5001", "todis:n=4999", "--sample", "5"]) == 0
    out = capsys.readouterr().out
    assert "all_discover=true\nmax_latency=6673665\nmean_latency=2795193\n" in out


def test_cmd_verify_exhaustive_divisibility_pair_builds_nothing(monkeypatch, capsys):
    # a work count, as in test_cmd_simulate_builds_each_grid_schedule_once
    built = []
    build = protocols.build_schedule

    def counting_build(params):
        built.append(params.name)
        return build(params)

    monkeypatch.setattr(protocols, "build_schedule", counting_build)
    assert main(["verify", "todis:n=21", "todis:n=23"]) == 0
    assert "exhaustive=true" in capsys.readouterr().out
    assert built == []


def test_cmd_verify_refuses_mean_beyond_float_range(capsys):
    a, b = 10**1999 + 1, 10**1999 + 3
    assert main(["verify", f"todis:n={a}", f"todis:n={b}", "--sample", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "float range" in captured.err


@pytest.mark.parametrize(
    "argv, price",
    [(["todis:n=5", "todis:n=100000001", "--max-work", str(10**20)],
      "900000018 solves and table entries"),
     (["hedis:n=3163", "hedis:n=3163"], "10001406 drift classes")],
    ids=["huge-b", "same-n"],
)
def test_process_refuses_drift_classes_past_the_cap_within_1_gb(argv, price, tmp_path):
    # exhaustive verify prices its engine (b's table entries of two divisor
    # sets, else b's T_b drift classes) and refuses a price past
    # MAX_WAKE_SLOTS before building or listing, here under a 1 GB limit
    child = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
             "from nbrdisc.cli import run; run()")
    proc = subprocess.run([sys.executable, "-c", child, "verify", *argv],
                          env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert (f"{price} exceed 10000000, the lesser of --max-work and the 10000000-class "
            "cap; pass --sample N") in proc.stderr


def test_cmd_verify_budget_errors_name_the_sample_option(capsys):
    assert main(["verify", "todis:n=100000001", "todis:n=99999999"]) == 2
    assert "--sample" in capsys.readouterr().err
    # the drift-class sweep's own work guard gives the same advice
    assert main(["verify", "hedis:n=4", "hedis:n=6", "--max-work", "60"]) == 2
    assert "--sample" in capsys.readouterr().err


def test_cmd_simulate_writes_files_and_summary(tmp_path, capsys):
    out_dir = tmp_path / "sim"
    code = main(
        [
            "simulate",
            "--protocols",
            "hedis,disco",
            "--delta-a",
            "5%",
            "--delta-b",
            "5%",
            "--trials",
            "20",
            "--seed",
            "9",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    summary = capsys.readouterr().out
    assert "hedis: node_a=hedis:n=40" in summary
    assert "undiscovered=0" in summary
    for name in ("hedis_trials.csv", "hedis_cdf.csv", "disco_trials.csv", "disco_cdf.csv"):
        text = (out_dir / name).read_text()
        assert text.startswith("# command: nbrdisc simulate")
        assert "# seed: 9" in text
    trials = (out_dir / "hedis_trials.csv").read_text().splitlines()
    assert "trial,drift,latency,discovered" in trials
    assert len([l for l in trials if not l.startswith("#")]) == 1 + 20


def test_cmd_simulate_reports_failed_protocol_in_row(tmp_path, capsys):
    # todis cannot reach 0.1% within its search pool; the others still run.
    out_dir = tmp_path / "sim"
    code = main(
        [
            "simulate",
            "--protocols",
            "all",
            "--delta-a",
            "0.1%",
            "--delta-b",
            "5%",
            "--trials",
            "10",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    good = ["disco", "uconnect", "searchlight", "hedis"]
    assert [line.split(":", 1)[0] for line in lines] == good + ["todis"]
    assert all("undiscovered=0" in line for line in lines[:-1])
    assert lines[-1].startswith("todis: error:todis cannot approximate duty cycle 1/1000")
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        f"{protocol}_{kind}.csv" for protocol in good for kind in ("trials", "cdf")
    )


def test_cmd_simulate_reports_any_refusal_in_row(tmp_path, monkeypatch, capsys):
    # a ScanBudgetError from hedis's trials is reported in hedis's line; todis still runs
    real = cli.latency_trials

    def trials(cfg_a, cfg_b, count, seed):
        if cfg_a.params.name == "hedis":
            raise ScanBudgetError("hedis trials past the work guard")
        return real(cfg_a, cfg_b, count, seed)

    monkeypatch.setattr(cli, "latency_trials", trials)
    out_dir = tmp_path / "sim"
    argv = ["simulate", "--protocols", "hedis,todis", "--delta-a", "1%", "--delta-b", "5%",
            "--trials", "5", "--out", str(out_dir)]
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0] == "hedis: error:hedis trials past the work guard"
    assert lines[1].startswith("todis: node_a=todis:n=") and "trials=5 undiscovered=0" in lines[1]
    assert sorted(p.name for p in out_dir.iterdir()) == ["todis_cdf.csv", "todis_trials.csv"]


def test_cmd_simulate_reports_oversize_schedule_in_row(tmp_path, capsys):
    # stride t = 2e7 gives searchlight 2e7 wake slots per period; hedis still runs
    code = _main_small(
        [
            "simulate",
            "--protocols",
            "searchlight,hedis",
            "--delta-a",
            "5%",
            "--delta-b",
            "5%",
            "--searchlight-t",
            "20000000",
            "--trials",
            "5",
            "--out",
            str(tmp_path / "sim"),
        ]
    )
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0] == "searchlight: error:searchlight:t=20000000;i=1 has over 10000000 wake slots"
    assert lines[1].startswith("hedis: node_a=hedis:n=40")


def test_cmd_simulate_prints_no_bound_for_equal_uconnect_primes(tmp_path, capsys):
    # co-primality proves nothing about uconnect's half-row: 29 and 29 still meet
    argv = ["simulate", "--protocols", "uconnect", "--delta-a", "5%", "--delta-b", "5%",
            "--trials", "100", "--out", str(tmp_path / "sim")]
    assert main(argv) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("uconnect: node_a=uconnect:p=29")
    assert "undiscovered=0" in line
    assert "bound=" not in line
    assert main([*argv[:4], "1%", *argv[5:]]) == 0
    assert capsys.readouterr().out.strip().endswith(" bound=4321")


def test_cmd_simulate_prints_hedis_bound_for_coprime_odd_parity(tmp_path, capsys):
    # odd n=201 and m=41 are co-prime anchor steps: every drift meets within 201 * 41 slots
    assert main(["simulate", "--protocols", "hedis", "--delta-a", "1%", "--delta-b", "5%",
                 "--trials", "1000", "--seed", "42", "--parity", "odd",
                 "--out", str(tmp_path / "sim")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "hedis: node_a=hedis:n=201 (achieved 0.995024875622%) node_b=hedis:n=41 "
        "(achieved 4.87804878049%) trials=1000 undiscovered=0 max_latency=7273 bound=8241"
    ]


def test_simulate_selects_no_divisibility_pair_without_a_bound():
    """Every disco and todis pair ``simulate`` can select has a co-prime cross pair.

    ``simulate`` selects one protocol for both nodes.  A disco node holds two
    distinct primes: for {p1, p2} and {q1, q2} to have no co-prime cross pair,
    p1 would have to equal both q1 and q2, which is impossible.  todis
    selection stops at ``todis_max_n`` (no CLI option raises it), so every
    pair of odd n and m in [5, todis_max_n] is checked here.  So every disco
    and todis summary line carries a ``bound=``.
    """
    top = SelectionOptions().todis_max_n
    sets = [TodisParams(n).rendezvous for n in range(5, top + 1, 2)]
    assert len(sets) ** 2 == 358801
    gcd = math.gcd
    assert all(any(gcd(x, y) == 1 for x in a for y in b) for a in sets for b in sets)


def test_cmd_simulate_builds_each_grid_schedule_once(tmp_path, monkeypatch, capsys):
    # a work count, not a timing bound; disco and todis take the analytic path
    built = []
    build = protocols.build_schedule

    def counting_build(params):
        built.append(params.name)
        return build(params)

    monkeypatch.setattr(protocols, "build_schedule", counting_build)
    assert main(["simulate", "--protocols", "all", "--delta-a", "1%", "--delta-b", "5%",
                 "--trials", "2", "--out", str(tmp_path / "sim")]) == 0
    assert sorted(built) == ["hedis"] * 2 + ["searchlight"] * 2 + ["uconnect"] * 2


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_cmd_simulate_rejects_trial_count_before_writing(trials, tmp_path, capsys):
    out_dir = tmp_path / "sim"
    argv = ["simulate", "--protocols", "hedis", "--delta-a", "5%", "--delta-b", "5%",
            "--trials", trials, "--out", str(out_dir)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"trials must be >= 1, got {trials}" in captured.err
    assert not out_dir.exists()


def test_cmd_schedule_rejects_negative_limit(capsys):
    assert main(["schedule", "hedis:n=5", "--limit", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--limit must be >= 0" in captured.err


@pytest.mark.parametrize("value", ["4_0", "+40", " 40", "٤٠", "0x28", ""])
def test_cmd_verify_rejects_non_decimal_parameter(value, capsys):
    assert main(["verify", f"hedis:n={value}", "hedis:n=6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not an integer" in captured.err


def test_negative_parameter_reaches_range_check(capsys):
    assert main(["schedule", "hedis:n=-5"]) == 2
    assert "hedis needs n >= 3, got -5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["verify", "hedis:n=4", "hedis:n=6"], ["schedule", "todis:n=15"], ["params", "--delta", "5%"],
     ["granularity", "--sweep", "list:0.2"]],
    ids=lambda argv: argv[0],
)
def test_cmd_reports_unwritable_out_file(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "dir" / "x.txt"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write '{out}': No such file or directory\n"


def test_cmd_simulate_reports_out_that_is_a_file(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    argv = ["simulate", "--protocols", "hedis", "--delta-a", "5%", "--delta-b", "5%",
            "--trials", "2", "--out", str(afile)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write '{afile}': File exists\n"
    assert afile.read_text() == "kept\n"
