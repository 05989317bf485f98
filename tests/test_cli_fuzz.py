"""Seeded CLI fuzz: valid grammar with extreme values, answered or refused cleanly.

A fixed seed draws a fixed number of argument lists for every subcommand.
Each mixes small valid values with zero, negative and huge integers,
Unicode digits, empty and repeated tokens and bad duty cycles, in
``--trials``, ``--sample``, ``--limit`` and every other option.  Each runs
through ``cli.main`` and must end with status 0, 1 or 2, print no
traceback, print exactly one ``error:`` line on status 2 (nothing to
stderr otherwise) and keep its ``tracemalloc`` peak under a fixed bound.

Small values stay small enough to answer at once, and huge ones lie past
a cap, so they are refused before anything of their size is allocated.
``--max-work`` is the caller's own budget, so no huge budget is drawn.
Faults found by this fuzz, or by hand while writing it, are pinned below
as named regression cases.
"""

import random
import re
import time
import tracemalloc

import pytest

from nbrdisc.cli import main

SEED = 1411
CASES = 100
PEAK_BYTES = 4 << 20

HUGE = ["10" + "0" * 19, "1" + "0" * 40 + "1", "9" * 400, "1" + "0" * 5000]
ODD = ["0", "-0", "00", "-1", "-7", "-" + "9" * 30, "٣", "３", "²", "", "2.5", "1_0"]
WILD = HUGE + ODD
SMALL = ["1", "2", "3", "5", "7"]
SPECS = [
    "disco:p1=3,p2=5", "disco:p1=2,p2=7", "uconnect:p=5", "uconnect:p=7",
    "searchlight:t=2,i=3", "searchlight:t=3,i=2", "hedis:n=6", "hedis:n=9",
    "todis:n=7", "todis:n=11",
]
DELTAS = ["5%", "1%", "1/4", "0.3", "1"]
BAD_DELTAS = ["1e-5000", "1e5000", "1e-99999999", "0", "-5%", "150%", "1/0", "nan", "inf",
              "abc", "", "5%%", "٣/٤", "1e-٣", "0x10"]
PROTOCOLS = ["all", "hedis", "todis,disco", "uconnect,searchlight"]
BAD_PROTOCOLS = ["", ",", "hedis,hedis", "foo", "٣"]


def _argv(rng: random.Random, out_dir: str) -> list[str]:
    """One case: each value drawn from its small valid pool or, at a rate
    drawn per case (none, some or half), from its extreme one."""
    wild = rng.choice([0, 0.15, 0.5])

    def pick(good, bad=WILD):
        return rng.choice(bad if rng.random() < wild else good)

    def spec():
        text = rng.choice(SPECS)
        if rng.random() >= wild:
            return text
        return rng.choice([
            re.sub(r"=\d+", "=" + rng.choice(WILD), text, count=1),
            text + "," + text.split(",")[-1].partition(":")[2],  # a repeated token
            text.partition(":")[0] + ":", text.replace("=", ""), "", "foo:n=3",
        ])

    def selection():
        return ["--parity", pick(["even", "odd"], ["", "EVEN"]),
                "--searchlight-t", pick(["2", "3"])][: 2 * rng.randrange(3)]

    command = rng.choice(["schedule", "params", "granularity", "verify", "simulate"])
    if command == "schedule":
        argv = [command, spec(), "--limit", pick(["0", "10", "50"])]
    elif command == "params":
        argv = [command, "--protocols", pick(PROTOCOLS, BAD_PROTOCOLS),
                "--delta", pick(DELTAS, BAD_DELTAS), *selection()]
    elif command == "granularity":
        sweep = rng.choice([
            f"reciprocal:{pick(SMALL)}",
            f"percent:{pick(SMALL)}..{pick(['5', '9'], HUGE + ODD)}",
            "list:" + ",".join(pick(DELTAS, BAD_DELTAS) for _ in range(rng.randrange(4))),
        ])
        argv = [command, "--protocols", pick(PROTOCOLS, BAD_PROTOCOLS),
                "--sweep", pick([sweep], ["", "linear:4", "list:,,", "reciprocal"]), *selection()]
    elif command == "verify":
        argv = [command, spec(), spec(), "--sample", pick(SMALL),
                "--max-work", pick(["1000", "100000"], ODD)][: 3 + 2 * rng.randrange(3)]
    else:
        argv = [command, "--protocols", pick(PROTOCOLS, BAD_PROTOCOLS),
                "--delta-a", pick(DELTAS, BAD_DELTAS), "--delta-b", pick(DELTAS, BAD_DELTAS),
                "--trials", pick(SMALL), "--out", out_dir, *selection()]
    if rng.random() < 0.3:
        argv += ["--seed", pick(SMALL)]
    if rng.random() < wild / 2:  # a repeated option: the last one counts
        argv += argv[-2:]
    if rng.random() < wild / 5:  # an empty or stray token
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(["", "--", "-x"]))
    return argv


def _run(argv, capsys):
    """Status, stdout, stderr and tracemalloc peak of one ``main`` call."""
    tracemalloc.start()
    try:
        status = main(argv)
    except SystemExit as exc:  # argparse usage errors
        status = exc.code
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    captured = capsys.readouterr()
    return status, captured.out, captured.err, peak


def _check(argv, status, out, err, peak):
    assert status in (0, 1, 2), argv
    assert "Traceback" not in out + err, argv
    if status == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
    else:
        assert err == "", (argv, err)
    assert peak < PEAK_BYTES, (argv, peak)


def test_cli_fuzz_answers_or_refuses_every_case_cleanly(tmp_path, capsys):
    rng = random.Random(SEED)
    start = time.perf_counter()
    statuses = set()
    for _ in range(CASES):
        argv = _argv(rng, str(tmp_path / "sim"))
        status, out, err, peak = _run(argv, capsys)
        _check(argv, status, out, err, peak)
        statuses.add(status)
    assert statuses == {0, 1, 2}
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize(
    "argv, status, line",
    [
        pytest.param(["simulate", "--protocols", "hedis", "--delta-a", "5%", "--delta-b", "5%",
                      "--trials", "10000001", "--out", "sim"], 2,
                     "error: trials must be <= 10000000, got 10000001", id="trials-cap"),
        pytest.param(["verify", "hedis:n=4", "hedis:n=6", "--sample", "1" + "0" * 30], 2,
                     "error: sample must be <= 10000000, got 1" + "0" * 30, id="sample-cap"),
        pytest.param(["granularity", "--protocols", "hedis", "--sweep", "reciprocal:100000000"],
                     2, "error: reciprocal count must be <= 10000000, got 100000000",
                     id="reciprocal-cap"),
        pytest.param(["params", "--protocols", "hedis", "--delta", "1e-100000000"], 2,
                     "error: duty cycle exponent must be within 1000000 of 0, got -100000000",
                     id="duty-exponent-cap"),
        pytest.param(["params", "--protocols", "searchlight", "--searchlight-t", "1" + "0" * 4000,
                      "--delta", "1e-20000"], 1,
                     "searchlight,\"error:searchlight stride 1" + "0" * 4000 + "**6 passes the "
                     "integer string limit\",1e-20000,,", id="searchlight-large-t"),
    ],
)
def test_cli_fuzz_regression(argv, status, line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    got, out, err, peak = _run(argv, capsys)
    assert time.perf_counter() - start < 0.5
    _check(argv, got, out, err, peak)
    assert got == status
    assert line in (err if status == 2 else out).splitlines()
    assert peak < 1 << 20
    assert not any(tmp_path.iterdir())
