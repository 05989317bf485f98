"""Value semantics of the library's records, and what importing the CLI loads."""

import copy
import importlib.util
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nbrdisc.granularity import GranularityRecord
from nbrdisc.numtheory import CongruenceSolution, solve_congruence_pair
from nbrdisc.protocols import (
    DiscoParams,
    HedisParams,
    NodeConfig,
    SearchlightParams,
    SelectionOptions,
    TodisParams,
    UConnectParams,
)
from nbrdisc.schedule import Schedule, make_schedule
from nbrdisc.simulator import DiscoveryResult, DriftedPair

ROOT = Path(__file__).resolve().parents[1]


def test_repr_names_every_field():
    assert repr(HedisParams(40)) == "HedisParams(n=40)"
    assert repr(DiscoParams(3, 5)) == "DiscoParams(p1=3, p2=5)"
    assert repr(make_schedule(3, [0])) == "Schedule(period=3, active=frozenset({0}))"
    assert repr(SelectionOptions()) == (
        "SelectionOptions(hedis_parity='even', searchlight_t=2, todis_max_n=1201)"
    )
    assert repr(DiscoveryResult(True, 3)) == "DiscoveryResult(found=True, slot=3)"


def test_positional_keyword_and_default_construction():
    assert DiscoParams(p1=3, p2=5) == DiscoParams(3, p2=5) == DiscoParams(3, 5)
    assert SearchlightParams(i=2, t=3) == SearchlightParams(3, 2)
    assert Schedule(period=4, active=[1, 1]) == Schedule(4, frozenset({1}))
    assert SelectionOptions(searchlight_t=3) == SelectionOptions("even", 3, 1201)
    assert GranularityRecord("hedis", Fraction(1), None, None, None).error is None
    for make in (
        lambda: HedisParams(),
        lambda: DiscoParams(3),
        lambda: HedisParams(40, 42),
        lambda: HedisParams(m=40),
        lambda: HedisParams(40, n=40),
        lambda: SelectionOptions(parity="odd"),
        lambda: Schedule(3),
    ):
        with pytest.raises(TypeError):
            make()


def test_construction_still_validates():
    with pytest.raises(ValueError):
        HedisParams(2)
    with pytest.raises(ValueError):
        DiscoParams(p1=4, p2=5)
    with pytest.raises(ValueError):
        SelectionOptions(hedis_parity="both")
    with pytest.raises(ValueError):
        Schedule(3, [3])
    assert DriftedPair(make_schedule(2, [0]), make_schedule(3, [0]), -1).drift == 5


def test_values_refuse_assignment():
    values = [
        HedisParams(40),
        UConnectParams(5),
        TodisParams(7),
        SelectionOptions(),
        make_schedule(3, [0]),
        DriftedPair(make_schedule(2, [0]), make_schedule(3, [0]), 1),
    ]
    for value in values:
        name = value.__match_args__[0]
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.unknown = 1
        assert copy.copy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


def test_equality_and_hash_follow_type_and_fields():
    assert HedisParams(5) != TodisParams(5)
    assert len({HedisParams(5), TodisParams(5)}) == 2
    assert HedisParams(40) == HedisParams(40)
    assert HedisParams(40) != HedisParams(42)
    assert hash(HedisParams(40)) == hash(HedisParams(n=40))
    assert hash(make_schedule(6, [5, 0])) == hash(make_schedule(6, (0, 5, 5)))
    assert hash(SelectionOptions()) == hash(SelectionOptions("even", 2, 1201))
    assert len({DiscoParams(3, 5), DiscoParams(p1=3, p2=5), DiscoParams(5, 3)}) == 2


def test_node_config_is_an_immutable_hashable_record():
    cfg = NodeConfig(Fraction(1, 20), HedisParams(40), Fraction(1, 20))
    assert cfg == NodeConfig(Fraction(1, 20), HedisParams(40), Fraction(1, 20))
    assert hash(cfg) == hash(NodeConfig(Fraction(1, 20), HedisParams(n=40), Fraction(1, 20)))
    assert cfg._fields == ("desired_delta", "params", "achieved_delta")
    with pytest.raises(AttributeError):
        cfg.achieved_delta = Fraction(1, 21)
    assert not hasattr(cfg, "schedule")


def test_congruence_solution_truth_is_solvability():
    for args in [(0, 4, 1, 6), (0, 4, 2, 6), (3, 5, 1, 7)]:
        sol = solve_congruence_pair(*args)
        assert bool(sol) is sol.solvable
    assert not CongruenceSolution(0, 0, False)
    assert CongruenceSolution(0, 1, True)


def _run_python(script: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


CORE = ["nbrdisc", "nbrdisc.cli", "nbrdisc.numtheory", "nbrdisc.protocols", "nbrdisc.schedule"]
VERIFY = ["verify", "hedis:n=10", "hedis:n=12"]


@pytest.mark.parametrize(
    "argv, engine",
    [
        (["schedule", "todis:n=15"], None),
        (["params", "--delta", "5%"], "granularity"),
        (["granularity", "--sweep", "list:1/20,1/3"], "granularity"),
        (VERIFY, "simulator"),
        (VERIFY + ["--sample", "3"], "simulator"),
        (["simulate", "--protocols", "hedis,todis", "--delta-a", "5%", "--delta-b", "10%",
          "--trials", "3", "--out", "sim"], "simulator"),
    ],
    ids=["schedule", "params", "granularity", "verify-exhaustive", "verify-sampled", "simulate"],
)
def test_cli_import_loads_neither_dataclasses_nor_hashlib(tmp_path, argv, engine):
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import nbrdisc.cli\n"
        "at_import = set(sys.modules) - before\n"
        f"rc = nbrdisc.cli.main({argv!r})\n"
        "loaded = set(sys.modules) - before\n"
        "print(json.dumps([rc, sorted({'dataclasses', 'inspect', 'hashlib'} & at_import),\n"
        "                  sorted(m for m in loaded if m.startswith('nbrdisc')),\n"
        "                  sorted({'hashlib', '_hashlib'} & loaded)]))\n"
    )
    proc = _run_python(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    rc, at_import, nbrdisc_modules, openssl = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0
    assert at_import == []
    assert nbrdisc_modules == sorted(CORE + ([f"nbrdisc.{engine}"] if engine else []))
    # trial words hash with CPython's built-in SHA-256 wherever it exists
    if importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256"):
        assert openssl == []
    if argv[0] == "simulate":
        assert (tmp_path / "sim" / "todis_trials.csv").read_text().count("\n") == 3 + 4


def test_public_surface_kept_by_lazy_loading(tmp_path):
    script = """
import nbrdisc.cli as cli
assert "latency_trials" not in vars(cli)
from nbrdisc import granularity, protocols, simulator
assert cli.latency_trials is simulator.latency_trials
assert cli.sweep is granularity.sweep
try:
    cli.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("cli.no_such_name")
assert simulator.ScanBudgetError is protocols.ScanBudgetError
assert granularity.format_rational is protocols.format_rational
import nbrdisc
names = {}
exec("from nbrdisc import *", names)
assert set(nbrdisc.__all__) <= set(names)
for name in ("latency_trials", "verify_all_drifts", "cdf"):
    assert names[name] is getattr(nbrdisc, name) is getattr(simulator, name)
assert names["select_params"] is protocols.select_params
try:
    nbrdisc.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("nbrdisc.no_such_name")
print("ok")
"""
    proc = _run_python(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
