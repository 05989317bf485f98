"""Golden CLI outputs: the README's commands, pinned byte for byte.

Each case runs one command from the README's CLI section in a fresh working
directory and hashes everything it produced: the exit status, standard
output, standard error and every file it wrote (relative path and bytes, in
path order).  A refactor that is meant to keep behaviour must leave every
digest unchanged; a deliberate change of output updates the digest here.

Every command runs twice against the same digest: in process through
``main``, and as a whole ``python -m nbrdisc.cli`` process, which ends with
``os._exit`` once its output is flushed.  The exit paths of that process
(errors, usage, ``--version``, a closed stdout) are pinned below as well.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nbrdisc import __version__
from nbrdisc.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

GOLDEN = [
    (
        "schedule todis:n=15 --limit 71",
        "69d248866fa0faf514f44af5bed8c2ba4a86378d200464edc487018fda09fe1e",
    ),
    (
        "params --protocols all --delta 5%",
        "fef21ede60836382ce4d79bd1e7bbf7f013a6b96b0a5068a3185f01c132e46fd",
    ),
    (
        "granularity --protocols all --sweep reciprocal:100 --out sweep.csv",
        "f0b598dcfcfc96ae3a03c6c83f1a36a4530929a94a87972ba7994cd9c00c3faa",
    ),
    (
        "granularity --protocols all --sweep percent:1..100 --out large.csv",
        "7cc87edafc54859b77d39ae14254c7dbe00eeff3fb63aad47dcacec97eeb3375",
    ),
    (
        "granularity --protocols todis --sweep list:0.2,0.1",
        "a963702f39792a938ba2b3b299868df88eed2efed2ec027b9c6b3b456fc10986",
    ),
    (
        "verify hedis:n=4 hedis:n=6",
        "f4eee82b168d426c4db40815a82274d2b68d911557dd4704ec6d87677b77e2eb",
    ),
    (
        "simulate --protocols all --delta-a 1% --delta-b 5% "
        "--trials 1000 --seed 42 --out results/",
        "1852464f4af68284606677cbe28aa3dde3d70daccc8a28e92c7b00e255cf08e5",
    ),
]


def run_cli_process(argv, workdir, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """Run ``python -m nbrdisc.cli <argv>`` in ``workdir``; stdout and stderr as bytes.

    ``PYTHONUNBUFFERED`` is removed, so stdout is block-buffered as in any
    pipe and a byte the exit fails to flush is missing from the output.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "nbrdisc.cli", *argv], cwd=workdir, env=env,
        stdout=stdout, stderr=subprocess.PIPE, timeout=120,
    )


def output_digest(status: int, out: bytes, err: bytes, workdir) -> str:
    h = hashlib.sha256()
    h.update(f"status={status}\n".encode())
    h.update(out + b"\0" + err + b"\0")
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        h.update(path.relative_to(workdir).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


CASES = [pytest.param(c, d, False, id=c) for c, d in GOLDEN] + [
    pytest.param(c, d, True, id=f"python -m nbrdisc.cli {c}") for c, d in GOLDEN
]


@pytest.mark.parametrize("command, digest, as_process", CASES)
def test_readme_command_output_unchanged(
    command, digest, as_process, tmp_path, monkeypatch, capsys
):
    if as_process:
        proc = run_cli_process(command.split(), tmp_path)
        status, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        monkeypatch.chdir(tmp_path)
        status = main(command.split())
        captured = capsys.readouterr()
        out, err = captured.out.encode(), captured.err.encode()
    assert output_digest(status, out, err, tmp_path) == digest


@pytest.mark.parametrize(
    "argv, status, stdout_has, stderr",
    [
        ("params --protocols all --delta 150%", 1,
         'disco,"error:duty cycle must be in (0; 1]; got 3/2",1.5,,', ""),
        ("simulate --protocols all --delta-a 1% --delta-b 5% --trials 0 --out r", 2, "",
         "error: trials must be >= 1, got 0\n"),
        ("verify todis:n=5001 todis:n=4999", 2, "",
         "error: 124924995003 drift classes exceed 10000000, the lesser of --max-work and "
         "the 10000000-class cap; pass --sample N (sample=N in the library) to verify a "
         "seeded subset\n"),
        ("--version", 0, f"{__version__}\n", ""),
    ],
    ids=["in-row errors", "refused trials", "work guard", "version"],
)
def test_cli_process_exit_paths(argv, status, stdout_has, stderr, tmp_path):
    proc = run_cli_process(argv.split(), tmp_path)
    assert (proc.returncode, proc.stderr.decode()) == (status, stderr)
    assert stdout_has in proc.stdout.decode()
    assert not any(tmp_path.iterdir())


def test_cli_process_usage_error(tmp_path):
    proc = run_cli_process(["verify", "hedis:n=4"], tmp_path)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode().startswith("usage: nbrdisc verify")
    assert "error: the following arguments are required: spec_b" in proc.stderr.decode()


def test_cli_process_reports_closed_stdout(tmp_path):
    # buffered stdout: the failed flush at exit is reported by interpreter
    # teardown, as for any Python program writing to a closed pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli_process(["verify", "hedis:n=4", "hedis:n=6"], tmp_path, stdout=write_end)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 120
    assert "Exception ignored" in err and "BrokenPipeError" in err
