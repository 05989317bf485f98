"""Golden CLI outputs: the README's commands, pinned byte for byte.

Each case runs one command from the README's CLI section in a fresh working
directory and hashes everything it produced: the exit status, standard
output, standard error and every file it wrote (relative path and bytes, in
path order).  A refactor that is meant to keep behaviour must leave every
digest unchanged; a deliberate change of output updates the digest here.
"""

import hashlib

import pytest

from nbrdisc.cli import main

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


def output_digest(command: str, workdir, capsys) -> str:
    status = main(command.split())
    captured = capsys.readouterr()
    h = hashlib.sha256()
    h.update(f"status={status}\n".encode())
    h.update(captured.out.encode() + b"\0" + captured.err.encode() + b"\0")
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        h.update(path.relative_to(workdir).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_readme_command_output_unchanged(command, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert output_digest(command, tmp_path, capsys) == digest
