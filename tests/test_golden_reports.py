"""Reports stay byte for byte what they were.

Each digest in GOLDEN is the SHA-256 of a JSON report written by the
CLI, taken before the law checks were reorganised so that each law is
defined and checked once.  Each digest in PRINTED is the SHA-256 of what
a command prints, taken before the harvest stored its successors as root
sets: the harvest table is read back from those root sets.  Reports do
not depend on PYTHONHASHSEED, so a changed digest means a changed
report: a law, a witness, a record order, a successor set or the format
moved.
"""

import hashlib
from pathlib import Path

import pytest

from plotgarden.cli import run_cli

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = [
    (["verify", "fixtures.ws#flat"],
     "1c80b0568a883ba4eca92dc310835745b14a320137d679ef86c9e674bcf8c441"),
    (["verify", "fixtures.ws#sierp"],
     "8788f075c57b3b9e9feded3e26eda345535d9a1c22e215909ebada6196331199"),
    (["verify", "fixtures.ws#tight_src"],
     "923b65f75a9de5b0869b7c1cb92a5f6be7e47e5767fcc0d1ce96e4beb9de9130"),
    (["verify", "fixtures.ws#tight_tgt"],
     "47f5d3d64ca172141c0da1f8045317bd0fd7416f93aeaee6d1dd41b93af86fd2"),
    (["verify", "fixtures.ws#sierp_garden"],
     "2583ccb96b69335d6c0fd6945af3ee7e76df62a0fa2f74ab00460528f0e62b93"),
    (["verify", "fixtures.ws#homeo"],
     "85c3adac87d0d1acdd4350bd710eba90ce16021b5bb28bb57b3f06909af70de9"),
    (["verify", "fixtures.ws#tight"],
     "a07a4032e3d6e8fc942956c24e2104405ab63d24e3a6bf2a80f529716a43edb8"),
    (["fuzz", "--seed", "7", "--count", "60"],
     "4b66d37eef02ddace1f451e4acf6f46e17f85276cafc6fbeae74c0b0beeb9d38"),
    (["fuzz", "--seed", "7", "--count", "12",
      "--profile", "nodes=16,points=8"],
     "9f701c0b7a8388156e70f82ba83897fe5251a2043dae68d8b17945a12b83e7f5"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN,
                         ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_report_digest(argv, digest, tmp_path, monkeypatch, capsys):
    # references are relative, as the reports record them
    monkeypatch.chdir(ROOT)
    path = tmp_path / "report.json"
    assert run_cli(argv + ["--report", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


PRINTED = [
    (["harvest", "fixtures.ws#sierp_garden"],
     "f2a8e7500921ff549060448c7962fe40494afd77f7ddcf67bd280b411da23f05"),
]


@pytest.mark.parametrize("argv,digest", PRINTED,
                         ids=[" ".join(argv) for argv, _ in PRINTED])
def test_printed_digest(argv, digest, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert run_cli(argv) == 0
    printed = capsys.readouterr().out
    assert hashlib.sha256(printed.encode()).hexdigest() == digest
