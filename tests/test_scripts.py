"""The scripts under scripts/: pinned output and the package API they use."""

import ast
import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_scripts_import_no_private_names():
    found, checked = [], []
    for path in sorted(SCRIPTS.glob("*.py")):
        checked.append(path.name)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "splitseq":
                found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")]
    assert "find_cycles.py" in checked
    assert found == []


# stdout digests of earlier runs; the search is deterministic
FIND_CYCLES_RUNS = [
    (
        ["torus_anosov.track", "--max-len", "4"],
        "1e82dc9d3b81af06f8f6b400ee9a6d476e312983a5a31e698e2a68c8d7f69716",
    ),
    (
        ["genus2_hex.track", "--max-len", "4", "--budget", "200"],
        "10d6981b1fa03da16d06e6298a032f31eb6acc4914efc32088bfb56bea744ac5",
    ),
]


@pytest.mark.parametrize("args,digest", FIND_CYCLES_RUNS, ids=["torus_anosov", "genus2_hex"])
def test_find_cycles_output_is_pinned(args, digest):
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "find_cycles.py"), str(FIXTURES / args[0]), *args[1:]],
        capture_output=True,
        check=True,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == digest
