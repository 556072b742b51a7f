"""Checks that guard results raise typed exceptions, not bare asserts.

A bare `assert` disappears under `python -O`, so a check written that way
stops guarding anything.
"""

import ast
from pathlib import Path

import splitseq

PACKAGE = Path(splitseq.__file__).parent


def test_no_bare_asserts_in_the_package():
    found, checked = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        checked.append(path.name)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert {"numberfield.py", "splitting.py", "arcdiagram.py"} <= set(checked)
    assert found == []
