"""Checks that guard results raise typed exceptions, not bare asserts.

A bare `assert` disappears under `python -O`, so a check written that way
stops guarding anything.
"""

import ast
import builtins
import re
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


BUILTIN_EXCEPTIONS = {
    name for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}


def _name(node) -> str:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def _exception_classes_and_raises():
    """Exception classes defined in the package, and every name raised."""
    classes: dict[str, str] = {}
    raised: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                if any(_name(b) in BUILTIN_EXCEPTIONS or _name(b) in classes for b in node.bases):
                    classes[node.name] = f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Raise) and node.exc is not None:
                raised.add(_name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc))
    return classes, raised


def test_every_exception_class_is_raised():
    # a refusal type that nothing raises is dead API: tests can still
    # import it and expect it, which hides that its check is gone
    classes, raised = _exception_classes_and_raises()
    assert len(classes) >= 30
    assert sorted(f"{name} ({where})" for name, where in classes.items() if name not in raised) == []


def test_every_exception_class_is_named_by_a_test():
    # every refusal is pinned: some test file names each exception class
    classes, _raised = _exception_classes_and_raises()
    words = set()
    for path in sorted(Path(__file__).parent.rglob("*.py")):
        words.update(re.findall(r"\w+", path.read_text()))
    assert sorted(f"{name} ({where})" for name, where in classes.items() if name not in words) == []


def test_no_unused_imports_in_the_package():
    # stdlib ast only: every imported name must be read in its module, as a
    # name or as the base of an attribute (whose base is a name node too)
    found, checked = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        checked.append(path.name)
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "annotations" and name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert {"traintrack.py", "arcdiagram.py"} <= set(checked)
    assert found == []
