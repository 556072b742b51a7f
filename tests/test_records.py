"""Frozen records store their inputs; derived values are cached properties.

A hand-rolled cache (`getattr(x, "_c", None)` plus `object.__setattr__`)
keeps state that no field declares, and lets one module write private
attributes onto another module's records.  `functools.cached_property`
keeps each derived value on the record that owns it.  Stdlib `ast` only,
like `test_typed_checks.py`.
"""

import ast
from pathlib import Path

import splitseq

PACKAGE = Path(splitseq.__file__).parent


def _nodes():
    """(module, innermost enclosing function, node) for every node of the package."""

    def walk(mod, fn, node):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
            yield mod, inner, child
            yield from walk(mod, inner, child)

    for path in sorted(PACKAGE.glob("*.py")):
        yield from walk(path.stem, "", ast.parse(path.read_text(), filename=str(path)))


def _is_instance_dict(node) -> bool:
    # x.__dict__ or vars(x)
    return (isinstance(node, ast.Attribute) and node.attr == "__dict__") or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars"
    )


def test_object_setattr_only_normalises_or_tightens():
    # __post_init__ normalises a field; `_tighten` keeps the tightest
    # root interval on a NumberField, a mutable cache by design
    found = {
        (mod, fn) for mod, fn, node in _nodes()
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__"
    }
    assert ("numberfield", "_tighten") in found and ("traintrack", "__post_init__") in found
    assert sorted(f for f in found if f[1] != "__post_init__") == [("numberfield", "_tighten")]


def test_no_attribute_builtin_names_a_private_attribute():
    found = [
        f"{mod}.{fn}: {ast.unparse(node)}" for mod, fn, node in _nodes()
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("getattr", "hasattr", "setattr", "delattr")
        and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
        and str(node.args[1].value).startswith("_")
    ]
    assert found == []


def test_one_write_into_an_instance_dict():
    # the tube-cut copy of a diagram keeps the generator count of the
    # diagram it was cut from, which ignores the tube pieces
    writes = []
    for mod, fn, node in _nodes():
        stored = isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
        mutated = isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
            node.func.attr in ("update", "setdefault", "pop", "popitem", "clear", "__setitem__")
        )
        if (stored and _is_instance_dict(node.value)) or (mutated and _is_instance_dict(node.func.value)):
            writes.append((mod, fn))
    assert writes == [("heegaard", "attach_tube_cutting")]
