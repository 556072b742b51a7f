"""Every public function, method and property of the package has a use.

A public name passes one of three checks:
- some module of the package, or the benchmark's `perfbench/workloads.py`,
  reads it (as a name or as an attribute; names are matched bare, so a
  read of a same-named attribute of another type also counts);
- a per-layer metric of `perfbench/run.py` traces it by name;
- `ALLOWED` below names it, keyed by qualified name, with the reason it
  stays.

A name that only tests call is API kept for the tests alone: move it into
a test helper instead.  Stdlib only, like `test_typed_checks.py`.
"""

import ast
from pathlib import Path

import splitseq

PACKAGE = Path(splitseq.__file__).parent
PERFBENCH = PACKAGE.parent.parent / "perfbench"

# planned uses are the open items of ROADMAP.md
ALLOWED = {
    "arcdiagram.serialize_sequence": "text form of a factorization for the planned CLI",
    "numberfield.nf_minpoly": "the stretch factor's minimal polynomial for the planned CLI",
    "bounds.push_curve": "the curve push a planned genus-3 generator count needs",
    "traintrack.validate": "the structural report on a parsed track and measure",
    "traintrack.ValidationReport.all_ok": "the verdict of `validate`'s report",
    "traintrack.cover_track": "builds the higher-genus lifts the planned cycles and checks start from",
}


def _public_defs() -> dict[str, str]:
    """Qualified name (module.name or module.Class.name) -> bare name of
    every public function, method and property of the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            members = [(mod, node)]
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                members = [(f"{mod}.{node.name}", m) for m in node.body]
            for prefix, m in members:
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                    out[f"{prefix}.{m.name}"] = m.name
    return out


def _read_names() -> set[str]:
    files = sorted(PACKAGE.glob("*.py")) + [PERFBENCH / "workloads.py"]
    read = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def _traced_names() -> set[str]:
    """module.function and module.Class.method of every per-layer metric."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    (layers,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_LAYERS"
    ]
    return {
        f"{mod}.{metric.rsplit('.', 1)[0]}"
        for mod, metrics in ast.literal_eval(layers).items()
        for metric in metrics
        if "." in metric
    }


def test_every_public_name_has_a_use():
    defs = _public_defs()
    read, traced = _read_names(), _traced_names()
    assert {"splitting.find_agol_cycle", "bounds.c_of_psi"} <= traced
    assert len(defs) >= 80
    unused = sorted(q for q, name in defs.items() if name not in read and q not in traced)
    assert [q for q in unused if q not in ALLOWED] == []


def test_every_allowed_name_exists():
    # an entry whose name is gone would keep excusing nothing
    assert sorted(set(ALLOWED) - set(_public_defs())) == []
