"""The library runs without sympy: only the tests use it, as an oracle.

A fresh interpreter refuses every import of sympy, runs the Perron-Frobenius
kernels and the torus pipeline from the cycle search to the H_1 action, and
checks that sympy never entered `sys.modules`.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import sys
from pathlib import Path


class RefuseSympy:
    def find_spec(self, name, path=None, target=None):
        if name == "sympy" or name.startswith("sympy."):
            raise ImportError(f"the runtime imported {name}")
        return None


sys.meta_path.insert(0, RefuseSympy())
root = Path(sys.argv[1])
sys.path.insert(0, str(root / "src"))

from splitseq import arcdiagram, bounds, numberfield, splitting, traintrack

# RRL, and a primitive genus-2 window whose characteristic polynomial
# (x + 1) (x - 1)^4 q(x), deg q = 7, has a repeated factor
field, _ = numberfield.pf_eigendata([[3, 2], [1, 1]])
print("torus word", field.minpoly)
WINDOW = [
    [1, 0, 2, 0, 1, 1, 0, 0, 0, 2, 1, 1], [0, 3, 0, 1, 1, 0, 2, 0, 2, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 2, 0, 0], [0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0],
    [1, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0, 1], [1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 4, 0, 2, 2, 0, 4, 0, 1, 0, 0, 0], [1, 0, 2, 0, 0, 1, 0, 0, 0, 1, 2, 0],
    [1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 1], [0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1],
]
field, v = numberfield.pf_eigendata(WINDOW)
print("window degree", field.degree)
mono, _ = numberfield.nf_minpoly(v[1] * v[2])
print("minpoly degree", len(mono) - 1)

t, m = traintrack.parse_track((root / "tests" / "fixtures" / "torus_anosov.track").read_text())
cyc = splitting.find_agol_cycle(t, m, 50)
rep = bounds.bound_report(cyc)
seq = arcdiagram.factorize(cyc, arcdiagram.SpecialMark(frozenset({"u"})))
h1 = arcdiagram.h1_action(seq)
print("torus cycle", cyc.n, rep.K, len(seq.slides), h1[1])
print("sympy loaded", "sympy" in sys.modules)
"""


def test_runtime_never_imports_sympy():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT)], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "torus word (1, -4, 1)"
    assert lines[1:3] == ["window degree 7", "minpoly degree 7"]
    assert lines[-1] == "sympy loaded False"
