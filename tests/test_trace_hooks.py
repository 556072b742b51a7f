"""The benchmark's tracer wraps library functions by name; they must exist.

`perfbench/run.py --trace 1` installs `spans.Tracer(workloads.TRACE_EXTRAS)`
on `workloads.MODULES`.  A renamed private helper or method named there
would raise KeyError only in that run, so this test installs the same
tracer, makes one call through each extra, and uninstalls it again.  A
renamed or privatized function named by a per-layer metric would read 0
with no error at all, so a second test checks those names too.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_tracer_wraps_the_named_extras_and_restores_the_library():
    nf = workloads.numberfield
    before = [dict(vars(mod)) for mod in workloads.MODULES]
    refine = nf.NumberField.refine
    tracer = spans.Tracer(workloads.TRACE_EXTRAS)
    tracer.install(workloads.MODULES)
    try:
        workloads.bounds.power_positive_K(((0, 1), (1, 1)))
        nf.field_create([1, -3, 1], (2, 3)).refine()
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans()]
    # the copy of _is_primitive that bounds imported is wrapped too
    inner = tracer.spans()[names.index("numberfield._is_primitive")]
    assert names[inner.parent] == "bounds.power_positive_K"
    assert "numberfield.NumberField.refine" in names
    assert [dict(vars(mod)) for mod in workloads.MODULES] == before
    assert nf.NumberField.refine is refine


def test_every_traced_metric_names_a_wrapped_function():
    tracer = spans.Tracer(workloads.TRACE_EXTRAS)
    tracer.install(workloads.MODULES)
    tracer.uninstall()
    wrapped = set(tracer.names)  # public functions of the modules, plus the extras
    named = [
        fn
        for fn, _, stat in (metric.rpartition(".") for metric in run.PER_LAYER)
        if stat in ("calls", "s", "self_s", "refused")
    ]
    assert len(named) > 30
    assert [fn for fn in named if fn not in wrapped] == []
