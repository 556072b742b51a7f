"""Tests of the benchmark itself: seeded inputs, the output gate, span arithmetic.

Run with: python3 -m pytest perfbench
"""

import json
import types
from itertools import islice
from pathlib import Path

import pytest

import run
import spans
import workloads


def _fingerprint(inp):
    if isinstance(inp, workloads.TorusInput):
        return inp.label, inp.matrix, inp.measure.weights
    return inp.label, inp.matrix


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_inputs(name):
    w = workloads.WORKLOADS[name]()
    first = [_fingerprint(x) for x in islice(w.inputs(5), 4)]
    again = [_fingerprint(x) for x in islice(workloads.WORKLOADS[name]().inputs(5), 4)]
    other = [_fingerprint(x) for x in islice(w.inputs(6), 4)]
    assert first == again
    assert first != other


def test_torus_word_lengths_cycle():
    words = list(islice(workloads.TorusWords.words(0), 28))
    assert [len(w) for w in words] == list(range(3, 17)) * 2
    assert all("R" in w and "L" in w for w in words)


def test_perron_mix_is_fixed():
    w = workloads.Genus2Perron()
    got = list(islice(w.inputs(3), w.first + w.every + 1))
    prim = {i for i, inp in enumerate(got) if workloads.is_primitive(workloads._bool_rows(inp.matrix))}
    assert prim == {w.first, w.first + w.every}  # one primitive window per round
    # consecutive windows come from different paths
    assert len({inp.label.split("@")[0] for inp in got[: w.lanes]}) == w.lanes


def test_gate_passes_and_one_changed_record_fails():
    w = workloads.TorusWords()
    pins = json.loads(run.PINS.read_text())
    records, problems = run.run_gate(w)
    assert problems == []
    assert run.gate_errors(w.name, records, pins) == []
    changed = json.loads(json.dumps(records))
    changed[3]["slides"] += 1
    assert run.gate_errors(w.name, changed, pins) != []
    assert run.gate_errors(w.name, records[:-1], pins) != []


def test_gate_pins_the_known_refusal():
    w = workloads.TorusWords()
    inp = w.prepare("RRRRLLLL")
    res = w.check(inp, w.run(inp))
    assert not res.refused and not res.problems  # the cycle matrix has no positive power
    assert res.record["refusals"][0][:2] == ["bound_report", "NotPrimitive"]
    assert res.record["slides"] is not None and res.record["h1"] is not None
    assert inp.matrix == ((17, 4), (4, 1))


def test_refusing_a_primitive_cycle_fails():
    w = workloads.TorusWords()
    inp = w.prepare("RRL")
    out = w.run(inp)
    assert out["report"] is not None and not w.check(inp, out).refused
    out["report"] = None
    out["refusals"].append(["bound_report", "NotPrimitive", "no positive power"])
    res = w.check(inp, out)
    assert res.refused
    assert any("refused a primitive cycle matrix" in p for p in res.problems)


def test_invariant_catches_wrong_eigenvector():
    field, v = workloads.numberfield.pf_eigendata(((2, 1), (1, 1)))
    assert workloads.eigen_problems(((2, 1), (1, 1)), field, v) == []
    assert workloads.eigen_problems(((2, 1), (1, 2)), field, v) != []
    neg = [workloads.numberfield.nf_const(field, -1) * x for x in v]
    assert "eigenvector is not strictly positive" in workloads.eigen_problems(((2, 1), (1, 1)), field, neg)


def test_is_primitive_examples():
    assert workloads.is_primitive(workloads._bool_rows(((0, 1), (1, 1))))
    assert not workloads.is_primitive(workloads._bool_rows(((0, 1), (1, 0))))
    assert not workloads.is_primitive(workloads._bool_rows(((1, 1), (0, 1))))


def _span(name, start, end, parent, inp=0, error=""):
    return spans.Span(name, start, end, parent, inp, error)


def test_self_time_on_hand_built_tree():
    # a[0,10] -> b[1,4] -> c[2,3];  a -> b[5,9] -> a[6,8] (recursion)
    tree = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("c", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("a", 6.0, 8.0, 3, error="ValueError"),
        _span("c", 20.0, 21.5, -1, inp=-1),  # set-up work
    ]
    tot = spans.layer_totals(tree)
    assert tot["a"].calls == 2 and tot["a"].self_s == pytest.approx(3.0 + 2.0)
    assert tot["a"].s == pytest.approx(10.0)  # the nested call is not counted twice
    assert tot["a"].errors == 1
    assert tot["b"].self_s == pytest.approx(2.0 + 2.0) and tot["b"].s == pytest.approx(7.0)
    assert tot["c"].calls == 2 and tot["c"].self_s == pytest.approx(2.5)
    timed = spans.layer_totals(tree, setup=False)
    assert timed["c"].calls == 1 and timed["c"].self_s == pytest.approx(1.0)
    assert sum(t.self_s for t in timed.values()) == pytest.approx(10.0)


def test_tracer_rebinds_imported_copies_and_restores():
    lib = types.ModuleType("toylib")
    exec("def g(x):\n    return x + 1\n\ndef f(x):\n    return g(x) * 2\n", lib.__dict__)
    user = types.ModuleType("toyuser")
    exec("def h(x):\n    return g(x) - 1\n", user.__dict__)
    user.g = lib.g  # as `from toylib import g` would
    original = lib.g
    tracer = spans.Tracer()
    tracer.install([lib, user])
    try:
        tracer.input_id = 7
        assert lib.f(1) == 4 and user.h(1) == 1
    finally:
        tracer.uninstall()
    assert lib.g is original and user.g is original
    got = [(s.name, s.parent, s.input) for s in tracer.spans()]
    assert got == [("toylib.f", -1, 7), ("toylib.g", 0, 7), ("toyuser.h", -1, 7), ("toylib.g", 2, 7)]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
