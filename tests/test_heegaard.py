"""Tests for the bordered sutured diagram stage.

Pinned cases run the whole stage, `normalize_basis` through
`attach_tube_cutting`, on three fixtures: the punctured torus starred at
`u`, and the two closed genus-2 tracks `genus2_hex` and `genus2_tie`
starred at `s0`.  Each completion is pinned as (raw generator count, count
after tube cutting); each refusal kind is pinned by one input.  The
generator count is checked against a brute-force enumeration of the
generators themselves.

A known restriction: corner slides do not converge on the torus curves
(1,1,2), (1,2,1) and (2,1,1), the only ones with entries at most 2 that
end in SlidesDidNotConverge.  Every small curve's result, refusals
included, is pinned by one digest in `test_heegaard_corpus_is_pinned`.
"""

import dataclasses
import hashlib
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitseq import heegaard
from splitseq.arcdiagram import SpecialMark
from splitseq.bounds import (
    DimensionMismatch,
    IncompatibleCoordinates,
    NormalCurve,
    bound_report,
    curve_length,
)
from splitseq.heegaard import (
    ComponentWithoutSwitch,
    EmptyCurve,
    GraphFace,
    HallViolation,
    InconsistentDrawing,
    NotDisjoint,
    NotMinimal,
    ReducedGraph,
    SlidesDidNotConverge,
    attach_tube_cutting,
    build_diagram,
    count_generators,
    dual_graph,
    normalize_basis,
    sigma_prime,
    verify_bound,
)
from splitseq.splitting import find_agol_cycle
from splitseq.traintrack import BranchEnd, Switch, TrainTrack, parse_track

FIXTURES = Path(__file__).parent / "fixtures"
STARS = {"torus_anosov": "u", "genus2_hex": "s0", "genus2_tie": "s0", "genus2_cycle": "v0"}


# branches a0 a1 a2 b0 b1 b2 c0 c1 c2 of the genus-2 lift
LIFT_CURVE = (0, 0, 1, 0, 0, 0, 0, 0, 1)


def load(name: str):
    return parse_track((FIXTURES / f"{name}.track").read_text())[0]


def diagram(name: str, curve):
    t = load(name)
    basis = normalize_basis(t, [curve])
    graph = dual_graph(t, basis)
    sigma = SpecialMark(frozenset({STARS[name]}))
    return build_diagram(t, graph.basis, sigma, sigma_prime(graph))


def enumerate_generators(d) -> list[tuple]:
    """Every generator of the diagram, written out: a set of (alpha, beta,
    point) choices that meets every beta circle once, every beta arc at
    most once, and uses each alpha arc at most once."""
    need = set(d.beta_circles)
    options = {a: [] for a in d.alpha_arcs}
    for a, b, n in d.intersections:
        options[a].append((b, n))
    found = []

    def walk(idx: int, used: frozenset, picked: tuple) -> None:
        if idx == len(d.alpha_arcs):
            if need <= used:
                found.append(picked)
            return
        a = d.alpha_arcs[idx]
        walk(idx + 1, used, picked)
        for b, n in options[a]:
            if b in used:
                continue
            for pt in range(1, n + 1):
                walk(idx + 1, used | {b}, picked + ((a, b, pt),))

    walk(0, frozenset(), ())
    return found


@pytest.mark.parametrize(
    "name, curve, raw, cut",
    [
        ("torus_anosov", (1, 0, 1), 16, 2816),
        ("genus2_hex", (0, 0, 1, 0, 0, 0, 0, 1, 1), 13063752, 7928768578977792),
        ("genus2_tie", (0, 1, 0, 1, 0, 0, 0, 0, 0), 12904878, 7067466076543488),
        ("genus2_cycle", LIFT_CURVE, 4245970, 3016089259223040),
    ],
)
def test_pinned_completions(name, curve, raw, cut):
    d = diagram(name, curve)
    gens = count_generators(d)
    d2, gens2 = attach_tube_cutting(d, gens)
    assert (gens.count, gens2.count) == (raw, cut)
    assert len(d2.pieces) == len(d.circles)


@pytest.mark.parametrize(
    "name, curve, kind, message",
    [
        ("torus_anosov", (0, 2, 2), NotDisjoint, "cannot be partitioned"),
        ("torus_anosov", (2, 2, 2), EmptyCurve, "parallel to the boundary"),
        ("torus_anosov", (0, 1, 1), NotMinimal, "one-wall face"),
        ("torus_anosov", (1, 1, 2), SlidesDidNotConverge, "did not converge"),
        ("genus2_hex", (0, 0, 0, 1, 1, 1, 0, 1, 1), NotMinimal, "one-wall face"),
        ("torus_anosov", (1, 0, 0), IncompatibleCoordinates, "odd crossing total"),
        ("torus_anosov", (3, 0, 1), IncompatibleCoordinates, "triangle inequality"),
        ("torus_anosov", (1, 0), DimensionMismatch, "coordinate"),
        ("torus_anosov", (0, 0, 0), EmptyCurve, "crosses no dual edge"),
        ("torus_anosov", NormalCurve((2, 0, 2), 2), ComponentWithoutSwitch, "parallel copies"),
        # the band check runs before any corner slide: after the slides
        # this input ends in SlidesDidNotConverge
        ("torus_anosov", NormalCurve((2, 2, 4), 2), ComponentWithoutSwitch, "parallel copies"),
    ],
)
def test_pinned_refusals(name, curve, kind, message):
    with pytest.raises(kind, match=message):
        diagram(name, curve)


def test_heegaard_corpus_is_pinned():
    # every valid curve with small entries, alone and as two parallel
    # copies: 1,032 systems, 210 of them completed diagrams
    digest = hashlib.sha256()
    for name, top in (("torus_anosov", 5), ("genus2_hex", 2), ("genus2_cycle", 2)):
        t = load(name)
        sigma = SpecialMark(frozenset({STARS[name]}))
        for v in itertools.product(range(top + 1), repeat=t.l):
            try:
                if curve_length(NormalCurve(v), t) == 0:
                    continue
            except IncompatibleCoordinates:
                continue
            for curve in (NormalCurve(v), NormalCurve(tuple(2 * x for x in v), 2)):
                try:
                    graph = dual_graph(t, normalize_basis(t, [curve]))
                    d = build_diagram(t, graph.basis, sigma, sigma_prime(graph))
                    out = repr((graph.edges, graph.faces, d))
                except Exception as exc:
                    out = f"{type(exc).__name__}: {exc}"
                digest.update(out.encode())
    assert digest.hexdigest() == (
        "86fe884c6f29e3298dee693c2859d89776ae8b3697790265434ed9fc886db173"
    )


def mirror(t: TrainTrack) -> TrainTrack:
    """Each switch with the order of both its sides reversed."""
    switches = tuple(
        Switch(sw.name, tuple(tuple(reversed(side)) for side in sw.sides)) for sw in t.switches
    )
    return dataclasses.replace(t, switches=switches)


@pytest.mark.parametrize("other", [mirror, lambda t: load("genus2_hex")], ids=["mirror", "hex"])
def test_a_track_the_basis_was_not_drawn_on_is_refused(other):
    # the torus basis of (1,0,1) on its mirror used to give the torus's own
    # 16 generators (the mirror refuses its own basis of the curve), and on
    # genus2_hex a misleading face census
    t = load("torus_anosov")
    basis = normalize_basis(t, [(1, 0, 1)])
    wrong = other(t)
    assert wrong != t
    with pytest.raises(ValueError, match="drawn on another track"):
        dual_graph(wrong, basis)
    graph = dual_graph(load("torus_anosov"), basis)  # an equal track is the same track
    sigma = SpecialMark(frozenset({"u"}))
    with pytest.raises(ValueError, match="drawn on another track"):
        build_diagram(wrong, graph.basis, sigma, sigma_prime(graph))
    assert count_generators(build_diagram(t, graph.basis, sigma, sigma_prime(graph))).count == 16


@pytest.mark.parametrize("name, top, bases", [("torus_anosov", 8, 132), ("genus2_hex", 2, 228)])
def test_cut_is_the_smaller_low_stack(name, top, bases):
    # every compatible vector with small entries, alone and as two parallel
    # copies: the low and high stacks of a triangle side fill its points,
    # the cut is the least minimiser of the crossings of the two branch
    # halves, and the legs cross the system at most `length` times, so
    # normalize_basis needs no guard on the leg crossings
    t = load(name)
    seen = 0
    for v in itertools.product(range(top + 1), repeat=t.l):
        try:
            if curve_length(NormalCurve(v), t) == 0:
                continue
        except IncompatibleCoordinates:
            continue
        for curve in (NormalCurve(v), NormalCurve(tuple(2 * x for x in v), 2)):
            try:
                basis = normalize_basis(t, [curve])
            except (EmptyCurve, NotDisjoint):
                basis = None
            geom = basis.geom if basis else heegaard._Geom(t, dict(zip(t.branches, curve.coords)))
            check_cuts(geom)
            if basis:
                seen += 1
                assert sum(len(basis.geom.comp_word(ci)) for ci in range(basis.m)) <= basis.length
    assert seen == bases


def check_cuts(geom):
    for b in geom.t.branches:
        n = geom.n[b]
        sides = [geom.side_corners(BranchEnd(b, eps)) for eps in (0, 1)]
        assert all(geom.a[lo] + geom.a[hi] == n for lo, hi in sides)
        cost = [
            sum(max(0, geom.a[lo] - p) + max(0, geom.a[hi] - (n - p)) for lo, hi in sides)
            for p in range(n + 1)
        ]
        assert geom.cut[b] == min(geom.a[lo] for lo, _hi in sides) == cost.index(min(cost))


def test_sigma_prime_refuses_two_faces_on_one_switch():
    # Hall's condition fails: two faces share their only corner switch
    t = load("torus_anosov")
    face = GraphFace(walk=(("g0", 0),), corners=("u",), inside_sides=())
    graph = ReducedGraph(basis=normalize_basis(t, [(1, 0, 1)]), edges=(), faces=(face, face))
    with pytest.raises(HallViolation, match="injectively"):
        sigma_prime(graph)


@pytest.fixture(scope="module")
def torus_report():
    t, m = parse_track((FIXTURES / "torus_anosov.track").read_text())
    return bound_report(find_agol_cycle(t, m, 10))


@pytest.mark.parametrize(
    "target, field, note",
    [
        ("diagram", "pieces", "no tube pieces attached"),
        ("diagram", "basis_length", "exceeds the cap"),
        ("diagram", "m", "components exceed 2g"),
        ("diagram", "genus", "genus mismatch"),
        ("report", "dd", "exceeds the ceiling"),
    ],
)
def test_verify_bound_notes_each_failure(torus_report, target, field, note):
    # the pinned torus diagram passes; one changed field fails it with one note
    report = torus_report
    d = diagram("torus_anosov", (1, 0, 1))
    cut, gens = attach_tube_cutting(d, count_generators(d))
    assert verify_bound(cut, report).passed
    value = {
        "pieces": (),
        "basis_length": report.M_psi + 1,
        "m": 2 * report.g + 1,
        "genus": report.g + 1,
        "dd": gens.count - 1,
    }[field]
    if target == "diagram":
        cut = dataclasses.replace(cut, **{field: value})
    else:
        report = dataclasses.replace(report, **{field: value})
    check = verify_bound(cut, report)
    assert not check.passed
    assert len(check.notes) == 1 and note in check.notes[0]


@pytest.mark.parametrize(
    "name, curve",
    [("torus_anosov", (1, 0, 1)), ("genus2_hex", (0, 0, 1, 0, 0, 0, 0, 1, 1))],
)
def test_face_contents_see_orientation(monkeypatch, name, curve):
    # faces traced with the opposite rotation put every wall's other side
    # inside; the walls of one face then name different contents
    real = heegaard._trace_faces

    def reversed_faces(edges, alive):
        return [[(e, 1 - d) for e, d in reversed(walk)] for walk in real(edges, alive)]

    monkeypatch.setattr(heegaard, "_trace_faces", reversed_faces)
    t = load(name)
    with pytest.raises(InconsistentDrawing, match="disagree"):
        dual_graph(t, normalize_basis(t, [curve]))


def test_genus2_lift_chain_counts_once_and_passes(monkeypatch):
    # the tube-cut diagram keeps the count of the diagram it was cut from,
    # so verify_bound runs the subset DP no second time
    runs = []
    real = heegaard._subset_dp
    monkeypatch.setattr(heegaard, "_subset_dp", lambda d: runs.append(d) or real(d))
    t, m = parse_track((FIXTURES / "genus2_cycle.track").read_text())
    report = bound_report(find_agol_cycle(t, m, 10))
    d = diagram("genus2_cycle", LIFT_CURVE)
    cut, gens = attach_tube_cutting(d, count_generators(d))
    check = verify_bound(cut, report)
    assert check.passed and check.count == gens.count == 3016089259223040
    assert len(runs) == 1


def test_tube_cutting_never_caches_the_callers_count():
    d = diagram("torus_anosov", (1, 0, 1))
    cut, gens = attach_tube_cutting(d, heegaard.GeneratorSet(1))
    assert gens.count == 2816 // 16
    assert count_generators(cut).count == 16


def test_one_geometry_per_basis(monkeypatch):
    built = []

    class Counted(heegaard._Geom):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(heegaard, "_Geom", Counted)
    diagram("torus_anosov", (1, 0, 1))
    assert len(built) == 1


def test_torus_count_matches_enumeration():
    d = diagram("torus_anosov", (1, 0, 1))
    gens = enumerate_generators(d)
    assert len(gens) == len(set(gens)) == count_generators(d).count == 16


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_count_matches_enumeration(data):
    d = diagram("torus_anosov", (1, 0, 1))
    n_alpha = data.draw(st.integers(1, 4))
    n_circle = data.draw(st.integers(0, 2))
    n_arc = data.draw(st.integers(0, 3))
    alphas = tuple(f"a{i}" for i in range(n_alpha))
    circles = tuple(f"bc{i}" for i in range(n_circle))
    arcs = tuple(f"b{i}" for i in range(n_arc))
    crossings = data.draw(
        st.lists(st.integers(0, 3), min_size=n_alpha * (n_circle + n_arc),
                 max_size=n_alpha * (n_circle + n_arc))
    )
    pairs = [(a, b) for a in alphas for b in circles + arcs]
    small = dataclasses.replace(
        d,
        alpha_arcs=alphas,
        beta_circles=circles,
        beta_arcs=arcs,
        intersections=tuple((a, b, n) for (a, b), n in zip(pairs, crossings) if n),
    )
    assert count_generators(small).count == len(enumerate_generators(small))
