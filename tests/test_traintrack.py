"""Parsing, face tracing, validation, duals, diagonal extensions."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_text
from splitseq import traintrack
from splitseq.numberfield import field_create, nf_const, nf_element, pf_eigendata
from splitseq.traintrack import (
    BranchEnd,
    DanglingBranchEnd,
    FieldMismatch,
    Measure,
    NotFilling,
    ParseError,
    SlotReuse,
    Switch,
    TrainTrack,
    _polygon_triangulations,
    canonical_form,
    catalan,
    check_measure,
    diagonal_extensions,
    dual_triangulation,
    parse_track,
    regions,
    serialize_track,
    switch_condition_holds,
    track_isomorphisms,
    validate,
)
from trackgen import rename_track, some_track

TORUS = fixture_text("torus_anosov.track")


def torus():
    return parse_track(TORUS)


def test_parse_torus_counts():
    t, m = torus()
    assert t.s == 2 and t.l == 3
    assert m is not None
    assert len(regions(t)) == 1


def test_parse_no_measure_block():
    text = "\n".join(
        ln for ln in TORUS.splitlines() if not ln.startswith(("measure", "field"))
    )
    t, m = parse_track(text)
    assert m is None and t.l == 3


def test_torus_region_trace():
    t, _ = torus()
    (r,) = regions(t)
    assert r.cusp_count == 2
    assert r.punctured
    assert len(r.boundary) == 6
    # smooth edges between the two cusps, three half-branches each
    e1, e2 = r.edges()
    assert len(e1) == 3 and len(e2) == 3
    assert {h.branch for h in e1 + e2} == {"a", "b", "c"}


def test_validate_torus():
    t, m = torus()
    rep = validate(t, m)
    assert rep.all_ok
    assert (rep.genus, rep.s, rep.l, rep.kappa) == (1, 2, 3, 1)
    assert rep.generic and rep.filling and rep.recurrent
    assert rep.switch_conditions and rep.positive


def test_pf_measure_matches_fixture():
    t, m = torus()
    fld, vec = pf_eigendata([[2, 1, 0], [0, 0, 1], [1, 0, 2]])
    assert fld.minpoly == (1, -3, 1)
    computed = Measure.of(fld, dict(zip(["a", "b", "c"], vec)))
    assert computed == m
    assert check_measure(t, computed)


def test_zero_measure_allowed_but_not_positive():
    t, m = torus()
    zero = Measure.of(m.field, {b: nf_const(m.field, 0) for b in t.branches})
    assert check_measure(t, zero)
    rep = validate(t, zero)
    assert rep.switch_conditions and not rep.positive


def test_perturbed_measure_fails():
    t, m = torus()
    w = m.as_dict()
    w["a"] = w["a"] + nf_const(m.field, 1)
    assert not check_measure(t, Measure.of(m.field, w))


def test_negative_measure_rejected():
    t, m = torus()
    w = {b: -m.weight(b) for b in t.branches}
    neg = Measure.of(m.field, w)
    assert switch_condition_holds(t, neg)
    assert not check_measure(t, neg)


def test_measure_branch_mismatch():
    t, m = torus()
    bad = Measure.of(m.field, {"a": m.weight("a")})
    with pytest.raises(FieldMismatch):
        check_measure(t, bad)


def test_theta_without_puncture_is_not_filling():
    t, _ = parse_track(fixture_text("theta_closed.track"))
    rep = validate(t)
    assert not rep.filling
    assert rep.euler_ok and rep.recurrent and rep.generic
    with pytest.raises(NotFilling):
        dual_triangulation(t)


def test_nonrecurrent_track():
    # switch u forces weight(b) = 0, so no positive solution exists
    t, _ = parse_track(fixture_text("nonrecurrent.track"))
    rep = validate(t)
    assert not rep.recurrent
    assert not rep.filling
    assert rep.euler_ok and rep.genus == 0


GENUS2 = [
    ("genus2_hex.track", (6,), 14),
    ("genus2_44.track", (4, 4), 4),
    ("genus2_35.track", (3, 5), 5),
    ("genus2_trigons.track", (3, 3, 3, 3), 1),
]


@pytest.mark.parametrize("name,profile,n_ext", GENUS2)
def test_genus2_fixture(name, profile, n_ext):
    t, _ = parse_track(fixture_text(name))
    regs = regions(t)
    assert tuple(sorted(r.cusp_count for r in regs)) == profile
    rep = validate(t)
    assert rep.filling and rep.euler_ok and rep.generic
    assert rep.genus == 2
    exts = diagonal_extensions(t)
    assert len(exts) == n_ext
    for ext in exts:
        for i, chords in ext.diagonals:
            assert len(chords) == max(0, regs[i].cusp_count - 3)


def test_dual_triangulation_torus():
    t, _ = torus()
    dt = dual_triangulation(t)
    assert (len(dt.vertices), len(dt.edges), len(dt.triangles)) == (1, 3, 2)
    assert dt.euler == 0
    for _, tri in dt.triangles:
        assert tri == ("a", "b", "c")


@pytest.mark.parametrize(
    "name,counts",
    [
        ("genus2_hex.track", (1, 9, 6)),
        ("genus2_44.track", (2, 12, 8)),
        ("genus2_trigons.track", (4, 18, 12)),
    ],
)
def test_dual_triangulation_genus2(name, counts):
    t, _ = parse_track(fixture_text(name))
    dt = dual_triangulation(t)
    assert (len(dt.vertices), len(dt.edges), len(dt.triangles)) == counts
    assert dt.euler == -2


def _crossing(c1, c2):
    (a, b), (c, d) = sorted(c1), sorted(c2)
    return a < c < b < d or c < a < d < b


@pytest.mark.parametrize("k", range(3, 9))
def test_polygon_triangulations(k):
    tris = _polygon_triangulations(k)
    assert len(tris) == catalan(k - 2)
    assert len(set(tris)) == len(tris)
    for chords in tris:
        assert len(chords) == k - 3
        for c in chords:
            a, b = sorted(c)
            assert (b - a) % k not in (0, 1, k - 1)  # real diagonals only
        for c1 in chords:
            for c2 in chords:
                assert c1 == c2 or not _crossing(c1, c2)


BAD_LINES = [
    "surface genus=1",
    "branch a.b",
    "switch u: large=c.2 small_left=b.1 small_right=a.1",
    "switch u: big=c.0 small_left=b.1 small_right=a.1",
    "measure a = (1, 0)",
    "nonsense line",
]


@pytest.mark.parametrize("line", BAD_LINES)
def test_parse_errors(line):
    with pytest.raises(ParseError):
        parse_track(line + "\n")


def test_parse_error_reports_line_number():
    text = "surface genus=1 punctures=0\nbranch a\n???\n"
    with pytest.raises(ParseError) as e:
        parse_track(text)
    assert e.value.line == 3


def test_measure_length_mismatch():
    text = TORUS.replace("measure a = (1, 0)", "measure a = (1, 0, 0)")
    with pytest.raises(ParseError):
        parse_track(text)


def test_puncture_count_mismatch():
    text = TORUS.replace("punctures=1", "punctures=2")
    with pytest.raises(ParseError):
        parse_track(text)


def test_slot_reuse():
    text = TORUS.replace("small_right=a.0", "small_right=a.1")
    with pytest.raises(SlotReuse):
        parse_track(text)


def test_dangling_end():
    text = TORUS.replace("branch a\n", "branch a\nbranch d\n")
    with pytest.raises((DanglingBranchEnd, ParseError)):
        parse_track(text)


def test_duplicate_branch_declaration():
    text = TORUS.replace("branch a\n", "branch a\nbranch a\n")
    with pytest.raises(ParseError):
        parse_track(text)


@pytest.mark.parametrize(
    "name",
    ["torus_anosov.track", "theta_closed.track", "genus2_hex.track", "genus2_trigons.track"],
)
def test_serialize_round_trip(name):
    t, m = parse_track(fixture_text(name))
    t2, m2 = parse_track(serialize_track(t, m))
    assert canonical_form(t)[0] == canonical_form(t2)[0]
    assert t2.genus == t.genus and t2.puncture_marks == t.puncture_marks
    assert m2 == m


def test_torus_automorphisms():
    t, _ = torus()
    isos = track_isomorphisms(t, t)
    assert len(isos) == 2
    flips = {tuple(flip for _, _, flip in iso.branches) for iso in isos}
    assert flips == {(0, 0, 0), (1, 1, 1)}


def _iso_is_valid(t1, t2, iso):
    sw_img = dict(iso.switches)
    for sw in t1.switches:
        target = t2.switch_named(sw_img[sw.name])
        mapped = Switch(
            target.name,
            tuple(tuple(iso.end_image(e) for e in side) for side in sw.sides),
        )
        if mapped.sides != target.sides:
            return False
    return True


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_canonical_form_invariant_under_renaming(seed, rseed):
    t = some_track(seed)
    t2 = rename_track(t, rseed)
    assert canonical_form(t)[0] == canonical_form(t2)[0]
    isos = track_isomorphisms(t, t2)
    assert isos
    assert all(_iso_is_valid(t, t2, iso) for iso in isos)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_face_trace_partitions_ends(seed):
    t = some_track(seed)
    regs = regions(t)
    seen = [h for r in regs for h in r.boundary]
    assert sorted(seen) == sorted(BranchEnd(b, e) for b in t.branches for e in (0, 1))
    assert sum(r.cusp_count for r in regs) == t.s
    assert 3 * t.s == 2 * t.l


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_rational_switch_solutions_check_exactly(seed):
    # solve the switch conditions over the rationals; any nonnegative
    # solution must satisfy check_measure, and adding 1 to one branch
    # weight must break it (columns of the condition matrix are nonzero)
    import sympy

    t = some_track(seed, sizes=(2, 4))
    fld = field_create([-1, 1], (F(0), F(2)))  # plain rationals
    syms = {b: sympy.Symbol(f"x_{b}", nonnegative=True) for b in t.branches}
    eqs = []
    for sw in t.switches:
        a_side, b_side = sw.sides
        eqs.append(
            sum(syms[e.branch] for e in a_side) - sum(syms[e.branch] for e in b_side)
        )
    sols = sympy.linsolve(eqs, list(syms.values()))
    (sol,) = sols
    free = sorted(sol.free_symbols, key=str)
    subs = {f: 1 for f in free}
    vals = [s.subs(subs) for s in sol]
    if any(v < 0 for v in vals):
        return
    m = Measure.of(
        fld, {b: nf_element(fld, [F(int(v.p), int(v.q))]) for b, v in zip(syms, vals)}
    )
    assert check_measure(t, m)
    # bump a branch with nonzero net coefficient in some switch equation
    for b in t.branches:
        if any(e.coeff(syms[b]) != 0 for e in eqs):
            bumped = dict(m.as_dict())
            bumped[b] = bumped[b] + nf_const(fld, 1)
            assert not switch_condition_holds(t, Measure.of(fld, bumped))
            break


def test_canonical_form_is_computed_once_per_track(monkeypatch):
    t, _ = torus()
    emitted = []
    real = traintrack._emit
    monkeypatch.setattr(traintrack, "_emit", lambda tr, e: emitted.append(e) or real(tr, e))
    first = canonical_form(t)
    assert len(emitted) == 2 * t.l
    assert canonical_form(t) is first and len(emitted) == 2 * t.l
    assert track_isomorphisms(t, t) and len(emitted) == 2 * t.l
    assert canonical_form(parse_track(TORUS)[0]) == first  # equal track, fresh cache


def test_canonical_form_of_empty_track_raises():
    with pytest.raises(ValueError):
        canonical_form(TrainTrack((), (), 0))
