"""Parsing, face tracing, validation."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simplex_oracle
from conftest import FIXTURES, fixture_text
from extension_oracle import catalan, extensions, polygon_triangulations
from splitseq import traintrack
from splitseq.bounds import c_of_psi
from splitseq.numberfield import field_create, nf_const, nf_element, pf_eigendata
from splitseq.splitting import SplitCase, find_agol_cycle, split_surgery
from splitseq.traintrack import (
    BranchEnd,
    CuspRef,
    DanglingBranchEnd,
    FieldMismatch,
    Measure,
    NotFilling,
    ParseError,
    SlotReuse,
    Switch,
    TrainTrack,
    canonical_form,
    check_measure,
    cover_track,
    parse_track,
    regions,
    serialize_track,
    switch_coefficients,
    switch_condition_holds,
    track_isomorphisms,
    validate,
)
from trackgen import (
    GENUS2_PERMS,
    _kernel_basis,
    positive_measure,
    rename_track,
    rescaled_switch_system,
    some_track,
    switch_matrix,
    torus_word_state,
)

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
    # the torus fixture's measure, on the same track without its puncture
    _, m = torus()
    with pytest.raises(NotFilling):
        c_of_psi(find_agol_cycle(t, m, 50))


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
    exts = extensions(t)
    assert len(exts) == n_ext == math.prod(catalan(k - 2) for k in profile)
    for ext in exts:
        for r, chords in zip(regs, ext):
            assert len(chords) == max(0, r.cusp_count - 3)


def _crossing(c1, c2):
    (a, b), (c, d) = sorted(c1), sorted(c2)
    return a < c < b < d or c < a < d < b


@pytest.mark.parametrize("k", range(3, 9))
def test_polygon_triangulations(k):
    tris = polygon_triangulations(k)
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


def test_measure_on_an_undeclared_branch_is_refused():
    with pytest.raises(ParseError, match="zzz"):
        parse_track(TORUS + "measure zzz = (1, 0)\n")


def test_second_measure_line_for_a_branch_is_refused():
    text = TORUS + "measure b = (1, 0)\n"
    with pytest.raises(ParseError, match="branch b given twice") as e:
        parse_track(text)
    assert e.value.line == len(text.splitlines())


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


def test_duplicate_switch_name():
    # without the check this parses, and validate calls it "not connected"
    text = TORUS.replace("switch v:", "switch u:")
    with pytest.raises(ParseError, match="switch u is declared twice"):
        parse_track(text)


def test_duplicate_branch_name():
    # without the check this builds a track with l = 4, which validate
    # reports only as an odd Euler characteristic
    t, _ = torus()
    with pytest.raises(ParseError, match="branch a is declared twice"):
        TrainTrack(t.branches + ("a",), t.switches, t.genus, t.puncture_marks)


def test_genus2_fixture_is_the_rrl_lift():
    t, m = cover_track(*torus_word_state("RRL"), GENUS2_PERMS)
    assert serialize_track(t, m) == fixture_text("genus2_cycle.track")
    rep = validate(t, m)
    assert rep.all_ok and (rep.genus, rep.kappa) == (2, 1)
    assert t.puncture_marks == (CuspRef("v0", 0),)


def test_cover_track_refusals():
    t, m = torus()
    with pytest.raises(ValueError, match="permutation"):
        cover_track(t, m, {"a": (0, 1), "b": (1, 0), "c": (0, 0)})
    with pytest.raises(ValueError, match="permutation"):
        cover_track(t, m, {"a": (0, 1), "b": (1, 0)})
    # the identity on every branch gives d disjoint copies
    with pytest.raises(ValueError, match="not connected"):
        cover_track(t, m, {x: (0, 1) for x in t.branches})


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.track")))
def test_serialize_round_trip(name):
    # the writer reproduces every fixture once its comment lines are dropped
    text = "".join(ln for ln in fixture_text(name).splitlines(True) if not ln.startswith("#"))
    assert serialize_track(*parse_track(text)) == text


def test_mark_on_a_second_cusp_survives_the_file():
    # a central split of the torus leaves u's cusp at index 1 of the
    # merged 4-valent switch; the file line carries the index
    t, _ = torus()
    t2, _ = split_surgery(t, "c", SplitCase.CENTRAL)
    assert t2.puncture_marks == (CuspRef("u", 1),)
    text = serialize_track(t2)
    assert "puncture in region containing cusp u 1\n" in text
    t3, _ = parse_track(text)
    assert t3 == t2 and regions(t3) == regions(t2)


@pytest.mark.parametrize("line, ref", [("cusp w", CuspRef("w", 0)), ("cusp u 1", CuspRef("u", 1))])
def test_mark_naming_no_cusp_is_refused(line, ref):
    # an unknown switch, then an index past u's one cusp
    text = TORUS.replace("cusp u\n", line + "\n")
    assert text != TORUS
    with pytest.raises(ParseError, match="names no cusp"):
        parse_track(text)
    t, _ = torus()
    with pytest.raises(ParseError, match="names no cusp"):
        TrainTrack(t.branches, t.switches, t.genus, (ref,))


def test_torus_automorphisms():
    t, _ = torus()
    isos = track_isomorphisms(t, t)
    assert len(isos) == 2
    flips = {tuple(flip for _, _, flip in iso.branches) for iso in isos}
    assert flips == {(0, 0, 0), (1, 1, 1)}


def test_isomorphisms_keep_punctured_regions_punctured():
    # a genus-3 double cover of genus2_44 with four 4-cusp regions, one of
    # them punctured: a self-map moving the puncture is no isomorphism
    t, _ = parse_track(fixture_text("genus2_44.track"))
    perms = {b: (1, 0) if b == "b11" else (0, 1) for b in t.branches}
    c, _ = cover_track(t, positive_measure(t, random.Random(0)), perms)
    c = TrainTrack(c.branches, c.switches, c.genus, (regions(c)[0].cusps[0],))
    assert c.genus == 3 and [(r.cusp_count, r.punctured) for r in regions(c)] == [
        (4, True), (4, False), (4, False), (4, False)
    ]
    punctured = {h for r in regions(c) if r.punctured for h in r.boundary}
    isos = track_isomorphisms(c, c)
    assert isos
    for iso in isos:
        assert {iso.end_image(h) for h in punctured} == punctured


def _iso_is_valid(t1, t2, iso):
    sw_img = dict(iso.switches)
    by_name = {sw.name: sw for sw in t2.switches}
    for sw in t1.switches:
        target = by_name[sw_img[sw.name]]
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


# --- the integer switch check against sums in Q(lambda)

SWITCH_FIELDS = [
    field_create([-1, 1], (F(0), F(2))),  # Q
    field_create([1, -3, 1], (F(5, 2), F(3))),  # lambda^2 = 3 lambda - 1
    field_create([-1, -1, 0, 1], (F(1), F(2))),  # lambda^3 = lambda + 1
    field_create([-2, 0, 0, 0, 1], (F(1), F(2))),  # Q(2^(1/4))
]


def _field_sum_holds(t, m) -> bool:
    """The switch conditions by their definition: side a minus side b,
    summed as elements of the field, is zero at every switch."""
    for sw in t.switches:
        side_a, side_b = sw.sides
        total = nf_const(m.field, 0)
        for e in side_a:
            total = total + m.weight(e.branch)
        for e in side_b:
            total = total - m.weight(e.branch)
        if not total.is_zero():
            return False
    return True


def _elements(fld):
    # mixed denominators within and across elements
    coords = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
    return st.lists(coords, min_size=fld.degree, max_size=fld.degree).map(lambda cs: nf_element(fld, cs))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(SWITCH_FIELDS), st.data())
def test_switch_condition_matches_the_field_sum(seed, fld, data):
    # a solution in Q(lambda) is a combination of a rational kernel basis
    # with field coefficients; bumping one weight may or may not break it
    t = some_track(seed, sizes=(2, 4, 6))
    basis = _kernel_basis(switch_matrix(t), t.l)
    coeffs = [data.draw(_elements(fld)) for _ in basis]
    weights = {
        b: sum((c * v[j] for c, v in zip(coeffs, basis)), nf_const(fld, 0))
        for j, b in enumerate(t.branches)
    }
    m = Measure.of(fld, weights)
    assert switch_condition_holds(t, m) and _field_sum_holds(t, m)
    bumped = dict(weights)
    b = data.draw(st.sampled_from(t.branches))
    bumped[b] = bumped[b] + data.draw(_elements(fld))
    m2 = Measure.of(fld, bumped)
    assert switch_condition_holds(t, m2) == _field_sum_holds(t, m2)


# --- the integer-tableau simplex against the Fraction one


def _multicurve_systems(seed: int, count: int):
    """The rescaled switch systems that `Genus2Multicurves.measure` in
    perfbench/workloads.py solves for its first `count` measures, three per
    measure, drawn from the same random stream (copied, as the test suite
    does not import the benchmark)."""
    rng = random.Random(f"genus2_multicurves:{seed}")
    pattern = ("genus2_44", "genus2_44", "genus2_tie")
    tracks = {name: parse_track(fixture_text(f"{name}.track"))[0] for name in set(pattern)}
    for k in range(count):
        t = tracks[pattern[k % len(pattern)]]
        for _ in range(3):
            D = [rng.randint(1, 50) for _ in range(t.l)]
            system = rescaled_switch_system(t, D)
            yield system, t.l
            y = simplex_oracle.feasible_point(system, t.l)
            x = [D[j] * y[j] for j in range(t.l)]
            den = math.lcm(*(q.denominator for q in x))
            vertex = [int(q * den) for q in x]
            rng.randint(1, max(1, 10**6 // (3 * max(vertex))))  # the measure's weight


def _fixture_systems():
    """Every fixture's switch rows: as they are, rescaled by integers, and
    rescaled by Fractions."""
    rng = random.Random("fixture systems")
    for path in sorted(FIXTURES.glob("*.track")):
        t, _ = parse_track(path.read_text())
        yield switch_coefficients(t), t.l
        yield rescaled_switch_system(t, [rng.randint(1, 20) for _ in range(t.l)]), t.l
        yield rescaled_switch_system(t, [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(t.l)]), t.l


def test_feasible_point_matches_the_fraction_simplex_on_fixtures_and_multicurves():
    fixtures, multicurves = list(_fixture_systems()), list(_multicurve_systems(3, 8))
    systems = fixtures + multicurves
    got = [traintrack.feasible_point(rows, n) for rows, n in systems]
    assert got == [simplex_oracle.feasible_point(rows, n) for rows, n in systems]
    # four fixtures are not recurrent; every multicurve system has a point
    assert sum(x is None for x in got) == 4 * 3
    assert all(x is not None for x in got[len(fixtures):])


def test_feasible_point_breaks_ratio_ties_like_the_fraction_simplex():
    # on these tracks rows tie in the ratio test, and which one leaves the
    # basis decides the vertex found
    for seed in (1066, 1878):
        t = some_track(seed, sizes=(4, 6, 8, 10, 12))
        rows = switch_coefficients(t)
        got = traintrack.feasible_point(rows, t.l)
        assert got is not None and got == simplex_oracle.feasible_point(rows, t.l)


def test_feasible_point_refuses_a_non_recurrent_track():
    t, _ = parse_track(fixture_text("nonrecurrent.track"))
    rows = switch_coefficients(t)
    assert traintrack.feasible_point(rows, t.l) is None
    assert simplex_oracle.feasible_point(rows, t.l) is None
    assert not traintrack.is_recurrent(t)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.data())
def test_feasible_point_matches_the_fraction_simplex_on_random_tracks(seed, data):
    # the rescalings `positive_measure` draws, and Fraction ones
    t = some_track(seed)
    scale = st.one_of(st.integers(1, 20), st.builds(F, st.integers(1, 9), st.integers(1, 9)))
    rows = rescaled_switch_system(t, data.draw(st.lists(scale, min_size=t.l, max_size=t.l)))
    assert traintrack.feasible_point(rows, t.l) == simplex_oracle.feasible_point(rows, t.l)


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
