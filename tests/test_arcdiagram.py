"""Tests for arc diagrams, arcslides, and factorization into slide loops.

Hand values for the punctured-torus fixture: intervals [b.1, c.0, a.1] and
[b.0, c.1, a.0], three branch handles, chi(F) = -1, and a single boundary
component visiting both intervals (the one region has a cusp at each
switch).  Its splitting period has two splits, so factorize emits four
slides and no adjustment tail; the capped homology action has trace 3 and
determinant 1, the companion data of the dilatation polynomial
x^2 - 3x + 1.
"""

import dataclasses
import hashlib
import random
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from splitseq import arcdiagram, numberfield, splitting, traintrack
from splitseq.arcdiagram import (
    ArcDiagram,
    Arcslide,
    ArcslideSequence,
    CentralSplit,
    InvalidMark,
    MalformedDiagram,
    NotAdjacent,
    NotALoop,
    SpecialMark,
    _det_int,
    _diagonalize,
    _mat_mul,
    _move_frame,
    _route_frames,
    _slide,
    factorize,
    h1_action,
    same_pattern,
    serialize_sequence,
    special_arc_diagram,
    split_slides,
)
from splitseq.bounds import bound_report
from splitseq.splitting import ReplayMismatch, SplitCase, SplitEvent, find_agol_cycle, split
from splitseq.traintrack import cover_track, parse_track, regions
from trackgen import torus_word_state

FIXTURES = Path(__file__).parent / "fixtures"

WELL_FORMED = [
    "torus_anosov.track",
    "theta_closed.track",
    "genus2_hex.track",
    "genus2_tie.track",
    "genus2_35.track",
    "genus2_44.track",
    "genus2_trigons.track",
]

# fixtures whose stored measure runs a genuine splitting cycle
CYCLE_FIXTURES = ["torus_anosov.track", "genus2_cycle.track"]


def load(name):
    return parse_track((FIXTURES / name).read_text())


def least_mark(t) -> SpecialMark:
    """Lexicographically least valid mark: smallest cusp switch per region."""
    return SpecialMark(
        frozenset(min(c.switch for c in reg.cusps) for reg in regions(t))
    )


def plain_diagram(t) -> ArcDiagram:
    """``special_arc_diagram`` without frames: one interval per switch and
    one handle per branch, so each region's boundary component has one
    positive arc per cusp of the region."""
    intervals = tuple((str(sw.small_left), str(sw.large), str(sw.small_right)) for sw in t.switches)
    matching = tuple((f"{b}.0", f"{b}.1") for b in t.branches)
    return ArcDiagram(intervals, matching, tuple(sw.name for sw in t.switches))


def chi(d) -> int:
    return len(d.intervals) - len(d.matching)


def is_special(d) -> bool:
    """One positive arc (so one negative arc) on every boundary component."""
    return all(len(cyc) == 1 for cyc, _ in d.boundary_components())


def arcslide(d, slid, over) -> ArcDiagram:
    """The diagram after one slide of ``slid`` across its neighbor ``over``."""
    rows = [list(pts) for pts in d.intervals]
    _slide(rows, d, slid, over)
    return ArcDiagram(tuple(map(tuple, rows)), d.matching, d.labels)


def adjustment(sigma1, sigma2, t) -> ArcslideSequence:
    """The frame routes from ``sigma1``'s special diagram to ``sigma2``'s."""
    start = special_arc_diagram(t, sigma1)
    d, slides = _route_frames(start, t, sigma1, sigma2)
    if not same_pattern(d, special_arc_diagram(t, sigma2)):
        raise NotALoop("the routes did not reach the target diagram")
    return ArcslideSequence(start, tuple(slides), d)


def recorded(d, slid, over) -> Arcslide:
    """The slide of ``slid`` across ``over``, recorded at its place in d."""
    i, ja = d.position(slid)
    return Arcslide(slid, over, (i, ja, d.position(over)[1]))


def rot_min(seq):
    seq = tuple(seq)
    return min(tuple(seq[i:] + seq[:i]) for i in range(len(seq))) if seq else seq


# ---------------------------------------------------------------------------
# construction


def test_torus_plain_diagram():
    t, _ = load("torus_anosov.track")
    d = plain_diagram(t)
    assert d.intervals == (("b.1", "c.0", "a.1"), ("b.0", "c.1", "a.0"))
    assert d.matching == (("a.0", "a.1"), ("b.0", "b.1"), ("c.0", "c.1"))
    assert d.labels == ("u", "v")
    assert chi(d) == -1
    assert sum(len(p) for p in d.intervals) == 6
    assert not is_special(d)


@pytest.mark.parametrize("name", WELL_FORMED)
def test_chi_is_s_minus_l(name):
    t, _ = load(name)
    assert chi(plain_diagram(t)) == t.s - t.l


@pytest.mark.parametrize("name", WELL_FORMED)
def test_boundary_components_match_regions(name):
    t, _ = load(name)
    d = plain_diagram(t)
    comps = d.boundary_components()
    regs = regions(t)
    assert len(comps) == len(regs)
    comp_seqs = sorted(rot_min([d.labels[i] for i in cyc]) for cyc, _ in comps)
    reg_seqs = sorted(rot_min([c.switch for c in reg.cusps]) for reg in regs)
    assert comp_seqs == reg_seqs
    # the full boundary is null-homologous: handle crossings cancel in total
    total: dict = {}
    for _, chain in comps:
        for pair, c in chain:
            total[pair] = total.get(pair, 0) + c
    assert not any(total.values())


def test_smooth_face_rejected():
    t, _ = load("nonrecurrent.track")
    assert any(r.cusp_count == 0 for r in regions(t))
    with pytest.raises(MalformedDiagram):
        plain_diagram(t).boundary_components()


def test_malformed_matchings():
    with pytest.raises(MalformedDiagram):
        ArcDiagram((("x", "x"),), (("x", "x"),), ("i",))
    with pytest.raises(MalformedDiagram):
        ArcDiagram((("x", "y"),), (("x", "x"),), ("i",))
    with pytest.raises(MalformedDiagram):
        ArcDiagram((("x", "y", "z"),), (("x", "y"),), ("i",))
    with pytest.raises(MalformedDiagram):
        ArcDiagram((("x", "y"),), (("x", "y"),), ("i", "j"))
    # handle from an interval's head to its own tail closes S_- up
    d = ArcDiagram((("x", "y"),), (("x", "y"),), ("i",))
    with pytest.raises(MalformedDiagram):
        d.boundary_components()


# ---------------------------------------------------------------------------
# special diagrams and marks


def test_torus_special_marks():
    t, _ = load("torus_anosov.track")
    for star, framed in (("u", "v"), ("v", "u")):
        sd = special_arc_diagram(t, SpecialMark(frozenset({star})))
        assert is_special(sd)
        sizes = {lbl: len(pts) for lbl, pts in zip(sd.labels, sd.intervals)}
        assert sizes == {star: 3, framed: 5}
        i = sd.labels.index(framed)
        pts = sd.intervals[i]
        assert pts[0] == f"{framed}.L" and pts[-1] == f"{framed}.R"
        assert sd.partner(pts[0]) == pts[-1]


@pytest.mark.parametrize("name", WELL_FORMED)
def test_special_check_on_all_fixtures(name):
    t, _ = load(name)
    sigma = least_mark(t)
    sd = special_arc_diagram(t, sigma)
    comps = sd.boundary_components()
    assert all(len(cyc) == 1 for cyc, _ in comps)
    assert len(comps) == len(regions(t)) + (t.s - len(sigma.switches))
    assert chi(sd) == len(regions(t)) - t.l


def test_invalid_marks():
    t, _ = load("torus_anosov.track")
    with pytest.raises(InvalidMark):
        special_arc_diagram(t, SpecialMark(frozenset({"u", "v"})))  # two stars
    with pytest.raises(InvalidMark):
        special_arc_diagram(t, SpecialMark(frozenset()))  # no star
    with pytest.raises(InvalidMark):
        special_arc_diagram(t, SpecialMark(frozenset({"zz"})))  # unknown switch


# ---------------------------------------------------------------------------
# arcslides


def test_arcslide_lands_beside_partner():
    d = ArcDiagram((("1", "2", "3", "4"),), (("1", "3"), ("2", "4")), ("z",))
    d2 = arcslide(d, "2", "1")
    # 2 sat above 1, so it lands just below 1's partner 3
    assert d2.intervals == (("1", "2", "3", "4"),)
    assert d2.matching == d.matching
    d3 = arcslide(d, "4", "3")
    # 4 sat above 3, so it lands just below 3's partner 1
    assert d3.intervals == (("4", "1", "2", "3"),)


def test_arcslide_inverse_round_trip():
    t, _ = load("torus_anosov.track")
    d = plain_diagram(t)
    d2 = arcslide(d, "b.1", "c.0")
    assert d2 != d
    assert arcslide(d2, "b.1", "c.1") == d


def test_arcslide_errors():
    t, _ = load("torus_anosov.track")
    d = plain_diagram(t)
    with pytest.raises(NotAdjacent):
        arcslide(d, "b.1", "a.1")  # same interval, not adjacent
    with pytest.raises(NotAdjacent):
        arcslide(d, "b.1", "c.1")  # different intervals
    with pytest.raises(NotAdjacent):
        arcslide(d, "b.1", "nope")
    d2 = arcslide(d, "b.1", "c.0")  # b.1 now sits beside its partner b.0
    with pytest.raises(NotAdjacent):
        arcslide(d2, "b.1", "b.0")


@given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=25))
@settings(max_examples=60, deadline=None)
def test_random_slides_preserve_surface_and_invert(seeds):
    t, _ = load("torus_anosov.track")
    base = special_arc_diagram(t, SpecialMark(frozenset({"u"})))
    n_comps = len(base.boundary_components())
    d = base
    done = []
    for s in seeds:
        flat = [
            (i, j)
            for i, pts in enumerate(d.intervals)
            for j in range(len(pts) - 1)
        ]
        i, j = flat[s % len(flat)]
        lo, hi = d.intervals[i][j], d.intervals[i][j + 1]
        slid, over = (hi, lo) if s % 2 else (lo, hi)
        try:
            d2 = arcslide(d, slid, over)
        except NotAdjacent:
            continue  # partner pair
        done.append((slid, over))
        d = d2
        assert chi(d) == chi(base)
        assert len(d.boundary_components()) == n_comps
    for slid, over in reversed(done):
        d = arcslide(d, slid, d.partner(over))
    assert d == base


# ---------------------------------------------------------------------------
# splits as slides


def iter_cycle_splits(name):
    """(pre track, pre measure, event, post track) for each split in the
    fixture's detected cycle period."""
    t, m = load(name)
    cyc = find_agol_cycle(t, m, 64)
    t, m = cyc.start_track, cyc.period_measures[0]
    for group in cyc.events:
        for ev in group:
            t2, m2, _, got = split(t, m, ev.branch)
            assert got == ev
            yield t, m, ev, t2
            t, m = t2, m2


@pytest.mark.parametrize("name", CYCLE_FIXTURES)
def test_split_slides_round_trip_plain(name):
    for t, _m, ev, t2 in iter_cycle_splits(name):
        _, d2 = split_slides(plain_diagram(t), ev)
        assert d2 == plain_diagram(t2)


@pytest.mark.parametrize("name", CYCLE_FIXTURES)
def test_split_slides_round_trip_special(name):
    t0, _ = load(name)
    for sigma in ({"u"}, {"v"}) if t0.s == 2 else (least_mark(t0).switches,):
        sg = SpecialMark(frozenset(sigma))
        for t, _m, ev, t2 in iter_cycle_splits(name):
            sd = special_arc_diagram(t, sg)
            _, sd2 = split_slides(sd, ev)
            assert sd2 == special_arc_diagram(t2, sg)
            assert is_special(sd2)


def test_split_to_arcslides_are_two_slides():
    t, m = load("torus_anosov.track")
    _, _, _, ev = split(t, m, "c")
    d = plain_diagram(t)
    (first, second), _ = split_slides(d, ev)
    # each slide is recorded in the diagram it starts from
    assert first == recorded(d, first.slid, first.over)
    mid = arcslide(d, first.slid, first.over)
    assert second == recorded(mid, second.slid, second.over)
    assert {first.slid, second.slid} == {"b.1", "b.0"}  # the two small ends
    assert {first.over, second.over} == {"c.0", "c.1"}


def test_central_split_rejected():
    ev = SplitEvent(branch="c", case=SplitCase.CENTRAL)
    t, _ = load("torus_anosov.track")
    d = plain_diagram(t)
    with pytest.raises(CentralSplit):
        split_slides(d, ev)


# ---------------------------------------------------------------------------
# boundary adjustments


def test_adjustment_same_mark_is_empty():
    t, _ = load("torus_anosov.track")
    sg = SpecialMark(frozenset({"u"}))
    seq = adjustment(sg, sg, t)
    assert seq.slides == ()
    assert seq.start == seq.end
    full, capped = h1_action(seq)
    n = len(full)
    assert full == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert capped == ((1, 0), (0, 1))


def test_adjustment_moves_only_frame_points():
    t, _ = load("torus_anosov.track")
    sgu, sgv = SpecialMark(frozenset({"u"})), SpecialMark(frozenset({"v"}))
    seq = adjustment(sgu, sgv, t)
    assert seq.slides
    assert all(sl.slid.endswith((".L", ".R")) for sl in seq.slides)
    assert same_pattern(seq.end, special_arc_diagram(t, sgv))


def test_adjustment_two_regions():
    t, _ = load("genus2_44.track")
    regs = regions(t)
    assert len(regs) == 2
    picks = [sorted({c.switch for c in reg.cusps}) for reg in regs]
    if any(len(p) < 2 for p in picks):
        pytest.skip("fixture regions lack alternative cusps")
    s1 = SpecialMark(frozenset(p[0] for p in picks))
    s2 = SpecialMark(frozenset(p[1] for p in picks))
    seq = adjustment(s1, s2, t)
    assert same_pattern(seq.end, special_arc_diagram(t, s2))
    assert all(sl.slid.endswith((".L", ".R")) for sl in seq.slides)
    # concatenation of two single-region routes
    mid = SpecialMark(frozenset([picks[0][1], picks[1][0]]))
    first = adjustment(s1, mid, t)
    secnd = adjustment(mid, s2, t)
    assert len(seq.slides) == len(first.slides) + len(secnd.slides)


def test_adjustment_loop_caps_to_identity():
    t, _ = load("torus_anosov.track")
    sgu, sgv = SpecialMark(frozenset({"u"})), SpecialMark(frozenset({"v"}))
    s1 = adjustment(sgu, sgv, t)
    s2 = adjustment(sgv, sgu, t)
    # the travelling frame keeps its old name; rewire for the return leg
    ren = (("v.L", "u.L"), ("v.R", "u.R"))
    loop = ArcslideSequence(
        start=s1.start,
        slides=s1.slides + s2.slides,
        end=s2.end,
        renames=((len(s1.slides), ren),),
    )
    full, capped = h1_action(loop)
    assert capped == ((1, 0), (0, 1))
    assert _det_int([list(r) for r in full]) in (1, -1)


def test_h1_rejects_open_sequences():
    t, _ = load("torus_anosov.track")
    sgu, sgv = SpecialMark(frozenset({"u"})), SpecialMark(frozenset({"v"}))
    seq = adjustment(sgu, sgv, t)
    with pytest.raises(NotALoop):
        h1_action(seq)


# ---------------------------------------------------------------------------
# factorization


def test_factorize_torus_loop():
    t, m = load("torus_anosov.track")
    cyc = find_agol_cycle(t, m, 64)
    n_splits = sum(len(g) for g in cyc.events)
    for star in ("u", "v"):
        seq = factorize(cyc, SpecialMark(frozenset({star})))
        assert same_pattern(seq.start, seq.end)
        assert len(seq.slides) >= 2 * n_splits
        full, capped = h1_action(seq)
        assert len(capped) == 2  # 2g rows for the closed torus
        assert sum(capped[i][i] for i in range(2)) == 3
        assert capped[0][0] * capped[1][1] - capped[0][1] * capped[1][0] == 1
        assert _det_int([list(r) for r in full]) in (1, -1)


def test_one_chain_action_pass_per_sequence(monkeypatch):
    t, m = load("torus_anosov.track")
    cyc = find_agol_cycle(t, m, 64)
    signs = []
    real = arcdiagram._elementary_sign
    monkeypatch.setattr(arcdiagram, "_elementary_sign", lambda *a: signs.append(a) or real(*a))
    for star in ("u", "v"):
        seq = factorize(cyc, SpecialMark(frozenset({star})))
        assert signs == []  # factorize builds no matrix
        h1_action(seq)
        assert len(signs) == len(seq.slides)
        signs.clear()


def test_factorize_traces_each_track_once(monkeypatch):
    # special_arc_diagram runs twice on the start track and region_map twice
    # more, after the search's canonical forms read its regions; the regions
    # are traced once and cached on the track
    t, m = load("torus_anosov.track")
    traced = []
    real = traintrack._trace_regions
    monkeypatch.setattr(traintrack, "_trace_regions", lambda x: traced.append(x) or real(x))
    cyc = find_agol_cycle(t, m, 64)
    factorize(cyc, SpecialMark(frozenset({"u"})))
    assert any(x is cyc.start_track for x in traced)
    assert len({id(x) for x in traced}) == len(traced)


@pytest.mark.parametrize("name", CYCLE_FIXTURES)
def test_bounds_and_factorize_decide_no_split_again(monkeypatch, name):
    # the cycle certified its events when the search built it; the stages
    # that read it make no exact sign query
    t, m = load(name)
    cyc = find_agol_cycle(t, m, 64)
    signs = []
    for mod in (numberfield, traintrack, splitting):
        real = mod.nf_sign
        monkeypatch.setattr(mod, "nf_sign", lambda x, real=real: signs.append(x) or real(x))
    bound_report(cyc)
    factorize(cyc, least_mark(cyc.start_track))
    assert signs == []


@pytest.mark.parametrize(
    "name, stars", [("torus_anosov.track", ("u", "v")), ("genus2_cycle.track", ("v0", "u0", "u1"))]
)
def test_factorize_builds_one_diagram_per_split(monkeypatch, name, stars):
    # slides run on interval lists: one diagram per split event, plus a few
    # per call (start, relabelled period end, transported special diagram,
    # one per routed frame) that do not grow with the period
    t, m = load(name)
    cyc = find_agol_cycle(t, m, 64)
    ceiling = sum(len(g) for g in cyc.events) + 3 + len(regions(cyc.start_track))
    built = []
    real = ArcDiagram.__post_init__
    monkeypatch.setattr(ArcDiagram, "__post_init__", lambda d: built.append(d) or real(d))
    for star in stars:
        built.clear()
        factorize(cyc, SpecialMark(frozenset({star})))
        assert 0 < len(built) <= ceiling


def _sequence_digest(seq) -> str:
    state = repr((serialize_sequence(seq), seq.renames, h1_action(seq)))
    return hashlib.sha256(state.encode()).hexdigest()


def test_genus2_factorization_is_pinned():
    t, m = load("genus2_cycle.track")
    seq = factorize(find_agol_cycle(t, m, 10), SpecialMark(frozenset({"v0"})))
    assert _sequence_digest(seq) == (
        "1a332a8a3a8cf30073189650850da1a12c9027f6a76b3e6aea5e621ea1d34e24"
    )


def test_genus3_lift_factorization_is_pinned():
    # the d = 5 lift of RRL pinned in test_splitting: slide positions,
    # renames and the full (uncapped) action, under its least mark
    t, m = torus_word_state("RRL")
    perms = {"a": (0, 1, 2, 3, 4), "b": (1, 0, 2, 4, 3), "c": (3, 1, 0, 4, 2)}
    cyc = find_agol_cycle(*cover_track(t, m, perms), 400)
    seq = factorize(cyc, least_mark(cyc.start_track))
    assert _sequence_digest(seq) == (
        "3a636703a865756f56a90f0784ad14fcf0ab4f7524f41d7d5150cdf42abc1eb0"
    )


def torus_word_cycle(word: str):
    return find_agol_cycle(*torus_word_state(word), 200)


def test_capped_action_has_the_stretch_factor_as_eigenvalue():
    # splitting and arcslide stages agree: lam is a root of the capped
    # action's characteristic polynomial x^2 - tr x + 1, decided in Q(lam)
    rng = random.Random("torus cross-stage")
    words = set()
    while len(words) < 40:
        w = "".join(rng.choice("RL") for _ in range(rng.randint(2, 9)))
        if "R" in w and "L" in w:
            words.add(w)
    for w in sorted(words):
        cyc = torus_word_cycle(w)
        for star in ("u", "v"):
            _, capped = h1_action(factorize(cyc, SpecialMark(frozenset({star}))))
            assert _det_int([list(r) for r in capped]) == 1
            tr = capped[0][0] + capped[1][1]
            assert (cyc.lam * cyc.lam - tr * cyc.lam + 1).is_zero(), (w, star)


@pytest.mark.parametrize("star", ["v0", "u0", "u1"])
def test_genus2_lift_factorizes(star):
    # capped charpoly (x + 1)^2 (x^2 - 4x + 1): the torus action's
    # polynomial stays a factor of the lift's
    t, m = load("genus2_cycle.track")
    seq = factorize(find_agol_cycle(t, m, 10), SpecialMark(frozenset({star})))
    assert len(seq.slides) == 40
    _, capped = h1_action(seq)
    assert Matrix(capped).charpoly().all_coeffs() == [1, -2, -6, -2, 1]


def test_factorize_refuses_a_tampered_cycle():
    t, m = load("torus_anosov.track")
    cyc = find_agol_cycle(t, m, 64)
    first, *rest = cyc.events[0]
    flipped = SplitCase.LEFT if first.case is SplitCase.RIGHT else SplitCase.RIGHT
    events = ((dataclasses.replace(first, case=flipped), *rest),) + cyc.events[1:]
    # refused when it is built, before factorize could read it
    with pytest.raises(ReplayMismatch, match="recorded period"):
        dataclasses.replace(cyc, events=events)


@st.composite
def int_matrices(draw):
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    return [draw(st.lists(st.integers(-6, 6), min_size=k, max_size=k)) for _ in range(n)]


@given(int_matrices())
@settings(max_examples=150, deadline=None)
def test_diagonalize_against_smith_normal_form(mat):
    s, u, uinv, rank = _diagonalize(mat)
    n, k = len(mat), len(mat[0])
    assert _mat_mul(u, uinv) == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert all(
        s[i][j] == 0 for i in range(n) for j in range(k) if i != j or i >= rank
    )
    factors = [abs(f) for f in invariant_factors(Matrix(mat), domain=ZZ) if f]
    pivots = [abs(s[t][t]) for t in range(rank)]
    assert rank == len(factors)
    assert prod(pivots) == prod(factors)
    assert all(p == 1 for p in pivots) == all(f == 1 for f in factors)


def test_slide_and_inverse_cap_to_identity():
    t, _ = load("torus_anosov.track")
    sg = SpecialMark(frozenset({"u"}))
    d = special_arc_diagram(t, sg)
    mid = arcslide(d, "b.0", "c.1")
    end = arcslide(mid, "b.0", "c.0")
    assert end == d
    seq = ArcslideSequence(
        start=d,
        slides=(recorded(d, "b.0", "c.1"), recorded(mid, "b.0", "c.0")),
        end=end,
    )
    full, capped = h1_action(seq)
    n = len(full)
    assert full == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert capped == ((1, 0), (0, 1))


def test_empty_sequence_is_identity():
    t, _ = load("torus_anosov.track")
    d = special_arc_diagram(t, SpecialMark(frozenset({"u"})))
    seq = ArcslideSequence(d, (), d)
    full, capped = h1_action(seq)
    n = len(full)
    assert full == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert capped == ((1, 0), (0, 1))


def test_serialize_sequence_format():
    t, _ = load("torus_anosov.track")
    sgu, sgv = SpecialMark(frozenset({"u"})), SpecialMark(frozenset({"v"}))
    seq = adjustment(sgu, sgv, t)
    text = serialize_sequence(seq)
    assert text == serialize_sequence(seq)
    lines = text.splitlines()
    assert lines[0].startswith("interval u: ")
    assert sum(1 for ln in lines if ln.startswith("interval ")) == 2
    assert sum(1 for ln in lines if ln.startswith("match ")) == len(seq.start.matching)
    slide_lines = [ln for ln in lines if ln.startswith("(")]
    assert len(slide_lines) == len(seq.slides)
    for ln in slide_lines:
        body = ln.strip("()").split(", ")
        assert len(body) == 4 and body[3] in ("+", "-")
        int(body[0]), int(body[1]), int(body[2])


def test_move_frame_off_its_route_raises_a_typed_error():
    # the back foot y crosses p into interval C, then r into interval B,
    # where it heads B, not its target C: the route is lost.  The check must
    # not be an assert, because under python -O this loop never ended.
    d = ArcDiagram(
        (("x", "p", "y"), ("q",), ("r", "s")),
        (("x", "y"), ("p", "s"), ("q", "r")),
        ("A", "B", "C"),
    )
    with pytest.raises(MalformedDiagram, match="back foot ran off its route"):
        _move_frame(d, "A", "C")
