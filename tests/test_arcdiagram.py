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
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _move_frame,
    apply_split_slides,
    arc_diagram_from_track,
    arcslide,
    boundary_adjustment,
    factorize,
    h1_action,
    same_pattern,
    serialize_sequence,
    sigma_transport,
    special_arc_diagram,
    split_to_arcslides,
)
from splitseq.splitting import SplitCase, SplitEvent, find_agol_cycle, split
from splitseq.traintrack import parse_track, regions

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
CYCLE_FIXTURES = ["torus_anosov.track"]
if (FIXTURES / "genus2_cycle.track").exists():
    CYCLE_FIXTURES.append("genus2_cycle.track")


def load(name):
    return parse_track((FIXTURES / name).read_text())


def least_mark(t) -> SpecialMark:
    """Lexicographically least valid mark: smallest cusp switch per region."""
    return SpecialMark(
        frozenset(min(c.switch for c in reg.cusps) for reg in regions(t))
    )


def rot_min(seq):
    seq = tuple(seq)
    return min(tuple(seq[i:] + seq[:i]) for i in range(len(seq))) if seq else seq


# ---------------------------------------------------------------------------
# construction


def test_torus_plain_diagram():
    t, _ = load("torus_anosov.track")
    d = arc_diagram_from_track(t)
    assert d.intervals == (("b.1", "c.0", "a.1"), ("b.0", "c.1", "a.0"))
    assert d.matching == (("a.0", "a.1"), ("b.0", "b.1"), ("c.0", "c.1"))
    assert d.labels == ("u", "v")
    assert d.euler_characteristic == -1
    assert sum(len(p) for p in d.intervals) == 6
    assert not d.is_special()


@pytest.mark.parametrize("name", WELL_FORMED)
def test_chi_is_s_minus_l(name):
    t, _ = load(name)
    d = arc_diagram_from_track(t)
    assert d.euler_characteristic == t.s - t.l


@pytest.mark.parametrize("name", WELL_FORMED)
def test_boundary_components_match_regions(name):
    t, _ = load(name)
    d = arc_diagram_from_track(t)
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
        arc_diagram_from_track(t).validate()


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
        d.validate()


# ---------------------------------------------------------------------------
# special diagrams and marks


def test_torus_special_marks():
    t, _ = load("torus_anosov.track")
    for star, framed in (("u", "v"), ("v", "u")):
        sd = special_arc_diagram(t, SpecialMark(frozenset({star})))
        assert sd.is_special()
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
    assert sd.euler_characteristic == len(regions(t)) - t.l


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
    d = arc_diagram_from_track(t)
    d2 = arcslide(d, "b.1", "c.0")
    assert d2 != d
    assert arcslide(d2, "b.1", "c.1") == d


def test_arcslide_errors():
    t, _ = load("torus_anosov.track")
    d = arc_diagram_from_track(t)
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
        d.validate()
        assert d.euler_characteristic == base.euler_characteristic
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
    t, m = cyc.start_track, cyc.start_measure
    for group in cyc.events:
        for ev in group:
            t2, m2, _, got = split(t, m, ev.branch)
            assert got == ev
            yield t, m, ev, t2
            t, m = t2, m2


@pytest.mark.parametrize("name", CYCLE_FIXTURES)
def test_split_slides_round_trip_plain(name):
    for t, _m, ev, t2 in iter_cycle_splits(name):
        d2 = apply_split_slides(arc_diagram_from_track(t), ev)
        assert d2 == arc_diagram_from_track(t2)


@pytest.mark.parametrize("name", CYCLE_FIXTURES)
def test_split_slides_round_trip_special(name):
    t0, _ = load(name)
    for sigma in ({"u"}, {"v"}) if t0.s == 2 else (least_mark(t0).switches,):
        sg = SpecialMark(frozenset(sigma))
        for t, _m, ev, t2 in iter_cycle_splits(name):
            sd = special_arc_diagram(t, sg)
            sd2 = apply_split_slides(sd, ev)
            sg = sigma_transport(ev, sg)
            assert sd2 == special_arc_diagram(t2, sg)
            assert sd2.is_special()


def test_split_to_arcslides_are_two_slides():
    t, m = load("torus_anosov.track")
    _, _, _, ev = split(t, m, "c")
    d = arc_diagram_from_track(t)
    first, second = split_to_arcslides(d, ev)
    assert first.diagram == d
    assert second.diagram == first.apply()
    assert {first.slid, second.slid} == {"b.1", "b.0"}  # the two small ends
    assert {first.over, second.over} == {"c.0", "c.1"}


def test_central_split_rejected():
    ev = SplitEvent(branch="c", case=SplitCase.CENTRAL)
    t, _ = load("torus_anosov.track")
    d = arc_diagram_from_track(t)
    with pytest.raises(CentralSplit):
        split_to_arcslides(d, ev)
    with pytest.raises(CentralSplit):
        sigma_transport(ev, SpecialMark(frozenset({"u"})))


def test_sigma_transport_is_name_stable():
    t, m = load("torus_anosov.track")
    _, _, _, ev = split(t, m, "c")
    for star in ("u", "v"):
        sg = SpecialMark(frozenset({star}))
        assert sigma_transport(ev, sg) == sg


# ---------------------------------------------------------------------------
# boundary adjustments


def test_adjustment_same_mark_is_empty():
    t, _ = load("torus_anosov.track")
    sg = SpecialMark(frozenset({"u"}))
    seq = boundary_adjustment(sg, sg, t)
    assert seq.slides == ()
    assert seq.start == seq.end
    full, capped = h1_action(seq)
    n = len(full)
    assert full == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert capped == ((1, 0), (0, 1))


def test_adjustment_moves_only_frame_points():
    t, _ = load("torus_anosov.track")
    sgu, sgv = SpecialMark(frozenset({"u"})), SpecialMark(frozenset({"v"}))
    seq = boundary_adjustment(sgu, sgv, t)
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
    seq = boundary_adjustment(s1, s2, t)
    assert same_pattern(seq.end, special_arc_diagram(t, s2))
    assert all(sl.slid.endswith((".L", ".R")) for sl in seq.slides)
    # concatenation of two single-region routes
    mid = SpecialMark(frozenset([picks[0][1], picks[1][0]]))
    first = boundary_adjustment(s1, mid, t)
    secnd = boundary_adjustment(mid, s2, t)
    assert len(seq.slides) == len(first.slides) + len(secnd.slides)


def test_adjustment_loop_caps_to_identity():
    t, _ = load("torus_anosov.track")
    sgu, sgv = SpecialMark(frozenset({"u"})), SpecialMark(frozenset({"v"}))
    s1 = boundary_adjustment(sgu, sgv, t)
    s2 = boundary_adjustment(sgv, sgu, t)
    # the travelling frame keeps its old name; rewire for the return leg
    ren = (("v.L", "u.L"), ("v.R", "u.R"))
    loop = ArcslideSequence(
        start=s1.start,
        slides=s1.slides + s2.slides,
        end=s2.end,
        h1_matrix=(),
        handle_order=tuple(s1.start.matching),
        renames=((len(s1.slides), ren),),
    )
    full, capped = h1_action(loop)
    assert capped == ((1, 0), (0, 1))
    assert _det_int([list(r) for r in full]) in (1, -1)


def test_h1_rejects_open_sequences():
    t, _ = load("torus_anosov.track")
    sgu, sgv = SpecialMark(frozenset({"u"})), SpecialMark(frozenset({"v"}))
    seq = boundary_adjustment(sgu, sgv, t)
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
        assert seq.h1_matrix == full


def test_factorize_refuses_a_tampered_cycle():
    t, m = load("torus_anosov.track")
    cyc = find_agol_cycle(t, m, 64)
    first, *rest = cyc.events[0]
    flipped = SplitCase.LEFT if first.case is SplitCase.RIGHT else SplitCase.RIGHT
    events = ((dataclasses.replace(first, case=flipped), *rest),) + cyc.events[1:]
    with pytest.raises(NotALoop, match="recorded period"):
        factorize(dataclasses.replace(cyc, events=events), SpecialMark(frozenset({"u"})))


def test_slide_and_inverse_cap_to_identity():
    t, _ = load("torus_anosov.track")
    sg = SpecialMark(frozenset({"u"}))
    d = special_arc_diagram(t, sg)
    first = Arcslide(d, "b.0", "c.1")
    mid = first.apply()
    second = Arcslide(mid, "b.0", "c.0")
    assert second.apply() == d
    seq = ArcslideSequence(
        start=d,
        slides=(first, second),
        end=second.apply(),
        h1_matrix=(),
        handle_order=tuple(d.matching),
    )
    full, capped = h1_action(seq)
    n = len(full)
    assert full == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert capped == ((1, 0), (0, 1))


def test_empty_sequence_is_identity():
    t, _ = load("torus_anosov.track")
    d = special_arc_diagram(t, SpecialMark(frozenset({"u"})))
    seq = ArcslideSequence(d, (), d, (), tuple(d.matching))
    full, capped = h1_action(seq)
    n = len(full)
    assert full == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert capped == ((1, 0), (0, 1))


def test_serialize_sequence_format():
    t, _ = load("torus_anosov.track")
    sgu, sgv = SpecialMark(frozenset({"u"})), SpecialMark(frozenset({"v"}))
    seq = boundary_adjustment(sgu, sgv, t)
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
