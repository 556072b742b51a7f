"""Split, shift, fold moves; carrying matrices; periodic cycle detection."""

import random
from fractions import Fraction as F

import pytest

from conftest import fixture_text
from splitseq.numberfield import _is_primitive, nf_const, nf_element, nf_minpoly, nf_sign
from splitseq.splitting import (
    CarryingMatrix,
    ChainMismatch,
    InvalidMeasure,
    NoCycleWithinBudget,
    NoLargeBranch,
    NotFoldable,
    NotLargeBranch,
    NotShiftable,
    SplitCase,
    SplitEvent,
    _state_key,
    cycle_report,
    find_agol_cycle,
    fold,
    incidence_compose,
    large_branches,
    maximal_split,
    shift,
    shift_measure,
    split,
    track_id,
)
from splitseq.traintrack import (
    BranchEnd,
    Measure,
    Switch,
    check_measure,
    derived_genus,
    parse_track,
    regions,
    track_isomorphisms,
    validate,
)
from trackgen import (
    RATIONALS,
    build_track,
    positive_measure,
    random_measure,
    random_track,
    rename_track,
)


def torus():
    return parse_track(fixture_text("torus_anosov.track"))


def hexa():
    return parse_track(fixture_text("genus2_hex.track"))[0]


def rational_measure(t, values: dict[str, int]) -> Measure:
    return Measure.of(
        RATIONALS, {b: nf_element(RATIONALS, [F(values[b])]) for b in t.branches}
    )


def quad_track():
    """Large branch e with independent local weights on all four corners."""
    e0, e1 = BranchEnd("e", 0), BranchEnd("e", 1)
    switches = (
        Switch.trivalent("u", e0, BranchEnd("p", 0), BranchEnd("q", 0)),
        Switch.trivalent("v", e1, BranchEnd("r", 0), BranchEnd("t", 0)),
        Switch.trivalent("w1", BranchEnd("z", 0), BranchEnd("q", 1), BranchEnd("p", 1)),
        Switch.trivalent("w2", BranchEnd("z", 1), BranchEnd("t", 1), BranchEnd("r", 1)),
    )
    return build_track(("e", "p", "q", "r", "t", "z"), switches)


# ---------------------------------------------------------------------------
# single splits


def test_torus_first_split_is_right():
    t, m = torus()
    t1, m1, elem, ev = split(t, m, "c")
    assert ev == SplitEvent("c", SplitCase.RIGHT)
    lam = nf_element(m.field, [F(0), F(1)])
    assert m1.weight("c") == 3 - lam
    assert elem.rows == elem.cols == ("a", "b", "c")
    assert elem.entries == ((1, 0, 0), (0, 1, 0), (0, 2, 1))
    assert elem.apply(m1) == m
    assert validate(t1, m1).all_ok


def test_torus_second_split_is_left():
    t, m = torus()
    t1, m1, _, _ = split(t, m, "c")
    t2, m2, elem, ev = split(t1, m1, "a")
    assert ev == SplitEvent("a", SplitCase.LEFT)
    lam = nf_element(m.field, [F(0), F(1)])
    assert m2.weight("a") == 2 * lam - 5
    assert elem.entries == ((1, 0, 2), (0, 1, 0), (0, 0, 1))
    assert elem.apply(m2) == m1
    assert validate(t2, m2).all_ok


def test_left_split_local_weights():
    t = quad_track()
    m = rational_measure(t, {"p": 3, "q": 1, "t": 2, "r": 2, "e": 4, "z": 4})
    t2, m2, elem, ev = split(t, m, "e")
    assert ev.case is SplitCase.LEFT
    assert m2.weight("e") == nf_const(RATIONALS, 1)
    assert check_measure(t2, m2)
    assert elem.apply(m2) == m
    assert t2.l == t.l and t2.s == t.s


def test_central_split_deletes_branch():
    t = quad_track()
    m = rational_measure(t, {"p": 2, "q": 2, "t": 2, "r": 2, "e": 4, "z": 4})
    t2, m2, elem, ev = split(t, m, "e")
    assert ev.case is SplitCase.CENTRAL
    assert "e" not in t2.branches and t2.l == t.l - 1
    assert t2.s == t.s - 1
    assert not t2.is_generic
    assert len(elem.rows) == t.l and len(elem.cols) == t.l - 1
    assert elem.apply(m2) == m
    assert check_measure(t2, m2)


def test_split_preserves_genus_and_regions():
    t, m = torus()
    t1, m1, _, _ = split(t, m, "c")
    assert t1.genus == t.genus
    assert len(regions(t1)) == len(regions(t))
    assert t1.puncture_marks and validate(t1, m1).all_ok


def test_split_rejects_non_large():
    t, m = torus()
    with pytest.raises(NotLargeBranch):
        split(t, m, "a")
    with pytest.raises(NotLargeBranch):
        split(t, m, "nope")


def test_split_rejects_invalid_measure():
    t, m = torus()
    bad = m.as_dict()
    bad["a"] = bad["a"] + nf_const(m.field, 1)
    with pytest.raises(InvalidMeasure):
        split(t, Measure.of(m.field, bad), "c")


# ---------------------------------------------------------------------------
# shifts


def _mixed_branches(t):
    out = []
    for b in t.branches:
        ends = [BranchEnd(b, 0), BranchEnd(b, 1)]
        sws = [t.switch_of(e) for e in ends]
        if sws[0].name == sws[1].name:
            continue
        larges = [sw.large == e for sw, e in zip(sws, ends)]
        if larges.count(True) == 1:
            out.append(b)
    return out


def test_shift_preserves_regions_and_reverses():
    t = hexa()
    mixed = _mixed_branches(t)
    assert mixed
    before = sorted(r.cusp_count for r in regions(t))
    for b in mixed:
        t2, elem = shift(t, b)
        assert sorted(r.cusp_count for r in regions(t2)) == before
        assert t2.genus == t.genus
        back, _ = shift(t2, b)
        assert back == t
        # the shifted branch is re-expressed through its old corners
        col = elem.cols.index(b)
        assert all(row[col] == 0 for row in elem.entries)


def test_shift_measure_transport():
    t, _ = parse_track(fixture_text("genus2_44.track"))
    m = positive_measure(t)
    assert m is not None
    for b in _mixed_branches(t):
        t2, m2, elem = shift_measure(t, m, b)
        assert check_measure(t2, m2)
        assert elem.apply(m2) == m


def test_shift_rejects_large_and_small():
    t, m = torus()
    with pytest.raises(NotShiftable):
        shift(t, "c")  # large branch
    with pytest.raises(NotShiftable):
        shift(t, "a")  # both half-branches small


# ---------------------------------------------------------------------------
# folds


def test_fold_undoes_left_and_right():
    t = quad_track()
    for vals in ({"p": 3, "q": 1, "t": 2, "r": 2}, {"p": 1, "q": 3, "t": 4, "r": 0}):
        m = rational_measure(t, {**vals, "e": vals["p"] + vals["q"], "z": vals["p"] + vals["q"]})
        t2, m2, _, ev = split(t, m, "e")
        assert ev.case is not SplitCase.CENTRAL
        tb, mb = fold(t2, m2, ev)
        assert tb == t and mb == m


def test_fold_rejects_central():
    with pytest.raises(NotFoldable):
        fold(*torus(), SplitEvent("c", SplitCase.CENTRAL))


def test_fold_rejects_mismatched_event():
    t, m = torus()
    t1, m1, _, ev = split(t, m, "c")
    assert ev.case is SplitCase.RIGHT
    with pytest.raises(NotFoldable):
        fold(t1, m1, SplitEvent("c", SplitCase.LEFT))
    with pytest.raises(NotFoldable):
        fold(t1, m1, SplitEvent("nope", SplitCase.LEFT))


# ---------------------------------------------------------------------------
# maximal splits


def test_maximal_split_torus_argmax():
    t, m = torus()
    t1, m1, elem, events = maximal_split(t, m)
    assert events == (SplitEvent("c", SplitCase.RIGHT),)
    assert elem.apply(m1) == m


def test_maximal_split_tie_splits_both():
    t, m = parse_track(fixture_text("genus2_tie.track"))
    assert set(large_branches(t)) == {"b0", "b2"}
    assert (m.weight("b0") - m.weight("b2")).is_zero()
    t2, m2, elem, events = maximal_split(t, m)
    assert [ev.branch for ev in events] == ["b0", "b2"]
    assert elem.apply(m2) == m
    assert check_measure(t2, m2)


def test_maximal_split_needs_positive_measure():
    t, m = torus()
    zero = Measure.of(m.field, {b: nf_const(m.field, 0) for b in t.branches})
    with pytest.raises(InvalidMeasure):
        maximal_split(t, zero)


def test_maximal_split_rejects_broken_switch_condition():
    t, m = torus()
    bad = m.as_dict()
    bad["a"] = bad["a"] + nf_const(m.field, 1)  # positive, but a + b != c
    assert all(nf_sign(w) == 1 for w in bad.values())
    with pytest.raises(InvalidMeasure):
        maximal_split(t, Measure.of(m.field, bad))


def test_maximal_split_exhaustion_after_central():
    t, _ = parse_track(fixture_text("theta_closed.track"))
    m = rational_measure(t, {"a": 1, "b": 1, "c": 2})
    t1, m1, _, events = maximal_split(t, m)
    assert events[0].case is SplitCase.CENTRAL
    with pytest.raises(NoLargeBranch):
        maximal_split(t1, m1)


# ---------------------------------------------------------------------------
# carrying matrices


def test_incidence_compose_matches_two_step():
    t, m = torus()
    t1, m1, e1, _ = maximal_split(t, m)
    t2, m2, e2, _ = maximal_split(t1, m1)
    both = incidence_compose(e1, e2)
    assert both.entries == ((1, 0, 2), (0, 1, 0), (0, 2, 1))
    assert both.apply(m2) == m
    assert both.target == track_id(t) and both.source == track_id(t2)


def test_incidence_compose_identity_and_errors():
    t, m = torus()
    _, m1, e1, _ = maximal_split(t, m)
    ident = CarryingMatrix.identity(e1.cols, e1.source)
    assert incidence_compose(e1, ident).entries == e1.entries
    wrong = CarryingMatrix(("x",), ("x",), ((1,),))
    with pytest.raises(ChainMismatch):
        incidence_compose(e1, wrong)


def test_split_elem_column_sums_positive():
    t, m = torus()
    _, _, elem, _ = split(t, m, "c")
    assert all(s >= 1 for s in elem.column_sums())


# ---------------------------------------------------------------------------
# cycle detection


def test_agol_cycle_on_torus():
    t, m = torus()
    cyc = find_agol_cycle(t, m, 10)
    assert (cyc.n, cyc.m) == (0, 2)
    assert cyc.lam == nf_element(m.field, [F(0), F(1)])
    assert dict((s, d) for s, d, _ in cyc.iso.branches) == {"a": "b", "b": "c", "c": "a"}
    assert cyc.cycle_matrix.entries == ((2, 1, 0), (0, 0, 1), (1, 0, 2))
    assert [tuple(ev.case for ev in step) for step in cyc.events] == [
        (SplitCase.RIGHT,),
        (SplitCase.LEFT,),
    ]
    assert len(cyc.period_tracks) == 3
    applied = cyc.cycle_matrix.apply(cyc.start_measure)
    for b in t.branches:
        assert (applied.weight(b) - cyc.lam * cyc.start_measure.weight(b)).is_zero()
    assert _is_primitive([list(r) for r in cyc.cycle_matrix.entries], cap=9)


def test_cycle_lambda_minpoly():
    t, m = torus()
    cyc = find_agol_cycle(t, m, 10)
    mono, iv = nf_minpoly(cyc.lam)
    assert mono == (F(1), F(-3), F(1))
    assert iv[0] < 3 < iv[1] or (F(5, 2) <= iv[0] < iv[1] <= F(3))


def test_cycle_report_round_trippable():
    t, m = torus()
    rep = cycle_report(find_agol_cycle(t, m, 10))
    lines = rep.splitlines()
    assert lines[0] == "cycle n=0 m=2"
    assert lines[1] == "lambda minpoly = 1 -3 1 root in (5/2, 3)"
    assert "step c:right" in lines and "step a:left" in lines
    assert "period a = 2 1 0" in lines


def test_cycle_budget_exhaustion():
    t, m = torus()
    with pytest.raises(NoCycleWithinBudget):
        find_agol_cycle(t, m, 0)
    tt, _ = parse_track(fixture_text("theta_closed.track"))
    with pytest.raises(NoCycleWithinBudget):
        find_agol_cycle(tt, rational_measure(tt, {"a": 1, "b": 1, "c": 2}), 10)
    with pytest.raises(NoCycleWithinBudget):
        find_agol_cycle(tt, rational_measure(tt, {"a": 3, "b": 1, "c": 4}), 10)


def test_cycle_needs_positive_measure():
    t, m = torus()
    zero = Measure.of(m.field, {b: nf_const(m.field, 0) for b in t.branches})
    with pytest.raises(InvalidMeasure):
        find_agol_cycle(t, zero, 5)


def test_detector_is_deterministic():
    t, m = torus()
    c1 = find_agol_cycle(t, m, 10)
    c2 = find_agol_cycle(t, m, 10)
    assert c1.events == c2.events and c1.iso == c2.iso


# ---------------------------------------------------------------------------
# randomized move invariance


def test_moves_preserve_structure_on_random_pairs():
    rng = random.Random(99)
    done = 0
    attempts = 0
    while done < 1000 and attempts < 20000:
        attempts += 1
        t = random_track(rng.choice([2, 4]), rng)
        if t is None:
            continue
        m = random_measure(t, rng)
        if m is None:
            continue
        done += 1
        kappa = len(regions(t))
        larges = large_branches(t)
        if larges:
            b = larges[0]
            t2, m2, elem, ev = split(t, m, b)
            assert elem.apply(m2) == m
            assert check_measure(t2, m2)
            assert derived_genus(t2) == derived_genus(t)
            assert len(regions(t2)) == kappa
            assert all(s >= 1 for s in elem.column_sums())
            if ev.case is not SplitCase.CENTRAL:
                tb, mb = fold(t2, m2, ev)
                assert tb == t and mb == m
        mixed = _mixed_branches(t)
        if mixed:
            b = mixed[0]
            t2, m2, elem = shift_measure(t, m, b)
            assert check_measure(t2, m2)
            assert elem.apply(m2) == m
            back, back2, _ = shift_measure(t2, m2, b)
            assert back == t and back2 == m
    assert done == 1000


@pytest.mark.parametrize("seed", range(4))
def test_state_key_is_projective_and_labeling_free(seed):
    t, m = torus()
    lam = nf_element(m.field, [F(0), F(1)])
    t2 = rename_track(t, seed)
    for iso in track_isomorphisms(t, t2):
        image = Measure.of(
            m.field, {iso.branch_image(b)[0]: lam * m.weight(b) for b in t.branches}
        )
        assert check_measure(t2, image)
        assert _state_key(t2, image) == _state_key(t, m)
    # c = a + b holds, but b / a = lambda is not m's ratio lambda - 2
    other = Measure.of(m.field, {"a": nf_const(m.field, 1), "b": lam, "c": 1 + lam})
    assert check_measure(t, other)
    assert _state_key(t, other) != _state_key(t, m)
    assert _state_key(t, other)[0] == _state_key(t, m)[0]
