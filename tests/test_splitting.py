"""Split moves; carrying matrices; periodic cycle detection."""

import dataclasses
import hashlib
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, fixture_text
from splitseq import splitting, traintrack
from splitseq.numberfield import (
    DivisionByZero,
    _is_primitive,
    field_create,
    nf_const,
    nf_element,
    nf_minpoly,
    nf_sign,
)
from splitseq.splitting import (
    CarryingMatrix,
    ChainMismatch,
    InvalidMeasure,
    NoCycleWithinBudget,
    NoLargeBranch,
    NotLargeBranch,
    SplitCase,
    SplitEvent,
    _match_states,
    _state_key,
    _state_point,
    find_agol_cycle,
    incidence_compose,
    is_large_branch,
    large_branches,
    maximal_split,
    split,
    split_surgery,
    track_id,
)
from splitseq.traintrack import (
    BranchEnd,
    CuspRef,
    Measure,
    NotGeneric,
    Switch,
    TrainTrack,
    check_measure,
    cover_track,
    derived_genus,
    parse_track,
    regions,
    track_isomorphisms,
    validate,
)
from state_key_oracle import canonical_state_key, rational_match, rational_state_key
from transport_oracle import transport
from trackgen import (
    RATIONALS,
    build_track,
    positive_measure,
    random_marked_track,
    random_measure,
    random_track,
    rename_track,
    some_track,
    torus_word_state,
)


# connected covers of the torus track, as branch permutations: genus 2 and 3
COVER_D3 = {"a": (0, 1, 2), "b": (0, 2, 1), "c": (1, 2, 0)}
COVER_D5 = {"a": (0, 1, 2, 3, 4), "b": (1, 0, 2, 4, 3), "c": (3, 1, 0, 4, 2)}


def torus():
    return parse_track(fixture_text("torus_anosov.track"))


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
    assert transport(elem, m1) == m
    assert validate(t1, m1).all_ok


def test_torus_second_split_is_left():
    t, m = torus()
    t1, m1, _, _ = split(t, m, "c")
    t2, m2, elem, ev = split(t1, m1, "a")
    assert ev == SplitEvent("a", SplitCase.LEFT)
    lam = nf_element(m.field, [F(0), F(1)])
    assert m2.weight("a") == 2 * lam - 5
    assert elem.entries == ((1, 0, 2), (0, 1, 0), (0, 0, 1))
    assert transport(elem, m2) == m1
    assert validate(t2, m2).all_ok


def test_left_split_local_weights():
    t = quad_track()
    m = rational_measure(t, {"p": 3, "q": 1, "t": 2, "r": 2, "e": 4, "z": 4})
    t2, m2, elem, ev = split(t, m, "e")
    assert ev.case is SplitCase.LEFT
    assert m2.weight("e") == nf_const(RATIONALS, 1)
    assert check_measure(t2, m2)
    assert transport(elem, m2) == m
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
    assert transport(elem, m2) == m
    assert check_measure(t2, m2)


def test_merged_switch_has_no_trivalent_roles():
    # the 4-valent switch a central split leaves has no large or small end
    t, _ = torus()
    t2, _ = split_surgery(t, "c", SplitCase.CENTRAL)
    (sw,) = t2.switches
    for role in ("large", "small_left", "small_right"):
        with pytest.raises(NotGeneric, match="not trivalent"):
            getattr(sw, role)


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
    with pytest.raises(NotLargeBranch):
        split_surgery(t, "a", SplitCase.LEFT)


def test_split_rejects_invalid_measure():
    t, m = torus()
    bad = m.as_dict()
    bad["a"] = bad["a"] + nf_const(m.field, 1)
    with pytest.raises(InvalidMeasure):
        split(t, Measure.of(m.field, bad), "c")


# ---------------------------------------------------------------------------
# the large-branch set


def per_branch_is_large(t, b) -> bool:
    """The per-branch predicate the set replaced: distinct end switches,
    both trivalent, and each end alone on its side."""
    ends = (BranchEnd(b, 0), BranchEnd(b, 1))
    u, v = (t.switch_of(e) for e in ends)
    return (
        u.name != v.name
        and u.is_generic
        and v.is_generic
        and all(len(next(s for s in sw.sides if e in s)) == 1 for sw, e in zip((u, v), ends))
    )


def oracle_large(t) -> tuple[str, ...]:
    return tuple(b for b in t.branches if per_branch_is_large(t, b))


def split_chain(t, m, steps=200):
    """The tracks of up to `steps` maximal splits from (t, m)."""
    tracks = [t]
    for _ in range(steps):
        try:
            t, m, _, _ = maximal_split(t, m)
        except NoLargeBranch:
            break
        tracks.append(t)
    return tracks


def test_large_branches_match_the_per_branch_predicate():
    rng = random.Random(35)
    tracks = [parse_track(fixture_text(p.name))[0] for p in sorted(FIXTURES.glob("*.track"))]
    tracks += [some_track(seed) for seed in range(200)]
    starts = [torus_word_state(w) for w in ("RRL", "RLLRRRL", "RRRRLLLL")]
    starts += [cover_track(*torus_word_state("RRL"), COVER_D3)]
    starts += [parse_track(fixture_text("genus2_cycle.track"))]
    for name in ("genus2_44.track", "genus2_tie.track"):
        t, _ = parse_track(fixture_text(name))
        starts += [(t, positive_measure(t, rng)) for _ in range(3)]
    for t, m in starts:
        tracks += split_chain(t, m)
    assert len(tracks) > 1000 and any(not t.is_generic for t in tracks)
    for t in tracks:
        larges = large_branches(t)
        assert larges == oracle_large(t)
        assert [b for b in t.branches + ("nope",) if is_large_branch(t, b)] == list(larges)


def test_large_set_is_built_once_per_track(monkeypatch):
    # every build reads the large end of each trivalent switch once; track
    # ids hash the repr here, which reads no large end
    reads = []
    real = Switch.large
    monkeypatch.setattr(Switch, "large", property(lambda sw: reads.append(sw) or real.fget(sw)))
    monkeypatch.setattr(traintrack, "serialize_track", repr)
    t, m = torus()
    cyc = find_agol_cycle(t, m, 10)
    # one build per split track; the guards and the certificate only read it
    assert len(reads) == 2 * (cyc.n + cyc.m)
    for split_t in split_chain(*parse_track(fixture_text("genus2_tie.track")), 20):
        t = with_marks(split_t, split_t.puncture_marks)  # an equal track, fresh cache
        reads.clear()
        larges = large_branches(t)
        for b in t.branches:
            is_large_branch(t, b)
        for b in larges:
            split_surgery(t, b, SplitCase.LEFT)
        assert large_branches(t) == larges
        assert len(reads) == sum(sw.is_generic for sw in t.switches)


# ---------------------------------------------------------------------------
# puncture marks


def traced_punctures(t, t2, branch):
    """The post-split regions that t's punctured regions become, by face tracing.

    The reference the cusp-swap rule is checked against: a half-branch not
    on the split branch bounds the same region before and after the split.
    """
    where = {h: r.boundary for r in regions(t2) for h in r.boundary}
    return {
        where[next(h for h in r.boundary if h.branch != branch)]
        for r in regions(t)
        if r.punctured
    }


def placed_punctures(t2):
    return {r.boundary for r in regions(t2) if r.punctured}


def with_marks(t, marks):
    return TrainTrack(t.branches, t.switches, t.genus, tuple(marks))


def test_marks_move_into_the_traced_region():
    rng = random.Random(17)
    seen = Counter()
    for _ in range(300):
        t = random_marked_track(rng)
        b = rng.choice(large_branches(t))
        for case in SplitCase:
            t2, _ = split_surgery(t, b, case)
            assert placed_punctures(t2) == traced_punctures(t, t2, b)
            seen[case] += 1
    assert seen == {case: 300 for case in SplitCase}


def test_torus_central_split_keeps_its_mark():
    t, _ = torus()
    t2, _, _, ev = split(t, rational_measure(t, {"a": 1, "b": 1, "c": 2}), "c")
    assert ev.case is SplitCase.CENTRAL
    # u's cusp is the second corner of the merged 4-valent switch
    assert t2.puncture_marks == (CuspRef("u", 1),)
    assert [r.punctured for r in regions(t2)] == [True]


def test_central_split_keeps_mark_on_the_merged_switch():
    # s1 is the end-1 switch of b2, so its cusp moves onto s3, the merged one
    t = with_marks(some_track(0, sizes=(4,)), [CuspRef("s1", 0)])
    t2, _ = split_surgery(t, "b2", SplitCase.CENTRAL)
    assert [ref.switch for ref in t2.puncture_marks] == ["s3"]
    assert placed_punctures(t2) == traced_punctures(t, t2, "b2")


def test_central_split_places_a_mark_no_switch_name_could():
    # the region holds only one of the merged switch's two cusps; a mark
    # naming the switch alone could not say which region is punctured
    t = with_marks(some_track(3, sizes=(4,)), [CuspRef("s3", 0)])
    t2, _ = split_surgery(t, "b1", SplitCase.CENTRAL)
    assert t2.puncture_marks == (CuspRef("s3", 1),)
    assert placed_punctures(t2) == traced_punctures(t, t2, "b1")
    (region,) = (r for r in regions(t2) if r.punctured)
    assert [ref.switch for ref in region.cusps].count("s3") == 1


# ---------------------------------------------------------------------------
# maximal splits


def test_maximal_split_torus_argmax():
    t, m = torus()
    t1, m1, elem, events = maximal_split(t, m)
    assert events == (SplitEvent("c", SplitCase.RIGHT),)
    assert transport(elem, m1) == m


def test_maximal_split_tie_splits_both():
    t, m = parse_track(fixture_text("genus2_tie.track"))
    assert set(large_branches(t)) == {"b0", "b2"}
    assert (m.weight("b0") - m.weight("b2")).is_zero()
    t2, m2, elem, events = maximal_split(t, m)
    assert [ev.branch for ev in events] == ["b0", "b2"]
    assert transport(elem, m2) == m
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
    assert transport(both, m2) == m
    assert both.target == track_id(t) and both.source == track_id(t2)


def test_track_id_is_computed_once_per_track(monkeypatch):
    t, m = torus()
    serialized = []
    real = traintrack.serialize_track
    monkeypatch.setattr(traintrack, "serialize_track", lambda tr: serialized.append(tr) or real(tr))
    t1, m1, e1, _ = maximal_split(t, m)
    _, _, e2, _ = maximal_split(t1, m1)
    # the post-split id of the first split is the pre-split id of the second
    assert len(serialized) == 3 and e1.source == e2.target
    assert track_id(t) == e1.target and len(serialized) == 3
    assert track_id(torus()[0]) == e1.target and len(serialized) == 4  # equal track, fresh cache


def test_incidence_compose_identity_and_errors():
    t, m = torus()
    _, m1, e1, _ = maximal_split(t, m)
    ident = dataclasses.replace(CarryingMatrix.identity(e1.cols), target=e1.source, source=e1.source)
    assert incidence_compose(e1, ident).entries == e1.entries
    wrong = CarryingMatrix(("x",), ("x",), ((1,),))
    with pytest.raises(ChainMismatch):
        incidence_compose(e1, wrong)


def test_split_elem_column_sums_positive():
    t, m = torus()
    _, _, elem, _ = split(t, m, "c")
    assert all(sum(col) >= 1 for col in zip(*elem.entries))


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
    applied = transport(cyc.cycle_matrix, cyc.period_measures[0])
    for b in t.branches:
        assert (applied.weight(b) - cyc.lam * cyc.period_measures[0].weight(b)).is_zero()
    assert _is_primitive([list(r) for r in cyc.cycle_matrix.entries]) == 3


def assert_perron_identity(cyc):
    # the derived cycle matrix folds the period's matrices in order and
    # closes them through the isomorphism, so it fixes the start measure
    # up to the stretch factor, exactly
    mu = cyc.period_measures[0]
    applied = transport(cyc.cycle_matrix, mu)
    assert applied.names == mu.names
    assert all((applied.weight(b) - cyc.lam * w).is_zero() for b, w in mu.weights)


def test_perron_identity_on_seeded_torus_words():
    rng = random.Random("perron identity")
    words = set()
    while len(words) < 200:
        w = "".join(rng.choice("RL") for _ in range(rng.randint(3, 12)))
        if "R" in w and "L" in w:
            words.add(w)
    for w in sorted(words):
        assert_perron_identity(find_agol_cycle(*torus_word_state(w), 200))


def test_cycle_lambda_minpoly():
    t, m = torus()
    cyc = find_agol_cycle(t, m, 10)
    mono, iv = nf_minpoly(cyc.lam)
    assert mono == (F(1), F(-3), F(1))
    assert iv[0] < 3 < iv[1] or (F(5, 2) <= iv[0] < iv[1] <= F(3))


def test_genus2_lift_cycle():
    t, m = parse_track(fixture_text("genus2_cycle.track"))
    cyc = find_agol_cycle(t, m, 10)
    assert (t.genus, cyc.n, cyc.m) == (2, 0, 3)
    assert nf_minpoly(cyc.lam)[0] == (F(1), F(-4), F(1))
    assert_perron_identity(cyc)


def test_genus3_lift_cycle_is_pinned():
    # the d = 5 lift of RRL; only the cycle is pinned, as its BoundReport's
    # integers are too long to print
    t3, m3 = cover_track(*torus_word_state("RRL"), COVER_D5)
    c = find_agol_cycle(t3, m3, 400)
    assert (t3.genus, t3.l, c.n, c.m) == (3, 15, 0, 6)
    state = repr((c.n, c.m, c.lam, c.events, c.iso, c.cycle_matrix, c.period_elems))
    assert hashlib.sha256(state.encode()).hexdigest() == (
        "e4caa004e9f3823f5a501d1e94e0a88ace581087e7aecc1d7bdce50b650128a6"
    )


def _cover_is_connected(t, perms) -> bool:
    # join the switch sheets at the two ends of every lifted branch
    d = len(perms["a"])
    comp = {(w.name, j): {(w.name, j)} for w in t.switches for j in range(d)}
    for x, p in perms.items():
        w0, w1 = (t.switch_of(BranchEnd(x, end)).name for end in (0, 1))
        for i in range(d):
            one, other = comp[(w0, i)], comp[(w1, p[i])]
            if one is not other:
                one |= other
                comp.update(dict.fromkeys(other, one))
    return len(comp[(t.switches[0].name, 0)]) == t.s * d


@st.composite
def covers(draw):
    d = draw(st.integers(1, 5))
    return {x: tuple(draw(st.permutations(range(d)))) for x in "abc"}


@settings(max_examples=40, deadline=None)
@given(
    st.text("RL", min_size=2, max_size=8).filter(lambda w: "R" in w and "L" in w),
    covers(),
)
def test_lifted_torus_cycles_certify(word, perms):
    # maximal splitting commutes with lifting: the lift of the cycle is a
    # cycle whose period is a multiple of the torus period
    t, m = torus_word_state(word)
    assume(_cover_is_connected(t, perms))
    base = find_agol_cycle(t, m, 64)
    lift = find_agol_cycle(*cover_track(t, m, perms), 400)
    assert lift.m % base.m == 0
    assert_perron_identity(lift)
    power = nf_const(m.field, 1)
    for _ in range(lift.m // base.m):
        power = power * base.lam
    assert lift.lam == power


def test_cycle_budget_exhaustion():
    t, m = torus()
    with pytest.raises(NoCycleWithinBudget):
        find_agol_cycle(t, m, 0)
    tt, _ = parse_track(fixture_text("theta_closed.track"))
    with pytest.raises(NoCycleWithinBudget):
        find_agol_cycle(tt, rational_measure(tt, {"a": 1, "b": 1, "c": 2}), 10)
    with pytest.raises(NoCycleWithinBudget):
        find_agol_cycle(tt, rational_measure(tt, {"a": 3, "b": 1, "c": 4}), 10)


def test_a_weight_sum_that_is_a_zero_divisor_is_refused():
    # x^2 - 1 is reducible: at its root 1 the weights are positive, but their
    # sum 2 (1 + x) times 1 - x is 0, so no projective point exists
    field = field_create((-1, 0, 1), (F(1, 2), F(2)))
    x = nf_element(field, [F(0), F(1)])
    t, _ = torus()
    m = Measure.of(field, {"a": x, "b": nf_const(field, 1), "c": 1 + x})
    with pytest.raises(DivisionByZero, match="zero divisor"):
        find_agol_cycle(t, m, 5)


def test_cycle_needs_positive_measure():
    t, m = torus()
    zero = Measure.of(m.field, {b: nf_const(m.field, 0) for b in t.branches})
    with pytest.raises(InvalidMeasure):
        find_agol_cycle(t, zero, 5)


def test_cycle_search_checks_its_measure_once(monkeypatch):
    # every later measure comes out of a split, which keeps it valid
    t, m = torus()
    calls = []
    real = splitting.check_measure
    monkeypatch.setattr(splitting, "check_measure", lambda t, m: calls.append(t) or real(t, m))
    find_agol_cycle(t, m, 10)
    assert len(calls) == 1


def test_detector_is_deterministic():
    t, m = torus()
    c1 = find_agol_cycle(t, m, 10)
    c2 = find_agol_cycle(t, m, 10)
    assert c1.events == c2.events and c1.iso == c2.iso


# ---------------------------------------------------------------------------
# the cycle-search key only picks candidates


def state_key(t, m):
    return _state_key(t, m, _state_point(m))


def cycle_outcome(t, m):
    try:
        c = find_agol_cycle(t, m, 200)
    except NoCycleWithinBudget as exc:
        return str(exc)
    return (c.n, c.m, c.lam, c.events, c.iso, c.cycle_matrix)


def oracle_states():
    """300 seeded torus words, every fixture with a measure, and random
    positive measures on the genus2_44 and genus2_tie tracks."""
    rng = random.Random("state key oracle")
    words = set()
    while len(words) < 300:
        w = "".join(rng.choice("RL") for _ in range(rng.randint(3, 16)))
        if "R" in w and "L" in w:
            words.add(w)
    states = [torus_word_state(w) for w in sorted(words)]
    states += [torus(), parse_track(fixture_text("genus2_tie.track"))]
    for name in ("genus2_44.track", "genus2_tie.track"):
        t, _ = parse_track(fixture_text(name))
        states += [(t, positive_measure(t, rng)) for _ in range(10)]
    return states


def test_cycles_agree_with_the_canonical_form_key(monkeypatch):
    states = oracle_states()
    got = [cycle_outcome(t, m) for t, m in states]
    assert sum(isinstance(out, tuple) for out in got) >= 301  # every torus state certifies
    for key in (canonical_state_key, rational_state_key):
        monkeypatch.setattr(splitting, "_state_key", lambda t, m, point, key=key: key(t, m))
        assert [cycle_outcome(t, m) for t, m in states] == got


def test_integer_key_classes_are_the_rational_key_classes(monkeypatch):
    rng = random.Random("integer key")
    words = ["".join(rng.choice("RL") for _ in range(rng.randint(3, 16))) for _ in range(200)]
    starts = [torus_word_state(w) for w in words if "R" in w and "L" in w]
    starts += [cover_track(*torus_word_state(w), COVER_D3) for w in ("RRL", "RLLRL")]
    starts += [cover_track(*torus_word_state("RRL"), COVER_D5)]
    # every state the cycle search keys
    states = []
    real = splitting._state_key
    monkeypatch.setattr(
        splitting, "_state_key", lambda t, m, point: states.append((t, m)) or real(t, m, point)
    )
    for t, m in starts:
        find_agol_cycle(t, m, 400)
    pairs = {(state_key(t, m), rational_state_key(t, m)) for t, m in states}
    ints, rats = {k for k, _ in pairs}, {r for _, r in pairs}
    # a bijection between the classes; every search ends on a repeated key
    assert len(pairs) == len(ints) == len(rats)
    assert len(ints) <= len(states) - len(starts)


def test_a_constant_key_finds_the_same_torus_cycles(monkeypatch):
    # every earlier state is then a candidate, and `_match_states` alone decides
    states = [torus()] + [torus_word_state(w) for w in ("RRL", "RLL", "RRRLRL", "RRLL")]
    got = [cycle_outcome(t, m) for t, m in states]
    monkeypatch.setattr(splitting, "_state_key", lambda t, m, point: ())
    assert [cycle_outcome(t, m) for t, m in states] == got


def test_the_point_match_is_the_rational_match(monkeypatch):
    # under a constant key every earlier state is a candidate; on each pair
    # the search meets, matching the integer points must give the iso and
    # lambda that the field-arithmetic test gives, or None with it
    rng = random.Random("point match")
    words = set()
    while len(words) < 200:
        w = "".join(rng.choice("RL") for _ in range(rng.randint(3, 12)))
        if "R" in w and "L" in w:
            words.add(w)
    starts = [torus_word_state(w) for w in sorted(words)]
    starts += [cover_track(*torus_word_state(w), COVER_D3) for w in ("RRL", "RLLRL")]
    starts += [cover_track(*torus_word_state("RRL"), COVER_D5)]
    for name in ("genus2_44.track", "genus2_tie.track"):
        t, _ = parse_track(fixture_text(name))
        starts += [(t, positive_measure(t, rng)) for _ in range(10)]
    pairs = []
    real = splitting._match_states

    def recorded(t_new, m_new, p_new, t_old, m_old, p_old):
        hit = real(t_new, m_new, p_new, t_old, m_old, p_old)
        pairs.append(((t_new, m_new, t_old, m_old), hit))
        return hit

    monkeypatch.setattr(splitting, "_state_key", lambda t, m, point: ())
    monkeypatch.setattr(splitting, "_match_states", recorded)
    for t, m in starts:
        cycle_outcome(t, m)
    assert sum(hit is not None for _, hit in pairs) >= 203  # every torus word and cover
    assert sum(hit is None for _, hit in pairs) > len(pairs) // 2
    for state, hit in pairs:
        assert hit == rational_match(*state)


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
            assert transport(elem, m2) == m
            assert check_measure(t2, m2)
            assert derived_genus(t2) == derived_genus(t)
            assert len(regions(t2)) == kappa
            assert all(sum(col) >= 1 for col in zip(*elem.entries))
            assert split_surgery(t, b, ev.case) == (t2, elem)
    assert done == 1000


@pytest.mark.parametrize("seed", range(4))
def test_state_key_is_projective_and_labeling_free(seed):
    t, m = torus()
    lam = nf_element(m.field, [F(0), F(1)])
    t2 = rename_track(t, seed)
    point = _state_point(m)
    # the weights (1, lambda - 2, lambda - 1) sum to 2 (lambda - 1), and
    # 1 / (lambda - 1) = lambda - 2: twice the point is m times lambda - 2
    assert point == {"a": (-2, 1), "b": (3, -1), "c": (1, 0)}
    for iso in track_isomorphisms(t, t2):
        image = Measure.of(
            m.field, {iso.branch_image(b)[0]: lam * m.weight(b) for b in t.branches}
        )
        assert check_measure(t2, image)
        image_point = _state_point(image)
        assert all(image_point[iso.branch_image(b)[0]] == p for b, p in point.items())
        assert state_key(t2, image) == state_key(t, m)
        assert _match_states(t, m, point, t2, image, image_point)[1] == lam
    # c = a + b holds, but b / a = lambda is not m's ratio lambda - 2
    other = Measure.of(m.field, {"a": nf_const(m.field, 1), "b": lam, "c": 1 + lam})
    assert check_measure(t, other)
    assert state_key(t, other) != state_key(t, m)
    # the key is only a filter: swapping the weights of a and b keeps
    # c = a + b and the key, but a match would need lambda = 1
    swapped = Measure.of(m.field, {"a": m.weight("b"), "b": m.weight("a"), "c": m.weight("c")})
    assert check_measure(t, swapped)
    assert state_key(t, swapped) == state_key(t, m)
    assert _match_states(t, swapped, _state_point(swapped), t, m, point) is None
    # a state matches itself by the identity, but only with lambda = 1
    assert _match_states(t, m, point, t, m, point) is None
    assert rational_match(t, m, t, m) is None
