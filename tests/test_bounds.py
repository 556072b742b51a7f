"""Tests for the complexity-bound computations.

The torus cycle is small enough to check against hand arithmetic: its
transition matrix is M = [[2,1,0],[0,0,1],[1,0,2]] over branches (a, b, c),
M^2 = [[4,2,1],[1,0,2],[4,1,4]] still has a zero, and
M^3 = [[9,4,4],[4,1,4],[12,4,9]] is positive with row sums (17, 9, 25).
"""

import dataclasses
import random
from fractions import Fraction
from functools import reduce
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitseq import bounds, splitting
from splitseq.bounds import (
    BoundReport,
    BoundViolated,
    DimensionMismatch,
    IncompatibleCoordinates,
    NormalCurve,
    NotAnExtension,
    NotPrimitive,
    _best_triangulation,
    _c_from_transport,
    _cycle_transport,
    _iterate_cusp_data,
    _period_cusp_data,
    bound_report,
    c_of_psi,
    c_prime,
    curve_length,
    dd_bound,
    m_of_psi,
    power_positive_K,
    push_curve,
    r_of_psi,
)
from splitseq.numberfield import NotPerronFrobenius, _is_primitive, nf_const, pf_eigendata
from splitseq.splitting import (
    AgolCycle,
    CarryingMatrix,
    ReplayMismatch,
    SplitCase,
    find_agol_cycle,
    incidence_compose,
    maximal_split,
    split,
    track_id,
)
from splitseq.traintrack import BranchEnd, Measure, parse_track
from extension_oracle import (
    brute_force_c,
    extension_rows,
    extensions,
    polygon_triangulations,
    region_cusps,
)
from trackgen import RATIONALS, torus_word_state

FIXTURES = Path(__file__).parent / "fixtures"

TORUS_M = ((2, 1, 0), (0, 0, 1), (1, 0, 2))
TORUS_M3 = ((9, 4, 4), (4, 1, 4), (12, 4, 9))


def torus_cycle():
    t, m = parse_track((FIXTURES / "torus_anosov.track").read_text())
    return find_agol_cycle(t, m, 50)


# --- r, K ---


def test_r_is_max_column_sum():
    assert r_of_psi(((2, 1), (1, 1))) == 3
    assert r_of_psi(((1, 0), (0, 1))) == 1
    assert r_of_psi(((0, 5), (0, 0))) == 5


def test_r_rejects_bad_matrices():
    with pytest.raises(ValueError):
        r_of_psi(((1, 2, 3), (4, 5, 6)))
    with pytest.raises(ValueError):
        r_of_psi(((-1, 0), (0, 1)))


def test_power_positive_examples():
    assert power_positive_K(((2, 1), (1, 1))) == 1
    assert power_positive_K(((0, 1), (1, 1))) == 2
    assert power_positive_K(TORUS_M) == 3


def test_power_positive_rejects_permutation():
    with pytest.raises(NotPrimitive):
        power_positive_K(((0, 1), (1, 0)))


def test_power_positive_wielandt_edge():
    # the slowest primitive shape on n nodes needs exactly (n-1)^2 + 1 steps
    n = 4
    ent = [[0] * n for _ in range(n)]
    for i in range(n):
        ent[i][(i + 1) % n] = 1
    ent[n - 1][1] = 1
    assert power_positive_K(ent) == (n - 1) ** 2 + 1


def least_positive_power(M) -> int:
    """Reference: the least k <= (n-1)^2 + 1 with the integer M^k > 0, else 0."""
    n = len(M)
    power = M
    for k in range(1, (n - 1) ** 2 + 2):
        if all(x > 0 for row in power for x in row):
            return k
        power = [[sum(power[i][l] * M[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
    return 0


@st.composite
def sparse_matrices(draw):
    n = draw(st.integers(1, 6))
    return [[draw(st.sampled_from((0, 0, 1, 2))) for _ in range(n)] for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_one_primitivity_test_behind_both_refusals(M):
    K = _is_primitive(M)
    assert K == least_positive_power(M)
    if K:
        assert power_positive_K(M) == K
        pf_eigendata(M)
    else:
        with pytest.raises(NotPrimitive):
            power_positive_K(M)
        with pytest.raises(NotPerronFrobenius):
            pf_eigendata(M)


# --- torus cycle values ---


def test_torus_cycle_r_and_K():
    cyc = torus_cycle()
    assert cyc.cycle_matrix.entries == TORUS_M
    assert r_of_psi(cyc.cycle_matrix) == 3
    assert power_positive_K(cyc.cycle_matrix) == 3


@pytest.mark.parametrize("fixture", [None, "genus2_cycle.track"])
def test_one_fold_serves_the_cycle_matrix_and_the_cusp_transport(fixture, monkeypatch):
    if fixture is None:
        t, m = torus_word_state("RRL")
    else:
        t, m = parse_track((FIXTURES / fixture).read_text())
    cyc = find_agol_cycle(t, m, 50)
    products = cyc.period_products
    assert len(products) == cyc.m + 1 == 4
    assert products[0] == CarryingMatrix.identity(t.branches)
    for k in range(1, cyc.m + 1):
        assert products[k] == reduce(incidence_compose, cyc.period_elems[:k])
    # a copy has empty caches: a bound report then folds its period once,
    # m - 1 products and one closing product
    expected = bound_report(cyc)
    fresh = dataclasses.replace(cyc)
    calls = []
    real = splitting.incidence_compose
    monkeypatch.setattr(splitting, "incidence_compose", lambda a, b: calls.append(a) or real(a, b))
    assert bound_report(fresh) == expected
    assert len(calls) == cyc.m


def test_a_cycle_without_its_isomorphism_refuses_the_cycle_matrix():
    cyc = dataclasses.replace(torus_cycle(), iso=None)
    with pytest.raises(ReplayMismatch, match="no closing isomorphism"):
        cyc.cycle_matrix
    with pytest.raises(ReplayMismatch, match="no closing isomorphism"):
        bound_report(cyc)


def test_torus_cusp_transport_single_period():
    sigma, gamma = _period_cusp_data(torus_cycle())
    # both cusps return home after one period, each path crossing a and c once
    assert sigma == {"u": "u", "v": "v"}
    assert gamma == {"u": (1, 0, 1), "v": (1, 0, 1)}


def test_torus_cusp_transport_three_fold():
    # gamma(3) = (I + M + M^2) (1,0,1) with sigma the identity throughout
    sigma, gamma, power = _iterate_cusp_data(torus_cycle(), 3)
    assert sigma == {"u": "u", "v": "v"}
    assert gamma == {"u": (8, 4, 12), "v": (8, 4, 12)}
    assert power == TORUS_M3


def test_torus_extension_is_bare_cube():
    # the torus's one region has 2 cusps, so its only extension adds no
    # diagonal and carries by M^3 alone
    cyc = torus_cycle()
    K, mk, sigma, gamma = _cycle_transport(cyc)
    assert (K, mk) == (3, TORUS_M3)
    (ext,) = extensions(cyc.start_track)
    assert ext == (frozenset(),)
    assert extension_rows(cyc.start_track, ext, mk, sigma, gamma) == [list(r) for r in TORUS_M3]


def test_torus_c_and_c_prime():
    cyc = torus_cycle()
    assert c_of_psi(cyc) == 2 * 25 + 1  # worst row sum of M^3 is 25
    assert c_prime(cyc.start_track) == 0  # a 2-cusped region has no diagonal


def test_torus_bound_report():
    rep = bound_report(torus_cycle())
    assert rep == BoundReport(
        r=3, K=3, c=51, c_prime=0,
        M_psi=m_of_psi(1, 3, 51), dd=dd_bound(1, 2, m_of_psi(1, 3, 51)),
        g=1, s=2, l=3,
    )


def even_runs(word: str) -> bool:
    """Every cyclic run of R and of L in `word` has even length."""
    k = next(i for i in range(len(word)) if word[i] != word[i - 1])
    return all(len(list(run)) % 2 == 0 for _, run in groupby(word[k:] + word[:k]))


def test_not_primitive_exactly_on_even_runs():
    # the documented limitation of power_positive_K on the torus: the
    # cycle matrix of a cyclic word in R^2 and L^2 has no positive power
    rng = random.Random(5)
    refused = 0
    for _ in range(150):
        word = ""
        while "R" not in word or "L" not in word:
            word = "".join(rng.choice("RL") for _ in range(rng.randint(2, 12)))
        cycle = find_agol_cycle(*torus_word_state(word), 200)
        if even_runs(word):
            with pytest.raises(NotPrimitive):
                bound_report(cycle)
            refused += 1
        else:
            bound_report(cycle)
    assert all(map(even_runs, ("RRLL", "LRRL", "RRRLLR"))) and not even_runs("RRLLL")
    assert refused == 13


def test_genus2_lift_bound_report():
    t, m = parse_track((FIXTURES / "genus2_cycle.track").read_text())
    rep = bound_report(find_agol_cycle(t, m, 10))
    M_psi = m_of_psi(2, 5, 995 + 9)
    assert rep == BoundReport(
        r=5, K=4, c=995, c_prime=9, M_psi=M_psi, dd=dd_bound(2, 6, M_psi), g=2, s=6, l=9,
    )
    assert (len(str(rep.M_psi)), len(str(rep.dd))) == (272, 3813)


# --- extension checks ---


def test_extension_rejects_malformed():
    # a cusp transport that splits a region's cusps over two regions, or
    # keeps them in one region out of cyclic order, carries no extension
    # to an extension
    t, _ = parse_track((FIXTURES / "genus2_44.track").read_text())
    r0, r1 = region_cusps(t)
    mk = tuple((1,) * t.l for _ in t.branches)
    gamma = {s: (0,) * t.l for s in r0 + r1}
    ident = {s: s for s in r0 + r1}
    rotated = dict(ident, **{s: r0[(p + 1) % 4] for p, s in enumerate(r0)})
    exchanged = {**dict(zip(r0, r1)), **dict(zip(r1, r0))}
    for sigma in (ident, rotated, exchanged):
        assert _c_from_transport(t, mk, sigma, gamma) == 2 * t.l + 1
    split_apart = dict(ident, **{r0[0]: r1[0], r1[0]: r0[0]})
    reordered = dict(ident, **{r0[0]: r0[1], r0[1]: r0[0]})
    for sigma in (split_apart, reordered):
        with pytest.raises(NotAnExtension):
            _c_from_transport(t, mk, sigma, gamma)


# --- c by dynamic programming, against the listed extensions ---


@settings(max_examples=60)
@given(st.lists(st.integers(0, 50), max_size=9))
def test_best_triangulation_matches_enumeration(w):
    best = max(sum(w[a] + w[c] for a, c in tri) for tri in polygon_triangulations(len(w)))
    assert _best_triangulation(w) == best


GENUS2_FIXTURES = [
    "genus2_hex.track",
    "genus2_44.track",
    "genus2_35.track",
    "genus2_trigons.track",
    "genus2_tie.track",
]


def random_transport(t, rng):
    """A cusp transport that keeps each region's cyclic order, with random
    cusp paths and a positive stand-in for M^K."""
    cusps = region_cusps(t)
    sigma = {}
    for k in {len(cs) for cs in cusps}:
        group = [cs for cs in cusps if len(cs) == k]
        for cs, image in zip(group, rng.sample(group, len(group))):
            q = rng.randrange(k)
            sigma.update({s: image[(q + p) % k] for p, s in enumerate(cs)})
    gamma = {s: tuple(rng.randint(0, 9) for _ in t.branches) for s in sigma}
    mk = tuple(tuple(rng.randint(1, 9) for _ in t.branches) for _ in t.branches)
    return mk, sigma, gamma


@pytest.mark.parametrize("name", GENUS2_FIXTURES)
@settings(max_examples=15, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_c_matches_every_extension_on_genus2_fixtures(name, rng):
    t, _ = parse_track((FIXTURES / name).read_text())
    mk, sigma, gamma = random_transport(t, rng)
    assert _c_from_transport(t, mk, sigma, gamma) == brute_force_c(t, mk, sigma, gamma)


# --- curves ---


def test_curve_length_torus():
    t, _ = parse_track((FIXTURES / "torus_anosov.track").read_text())
    assert curve_length(NormalCurve((2, 2, 2)), t) == 6
    assert curve_length(NormalCurve((0, 2, 2)), t) == 4


def test_curve_length_rejects_parity_and_triangle():
    t, _ = parse_track((FIXTURES / "torus_anosov.track").read_text())
    with pytest.raises(IncompatibleCoordinates):
        curve_length(NormalCurve((1, 2, 2)), t)
    with pytest.raises(IncompatibleCoordinates):
        curve_length(NormalCurve((4, 1, 1)), t)
    with pytest.raises(DimensionMismatch):
        curve_length(NormalCurve((1, 1)), t)


def test_normal_curve_validation():
    with pytest.raises(IncompatibleCoordinates):
        NormalCurve((1, -1))
    with pytest.raises(IncompatibleCoordinates):
        NormalCurve((1, 1), components=0)


def test_push_curve_torus():
    M = CarryingMatrix(("a", "b", "c"), ("a", "b", "c"), TORUS_M)
    v2, len_bound, int_bound = push_curve(M, NormalCurve((2, 2, 2)))
    assert v2 == (6, 2, 6)
    assert len_bound == 14 <= 3 * 6
    assert int_bound == 2 * 6 + 2 * 2 + 2 * 6 == 28 <= 3 * 36
    with pytest.raises(DimensionMismatch):
        push_curve(M, NormalCurve((1, 1)))


def test_push_curve_bound_check_raises_a_typed_error(monkeypatch):
    # the bounds are theorems; a wrong r must still trip the checks under -O
    M = CarryingMatrix(("a", "b", "c"), ("a", "b", "c"), TORUS_M)
    monkeypatch.setattr(bounds, "r_of_psi", lambda M: 1)
    with pytest.raises(BoundViolated):
        push_curve(M, NormalCurve((2, 2, 2)))


def test_cusp_data_refuses_a_tampered_cycle():
    cyc = torus_cycle()
    first, *rest = cyc.events[0]
    flipped = SplitCase.LEFT if first.case is SplitCase.RIGHT else SplitCase.RIGHT
    events = ((dataclasses.replace(first, case=flipped), *rest),) + cyc.events[1:]
    # refused when it is built, before _period_cusp_data could read it
    with pytest.raises(ReplayMismatch, match="recorded period"):
        dataclasses.replace(cyc, events=events)


def _column(M: CarryingMatrix, branch: str) -> list[int]:
    j = M.cols.index(branch)
    return [row[j] for row in M.entries]


def _ends(t, branch: str) -> tuple[str, str]:
    return tuple(t.switch_of(BranchEnd(branch, e)).name for e in (0, 1))


def test_tie_groups_read_the_same_from_the_group_start():
    # each maximal split below is a non-central tie of two branches; what
    # AgolCycle and _period_cusp_data read off the group's start must match
    # what splitting the group's branches one after another gives
    t, _ = parse_track((FIXTURES / "genus2_tie.track").read_text())
    weights = dict(zip(t.branches, (9, 2, 9, 7, 5, 4, 7, 5, 2)))
    m = Measure.of(RATIONALS, {b: nf_const(RATIONALS, w) for b, w in weights.items()})
    tid = track_id(t)
    product = dataclasses.replace(CarryingMatrix.identity(t.branches), target=tid, source=tid)
    tracks, measures, groups, elems = [t], [m], [], []
    for _ in range(2):
        t2, m2, elem, events = maximal_split(t, m)
        assert len(events) == 2
        assert all(ev.case is not SplitCase.CENTRAL for ev in events)
        cur_t, cur_m, running = t, m, product
        for ev in events:
            assert _ends(t, ev.branch) == _ends(cur_t, ev.branch)
            assert _column(product, ev.branch) == _column(running, ev.branch)
            cur_t, cur_m, e, got = split(cur_t, cur_m, ev.branch)
            assert got == ev
            running = incidence_compose(running, e)
        product = incidence_compose(product, elem)
        assert running.entries == product.entries
        t, m = t2, m2
        tracks.append(t)
        measures.append(m)
        groups.append(events)
        elems.append(elem)
    # the certificate reads every case off its group's start, and agrees
    period = dict(
        n=0, iso=None, lam=nf_const(RATIONALS, 2),
        period_tracks=tuple(tracks), period_measures=tuple(measures), period_elems=tuple(elems),
    )
    AgolCycle(events=tuple(groups), **period)
    (a, b), rest = groups[0], tuple(groups[1:])
    flipped = SplitCase.LEFT if b.case is SplitCase.RIGHT else SplitCase.RIGHT
    with pytest.raises(ReplayMismatch, match=f"does not split {b.branch}"):
        AgolCycle(events=((a, dataclasses.replace(b, case=flipped)),) + rest, **period)


def test_cusp_data_refuses_a_central_split():
    # the fixture's own measure ties b0 and b2, and splits b0 centrally
    t, m = parse_track((FIXTURES / "genus2_tie.track").read_text())
    t2, m2, elem, events = maximal_split(t, m)
    assert [ev.case for ev in events] == [SplitCase.CENTRAL, SplitCase.LEFT]
    with pytest.raises(ReplayMismatch, match="b0 central"):
        AgolCycle(
            n=0, iso=None, lam=nf_const(m.field, 2), events=(events,),
            period_tracks=(t, t2), period_measures=(m, m2), period_elems=(elem,),
        )


# --- closed formulas ---


def test_m_of_psi_values():
    assert m_of_psi(1, 1, 1) == 33
    assert m_of_psi(1, 3, 1) == 1057
    assert m_of_psi(1, 3, 0) == 0
    assert m_of_psi(2, 1, 1) == 46667665044033  # F(F(F(F(1)))) with F(x) = 2x + x^3
    with pytest.raises(ValueError):
        m_of_psi(0, 1, 1)


def test_dd_bound_values():
    assert dd_bound(1, 1, 1) == 22 * (4 + 100) == 2288
    assert dd_bound(2, 4, 10) == 102**4 * (20**4 + 28**10)
    with pytest.raises(ValueError):
        dd_bound(1, 0, 5)


def test_m_of_psi_is_two_g_iterations():
    # recompute by explicit iteration with Fractions to rule out drift
    g, r, c0 = 2, 3, 7
    x = Fraction(c0)
    for _ in range(2 * g):
        x = (1 + r) * x + r * x**3
    assert m_of_psi(g, r, c0) == x


@given(st.integers(1, 3), st.integers(1, 5), st.integers(0, 9))
def test_m_of_psi_monotone(g, r, c0):
    assert m_of_psi(g, r, c0 + 1) > m_of_psi(g, r, c0) >= c0


@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 50))
def test_dd_bound_monotone_in_m(g, s, m):
    assert dd_bound(g, s, m + 1) > dd_bound(g, s, m) > 0


@settings(max_examples=30)
@given(st.lists(st.integers(0, 4), min_size=3, max_size=3))
def test_push_curve_bounds_hold(coords):
    M = CarryingMatrix(("a", "b", "c"), ("a", "b", "c"), TORUS_M)
    v2, len_bound, int_bound = push_curve(M, NormalCurve(tuple(coords)))
    assert len_bound == sum(v2)
    assert int_bound == sum(x * y for x, y in zip(coords, v2))


def test_c_of_psi_computes_cusp_transport_once(monkeypatch):
    # one bound_report searches for K once and transports the cusps once
    calls = []
    for name in ("_is_primitive", "_iterate_cusp_data"):
        real = getattr(bounds, name)
        monkeypatch.setattr(
            bounds, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    assert bound_report(torus_cycle()).c == 51
    assert sorted(calls) == ["_is_primitive", "_iterate_cusp_data"]
