"""Tests for the complexity-bound computations.

The torus cycle is small enough to check against hand arithmetic: its
transition matrix is M = [[2,1,0],[0,0,1],[1,0,2]] over branches (a, b, c),
M^2 = [[4,2,1],[1,0,2],[4,1,4]] still has a zero, and
M^3 = [[9,4,4],[4,1,4],[12,4,9]] is positive with row sums (17, 9, 25).
"""

import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitseq import bounds
from splitseq.bounds import (
    BoundReport,
    BoundViolated,
    DimensionMismatch,
    IncompatibleCoordinates,
    NormalCurve,
    NotAnExtension,
    NotPrimitive,
    ReplayMismatch,
    _iterate_cusp_data,
    _period_cusp_data,
    bound_report,
    c_of_psi,
    c_prime,
    curve_length,
    dd_bound,
    extension_incidence,
    m_of_psi,
    power_positive_K,
    push_curve,
    r_of_psi,
    report_text,
)
from splitseq.numberfield import nf_const
from splitseq.splitting import (
    AgolCycle,
    CarryingMatrix,
    SplitCase,
    find_agol_cycle,
    incidence_compose,
    maximal_split,
    split,
    split_case,
    track_id,
)
from splitseq.traintrack import (
    BranchEnd,
    DiagonalExtension,
    Measure,
    diagonal_extensions,
    parse_track,
    regions,
)
from trackgen import RATIONALS

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


# --- torus cycle values ---


def test_torus_cycle_r_and_K():
    cyc = torus_cycle()
    assert cyc.cycle_matrix.entries == TORUS_M
    assert r_of_psi(cyc.cycle_matrix) == 3
    assert power_positive_K(cyc.cycle_matrix) == 3


def test_torus_cusp_transport_single_period():
    sigma, gamma = _period_cusp_data(torus_cycle())
    # both cusps return home after one period, each path crossing a and c once
    assert sigma == {"u": "u", "v": "v"}
    assert gamma == {"u": (1, 0, 1), "v": (1, 0, 1)}


def test_torus_cusp_transport_three_fold():
    # gamma(3) = (I + M + M^2) (1,0,1) with sigma the identity throughout
    sigma, gamma = _iterate_cusp_data(torus_cycle(), 3)
    assert sigma == {"u": "u", "v": "v"}
    assert gamma == {"u": (8, 4, 12), "v": (8, 4, 12)}


def test_torus_extension_is_bare_cube():
    cyc = torus_cycle()
    exts = diagonal_extensions(cyc.start_track)
    assert len(exts) == 1 and exts[0].diagonal_count == 0
    ext2, N = extension_incidence(cyc, exts[0])
    assert ext2 == exts[0]
    assert N.rows == N.cols == cyc.start_track.branches
    assert N.entries == TORUS_M3


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
    text = report_text(rep)
    assert "r               = 3" in text
    assert "c               = 51" in text


# --- extension checks ---


def test_extension_rejects_malformed():
    cyc = torus_cycle()
    with pytest.raises(NotAnExtension):
        extension_incidence(cyc, DiagonalExtension(()))
    with pytest.raises(NotAnExtension):
        extension_incidence(cyc, DiagonalExtension(((0, frozenset({(0, 1)})),)))


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
    with pytest.raises(ReplayMismatch):
        _period_cusp_data(dataclasses.replace(cyc, events=events))


def _column(M: CarryingMatrix, branch: str) -> list[int]:
    j = M.cols.index(branch)
    return [row[j] for row in M.entries]


def _ends(t, branch: str) -> tuple[str, str]:
    return tuple(t.switch_of(BranchEnd(branch, e)).name for e in (0, 1))


def test_tie_groups_read_the_same_from_the_group_start():
    # each maximal split below is a non-central tie of two branches; what
    # _period_cusp_data reads off the group's start must match what
    # splitting the group's branches one after another gives
    t, _ = parse_track((FIXTURES / "genus2_tie.track").read_text())
    weights = dict(zip(t.branches, (9, 2, 9, 7, 5, 4, 7, 5, 2)))
    m = Measure.of(RATIONALS, {b: nf_const(RATIONALS, w) for b, w in weights.items()})
    product = CarryingMatrix.identity(t.branches, track_id(t))
    for _ in range(2):
        t2, m2, elem, events = maximal_split(t, m)
        assert len(events) == 2
        assert all(ev.case is not SplitCase.CENTRAL for ev in events)
        cur_t, cur_m, running = t, m, product
        for ev in events:
            assert _ends(t, ev.branch) == _ends(cur_t, ev.branch)
            assert _column(product, ev.branch) == _column(running, ev.branch)
            case = split_case(t, m, ev.branch)
            cur_t, cur_m, e, got = split(cur_t, cur_m, ev.branch)
            assert got == ev and case is got.case
            running = incidence_compose(running, e)
        product = incidence_compose(product, elem)
        assert running.entries == product.entries
        t, m = t2, m2


def test_cusp_data_refuses_a_central_split():
    # the fixture's own measure ties b0 and b2, and splits b0 centrally
    t, m = parse_track((FIXTURES / "genus2_tie.track").read_text())
    t2, m2, elem, events = maximal_split(t, m)
    assert [ev.case for ev in events] == [SplitCase.CENTRAL, SplitCase.LEFT]
    cyc = AgolCycle(
        n=0, m=1, iso=None, lam=nf_const(m.field, 2), cycle_matrix=elem, events=(events,),
        period_tracks=(t, t2), period_measures=(m, m2), period_elems=(elem,),
    )
    with pytest.raises(ValueError, match="central"):
        _period_cusp_data(cyc)


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
    cyc = torus_cycle()
    expected = c_of_psi(cyc)
    (ext,) = diagonal_extensions(cyc.start_track)
    monkeypatch.setattr(bounds, "diagonal_extensions", lambda t: [ext, ext, ext])
    calls = []
    real = bounds._iterate_cusp_data
    monkeypatch.setattr(bounds, "_iterate_cusp_data", lambda c, k: calls.append(k) or real(c, k))
    assert c_of_psi(cyc) == expected == 51
    assert calls == [3]
