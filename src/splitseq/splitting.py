"""Splitting moves, with exact carried-measure bookkeeping.

A large branch (both ends in large position) splits three ways depending on
the exact comparison of the two diagonal weights; the resulting track is
carried by the old one and the elementary incidence matrix transports the
new measure back: m_pre = elem * m_post, coordinatewise in Q(lambda).
`split_surgery` is the surgery alone, for a case chosen without a measure.
The large branches of a track are its cached `large_set`, so every guard
and the cycle certificate read one set.

A puncture mark names a cusp (`CuspRef`) whose region is punctured, and it
moves with its cusp corner on every split.  A left or right split trades
the cusps of the split branch's end switches, so their marks trade.  A
central split merges them into one switch that keeps both cusp corners, so
each mark moves to its corner there.

Iterating maximal splits on a positive measure detects the eventual
periodicity (preperiod n, period m, a ribbon isomorphism, and a stretch
factor lambda > 1).  Each state gets one integer projective point, the
primitive integer multiple of (w_b / sum of weights)_b: per weight one
integer product with the adjugate column of the weight sum's
multiplication matrix, which costs d minors and no field arithmetic.
The sorted point keys the state.  It is a canonical form of the
projective point, so its classes are those of the point's rational
coordinates.  Only states with equal keys are compared by a ribbon
isomorphism, which matches when it carries the one point onto the other,
so canonical forms are built only when keys collide.  An `AgolCycle`
certifies its splits once, when built, and folds its period's matrices
once; no later stage decides a split or folds the period again.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm
from typing import Optional

from .numberfield import (
    DivisionByZero,
    NFElement,
    _det_int,
    _identity,
    _mat_mul,
    _mul_matrix,
    _mul_num,
    nf_const,
    nf_sign,
)
from .traintrack import (
    BranchEnd,
    CuspRef,
    FieldMismatch,
    Measure,
    Switch,
    TrackIso,
    TrainTrack,
    check_measure,
    track_isomorphisms,
)


class NotLargeBranch(ValueError):
    """Branch is not large (or not splittable) in this track."""


class InvalidMeasure(ValueError):
    """Measure fails switch conditions, nonnegativity, or positivity."""


class NoLargeBranch(ValueError):
    """Track has no large branch to split."""


class NoCycleWithinBudget(RuntimeError):
    """No periodic recurrence found within the iteration budget."""


class ChainMismatch(ValueError):
    """Carrying matrices do not compose along the track chain."""


class SplitCase(Enum):
    LEFT = "left"
    RIGHT = "right"
    CENTRAL = "central"


_CASE = {1: SplitCase.LEFT, -1: SplitCase.RIGHT, 0: SplitCase.CENTRAL}  # by sign of P - T


@dataclass(frozen=True)
class SplitEvent:
    branch: str
    case: SplitCase


@dataclass(frozen=True)
class CarryingMatrix:
    """Integer matrix transporting measures from `source` back to `target`.

    rows index the earlier track's branches, cols the later track's;
    m_earlier = entries * m_later.
    """

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]
    target: str = ""  # earlier track id
    source: str = ""  # later track id

    def __post_init__(self):
        if len(self.entries) != len(self.rows) or any(
            len(r) != len(self.cols) for r in self.entries
        ):
            raise ValueError("entry shape does not match row/col labels")

    @staticmethod
    def identity(branches: tuple[str, ...]) -> "CarryingMatrix":
        return CarryingMatrix(branches, branches, tuple(map(tuple, _identity(len(branches)))))

    @staticmethod
    def of_iso(t_from: TrainTrack, t_to: TrainTrack, iso: TrackIso) -> "CarryingMatrix":
        """Permutation matrix of an isomorphism t_from -> t_to: m_from = P * m_to."""
        ent = tuple(
            tuple(int(iso.branch_image(b)[0] == c) for c in t_to.branches)
            for b in t_from.branches
        )
        return CarryingMatrix(t_from.branches, t_to.branches, ent, track_id(t_from), track_id(t_to))


def incidence_compose(a: CarryingMatrix, b: CarryingMatrix) -> CarryingMatrix:
    """a then b along the chain: result transports b.source back to a.target."""
    if a.cols != b.rows:
        raise ChainMismatch("column labels of the first factor must equal row labels of the second")
    if a.source and b.target and a.source != b.target:
        raise ChainMismatch(f"chain breaks: {a.source} != {b.target}")
    return CarryingMatrix(a.rows, b.cols, _mat_mul(a.entries, b.entries), a.target, b.source)


def track_id(t: TrainTrack) -> str:
    """The track's cached `track_id`, hashed once per track, so a split's
    post-split id serves as the next split's pre-split id."""
    return t.track_id


# ---------------------------------------------------------------------------
# move preconditions


def is_large_branch(t: TrainTrack, branch: str) -> bool:
    return branch in t.large_set


def large_branches(t: TrainTrack) -> tuple[str, ...]:
    large = t.large_set
    return tuple(b for b in t.branches if b in large)


# ---------------------------------------------------------------------------
# puncture marks


def _move_marks(t: TrainTrack, moved: dict[CuspRef, CuspRef]) -> tuple[CuspRef, ...]:
    # each mark goes where its cusp corner goes; every other corner stays
    return tuple(moved.get(c, c) for c in t.puncture_marks)


# ---------------------------------------------------------------------------
# elementary moves


def _replace_switches(t: TrainTrack, drop: set[str], add: list[Switch]) -> list[Switch]:
    # a new switch takes its namesake's list position; a dropped switch
    # without one leaves the list
    by_name = {sw.name: sw for sw in add}
    out: list[Switch] = []
    for sw in t.switches:
        if sw.name in drop:
            if sw.name in by_name:
                out.append(by_name.pop(sw.name))
        else:
            out.append(sw)
    return out


def _elem_with_row(t_pre, post_branches, branch, col_ends, tid_pre, tid_post):
    # the identity on every branch but `branch`, whose row counts col_ends
    rows, cols = t_pre.branches, tuple(post_branches)
    col = {c: j for j, c in enumerate(cols)}
    ent = []
    for b in rows:
        row = [0] * len(cols)
        if b != branch:
            row[col[b]] = 1
        else:
            for e in col_ends:
                row[col[e.branch]] += 1
        ent.append(tuple(row))
    return CarryingMatrix(rows, cols, tuple(ent), tid_pre, tid_post)


def _weight_gap(t: TrainTrack, m: Measure, branch: str) -> NFElement:
    # P - T, P small-left at end 0 and T small-right at end 1: its sign is the case
    u, v = t.switch_of(BranchEnd(branch, 0)), t.switch_of(BranchEnd(branch, 1))
    return m.weight(u.small_left.branch) - m.weight(v.small_right.branch)


def split(
    t: TrainTrack, m: Measure, branch: str
) -> tuple[TrainTrack, Measure, CarryingMatrix, SplitEvent]:
    """Split one large branch; the case is decided by exact weight comparison."""
    if not is_large_branch(t, branch):
        raise NotLargeBranch(f"branch {branch!r} is not a large branch")
    if not check_measure(t, m):
        raise InvalidMeasure("measure must satisfy switch conditions and be nonnegative")
    return _split(t, m, branch)


def _split(
    t: TrainTrack, m: Measure, branch: str
) -> tuple[TrainTrack, Measure, CarryingMatrix, SplitEvent]:
    # the measure update, on a large branch and a measure already checked
    diff = _weight_gap(t, m, branch)
    side = nf_sign(diff)
    event = SplitEvent(branch, _CASE[side])
    t2, elem = split_surgery(t, branch, event.case)
    weights = m.as_dict()
    if side == 0:
        del weights[branch]
    else:
        weights[branch] = diff if side > 0 else -diff
    return t2, Measure.of(m.field, weights), elem, event


def split_surgery(t: TrainTrack, branch: str, case: SplitCase) -> tuple[TrainTrack, CarryingMatrix]:
    """The surgery of a split of a large branch in the given case; no measure.

    Left and right splits rewire the two end switches, trading their cusps
    and marks, and keep every branch.  A central split deletes the branch
    and merges its end switches into the end-0 one, which keeps both cusp
    corners and the marks on them."""
    if not is_large_branch(t, branch):
        raise NotLargeBranch(f"branch {branch!r} is not a large branch")
    e0, e1 = BranchEnd(branch, 0), BranchEnd(branch, 1)
    u, v = t.switch_of(e0), t.switch_of(e1)
    P, Q = u.small_left, u.small_right
    R, T = v.small_left, v.small_right
    branches = t.branches
    cu, cv = CuspRef(u.name, 0), CuspRef(v.name, 0)
    moved = {cu: cv, cv: cu}
    if case is SplitCase.CENTRAL:
        branches = tuple(b for b in branches if b != branch)
        new = [Switch(u.name, ((T, R), (Q, P)))]
        corners = new[0].cusp_corners()
        moved = {cu: CuspRef(u.name, corners.index((Q, P))), cv: CuspRef(u.name, corners.index((T, R)))}
        row_ends = [R, T]
    elif case is SplitCase.LEFT:
        new = [Switch.trivalent(u.name, P, e0, T), Switch.trivalent(v.name, R, e1, Q)]
        row_ends = [e0, T, Q]
    else:
        new = [Switch.trivalent(u.name, Q, R, e0), Switch.trivalent(v.name, T, P, e1)]
        row_ends = [e0, P, R]
    switches = tuple(_replace_switches(t, {u.name, v.name}, new))
    t2 = TrainTrack(branches, switches, t.genus, _move_marks(t, moved))
    return t2, _elem_with_row(t, branches, branch, row_ends, track_id(t), track_id(t2))


def maximal_split(
    t: TrainTrack, m: Measure
) -> tuple[TrainTrack, Measure, CarryingMatrix, tuple[SplitEvent, ...]]:
    """Split every large branch whose weight equals the exact maximum."""
    if not check_measure(t, m):
        raise InvalidMeasure("measure must satisfy switch conditions and be nonnegative")
    if any(nf_sign(w) != 1 for _, w in m.weights):
        raise InvalidMeasure("maximal splitting needs a strictly positive measure")
    return _maximal_split(t, m)


def _maximal_split(
    t: TrainTrack, m: Measure
) -> tuple[TrainTrack, Measure, CarryingMatrix, tuple[SplitEvent, ...]]:
    # on a measure already checked: a split keeps the measure valid and
    # strictly positive, and the other tied branches large, as two large
    # branches share no switch
    cands = large_branches(t)
    if not cands:
        raise NoLargeBranch("track has no large branch")
    best = [cands[0]]
    for b in cands[1:]:
        s = nf_sign(m.weight(b) - m.weight(best[0]))
        if s > 0:
            best = [b]
        elif s == 0:
            best.append(b)
    best.sort()
    cur_t, cur_m, elem, ev = _split(t, m, best[0])
    events = [ev]
    for b in best[1:]:
        cur_t, cur_m, e, ev = _split(cur_t, cur_m, b)
        elem = incidence_compose(elem, e)
        events.append(ev)
    return cur_t, cur_m, elem, tuple(events)


# ---------------------------------------------------------------------------
# periodic splitting cycle detection


class ReplayMismatch(RuntimeError):
    """A cycle's recorded events are not the splits of its recorded period."""


@dataclass(frozen=True)
class AgolCycle:
    """One period of maximal splits, certified when it is built.

    Every event of events[k] is a left or right split of a large branch of
    period_tracks[k], in the case period_measures[k] decides.  Tied large
    branches share no switch, so each event of a group is read off the
    group's start.  Later stages trust the events and decide no split again.
    The period m, the period's prefix products and the cycle matrix are
    derived from the fields; the period is folded once, in
    `period_products`, which both the cycle matrix and `bounds` read.
    A cycle built with no `iso` carries its event certificate only, and
    reading its cycle matrix raises `ReplayMismatch`.
    """

    n: int
    iso: TrackIso  # later track -> earlier track
    lam: NFElement
    events: tuple[tuple[SplitEvent, ...], ...]  # one tuple per maximal split
    period_tracks: tuple[TrainTrack, ...]  # tau_n .. tau_{n+m}
    period_measures: tuple[Measure, ...]
    period_elems: tuple[CarryingMatrix, ...]

    def __post_init__(self):
        for t, mu, group in zip(self.period_tracks, self.period_measures, self.events):
            for ev in group:
                if ev.case is SplitCase.CENTRAL or not is_large_branch(t, ev.branch) or (
                    _CASE[nf_sign(_weight_gap(t, mu, ev.branch))] is not ev.case
                ):
                    raise ReplayMismatch(f"recorded period does not split {ev.branch} {ev.case.value}")

    @property
    def m(self) -> int:
        return len(self.events)

    @property
    def start_track(self) -> TrainTrack:
        return self.period_tracks[0]

    @cached_property
    def period_products(self) -> tuple[CarryingMatrix, ...]:
        """Prefix products of `period_elems`: entry k transports measures on
        period_tracks[k] back to the start track, entry 0 is the identity and
        entry m the whole period; m - 1 products in all."""
        return (CarryingMatrix.identity(self.start_track.branches),) + tuple(
            accumulate(self.period_elems, incidence_compose)
        )

    @cached_property
    def cycle_matrix(self) -> CarryingMatrix:
        """The period's product, closed by the isomorphism."""
        if self.iso is None:
            raise ReplayMismatch("the cycle records no closing isomorphism")
        close = CarryingMatrix.of_iso(self.period_tracks[-1], self.period_tracks[0], self.iso)
        return incidence_compose(self.period_products[-1], close)


def _state_point(m: Measure) -> dict[str, tuple[int, ...]]:
    """The projective point (w_b / sum of weights)_b, by branch, as its
    primitive positive integer multiple.

    Cleared to one common denominator, the weights are integer vectors
    n_b with sum S.  The first column a of the adjugate of S's
    multiplication matrix, d signed minors, satisfies S a = det, so each
    product n_b a is det times the point's coordinate w_b / sum.  The
    products sum to S a, whose constant coordinate is det, so that sum
    gives the sign without a determinant; divided by the gcd of all
    coordinates, signed so, they are the point's primitive positive
    multiple.  The point's coordinates sum to 1, which fixes the multiple,
    so it depends on the point alone.  No field element is built and
    nothing is inverted."""
    f = m.field
    den = lcm(*(w.den for _, w in m.weights))
    nums = [[c * (den // w.den) for c in w.num] for _, w in m.weights]
    mul = _mul_matrix(f, tuple(map(sum, zip(*nums))))
    adj = [(-1) ** i * _det_int([row[:i] + row[i + 1 :] for row in mul[1:]]) for i in range(len(mul))]
    vecs = [_mul_num(f, v, adj) for v in nums]
    det = sum(v[0] for v in vecs)
    if not det:  # only when the minimal polynomial is reducible
        raise DivisionByZero("weight sum is a zero divisor")
    g = gcd(*(c for v in vecs for c in v))
    if det < 0:
        g = -g
    return {b: tuple(c // g for c in v) for (b, _), v in zip(m.weights, vecs)}


def _state_key(t: TrainTrack, m: Measure, point: dict[str, tuple[int, ...]]):
    """The state's point as a sorted tuple of its coordinate vectors.

    Two states get equal keys exactly when their points, as multisets, are
    equal: the classes of the rational (num, den) pairs of w_b / sum.  A
    ribbon isomorphism only permutes branches, and a factor lambda cancels
    in the point, so projectively isomorphic states get equal keys.  The
    key builds no canonical form; equal keys only pick the candidates that
    `_match_states`, the one exact test, decides.  The track and measure
    go unread; they complete the state, so a finer key that reads them (a
    canonical form, say) fits the same call."""
    return tuple(sorted(point.values()))


def _match_states(
    t_new: TrainTrack,
    m_new: Measure,
    p_new: dict[str, tuple[int, ...]],
    t_old: TrainTrack,
    m_old: Measure,
    p_old: dict[str, tuple[int, ...]],
) -> Optional[tuple[TrackIso, NFElement]]:
    """Iso old <- new with m_old = lam * (m_new transported), lam > 1.

    An isomorphism matches exactly when p_old[iso(b)] == p_new[b] for every
    branch b: it is a bijection on branches, so it carries the weight sum
    of the new state onto that of the old, and equal points then mean
    m_old = lam * m_new with lam the ratio of the sums.  Only a match costs
    field arithmetic: lam by one division, and the sign of lam - 1."""
    b0 = t_new.branches[0]
    for iso in track_isomorphisms(t_new, t_old):
        if all(p_old[iso.branch_image(b)[0]] == p for b, p in p_new.items()):
            lam = m_old.weight(iso.branch_image(b0)[0]) / m_new.weight(b0)
            if nf_sign(lam - nf_const(lam.field, 1)) == 1:
                return iso, lam
    return None


def find_agol_cycle(t: TrainTrack, m: Measure, max_iters: int) -> AgolCycle:
    """Iterate maximal splits until a state repeats projectively.

    Returns the first recurrence (n, m) in iteration order together with the
    ribbon isomorphism, the stretch factor and the period's splits.
    Each state's integer point (`_state_point`) is computed once and kept.
    Earlier states are looked up by `_state_key`, a filter on the point
    only, equal exactly when the states' points w_b / sum are equal as
    multisets.  `_match_states` decides each candidate exactly on the two
    points, earliest first, so the key never changes which recurrence is
    found.
    """
    if set(m.names) != set(t.branches):
        raise FieldMismatch("measure branch set does not match track")
    if not check_measure(t, m):
        raise InvalidMeasure("measure must satisfy switch conditions exactly")
    if any(nf_sign(w) != 1 for _, w in m.weights):
        raise InvalidMeasure("cycle detection needs a strictly positive measure")

    tracks, measures, points = [t], [m], [_state_point(m)]
    elems: list[CarryingMatrix] = []  # elems[k]: m_k = elems[k] * m_{k+1}
    step_events: list[tuple[SplitEvent, ...]] = []
    seen: dict = {}
    seen.setdefault(_state_key(t, m, points[0]), []).append(0)

    for step in range(max_iters):
        try:
            t2, m2, elem, events = _maximal_split(tracks[-1], measures[-1])
        except NoLargeBranch as exc:
            raise NoCycleWithinBudget(f"splitting stalled after {step} steps: {exc}") from None
        point = _state_point(m2)
        tracks.append(t2)
        measures.append(m2)
        points.append(point)
        elems.append(elem)
        step_events.append(events)
        i = len(tracks) - 1
        key = _state_key(t2, m2, point)
        for j in seen.get(key, ()):
            hit = _match_states(t2, m2, point, tracks[j], measures[j], points[j])
            if hit is None:
                continue
            iso, lam = hit
            return AgolCycle(
                n=j,
                iso=iso,
                lam=lam,
                events=tuple(step_events[j:i]),
                period_tracks=tuple(tracks[j : i + 1]),
                period_measures=tuple(measures[j : i + 1]),
                period_elems=tuple(elems[j:i]),
            )
        seen.setdefault(key, []).append(i)
    raise NoCycleWithinBudget(f"no recurrence within {max_iters} maximal splits")

