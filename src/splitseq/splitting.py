"""Splitting, shifting, and folding moves, with exact carried-measure bookkeeping.

A large branch (both ends in large position) splits three ways depending on
the exact comparison of the two diagonal weights; the resulting track is
carried by the old one and the elementary incidence matrix transports the
new measure back: m_pre = elem * m_post, coordinatewise in Q(lambda).

Iterating maximal splits on a positive measure and hashing canonical forms
detects the eventual periodicity (preperiod n, period m, a ribbon
isomorphism, and a stretch factor lambda > 1).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .numberfield import NFElement, nf_const, nf_minpoly, nf_sign
from .traintrack import (
    BranchEnd,
    CuspRef,
    FieldMismatch,
    Measure,
    Switch,
    TrackIso,
    TrainTrack,
    canonical_form,
    check_measure,
    regions,
    serialize_track,
    track_isomorphisms,
)


class NotLargeBranch(ValueError):
    """Branch is not large (or not splittable) in this track."""


class InvalidMeasure(ValueError):
    """Measure fails switch conditions, nonnegativity, or positivity."""


class NotShiftable(ValueError):
    """Branch is not a mixed branch between two distinct trivalent switches."""


class NotFoldable(ValueError):
    """Event does not describe an unfoldable split of this track."""


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
    def identity(branches: tuple[str, ...], track: str = "") -> "CarryingMatrix":
        n = len(branches)
        ent = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return CarryingMatrix(branches, branches, ent, track, track)

    def entry(self, row: str, col: str) -> int:
        return self.entries[self.rows.index(row)][self.cols.index(col)]

    def apply(self, m: Measure) -> Measure:
        """Transport a measure on the later track to the earlier one."""
        if set(m.names) != set(self.cols):
            raise ChainMismatch("measure branches do not match matrix columns")
        zero = nf_const(m.field, 0)
        out = {}
        for i, r in enumerate(self.rows):
            acc = zero
            for j, c in enumerate(self.cols):
                k = self.entries[i][j]
                if k:
                    acc = acc + (m.weight(c) if k == 1 else nf_const(m.field, k) * m.weight(c))
            out[r] = acc
        return Measure.of(m.field, out)

    def column_sums(self) -> tuple[int, ...]:
        return tuple(sum(row[j] for row in self.entries) for j in range(len(self.cols)))


def incidence_compose(a: CarryingMatrix, b: CarryingMatrix) -> CarryingMatrix:
    """a then b along the chain: result transports b.source back to a.target."""
    if a.cols != b.rows:
        raise ChainMismatch("column labels of the first factor must equal row labels of the second")
    if a.source and b.target and a.source != b.target:
        raise ChainMismatch(f"chain breaks: {a.source} != {b.target}")
    bt = list(zip(*b.entries))
    ent = tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a.entries
    )
    return CarryingMatrix(a.rows, b.cols, ent, a.target, b.source)


def track_id(t: TrainTrack) -> str:
    return hashlib.blake2s(serialize_track(t).encode(), digest_size=4).hexdigest()


# ---------------------------------------------------------------------------
# move preconditions


def _is_large_end(sw: Switch, e: BranchEnd) -> bool:
    for side in sw.sides:
        if e in side:
            return len(side) == 1
    return False


def is_large_branch(t: TrainTrack, branch: str) -> bool:
    if branch not in t.branches:
        return False
    e0, e1 = BranchEnd(branch, 0), BranchEnd(branch, 1)
    u, v = t.switch_of(e0), t.switch_of(e1)
    return (
        u.name != v.name
        and u.is_generic
        and v.is_generic
        and _is_large_end(u, e0)
        and _is_large_end(v, e1)
    )


def large_branches(t: TrainTrack) -> tuple[str, ...]:
    return tuple(b for b in t.branches if is_large_branch(t, b))


# ---------------------------------------------------------------------------
# puncture mark transport (marks name a cusp in the punctured region)


def _flag_region(regs) -> dict[BranchEnd, int]:
    return {h: i for i, r in enumerate(regs) for h in r.boundary}


def _transport_marks(t_pre: TrainTrack, post_branches, post_switches, unstable: set[str]) -> tuple[str, ...]:
    if not t_pre.puncture_marks:
        return ()
    bare = TrainTrack(tuple(post_branches), tuple(post_switches), t_pre.genus)
    pre_regs, post_regs = regions(t_pre), regions(bare)
    pre_flag, post_flag = _flag_region(pre_regs), _flag_region(post_regs)
    cusp_region = {
        ref: i for i, r in enumerate(pre_regs) for ref in r.corner_cusps if ref
    }
    marks = []
    for name in t_pre.puncture_marks:
        pre_idx = next(i for ref, i in cusp_region.items() if ref.switch == name)
        stable = next(
            h for h in pre_regs[pre_idx].boundary if h.branch not in unstable
        )
        post_region = post_regs[post_flag[stable]]
        # prefer a switch whose every cusp lies in this region, so that the
        # name-based mark is unambiguous when reparsed
        cusps = sorted(post_region.cusps)
        here = {ref.switch for ref in cusps}
        best = None
        for ref in cusps:
            total = sum(1 for r in post_regs for c in r.cusps if c.switch == ref.switch)
            ours = sum(1 for c in post_region.cusps if c.switch == ref.switch)
            if total == ours:
                best = ref
                break
        marks.append((best or cusps[0]).switch)
    return tuple(marks)


# ---------------------------------------------------------------------------
# elementary moves


def _replace_switches(t: TrainTrack, drop: set[str], add: list[Switch]) -> list[Switch]:
    # keep list positions stable so inverse moves restore the exact tuple
    by_name = {sw.name: sw for sw in add}
    out: list[Switch] = []
    for sw in t.switches:
        if sw.name in drop:
            if sw.name in by_name:
                out.append(by_name.pop(sw.name))
        else:
            out.append(sw)
    return out


def _elem_with_row(t_pre, post_branches, branch, col_ends, tid_pre="", tid_post=""):
    rows, cols = t_pre.branches, tuple(post_branches)
    ent = []
    for b in rows:
        if b != branch:
            ent.append(tuple(int(b == c) for c in cols))
        else:
            counts = {c: 0 for c in cols}
            for e in col_ends:
                counts[e if isinstance(e, str) else e.branch] += 1
            ent.append(tuple(counts[c] for c in cols))
    return CarryingMatrix(rows, cols, tuple(ent), tid_pre, tid_post)


def split_case(t: TrainTrack, m: Measure, branch: str) -> Optional[SplitCase]:
    """The case a split of `branch` takes under `m`, or None if it is not large.

    Reads the sign of weight(P) - weight(T), P the small-left branch at
    end 0 and T the small-right branch at end 1; nothing is split.
    """
    if not is_large_branch(t, branch):
        return None
    u, v = t.switch_of(BranchEnd(branch, 0)), t.switch_of(BranchEnd(branch, 1))
    return _CASE[nf_sign(m.weight(u.small_left.branch) - m.weight(v.small_right.branch))]


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
    # the split itself, on a large branch and a measure already checked
    e0, e1 = BranchEnd(branch, 0), BranchEnd(branch, 1)
    u, v = t.switch_of(e0), t.switch_of(e1)
    P, Q = u.small_left, u.small_right
    R, T = v.small_left, v.small_right
    a, c = m.weight(P.branch), m.weight(T.branch)
    side = nf_sign(a - c)
    event = SplitEvent(branch, _CASE[side])

    weights = m.as_dict()
    if side == 0:
        merged = Switch(u.name, ((v.small_right, v.small_left), (u.small_right, u.small_left)))
        branches = tuple(b for b in t.branches if b != branch)
        switches = _replace_switches(t, {u.name, v.name}, [merged])
        del weights[branch]
        marks = _transport_marks(t, branches, switches, {branch})
        t2 = TrainTrack(branches, tuple(switches), t.genus, marks)
        m2 = Measure.of(m.field, weights)
        elem = _elem_with_row(t, branches, branch, [R, T], track_id(t), track_id(t2))
        return t2, m2, elem, event

    if side > 0:
        u2 = Switch.trivalent(u.name, P, e0, T)
        v2 = Switch.trivalent(v.name, R, e1, Q)
        weights[branch] = a - c
        row_ends = [e0, T, Q]
    else:
        u2 = Switch.trivalent(u.name, Q, R, e0)
        v2 = Switch.trivalent(v.name, T, P, e1)
        weights[branch] = c - a
        row_ends = [e0, P, R]
    switches = _replace_switches(t, {u.name, v.name}, [u2, v2])
    branches = t.branches
    marks = _transport_marks(t, branches, switches, {branch})
    t2 = TrainTrack(branches, tuple(switches), t.genus, marks)
    m2 = Measure.of(m.field, weights)
    elem = _elem_with_row(t, branches, branch, row_ends, track_id(t), track_id(t2))
    return t2, m2, elem, event


def shift(t: TrainTrack, branch: str) -> tuple[TrainTrack, CarryingMatrix]:
    """Slide the switch at the large end of a mixed branch past the other one."""
    if branch not in t.branches:
        raise NotShiftable(f"unknown branch {branch!r}")
    ends = [BranchEnd(branch, 0), BranchEnd(branch, 1)]
    sws = [t.switch_of(e) for e in ends]
    if sws[0].name == sws[1].name or not all(sw.is_generic for sw in sws):
        raise NotShiftable("shift needs a branch between two distinct trivalent switches")
    larges = [_is_large_end(sw, e) for sw, e in zip(sws, ends)]
    if larges.count(True) != 1:
        raise NotShiftable("shift needs exactly one large half-branch")
    k = larges.index(True)
    eL, eS = ends[k], ends[1 - k]
    u, v = sws[k], sws[1 - k]
    P, Q = u.small_left, u.small_right
    Lstar = v.large
    if eS == v.small_left:
        W = v.small_right
        n1 = Switch.trivalent(u.name, eL, Q, W)
        n2 = Switch.trivalent(v.name, Lstar, P, eS)
    else:
        W = v.small_left
        n1 = Switch.trivalent(u.name, eL, W, P)
        n2 = Switch.trivalent(v.name, Lstar, eS, Q)
    switches = _replace_switches(t, {u.name, v.name}, [n1, n2])
    marks = _transport_marks(t, t.branches, switches, {branch})
    t2 = TrainTrack(t.branches, tuple(switches), t.genus, marks)
    elem = _elem_with_row(t, t.branches, branch, [P, Q], track_id(t), track_id(t2))
    return t2, elem


def shift_measure(t: TrainTrack, m: Measure, branch: str) -> tuple[TrainTrack, Measure, CarryingMatrix]:
    """Shift plus the measure transport (inner-branch weight is resummed)."""
    if not check_measure(t, m):
        raise InvalidMeasure("measure must satisfy switch conditions and be nonnegative")
    t2, elem = shift(t, branch)
    inner = t2.switch_of(BranchEnd(branch, 0))
    if not _is_large_end(inner, BranchEnd(branch, 0)):
        inner = t2.switch_of(BranchEnd(branch, 1))
    weights = m.as_dict()
    weights[branch] = m.weight(inner.small_left.branch) + m.weight(inner.small_right.branch)
    return t2, Measure.of(m.field, weights), elem


def fold(t2: TrainTrack, m2: Measure, event: SplitEvent) -> tuple[TrainTrack, Measure]:
    """Undo a Left or Right split; the Central case is not measure-determined."""
    if event.case is SplitCase.CENTRAL:
        raise NotFoldable("central splits do not fold back")
    f = event.branch
    if f not in t2.branches:
        raise NotFoldable(f"unknown branch {f!r}")
    f0, f1 = BranchEnd(f, 0), BranchEnd(f, 1)
    u2, v2 = t2.switch_of(f0), t2.switch_of(f1)
    if u2.name == v2.name or not (u2.is_generic and v2.is_generic):
        raise NotFoldable("diagonal does not join two distinct trivalent switches")
    if event.case is SplitCase.LEFT:
        if u2.small_left != f0 or v2.small_left != f1:
            raise NotFoldable("track does not match a left split along this branch")
        P, T = u2.large, u2.small_right
        R, Q = v2.large, v2.small_right
    else:
        if u2.small_right != f0 or v2.small_right != f1:
            raise NotFoldable("track does not match a right split along this branch")
        Q, R = u2.large, u2.small_left
        T, P = v2.large, v2.small_left
    u = Switch.trivalent(u2.name, f0, P, Q)
    v = Switch.trivalent(v2.name, f1, R, T)
    switches = _replace_switches(t2, {u2.name, v2.name}, [u, v])
    marks = _transport_marks(t2, t2.branches, switches, {f})
    t = TrainTrack(t2.branches, tuple(switches), t2.genus, marks)
    weights = m2.as_dict()
    weights[f] = m2.weight(f) + m2.weight(T.branch) + m2.weight(Q.branch) \
        if event.case is SplitCase.LEFT \
        else m2.weight(f) + m2.weight(P.branch) + m2.weight(R.branch)
    m = Measure.of(m2.field, weights)
    if not check_measure(t, m):
        raise NotFoldable("folded measure violates switch conditions")
    return t, m


def maximal_split(
    t: TrainTrack, m: Measure
) -> tuple[TrainTrack, Measure, CarryingMatrix, tuple[SplitEvent, ...]]:
    """Split every large branch whose weight equals the exact maximum.

    The measure is checked once: splitting a tied branch keeps it valid and
    the other tied branches large, as two large branches share no switch."""
    if not check_measure(t, m):
        raise InvalidMeasure("measure must satisfy switch conditions and be nonnegative")
    if any(nf_sign(w) != 1 for _, w in m.weights):
        raise InvalidMeasure("maximal splitting needs a strictly positive measure")
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


@dataclass(frozen=True)
class AgolCycle:
    n: int
    m: int
    iso: TrackIso  # later track -> earlier track
    lam: NFElement
    cycle_matrix: CarryingMatrix
    events: tuple[tuple[SplitEvent, ...], ...]  # one tuple per maximal split
    period_tracks: tuple[TrainTrack, ...]  # tau_n .. tau_{n+m}
    period_measures: tuple[Measure, ...]
    period_elems: tuple[CarryingMatrix, ...]

    @property
    def start_track(self) -> TrainTrack:
        return self.period_tracks[0]

    @property
    def start_measure(self) -> Measure:
        return self.period_measures[0]


def _state_key(t: TrainTrack, m: Measure):
    """Canonical word plus the least projectivized measure over its labelings.

    The measure is scaled once, by 1/(sum of weights): the sum does not
    depend on the labeling, so projectively isomorphic states get equal
    keys.  `_match_states` stays the exact test."""
    word, labs = canonical_form(t)
    weights = [w for _, w in m.weights]
    scale = 1 / sum(weights[1:], weights[0])
    scaled = {b: w * scale for b, w in m.weights}
    key_vec = min(
        tuple(
            (scaled[b].num, scaled[b].den)
            for b in sorted(lab.branch_map, key=lambda b: lab.branch_map[b][0])
        )
        for lab in labs
    )
    return (word, key_vec)


def _match_states(
    t_new: TrainTrack, m_new: Measure, t_old: TrainTrack, m_old: Measure
) -> Optional[tuple[TrackIso, NFElement]]:
    """Iso old <- new with m_old = lam * (m_new transported), lam > 1."""
    for iso in track_isomorphisms(t_new, t_old):
        b0 = t_new.branches[0]
        lam = m_old.weight(iso.branch_image(b0)[0]) / m_new.weight(b0)
        if all(
            (m_old.weight(iso.branch_image(b)[0]) - lam * m_new.weight(b)).is_zero()
            for b in t_new.branches
        ):
            if nf_sign(lam - nf_const(lam.field, 1)) == 1:
                return iso, lam
    return None


def find_agol_cycle(t: TrainTrack, m: Measure, max_iters: int) -> AgolCycle:
    """Iterate maximal splits until a state repeats projectively.

    Returns the first recurrence (n, m) in iteration order together with the
    ribbon isomorphism, the stretch factor, and the period incidence matrix.
    """
    if set(m.names) != set(t.branches):
        raise FieldMismatch("measure branch set does not match track")
    if not check_measure(t, m):
        raise InvalidMeasure("measure must satisfy switch conditions exactly")
    if any(nf_sign(w) != 1 for _, w in m.weights):
        raise InvalidMeasure("cycle detection needs a strictly positive measure")

    tracks, measures = [t], [m]
    elems: list[CarryingMatrix] = []  # elems[k]: m_k = elems[k] * m_{k+1}
    step_events: list[tuple[SplitEvent, ...]] = []
    seen: dict = {}
    seen.setdefault(_state_key(t, m), []).append(0)

    for step in range(max_iters):
        try:
            t2, m2, elem, events = maximal_split(tracks[-1], measures[-1])
        except NoLargeBranch as exc:
            raise NoCycleWithinBudget(f"splitting stalled after {step} steps: {exc}") from None
        tracks.append(t2)
        measures.append(m2)
        elems.append(elem)
        step_events.append(events)
        i = len(tracks) - 1
        key = _state_key(t2, m2)
        for j in seen.get(key, ()):
            hit = _match_states(t2, m2, tracks[j], measures[j])
            if hit is None:
                continue
            iso, lam = hit
            period = elems[j]
            for k in range(j + 1, i):
                period = incidence_compose(period, elems[k])
            perm = CarryingMatrix(
                t2.branches,
                tracks[j].branches,
                tuple(
                    tuple(int(iso.branch_image(b)[0] == c) for c in tracks[j].branches)
                    for b in t2.branches
                ),
                track_id(t2),
                track_id(tracks[j]),
            )
            cycle = incidence_compose(period, perm)
            return AgolCycle(
                n=j,
                m=i - j,
                iso=iso,
                lam=lam,
                cycle_matrix=cycle,
                events=tuple(step_events[j:i]),
                period_tracks=tuple(tracks[j : i + 1]),
                period_measures=tuple(measures[j : i + 1]),
                period_elems=tuple(elems[j:i]),
            )
        seen.setdefault(key, []).append(i)
    raise NoCycleWithinBudget(f"no recurrence within {max_iters} maximal splits")


def cycle_report(c: AgolCycle) -> str:
    """Plain-text summary of a cycle for people to read; no stage parses it."""
    mono, iv = nf_minpoly(c.lam)
    lines = [
        f"cycle n={c.n} m={c.m}",
        "lambda minpoly = " + " ".join(str(x) for x in mono) + f" root in ({iv[0]}, {iv[1]})",
    ]
    for step in c.events:
        lines.append(
            "step " + " ".join(f"{ev.branch}:{ev.case.value}" for ev in step)
        )
    lines.append("period rows " + " ".join(c.cycle_matrix.rows))
    lines.append("period cols " + " ".join(c.cycle_matrix.cols))
    for b, row in zip(c.cycle_matrix.rows, c.cycle_matrix.entries):
        lines.append(f"period {b} = " + " ".join(str(x) for x in row))
    lines.append(
        "iso " + " ".join(
            f"{src}->{dst}.{flip}" for src, dst, flip in c.iso.branches
        )
    )
    return "\n".join(lines) + "\n"
