"""Ribbon-encoded train tracks on oriented surfaces, with exact measures.

A track is a graph with a ribbon structure at each switch: the ends incident
to a switch are split into two tangential sides, each listed in the
counterclockwise order in which a small circle around the switch meets them.
The full counterclockwise cyclic order at the switch is side_a followed by
side_b.  For a generic (trivalent) switch one side holds the large end and
the other holds (small_right, small_left); the cusp is the corner between
the two small ends.  Everything else - complementary regions, genus -
is derived from this data by face tracing, never stored in the track's
fields; each derived value is a cached property of the track.

Measures assign elements of a number field Q(lambda) to branches; switch
conditions and positivity are decided exactly.

`cover_track` lifts a measured track to a finite cover.  Maximal splitting is
local, so it commutes with lifting: a lifted torus cycle is a cycle again.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add, sub
from typing import NamedTuple, Optional, Sequence

from .numberfield import (
    NFElement,
    NumberField,
    _primitive,
    field_create,
    nf_element,
    nf_sign,
)


class ParseError(ValueError):
    def __init__(self, msg: str, line: int | None = None, col: int | None = None):
        loc = "" if line is None else f" (line {line}" + ("" if col is None else f", col {col}") + ")"
        super().__init__(msg + loc)
        self.line, self.col = line, col


class DanglingBranchEnd(ValueError):
    """A branch end is not attached to any switch slot."""


class SlotReuse(ValueError):
    """A branch end is attached to more than one switch slot."""


class NotFilling(ValueError):
    """Track has a complementary region violating the disk/cusp conditions."""


class NotGeneric(ValueError):
    """Operation requires a trivalent track."""


class FieldMismatch(ValueError):
    """Measure entries or tracks use different number fields or branch sets."""


class BranchEnd(NamedTuple):
    branch: str
    end: int  # 0 or 1

    def other(self) -> "BranchEnd":
        return BranchEnd(self.branch, 1 - self.end)

    def __str__(self) -> str:
        return f"{self.branch}.{self.end}"


@dataclass(frozen=True)
class Switch:
    """Two tangential sides of branch ends, each in counterclockwise order."""

    name: str
    sides: tuple[tuple[BranchEnd, ...], tuple[BranchEnd, ...]]

    def __post_init__(self):
        a, b = self.sides
        if len(a) + len(b) < 3 or not a or not b:
            raise ValueError(f"switch {self.name} needs >= 3 ends, both sides nonempty")
        object.__setattr__(self, "sides", tuple(sorted((tuple(a), tuple(b)))))

    @staticmethod
    def trivalent(name: str, large: BranchEnd, small_left: BranchEnd, small_right: BranchEnd) -> "Switch":
        # ccw order around the switch is [large, small_right, small_left]
        return Switch(name, ((large,), (small_right, small_left)))

    @property
    def valence(self) -> int:
        return len(self.sides[0]) + len(self.sides[1])

    @property
    def is_generic(self) -> bool:
        return self.valence == 3

    def _small_side(self) -> tuple[BranchEnd, ...]:
        return self.sides[0] if len(self.sides[0]) == 2 else self.sides[1]

    @property
    def large(self) -> BranchEnd:
        if not self.is_generic:
            raise NotGeneric(f"switch {self.name} is not trivalent")
        return self.sides[0][0] if len(self.sides[0]) == 1 else self.sides[1][0]

    @property
    def small_right(self) -> BranchEnd:
        if not self.is_generic:
            raise NotGeneric(f"switch {self.name} is not trivalent")
        return self._small_side()[0]

    @property
    def small_left(self) -> BranchEnd:
        if not self.is_generic:
            raise NotGeneric(f"switch {self.name} is not trivalent")
        return self._small_side()[1]

    def ccw(self) -> tuple[BranchEnd, ...]:
        return self.sides[0] + self.sides[1]

    def cusp_corners(self) -> tuple[tuple[BranchEnd, BranchEnd], ...]:
        """Corners between same-side neighbors, in cyclic word order."""
        word = self.ccw()
        na = len(self.sides[0])
        out = []
        for i in range(len(word)):
            j = (i + 1) % len(word)
            if j != na and j != 0:  # not crossing a side boundary
                out.append((word[i], word[j]))
        return tuple(out)


class CuspRef(NamedTuple):
    """One cusp: a switch and a position in its cusp_corners(), which a
    split keeps or moves together with the corner."""

    switch: str
    index: int


@dataclass(frozen=True)
class TrainTrack:
    branches: tuple[str, ...]
    switches: tuple[Switch, ...]
    genus: int
    puncture_marks: tuple[CuspRef, ...] = ()  # each names a cusp whose region is punctured

    def __post_init__(self):
        seen: dict[BranchEnd, str] = {}
        declared = set(self.branches)
        if len(declared) != len(self.branches):
            raise ParseError(f"branch {max(self.branches, key=self.branches.count)} is declared twice")
        cusps: dict[str, int] = {}  # switch name -> number of cusp corners
        for sw in self.switches:
            if sw.name in cusps:
                raise ParseError(f"switch {sw.name} is declared twice")
            cusps[sw.name] = sw.valence - 2
            for e in sw.ccw():
                if e.branch not in declared:
                    raise ParseError(f"switch {sw.name} uses undeclared branch {e.branch}")
                if e in seen:
                    raise SlotReuse(f"branch end {e} attached at both {seen[e]} and {sw.name}")
                seen[e] = sw.name
        for b in self.branches:
            for end in (0, 1):
                if BranchEnd(b, end) not in seen:
                    raise DanglingBranchEnd(f"branch end {b}.{end} is not attached")
        for name, index in self.puncture_marks:
            if not 0 <= index < cusps.get(name, 0):
                raise ParseError(f"puncture mark names no cusp: switch {name}, index {index}")

    # -- basic counts -----------------------------------------------------
    @property
    def s(self) -> int:
        return len(self.switches)

    @property
    def l(self) -> int:
        return len(self.branches)

    @property
    def is_generic(self) -> bool:
        return all(sw.is_generic for sw in self.switches)

    def switch_of(self, e: BranchEnd) -> Switch:
        return self._end_to_switch[e]

    @cached_property
    def _end_to_switch(self) -> dict[BranchEnd, Switch]:
        return {e: sw for sw in self.switches for e in sw.ccw()}

    @cached_property
    def large_set(self) -> frozenset[str]:
        """The large branches: both ends are the large ends of trivalent
        switches, necessarily two different ones.  One pass over the switches."""
        ends = {sw.large for sw in self.switches if sw.is_generic}
        return frozenset(e.branch for e in ends if e.end == 0 and e.other() in ends)

    @cached_property
    def track_id(self) -> str:
        """Short hash of the track's text."""
        return hashlib.blake2s(serialize_track(self).encode(), digest_size=4).hexdigest()

    @cached_property
    def _regions(self) -> tuple[Region, ...]:
        return _trace_regions(self)

    @cached_property
    def _canonical_form(self) -> tuple[tuple, tuple[Labeling, ...]]:
        return _minimal_words(self)

    def ccw_next(self, e: BranchEnd) -> BranchEnd:
        word = self.switch_of(e).ccw()
        return word[(word.index(e) + 1) % len(word)]


@dataclass(frozen=True)
class Measure:
    field: NumberField
    weights: tuple[tuple[str, NFElement], ...]  # sorted by branch name

    def __post_init__(self):
        for _, w in self.weights:
            if w.field != self.field:
                raise FieldMismatch("measure entries live in different fields")
        object.__setattr__(self, "weights", tuple(sorted(self.weights)))

    @staticmethod
    def of(field: NumberField, mapping: dict[str, NFElement]) -> "Measure":
        return Measure(field, tuple(sorted(mapping.items())))

    def weight(self, branch: str) -> NFElement:
        for b, w in self.weights:
            if b == branch:
                return w
        raise KeyError(branch)

    def as_dict(self) -> dict[str, NFElement]:
        return dict(self.weights)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(b for b, _ in self.weights)


# ---------------------------------------------------------------------------
# face tracing


@dataclass(frozen=True)
class Region:
    """One complementary region, traced counterclockwise along its boundary.

    boundary[k] is the half-branch the trace arrives along; corner_cusps[k]
    names the switch corner passed right after it (None for a smooth corner).
    """

    boundary: tuple[BranchEnd, ...]
    corner_cusps: tuple[Optional[CuspRef], ...]
    punctured: bool

    @property
    def cusp_count(self) -> int:
        return sum(1 for c in self.corner_cusps if c is not None)

    @property
    def cusps(self) -> tuple[CuspRef, ...]:
        return tuple(c for c in self.corner_cusps if c is not None)


def _rotate_min(boundary, corners):
    # corners[k] is a function of boundary[k], so keying on boundary suffices
    n = len(boundary)
    best = min(range(n), key=lambda r: boundary[r:] + boundary[:r])
    return boundary[best:] + boundary[:best], corners[best:] + corners[:best]


def regions(t: TrainTrack) -> tuple[Region, ...]:
    """Orbit decomposition of arrival half-branches under the face map.

    Traced once per track, as the track's cached `_regions`."""
    return t._regions


def _trace_regions(t: TrainTrack) -> tuple[Region, ...]:
    cusp_lookup: dict[tuple[BranchEnd, BranchEnd], CuspRef] = {}
    for sw in t.switches:
        for i, corner in enumerate(sw.cusp_corners()):
            cusp_lookup[corner] = CuspRef(sw.name, i)

    marks = set(t.puncture_marks)
    all_ends = [BranchEnd(b, e) for b in t.branches for e in (0, 1)]
    seen: set[BranchEnd] = set()
    out = []
    for start in all_ends:
        if start in seen:
            continue
        boundary: list[BranchEnd] = []
        corners: list[Optional[CuspRef]] = []
        h = start
        while True:
            boundary.append(h)
            seen.add(h)
            n = t.ccw_next(h)
            corners.append(cusp_lookup.get((h, n)))
            h = n.other()
            if h == start:
                break
        b, c = _rotate_min(tuple(boundary), tuple(corners))
        out.append(Region(b, c, not marks.isdisjoint(c)))
    return tuple(sorted(out, key=lambda r: r.boundary))


def derived_genus(t: TrainTrack) -> int:
    kappa = len(regions(t))
    chi = t.s - t.l + kappa
    if chi % 2:
        raise ValueError("non-orientable gluing; ribbon data inconsistent")
    return (2 - chi) // 2


def cover_track(t: TrainTrack, m: Measure, perms: dict[str, Sequence[int]]) -> tuple[TrainTrack, Measure]:
    """The connected cover in which branch ``x{i}`` runs from switch copies
    ``w{i}`` at its end 0 to ``w{perms[x][i]}`` at its end 1, with x's weight.
    A lifted region is punctured when the region below it is, and it is
    marked by its first cusp."""
    d = len(next(iter(perms.values()), ()))
    if set(perms) != set(t.branches) or any(sorted(p) != list(range(d)) for p in perms.values()):
        raise ValueError(f"need one permutation of range({d}) per branch")
    base = {f"{x}{i}": x for x in t.branches for i in range(d)}

    def lift(e: BranchEnd, j: int) -> BranchEnd:
        return BranchEnd(f"{e.branch}{j if e.end == 0 else perms[e.branch].index(j)}", e.end)

    switches = tuple(
        Switch(f"{sw.name}{j}", tuple(tuple(lift(e, j) for e in side) for side in sw.sides))
        for sw in t.switches
        for j in range(d)
    )
    lifted = TrainTrack(tuple(base), switches, 0)
    if not _connected(lifted):
        raise ValueError("the cover is not connected")
    over = {lift(h, j) for r in regions(t) if r.punctured for h in r.boundary for j in range(d)}
    marks = tuple(r.cusps[0] for r in regions(lifted) if r.boundary[0] in over)
    cover = TrainTrack(lifted.branches, switches, derived_genus(lifted), marks)
    return cover, Measure.of(m.field, {x: m.weight(b) for x, b in base.items()})


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    generic: bool
    filling: bool
    switch_conditions: Optional[bool]
    positive: Optional[bool]
    recurrent: bool
    euler_ok: bool
    genus: int
    s: int
    l: int
    kappa: int
    problems: tuple[str, ...] = ()

    @property
    def all_ok(self) -> bool:
        flags = [self.generic, self.filling, self.recurrent, self.euler_ok]
        flags += [f for f in (self.switch_conditions, self.positive) if f is not None]
        return all(flags) and not self.problems


def _connected(t: TrainTrack) -> bool:
    if not t.switches:
        return False
    adj: dict[str, set[str]] = {sw.name: set() for sw in t.switches}
    for b in t.branches:
        s0 = t.switch_of(BranchEnd(b, 0)).name
        s1 = t.switch_of(BranchEnd(b, 1)).name
        adj[s0].add(s1)
        adj[s1].add(s0)
    stack, seen = [t.switches[0].name], {t.switches[0].name}
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(t.switches)


def switch_condition_holds(t: TrainTrack, m: Measure) -> bool:
    """At every switch the weights on its two sides have equal sums.

    Each weight is written as an integer coordinate vector over the
    weights' one common denominator, so a switch's two sums are integer
    vector sums and their difference is zero exactly when it is zero in
    Q(lambda).
    """
    if set(m.names) != set(t.branches):
        raise FieldMismatch("measure branch set does not match track")
    den = lcm(*(w.den for _, w in m.weights))
    vec = {b: [c * (den // w.den) for c in w.num] for b, w in m.weights}
    for sw in t.switches:
        side_a, side_b = sw.sides
        total = [0] * m.field.degree
        for e in side_a:
            total = list(map(add, total, vec[e.branch]))
        for e in side_b:
            total = list(map(sub, total, vec[e.branch]))
        if any(total):
            return False
    return True


def check_measure(t: TrainTrack, m: Measure) -> bool:
    """Switch conditions hold exactly and all weights are nonnegative."""
    if not switch_condition_holds(t, m):
        return False
    return all(nf_sign(w) >= 0 for _, w in m.weights)


def switch_coefficients(t: TrainTrack) -> list[list[int]]:
    """One row per switch: net occurrence count of each branch, side a minus b."""
    idx = {b: j for j, b in enumerate(t.branches)}
    rows = []
    for sw in t.switches:
        row = [0] * t.l
        for e in sw.sides[0]:
            row[idx[e.branch]] += 1
        for e in sw.sides[1]:
            row[idx[e.branch]] -= 1
        rows.append(row)
    return rows


def feasible_point(rows: Sequence[Sequence], n: int) -> Optional[list[Fraction]]:
    """Some exact x with rows*x = 0 and every coordinate >= 1, else None.

    Phase-1 simplex with Bland's rule, so it terminates and gives the same
    answer every run.  The tableau is fraction-free: each row is a positive
    integer multiple of the rational tableau's row, cut by its gcd after
    every pivot, and the reduced costs are one more such row.  Positive
    multiples keep every sign, and a ratio is compared by cross-multiplying,
    so the pivots, and the point, are the rational simplex's.  Rows may hold
    Fractions; each is cleared of denominators by a positive factor first.
    """
    # substitute y = x - 1 >= 0, flip rows until the right side is >= 0;
    # row i is [A_i | e_i | b_i] times s_i > 0, so its basic column reads s_i
    m = len(rows)
    tab = []
    for i, row in enumerate(rows):
        b = -sum(row)
        sign = -1 if b < 0 else 1
        tab.append(_primitive([sign * c for c in row] + [int(k == i) for k in range(m)] + [sign * b]))
    basis = [n + i for i in range(m)]
    # the phase-1 objective row, cost minus the basic rows' sum, scaled to
    # integers by the common multiple of the scales
    scale = lcm(*(r[n + i] for i, r in enumerate(tab)))
    z = [0] * n + [scale] * m + [0]
    for i, r in enumerate(tab):
        f = scale // r[n + i]
        z = [c - f * x for c, x in zip(z, r)]
    z = _primitive(z)
    while True:
        enter = next((j for j in range(n + m) if z[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            if tab[i][enter] > 0:
                if leave is None:
                    leave = i
                    continue
                lhs, rhs = tab[i][-1] * tab[leave][enter], tab[leave][-1] * tab[i][enter]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return None  # phase-1 objective is bounded, so this cannot happen
        prow = tab[leave]
        piv = prow[enter]
        for i in range(m):
            f = tab[i][enter]
            if i != leave and f != 0:
                tab[i] = _primitive([piv * c - f * p for c, p in zip(tab[i], prow)])
        f = z[enter]
        z = _primitive([piv * c - f * p for c, p in zip(z, prow)])
        basis[leave] = enter
    if z[-1] != 0:
        return None
    x = [Fraction(1)] * n
    for r, j in zip(tab, basis):
        if j < n:
            x[j] += Fraction(r[-1], r[j])
    return x


def is_recurrent(t: TrainTrack) -> bool:
    """Exact feasibility of the switch conditions inside the positive orthant."""
    if not t.branches:
        return False
    return feasible_point(switch_coefficients(t), t.l) is not None


def _region_conditions(regs: tuple[Region, ...]) -> tuple[bool, list[str]]:
    # disk regions need >= 3 cusps, once-punctured disks >= 1
    problems = []
    for i, r in enumerate(regs):
        if r.punctured:
            if r.cusp_count < 1:
                problems.append(f"region {i}: punctured disk with no cusp")
        else:
            if r.cusp_count < 3:
                problems.append(f"region {i}: unpunctured {r.cusp_count}-cusped disk")
    return not problems, problems


def validate(t: TrainTrack, m: Optional[Measure] = None) -> ValidationReport:
    problems: list[str] = []
    if not _connected(t):
        problems.append("track is not connected")
    regs = regions(t)
    kappa = len(regs)
    chi = t.s - t.l + kappa
    genus = (2 - chi) // 2 if chi % 2 == 0 else -1
    if chi % 2:
        problems.append("odd Euler characteristic; ribbon data inconsistent")
    euler_ok = genus == t.genus and chi % 2 == 0
    if not euler_ok:
        problems.append(f"derived genus {genus} != declared genus {t.genus}")
    filling, region_problems = _region_conditions(regs)
    problems.extend(region_problems)
    placed = sum(1 for r in regs if r.punctured)
    if placed != len(t.puncture_marks):
        problems.append(
            f"declared {len(t.puncture_marks)} punctures but {placed} placed in distinct regions"
        )
    generic = t.is_generic

    switch_ok = positive = None
    if m is not None:
        switch_ok = switch_condition_holds(t, m)
        signs = [nf_sign(w) for _, w in m.weights]
        positive = all(s == 1 for s in signs)
        if any(s == -1 for s in signs):
            problems.append("measure has a negative weight")

    recurrent = is_recurrent(t)
    return ValidationReport(
        generic=generic,
        filling=filling,
        switch_conditions=switch_ok,
        positive=positive,
        recurrent=recurrent,
        euler_ok=euler_ok,
        genus=genus if chi % 2 == 0 else t.genus,
        s=t.s,
        l=t.l,
        kappa=kappa,
        problems=tuple(problems),
    )


# ---------------------------------------------------------------------------
# file format


_FIELD_RE = re.compile(
    r"^field\s+minpoly\s*=\s*(?P<coeffs>[-\d\s/]+?)\s+root\s+in\s*\(\s*(?P<lo>[-\d/]+)\s*,\s*(?P<hi>[-\d/]+)\s*\)\s*$"
)
_SWITCH_RE = re.compile(
    r"^switch\s+(?P<name>\S+)\s*:\s*large\s*=\s*(?P<large>\S+)\s+small_left\s*=\s*(?P<sl>\S+)\s+small_right\s*=\s*(?P<sr>\S+)\s*$"
)
_GENERAL_SWITCH_RE = re.compile(
    r"^switch\s+(?P<name>\S+)\s*:\s*side_a\s*=\s*(?P<a>\S+)\s+side_b\s*=\s*(?P<b>\S+)\s*$"
)
_MEASURE_RE = re.compile(r"^measure\s+(?P<branch>\S+)\s*=\s*\((?P<coeffs>[^)]*)\)\s*$")
_HEADER_RE = re.compile(r"^surface\s+genus\s*=\s*(?P<g>\d+)\s+punctures\s*=\s*(?P<p>\d+)\s*$")
_PUNCTURE_RE = re.compile(
    r"^puncture\s+in\s+region\s+containing\s+cusp\s+(?P<switch>\S+)(?:\s+(?P<index>\d+))?\s*$"
)


def _parse_end(token: str, lineno: int) -> BranchEnd:
    mm = re.fullmatch(r"(?P<b>[^.\s]+)\.(?P<e>[01])", token)
    if not mm:
        raise ParseError(f"bad branch end {token!r}", lineno)
    return BranchEnd(mm.group("b"), int(mm.group("e")))


def parse_track(text: str) -> tuple[TrainTrack, Optional[Measure]]:
    genus = punctures = None
    branches: list[str] = []
    switches: list[Switch] = []
    fld: Optional[NumberField] = None
    raw_measure: dict[str, NFElement] = {}
    marks: list[CuspRef] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if m := _HEADER_RE.match(line):
            genus, punctures = int(m.group("g")), int(m.group("p"))
            continue
        if line.startswith("branch "):
            name = line.split(None, 1)[1].strip()
            if not re.fullmatch(r"[^.\s]+", name):
                raise ParseError(f"bad branch name {name!r}", lineno)
            if name in branches:
                raise ParseError(f"branch {name} declared twice", lineno)
            branches.append(name)
            continue
        if m := _SWITCH_RE.match(line):
            switches.append(
                Switch.trivalent(
                    m.group("name"),
                    _parse_end(m.group("large"), lineno),
                    _parse_end(m.group("sl"), lineno),
                    _parse_end(m.group("sr"), lineno),
                )
            )
            continue
        if m := _GENERAL_SWITCH_RE.match(line):
            side_a = tuple(_parse_end(tk, lineno) for tk in m.group("a").split(","))
            side_b = tuple(_parse_end(tk, lineno) for tk in m.group("b").split(","))
            switches.append(Switch(m.group("name"), (side_a, side_b)))
            continue
        if m := _FIELD_RE.match(line):
            try:
                coeffs = [int(c) for c in m.group("coeffs").split()]
                lo, hi = Fraction(m.group("lo")), Fraction(m.group("hi"))
            except ValueError as exc:
                raise ParseError(f"bad field literal: {exc}", lineno) from None
            fld = field_create(coeffs, (lo, hi))
            continue
        if m := _MEASURE_RE.match(line):
            if fld is None:
                raise ParseError("measure line before field declaration", lineno)
            entries = [c.strip() for c in m.group("coeffs").split(",")]
            try:
                vec = [Fraction(c) for c in entries if c]
            except ValueError as exc:
                raise ParseError(f"bad rational in measure: {exc}", lineno) from None
            if len(vec) != fld.degree:
                raise ParseError(
                    f"measure vector length {len(vec)} != field degree {fld.degree}", lineno
                )
            name = m.group("branch")
            if name in raw_measure:
                raise ParseError(f"measure for branch {name} given twice", lineno)
            raw_measure[name] = nf_element(fld, vec)
            continue
        if m := _PUNCTURE_RE.match(line):
            marks.append(CuspRef(m.group("switch"), int(m.group("index") or 0)))
            continue
        raise ParseError(f"unrecognized line: {line!r}", lineno)

    if genus is None:
        raise ParseError("missing surface header")
    if punctures != len(marks):
        raise ParseError(
            f"header declares {punctures} punctures but {len(marks)} placement lines found"
        )
    track = TrainTrack(tuple(branches), tuple(switches), genus, tuple(marks))
    measure = None
    if raw_measure:
        missing = set(branches) - set(raw_measure)
        if missing:
            raise ParseError(f"measure missing branches: {sorted(missing)}")
        unknown = set(raw_measure) - set(branches)
        if unknown:
            raise ParseError(f"measure names undeclared branches: {sorted(unknown)}")
        measure = Measure.of(fld, raw_measure)  # a measure line needs the field first
    return track, measure


def serialize_track(t: TrainTrack, m: Optional[Measure] = None) -> str:
    lines = [f"surface genus={t.genus} punctures={len(t.puncture_marks)}"]
    for b in t.branches:
        lines.append(f"branch {b}")
    for sw in t.switches:
        if sw.is_generic:
            lines.append(
                f"switch {sw.name}: large={sw.large} small_left={sw.small_left} "
                f"small_right={sw.small_right}"
            )
        else:
            a, b = sw.sides
            lines.append(
                f"switch {sw.name}: side_a={','.join(map(str, a))} "
                f"side_b={','.join(map(str, b))}"
            )
    if m is not None:
        coeffs = " ".join(str(c) for c in m.field.minpoly)
        lo, hi = m.field.root_interval
        lines.append(f"field minpoly = {coeffs} root in ({lo}, {hi})")
        for b in t.branches:
            vec = ", ".join(str(c) for c in m.weight(b).coeffs)
            lines.append(f"measure {b} = ({vec})")
    for name, index in t.puncture_marks:
        lines.append(f"puncture in region containing cusp {name}" + (f" {index}" if index else ""))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# canonical form and isomorphisms of the decorated ribbon graph


@dataclass(frozen=True)
class Labeling:
    """Canonical relabeling: branch -> (index, end flip), switch -> index."""

    branch_map: dict[str, tuple[int, int]]
    switch_map: dict[str, int]


def _emit(t: TrainTrack, start: BranchEnd):
    """Canonical word for the BFS started by arriving along `start`."""
    branch_map: dict[str, tuple[int, int]] = {}
    switch_map: dict[str, int] = {}
    word: list = []
    # the corner after an end lies in the region whose boundary holds that end
    punctured = {h for r in regions(t) if r.punctured for h in r.boundary}

    def blabel(e: BranchEnd) -> tuple[int, int]:
        if e.branch not in branch_map:
            branch_map[e.branch] = (len(branch_map), e.end)
        idx, flip = branch_map[e.branch]
        return (idx, e.end ^ flip)

    queue: list[BranchEnd] = [start]
    qi = 0
    while qi < len(queue):
        entry = queue[qi]
        qi += 1
        sw = t.switch_of(entry)
        if sw.name in switch_map:
            continue
        switch_map[sw.name] = len(switch_map)
        ccw = sw.ccw()
        k = ccw.index(entry)
        seq = ccw[k:] + ccw[:k]
        na = len(sw.sides[0])
        # corner after position i (unrotated): 0 smooth, 1 cusp, 2 cusp of a punctured region
        for off, e in enumerate(seq):
            i = (k + off) % len(ccw)
            j = (i + 1) % len(ccw)
            cusp = 0 if j in (na, 0) else 2 if e in punctured else 1
            word.append((*blabel(e), cusp))
            queue.append(e.other())
    if len(switch_map) != t.s:
        raise ValueError("track is not connected")
    return tuple(word), Labeling(branch_map, switch_map)


def canonical_form(t: TrainTrack) -> tuple[tuple, tuple[Labeling, ...]]:
    """Lexicographically minimal BFS word over all starting flags, with labelings.

    Computed once per track, as the track's cached `_canonical_form`."""
    return t._canonical_form


def _minimal_words(t: TrainTrack) -> tuple[tuple, tuple[Labeling, ...]]:
    if not t.branches:
        raise ValueError("track has no branches")
    best_word = None
    labelings: list[Labeling] = []
    for b in t.branches:
        for end in (0, 1):
            word, lab = _emit(t, BranchEnd(b, end))
            if best_word is None or word < best_word:
                best_word, labelings = word, [lab]
            elif word == best_word:
                labelings.append(lab)
    return best_word, tuple(labelings)


@dataclass(frozen=True)
class TrackIso:
    """Ribbon isomorphism: branch -> (image branch, end flip), switch -> switch."""

    branches: tuple[tuple[str, str, int], ...]
    switches: tuple[tuple[str, str], ...]

    def branch_image(self, b: str) -> tuple[str, int]:
        for src, dst, flip in self.branches:
            if src == b:
                return dst, flip
        raise KeyError(b)

    def end_image(self, e: BranchEnd) -> BranchEnd:
        dst, flip = self.branch_image(e.branch)
        return BranchEnd(dst, e.end ^ flip)


def track_isomorphisms(t1: TrainTrack, t2: TrainTrack) -> list[TrackIso]:
    """All ribbon isomorphisms t1 -> t2 (orientation-preserving), punctures to punctures."""
    w1, labs1 = canonical_form(t1)
    w2, labs2 = canonical_form(t2)
    if w1 != w2:
        return []
    lab1 = labs1[0]
    inv_b1 = {v: k for k, v in lab1.branch_map.items()}  # (idx, flip) -> branch
    inv_s1 = {v: k for k, v in lab1.switch_map.items()}
    # each labelling of t2 starts at a different branch end, so no two
    # composed isomorphisms agree
    out = []
    for lab2 in labs2:
        inv_b2 = {idx: (b, flip) for b, (idx, flip) in lab2.branch_map.items()}
        inv_s2 = {idx: s for s, idx in lab2.switch_map.items()}
        branches = []
        for b1, (idx, flip1) in lab1.branch_map.items():
            b2, flip2 = inv_b2[idx]
            branches.append((b1, b2, flip1 ^ flip2))
        switches = tuple(
            sorted((s1, inv_s2[idx]) for s1, idx in lab1.switch_map.items())
        )
        out.append(TrackIso(tuple(sorted(branches)), switches))
    return out
