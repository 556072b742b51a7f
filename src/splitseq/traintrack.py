"""Ribbon-encoded train tracks on oriented surfaces, with exact measures.

A track is a graph with a ribbon structure at each switch: the ends incident
to a switch are split into two tangential sides, each listed in the
counterclockwise order in which a small circle around the switch meets them.
The full counterclockwise cyclic order at the switch is side_a followed by
side_b.  For a generic (trivalent) switch one side holds the large end and
the other holds (small_right, small_left); the cusp is the corner between
the two small ends.  Everything else - complementary regions, genus, the
dual triangulation, diagonal extensions - is derived from this data by face
tracing, never stored redundantly.

Measures assign elements of a number field Q(lambda) to branches; switch
conditions and positivity are decided exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .numberfield import (
    NFElement,
    NumberField,
    field_create,
    nf_const,
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
    switch: str
    index: int  # position within the switch's cusp_corners()


@dataclass(frozen=True)
class TrainTrack:
    branches: tuple[str, ...]
    switches: tuple[Switch, ...]
    genus: int
    puncture_marks: tuple[str, ...] = ()  # switch names; the cusp's region is punctured

    def __post_init__(self):
        seen: dict[BranchEnd, str] = {}
        declared = set(self.branches)
        for sw in self.switches:
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
        return self._end_to_switch()[e]

    def _end_to_switch(self) -> dict[BranchEnd, Switch]:
        cache = getattr(self, "_e2s", None)
        if cache is None:
            cache = {e: sw for sw in self.switches for e in sw.ccw()}
            object.__setattr__(self, "_e2s", cache)
        return cache

    def switch_named(self, name: str) -> Switch:
        for sw in self.switches:
            if sw.name == name:
                return sw
        raise KeyError(name)

    def ccw_next(self, e: BranchEnd) -> BranchEnd:
        word = self.switch_of(e).ccw()
        return word[(word.index(e) + 1) % len(word)]

    def cusps(self) -> tuple[CuspRef, ...]:
        return tuple(
            CuspRef(sw.name, i)
            for sw in self.switches
            for i in range(len(sw.cusp_corners()))
        )


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

    def edges(self) -> tuple[tuple[BranchEnd, ...], ...]:
        """Maximal smooth arcs: runs of boundary steps between cusps."""
        n = len(self.boundary)
        if self.cusp_count == 0:
            return (self.boundary,)
        cusp_pos = [k for k in range(n) if self.corner_cusps[k] is not None]
        out = []
        for a, b in zip(cusp_pos, cusp_pos[1:] + [cusp_pos[0] + n]):
            out.append(tuple(self.boundary[(k + 1) % n] for k in range(a, b)))
        return tuple(out)


def _rotate_min(boundary, corners):
    # corners[k] is a function of boundary[k], so keying on boundary suffices
    n = len(boundary)
    best = min(range(n), key=lambda r: boundary[r:] + boundary[:r])
    return boundary[best:] + boundary[:best], corners[best:] + corners[:best]


def regions(t: TrainTrack) -> tuple[Region, ...]:
    """Orbit decomposition of arrival half-branches under the face map."""
    cusp_lookup: dict[tuple[BranchEnd, BranchEnd], CuspRef] = {}
    for sw in t.switches:
        for i, corner in enumerate(sw.cusp_corners()):
            cusp_lookup[corner] = CuspRef(sw.name, i)

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
        out.append((b, c))

    marks = list(t.puncture_marks)
    built = []
    for b, c in out:
        cusp_switches = [ref.switch for ref in c if ref is not None]
        punct = False
        for name in list(marks):
            if name in cusp_switches:
                marks.remove(name)
                punct = True
                break
        built.append(Region(b, c, punct))
    # any left-over marks name switches whose cusp region already got one;
    # validate() reports this, here we drop them silently
    return tuple(sorted(built, key=lambda r: r.boundary))


def derived_genus(t: TrainTrack) -> int:
    kappa = len(regions(t))
    chi = t.s - t.l + kappa
    if chi % 2:
        raise ValueError("non-orientable gluing; ribbon data inconsistent")
    return (2 - chi) // 2


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
    if set(m.names) != set(t.branches):
        raise FieldMismatch("measure branch set does not match track")
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

    Phase-1 simplex over Fractions with Bland's rule, so it terminates and
    gives the same answer every run.
    """
    # substitute y = x - 1 >= 0, flip rows until the right side is >= 0
    A = [[Fraction(c) for c in row] for row in rows]
    b = [-sum(row) for row in A]
    for i in range(len(A)):
        if b[i] < 0:
            A[i] = [-c for c in A[i]]
            b[i] = -b[i]
    m = len(A)
    tab = [A[i] + [Fraction(int(k == i)) for k in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    cost = [Fraction(0)] * n + [Fraction(1)] * m
    while True:
        reduced = [
            cost[j] - sum(cost[basis[i]] * tab[i][j] for i in range(m))
            for j in range(n + m)
        ]
        enter = next((j for j, r in enumerate(reduced) if r < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            return None  # phase-1 objective is bounded, so this cannot happen
        _, leave = best
        piv = tab[leave][enter]
        tab[leave] = [c / piv for c in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [c - f * p for c, p in zip(tab[i], tab[leave])]
        basis[leave] = enter
    if sum(cost[basis[i]] * tab[i][-1] for i in range(m)) != 0:
        return None
    x = [Fraction(1)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] += tab[i][-1]
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
        try:
            switch_ok = switch_condition_holds(t, m)
        except FieldMismatch:
            raise
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
# dual triangulation and diagonal extensions


@dataclass(frozen=True)
class DualTriangulation:
    vertices: tuple[int, ...]  # region indices
    edges: tuple[tuple[str, int, int], ...]  # (branch, region index, region index)
    triangles: tuple[tuple[str, tuple[str, str, str]], ...]  # (switch, its branch triple)

    @property
    def euler(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.triangles)


def dual_triangulation(t: TrainTrack) -> DualTriangulation:
    if not t.is_generic:
        raise NotGeneric("dual triangulation needs a trivalent track")
    regs = regions(t)
    ok, _ = _region_conditions(regs)
    if not ok:
        raise NotFilling("complementary regions violate the disk/cusp conditions")
    side_of: dict[BranchEnd, int] = {}
    for i, r in enumerate(regs):
        for h in r.boundary:
            side_of[h] = i
    edges = tuple(
        (b, side_of[BranchEnd(b, 0)], side_of[BranchEnd(b, 1)]) for b in t.branches
    )
    triangles = tuple(
        (sw.name, tuple(sorted({e.branch for e in sw.ccw()})))  # type: ignore[arg-type]
        for sw in t.switches
    )
    return DualTriangulation(tuple(range(len(regs))), edges, triangles)


def _polygon_triangulations(k: int) -> list[frozenset[tuple[int, int]]]:
    """All triangulations of a convex k-gon as chord sets on vertices 0..k-1."""
    if k < 3:
        return [frozenset()]

    def rec(vs: tuple[int, ...]) -> list[frozenset[tuple[int, int]]]:
        if len(vs) < 3:
            return [frozenset()]
        if len(vs) == 3:
            return [frozenset()]
        out = []
        a, b = vs[0], vs[-1]  # the edge (a, b) closes the polygon
        for i in range(1, len(vs) - 1):
            c = vs[i]
            left = rec(vs[: i + 1])
            right = rec(vs[i:])
            chords = set()
            if i > 1:
                chords.add(tuple(sorted((a, c))))
            if i < len(vs) - 2:
                chords.add(tuple(sorted((c, b))))
            for lf in left:
                for rt in right:
                    out.append(frozenset(chords) | lf | rt)
        return out

    return rec(tuple(range(k)))


@dataclass(frozen=True)
class DiagonalExtension:
    """A maximal disjoint diagonal choice: per region, chords between cusps.

    Chords are pairs of cusp indices in the region's cyclic cusp order.
    """

    diagonals: tuple[tuple[int, frozenset[tuple[int, int]]], ...]  # (region idx, chords)

    @property
    def diagonal_count(self) -> int:
        return sum(len(ch) for _, ch in self.diagonals)


def diagonal_extensions(t: TrainTrack) -> list[DiagonalExtension]:
    regs = regions(t)
    ok, _ = _region_conditions(regs)
    if not ok:
        raise NotFilling("diagonal extensions need a filling track")
    per_region: list[list[tuple[int, frozenset[tuple[int, int]]]]] = []
    for i, r in enumerate(regs):
        tris = _polygon_triangulations(r.cusp_count)
        per_region.append([(i, chords) for chords in tris])
    out = [DiagonalExtension(())]
    for options in per_region:
        out = [
            DiagonalExtension(prev.diagonals + (opt,))
            for prev in out
            for opt in options
        ]
    return out


def catalan(n: int) -> int:
    if n <= 1:
        return 1
    import math

    return math.comb(2 * n, n) // (n + 1)


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
_PUNCTURE_RE = re.compile(r"^puncture\s+in\s+region\s+containing\s+cusp\s+(?P<switch>\S+)\s*$")


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
    marks: list[str] = []

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
            raw_measure[m.group("branch")] = nf_element(fld, vec)
            continue
        if m := _PUNCTURE_RE.match(line):
            marks.append(m.group("switch"))
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
    for name in t.puncture_marks:
        lines.append(f"puncture in region containing cusp {name}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# canonical form and isomorphisms of the decorated ribbon graph


@dataclass(frozen=True)
class Labeling:
    """Canonical relabeling: branch -> (index, end flip), switch -> index."""

    branch_map: dict[str, tuple[int, int]]
    switch_map: dict[str, int]

    def flag(self, e: BranchEnd) -> tuple[int, int]:
        idx, flip = self.branch_map[e.branch]
        return (idx, e.end ^ flip)


def _emit(t: TrainTrack, start: BranchEnd):
    """Canonical word for the BFS started by arriving along `start`."""
    branch_map: dict[str, tuple[int, int]] = {}
    switch_map: dict[str, int] = {}
    word: list = []

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
        # cusp bit for the corner after position i (in unrotated indexing)
        for off, e in enumerate(seq):
            i = (k + off) % len(ccw)
            j = (i + 1) % len(ccw)
            cusp = 1 if (j != na and j != 0) else 0
            word.append((*blabel(e), cusp))
            queue.append(e.other())
    if len(switch_map) != t.s:
        raise ValueError("track is not connected")
    return tuple(word), Labeling(branch_map, switch_map)


def canonical_form(t: TrainTrack) -> tuple[tuple, tuple[Labeling, ...]]:
    """Lexicographically minimal BFS word over all starting flags, with labelings.

    Computed once per track and cached on it, outside its fields."""
    cached = getattr(t, "_canon", None)
    if cached is not None:
        return cached
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
    cached = (best_word, tuple(labelings))
    object.__setattr__(t, "_canon", cached)
    return cached


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
    """All ribbon isomorphisms t1 -> t2 (orientation-preserving)."""
    w1, labs1 = canonical_form(t1)
    w2, labs2 = canonical_form(t2)
    if w1 != w2:
        return []
    lab1 = labs1[0]
    inv_b1 = {v: k for k, v in lab1.branch_map.items()}  # (idx, flip) -> branch
    inv_s1 = {v: k for k, v in lab1.switch_map.items()}
    out = []
    seen = set()
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
        iso = TrackIso(tuple(sorted(branches)), switches)
        if iso.branches not in seen:
            seen.add(iso.branches)
            out.append(iso)
    return out
