"""Bordered sutured diagrams and generator counts for curve systems on a track.

The ambient surface is the closed model of a filling generic track: every
complementary region is a disk carrying one marked point, and the marked
points span the dual triangulation (one triangle per switch, one edge per
branch).  A curve system is given in normal coordinates with respect to
that triangulation.  This module draws a canonical picture of the system
together with the track, extracts the reduced dual graph of the complement,
assembles the bordered sutured diagram obtained by cutting along the system,
counts the diagram's generators exactly, and compares the end result against
the closed-form ceiling from :mod:`splitseq.bounds`.

Drawing conventions.  Every count below depends on these and nothing else:

* Crossing points on the dual edge of branch ``b`` are numbered 0..n-1 from
  the region at arrival ``(b, 0)`` toward the region at ``(b, 1)``.
* Inside a triangle, the k-th arc from a corner occupies the k-th point
  from that corner on both adjacent sides (arcs are nested, innermost k=1).
* On each side of a triangle the low and high corner stacks fill all n
  points.  Branch ``b`` crosses its dual edge once, in the gap after
  ``cut[b]`` points, the smaller of its two low stacks: the least cut
  that minimises the system crossings of the two branch halves.  So the
  cut never lies above a low stack, and a half meets arcs of its low
  corner only.
* Between two consecutive arc crossings, a branch half crosses exactly one
  dual-graph wall: the one running through its own dual edge.
* A wall crossing the dual edge of ``b`` in gap ``g`` has below it the
  region at ``(b, 0)`` when g = 0, else the side of the component through
  point g-1 that faces the gap; above it the region at ``(b, 1)`` when
  g = n, else the facing side of the component through point g.  A
  component crossing a point from the triangle at ``(b, 1 - end)`` into the
  one at ``(b, end)`` has its side ``end`` (0 left, 1 right) above the
  point.  Where the half ``(name, d)`` of a wall runs through a segment
  entered from triangle side ``eps``, the face traced along that half (on
  its left) holds what lies above the gap exactly when eps == d.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .arcdiagram import SpecialMark
from .bounds import BoundReport, BoundViolated, NormalCurve, curve_length
from .traintrack import BranchEnd, TrainTrack, regions


class NotDisjoint(ValueError):
    """The curves cannot be realised simultaneously without crossings."""


class EmptyCurve(ValueError):
    """A curve with no essential content: zero coordinates, or a component
    parallel to the boundary of a single complementary region."""


class ComponentWithoutSwitch(ValueError):
    """A complementary piece of the dual graph carries no switch.  Happens
    exactly when the system contains parallel copies of one curve."""


class HallViolation(ValueError):
    """No injective assignment of boundary switches to graph regions."""


class NotMinimal(ValueError):
    """The system is not of minimal length: a region point sits in a
    one-wall face, a region keeps a single free corner, or a corner slide
    would change the total length."""


class SlidesDidNotConverge(ValueError):
    """Corner slides kept finding two-cornered faces past the round cap."""


class InconsistentDrawing(RuntimeError):
    """The canonical drawing broke one of its own conventions."""


# Per tube-cutting piece: extensions of the first kind, and the cap on how
# often one beta arc meets the cut circle.
FIRST_KIND_EXTENSIONS = 2
BETA_ARC_PIECE_CAP = 2

Corner = tuple  # (switch name, corner index 0..2)
Seg = tuple  # (branch name, gap index 0..n)


# ---------------------------------------------------------------------------
# triangle-by-triangle geometry of a curve system


class _Geom:
    """Canonical realisation of a compatible coordinate vector.  Sums of
    compatible vectors are compatible, so the union of a checked system
    needs no check of its own."""

    def __init__(self, t: TrainTrack, n: dict) -> None:
        self.t = t
        self.n = n
        self.regs = regions(t)
        self.side_of: dict[BranchEnd, int] = {}
        for ri, reg in enumerate(self.regs):
            for h in reg.boundary:
                self.side_of[h] = ri
        # the three branch ends around each switch, in rotation order
        self.words: dict[str, tuple[BranchEnd, ...]] = {sw.name: sw.ccw() for sw in t.switches}

        # corner arc counts
        self.a: dict[Corner, int] = {}
        for w, word in self.words.items():
            ns = [n[e.branch] for e in word]
            for c in range(3):
                self.a[(w, c)] = (ns[c] + ns[(c + 1) % 3] - ns[(c + 2) % 3]) // 2

        # corner cycle and crossed arrivals around every region point
        self.region_corners: list[tuple[Corner, ...]] = []
        self.region_gaps: list[tuple[BranchEnd, ...]] = []
        for reg in self.regs:
            corners = []
            gaps = []
            T = len(reg.boundary)
            for pos, h in enumerate(reg.boundary):
                w = t.switch_of(h).name
                corners.append((w, self.words[w].index(h)))
                gaps.append(reg.boundary[(pos + 1) % T])
            self.region_corners.append(tuple(corners))
            self.region_gaps.append(tuple(gaps))

        self._fill_points()
        self.cut: dict[str, int] = {
            b: min(self.a[self.side_corners(BranchEnd(b, eps))[0]] for eps in (0, 1))
            for b in t.branches
        }
        self._trace()

    def side_corners(self, e: BranchEnd) -> tuple[Corner, Corner]:
        """Corners adjacent to this triangle side: (at low end, at high end)."""
        w = self.t.switch_of(e).name
        i = self.words[w].index(e)
        nxt = (w, i)
        prv = (w, (i - 1) % 3)
        return (nxt, prv) if e.end == 0 else (prv, nxt)

    def _fill_points(self) -> None:
        self.point_arc: dict[tuple[BranchEnd, int], tuple[Corner, int]] = {}
        self.arc_ends: dict[tuple[Corner, int], tuple] = {}
        for w, word in self.words.items():
            for c in range(3):
                e1 = word[c]
                e2 = word[(c + 1) % 3]
                n1, n2 = self.n[e1.branch], self.n[e2.branch]
                for k in range(1, self.a[(w, c)] + 1):
                    q1 = k - 1 if e1.end == 0 else n1 - k
                    q2 = n2 - k if e2.end == 0 else k - 1
                    arc = ((w, c), k)
                    for key in ((e1, q1), (e2, q2)):
                        if key in self.point_arc:
                            raise InconsistentDrawing(f"point {key} claimed twice")
                        self.point_arc[key] = arc
                    self.arc_ends[arc] = ((e1, q1), (e2, q2))
        if len(self.point_arc) != 2 * sum(self.n.values()):
            raise InconsistentDrawing("arcs do not claim every crossing point")

    def leg_walls(self, e: BranchEnd) -> range:
        """Gaps whose walls the branch half at this switch crosses between
        its arc crossings: those strictly between the cut and the low stack."""
        lo, _hi = self.side_corners(e)
        return range(self.cut[e.branch] + 1, self.a[lo])

    def _trace(self) -> None:
        self.comps: list[list] = []
        self.comp_of_arc: dict[tuple[Corner, int], int] = {}
        visited: set[tuple[BranchEnd, int]] = set()
        starts = sorted(self.point_arc, key=lambda key: (key[0], key[1]))
        for start in starts:
            if start in visited:
                continue
            steps = []
            state = start
            while True:
                e, q = state
                arc = self.point_arc[(e, q)]
                end1, end2 = self.arc_ends[arc]
                exit_pt = end2 if end1 == (e, q) else end1
                corner, k = arc
                # a half meets arcs of its low corner only, above the cut
                legs = tuple(
                    side
                    for side in (e, exit_pt[0])
                    if corner == self.side_corners(side)[0] and k > self.cut[side.branch]
                )
                steps.append((arc, (e, q), exit_pt, legs))
                visited.add((e, q))
                state = (BranchEnd(exit_pt[0].branch, 1 - exit_pt[0].end), exit_pt[1])
                if state == start:
                    break
            for _arc, _ent, ext, _legs in steps:
                visited.add(ext)
            ci = len(self.comps)
            for arc, _ent, _ext, _legs in steps:
                self.comp_of_arc[arc] = ci
            self.comps.append(steps)

    def comp_coords(self, ci: int) -> tuple[int, ...]:
        tally = {b: 0 for b in self.t.branches}
        for _arc, (e, _q), _ext, _legs in self.comps[ci]:
            tally[e.branch] += 1
        return tuple(tally[b] for b in self.t.branches)

    def comp_word(self, ci: int) -> tuple[BranchEnd, ...]:
        out: list[BranchEnd] = []
        for _arc, _ent, _ext, legs in self.comps[ci]:
            out.extend(legs)
        return tuple(out)

    def linking_region(self, ci: int) -> Optional[int]:
        """Region whose boundary this component is parallel to, if any."""
        arcs = [step[0] for step in self.comps[ci]]
        verts = set()
        for (w, c), _k in arcs:
            verts.add(self.side_of[self.words[w][c]])
        if len(verts) != 1:
            return None
        (v,) = verts
        ring = set(self.region_corners[v])
        used = [corner for corner, _k in arcs]
        if (
            all(k == 1 for _corner, k in arcs)
            and len(used) == len(ring)
            and set(used) == ring
        ):
            return v
        return None


# ---------------------------------------------------------------------------
# normalised systems


@dataclass(frozen=True)
class NormalBasis:
    """A disjoint curve system in canonical position against the track.

    The drawing of the union rides along as `geom`, so later stages reuse
    it instead of drawing the same system again; the length and the
    components are read off it.
    """

    curves: tuple[NormalCurve, ...]
    assignment: tuple[tuple[int, ...], ...]  # curve index -> component indices
    geom: _Geom = field(compare=False, repr=False)

    @property
    def length(self) -> int:
        return sum(self.geom.n.values())

    @property
    def m(self) -> int:
        return len(self.geom.comps)


def _assign_components(
    curves: Sequence[NormalCurve], comp_coords: Sequence[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    used = [False] * len(comp_coords)
    picks: list[tuple[int, ...]] = []

    def fit(ci: int) -> bool:
        if ci == len(curves):
            return all(used)
        want = curves[ci]
        pool = [i for i in range(len(comp_coords)) if not used[i]]
        for combo in itertools.combinations(pool, want.components):
            total = [0] * len(want.coords)
            for i in combo:
                for j, x in enumerate(comp_coords[i]):
                    total[j] += x
            if tuple(total) != want.coords:
                continue
            for i in combo:
                used[i] = True
            picks.append(combo)
            if fit(ci + 1):
                return True
            picks.pop()
            for i in combo:
                used[i] = False
        return False

    if not fit(0):
        raise NotDisjoint(
            "curves cannot be partitioned into the components of their union; "
            "they intersect, or a component count is wrong"
        )
    return tuple(picks)


def normalize_basis(t: TrainTrack, curves: Iterable) -> NormalBasis:
    """Put a disjoint curve system into canonical position.

    Each curve is checked once by `bounds.curve_length`, which raises
    DimensionMismatch or IncompatibleCoordinates; EmptyCurve and NotDisjoint
    are raised here.  The returned basis carries the drawing of the union.
    """
    fixed: list[NormalCurve] = []
    for cur in curves:
        if not isinstance(cur, NormalCurve):
            cur = NormalCurve(tuple(cur))
        if curve_length(cur, t) == 0:
            raise EmptyCurve("curve crosses no dual edge")
        fixed.append(cur)
    if not fixed:
        raise EmptyCurve("empty curve system")

    union = {b: sum(cur.coords[i] for cur in fixed) for i, b in enumerate(t.branches)}
    geom = _Geom(t, union)

    for ci in range(len(geom.comps)):
        v = geom.linking_region(ci)
        if v is not None:
            raise EmptyCurve(
                f"a component is parallel to the boundary of region {v}"
            )

    comp_coords = [geom.comp_coords(ci) for ci in range(len(geom.comps))]
    return NormalBasis(tuple(fixed), _assign_components(fixed, comp_coords), geom)


# ---------------------------------------------------------------------------
# the dual graph of the cut surface


@dataclass(frozen=True)
class GraphEdge:
    name: str
    ends: tuple[tuple[str, int], tuple[str, int]]  # (switch, side index)
    segments: tuple[tuple[Seg, int], ...]  # (segment, triangle side met first)


@dataclass(frozen=True)
class GraphFace:
    walk: tuple[tuple[str, int], ...]  # (edge name, direction) boundary visits
    corners: tuple[str, ...]  # switch met after each visit
    inside_sides: tuple[tuple[int, int], ...]  # (component, 0 left / 1 right)


@dataclass(frozen=True)
class ReducedGraph:
    basis: NormalBasis
    edges: tuple[GraphEdge, ...]
    faces: tuple[GraphFace, ...]


def _seg_node(geom: _Geom, seg: Seg, e: BranchEnd):
    b, g = seg
    lo, hi = geom.side_corners(e)
    if g < geom.a[lo]:
        return ("R", lo[0], lo[1], g)
    if g > geom.n[b] - geom.a[hi]:
        return ("R", hi[0], hi[1], geom.n[b] - g)
    if not g == geom.a[lo] == geom.n[b] - geom.a[hi]:
        raise InconsistentDrawing(f"segment {seg} lies in no stack or switch")
    return ("C", geom.t.switch_of(e).name)


def _central_seg(geom: _Geom, e: BranchEnd) -> Seg:
    lo, _hi = geom.side_corners(e)
    return (e.branch, geom.a[lo])


def _build_edges(geom: _Geom) -> dict[str, GraphEdge]:
    """Walk the corridor of stack nodes from every switch side to the next
    switch.  Every stack node meets two segments, so a segment no walk
    claims lies on a band of stacks that avoids every switch."""
    node_segs: dict = {}
    for b in geom.t.branches:
        for g in range(geom.n[b] + 1):
            for eps in (0, 1):
                e = BranchEnd(b, eps)
                node = _seg_node(geom, (b, g), e)
                node_segs.setdefault(node, []).append(((b, g), e))

    claimed: set[Seg] = set()
    raw = []
    for sw in geom.t.switches:
        for i, e in enumerate(geom.words[sw.name]):
            first = _central_seg(geom, e)
            if first in claimed:
                continue
            run: list[tuple[Seg, int]] = []
            cur, side = first, e
            while True:
                run.append((cur, side.end))
                claimed.add(cur)
                far = BranchEnd(cur[0], 1 - side.end)
                node = _seg_node(geom, cur, far)
                if node[0] == "C":
                    w2 = node[1]
                    raw.append(((sw.name, i), (w2, geom.words[w2].index(far)), tuple(run)))
                    break
                pair = [item for item in node_segs[node] if item[0] != cur]
                if len(pair) != 1:
                    raise InconsistentDrawing(f"stack node {node} is not a corridor")
                cur, side = pair[0]
    if len(claimed) != sum(geom.n[b] + 1 for b in geom.t.branches):
        raise ComponentWithoutSwitch(
            "a band of the cut surface avoids every switch; "
            "the system contains parallel copies of a curve"
        )
    edges = {}
    for k, (end_a, end_b, segs) in enumerate(sorted(raw)):
        edges[f"g{k}"] = GraphEdge(name=f"g{k}", ends=(end_a, end_b), segments=segs)
    return edges


def _trace_faces(edges: dict[str, GraphEdge], alive: set) -> list:
    """Boundary walks of the complement.  Each is a list of (name, dir)
    starting at its least half; the walks come in increasing order."""
    slots: dict[tuple[str, int], tuple[str, int]] = {}
    for name in sorted(alive):
        for d, end in enumerate(edges[name].ends):
            if end in slots:
                raise InconsistentDrawing(f"two walls leave slot {end}")
            slots[end] = (name, d)

    def next_half(half: tuple[str, int]) -> tuple[str, int]:
        name, d = half
        w, i = edges[name].ends[1 - d]  # head of the half
        for step in (1, 2, 3):
            slot = (w, (i + step) % 3)
            if slot in slots:
                name2, d2 = slots[slot]
                return (name2, d2)
        raise InconsistentDrawing(f"switch {w} has no departing slot")

    todo = {(name, d) for name in alive for d in (0, 1)}
    faces = []
    while todo:
        start = min(todo)
        walk = []
        half = start
        while True:
            walk.append(half)
            todo.discard(half)
            half = next_half(half)
            if half == start:
                break
        faces.append(walk)
    return faces


def _face_items(geom: _Geom, edges: dict[str, GraphEdge], faces: list) -> list:
    """The one region point (an int) or curve side (component, 0 left /
    1 right) inside each traced face, read off the gaps its walls cross.
    That every gap of every wall names the same item audits the drawing
    conventions above."""
    through: dict[tuple[str, int], tuple[int, int]] = {}
    for ci, steps in enumerate(geom.comps):
        for _arc, (e, q), _ext, _legs in steps:
            through[(e.branch, q)] = (ci, e.end)

    def item(b: str, g: int, above: bool):
        if above:
            if g == geom.n[b]:
                return geom.side_of[BranchEnd(b, 1)]
            ci, end = through[(b, g)]
            return (ci, 1 - end)
        if g == 0:
            return geom.side_of[BranchEnd(b, 0)]
        return through[(b, g - 1)]

    out = []
    for walk in faces:
        found = {
            item(b, g, eps == d)
            for name, d in walk
            for (b, g), eps in edges[name].segments
        }
        if len(found) != 1:
            raise InconsistentDrawing(f"the walls of face {walk} disagree on its contents")
        out.extend(found)
    if len(set(out)) != len(out) or len(out) != len(geom.regs) + 2 * len(geom.comps):
        raise InconsistentDrawing(
            "initial faces must carry exactly one region point or curve side each"
        )
    return out


def _find_type1_bigon(geom: _Geom) -> Optional[tuple[int, int, int]]:
    for ri, corners in enumerate(geom.region_corners):
        free = [pos for pos, corner in enumerate(corners) if geom.a[corner] == 0]
        if not free:
            raise InconsistentDrawing(f"region {ri} is encircled by one component")
        if len(free) == 1:
            if len(corners) == 1:
                raise ValueError(
                    f"region {ri} meets the track along a single corner; "
                    "the closed model does not admit the construction"
                )
            raise NotMinimal(
                f"the system leaves a single free corner at region {ri}; "
                "its length is not minimal"
            )
        if len(free) == 2:
            return (ri, free[0], free[1])
    return None


def _push_across(basis: NormalBasis, hit) -> NormalBasis:
    """Slide the arc bundle hugging one side of a two-cornered face across
    the region point.  Both sides of the face cross equally many dual edges,
    so the total length is unchanged.  The new basis comes with its own
    drawing."""
    geom = basis.geom
    ri, i, j = hit
    corners = geom.region_corners[ri]
    gaps = geom.region_gaps[ri]
    T = len(corners)

    def span(a: int, b: int):
        mids, crossed = [], []
        pos = a
        while pos != b:
            crossed.append(gaps[pos])
            pos = (pos + 1) % T
            if pos != b:
                mids.append(corners[pos])
        return mids, crossed

    mids_a, gaps_a = span(i, j)
    mids_b, gaps_b = span(j, i)
    if len(gaps_a) != len(gaps_b):
        raise NotMinimal(
            f"sliding across region {ri} changes the total length; "
            "the system is not of minimal length"
        )
    mids, minus, plus = (mids_a, gaps_a, gaps_b) if mids_a else (mids_b, gaps_b, gaps_a)
    if not mids:
        raise ValueError(f"region {ri} is a two-cornered disk; cannot reduce")
    q0 = min(geom.a[c] for c in mids)

    curve_of_comp = {}
    for ci, comps in enumerate(basis.assignment):
        for comp in comps:
            curve_of_comp[comp] = ci
    branches = geom.t.branches
    deltas = [[0] * len(branches) for _ in basis.curves]
    bindex = {b: k for k, b in enumerate(branches)}
    for depth in range(1, q0 + 1):
        comp = geom.comp_of_arc[(mids[0], depth)]
        ci = curve_of_comp[comp]
        for h in minus:
            deltas[ci][bindex[h.branch]] -= 1
        for h in plus:
            deltas[ci][bindex[h.branch]] += 1
    new_curves = []
    for ci, cur in enumerate(basis.curves):
        coords = tuple(x + d for x, d in zip(cur.coords, deltas[ci]))
        if any(x < 0 for x in coords):
            raise InconsistentDrawing("slide drove a coordinate negative")
        new_curves.append(NormalCurve(coords, cur.components))
    return normalize_basis(geom.t, new_curves)


def dual_graph(t: TrainTrack, basis: NormalBasis) -> ReducedGraph:
    """Reduced dual graph of the surface cut along the system.

    Slides length-neutral arc bundles off two-cornered faces, then deletes
    walls of one-visit and two-visit faces until every face is combinatorially
    at least a triangle or is bounded by a single wall.  Every round works on
    the drawing its basis carries; a slide returns a basis with a new one.
    The walls are built every round, as that refuses a band without a switch
    before any slide.
    """
    if t is not basis.geom.t and t != basis.geom.t:
        raise ValueError("basis was drawn on another track; pass the track of normalize_basis")
    for _round in range(64 + 8 * t.l):
        geom = basis.geom
        edges = _build_edges(geom)
        hit = _find_type1_bigon(geom)
        if hit is None:
            break
        basis = _push_across(basis, hit)
    else:
        raise SlidesDidNotConverge("corner slides did not converge")

    alive = set(edges)
    walks = _trace_faces(edges, alive)
    home = {half: fi for fi, walk in enumerate(walks) for half in walk}
    # deleting a wall merges the zones of its two sides: the initial faces
    # now inside one face, and the curve sides they carry
    zone = list(range(len(walks)))
    zone_sides = [[it] if isinstance(it, tuple) else [] for it in _face_items(geom, edges, walks)]
    while True:
        monos = sorted(w[0][0] for w in walks if len(w) == 1)
        if monos:
            target = monos[0]
            if not zone_sides[zone[home[(target, 0)]]]:
                raise NotMinimal(
                    "a region point sits in a one-wall face; "
                    "the system is not of minimal length"
                )
        else:
            bigs = sorted(
                tuple(sorted(name for name, _d in w))
                for w in walks
                if len(w) == 2 and w[0][0] != w[1][0]
            )
            if not bigs:
                break
            target = bigs[0][0]
        z0, z1 = zone[home[(target, 0)]], zone[home[(target, 1)]]
        if z0 != z1:
            zone = [z1 if z == z0 else z for z in zone]
            zone_sides[z1] += zone_sides[z0]
        alive.remove(target)
        walks = _trace_faces(edges, alive)

    if not alive:
        raise ValueError("reduction deleted every wall; system too small")

    seen: set[int] = set()
    faces = []
    for walk in walks:
        zones = {zone[home[half]] for half in walk}
        if len(zones) != 1:
            raise InconsistentDrawing("face walk spans several merged zones")
        (z,) = zones
        if z in seen:
            raise ValueError(
                "reduction produced a face with disconnected boundary"
            )
        seen.add(z)
        faces.append(
            GraphFace(
                walk=tuple(walk),
                corners=tuple(edges[name].ends[1 - d][0] for name, d in walk),
                inside_sides=tuple(sorted(zone_sides[z])),
            )
        )

    euler = (
        t.s
        - len(alive)
        + sum(1 - len(f.inside_sides) for f in faces)
    )
    if euler != 2 - 2 * t.genus:
        raise ValueError(
            f"face census is inconsistent: chi {euler} != {2 - 2 * t.genus}"
        )
    for f in faces:
        if len(f.walk) < 3 and len({name for name, _d in f.walk}) > 1:
            raise InconsistentDrawing("reduction left a two-wall face")

    kept = tuple(edges[name] for name in sorted(alive))
    return ReducedGraph(basis=basis, edges=kept, faces=tuple(faces))


# ---------------------------------------------------------------------------
# face-to-switch assignment


@dataclass(frozen=True)
class SigmaPrime:
    graph: ReducedGraph
    choice: tuple[str, ...]  # one switch per face, injective


def sigma_prime(graph: ReducedGraph) -> SigmaPrime:
    """Injective choice of a boundary switch for every face, by augmenting
    paths over the face walks in a fixed order."""
    cand = [sorted(set(f.corners)) for f in graph.faces]
    owner: dict[str, int] = {}

    def claim(fi: int, blocked: set) -> bool:
        for w in cand[fi]:
            if w in blocked:
                continue
            blocked.add(w)
            if w not in owner or claim(owner[w], blocked):
                owner[w] = fi
                return True
        return False

    for fi in range(len(graph.faces)):
        if not claim(fi, set()):
            raise HallViolation(
                f"faces {sorted(set(sum((cand[j] for j in range(fi + 1)), [])))} "
                f"cannot host face {fi} injectively"
            )
    choice = [""] * len(graph.faces)
    for w, fi in owner.items():
        choice[fi] = w
    return SigmaPrime(graph=graph, choice=tuple(choice))


# ---------------------------------------------------------------------------
# the diagram


@dataclass(frozen=True)
class CircleInfo:
    switch: str
    starred: bool


@dataclass(frozen=True)
class TubePiece:
    switch: str
    factor: int


@dataclass(frozen=True)
class BorderedSuturedDiagram:
    genus: int
    circles: tuple[CircleInfo, ...]
    alpha_arcs: tuple[str, ...]
    beta_circles: tuple[str, ...]
    beta_arcs: tuple[str, ...]
    beta_arc_ends: tuple[tuple[str, tuple[str, str]], ...]  # arc -> end switches
    intersections: tuple[tuple[str, str, int], ...]
    basis_length: int
    m: int
    pieces: tuple[TubePiece, ...] = ()

    @cached_property
    def generators(self) -> GeneratorSet:
        # the count ignores `pieces`, so `attach_tube_cutting` carries it over
        return GeneratorSet(_subset_dp(self))


def _ring_from_cusp(geom: _Geom, w: str) -> list:
    """Wall exits and branch legs in circle order around a switch, read
    from just after the cusp corner.  On an end-1 side the leg comes first,
    unless the cut meets the low stack."""
    word = geom.words[w]
    # the cusp corner lies between the two small ends, adjacent in the word
    cusp = word.index(geom.t.switch_of(word[0]).small_right)
    ring = []
    for i in ((cusp + 1) % 3, (cusp + 2) % 3, cusp):
        e = word[i]
        lo, _hi = geom.side_corners(e)
        pair = [("wall", i), ("leg", e)]
        ring += pair if e.end == 0 or geom.cut[e.branch] == geom.a[lo] else pair[::-1]
    return ring


def _legs(items) -> list[BranchEnd]:
    return [e for kind, e in items if kind == "leg"]


def build_diagram(
    t: TrainTrack, basis: NormalBasis, sigma: SpecialMark, assign: SigmaPrime
) -> BorderedSuturedDiagram:
    """Assemble the bordered sutured diagram for the cut-open surface.

    `basis` must be the one carried by `assign.graph` (corner slides during
    reduction may have replaced the input system by an equivalent one).
    """
    graph = assign.graph
    if graph.basis.curves != basis.curves:
        raise ValueError("basis does not match the reduced graph; pass graph.basis")
    if t is not basis.geom.t and t != basis.geom.t:
        raise ValueError("basis was drawn on another track; pass the track of normalize_basis")
    geom = basis.geom
    rmap = sigma.region_map(t)
    starred = set(rmap.values())
    names = [sw.name for sw in t.switches]
    hug = {w: w not in starred for w in names}

    g, s, m = t.genus, t.s, basis.m
    alpha1 = [f"a1.{b}" for b in t.branches]
    alpha2 = [f"a2.{w}" for w in names if hug[w]]
    if len(alpha2) != s - len(geom.regs) or len(alpha1) + len(alpha2) != 2 * (g + s - 1):
        raise InconsistentDrawing("alpha count does not match the surface rank")

    chosen = set(assign.choice)
    beta_c = [f"bc{ci}" for ci in range(m)]
    beta1 = [f"b1.{edge.name}" for edge in graph.edges]
    beta2 = [f"b2.{w}" for w in names if w not in chosen]
    if len(beta1) + len(beta2) != 2 * (g + s - m - 1):
        raise InconsistentDrawing(
            "wall and spare-circle count must match the cut-surface rank"
        )

    cross: dict[tuple[str, str], int] = {}

    def add(a: str, b: str) -> None:
        cross[(a, b)] = cross.get((a, b), 0) + 1

    # curve components against the branch arcs
    for ci in range(m):
        for e in geom.comp_word(ci):
            add(f"a1.{e.branch}", f"bc{ci}")

    # wall arcs: detachment at both ends, taking the shorter way around the
    # circle from the exit to the plain suture arc, plus interior crossings
    arc_ends: list[tuple[str, tuple[str, str]]] = []
    for edge in graph.edges:
        label = f"b1.{edge.name}"
        end_crossings = 0
        for w, slot in edge.ends:
            if hug[w]:
                end_crossings += 1
                add(f"a2.{w}", label)
            ring = _ring_from_cusp(geom, w)
            k = ring.index(("wall", slot))
            after, before = _legs(ring[k + 1:]), _legs(ring[:k])
            for e in after if len(after) <= len(before) else before:
                end_crossings += 1
                add(f"a1.{e.branch}", label)
        if end_crossings > 8:
            raise BoundViolated(f"wall arc {label} has {end_crossings} end crossings, cap 8")
        for (b, gap), _first in edge.segments:
            for eps in (0, 1):
                if gap in geom.leg_walls(BranchEnd(b, eps)):
                    add(f"a1.{b}", label)
        arc_ends.append((label, (edge.ends[0][0], edge.ends[1][0])))

    # spare circles: the long way around, once per switch off the image
    for w in names:
        if w in chosen:
            continue
        label = f"b2.{w}"
        if hug[w]:  # met once on each side of the legs
            add(f"a2.{w}", label)
            add(f"a2.{w}", label)
        for e in _legs(_ring_from_cusp(geom, w)):
            add(f"a1.{e.branch}", label)
        arc_ends.append((label, (w, w)))

    return BorderedSuturedDiagram(
        genus=g,
        circles=tuple(CircleInfo(switch=w, starred=(w in starred)) for w in names),
        alpha_arcs=tuple(alpha1 + alpha2),
        beta_circles=tuple(beta_c),
        beta_arcs=tuple(beta1 + beta2),
        beta_arc_ends=tuple(sorted(arc_ends)),
        intersections=tuple(sorted((a, b, n) for (a, b), n in cross.items())),
        basis_length=basis.length,
        m=m,
    )


# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class GeneratorSet:
    count: int


def count_generators(d: BorderedSuturedDiagram) -> GeneratorSet:
    """Count sets of crossing points that occupy every beta circle exactly
    once and every arc at most once, alphas pairwise distinct.

    The diagram's cached `generators`; `attach_tube_cutting` carries a
    computed count over to the tube-cut diagram.
    """
    return d.generators


def _subset_dp(d: BorderedSuturedDiagram) -> int:
    # one state per reachable set of used betas: exponential in their number
    betas = list(d.beta_circles) + list(d.beta_arcs)
    bindex = {b: i for i, b in enumerate(betas)}
    need = 0
    for b in d.beta_circles:
        need |= 1 << bindex[b]
    options: dict[str, list[tuple[int, int]]] = {a: [] for a in d.alpha_arcs}
    for a, b, n in d.intersections:
        if n > 0:
            options[a].append((bindex[b], n))

    dp: dict[int, int] = {0: 1}
    for a in d.alpha_arcs:
        ndp = dict(dp)
        for mask, ways in dp.items():
            for bi, n in options[a]:
                if mask >> bi & 1:
                    continue
                key = mask | 1 << bi
                ndp[key] = ndp.get(key, 0) + ways * n
        dp = ndp
    return sum(ways for mask, ways in dp.items() if mask & need == need)


# ---------------------------------------------------------------------------
# tube cutting and the final check


def attach_tube_cutting(
    d: BorderedSuturedDiagram, gens: GeneratorSet
) -> tuple[BorderedSuturedDiagram, GeneratorSet]:
    """Cut the boundary circles open along tubes; every piece multiplies the
    generator count by a bounded factor.

    Per piece the factor is ``FIRST_KIND_EXTENSIONS + a_w * b_w`` where a_w
    caps the crossings of the incident beta arcs with the cut circle and b_w
    the crossings of the distinguished arc with the alphas near the circle:
    three branch legs plus two for the suture-hugging arc when present.
    """
    if d.pieces:
        raise ValueError("tube cutting was already attached")
    arcs_at: dict[str, int] = {c.switch: 0 for c in d.circles}
    for _label, ends in d.beta_arc_ends:
        for w in set(ends):
            arcs_at[w] += 1

    pieces = []
    factor_total = 1
    g, s, m = d.genus, len(d.circles), d.m
    cap = 20 * (g + s - m) - 18
    for c in d.circles:
        a_w = BETA_ARC_PIECE_CAP * arcs_at[c.switch]
        b_w = 3 + (0 if c.starred else 2)
        factor = FIRST_KIND_EXTENSIONS + a_w * b_w
        if factor > cap:
            raise BoundViolated(f"piece factor {factor} breaks the cap {cap}")
        pieces.append(TubePiece(switch=c.switch, factor=factor))
        factor_total *= factor
    d2 = replace(d, pieces=tuple(pieces))
    if "generators" in vars(d):  # the count of d itself, never the caller's gens
        vars(d2)["generators"] = d.generators
    return d2, GeneratorSet(gens.count * factor_total)


@dataclass(frozen=True)
class BoundCheck:
    passed: bool
    count: int
    bound: int
    notes: tuple[str, ...]


def verify_bound(d: BorderedSuturedDiagram, report: BoundReport) -> BoundCheck:
    """Compare the end-to-end generator count of a tube-cut diagram with the
    closed-form ceiling of the report."""
    notes = []
    count = count_generators(d).count
    for piece in d.pieces:
        count *= piece.factor
    if not d.pieces:
        notes.append("no tube pieces attached; raw diagram count")
    if d.basis_length > report.M_psi:
        notes.append(
            f"system length {d.basis_length} exceeds the cap {report.M_psi}"
        )
    if d.m > 2 * report.g:
        notes.append(f"{d.m} components exceed 2g = {2 * report.g}")
    if report.g != d.genus:
        notes.append(f"genus mismatch: diagram {d.genus}, report {report.g}")
    if count > report.dd:
        notes.append(f"count {count} exceeds the ceiling {report.dd}")
    return BoundCheck(
        passed=not notes, count=count, bound=report.dd, notes=tuple(notes)
    )
