"""Arc diagrams cut out of train tracks, arcslides, and slide factorizations.

An arc diagram here is a combinatorial sutured-surface presentation: a list
of oriented intervals, each carrying an ordered list of marked points, plus
a fixed-point-free matching that glues the points in pairs by 1-handles.
Thicken each interval to a rectangle, attach a band for every matched pair
along the bottom edges, and the result is an oriented surface F whose
boundary splits into one positive arc per interval (the top and upper
half-sides of its rectangle) and negative arcs that snake along the bottoms
and through the bands.

A generic filling train track yields such a diagram: one interval per
switch, namely the small circle around the switch cut open inside the cusp
sector, so the points along it read [small_left, large, small_right] in the
circle's boundary orientation.  The matching pairs the two ends of every
branch.  Under this dictionary the negative boundary arcs of F trace the
complementary regions of the track: arriving at a point we dive through its
band and surface just past the partner, which is word for word the face map
used by ``traintrack.regions``.  Boundary components of F therefore
correspond to regions, with one positive arc per cusp of the region.

Splitting a branch moves exactly two points, each sliding over an end of
the split branch and landing next to the opposite end: a pair of arcslides.
The slides reproduce the post-split diagram up to where each affected
interval is cut open, because the cusp sector of a switch rotates past the
split branch while slides never move the cut.  ``apply_split_slides``
therefore re-cuts the two intervals afterwards (new branch end to the front
of the interval for a left split, to the back for a right split).  The
re-cut touches no handle, and on capped homology it is invisible: its only
chain-level content is a boundary-parallel class.

First homology of F is tracked on the chain level.  Handles are oriented
edges between interval-vertices; an arcslide rewrites the slid handle as
itself plus or minus the handle it slid across, an elementary matrix.
Capping the boundary components with disks kills their classes, computed
with an integer Smith normal form, and yields the action on the closed
surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .numberfield import _det_int
from .splitting import AgolCycle, SplitCase, SplitEvent, split_case
from .traintrack import BranchEnd, TrainTrack, TrackIso, regions


class MalformedDiagram(ValueError):
    """Matching is not a fixed-point-free pairing, or S_- closes up."""


class InvalidMark(ValueError):
    """Starred switches do not hit every region exactly once."""


class NotAdjacent(ValueError):
    """Arcslide endpoints are not adjacent on one interval."""


class CentralSplit(ValueError):
    """Central splits have no arcslide pair."""


class NotALoop(ValueError):
    """Homology action needs a sequence whose end equals its start."""


# ---------------------------------------------------------------------------
# diagrams


@dataclass(frozen=True)
class ArcDiagram:
    """Ordered marked points on labeled intervals plus a handle matching.

    ``intervals[i]`` lists point names along interval i in its orientation;
    ``matching`` holds each handle as an ordered (tail, head) pair, and that
    order fixes the handle's orientation for homology bookkeeping.
    ``labels[i]`` names interval i (the switch name, for track diagrams).
    """

    intervals: tuple[tuple[str, ...], ...]
    matching: tuple[tuple[str, str], ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "matching", tuple(sorted(self.matching)))
        if len(self.labels) != len(self.intervals):
            raise MalformedDiagram("one label per interval required")
        seen: set[str] = set()
        for pts in self.intervals:
            for p in pts:
                if p in seen:
                    raise MalformedDiagram(f"point {p!r} appears twice")
                seen.add(p)
        paired: set[str] = set()
        for x, y in self.matching:
            if x == y:
                raise MalformedDiagram(f"matching fixes {x!r}")
            for p in (x, y):
                if p not in seen:
                    raise MalformedDiagram(f"matched point {p!r} is on no interval")
                if p in paired:
                    raise MalformedDiagram(f"point {p!r} matched twice")
                paired.add(p)
        if paired != seen:
            raise MalformedDiagram(f"unmatched points: {sorted(seen - paired)}")

    # -- lookups ------------------------------------------------------------
    def _maps(self) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
        cache = getattr(self, "_mc", None)
        if cache is None:
            partner: dict[str, str] = {}
            pair_of: dict[str, tuple[str, str]] = {}
            for x, y in self.matching:
                partner[x], partner[y] = y, x
                pair_of[x] = pair_of[y] = (x, y)
            cache = (partner, pair_of)
            object.__setattr__(self, "_mc", cache)
        return cache

    def _position_map(self) -> dict[str, tuple[int, int]]:
        cache = getattr(self, "_pos", None)
        if cache is None:
            cache = {
                p: (i, j)
                for i, pts in enumerate(self.intervals)
                for j, p in enumerate(pts)
            }
            object.__setattr__(self, "_pos", cache)
        return cache

    def partner(self, p: str) -> str:
        return self._maps()[0][p]

    def handle_of(self, p: str) -> tuple[str, str]:
        return self._maps()[1][p]

    def position(self, p: str) -> tuple[int, int]:
        return self._position_map()[p]

    @property
    def euler_characteristic(self) -> int:
        return len(self.intervals) - len(self.matching)

    # -- boundary tracing ----------------------------------------------------
    def _walk(self, i: int) -> tuple[int, list[tuple[tuple[str, str], int]], int]:
        """Trace one negative arc from the head gap of interval i.

        Returns (end interval, signed handle crossings, gaps visited).
        Crossing a handle from its tail to its head counts +1.
        """
        pos = self._position_map()
        j, k = i, 0
        crossings: list[tuple[tuple[str, str], int]] = []
        gaps = 1
        while k < len(self.intervals[j]):
            p = self.intervals[j][k]
            pair = self.handle_of(p)
            crossings.append((pair, 1 if p == pair[0] else -1))
            q = self.partner(p)
            j, k = pos[q][0], pos[q][1] + 1
            gaps += 1
        return j, crossings, gaps

    def boundary_components(
        self,
    ) -> tuple[tuple[tuple[int, ...], tuple[tuple[tuple[str, str], int], ...]], ...]:
        """Boundary components of F as (interval cycle, signed handle chain).

        The interval cycle lists the intervals whose positive arcs lie on
        the component in traversal order; the chain sums the crossings of
        its negative arcs.  Raises MalformedDiagram if some negative arc
        closes up without meeting a suture.
        """
        n = len(self.intervals)
        nxt: dict[int, int] = {}
        chains: dict[int, list[tuple[tuple[str, str], int]]] = {}
        visited_gaps = 0
        for i in range(n):
            end, crossings, gaps = self._walk(i)
            nxt[i] = end
            chains[i] = crossings
            visited_gaps += gaps
        if visited_gaps != sum(len(pts) + 1 for pts in self.intervals):
            raise MalformedDiagram("negative boundary has a closed component")
        out = []
        seen: set[int] = set()
        for i in range(n):
            if i in seen:
                continue
            cyc: list[int] = []
            chain: dict[tuple[str, str], int] = {}
            j = i
            while j not in seen:
                seen.add(j)
                cyc.append(j)
                for pair, sgn in chains[j]:
                    chain[pair] = chain.get(pair, 0) + sgn
                j = nxt[j]
            out.append(
                (tuple(cyc), tuple(sorted((p, c) for p, c in chain.items() if c)))
            )
        return tuple(out)

    def is_special(self) -> bool:
        """One positive and one negative arc on every boundary component."""
        return all(len(cyc) == 1 for cyc, _ in self.boundary_components())

    def validate(self) -> None:
        """Raise MalformedDiagram if the negative boundary closes up."""
        self.boundary_components()


def same_pattern(a: ArcDiagram, b: ArcDiagram) -> bool:
    """Structural equality: interval sizes and the matching under position.

    Point names are ignored, so a diagram whose handles were renamed or
    dragged to fresh feet compares equal as long as the picture agrees.
    """
    if [len(p) for p in a.intervals] != [len(p) for p in b.intervals]:
        return False
    for i, pts in enumerate(a.intervals):
        for j, p in enumerate(pts):
            q = b.intervals[i][j]
            if a.position(a.partner(p)) != b.position(b.partner(q)):
                return False
    return True


# ---------------------------------------------------------------------------
# construction from tracks


def _track_points(sw) -> tuple[str, ...]:
    # circle around the switch, cut open inside the cusp sector
    return (str(sw.small_left), str(sw.large), str(sw.small_right))


def arc_diagram_from_track(t: TrainTrack) -> ArcDiagram:
    """One interval per switch, one handle per branch.

    chi(F) = s - l, and the boundary components of F correspond to the
    complementary regions of the track, one positive arc per cusp.
    """
    intervals = tuple(_track_points(sw) for sw in t.switches)
    matching = tuple((f"{b}.0", f"{b}.1") for b in t.branches)
    labels = tuple(sw.name for sw in t.switches)
    return ArcDiagram(intervals, matching, labels)


@dataclass(frozen=True)
class SpecialMark:
    """Starred switches, one per complementary region.

    A trivalent switch has a single cusp, so a set of switch names encodes
    a choice of cusp in each region; validity means the stars hit the
    regions bijectively.
    """

    switches: frozenset[str]

    def region_map(self, t: TrainTrack) -> dict[int, str]:
        """region index -> starred switch.  Raises InvalidMark."""
        names = {sw.name for sw in t.switches}
        unknown = self.switches - names
        if unknown:
            raise InvalidMark(f"unknown switches {sorted(unknown)}")
        out: dict[int, str] = {}
        for i, reg in enumerate(regions(t)):
            stars = sorted(
                {ref.switch for ref in reg.cusps if ref.switch in self.switches}
            )
            if len(stars) != 1:
                raise InvalidMark(
                    f"region {i} carries {len(stars)} stars, needs exactly 1"
                )
            out[i] = stars[0]
        if len(self.switches) != len(out):
            raise InvalidMark("some starred switch marks no region")
        return out


def _frame_names(switch: str) -> tuple[str, str]:
    return (f"{switch}.L", f"{switch}.R")


def special_arc_diagram(t: TrainTrack, sigma: SpecialMark) -> ArcDiagram:
    """Add a frame handle around every unstarred switch.

    The frame's feet bound the three branch-end points, so region arcs
    close up through the frames and only starred switches keep a positive
    arc on their component: the result is special, with one boundary
    component per region plus one per unstarred switch.
    """
    sigma.region_map(t)
    intervals = []
    matching = [(f"{b}.0", f"{b}.1") for b in t.branches]
    for sw in t.switches:
        pts = _track_points(sw)
        if sw.name not in sigma.switches:
            x, y = _frame_names(sw.name)
            pts = (x,) + pts + (y,)
            matching.append((x, y))
        intervals.append(pts)
    return ArcDiagram(
        tuple(intervals), tuple(matching), tuple(sw.name for sw in t.switches)
    )


# ---------------------------------------------------------------------------
# arcslides


def arcslide(d: ArcDiagram, slid: str, over: str) -> ArcDiagram:
    """Slide the point ``slid`` across its neighbor ``over``.

    The slid point lands beside the partner of ``over`` on the side
    opposite the one it left (above the partner if it sat below, and vice
    versa), keeping its own name and matching.  Sliding back across the
    partner restores the original diagram on the nose.
    """
    pos = d._position_map()
    if slid not in pos or over not in pos:
        raise NotAdjacent(f"unknown point in ({slid!r}, {over!r})")
    (ia, ja), (ib, jb) = pos[slid], pos[over]
    if ia != ib or abs(ja - jb) != 1:
        raise NotAdjacent(f"{slid!r} and {over!r} are not adjacent on one interval")
    if d.partner(over) == slid:
        raise NotAdjacent("cannot slide a handle across itself")
    target = d.partner(over)
    above = ja > jb  # slid sat above over, so it lands below the partner
    rows = [list(pts) for pts in d.intervals]
    rows[ia].pop(ja)
    ti, tj = pos[target]
    if ti == ia and tj > ja:
        tj -= 1
    rows[ti].insert(tj if above else tj + 1, slid)
    return ArcDiagram(tuple(tuple(r) for r in rows), d.matching, d.labels)


@dataclass(frozen=True)
class Arcslide:
    """One slide, remembering the diagram it applies to."""

    diagram: ArcDiagram
    slid: str
    over: str

    def apply(self) -> ArcDiagram:
        return arcslide(self.diagram, self.slid, self.over)

    def as_line(self) -> str:
        i, ja = self.diagram.position(self.slid)
        _, jb = self.diagram.position(self.over)
        return f"({i}, {ja}, {jb}, {'+' if jb > ja else '-'})"


def _elementary_sign(
    d: ArcDiagram, slid: str, over: str
) -> tuple[tuple[str, str], tuple[str, str], int]:
    """Chain-level content of a slide: handle(slid) += s * handle(over).

    The slid handle's new core runs from the landing spot back through the
    crossed handle to the old foot; s is the crossed handle's orientation
    along that detour times the moved foot's end of its own handle.
    """
    h_over = d.handle_of(over)
    h_slid = d.handle_of(slid)
    connector = 1 if over == h_over[0] else -1
    s = connector * (1 if slid == h_slid[1] else -1)
    return h_slid, h_over, s


# ---------------------------------------------------------------------------
# splits as slide pairs


def _split_site(d: ArcDiagram, event: SplitEvent) -> tuple[str, str, str, str]:
    """Points at the split site: (end0, mover0, end1, mover1)."""
    if event.case is SplitCase.CENTRAL:
        raise CentralSplit("central splits do not act by arcslides")
    e0, e1 = f"{event.branch}.0", f"{event.branch}.1"
    pos = d._position_map()
    movers = []
    for e in (e0, e1):
        i, j = pos[e]
        pts = d.intervals[i]
        k = j + 1 if event.case is SplitCase.LEFT else j - 1
        if not (0 <= k < len(pts)):
            raise NotAdjacent(f"no neighbor on the split side of {e}")
        movers.append(pts[k])
    return e0, movers[0], e1, movers[1]


def split_to_arcslides(pre: ArcDiagram, event: SplitEvent) -> tuple[Arcslide, Arcslide]:
    """The two slides realizing a left or right split.

    Each small branch on the shrinking side of the split branch slides
    across the branch end it abuts and lands beside the opposite end.
    """
    e0, m0, e1, m1 = _split_site(pre, event)
    first = Arcslide(pre, m0, e0)
    second = Arcslide(first.apply(), m1, e1)
    return first, second


def _recut(d: ArcDiagram, point: str, front: bool) -> ArcDiagram:
    """Move a point to the front or back of its interval's framed span.

    Pure basepoint bookkeeping: the cusp sector of a switch rotates past
    the split branch during a split, so the cut tracking the cusp lands on
    the far side of the new branch end.  No handle changes, and the capped
    homology action is unaffected.
    """
    i, j = d.position(point)
    pts = list(d.intervals[i])
    lo, hi = 0, len(pts)
    if len(pts) >= 2 and d.partner(pts[0]) == pts[-1]:
        lo, hi = 1, len(pts) - 1  # keep the frame handle outside
    pts.pop(j)
    pts.insert(lo if front else hi - 1, point)
    rows = list(d.intervals)
    rows[i] = tuple(pts)
    return ArcDiagram(tuple(rows), d.matching, d.labels)


def apply_split_slides(pre: ArcDiagram, event: SplitEvent) -> ArcDiagram:
    """Apply the slide pair of a split, then re-cut the two affected
    intervals.  The result equals the diagram built fresh from the
    post-split track, frames riding along untouched."""
    return _split_slides(pre, event)[1]


def _split_slides(pre: ArcDiagram, event: SplitEvent) -> tuple[tuple[Arcslide, Arcslide], ArcDiagram]:
    slides = split_to_arcslides(pre, event)
    front = event.case is SplitCase.LEFT
    d = _recut(slides[1].apply(), f"{event.branch}.0", front)
    return slides, _recut(d, f"{event.branch}.1", front)


def sigma_transport(event: SplitEvent, sigma: SpecialMark) -> SpecialMark:
    """Starred switches after a left or right split.

    Splits keep switch names, and the split's slide pair never moves a
    frame handle, so the starred set carries over verbatim: the star at a
    split switch now marks that switch's new cusp.  Stars away from the
    split site are untouched a fortiori.
    """
    if event.case is SplitCase.CENTRAL:
        raise CentralSplit("central splits do not transport stars")
    return SpecialMark(sigma.switches)


# ---------------------------------------------------------------------------
# routing frame handles between cusps


def _move_frame(
    d: ArcDiagram, w_from: str, w_to: str
) -> tuple[ArcDiagram, list[Arcslide]]:
    """Slide the frame handle at ``w_from`` over to frame ``w_to`` instead.

    Both feet travel along the boundary arc of the shared region: the back
    foot slides backwards (landing just below the partner of each point it
    crosses) until it heads interval ``w_to``, then the front foot slides
    forwards until it tails it.  The region's arc starts and ends at the
    frameless interval ``w_to``, which is what guarantees both feet arrive.
    """
    i_from = d.labels.index(w_from)
    i_to = d.labels.index(w_to)
    pts = d.intervals[i_from]
    x, y = pts[0], pts[-1]
    if d.partner(x) != y:
        raise MalformedDiagram(f"interval {w_from!r} carries no frame handle")
    slides: list[Arcslide] = []
    budget = 4 * sum(len(p) for p in d.intervals) + 8
    while True:
        i, j = d.position(y)
        if i == i_to and j == 0:
            break
        if j == 0 or budget <= 0:
            raise MalformedDiagram("back foot ran off its route")
        sl = Arcslide(d, y, d.intervals[i][j - 1])
        slides.append(sl)
        d = sl.apply()
        budget -= 1
    while True:
        i, j = d.position(x)
        if i == i_to and j == len(d.intervals[i]) - 1:
            break
        if j == len(d.intervals[i]) - 1 or budget <= 0:
            raise MalformedDiagram("front foot ran off its route")
        sl = Arcslide(d, x, d.intervals[i][j + 1])
        slides.append(sl)
        d = sl.apply()
        budget -= 1
    return d, slides


# ---------------------------------------------------------------------------
# slide sequences and homology


@dataclass(frozen=True)
class ArcslideSequence:
    """Slides applied left to right, with homology bookkeeping.

    ``renames`` records point renamings applied between slides, as (index
    of the next slide, old -> new pairs); factorizations use one such step
    where the period closes up through the track isomorphism.  ``h1_matrix``
    is the chain-level action on the handles of ``start`` in the order
    ``handle_order``, a product of elementary matrices and so invertible
    over the integers.
    """

    start: ArcDiagram
    slides: tuple[Arcslide, ...]
    end: ArcDiagram
    h1_matrix: tuple[tuple[int, ...], ...]
    handle_order: tuple[tuple[str, str], ...]
    renames: tuple[tuple[int, tuple[tuple[str, str], ...]], ...] = ()


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _compose_chain_action(
    start: ArcDiagram,
    slides: Sequence[Arcslide],
    renames: Sequence[tuple[int, tuple[tuple[str, str], ...]]],
) -> tuple[list[list[int]], list[tuple[str, str]], dict[str, int]]:
    """Multiply the elementary matrices of the slides in start coordinates.

    Returns (matrix, start handle order, current point name -> slot).  The
    matrix's column k expresses the handle currently carrying slot k in the
    start handle basis; rename steps rewire names without a matrix factor
    because renaming does not move a handle.
    """
    order = list(start.matching)
    index: dict[str, int] = {}
    for k, (x, y) in enumerate(order):
        index[x] = k
        index[y] = k
    m = _identity(len(order))
    rename_at = {pos: dict(pairs) for pos, pairs in renames}

    def apply_rename(ren: dict[str, str]) -> None:
        moved = {old: index.pop(old) for old in ren if old in index}
        for old, slot in moved.items():
            index[ren[old]] = slot

    for k, sl in enumerate(slides):
        if k in rename_at:
            apply_rename(rename_at[k])
        h_slid, h_over, s = _elementary_sign(sl.diagram, sl.slid, sl.over)
        col, row = index[h_slid[0]], index[h_over[0]]
        for r in range(len(order)):
            m[r][col] += s * m[r][row]
    if len(slides) in rename_at:
        apply_rename(rename_at[len(slides)])
    return m, order, index


def _sequence_matrix(
    start: ArcDiagram,
    slides: Sequence[Arcslide],
    renames: Sequence[tuple[int, tuple[tuple[str, str], ...]]],
    end: ArcDiagram,
) -> tuple[tuple[int, ...], ...]:
    """Full handle-basis matrix of a sequence.

    For a loop (end matches start structurally) the end handles are
    identified with start handles through their foot positions, making the
    matrix an endomorphism of the start basis.
    """
    m, order, index = _compose_chain_action(start, slides, renames)
    n = len(order)
    if not same_pattern(start, end):
        return tuple(tuple(r) for r in m)
    out = [[0] * n for _ in range(n)]
    for k, (x, y) in enumerate(order):
        (i0, j0), (i1, j1) = start.position(x), start.position(y)
        ex, ey = end.intervals[i0][j0], end.intervals[i1][j1]
        if end.partner(ex) != ey:
            raise NotALoop("end handle does not match any start handle by position")
        kk = index[ex]
        pair = end.handle_of(ex)
        flip = 1 if end.position(pair[0]) == (i0, j0) else -1
        for r in range(n):
            out[r][k] = flip * m[r][kk]
    return tuple(tuple(r) for r in out)


def _smith_row_ops(
    mat: list[list[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]], int]:
    """Diagonalize S = U * mat * V over the integers.

    Returns (S, U, Uinv, rank) with U unimodular; V is not needed by any
    caller so only its effect on S is kept.  Divisibility of the diagonal
    is enforced so the invariant factors are genuine.
    """
    a = [row[:] for row in mat]
    n = len(a)
    k = len(a[0]) if a else 0
    u = _identity(n)
    uinv = _identity(n)

    def row_swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in range(n):
            uinv[r][i], uinv[r][j] = uinv[r][j], uinv[r][i]

    def row_add(i: int, j: int, c: int) -> None:
        # row i += c * row j with i != j; inverse tracked as a column op
        for t in range(k):
            a[i][t] += c * a[j][t]
        for t in range(n):
            u[i][t] += c * u[j][t]
        for r in range(n):
            uinv[r][j] -= c * uinv[r][i]

    def row_negate(i: int) -> None:
        for t in range(k):
            a[i][t] = -a[i][t]
        for t in range(n):
            u[i][t] = -u[i][t]
        for r in range(n):
            uinv[r][i] = -uinv[r][i]

    def col_swap(i: int, j: int) -> None:
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]

    def col_add(i: int, j: int, c: int) -> None:
        for r in range(n):
            a[r][i] += c * a[r][j]

    rank = 0
    while True:
        pivot = None
        for i in range(rank, n):
            for j in range(rank, k):
                if a[i][j] and (
                    pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])
                ):
                    pivot = (i, j)
        if pivot is None:
            break
        row_swap(rank, pivot[0])
        col_swap(rank, pivot[1])
        dirty = False
        for i in range(rank + 1, n):
            if a[i][rank]:
                row_add(i, rank, -(a[i][rank] // a[rank][rank]))
                dirty = dirty or bool(a[i][rank])
        for j in range(rank + 1, k):
            if a[rank][j]:
                col_add(j, rank, -(a[rank][j] // a[rank][rank]))
                dirty = dirty or bool(a[rank][j])
        if dirty:
            continue
        if a[rank][rank] < 0:
            row_negate(rank)
        fixed = True
        for i in range(rank + 1, n):
            for j in range(rank + 1, k):
                if a[i][j] % a[rank][rank]:
                    row_add(rank, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            rank += 1
    return a, u, uinv, rank


def h1_action(
    seq: ArcslideSequence,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Handle-basis action of a closed slide sequence plus its capped form.

    The full matrix multiplies the slides' elementary matrices (and the
    rename step, when present) in the start handle basis.  The capped
    matrix is the induced map on cycles modulo the classes of the boundary
    components, the action on the capped-off closed surface; it always has
    determinant +1 or -1.  Raises NotALoop unless end matches start.
    """
    if not same_pattern(seq.start, seq.end):
        raise NotALoop("sequence does not return to its start diagram")
    full = _sequence_matrix(seq.start, seq.slides, seq.renames, seq.end)

    d = seq.start
    order = list(d.matching)
    n = len(order)
    idx = {pair: k for k, pair in enumerate(order)}
    label_of: dict[str, int] = {}
    for i, pts in enumerate(d.intervals):
        for p in pts:
            label_of[p] = i

    # spanning tree over intervals; non-tree handles give a cycle basis
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(d.intervals))}
    for k, (x, y) in enumerate(order):
        adj[label_of[x]].append((label_of[y], k))
        adj[label_of[y]].append((label_of[x], k))
    parent: dict[int, tuple[int, int, int]] = {0: (0, -1, 0)}
    queue = [0]
    while queue:
        i = queue.pop(0)
        for j, k in adj[i]:
            if j not in parent:
                # sign makes the tree-path chain run child -> parent
                x, _ = order[k]
                parent[j] = (i, k, -1 if label_of[x] == i else 1)
                queue.append(j)
    if len(parent) != len(d.intervals):
        raise MalformedDiagram("surface is not connected")
    tree_edges = {k for i, (_, k, _sgn) in parent.items() if k >= 0}
    free = [k for k in range(n) if k not in tree_edges]

    def path_to_root(i: int) -> dict[int, int]:
        out: dict[int, int] = {}
        while i != 0:
            pi, k, sgn = parent[i]
            out[k] = out.get(k, 0) + sgn
            i = pi
        return out

    def cycle_vector(k: int) -> list[int]:
        x, y = order[k]
        v = [0] * n
        v[k] += 1
        for ke, c in path_to_root(label_of[y]).items():
            v[ke] += c
        for ke, c in path_to_root(label_of[x]).items():
            v[ke] -= c
        return v

    basis = [cycle_vector(k) for k in free]

    def in_cycle_coords(v: Sequence[int]) -> list[int]:
        # fundamental-cycle coordinates live on the free slots; verify
        coeffs = [v[k] for k in free]
        check = [0] * n
        for c, vec in zip(coeffs, basis):
            for t in range(n):
                check[t] += c * vec[t]
        if list(v) != check:
            raise NotALoop("chain action does not preserve cycles")
        return coeffs

    r = len(free)
    m_cycles = [[0] * r for _ in range(r)]
    for c in range(r):
        vec = basis[c]
        img = [sum(full[t][s] * vec[s] for s in range(n)) for t in range(n)]
        col = in_cycle_coords(img)
        for t in range(r):
            m_cycles[t][c] = col[t]

    bclasses = []
    for _, chain in d.boundary_components():
        v = [0] * n
        for pair, c in chain:
            v[idx[pair]] = c
        bclasses.append(in_cycle_coords(v))
    if not any(any(b) for b in bclasses):
        capped = tuple(tuple(row) for row in m_cycles)
    else:
        dmat = [[b[i] for b in bclasses] for i in range(r)]
        s, u, uinv, rank = _smith_row_ops(dmat)
        for t in range(rank):
            if abs(s[t][t]) != 1:
                raise NotALoop("boundary classes do not split off; capping failed")
        um = [
            [sum(u[i][t] * m_cycles[t][j] for t in range(r)) for j in range(r)]
            for i in range(r)
        ]
        umu = [
            [sum(um[i][t] * uinv[t][j] for t in range(r)) for j in range(r)]
            for i in range(r)
        ]
        for i in range(rank, r):
            for j in range(rank):
                if umu[i][j]:
                    raise NotALoop("action does not preserve boundary classes")
        capped = tuple(tuple(umu[i][j] for j in range(rank, r)) for i in range(rank, r))
    det = _det_int([list(row) for row in capped])
    if det not in (1, -1):
        raise NotALoop(f"capped action has determinant {det}")
    return full, capped


# ---------------------------------------------------------------------------
# boundary adjustments and factorization


def boundary_adjustment(
    sigma1: SpecialMark, sigma2: SpecialMark, t: TrainTrack
) -> ArcslideSequence:
    """Slides carrying the special diagram of ``sigma1`` to ``sigma2``'s.

    Regions whose star differs get their frame handle walked around the
    region's boundary arc, back foot first; regions are processed in index
    order, and their boundary components are disjoint, so the routes never
    interact.  Equal marks give the empty sequence.
    """
    m1 = sigma1.region_map(t)
    m2 = sigma2.region_map(t)
    start = special_arc_diagram(t, sigma1)
    d = start
    slides: list[Arcslide] = []
    for r in sorted(m1):
        if m1[r] == m2[r]:
            continue
        d, moved = _move_frame(d, w_from=m2[r], w_to=m1[r])
        slides.extend(moved)
    target = special_arc_diagram(t, sigma2)
    if not same_pattern(d, target):
        raise NotALoop("adjustment did not reach the target diagram")
    h1 = _sequence_matrix(start, slides, (), d)
    return ArcslideSequence(start, tuple(slides), d, h1, tuple(start.matching))


def _iso_renames(iso: TrackIso, t_end: TrainTrack) -> dict[str, str]:
    ren: dict[str, str] = {}
    for b in t_end.branches:
        for e in (0, 1):
            img = iso.end_image(BranchEnd(b, e))
            ren[f"{b}.{e}"] = f"{img.branch}.{img.end}"
    return ren


def _relabel(
    d: ArcDiagram, iso: TrackIso, t0: TrainTrack, t_end: TrainTrack
) -> ArcDiagram:
    """Rename points and reorder intervals through a track isomorphism."""
    sw_map = dict(iso.switches)
    ren = _iso_renames(iso, t_end)

    def rn(p: str) -> str:
        return ren.get(p, p)

    rows = {
        sw_map[lbl]: tuple(rn(p) for p in pts)
        for lbl, pts in zip(d.labels, d.intervals)
    }
    intervals = tuple(rows[sw.name] for sw in t0.switches)
    matching = tuple((rn(x), rn(y)) for x, y in d.matching)
    labels = tuple(sw.name for sw in t0.switches)
    return ArcDiagram(intervals, matching, labels)


def factorize(cycle: AgolCycle, sigma: SpecialMark) -> ArcslideSequence:
    """Arcslide factorization of a splitting cycle's surface automorphism.

    Turns each recorded split of the period into two slides on the special
    diagram of ``sigma``, closes the period through the cycle's track
    isomorphism (a rename step), and finally routes every frame handle back
    to its original cusp with boundary adjustments.  The sequence starts and
    ends at the same diagram, so its homology action is defined.  Each event
    is checked against the recorded track and measure before its group.
    """
    t0 = cycle.start_track
    start = special_arc_diagram(t0, sigma)
    d = start
    slides: list[Arcslide] = []
    cur = sigma
    for t, mu, group in zip(cycle.period_tracks, cycle.period_measures, cycle.events):
        for ev in group:
            if split_case(t, mu, ev.branch) is not ev.case:
                raise NotALoop(f"recorded period does not split {ev.branch} {ev.case.value}")
            pair, d = _split_slides(d, ev)
            slides.extend(pair)
            cur = sigma_transport(ev, cur)
    t = cycle.period_tracks[-1]
    ren = _iso_renames(cycle.iso, t)
    d = _relabel(d, cycle.iso, t0, t)
    sw_map = dict(cycle.iso.switches)
    cur = SpecialMark(frozenset(sw_map[w] for w in cur.switches))
    renames = ((len(slides), tuple(sorted(ren.items()))),)
    if not same_pattern(d, special_arc_diagram(t0, cur)):
        raise NotALoop("period did not land on the transported special diagram")
    ma = cur.region_map(t0)
    mb = sigma.region_map(t0)
    for r in sorted(ma):
        if ma[r] == mb[r]:
            continue
        d, moved = _move_frame(d, w_from=mb[r], w_to=ma[r])
        slides.extend(moved)
    if not same_pattern(d, start):
        raise NotALoop("factorization did not close up")
    h1 = _sequence_matrix(start, slides, renames, d)
    return ArcslideSequence(
        start, tuple(slides), d, h1, tuple(start.matching), renames
    )


def serialize_sequence(seq: ArcslideSequence) -> str:
    """Plain-text form: the start diagram, then one line per slide.

    Slide lines read (interval, index of the slid point, index of the point
    slid across, direction), indices taken in the diagram the slide applies
    to.
    """
    lines = []
    for lbl, pts in zip(seq.start.labels, seq.start.intervals):
        lines.append(f"interval {lbl}: {' '.join(pts)}")
    for x, y in seq.start.matching:
        lines.append(f"match {x} {y}")
    for sl in seq.slides:
        lines.append(sl.as_line())
    return "\n".join(lines) + "\n"
