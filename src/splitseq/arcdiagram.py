"""Arc diagrams cut out of train tracks, arcslides, and slide factorizations.

An arc diagram here is a combinatorial sutured-surface presentation: a list
of oriented intervals, each carrying an ordered list of marked points, plus
a fixed-point-free matching that glues the points in pairs by 1-handles.
Thicken each interval to a rectangle, attach a band for every matched pair
along the bottom edges, and the result is an oriented surface F whose
boundary splits into one positive arc per interval (the top and upper
half-sides of its rectangle) and negative arcs that snake along the bottoms
and through the bands.

``special_arc_diagram`` builds one from a generic filling train track and
a ``SpecialMark``, a starred cusp switch in each complementary region.
Each switch gives an interval, the small circle around it cut open inside
the cusp sector, whose points read [small_left, large, small_right] in the
circle's boundary orientation, and the two ends of every branch are
matched.  Those handles alone make the negative boundary arcs of F trace
the regions, by the face map of ``traintrack.regions``, with one positive
arc per cusp.  Every unstarred switch w then gets a frame handle, whose
feet w.L and w.R bracket its three points.  A region's arc closes up
through the frames, so only its starred switch keeps a positive arc on
the region's component, and each frame adds one component with one
positive arc of its own.  The diagram is therefore special: one positive
and one negative arc on each of its (regions + unstarred switches)
boundary components, and chi(F) = regions - branches.

Splitting a branch moves exactly two points, each sliding over an end of
the split branch and landing next to the opposite end: a pair of arcslides.
The slides reproduce the post-split diagram up to where each affected
interval is cut open, because the cusp sector of a switch rotates past the
split branch while slides never move the cut.  ``split_slides`` therefore
ends with two list moves that re-cut the two intervals (new branch end to
the front of the interval for a left split, to the back for a right split).
The re-cut touches no handle, and on capped homology it is invisible: its
only chain-level content is a boundary-parallel class.  Slides run in place
on interval lists and are kept as records, not diagrams.

First homology of F is tracked on the chain level.  Handles are oriented
edges between interval-vertices; an arcslide rewrites the slid handle as
itself plus or minus the handle it slid across, an elementary matrix;
``h1_action`` multiplies them once per sequence.  Capping the boundary
components with disks kills their classes, which split off exactly when an
integer diagonal form of their matrix has every pivot +1 or -1, and yields
the action on the closed surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .numberfield import _det_int, _identity, _mat_mul
from .splitting import AgolCycle, SplitCase, SplitEvent
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
    @cached_property
    def _maps(self) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
        partner: dict[str, str] = {}
        pair_of: dict[str, tuple[str, str]] = {}
        for x, y in self.matching:
            partner[x], partner[y] = y, x
            pair_of[x] = pair_of[y] = (x, y)
        return partner, pair_of

    @cached_property
    def _position_map(self) -> dict[str, tuple[int, int]]:
        return {p: (i, j) for i, pts in enumerate(self.intervals) for j, p in enumerate(pts)}

    def partner(self, p: str) -> str:
        return self._maps[0][p]

    def handle_of(self, p: str) -> tuple[str, str]:
        return self._maps[1][p]

    def position(self, p: str) -> tuple[int, int]:
        return self._position_map[p]

    # -- boundary tracing ----------------------------------------------------
    def _walk(self, i: int) -> tuple[int, list[tuple[tuple[str, str], int]], int]:
        """Trace one negative arc from the head gap of interval i.

        Returns (end interval, signed handle crossings, gaps visited).
        Crossing a handle from its tail to its head counts +1.
        """
        pos = self._position_map
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
        # circle around the switch, cut open inside the cusp sector
        pts = (str(sw.small_left), str(sw.large), str(sw.small_right))
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


def _where(rows: Sequence[Sequence[str]], p: str) -> tuple[int, int] | None:
    return next(((i, pts.index(p)) for i, pts in enumerate(rows) if p in pts), None)


def _with_rows(d: ArcDiagram, rows: list[list[str]]) -> ArcDiagram:
    return ArcDiagram(tuple(map(tuple, rows)), d.matching, d.labels)


@dataclass(frozen=True)
class Arcslide:
    """One slide, ``slid`` across its neighbor ``over``, recorded ``at``
    (interval, index of slid, index of over) in the diagram it applies to."""

    slid: str
    over: str
    at: tuple[int, int, int]

    def as_line(self) -> str:
        i, ja, jb = self.at
        return f"({i}, {ja}, {jb}, {'+' if jb > ja else '-'})"


def _slide(rows: list[list[str]], d: ArcDiagram, slid: str, over: str) -> Arcslide:
    """Slide ``slid`` across ``over`` in place on ``rows``, the intervals of
    a diagram with ``d``'s matching, and record where it happened."""
    a, b = _where(rows, slid), _where(rows, over)
    if a is None or b is None:
        raise NotAdjacent(f"unknown point in ({slid!r}, {over!r})")
    (ia, ja), (ib, jb) = a, b
    if ia != ib or abs(ja - jb) != 1:
        raise NotAdjacent(f"{slid!r} and {over!r} are not adjacent on one interval")
    target = d.partner(over)
    if target == slid:
        raise NotAdjacent("cannot slide a handle across itself")
    rows[ia].pop(ja)
    ti, tj = _where(rows, target)
    # slid sat above over, so it lands below the partner, and vice versa
    rows[ti].insert(tj if ja > jb else tj + 1, slid)
    return Arcslide(slid, over, (ia, ja, jb))


def _elementary_sign(handle: dict[str, tuple[int, int]], slid: str, over: str) -> int:
    """Chain-level content of a slide: handle(slid) += s * handle(over).

    The slid handle's new core runs from the landing spot back through the
    crossed handle to the old foot; s is the crossed handle's orientation
    along that detour times the moved foot's end of its own handle.
    ``handle[p]`` is (slot of p's handle, 1 if p is its tail else -1).
    """
    return -handle[slid][1] * handle[over][1]


# ---------------------------------------------------------------------------
# splits as slide pairs


def split_slides(
    pre: ArcDiagram, event: SplitEvent
) -> tuple[tuple[Arcslide, Arcslide], ArcDiagram]:
    """The two slides realizing a left or right split, and the diagram after.

    Each small branch on the shrinking side of the split branch slides
    across the branch end it abuts and lands beside the opposite end; both
    movers are read off ``pre``.  The two affected intervals are then
    re-cut: each new branch end moves to the front (left split) or back
    (right split) of its interval's framed span.  That is pure basepoint
    bookkeeping, because the cusp sector of a switch rotates past the split
    branch during a split, so the cut tracking the cusp lands on the far
    side of the new branch end; no handle changes, and the capped homology
    action is unaffected.  The returned diagram equals the one built fresh
    from the post-split track, frames riding along untouched.
    """
    if event.case is SplitCase.CENTRAL:
        raise CentralSplit("central splits do not act by arcslides")
    front = event.case is SplitCase.LEFT
    ends = (f"{event.branch}.0", f"{event.branch}.1")
    movers = []
    for e in ends:
        i, j = pre.position(e)
        pts = pre.intervals[i]
        k = j + 1 if front else j - 1
        if not (0 <= k < len(pts)):
            raise NotAdjacent(f"no neighbor on the split side of {e}")
        movers.append(pts[k])
    rows = [list(pts) for pts in pre.intervals]
    first, second = (_slide(rows, pre, m, e) for m, e in zip(movers, ends))
    for e in ends:
        i, j = _where(rows, e)
        pts = rows[i]
        lo, hi = 0, len(pts)
        if len(pts) >= 2 and pre.partner(pts[0]) == pts[-1]:
            lo, hi = 1, len(pts) - 1  # keep the frame handle outside
        pts.pop(j)
        pts.insert(lo if front else hi - 1, e)
    return (first, second), _with_rows(pre, rows)


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
    rows = [list(p) for p in d.intervals]
    slides: list[Arcslide] = []
    budget = 4 * sum(len(p) for p in rows) + 8
    for foot, step, name in ((y, -1, "back"), (x, 1, "front")):
        while True:
            i, j = _where(rows, foot)
            last = 0 if step < 0 else len(rows[i]) - 1
            if i == i_to and j == last:
                break
            if j == last or budget <= 0:
                raise MalformedDiagram(f"{name} foot ran off its route")
            slides.append(_slide(rows, d, foot, rows[i][j + step]))
            budget -= 1
    return _with_rows(d, rows), slides


# ---------------------------------------------------------------------------
# slide sequences and homology


@dataclass(frozen=True)
class ArcslideSequence:
    """Slides applied left to right; the sequence is data only.

    Only ``start`` and ``end`` are diagrams; each slide records positions
    in the diagram the slides before it reach.  ``renames`` records point
    renamings applied between slides, as (index of the next slide, old ->
    new pairs), each keeping a point's end of its handle; factorizations use
    one such step where the period closes up through the track isomorphism.
    The homology action is computed from the slides by ``h1_action``.
    """

    start: ArcDiagram
    slides: tuple[Arcslide, ...]
    end: ArcDiagram
    renames: tuple[tuple[int, tuple[tuple[str, str], ...]], ...] = ()


def _chain_action(seq: ArcslideSequence) -> tuple[tuple[int, ...], ...]:
    """Handle-basis matrix of a loop: the slides' elementary matrices
    multiplied in the start handle basis.

    Column k of the running product expresses the handle currently carrying
    slot k in the start basis; a rename step rewires point names without a
    matrix factor, because renaming moves no handle.  Each handle's slot
    and tail come from ``seq.start.matching``, carried through the renames.
    The end handles are then identified with start handles through their
    foot positions, which makes the matrix an endomorphism of the start
    basis.  The caller checks that end and start have the same pattern.
    """
    start, end = seq.start, seq.end
    order = start.matching
    n = len(order)
    handle = {p: (k, 1 if p == pair[0] else -1) for k, pair in enumerate(order) for p in pair}
    m = _identity(n)
    rename_at = {pos: dict(pairs) for pos, pairs in seq.renames}

    def rename(pos: int) -> None:
        ren = rename_at.get(pos, {})
        moved = {old: handle.pop(old) for old in ren if old in handle}
        handle.update((ren[old], h) for old, h in moved.items())

    for k, sl in enumerate(seq.slides):
        rename(k)
        s = _elementary_sign(handle, sl.slid, sl.over)
        col, row = handle[sl.slid][0], handle[sl.over][0]
        for r in range(n):
            m[r][col] += s * m[r][row]
    rename(len(seq.slides))
    cols = []
    for x, _ in order:
        i, j = start.position(x)
        cols.append(handle[end.intervals[i][j]])
    return tuple(tuple(flip * row[c] for c, flip in cols) for row in m)


def _diagonalize(
    mat: list[list[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]], int]:
    """Diagonalize S = U * mat * V over the integers.

    Returns (S, U, Uinv, rank) with U unimodular; V is not needed by any
    caller so only its effect on S is kept.  The diagonal is not made
    divisible: the product of its |entries| still equals the product of
    the invariant factors, which is all the caller asks about.
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
        if not dirty:
            rank += 1
    return a, u, uinv, rank


def h1_action(
    seq: ArcslideSequence,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Handle-basis action of a closed slide sequence plus its capped form.

    This is the one place the chain-level action of a sequence is computed.
    The full matrix multiplies the slides' elementary matrices (and the
    rename step, when present) in the start handle basis, ordered as
    ``seq.start.matching``.  The capped matrix is the induced map on cycles
    modulo the classes of the boundary components, the action on the
    capped-off closed surface; it always has determinant +1 or -1.  Raises
    NotALoop unless end matches start.
    """
    if not same_pattern(seq.start, seq.end):
        raise NotALoop("sequence does not return to its start diagram")
    full = _chain_action(seq)

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
    images = _mat_mul(basis, list(zip(*full)))  # row c is full * basis[c]
    m_cycles = [list(row) for row in zip(*(in_cycle_coords(img) for img in images))]

    bclasses = []
    for _, chain in d.boundary_components():
        v = [0] * n
        for pair, c in chain:
            v[idx[pair]] = c
        bclasses.append(in_cycle_coords(v))
    s, u, uinv, rank = _diagonalize([[b[i] for b in bclasses] for i in range(r)])
    if any(abs(s[t][t]) != 1 for t in range(rank)):
        raise NotALoop("boundary classes do not split off; capping failed")
    umu = _mat_mul(_mat_mul(u, m_cycles), uinv)
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


def _route_frames(
    d: ArcDiagram, t: TrainTrack, sigma1: SpecialMark, sigma2: SpecialMark
) -> tuple[ArcDiagram, list[Arcslide]]:
    """Walk the frame handle of every region whose star differs between the
    marks, in region index order, from the special diagram of ``sigma1``
    toward that of ``sigma2``."""
    m1 = sigma1.region_map(t)
    m2 = sigma2.region_map(t)
    slides: list[Arcslide] = []
    for r in sorted(m1):
        if m1[r] != m2[r]:
            d, moved = _move_frame(d, w_from=m2[r], w_to=m1[r])
            slides.extend(moved)
    return d, slides


def _iso_renames(iso: TrackIso, t_end: TrainTrack) -> dict[str, str]:
    ren: dict[str, str] = {}
    for b in t_end.branches:
        for e in (0, 1):
            img = iso.end_image(BranchEnd(b, e))
            ren[f"{b}.{e}"] = f"{img.branch}.{img.end}"
    return ren


def _relabel(
    d: ArcDiagram, iso: TrackIso, t0: TrainTrack, ren: dict[str, str]
) -> ArcDiagram:
    """Rename points by `ren` and reorder intervals through the isomorphism."""
    sw_map = dict(iso.switches)

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
    ends at the same diagram, so its homology action is defined.  The
    events are taken as the cycle certified them when it was built.
    """
    t0 = cycle.start_track
    start = special_arc_diagram(t0, sigma)
    d = start
    slides: list[Arcslide] = []
    for group in cycle.events:
        for ev in group:
            pair, d = split_slides(d, ev)
            slides.extend(pair)
    ren = _iso_renames(cycle.iso, cycle.period_tracks[-1])
    d = _relabel(d, cycle.iso, t0, ren)
    # splits keep switch names and stars, so only the isomorphism moves them
    sw_map = dict(cycle.iso.switches)
    moved = SpecialMark(frozenset(sw_map[w] for w in sigma.switches))
    renames = ((len(slides), tuple(sorted(ren.items()))),)
    if not same_pattern(d, special_arc_diagram(t0, moved)):
        raise NotALoop("period did not land on the transported special diagram")
    d, tail = _route_frames(d, t0, moved, sigma)
    slides.extend(tail)
    if not same_pattern(d, start):
        raise NotALoop("factorization did not close up")
    return ArcslideSequence(start, tuple(slides), d, renames)


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
