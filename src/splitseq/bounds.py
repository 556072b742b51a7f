"""Complexity bounds computed from a periodic splitting cycle.

Everything here is integer arithmetic on the cycle's transition matrix M:
the per-step stretch r, the positivity exponent K, carrying bounds c and c'
for tracks extended by diagonals, the iterated growth value M_psi, and the
final disk-generator bound.  Curves are handled in normal coordinates with
respect to the dual triangulation of the cycle's track.
"""

from dataclasses import dataclass
from typing import Optional

from .splitting import AgolCycle, CarryingMatrix, SplitCase, incidence_compose, split_case
from .traintrack import (
    BranchEnd,
    DiagonalExtension,
    Region,
    TrainTrack,
    diagonal_extensions,
    regions,
)


class NotPrimitive(ValueError):
    """No power of the matrix within the dimension bound is positive."""


class NotAnExtension(ValueError):
    """The diagonal data does not describe a maximal extension of the track."""


class IncompatibleCoordinates(ValueError):
    """Normal coordinates violate a triangle condition."""


class DimensionMismatch(ValueError):
    """Vector length does not match the matrix."""


class ReplayMismatch(RuntimeError):
    """A cycle's recorded events do not match its recorded period."""


class BoundViolated(ArithmeticError):
    """A pushed curve broke the length or intersection bound it must satisfy."""


@dataclass(frozen=True)
class NormalCurve:
    """A multicurve in normal position, counted by crossings per branch."""

    coords: tuple[int, ...]
    components: int = 1

    def __post_init__(self):
        if any(int(x) != x or x < 0 for x in self.coords):
            raise IncompatibleCoordinates("coordinates must be nonnegative integers")
        if self.components < 1:
            raise IncompatibleCoordinates("a curve has at least one component")


@dataclass(frozen=True)
class BoundReport:
    r: int
    K: int
    c: int
    c_prime: int
    M_psi: int
    dd: int
    g: int
    s: int
    l: int
    m: Optional[int] = None


def _square_entries(M) -> tuple[tuple[int, ...], ...]:
    ent = M.entries if isinstance(M, CarryingMatrix) else tuple(tuple(r) for r in M)
    n = len(ent)
    if any(len(row) != n for row in ent):
        raise ValueError("matrix must be square")
    if any(x < 0 or int(x) != x for row in ent for x in row):
        raise ValueError("matrix entries must be nonnegative integers")
    return ent


def r_of_psi(M) -> int:
    """Largest column sum: the most branches any single branch maps over."""
    ent = _square_entries(M)
    return max(sum(row[j] for row in ent) for j in range(len(ent)))


def _mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def power_positive_K(M) -> int:
    """Least K with M^K (and then every higher power) entrywise positive."""
    ent = _square_entries(M)
    n = len(ent)
    cap = (n - 1) ** 2 + 1
    p = ent
    for k in range(1, cap + 1):
        if all(x > 0 for row in p for x in row):
            nxt = _mat_mul(p, ent)
            if not all(x > 0 for row in nxt for x in row):
                raise NotPrimitive("a positive power is followed by a non-positive one")
            return k
        p = _mat_mul(p, ent)
    raise NotPrimitive(f"no positive power up to the dimension bound {cap}")


# ---------------------------------------------------------------------------
# cusp transport along a cycle

# A split along branch e trades the cusps of the two switches at its ends:
# carried back to the pre-split track, the cusp now at the end-0 switch sits
# at the end-1 switch's old cusp (and vice versa), joined to it by a train
# path that runs once over e.  Everything below composes this local fact.


def _period_cusp_data(cycle: AgolCycle):
    """Cusp permutation and connecting-path counts for one period.

    Returns (sigma, gamma) in the start-track frame: sigma sends each switch
    name to the name whose cusp the map lands on, and gamma[name] counts how
    often the connecting train path runs over each start-track branch.

    Nothing is split again.  Group k of the events is read off the recorded
    track and measure before it, the split branch's column off the product
    of the earlier groups' matrices, and each event's case is checked there
    (one exact sign).  This equals splitting the group one branch at a time:
    a period holds no central split, and two large branches share no
    switch, so no split of a group changes what another one reads.
    """
    t0 = cycle.start_track
    sigma = {sw.name: sw.name for sw in t0.switches}
    gamma = {sw.name: [0] * t0.l for sw in t0.switches}
    composed: Optional[CarryingMatrix] = None

    for cur_t, cur_m, step, elem in zip(
        cycle.period_tracks, cycle.period_measures, cycle.events, cycle.period_elems
    ):
        for ev in step:
            if ev.case is SplitCase.CENTRAL:
                raise ValueError("a cycle period cannot contain a central split")
            if split_case(cur_t, cur_m, ev.branch) is not ev.case:
                raise ReplayMismatch(f"recorded period does not split {ev.branch} {ev.case.value}")
            u_name, v_name = (cur_t.switch_of(BranchEnd(ev.branch, e)).name for e in (0, 1))
            # push the local crossing of ev.branch into start-track counts
            if composed is None:
                local = [int(b == ev.branch) for b in t0.branches]
            else:
                j = composed.cols.index(ev.branch)
                local = [row[j] for row in composed.entries]
            sigma[u_name], sigma[v_name] = sigma[v_name], sigma[u_name]
            gamma[u_name], gamma[v_name] = (
                [a + b for a, b in zip(local, gamma[v_name])],
                [a + b for a, b in zip(local, gamma[u_name])],
            )
        composed = elem if composed is None else incidence_compose(composed, elem)

    # fold the closing isomorphism in: a start-track cusp is first pulled
    # back through it (the iso maps end-track switches to start-track ones),
    # then transported by the period
    inv = {start: end for end, start in cycle.iso.switches}
    psi_sigma = {name: sigma[inv[name]] for name in inv}
    psi_gamma = {name: tuple(gamma[inv[name]]) for name in inv}
    return psi_sigma, psi_gamma


def _iterate_cusp_data(cycle: AgolCycle, k: int):
    """Cusp data for the k-fold map: permutation and per-cusp path counts."""
    sigma1, gamma1 = _period_cusp_data(cycle)
    M = cycle.cycle_matrix.entries
    n = len(M)
    names = list(sigma1)
    sigma = {c: c for c in names}
    gamma = {c: tuple(0 for _ in range(n)) for c in names}
    power = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for _ in range(k):
        # one more application underneath; its path, written upstairs, is
        # the current power of M applied to the single-period path
        nxt_sigma = {c: sigma[sigma1[c]] for c in names}
        nxt_gamma = {}
        for c in names:
            pushed = tuple(
                sum(power[i][j] * gamma1[c][j] for j in range(n)) for i in range(n)
            )
            nxt_gamma[c] = tuple(p + q for p, q in zip(pushed, gamma[sigma1[c]]))
        sigma, gamma = nxt_sigma, nxt_gamma
        power = _mat_mul(power, M)
    return sigma, gamma


def _check_extension(t: TrainTrack, regs: tuple[Region, ...], ext: DiagonalExtension):
    chords_by_region = dict(ext.diagonals)
    if set(chords_by_region) != set(range(len(regs))):
        raise NotAnExtension("extension must list every region exactly once")
    for i, r in enumerate(regs):
        k = r.cusp_count
        chords = chords_by_region[i]
        if len(chords) != max(0, k - 3):
            raise NotAnExtension(f"region {i} is not fully subdivided")
        for a, b in chords:
            if not (0 <= a < b < k) or b - a == 1 or (a == 0 and b == k - 1):
                raise NotAnExtension(f"chord {(a, b)} in region {i} is not a diagonal")
        for a, b in chords:
            for c, d in chords:
                if a < c < b < d:
                    raise NotAnExtension(f"chords cross in region {i}")


def _diag_names(ext: DiagonalExtension) -> list[tuple[str, int, tuple[int, int]]]:
    out = []
    for i, chords in ext.diagonals:
        for a, b in sorted(chords):
            out.append((f"d{i}_{a}_{b}", i, (a, b)))
    return out


def _cycle_transport(cycle: AgolCycle):
    """What every extension of a cycle shares: K-fold cusp data and M^K."""
    K = power_positive_K(cycle.cycle_matrix)
    sigma, gamma = _iterate_cusp_data(cycle, K)
    mk = cycle.cycle_matrix.entries
    for _ in range(K - 1):
        mk = _mat_mul(mk, cycle.cycle_matrix.entries)
    return sigma, gamma, mk


def extension_incidence(
    cycle: AgolCycle, ext: DiagonalExtension
) -> tuple[DiagonalExtension, CarryingMatrix]:
    """Carrying data once the cycle's track is filled in with diagonals.

    The k-fold map (k chosen so the plain transition matrix is positive)
    sends each added diagonal to a path: its two endpoint cusps travel along
    recorded train paths, and the middle runs over the image diagonal.  The
    returned matrix has the plain branches' k-fold transition matrix as its
    upper-left block, one extra row per image diagonal and one extra column
    per original diagonal.
    """
    regs = regions(cycle.start_track)
    _check_extension(cycle.start_track, regs, ext)
    return _extension_incidence(cycle.start_track, regs, ext, *_cycle_transport(cycle))


def _extension_incidence(t0: TrainTrack, regs, ext: DiagonalExtension, sigma, gamma, mk):
    # locate each region by its cusp set and map chords through sigma
    cusp_region = {}
    cusp_pos = {}
    for i, r in enumerate(regs):
        for p, cusp in enumerate(r.cusps):
            cusp_region[cusp.switch] = i
            cusp_pos[cusp.switch] = p

    mapped = {i: set() for i in range(len(regs))}
    col_diags = _diag_names(ext)
    images = {}
    for name, i, (a, b) in col_diags:
        cusps = regs[i].cusps
        sa, sb = sigma[cusps[a].switch], sigma[cusps[b].switch]
        i2 = cusp_region[sa]
        if cusp_region[sb] != i2:
            raise NotAnExtension("cusp transport split a region apart")
        pa, pb = sorted((cusp_pos[sa], cusp_pos[sb]))
        mapped[i2].add((pa, pb))
        images[name] = (i2, (pa, pb))

    ext2 = DiagonalExtension(
        tuple((i, frozenset(mapped[i])) for i in range(len(regs)))
    )
    _check_extension(t0, regs, ext2)
    row_diags = _diag_names(ext2)
    row_names = {(i, ch): nm for nm, i, ch in row_diags}

    rows = t0.branches + tuple(nm for nm, _, _ in row_diags)
    cols = t0.branches + tuple(nm for nm, _, _ in col_diags)
    ent = []
    for bi, b in enumerate(t0.branches):
        row = list(mk[bi])
        for name, i, (a, b2) in col_diags:
            cusps = regs[i].cusps
            row.append(gamma[cusps[a].switch][bi] + gamma[cusps[b2].switch][bi])
        ent.append(tuple(row))
    for nm, _, _ in row_diags:
        row = [0] * t0.l
        for cname, _, _ in col_diags:
            row.append(int(row_names[images[cname]] == nm))
        ent.append(tuple(row))
    N = CarryingMatrix(rows, cols, tuple(ent))
    return ext2, N


def c_of_psi(cycle: AgolCycle) -> int:
    """Worst doubled row sum over every maximal diagonal extension, plus one.

    The cusp transport and M^K are computed once and shared by all
    extensions."""
    t0 = cycle.start_track
    regs = regions(t0)
    shared = _cycle_transport(cycle)
    best = 0
    for ext in diagonal_extensions(t0):
        _check_extension(t0, regs, ext)
        _, N = _extension_incidence(t0, regs, ext, *shared)
        best = max(best, max(sum(row) for row in N.entries))
    return 2 * best + 1


def _diagonal_lengths(t: TrainTrack) -> list[int]:
    out = []
    for r in regions(t):
        k = r.cusp_count
        positions = [p for p, c in enumerate(r.corner_cusps) if c is not None]
        n = len(r.boundary)
        for x in range(k):
            for y in range(x + 1, k):
                if y - x == 1 or (x == 0 and y == k - 1):
                    continue  # adjacent cusps: the arc is parallel to an edge
                steps_one_way = (positions[y] - positions[x]) % n
                out.append(min(steps_one_way, n - steps_one_way))
    return out


def c_prime(t: TrainTrack) -> int:
    """Largest crossing count of a straightened diagonal with the dual edges.

    Inside its region, a diagonal between two cusps must cross the dual edge
    of every boundary branch on one side; the smaller side is the minimum.
    """
    lens = _diagonal_lengths(t)
    return max(lens) if lens else 0


def curve_length(curve: NormalCurve, t: Optional[TrainTrack] = None) -> int:
    """Total crossings with the dual triangulation; checks the triangle rules."""
    if t is not None:
        if len(curve.coords) != t.l:
            raise DimensionMismatch("coordinate length does not match branch count")
        idx = {b: j for j, b in enumerate(t.branches)}
        for sw in t.switches:
            sides = [curve.coords[idx[e.branch]] for e in sw.ccw()]
            if sum(sides) % 2:
                raise IncompatibleCoordinates(
                    f"odd crossing total around switch {sw.name}"
                )
            for i, x in enumerate(sides):
                if 2 * x > sum(sides):
                    raise IncompatibleCoordinates(
                        f"triangle inequality fails at switch {sw.name}"
                    )
    return sum(curve.coords)


def push_curve(M: CarryingMatrix, curve: NormalCurve):
    """Transport normal coordinates through the matrix and bound the result.

    Returns (new coordinates, their total, the pairing V^T M V).  The total
    is at most r per unit of the curve's length, and the pairing at most
    r times the length squared; both inequalities are rechecked here.
    """
    v = curve.coords
    if len(v) != len(M.cols):
        raise DimensionMismatch("coordinate length does not match matrix columns")
    ent = M.entries
    v2 = tuple(sum(ent[i][j] * v[j] for j in range(len(v))) for i in range(len(ent)))
    len_bound = sum(v2)
    int_bound = sum(v[i] * v2[i] for i in range(len(v)))
    r = r_of_psi(M)
    ell = sum(v)
    if len_bound > r * ell:
        raise BoundViolated(f"pushed length {len_bound} exceeds r * length = {r * ell}")
    if int_bound > r * ell * ell:
        raise BoundViolated(f"pairing {int_bound} exceeds r * length^2 = {r * ell * ell}")
    return v2, len_bound, int_bound


def m_of_psi(g: int, r: int, c_total: int) -> int:
    """Iterate x -> (1+r)x + rx^3, 2g times, starting from c_total."""
    if g < 1 or r < 1 or c_total < 0:
        raise ValueError("need g >= 1, r >= 1, c_total >= 0")
    x = c_total
    for _ in range(2 * g):
        x = (1 + r) * x + r * x**3
    return x


def dd_bound(g: int, s: int, m_psi: int) -> int:
    """Closed-form generator bound from the genus, switch count, and M_psi."""
    if g < 1 or s < 1:
        raise ValueError("need g >= 1 and s >= 1")
    return (20 * (g + s) - 18) ** s * (
        (2 * m_psi) ** (2 * g) + (2 * m_psi + 8) ** (2 * (g + s - 1))
    )


def bound_report(cycle: AgolCycle) -> BoundReport:
    t0 = cycle.start_track
    r = r_of_psi(cycle.cycle_matrix)
    K = power_positive_K(cycle.cycle_matrix)
    c = c_of_psi(cycle)
    cp = c_prime(t0)
    g = t0.genus
    s = t0.s  # one diagram boundary circle (and tube-cutting piece) per switch
    m_psi = m_of_psi(g, r, c + cp)
    return BoundReport(
        r=r,
        K=K,
        c=c,
        c_prime=cp,
        M_psi=m_psi,
        dd=dd_bound(g, s, m_psi),
        g=g,
        s=s,
        l=t0.l,
    )


def report_text(rep: BoundReport) -> str:
    pairs = [
        ("genus", rep.g),
        ("switches", rep.s),
        ("branches", rep.l),
        ("r", rep.r),
        ("K", rep.K),
        ("c", rep.c),
        ("c_prime", rep.c_prime),
        ("M_psi", rep.M_psi),
        ("generator_bound", rep.dd),
    ]
    if rep.m is not None:
        pairs.insert(3, ("basis", rep.m))
    width = max(len(k) for k, _ in pairs)
    return "\n".join(f"{k:<{width}} = {v}" for k, v in pairs) + "\n"
