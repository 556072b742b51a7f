"""Complexity bounds computed from a periodic splitting cycle.

Everything here is integer arithmetic on the cycle's transition matrix M:
the per-step stretch r, the positivity exponent K, carrying bounds c and c'
for tracks extended by diagonals, the iterated growth value M_psi, and the
final disk-generator bound.  Curves are handled in normal coordinates with
respect to the dual triangulation of the cycle's track.

c is a maximum over every maximal diagonal extension of the track, but no
extension is built: an image-diagonal row of an extension's carrying matrix
sums to 1 and never wins, and a branch's row sum splits into M^K's row plus
one term per region, which an interval dynamic program over that region's
cusp-polygon triangulations maximises on its own.
"""

from dataclasses import dataclass
from operator import add
from typing import Optional

from .numberfield import _identity, _is_primitive, _mat_mul
from .splitting import AgolCycle, CarryingMatrix
from .traintrack import BranchEnd, NotFilling, TrainTrack, _region_conditions, regions


class NotPrimitive(ValueError):
    """No power of the matrix within the dimension bound is positive."""


class NotAnExtension(ValueError):
    """The cusp transport does not carry diagonal extensions to extensions."""


class IncompatibleCoordinates(ValueError):
    """Normal coordinates violate a triangle condition."""


class DimensionMismatch(ValueError):
    """Vector length does not match the matrix."""


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


def power_positive_K(M) -> int:
    """Least K with M^K (and then every higher power) entrywise positive.

    Documented limitation: on the punctured torus, the cycle of a word
    whose cyclic runs of R and of L all have even length (a word in R^2
    and L^2, such as RRLL) has a cycle matrix with no positive power, so
    NotPrimitive is raised although the block acting on the measure is
    positive.  Whether the paper's K may be taken on that block is open."""
    ent = _square_entries(M)
    K = _is_primitive(ent)
    if not K:
        raise NotPrimitive(f"no positive power up to the dimension bound {(len(ent) - 1) ** 2 + 1}")
    return K


# ---------------------------------------------------------------------------
# cusp transport along a cycle

# A split along branch e trades the cusps of the two switches at its ends
# (the rule `splitting` moves puncture marks by): carried back to the
# pre-split track, the cusp now at the end-0 switch sits at the end-1
# switch's old cusp (and vice versa), joined to it by a train path that runs
# once over e.  Everything below composes this local fact.


def _period_cusp_data(cycle: AgolCycle):
    """Cusp permutation and connecting-path counts for one period.

    Returns (sigma, gamma) in the start-track frame: sigma sends each switch
    name to the name whose cusp the map lands on, and gamma[name] counts how
    often the connecting train path runs over each start-track branch.

    Nothing is split, decided or folded again: the cycle certified its
    events and folded its period once.  Group k of the events is read off
    the recorded track before it, and the split branch's column off
    `period_products[k]`, the product of the earlier groups' matrices.
    """
    t0 = cycle.start_track
    sigma = {sw.name: sw.name for sw in t0.switches}
    gamma = {sw.name: [0] * t0.l for sw in t0.switches}

    for cur_t, step, composed in zip(cycle.period_tracks, cycle.events, cycle.period_products):
        for ev in step:
            u_name, v_name = (cur_t.switch_of(BranchEnd(ev.branch, e)).name for e in (0, 1))
            # push the local crossing of ev.branch into start-track counts
            j = composed.cols.index(ev.branch)
            local = [row[j] for row in composed.entries]
            sigma[u_name], sigma[v_name] = sigma[v_name], sigma[u_name]
            gamma[u_name], gamma[v_name] = (
                [a + b for a, b in zip(local, gamma[v_name])],
                [a + b for a, b in zip(local, gamma[u_name])],
            )

    # fold the closing isomorphism in: a start-track cusp is first pulled
    # back through it (the iso maps end-track switches to start-track ones),
    # then transported by the period
    inv = {start: end for end, start in cycle.iso.switches}
    psi_sigma = {name: sigma[inv[name]] for name in inv}
    psi_gamma = {name: tuple(gamma[inv[name]]) for name in inv}
    return psi_sigma, psi_gamma


def _iterate_cusp_data(cycle: AgolCycle, k: int):
    """Cusp data for the k-fold map: permutation, per-cusp path counts and M^k."""
    sigma1, gamma1 = _period_cusp_data(cycle)
    M = cycle.cycle_matrix.entries
    n = len(M)
    names = list(sigma1)
    sigma = {c: c for c in names}
    gamma = {c: tuple(0 for _ in range(n)) for c in names}
    power = _identity(n)
    paths = list(zip(*(gamma1[c] for c in names)))  # column c is gamma1[c]
    for _ in range(k):
        # one more application underneath; its path, written upstairs, is
        # the current power of M applied to the single-period path
        pushed = zip(*_mat_mul(power, paths))
        nxt_sigma = {c: sigma[sigma1[c]] for c in names}
        nxt_gamma = {c: tuple(map(add, p, gamma[sigma1[c]])) for c, p in zip(names, pushed)}
        sigma, gamma = nxt_sigma, nxt_gamma
        power = _mat_mul(power, M)
    return sigma, gamma, power


def _cycle_transport(cycle: AgolCycle):
    """K, M^K and the K-fold cusp data, with K searched for once."""
    K = power_positive_K(cycle.cycle_matrix)
    sigma, gamma, mk = _iterate_cusp_data(cycle, K)
    return K, mk, sigma, gamma


def _best_triangulation(w) -> int:
    """Largest sum of w[a] + w[c] over the diagonals (a, c) of one
    triangulation of a convex polygon whose vertices, in order, weigh w."""
    k = len(w)
    if k < 4:
        return 0
    # f[i][j]: best for the sub-polygon i..j cut off by the chord (i, j),
    # that chord itself not counted
    f = [[0] * k for _ in range(k)]
    for span in range(2, k):
        for i in range(k - span):
            j = i + span
            f[i][j] = max(
                f[i][m] + f[m][j]
                + (w[i] + w[m] if m - i > 1 else 0)
                + (w[m] + w[j] if j - m > 1 else 0)
                for m in range(i + 1, j)
            )
    return f[0][k - 1]


def _c_from_transport(t0: TrainTrack, mk, sigma, gamma) -> int:
    """c(psi) from M^K and the K-fold cusp data; see c_of_psi."""
    regs = regions(t0)
    if not _region_conditions(regs)[0]:
        raise NotFilling("c(psi) needs a filling track")
    cusps = [tuple(c.switch for c in r.cusps) for r in regs]
    # sigma must carry each region's cusps onto one region's, in cyclic
    # order, or the image of a triangulation is not a triangulation
    where = {s: (i, p) for i, cs in enumerate(cusps) for p, s in enumerate(cs)}
    for i, cs in enumerate(cusps):
        i2, q = where[sigma[cs[0]]]
        image = cusps[i2]
        if len(image) != len(cs) or any(
            sigma[s] != image[(q + p) % len(cs)] for p, s in enumerate(cs)
        ):
            raise NotAnExtension(f"cusp transport split region {i} apart")
    best = max(
        sum(mk[b]) + sum(_best_triangulation([gamma[s][b] for s in cs]) for cs in cusps)
        for b in range(t0.l)
    )
    return 2 * best + 1


def c_of_psi(cycle: AgolCycle) -> int:
    """Worst doubled row sum over every maximal diagonal extension, plus one.

    In an extension's carrying matrix, the row of branch b sums to
    sum_j M^K[b][j] plus w[a] + w[c] for each added diagonal (a, c), where
    w[p] counts how often the K-fold path of cusp p runs over b.  An
    image-diagonal row sums to 1, below any row of the positive M^K, so it
    never wins.  Regions are triangulated independently, so

        c = 2 * max_b (sum_j M^K[b][j] + sum_regions best_r(b)) + 1

    with best_r(b) the best triangulation of region r's cusp polygon,
    found by an interval dynamic program instead of listing extensions.
    """
    return _c_from_transport(cycle.start_track, *_cycle_transport(cycle)[1:])


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


def curve_length(curve: NormalCurve, t: TrainTrack) -> int:
    """Total crossings with the dual triangulation; checks the triangle rules."""
    if len(curve.coords) != t.l:
        raise DimensionMismatch("coordinate length does not match branch count")
    idx = {b: j for j, b in enumerate(t.branches)}
    for sw in t.switches:
        sides = [curve.coords[idx[e.branch]] for e in sw.ccw()]
        if sum(sides) % 2:
            raise IncompatibleCoordinates(f"odd crossing total around switch {sw.name}")
        for x in sides:
            if 2 * x > sum(sides):
                raise IncompatibleCoordinates(f"triangle inequality fails at switch {sw.name}")
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
    v2 = tuple(x for (x,) in _mat_mul(M.entries, [(x,) for x in v]))
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
    K, *transport = _cycle_transport(cycle)
    c = _c_from_transport(t0, *transport)
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

