"""Random track and measure generation shared by the property-based tests."""

import random
from fractions import Fraction

from conftest import fixture_text
from splitseq.numberfield import _mat_mul, field_create, nf_element, pf_eigendata
from splitseq.splitting import large_branches
from splitseq.traintrack import (
    BranchEnd,
    CuspRef,
    Measure,
    Switch,
    TrainTrack,
    _connected,
    feasible_point,
    parse_track,
    regions,
    switch_coefficients,
)

RATIONALS = field_create([-1, 1], (Fraction(0), Fraction(2)))

# fixtures/genus2_cycle.track is the lift of the RRL measure by these sheets
GENUS2_PERMS = {"a": (0, 1, 2), "b": (0, 2, 1), "c": (1, 0, 2)}


def torus_word_state(word: str) -> tuple[TrainTrack, Measure]:
    """The torus fixture with the Perron-Frobenius measure of a product of
    R = [[1, 1], [0, 1]] and L = [[1, 0], [1, 1]]."""
    M = ((1, 0), (0, 1))
    for ch in word:
        M = _mat_mul(M, ((1, 1), (0, 1)) if ch == "R" else ((1, 0), (1, 1)))
    field, v = pf_eigendata(M)
    t, _ = parse_track(fixture_text("torus_anosov.track"))
    return t, Measure.of(field, {"a": v[0], "b": v[1], "c": v[0] + v[1]})


def build_track(branches, switches, marks=()) -> TrainTrack:
    """Attach the derived genus so the header is consistent."""
    t = TrainTrack(tuple(branches), tuple(switches), genus=0, puncture_marks=tuple(marks))
    chi = t.s - t.l + len(regions(t))
    if chi % 2:
        raise ValueError("inconsistent ribbon data")
    return TrainTrack(t.branches, t.switches, (2 - chi) // 2, t.puncture_marks)


def _kernel_basis(rows: list[list[int]], n: int) -> list[list[Fraction]]:
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, pc in zip(a, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def switch_matrix(t: TrainTrack) -> list[list[int]]:
    return switch_coefficients(t)


def random_measure(t: TrainTrack, rng: random.Random, positive=False, attempts=40):
    """Random rational measure satisfying the switch conditions, or None."""
    basis = _kernel_basis(switch_matrix(t), t.l)
    if not basis:
        return None
    for _ in range(attempts):
        coeffs = [Fraction(rng.randint(-2, 4)) for _ in basis]
        v = [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(t.l)]
        if positive and all(x > 0 for x in v):
            break
        if not positive and all(x >= 0 for x in v) and any(x > 0 for x in v):
            break
    else:
        return None
    return Measure.of(
        RATIONALS, {b: nf_element(RATIONALS, [v[j]]) for j, b in enumerate(t.branches)}
    )


def rescaled_switch_system(t: TrainTrack, D) -> list[list]:
    """The switch rows of t with column j multiplied by D[j]."""
    return [[r[j] * D[j] for j in range(t.l)] for r in switch_matrix(t)]


def positive_measure(t: TrainTrack, rng: random.Random) -> Measure:
    """Positive rational measure on a recurrent track: the sum of two
    vertices of {x >= 1, switch rows x = 0} under random diagonal rescalings."""
    x = [Fraction(0)] * t.l
    for _ in range(2):
        D = [rng.randint(1, 20) for _ in range(t.l)]
        y = feasible_point(rescaled_switch_system(t, D), t.l)
        x = [a + D[j] * y[j] for j, a in enumerate(x)]
    return Measure.of(
        RATIONALS, {b: nf_element(RATIONALS, [x[j]]) for j, b in enumerate(t.branches)}
    )


def random_track(s: int, rng: random.Random) -> TrainTrack | None:
    """Random connected trivalent track with s switches, or None."""
    l = 3 * s // 2
    branches = [f"b{i}" for i in range(l)]
    ends = [BranchEnd(b, e) for b in branches for e in (0, 1)]
    rng.shuffle(ends)
    switches = []
    for i in range(s):
        a, sl, sr = ends[3 * i : 3 * i + 3]
        switches.append(Switch.trivalent(f"s{i}", a, sl, sr))
    try:
        t = TrainTrack(tuple(branches), tuple(switches), genus=0)
    except Exception:
        return None
    if not _connected(t):
        return None
    chi = t.s - t.l + len(regions(t))
    if chi % 2:
        return None
    return TrainTrack(t.branches, t.switches, genus=(2 - chi) // 2)


def some_track(seed: int, sizes=(2, 4, 6, 8)) -> TrainTrack:
    rng = random.Random(seed)
    while True:
        t = random_track(rng.choice(sizes), rng)
        if t is not None:
            return t


def random_marked_track(rng: random.Random) -> TrainTrack:
    """A random trivalent track with a large branch and 1-3 punctured
    regions, each marked by one of its cusps."""
    while True:
        t = random_track(rng.choice([2, 4, 6, 8]), rng)
        if t is None or not large_branches(t):
            continue
        regs = [r for r in regions(t) if r.cusps]
        picked = rng.sample(regs, rng.randint(1, min(3, len(regs))))
        marks = tuple(rng.choice(r.cusps) for r in picked)
        return TrainTrack(t.branches, t.switches, t.genus, marks)


def rename_track(t: TrainTrack, seed: int) -> TrainTrack:
    """Shuffle branch/switch names and list order; same ribbon graph and
    marked cusps."""
    rng = random.Random(seed)
    bperm = list(range(t.l))
    rng.shuffle(bperm)
    bmap = {b: f"r{j}" for b, j in zip(t.branches, bperm)}

    def rename(e: BranchEnd) -> BranchEnd:
        return BranchEnd(bmap[e.branch], e.end)

    renamed = {
        sw.name: Switch(f"w{i}", tuple(tuple(map(rename, side)) for side in sw.sides))
        for i, sw in enumerate(t.switches)
    }
    # renaming branches can reorder a switch's sides, and so its corners
    marks = []
    for name, index in t.puncture_marks:
        a, b = next(sw for sw in t.switches if sw.name == name).cusp_corners()[index]
        new = renamed[name]
        marks.append(CuspRef(new.name, new.cusp_corners().index((rename(a), rename(b)))))
    switches = list(renamed.values())
    rng.shuffle(switches)
    branches = sorted(bmap.values())
    return TrainTrack(tuple(branches), tuple(switches), t.genus, tuple(marks))
