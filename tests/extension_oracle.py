"""Brute-force reference for c(psi): every maximal diagonal extension, listed.

A maximal diagonal extension picks one triangulation of each complementary
region's cusp polygon.  `extension_rows` builds the carrying matrix of one
extension under the K-fold map, row by row, as the definition of c(psi)
reads it; `brute_force_c` takes the worst row over every extension.  The
library gets the same number by dynamic programming, without listing any.
"""

import math
from itertools import product

from splitseq.traintrack import TrainTrack, regions


def polygon_triangulations(k: int) -> list[frozenset[tuple[int, int]]]:
    """All triangulations of a convex k-gon as chord sets on vertices 0..k-1."""

    def rec(vs: tuple[int, ...]) -> list[frozenset[tuple[int, int]]]:
        if len(vs) <= 3:
            return [frozenset()]
        out = []
        a, b = vs[0], vs[-1]  # the edge (a, b) closes the polygon
        for i in range(1, len(vs) - 1):
            c = vs[i]
            chords = set()
            if i > 1:
                chords.add((a, c))
            if i < len(vs) - 2:
                chords.add((c, b))
            for lf in rec(vs[: i + 1]):
                for rt in rec(vs[i:]):
                    out.append(frozenset(chords) | lf | rt)
        return out

    return rec(tuple(range(k)))


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def region_cusps(t: TrainTrack) -> list[tuple[str, ...]]:
    """Each region's cusps, as switch names in the region's cyclic order."""
    return [tuple(c.switch for c in r.cusps) for r in regions(t)]


def extensions(t: TrainTrack) -> list[tuple[frozenset[tuple[int, int]], ...]]:
    """Every maximal diagonal extension: one triangulation per region."""
    return list(product(*(polygon_triangulations(len(cs)) for cs in region_cusps(t))))


def extension_rows(t: TrainTrack, ext, mk, sigma, gamma) -> list[list[int]]:
    """Carrying matrix of one extension under the K-fold map.

    Columns are the branches, then the extension's diagonals; rows are the
    branches, then the image diagonals.  A diagonal (a, c) runs along the
    paths of its two end cusps, so the branch rows gain gamma[a] + gamma[c]
    in its column; in between it runs once over its image diagonal.
    """
    cusps = region_cusps(t)
    where = {s: (i, p) for i, cs in enumerate(cusps) for p, s in enumerate(cs)}
    cols, images = [], []
    for i, chords in enumerate(ext):
        for a, c in sorted(chords):
            cols.append((cusps[i][a], cusps[i][c]))
            (i2, pa), (i3, pc) = where[sigma[cusps[i][a]]], where[sigma[cusps[i][c]]]
            assert i2 == i3, "cusp transport split a region apart"
            images.append((i2, tuple(sorted((pa, pc)))))
    rows = [
        list(mk[b]) + [gamma[sa][b] + gamma[sc][b] for sa, sc in cols]
        for b in range(t.l)
    ]
    for image in sorted(set(images)):
        rows.append([0] * t.l + [int(im == image) for im in images])
    return rows


def brute_force_c(t: TrainTrack, mk, sigma, gamma) -> int:
    worst = max(
        max(sum(row) for row in extension_rows(t, ext, mk, sigma, gamma))
        for ext in extensions(t)
    )
    return 2 * worst + 1
