"""Fraction reference for `splitseq.traintrack.feasible_point`.

`feasible_point` is the phase-1 simplex with Bland's rule run over
Fractions, as the library computed it before it pivoted an integer
tableau.  The library's version must take the same pivots and return the
same point.
"""

from fractions import Fraction
from typing import Optional, Sequence


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
