"""sympy reference for the integer kernels in `splitseq.numberfield`.

`charpoly` and `factor_list` are the characteristic polynomial and the
factor list computed by sympy (Berkowitz, and Zassenhaus with Hensel
lifting), in the library's low-to-high integer tuples.  The library gets
both from its own integer code, without sympy.
"""

import sympy


def charpoly(M) -> tuple[int, ...]:
    """det(x I - M), low-to-high."""
    poly = sympy.Matrix([[int(x) for x in row] for row in M]).charpoly()
    cs = [int(c) for c in poly.all_coeffs()]  # high-to-low, monic
    return tuple(reversed(cs))


def factor_list(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Irreducible factors of a monic integer p, each repeated by its multiplicity."""
    x = sympy.symbols("x")
    expr = sum(c * x**i for i, c in enumerate(p))
    _, factors = sympy.factor_list(sympy.Poly(expr, x, domain="ZZ"))
    out = []
    for fac, mult in factors:
        cs = [int(c) for c in fac.all_coeffs()]
        if cs[0] < 0:
            cs = [-c for c in cs]
        out.extend([tuple(reversed(cs))] * mult)
    return out
