"""Exact arithmetic in a real algebraic number field Q(lambda).

An element is an integer coordinate vector `num` in the power basis 1,
lambda, ..., lambda^(d-1) over one positive denominator `den`, kept in
lowest terms, for a monic integer minimal polynomial with a designated real
root pinned down by a rational isolating interval.  Addition and
multiplication run on Python ints (a product is reduced modulo the monic
minimal polynomial, so no denominator enters), and inversion solves the
multiplication matrix by Cramer's rule on fraction-free determinants.
Signs of elements are decided exactly, so weight comparisons (the
consumers are branch-weight ties) never depend on floating point.  The zero
test is a look at the numerators.  A nonzero sign comes from interval
Horner evaluation of `num` over an isolating interval of lambda, in
integers over the endpoints' common denominator; when that enclosure
straddles 0, the element's Sturm chain decides instead, and the interval
is halved until one of the two settles it.  Each field keeps the tightest
isolating interval any query has found, and the next query starts there.
Perron-Frobenius eigendata take one isolation of the largest real root of
the characteristic polynomial and one Cayley-Hamilton column (`pf_eigendata`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Sequence


class NonMonic(ValueError):
    """Minimal polynomial is not monic (or not an integer polynomial)."""


class NotIsolating(ValueError):
    """Interval does not isolate exactly one real root of the minimal polynomial."""


class DivisionByZero(ZeroDivisionError):
    """Division by the zero element of the field."""


class NotPerronFrobenius(ValueError):
    """No Perron-Frobenius eigendata: no power up to Wielandt's (n-1)**2 + 1 is
    entrywise positive, or (never for a primitive matrix) the characteristic
    polynomial has no real root or the eigenvector found is not positive."""


# ---------------------------------------------------------------------------
# dense polynomials over Fraction (or int), low-to-high coefficient tuples


def _trim(p: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = len(p)
    while n > 0 and p[n - 1] == 0:
        n -= 1
    return p[:n]


def _poly_eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_deriv(p: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return _trim(tuple(Fraction(i) * p[i] for i in range(1, len(p))))


def _poly_neg(p: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(-c for c in p)


def _sturm_chain(p: tuple[Fraction, ...]) -> list[tuple[Fraction, ...]]:
    chain = [_trim(p), _poly_deriv(p)]
    while chain[-1]:
        r = _poly_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(_poly_neg(r))
    return [q for q in chain if q]


def _sign_changes(chain: list[tuple[Fraction, ...]], x: Fraction) -> int:
    signs = []
    for q in chain:
        v = _poly_eval(q, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def sturm_count(p: Sequence[Fraction], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi]."""
    chain = _sturm_chain(_trim(tuple(p)))
    if not chain:
        raise ValueError("zero polynomial has no root count")
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


# ---------------------------------------------------------------------------
# fields and elements


@dataclass(frozen=True, eq=False)
class NumberField:
    """Q(lambda) for the single real root of `minpoly` inside `root_interval`."""

    minpoly: tuple[int, ...]  # low-to-high, monic
    root_interval: tuple[Fraction, Fraction]
    # Tightest isolating interval found by `_tighten` so far.  Not a dataclass
    # field: it is a cache, outside the field's identity, repr and hash.
    _tight = None

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    def __eq__(self, other) -> bool:
        # identity of the root, not of the isolating interval
        if self is other:
            return True
        if not isinstance(other, NumberField):
            return NotImplemented
        if self.minpoly != other.minpoly:
            return False
        if self.root_interval == other.root_interval or self.degree == 1:
            return True
        lo = max(self.root_interval[0], other.root_interval[0])
        hi = min(self.root_interval[1], other.root_interval[1])
        if not lo < hi:
            return False
        p = tuple(Fraction(c) for c in self.minpoly)
        if _poly_eval(p, lo) == 0:  # root sits on the shared endpoint
            return False
        return sturm_count(p, lo, hi) == 1

    def __hash__(self) -> int:
        return hash(self.minpoly)

    def refine(self, steps: int = 1) -> "NumberField":
        """Halve the isolating interval `steps` times (sign queries are stable)."""
        lo, hi = self.root_interval
        p = tuple(Fraction(c) for c in self.minpoly)
        for _ in range(steps):
            if self.degree == 1:
                root = Fraction(-self.minpoly[0], self.minpoly[1])
                quarter = (hi - lo) / 4
                lo, hi = root - quarter, root + quarter
                continue
            mid = (lo + hi) / 2
            vm = _poly_eval(p, mid)
            if vm == 0:  # rational root of an irreducible poly: degree 1 only
                raise NotIsolating("midpoint is a rational root; declare degree 1")
            if _poly_eval(p, lo) * vm < 0:
                hi = mid
            else:
                lo = mid
        return NumberField(self.minpoly, (lo, hi))


def field_create(minpoly: Sequence[int], interval: tuple) -> NumberField:
    """Build the field handle after checking monicity and root isolation."""
    coeffs = tuple(int(c) for c in minpoly)
    if tuple(coeffs) != tuple(minpoly) or any(c != int(c) for c in minpoly):
        raise NonMonic("minimal polynomial must have integer coefficients")
    if len(coeffs) < 2:
        raise NonMonic("degree must be at least 1")
    if coeffs[-1] != 1:
        raise NonMonic("minimal polynomial must be monic")
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    if not lo < hi:
        raise NotIsolating("interval endpoints must satisfy lo < hi")
    p = tuple(Fraction(c) for c in coeffs)
    if len(coeffs) == 2:
        root = Fraction(-coeffs[0], coeffs[1])
        if not lo <= root <= hi:
            raise NotIsolating("interval misses the rational root")
        return NumberField(coeffs, (lo, hi))
    if _poly_eval(p, lo) == 0 or _poly_eval(p, hi) == 0:
        raise NotIsolating("interval endpoint is a root; shrink the interval")
    if sturm_count(p, lo, hi) != 1:
        raise NotIsolating("interval must contain exactly one real root")
    return NumberField(coeffs, (lo, hi))


@dataclass(frozen=True, repr=False)
class NFElement:
    """Element of Q(lambda): integer power-basis coordinates over one denominator.

    The value is (num[0] + num[1] lambda + ... + num[d-1] lambda^(d-1)) / den.
    The pair is kept in lowest terms with den > 0, so equal elements have
    equal (num, den), and `==` and `hash` compare those.  `coeffs` reads the
    same coordinates as Fractions.
    """

    field: NumberField
    num: tuple[int, ...]
    den: int = 1

    def __post_init__(self):
        d = self.field.degree
        if len(self.num) != d:
            raise ValueError(f"coordinate vector must have length {d}")
        if self.den != 1:
            if not self.den:
                raise DivisionByZero("denominator must be nonzero")
            g = gcd(self.den, *self.num)
            if self.den < 0:
                g = -g
            if g != 1:
                object.__setattr__(self, "num", tuple(c // g for c in self.num))
                object.__setattr__(self, "den", self.den // g)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational coordinates in the power basis."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def __repr__(self) -> str:
        return f"NFElement(field={self.field!r}, coeffs={self.coeffs!r})"

    def is_zero(self) -> bool:
        return not any(self.num)

    # operator sugar; all arithmetic funnels through nf_arith
    def __add__(self, other):
        return nf_arith("add", self, _coerce(self.field, other))

    def __radd__(self, other):
        return nf_arith("add", _coerce(self.field, other), self)

    def __sub__(self, other):
        return nf_arith("sub", self, _coerce(self.field, other))

    def __rsub__(self, other):
        return nf_arith("sub", _coerce(self.field, other), self)

    def __mul__(self, other):
        return nf_arith("mul", self, _coerce(self.field, other))

    def __rmul__(self, other):
        return nf_arith("mul", _coerce(self.field, other), self)

    def __truediv__(self, other):
        return nf_arith("div", self, _coerce(self.field, other))

    def __rtruediv__(self, other):
        return nf_arith("div", _coerce(self.field, other), self)

    def __neg__(self):
        return NFElement(self.field, tuple(-c for c in self.num), self.den)


def nf_const(field: NumberField, value) -> NFElement:
    """Embed a rational constant."""
    v = Fraction(value)
    return NFElement(field, (v.numerator,) + (0,) * (field.degree - 1), v.denominator)


def nf_element(field: NumberField, coeffs: Sequence) -> NFElement:
    """Element from a raw coordinate sequence (entries read as Fractions)."""
    vec = [Fraction(c) for c in coeffs]
    den = lcm(*(c.denominator for c in vec))
    return NFElement(field, tuple(c.numerator * (den // c.denominator) for c in vec), den)


def nf_gen(field: NumberField) -> NFElement:
    """The generator lambda itself (equals the constant root when degree is 1)."""
    if field.degree == 1:
        return nf_const(field, Fraction(-field.minpoly[0], field.minpoly[1]))
    return NFElement(field, (0, 1) + (0,) * (field.degree - 2))


def _coerce(field: NumberField, value) -> NFElement:
    if isinstance(value, NFElement):
        if value.field != field:
            raise ValueError("elements belong to different fields")
        return value
    return nf_const(field, value)


def _reduce(m: tuple[int, ...], raw: list[int]) -> tuple[int, ...]:
    # kill degrees >= d using x^d = -(m_0 + ... + m_{d-1} x^{d-1}); m is monic
    d = len(m) - 1
    for k in range(len(raw) - 1, d - 1, -1):
        c = raw[k]
        if c:
            for i in range(d):
                raw[k - d + i] -= c * m[i]
    return tuple(raw[:d]) if len(raw) >= d else tuple(raw) + (0,) * (d - len(raw))


def nf_arith(op: str, a: NFElement, b: NFElement) -> NFElement:
    """Exact field arithmetic; results are reduced to canonical coordinates."""
    f = a.field
    if b.field is not f and b.field != f:
        raise ValueError("elements belong to different fields")
    if op == "add" or op == "sub":
        x, y, den = a.num, b.num, a.den
        if b.den != den:
            x, y, den = [c * b.den for c in x], [c * den for c in y], den * b.den
        if op == "add":
            return NFElement(f, tuple(p + q for p, q in zip(x, y)), den)
        return NFElement(f, tuple(p - q for p, q in zip(x, y)), den)
    if op == "mul":
        raw = [0] * (2 * f.degree - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num):
                    raw[i + j] += x * y
        return NFElement(f, _reduce(f.minpoly, raw), a.den * b.den)
    if op == "div":
        return nf_arith("mul", a, _invert(b))
    raise ValueError(f"unknown operation {op!r}")


def _mul_matrix(f: NumberField, num: Sequence[int]) -> list[list[int]]:
    """Matrix of multiplication by `num` on the power basis; column j is num lambda^j."""
    col = list(num)
    cols = [col]
    for _ in range(f.degree - 1):
        top = col[-1]
        col = [0] + col[:-1]
        if top:
            col = [c - top * mi for c, mi in zip(col, f.minpoly)]
        cols.append(col)
    return [list(row) for row in zip(*cols)]


def _identity(n: int) -> list[list[int]]:
    """The n x n integer identity, as fresh row lists the caller may mutate."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Integer matrix product a * b, as a tuple of row tuples."""
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def _det_int(a: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant; consumes its argument."""
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for t in range(i + 1, n):
                if a[t][i]:
                    a[i], a[t] = a[t], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for j in range(i + 1, n):
            for t in range(i + 1, n):
                a[j][t] = (a[j][t] * a[i][i] - a[j][i] * a[i][t]) // prev
        prev = a[i][i]
    return sign * a[n - 1][n - 1]


def _invert(b: NFElement) -> NFElement:
    if b.is_zero():
        raise DivisionByZero("division by zero element")
    # 1/b = v with M v = den e_0, M multiplication by num.  Cramer's rule:
    # column i replaced by den e_0 has determinant den (-1)^i minor(0, i).
    M = _mul_matrix(b.field, b.num)
    det = _det_int([row[:] for row in M])
    if det == 0:  # only when the minimal polynomial is reducible
        raise DivisionByZero("element is a zero divisor")
    cofactors = (
        (-1) ** i * _det_int([row[:i] + row[i + 1 :] for row in M[1:]])
        for i in range(len(M))
    )
    return NFElement(b.field, tuple(b.den * c for c in cofactors), det)


def _poly_divmod(a, b):
    """Quotient and remainder of a by a trimmed nonzero b, both trimmed."""
    r = list(_trim(tuple(a)))
    db, lb = len(b) - 1, b[-1]
    q = [Fraction(0)] * max(1, len(r) - db)
    while len(r) > db:
        k = len(r) - 1 - db
        c = r[-1] / lb
        q[k] = c
        for i in range(db):  # the leading term cancels exactly
            r[k + i] -= c * b[i]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return _trim(tuple(q)), tuple(r)


def _tighten(f: NumberField, decide: Callable, start: tuple[Fraction, Fraction]):
    """Halve an isolating interval of lambda until `decide(lo, hi)` answers.

    Starts from `start`, returns the first answer that is not None, and
    leaves the tightest interval seen cached on `f`, so the next sign query
    starts from it.
    """
    lo, hi = start
    while True:
        answer = decide(lo, hi)
        if answer is not None:
            return answer
        lo, hi = NumberField(f.minpoly, (lo, hi)).refine().root_interval
        tight = f._tight or f.root_interval
        if hi - lo < tight[1] - tight[0]:
            object.__setattr__(f, "_tight", (lo, hi))


def _interval_horner(p: Sequence[int], lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """Horner enclosure of an integer polynomial over [lo, hi], in integers.

    With the endpoints written as a/q and b/q, each step H <- x H + c q^k
    keeps H equal to q^k times the rational accumulator, so p([lo, hi])
    lies in [vlo / s, vhi / s] for the returned (vlo, vhi, s), s > 0.
    """
    q = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (q // lo.denominator)
    b = hi.numerator * (q // hi.denominator)
    hlo = hhi = p[-1] if p else 0
    s = 1
    for c in reversed(p[:-1]):
        s *= q
        if hlo == hhi:  # a point times [a, b]: two products bound it
            prods = (hlo * a, hlo * b)
        else:
            prods = (hlo * a, hlo * b, hhi * a, hhi * b)
        hlo, hhi = min(prods) + c * s, max(prods) + c * s
    return hlo, hhi, s


def nf_sign(a: NFElement) -> int:
    """Sign of the real number a(lambda): -1, 0, or +1, decided exactly.

    The sign is that of num(lambda), as den > 0.  num is evaluated by
    integer interval Horner over the field's cached isolating interval; an
    enclosure that excludes 0 gives the sign.  If it straddles 0, num's
    Sturm chain is built once, and the interval is halved until either the
    enclosure excludes 0 or the chain shows that num has no root in it
    (then its sign at an endpoint is the answer).  The enclosure of a
    linear num is exact, so in degree 2 the chain is never built.
    """
    if a.is_zero():
        return 0
    f = a.field
    if f.degree == 1:
        return 1 if a.num[0] > 0 else -1
    p = _trim(a.num)
    chain = None

    def decide(lo: Fraction, hi: Fraction) -> int | None:
        nonlocal chain
        vlo, vhi, _ = _interval_horner(p, lo, hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        if len(p) <= 2:
            return None
        if chain is None:
            chain = _sturm_chain(tuple(Fraction(c) for c in p))
        plo, phi = _poly_eval(p, lo), _poly_eval(p, hi)
        if plo != 0 and phi != 0 and _sign_changes(chain, lo) == _sign_changes(chain, hi):
            return 1 if plo > 0 else -1
        return None

    return _tighten(f, decide, f._tight or f.root_interval)


# ---------------------------------------------------------------------------
# Perron eigendata


def _is_primitive(M: Sequence[Sequence[int]]) -> int:
    """Least K with the nonnegative M^K entrywise positive, or 0 if there is
    none; a primitive n x n matrix has K <= (n-1)^2 + 1 (Wielandt's bound)."""
    n = len(M)
    reach = [[bool(x) for x in row] for row in M]
    step, k = reach, 1
    while not all(all(row) for row in step):
        if k > (n - 1) ** 2:
            return 0
        step = [
            [any(step[i][l] and reach[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
        k += 1
    return k


def _charpoly(M: Sequence[Sequence[int]]) -> tuple[int, ...]:
    import sympy

    poly = sympy.Matrix([[int(x) for x in row] for row in M]).charpoly()
    cs = [int(c) for c in poly.all_coeffs()]  # high-to-low, monic
    return tuple(reversed(cs))


def _irreducible_factors(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    import sympy

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


def _largest_root_interval(p: tuple[int, ...]) -> tuple[Fraction, Fraction] | None:
    """Isolating interval for the largest real root of p, or None if no real root."""
    pf = tuple(Fraction(c) for c in p)
    bound = Fraction(1) + max(abs(Fraction(c, p[-1])) for c in p[:-1]) if len(p) > 1 else Fraction(1)
    gcd = _sturm_chain(pf)[-1]  # gcd(p, p'), up to a constant
    if len(gcd) > 1:  # repeated roots break Sturm counts at a root: drop them
        pf = _poly_divmod(pf, gcd)[0]
    lo, hi = -bound, bound
    if sturm_count(pf, lo, hi) == 0:
        return None
    # push lo up until exactly one root remains in (lo, hi]
    while sturm_count(pf, lo, hi) > 1:
        mid = (lo + hi) / 2
        if sturm_count(pf, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    # make endpoints non-roots so downstream sign logic is clean
    if _poly_eval(pf, hi) == 0:
        hi += Fraction(1, 7)  # hi is the largest root; nothing lies above it
        if _poly_eval(pf, hi) == 0 or sturm_count(pf, lo, hi) != 1:
            raise NotIsolating("moving the upper endpoint off the largest root failed")
    if _poly_eval(pf, lo) == 0:
        # a smaller root: step up from it by ever smaller steps until the
        # step lands below the largest root, where no other root lies
        step = (hi - lo) / 2
        while sturm_count(pf, lo + step, hi) != 1:
            step /= 2
        lo += step
    return lo, hi


def nf_minpoly(x: NFElement) -> tuple[tuple[Fraction, ...], tuple[Fraction, Fraction]]:
    """Monic minimal polynomial of x over Q plus an isolating interval.

    The characteristic polynomial of multiplication by the numerator on the
    power basis is a power of the numerator's minimal polynomial qn; the
    answer is qn(den t) / den^deg(qn).
    """
    f = x.field
    qn = _irreducible_factors(_charpoly(_mul_matrix(f, x.num)))[0]
    mono = tuple(Fraction(c, x.den ** (len(qn) - 1 - i)) for i, c in enumerate(qn))

    if len(mono) == 2:  # x is rational
        q = -mono[0]
        return mono, (q - Fraction(1, 2), q + Fraction(1, 2))
    p = _trim(x.num)

    def isolates(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction] | None:
        vlo, vhi, s = _interval_horner(p, lo, hi)
        ylo, yhi = Fraction(vlo, s * x.den), Fraction(vhi, s * x.den)
        if (
            ylo < yhi
            and _poly_eval(mono, ylo) != 0
            and _poly_eval(mono, yhi) != 0
            and sturm_count(mono, ylo, yhi) == 1
        ):
            return ylo, yhi
        return None

    # from the field's own interval, not the cache, so the answer does not
    # depend on which sign queries ran before
    return mono, _tighten(f, isolates, f.root_interval)


def pf_eigendata(M: Sequence[Sequence[int]]):
    """Field of the dominant eigenvalue plus an exact positive eigenvector.

    lambda is the largest real root of the characteristic polynomial chi,
    isolated once; its minimal polynomial is the irreducible factor of chi
    that changes sign across that interval (factors have simple roots, and
    the endpoints are no roots of chi).  With chi(x) = (x - lambda) r(x),
    Cayley-Hamilton gives (M - lambda I) r(M) = 0, so r(M) e_0 is an
    eigenvector: chi'(lambda) times the Perron projection of e_0, positive
    for a primitive M.  It is normalized so its first entry is 1; M v =
    lambda v holds coordinatewise in Q(lambda).
    """
    n = len(M)
    if n == 0 or any(len(row) != n for row in M):
        raise ValueError("matrix must be square and nonempty")
    if any(int(x) != x or x < 0 for row in M for x in row):
        raise ValueError("matrix entries must be nonnegative integers")
    M = [[int(x) for x in row] for row in M]
    if not _is_primitive(M):
        raise NotPerronFrobenius("no power up to dimension**2 is positive")

    chi = _charpoly(M)
    interval = _largest_root_interval(chi)
    if interval is None:  # Perron-Frobenius: a primitive matrix has a real dominant eigenvalue
        raise NotPerronFrobenius("characteristic polynomial has no real root")
    lo, hi = interval
    minpoly = next(
        p for p in _irreducible_factors(chi) if _poly_eval(p, lo) * _poly_eval(p, hi) < 0
    )
    field = field_create(list(minpoly), interval)

    # synthetic division r_{k-1} = lambda r_k + chi_k from r_n = 0, interleaved
    # with Horner's v <- M v + r_{k-1} e_0 on the entries' integer coordinates
    lam, rk = nf_gen(field), nf_const(field, 0)
    v = ((0,) * field.degree,) * n
    for c in reversed(chi[1:]):
        rk = lam * rk + c
        mv = _mat_mul(M, v)
        v = (tuple(x + y for x, y in zip(mv[0], rk.num)),) + mv[1:]
    v = [NFElement(field, row) for row in v]
    if any(nf_sign(x) != 1 for x in v):
        raise NotPerronFrobenius("eigenvector is not strictly positive")
    inv0 = 1 / v[0]
    return field, [inv0 * x for x in v]
