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
is halved until one of the two settles it.  Sturm chains are integer
pseudo-remainder sequences, evaluated by integer Horner.  Each field keeps
the tightest isolating interval any query has found, and the next query
starts there.  Perron-Frobenius eigendata take one isolation of the largest
real root of the characteristic polynomial and one Cayley-Hamilton column
(`pf_eigendata`).

Everything runs on Python ints and Fractions, with no computer-algebra
dependency: the characteristic polynomial comes from integer
Faddeev-LeVerrier (`_charpoly`), and a minimal polynomial from its
square-free part (`_squarefree`), factored where needed by an integer
factor search (`_irreducible_factors`: Cantor-Zassenhaus modulo a prime,
Hensel lifting and Zassenhaus recombination).  Every integer matrix
product in the package is `_mat_mul`, which accumulates each row over the
nonzero entries of the left factor only, so composing the elementary
carrying matrices of splits (each the identity but for one row) costs
about one row pass per row, not one inner product per entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm
from operator import add
from typing import Callable, Sequence


class NonMonic(ValueError):
    """Minimal polynomial is not monic (or not an integer polynomial)."""


class NotIsolating(ValueError):
    """Interval does not isolate exactly one real root of the minimal polynomial."""


class DivisionByZero(ZeroDivisionError):
    """Division by the zero element of the field."""


class IntegerKernelError(ArithmeticError):
    """An integer kernel could not certify its answer: a Faddeev-LeVerrier
    division was inexact (the matrix is not integral), or the factor search
    found no prime that keeps its polynomial square-free (the polynomial
    is not square-free)."""


class NotPerronFrobenius(ValueError):
    """No Perron-Frobenius eigendata: no power up to Wielandt's (n-1)**2 + 1 is
    entrywise positive, or (never for a primitive matrix) the characteristic
    polynomial has no real root or the eigenvector found is not positive."""


# ---------------------------------------------------------------------------
# dense integer polynomials, low-to-high coefficient tuples (a Sturm chain
# also takes Fractions and scales them to integers)


def _trim(p: Sequence) -> Sequence:
    """p without its trailing zero coefficients (a tuple stays a tuple, a list a list)."""
    n = len(p)
    while n > 0 and p[n - 1] == 0:
        n -= 1
    return p[:n]


def _poly_deriv(p: Sequence) -> tuple:
    return _trim(tuple(i * p[i] for i in range(1, len(p))))


def _primitive(p: Sequence) -> tuple[int, ...]:
    """p (Fractions or ints) times the positive rational that makes it a
    primitive integer vector: every sign of p is kept, and 0 stays 0."""
    den = lcm(*(c.denominator for c in p))
    ints = [int(c * den) for c in p]
    g = gcd(*ints) or 1
    return tuple(c // g for c in ints)


def _divmod_unit(a: Sequence[int], b: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of integer a by a trimmed integer b whose
    leading coefficient is 1 or -1, so both stay integral; both trimmed."""
    r, db, lb = list(_trim(tuple(a))), len(b) - 1, b[-1]
    q = [0] * max(1, len(r) - db)
    for k in range(len(r) - 1 - db, -1, -1):
        c = q[k] = r[k + db] * lb  # divide by lb = +-1
        if c:
            for i in range(db):
                r[k + i] -= c * b[i]
    return _trim(tuple(q)), _trim(tuple(r[:db]))


def _sturm_chain(p: Sequence) -> list[tuple[int, ...]]:
    """Sturm chain of p (Fractions or ints), each member a primitive integer
    multiple of the classical one by a positive factor, so every sign the
    chain shows is the classical chain's.  The last member is gcd(p, p')
    up to a constant.

    Each remainder is a pseudo-remainder: a step scales the running
    remainder by |lc(b)| and cancels its top with sign(lc(b)) times the top
    coefficient, a positive multiple of the step of exact division.
    """
    a = _primitive(_trim(tuple(p))) if any(p) else ()
    chain = [a] if a else []
    b = _primitive(_poly_deriv(a)) if len(a) > 1 else ()
    while b:
        chain.append(b)
        r, m, s = list(a), abs(b[-1]), (1 if b[-1] > 0 else -1)
        while len(r) >= len(b):
            c, k = s * r[-1], len(r) - len(b)
            r = [x * m for x in r[:-1]]
            for i in range(len(b) - 1):
                r[k + i] -= c * b[i]
            r = _trim(r)
        a, b = b, (_primitive([-x for x in r]) if r else ())
    return chain


def _sign_at(p: Sequence[int], x: Fraction) -> int:
    """Sign of the integer polynomial p at x, by homogeneous integer Horner:
    p(a/q) q^deg = sum p_i a^i q^(deg - i), and q > 0."""
    a, q = x.numerator, x.denominator
    acc, qk = (p[-1] if p else 0), 1
    for c in reversed(p[:-1]):
        qk *= q
        acc = acc * a + c * qk
    return (acc > 0) - (acc < 0)


def _sign_changes(chain: list[tuple[int, ...]], x: Fraction) -> int:
    signs = [s for s in (_sign_at(q, x) for q in chain) if s]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def sturm_count(p: Sequence[Fraction], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi]."""
    chain = _sturm_chain(p)
    if not chain:
        raise ValueError("zero polynomial has no root count")
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def _squarefree(p: Sequence[int]) -> tuple[int, ...]:
    """p / gcd(p, p') for a monic integer p: monic and integral (Gauss's
    lemma), with p's roots, each simple."""
    g = _sturm_chain(p)[-1]  # a primitive divisor of p: its leading coefficient is +-1
    if len(g) == 1:
        return tuple(p)
    q = _divmod_unit(p, g)[0]
    return q if q[-1] == 1 else tuple(-c for c in q)


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
        if _sign_at(self.minpoly, lo) == 0:  # root sits on the shared endpoint
            return False
        return sturm_count(self.minpoly, lo, hi) == 1

    def __hash__(self) -> int:
        return hash(self.minpoly)

    def refine(self, steps: int = 1) -> "NumberField":
        """Halve the isolating interval `steps` times (sign queries are stable)."""
        lo, hi = self.root_interval
        for _ in range(steps):
            if self.degree == 1:
                root = Fraction(-self.minpoly[0], self.minpoly[1])
                quarter = (hi - lo) / 4
                lo, hi = root - quarter, root + quarter
                continue
            mid = (lo + hi) / 2
            sm = _sign_at(self.minpoly, mid)
            if sm == 0:  # rational root of an irreducible poly: degree 1 only
                raise NotIsolating("midpoint is a rational root; declare degree 1")
            if _sign_at(self.minpoly, lo) * sm < 0:
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
    if len(coeffs) == 2:
        root = Fraction(-coeffs[0], coeffs[1])
        if not lo <= root <= hi:
            raise NotIsolating("interval misses the rational root")
        return NumberField(coeffs, (lo, hi))
    if _sign_at(coeffs, lo) == 0 or _sign_at(coeffs, hi) == 0:
        raise NotIsolating("interval endpoint is a root; shrink the interval")
    if sturm_count(coeffs, lo, hi) != 1:
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


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two integer polynomials, low to high, untrimmed."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _mul_num(f: NumberField, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
    """Integer coordinates of the product of two integer coordinate vectors."""
    return _reduce(f.minpoly, _poly_mul(x, y))


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
        return NFElement(f, _mul_num(f, a.num, b.num), a.den * b.den)
    if op == "div":
        return nf_arith("mul", a, _invert(b))
    raise ValueError(f"unknown operation {op!r}")


def _mul_matrix(f: NumberField, num: Sequence[int]) -> list[list[int]]:
    """Matrix of multiplication by `num` on the power basis; column j is num lambda^j."""
    cols = [_mul_num(f, num, (0,) * j + (1,)) for j in range(f.degree)]
    return [list(row) for row in zip(*cols)]


def _identity(n: int) -> list[list[int]]:
    """The n x n integer identity, as fresh row lists the caller may mutate."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Integer matrix product a * b, as a tuple of row tuples.

    Row i is accumulated as the sum of a[i][k] * b[k] over the nonzero
    a[i][k] only: one pass over a row of b per nonzero entry of a, so a
    sparse a, such as a product of a few elementary carrying matrices, is
    cheap, and a dense a costs no more than inner products would.  An
    empty b gives rows of width 0.
    """
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for x, brow in zip(row, b):
            if x == 1:
                acc = list(map(add, acc, brow))
            elif x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(tuple(acc))
    return tuple(out)


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


def _charpoly(M: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """det(x I - M) of an integer matrix, low-to-high, by Faddeev-LeVerrier.

    From N_1 = I: c_(n-k) = -tr(M N_k) / k and N_(k+1) = M N_k + c_(n-k) I.
    The c_i are integers, so every division is exact.
    """
    n = len(M)
    c = [0] * n + [1]
    N = _identity(n)
    for k in range(1, n + 1):
        MN = _mat_mul(M, N)
        ck, rem = divmod(-sum(MN[i][i] for i in range(n)), k)
        if rem:
            raise IntegerKernelError(f"trace at step {k} is not divisible by {k}: the matrix is not integral")
        c[n - k] = ck
        N = [list(row) for row in MN]
        for i in range(n):
            N[i][i] += ck
    return tuple(c)


# polynomials mod m: low-to-high lists of residues in [0, m), trimmed; m is
# an odd prime p except where a docstring says a power of p


def _pm_add(a: list[int], b: list[int], m: int, c: int = 1) -> list[int]:
    """a + c b mod m."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] += c * y
    return _trim([v % m for v in out])


def _pm_mul(a: list[int], b: list[int], m: int) -> list[int]:
    return _trim([c % m for c in _poly_mul(a, b)])


def _pm_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder mod p of a by a nonzero b."""
    r, db, inv = list(a), len(b) - 1, pow(b[-1], -1, p)
    q = [0] * max(0, len(r) - db)
    for k in range(len(r) - 1 - db, -1, -1):
        c = q[k] = r[k + db] * inv % p
        if c:
            for i in range(db):
                r[k + i] = (r[k + i] - c * b[i]) % p
    return q, _trim(r[:db])


def _pm_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd mod p of a nonzero a and b."""
    while b:
        a, b = b, _pm_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _pm_bezout(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s a + t b = 1 mod p, for coprime a and b (extended Euclid)."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _pm_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _pm_add(s0, _pm_mul(q, s1, p), p, -1)
        t0, t1 = t1, _pm_add(t0, _pm_mul(q, t1, p), p, -1)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _pm_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    return _pm_divmod(_pm_mul(a, b, p), f, p)[1]


def _pm_powmod(a: list[int], n: int, f: list[int], p: int) -> list[int]:
    """a^n mod (f, p), by squaring and multiplying."""
    out = [1]
    for bit in bin(n)[2:]:
        out = _pm_mulmod(out, out, f, p)
        if bit == "1":
            out = _pm_mulmod(out, a, f, p)
    return out


def _factor_mod_p(f: list[int], p: int) -> list[list[int]]:
    """Monic irreducible factors of a monic f that is square-free mod p.

    Distinct-degree splitting takes gcd(f, x^(p^i) - x) for i = 1, 2, ...,
    applying the Frobenius h -> h^p as sum h_j x^(j p) mod f.  Each product
    of degree-i factors is then split by Cantor-Zassenhaus with a
    fixed-seed generator: a^((p^i - 1)/2) is 0 or +-1 modulo each factor,
    so its gcd with the product, less 1, splits it about half the time.
    """
    d = len(f) - 1
    powers = [[1], _pm_powmod([0, 1], p, f, p)]  # powers[j] = x^(j p) mod f
    while len(powers) < d:
        powers.append(_pm_mulmod(powers[-1], powers[1], f, p))
    rng = random.Random(0)
    out, rest, h, i = [], f, [0, 1], 0
    while len(rest) - 1 >= 2 * (i + 1):
        i += 1
        frob = [0] * d
        for c, row in zip(h, powers):
            for j, y in enumerate(row):
                frob[j] += c * y
        h = _trim([c % p for c in frob])  # x^(p^i) mod f
        g = _pm_gcd(rest, _pm_add(h, [0, 1], p, -1), p)
        if len(g) == 1:
            continue
        rest = _pm_divmod(rest, g, p)[0]
        todo = [g]
        while todo:
            u = todo.pop()
            if len(u) - 1 == i:
                out.append(u)
                continue
            a = _trim([rng.randrange(p) for _ in range(len(u) - 1)])
            s = _pm_gcd(u, _pm_add(_pm_powmod(a, (p**i - 1) // 2, u, p), [1], p, -1), p)
            todo += [s, _pm_divmod(u, s, p)[0]] if 1 < len(s) < len(u) else [u]
    if len(rest) > 1:
        out.append(rest)
    return out


def _hensel_lift(f: Sequence[int], mods: list[list[int]], p: int, P: int) -> list[list[int]]:
    """Monic factors of f mod P, a power of p, that reduce to `mods` mod p.

    f is monic and square-free mod p, and `mods` are its factors mod p.
    They are lifted one at a time against the product h of the rest, one
    power of p per step: from f = g h mod m and s g + t h = 1 mod p, with
    e = (f - g h)/m and t e = q g + r mod p, the factors g + m r and
    h + m (s e + q h) multiply to f mod m p, and g stays monic.
    """
    out, rest = [], [c % P for c in f]
    for g0 in mods[:-1]:
        h0 = _pm_divmod([c % p for c in rest], g0, p)[0]
        s, t = _pm_bezout(g0, h0, p)
        g, h, m = g0, h0, p
        while m < P:
            e = [(x - y) // m % p for x, y in zip(rest, _pm_mul(g, h, P))]
            q, r = _pm_divmod(_pm_mul(t, e, p), g0, p)
            g, h = _pm_add(g, r, P, m), _pm_add(h, _pm_add(_pm_mul(s, e, p), _pm_mul(q, h0, p), p), P, m)
            m *= p
        out.append(g)
        rest = h
    return out + [rest]


def _irreducible_factors(f: Sequence[int]) -> list[tuple[int, ...]]:
    """Monic irreducible factors over Z of a monic square-free integer f,
    by degree.

    f is factored modulo p, the first prime above 1000 that keeps f
    square-free, and the factors are lifted mod P = p^k above twice
    Mignotte's bound on the coefficients of f's factors.  Products of
    lifted factors, taken into (-P/2, P/2), are tried as divisors of f,
    fewest factors first (Zassenhaus).  Every integer factor of f is such
    a product, and a divisor found before any of its sub-products is
    irreducible.
    """
    d = len(f) - 1
    if d <= 1:
        return [tuple(f)]
    norm = isqrt(sum(c * c for c in f)) + 1
    # a prime p with f not square-free mod p divides the discriminant
    # Res(f, f'), at most d^d |f|_2^(2d - 1) by Hadamard; primes above 1000
    # exceed 2^9, so a square-free f fails on fewer than `tries` of them
    tries, p = (d * d.bit_length() + (2 * d - 1) * norm.bit_length()) // 9 + 1, 1001
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            fp = [c % p for c in f]
            if len(_pm_gcd(fp, [i * c % p for i, c in enumerate(fp)][1:], p)) == 1:
                break
            tries -= 1
            if not tries:
                raise IntegerKernelError("f is not square-free modulo any prime tried")
        p += 2
    mods = _factor_mod_p(fp, p)
    if len(mods) == 1:
        return [tuple(f)]
    P = p
    while P <= norm << (d + 1):  # Mignotte: a factor g of f has |g_j| < 2^d |f|_2
        P *= p
    mods, found, rest, size = _hensel_lift(f, mods, p, P), [], tuple(f), 1
    while 2 * size <= len(mods):
        for pick in combinations(range(len(mods)), size):
            g = [1]
            for i in pick:
                g = _pm_mul(g, mods[i], P)
            g = tuple(c - P if 2 * c > P else c for c in g)
            if (rest[0] % g[0]) if g[0] else rest[0]:
                continue  # the constant term of a divisor divides rest's
            q, r = _divmod_unit(rest, g)
            if not r:
                found.append(g)
                rest = q
                mods = [u for i, u in enumerate(mods) if i not in pick]
                break
        else:
            size += 1
    return sorted(found + [rest], key=lambda q: (len(q), q))


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
            chain = _sturm_chain(p)
        plo, phi = _sign_at(p, lo), _sign_at(p, hi)
        if plo and phi and _sign_changes(chain, lo) == _sign_changes(chain, hi):
            return plo
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


def _largest_root_interval(p: tuple[int, ...], sqf: tuple[int, ...]) -> tuple[Fraction, Fraction] | None:
    """Isolating interval for the largest real root of p, or None if no real root.

    Bisection starts from Cauchy's bound of p and counts the roots of p's
    square-free part `sqf` on its one Sturm chain; a repeated root would
    break the counts at that root.
    """
    bound = Fraction(1) + max(abs(Fraction(c, p[-1])) for c in p[:-1]) if len(p) > 1 else Fraction(1)
    chain = _sturm_chain(sqf)
    lo, hi = -bound, bound
    vlo, vhi = _sign_changes(chain, lo), _sign_changes(chain, hi)
    if vlo == vhi:
        return None
    # push lo up until exactly one root remains in (lo, hi]
    while vlo - vhi > 1:
        mid = (lo + hi) / 2
        vmid = _sign_changes(chain, mid)
        if vmid - vhi >= 1:
            lo, vlo = mid, vmid
        else:
            hi, vhi = mid, vmid
    # make endpoints non-roots so downstream sign logic is clean
    if _sign_at(sqf, hi) == 0:
        hi += Fraction(1, 7)  # hi is the largest root; nothing lies above it
        vhi = _sign_changes(chain, hi)
        if _sign_at(sqf, hi) == 0 or vlo - vhi != 1:
            raise NotIsolating("moving the upper endpoint off the largest root failed")
    if _sign_at(sqf, lo) == 0:
        # a smaller root: step up from it by ever smaller steps until the
        # step lands below the largest root, where no other root lies
        step = (hi - lo) / 2
        while _sign_changes(chain, lo + step) - vhi != 1:
            step /= 2
        lo += step
    return lo, hi


def nf_minpoly(x: NFElement) -> tuple[tuple[Fraction, ...], tuple[Fraction, Fraction]]:
    """Monic minimal polynomial of x over Q plus an isolating interval.

    The characteristic polynomial of multiplication by the numerator on the
    power basis is a power of the numerator's minimal polynomial qn, so qn
    is its square-free part and no factoring is needed; the answer is
    qn(den t) / den^deg(qn).
    """
    f = x.field
    qn = _squarefree(_charpoly(_mul_matrix(f, x.num)))
    mono = tuple(Fraction(c, x.den ** (len(qn) - 1 - i)) for i, c in enumerate(qn))

    if len(mono) == 2:  # x is rational
        q = -mono[0]
        return mono, (q - Fraction(1, 2), q + Fraction(1, 2))
    p, chain = _trim(x.num), _sturm_chain(mono)

    def isolates(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction] | None:
        vlo, vhi, s = _interval_horner(p, lo, hi)
        ylo, yhi = Fraction(vlo, s * x.den), Fraction(vhi, s * x.den)
        if (
            ylo < yhi
            and _sign_at(chain[0], ylo) != 0  # chain[0] is a positive multiple of mono
            and _sign_at(chain[0], yhi) != 0
            and _sign_changes(chain, ylo) - _sign_changes(chain, yhi) == 1
        ):
            return ylo, yhi
        return None

    # from the field's own interval, not the cache, so the answer does not
    # depend on which sign queries ran before
    return mono, _tighten(f, isolates, f.root_interval)


def pf_eigendata(M: Sequence[Sequence[int]]):
    """Field of the dominant eigenvalue plus an exact positive eigenvector.

    The characteristic polynomial chi comes from integer Faddeev-LeVerrier,
    and its square-free part once, as chi / gcd(chi, chi').  lambda is
    chi's largest real root, isolated once on that part's Sturm chain.  Its
    minimal polynomial is the irreducible factor of the square-free part
    (`_irreducible_factors`) that changes sign across that interval: the
    interval holds exactly one root, the factors have simple roots, and the
    endpoints are no roots, so exactly one factor does.  With
    chi(x) = (x - lambda) r(x), Cayley-Hamilton gives (M - lambda I) r(M) = 0,
    so r(M) e_0 is an eigenvector: chi'(lambda) times the Perron projection
    of e_0, positive for a primitive M.  It is normalized so its first entry
    is 1; M v = lambda v holds coordinatewise in Q(lambda).
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
    sqf = _squarefree(chi)
    interval = _largest_root_interval(chi, sqf)
    if interval is None:  # Perron-Frobenius: a primitive matrix has a real dominant eigenvalue
        raise NotPerronFrobenius("characteristic polynomial has no real root")
    lo, hi = interval
    minpoly = next(p for p in _irreducible_factors(sqf) if _sign_at(p, lo) * _sign_at(p, hi) < 0)
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
