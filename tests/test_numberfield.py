"""Exactness tests for the Q(lambda) layer.

Expected values here come from two independent routes: hand reduction with
the defining relation (recorded inline next to each assertion) and sympy's
algebraic-number arithmetic as a cross-check oracle.
"""

from fractions import Fraction
from math import gcd

import pytest
import sympy
import matmul_oracle
import sympy_oracle
import trackgen
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from splitseq import numberfield
from splitseq.numberfield import (
    DivisionByZero,
    IntegerKernelError,
    NonMonic,
    NotIsolating,
    NotPerronFrobenius,
    NumberField,
    _charpoly,
    _divmod_unit,
    _invert,
    _irreducible_factors,
    _largest_root_interval,
    _mat_mul,
    _squarefree,
    field_create,
    nf_arith,
    nf_const,
    nf_element,
    nf_gen,
    nf_minpoly,
    nf_sign,
    pf_eigendata,
    sturm_count,
)
from splitseq.splitting import SplitCase, large_branches, split_surgery

F = Fraction

# lambda^2 = 3 lambda - 1, lambda = (3 + sqrt 5)/2 ~ 2.618
TRACE_FIELD = field_create([1, -3, 1], (F(5, 2), 3))
# golden ratio field, lambda^2 = lambda + 1
GOLDEN = field_create([-1, -1, 1], (F(3, 2), 2))


def test_field_create_accepts_isolating_interval():
    f = TRACE_FIELD
    assert f.degree == 2
    lo, hi = f.refine(60).root_interval
    assert abs(float((lo + hi) / 2) - (3 + 5**0.5) / 2) < 1e-12


def test_field_create_rational_field():
    f = field_create([-1, 1], (F(1, 2), F(3, 2)))
    lam = nf_gen(f)
    assert lam.coeffs == (F(1),)
    assert nf_arith("mul", lam, lam).coeffs == (F(1),)


def test_field_create_negative_root():
    f = field_create([-2, 0, 1], (-2, -1))  # lambda = -sqrt 2
    assert nf_sign(nf_gen(f)) == -1
    lo, hi = f.refine(60).root_interval
    assert abs(float((lo + hi) / 2) + 2**0.5) < 1e-12


def test_field_create_rejects_two_roots():
    # x^2 - 3x + 1 has roots ~0.382 and ~2.618; (0, 4) contains both
    with pytest.raises(NotIsolating):
        field_create([1, -3, 1], (0, 4))


def test_field_create_rejects_rootless_interval():
    with pytest.raises(NotIsolating):
        field_create([1, -3, 1], (1, 2))


def test_field_create_rejects_non_monic():
    with pytest.raises(NonMonic):
        field_create([1, -3, 2], (0, 1))
    with pytest.raises(NonMonic):
        field_create([F(1, 2), 1], (0, 1))


def test_sturm_count_basic():
    # (x-1)(x-2)(x-3): 3 roots in (0, 4], 1 in (0, 3/2]
    p = (F(-6), F(11), F(-6), F(1))
    assert sturm_count(p, F(0), F(4)) == 3
    assert sturm_count(p, F(0), F(3, 2)) == 1


def test_mul_reduces_by_defining_relation():
    lam = nf_gen(TRACE_FIELD)
    sq = nf_arith("mul", lam, lam)
    # lambda^2 = -1 + 3 lambda
    assert sq.coeffs == (F(-1), F(3))


def test_additive_identity():
    a = nf_element(TRACE_FIELD, (F(7, 3), F(-2, 5)))
    assert nf_arith("add", a, nf_const(TRACE_FIELD, 0)) == a


def test_inverse_of_generator():
    lam = nf_gen(TRACE_FIELD)
    inv = nf_arith("div", nf_const(TRACE_FIELD, 1), lam)
    # lambda (3 - lambda) = 3 lambda - lambda^2 = 1
    assert inv.coeffs == (F(3), F(-1))
    assert nf_arith("mul", lam, inv) == nf_const(TRACE_FIELD, 1)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        nf_arith("div", nf_gen(TRACE_FIELD), nf_const(TRACE_FIELD, 0))


def test_sign_examples():
    lam = nf_gen(TRACE_FIELD)
    assert nf_sign(lam - 2) == 1  # 2.618... - 2
    assert nf_sign(nf_const(TRACE_FIELD, 0)) == 0
    assert nf_sign(lam - 3) == -1  # 2.618... - 3


def test_sign_stable_under_interval_refinement():
    lam_wide = nf_gen(TRACE_FIELD)
    narrow = TRACE_FIELD.refine(steps=20)
    lam_narrow = nf_gen(narrow)
    probes = [F(-5, 2), F(0), F(13, 5), F(21, 8), F(3)]
    for q in probes:
        wide_sign = nf_sign(lam_wide - q)
        narrow_sign = nf_sign(lam_narrow - nf_const(narrow, q))
        assert wide_sign == narrow_sign


rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=40
)


def _golden_value(a):
    x = sympy.Rational(1, 2) + sympy.sqrt(5) / 2
    return sympy.Rational(a.coeffs[0]) + sympy.Rational(a.coeffs[1]) * x


@given(rationals, rationals, rationals, rationals)
@settings(max_examples=100, deadline=None)
def test_sign_multiplicative(c0, c1, d0, d1):
    a = nf_element(GOLDEN, (c0, c1))
    b = nf_element(GOLDEN, (d0, d1))
    assert nf_sign(a * b) == nf_sign(a) * nf_sign(b)


@given(rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_sign_of_reciprocal(c0, c1):
    a = nf_element(GOLDEN, (c0, c1))
    if a.is_zero():
        return
    assert nf_sign(a) * nf_sign(1 / a) == 1


@given(rationals, rationals)
@settings(max_examples=40, deadline=None)
def test_sign_matches_sympy(c0, c1):
    a = nf_element(GOLDEN, (c0, c1))
    val = _golden_value(a)
    expected = 0 if val == 0 else (1 if val > 0 else -1)
    assert nf_sign(a) == expected


@given(rationals, rationals, rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_field_axioms_spot_checks(c0, c1, d0, d1):
    a = nf_element(GOLDEN, (c0, c1))
    b = nf_element(GOLDEN, (d0, d1))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) - b == a
    if not b.is_zero():
        assert (a / b) * b == a


def test_pf_eigendata_trace_matrix():
    field, v = pf_eigendata([[2, 1], [1, 1]])
    assert field.minpoly == (1, -3, 1)
    lam = nf_gen(field)
    assert v[0] == nf_const(field, 1)
    assert v[1] == lam - 2
    # exact eigen-identity, coordinatewise
    assert 2 * v[0] + v[1] == lam * v[0]
    assert v[0] + v[1] == lam * v[1]


def test_pf_eigendata_one_by_one():
    field, v = pf_eigendata([[1]])
    assert field.minpoly == (-1, 1)
    assert v[0] == nf_const(field, 1)


def test_pf_eigendata_fibonacci():
    field, v = pf_eigendata([[0, 1], [1, 1]])
    assert field.minpoly == (-1, -1, 1)
    lam = nf_gen(field)
    assert v == [nf_const(field, 1), lam]
    assert nf_sign(lam - 1) == 1


def test_pf_eigendata_rejects_imprimitive():
    with pytest.raises(NotPerronFrobenius):
        pf_eigendata([[0, 1], [0, 0]])  # nilpotent
    with pytest.raises(NotPerronFrobenius):
        pf_eigendata([[1, 0], [0, 1]])  # reducible
    with pytest.raises(NotPerronFrobenius):
        pf_eigendata([[0, 1], [1, 0]])  # periodic


@st.composite
def primitive_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    M = [
        [draw(st.integers(min_value=0, max_value=3)) for _ in range(n)]
        for _ in range(n)
    ]
    for i in range(n):  # positive diagonal makes any connected pattern primitive
        M[i][i] = max(M[i][i], 1)
        M[i][(i + 1) % n] = max(M[i][(i + 1) % n], 1)
    return M


# reducible characteristic polynomials, the second with a repeated factor:
# matrix -> (minpoly, power-basis numerators of v); every den is 1
TRIDIAGONAL = ((2, 1, 0), (1, 2, 1), (0, 1, 2))
CIRCULANT = tuple(tuple((1, 1, 0, 0, 1)[(j - i) % 5] for j in range(5)) for i in range(5))
PINNED_EIGENDATA = {
    # (x - 2)(x^2 - 4x + 2); v = (1, lambda - 2, 1)
    TRIDIAGONAL: ((2, -4, 1), ((1, 0), (-2, 1), (1, 0))),
    # (x - 3)(x^2 - x - 1)^2; v is all ones
    CIRCULANT: ((-3, 1), ((1,),) * 5),
}


@given(primitive_matrices())
@example(TRIDIAGONAL)
@example(CIRCULANT)
@settings(max_examples=40, deadline=None)
def test_pf_eigendata_exact_eigenvector(M):
    field, v = pf_eigendata(M)
    pinned = PINNED_EIGENDATA.get(tuple(map(tuple, M)))
    if pinned is not None:
        assert (field.minpoly, tuple(x.num for x in v)) == pinned
        assert all(x.den == 1 for x in v)
    lam = nf_gen(field)
    n = len(M)
    for i in range(n):
        lhs = nf_const(field, 0)
        for j in range(n):
            lhs = lhs + M[i][j] * v[j]
        assert lhs == lam * v[i]
    assert all(nf_sign(x) == 1 for x in v)
    # dominant root beats the float spectral radius estimate up to tolerance
    import numpy as np

    rho = max(abs(np.linalg.eigvals(np.array(M, dtype=float))))
    lo, hi = field.refine(60).root_interval
    assert abs(float((lo + hi) / 2) - rho) < 1e-6


def test_refine_preserves_field_identity():
    refined = TRACE_FIELD.refine(steps=5)
    assert refined.minpoly == TRACE_FIELD.minpoly
    lo, hi = refined.root_interval
    wide_lo, wide_hi = TRACE_FIELD.root_interval
    assert wide_lo <= lo < hi <= wide_hi
    assert sturm_count(tuple(Fraction(c) for c in refined.minpoly), lo, hi) == 1


# --- the sign path: interval Horner on a cached interval, Sturm as fallback

# x^3 - 3x + 1 has three real roots, about -1.879, 0.347 and 1.532
CUBIC = (1, -3, 0, 1)
CUBIC_INTERVALS = ((F(-2), F(-1)), (F(0), F(1, 2)), (F(1), F(2)))


def _cubic_value(root_index, coeffs):
    x = sympy.CRootOf(sympy.Poly(list(reversed(CUBIC)), sympy.Symbol("x")), root_index)
    return sum(sympy.Rational(c) * x**i for i, c in enumerate(coeffs))


def _sign_oracle(value):
    """Sign of an exact sympy number, read off a 100-digit evaluation."""
    v = sympy.N(value, 100)
    assert v == 0 or abs(v) > sympy.Float("1e-60", 100), "oracle too coarse"
    return 0 if v == 0 else (1 if v > 0 else -1)


@given(st.integers(0, 2), rationals, rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_sign_matches_sympy_in_degree_three(k, c0, c1, c2):
    field = field_create(CUBIC, CUBIC_INTERVALS[k])
    a = nf_element(field, (c0, c1, c2))
    assert nf_sign(a) == _sign_oracle(_cubic_value(k, a.coeffs))
    assert nf_sign(-a) == -nf_sign(a)


def test_sign_near_a_root_of_the_element_uses_one_sturm_chain(monkeypatch):
    # a = x^2 - 2.345 x + 0.7 has a root at 0.3511, near the cubic's root
    # 0.3473, so the first enclosures straddle 0 and the chain decides
    field = field_create(CUBIC, CUBIC_INTERVALS[1])
    a = nf_element(field, (F(7, 10), F(-469, 200), 1))
    built = []
    real_chain = numberfield._sturm_chain
    monkeypatch.setattr(numberfield, "_sturm_chain", lambda p: built.append(p) or real_chain(p))
    assert nf_sign(a) == _sign_oracle(_cubic_value(1, a.coeffs)) == 1
    assert len(built) == 1


def test_conjugate_fields_keep_separate_intervals():
    # golden ratio phi ~ 1.618 and its conjugate psi ~ -0.618: one minpoly
    phi = field_create([-1, -1, 1], (F(3, 2), 2))
    psi = field_create([-1, -1, 1], (F(-1), F(0)))
    assert phi != psi and hash(phi) == hash(psi)
    # warm both caches with a query that needs a tight interval
    assert nf_sign(nf_element(phi, (1346269, -832040))) == 1
    assert nf_sign(nf_element(psi, (-1, 2))) == -1  # 2 psi - 1 ~ -2.236
    cubics = [field_create(CUBIC, iv) for iv in CUBIC_INTERVALS]
    for f in cubics:
        nf_sign(nf_element(f, (F(-1, 3), F(-5, 7), 1)))
    probes = [(F(-8, 5), 1), (F(1, 2), 1), (F(-3, 5), 1), (F(-2, 3), 1), (0, 1)]
    for _ in range(3):
        for c0, c1 in probes:
            for f, root in ((phi, (1 + sympy.sqrt(5)) / 2), (psi, (1 - sympy.sqrt(5)) / 2)):
                expected = _sign_oracle(sympy.Rational(c0) + sympy.Rational(c1) * root)
                assert nf_sign(nf_element(f, (c0, c1))) == expected
            for k, f in enumerate(cubics):
                coeffs = (c0, c1, F(1, 3))
                assert nf_sign(nf_element(f, coeffs)) == _sign_oracle(_cubic_value(k, coeffs))


def test_sign_of_nearly_zero_fibonacci_difference():
    # F_31 - phi F_30 = psi^30 ~ 5.4e-7 > 0, and F_32 - phi F_31 = psi^31 < 0
    golden = field_create([-1, -1, 1], (F(3, 2), 2))
    tiny = nf_element(golden, (1346269, -832040))
    assert nf_sign(tiny) == 1
    assert nf_sign(-tiny) == -1
    assert nf_sign(nf_element(golden, (2178309, -1346269))) == -1
    assert nf_sign(tiny) == 1


def test_warm_cache_needs_no_refinement(monkeypatch):
    golden = field_create([-1, -1, 1], (F(3, 2), 2))
    tiny = nf_element(golden, (1346269, -832040))
    calls = []
    real_refine = NumberField.refine
    monkeypatch.setattr(NumberField, "refine", lambda self, steps=1: calls.append(steps) or real_refine(self, steps))
    assert nf_sign(tiny) == 1
    assert len(calls) > 10  # a cold field starts from the width-1/2 interval
    calls.clear()
    assert nf_sign(-tiny) == -1
    assert nf_sign(nf_gen(golden) - F(8, 5)) == 1
    assert calls == []


def test_sign_queries_leave_field_identity_alone():
    f = field_create([-1, -1, 1], (F(3, 2), 2))
    twin = field_create([-1, -1, 1], (F(3, 2), 2))
    other = field_create([-1, -1, 1], (F(8, 5), F(13, 8)))
    before = (f.root_interval, hash(f), repr(f))
    nf_sign(nf_element(f, (1346269, -832040)))
    assert (f.root_interval, hash(f), repr(f)) == before
    assert f == twin and hash(f) == hash(twin)
    assert f == other  # same root, other interval
    assert f.refine(3).root_interval == twin.refine(3).root_interval
    assert nf_element(f, (1, 1)) == nf_element(twin, (1, 1))


def test_minpoly_interval_ignores_earlier_sign_queries():
    f = field_create([-1, -1, 1], (F(3, 2), 2))
    x = nf_element(f, (F(1, 3), 2))
    cold = nf_minpoly(x)
    nf_sign(nf_element(f, (1346269, -832040)))
    assert nf_minpoly(x) == cold


# --- integer division and inversion

small_fracs = st.builds(F, st.integers(-9, 9), st.integers(1, 5))


@given(
    st.lists(st.integers(-9, 9), max_size=7),
    st.lists(st.integers(-9, 9), max_size=4),
    st.sampled_from((1, -1)),
)
@settings(max_examples=200, deadline=None)
def test_divmod_unit_recombines(a, b, lead):
    b = b + [lead]  # leading coefficient +-1, so the quotient is integral
    q, r = _divmod_unit(a, b)
    assert len(r) < len(b) and (not r or r[-1] != 0)
    n = max(len(a), len(q) + len(b))
    got = list(r) + [0] * (n - len(r))  # q * b + r
    for i, x in enumerate(q):
        for j, y in enumerate(b):
            got[i + j] += x * y
    assert got == list(a) + [0] * (n - len(a))


# --- the sparse matrix product against the dense one


def _matrix(rows, cols, entries=st.integers(-50, 50)):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def product_pairs(draw):
    # zero rows, zero inner dimension and zero columns included
    r, k, c = (draw(st.integers(0, 6)) for _ in range(3))
    sparse = st.one_of(st.just(0), st.just(0), st.just(1), st.integers(-(10**20), 10**20))
    entries = draw(st.sampled_from([st.integers(-50, 50), sparse]))
    return draw(_matrix(r, k, entries)), draw(_matrix(k, c, entries))


def _is_tuple_of_tuples(m):
    return type(m) is tuple and all(type(row) is tuple for row in m)


@given(product_pairs())
@example(([], []))
@example(([[], []], []))
@example(([[1, -2]], [[], []]))
# h1_action's change of basis: an inverse with negative entries
@example(([[1, 0], [-3, 1]], [[1, 0], [3, 1]]))
@settings(max_examples=200, deadline=None)
def test_mat_mul_matches_the_dense_product(pair):
    a, b = pair
    got = _mat_mul(a, b)
    assert got == matmul_oracle.mat_mul(a, b)
    assert _is_tuple_of_tuples(got)


@given(st.integers(0, 40), st.data())
@settings(max_examples=60, deadline=None)
def test_mat_mul_composes_split_chains_like_the_dense_product(seed, data):
    # elementary carrying matrices of left, right and central splits: the
    # identity but for one row, and a central one drops a column
    t = trackgen.some_track(seed, sizes=(4, 6, 8))
    elems = []
    for _ in range(data.draw(st.integers(1, 12))):
        large = large_branches(t)
        if not large:
            break
        branch = data.draw(st.sampled_from(large))
        case = data.draw(st.sampled_from(list(SplitCase)))
        t, elem = split_surgery(t, branch, case)
        elems.append(elem.entries)
    assume(elems)
    sparse = dense = elems[0]
    for e in elems[1:]:
        sparse, dense = _mat_mul(sparse, e), matmul_oracle.mat_mul(dense, e)
        assert sparse == dense and _is_tuple_of_tuples(sparse)


# --- integer kernels against sympy


@given(st.integers(1, 8).flatmap(lambda n: st.lists(
    st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=80, deadline=None)
def test_charpoly_matches_sympy(M):
    # negative entries too: multiplication matrices (`_mul_matrix`) have them
    assert _charpoly(M) == sympy_oracle.charpoly(M)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


# x, x - 1, x + 1 and the cyclotomic polynomials of orders 3, 4, 5, 6, 8, 12
SPECIAL_FACTORS = [
    (0, 1), (-1, 1), (1, 1), (1, 1, 1), (1, 0, 1), (1, 1, 1, 1, 1),
    (1, -1, 1), (1, 0, 0, 0, 1), (1, 0, -1, 0, 1),
]
monic_factors = st.one_of(
    st.sampled_from(SPECIAL_FACTORS),
    st.lists(st.integers(-6, 6), min_size=1, max_size=4).map(lambda cs: tuple(cs) + (1,)),
    # large coefficients need several Hensel steps
    st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=3).map(lambda cs: tuple(cs) + (1,)),
)


@given(st.lists(monic_factors, min_size=1, max_size=7))
@example([(1, 1, 1), (1, 1, 1), (-1, 1), (-1, 1), (-1, 1)])
@example([(1, 0, -10, 0, 1), (-2, 0, 1)])  # x^4 - 10x^2 + 1 is irreducible but splits mod every prime
@settings(max_examples=120, deadline=None)
def test_factor_search_matches_sympy(factors):
    p = (1,)
    for q in factors:
        if len(p) + len(q) - 2 <= 14:  # degree at most 14
            p = _poly_mul(p, q)
    sqf = _squarefree(p)
    distinct = sorted(set(sympy_oracle.factor_list(p)), key=lambda q: (len(q), q))
    assert _irreducible_factors(sqf) == distinct
    prod = (1,)
    for q in distinct:
        prod = _poly_mul(prod, q)
    assert sqf == prod


def test_integer_kernels_refuse_what_they_cannot_certify():
    with pytest.raises(IntegerKernelError):
        _charpoly([[F(1, 2)]])  # -tr / 1 leaves a remainder
    with pytest.raises(IntegerKernelError):
        _irreducible_factors((1, 2, 1))  # (x + 1)^2 is square-free mod no prime


@given(st.integers(2, 5), st.lists(small_fracs, min_size=5, max_size=5))
@settings(max_examples=150, deadline=None)
def test_inverse_times_element_is_one(d, coeffs):
    # x^d - 2 is irreducible (Eisenstein at 2), its real root 2^(1/d) lies in (1, 2)
    f = field_create([-2] + [0] * (d - 1) + [1], (1, 2))
    x = nf_element(f, coeffs[:d])
    assume(not x.is_zero())
    assert nf_arith("mul", x, _invert(x)).coeffs == (1,) + (0,) * (d - 1)


# --- largest-root isolation


def test_largest_root_interval_when_bisection_lands_on_a_root():
    # x (x - 1) (x + 5): the first midpoint, 0, is a root
    lo, hi = _largest_root_interval((0, -5, 4, 1), (0, -5, 4, 1))
    p = (F(0), F(-5), F(4), F(1))
    assert sturm_count(p, lo, hi) == 1
    assert lo < 1 <= hi and not lo <= 0 <= hi
    assert 0 not in (lo, hi) and 1 not in (lo, hi)


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_largest_root_interval_isolates_the_largest_root(roots):
    p = (1,)
    for r in roots:  # multiply by (x - r)
        p = tuple(a - r * b for a, b in zip((0,) + p, p + (0,)))
    lo, hi = _largest_root_interval(p, _squarefree(p))
    pf = tuple(F(c) for c in p)
    assert sturm_count(pf, lo, hi) == 1
    assert lo < max(roots) < hi
    assert all(not lo <= r <= hi for r in roots if r != max(roots))


# --- integer coordinates over one denominator

# Q(2^(1/d)), d = 1..5 (x^d - 2 is Eisenstein at 2), and the three real
# embeddings of the cubic fixture
REPRESENTATION_FIELDS = [
    field_create([-2] + [0] * (d - 1) + [1], (1, 2)) for d in range(1, 6)
] + [field_create(CUBIC, iv) for iv in CUBIC_INTERVALS]


def _in_lowest_terms(e):
    return (
        len(e.num) == e.field.degree
        and all(type(c) is int for c in e.num)
        and type(e.den) is int
        and e.den > 0
        and gcd(e.den, *e.num) == 1
    )


def _reference_mul(field, x, y):
    """Fraction convolution, then reduction by the monic minimal polynomial."""
    d = field.degree
    raw = [F(0)] * (2 * d - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            raw[i + j] += a * b
    for k in range(len(raw) - 1, d - 1, -1):
        for i in range(d):
            raw[k - d + i] -= raw[k] * field.minpoly[i]
    return tuple(raw[:d])


def _reference_enclosure(coeffs, lo, hi):
    """Fraction interval Horner with all four endpoint products."""
    alo = ahi = F(0)
    for c in reversed(coeffs):
        prods = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(prods) + c, max(prods) + c
    return alo, ahi


coordinate_lists = st.lists(small_fracs, min_size=5, max_size=5)


@given(st.sampled_from(REPRESENTATION_FIELDS), coordinate_lists, coordinate_lists)
@settings(max_examples=200, deadline=None)
def test_arithmetic_matches_fraction_reference(field, xs, ys):
    d = field.degree
    a, b = nf_element(field, xs[:d]), nf_element(field, ys[:d])
    assert a.coeffs == tuple(xs[:d]) and b.coeffs == tuple(ys[:d])
    results = [a, b, -a, a + b, a - b, a * b]
    assert (a + b).coeffs == tuple(x + y for x, y in zip(xs, ys[:d]))
    assert (a - b).coeffs == tuple(x - y for x, y in zip(xs, ys[:d]))
    assert (a * b).coeffs == _reference_mul(field, xs[:d], ys[:d])
    if not b.is_zero():
        q = a / b
        results.append(q)
        assert _reference_mul(field, q.coeffs, b.coeffs) == a.coeffs
    for e in results:
        assert _in_lowest_terms(e)
        again = nf_element(field, e.coeffs)
        assert again == e and hash(again) == hash(e)


def test_constructor_brings_coordinates_to_lowest_terms():
    f = REPRESENTATION_FIELDS[1]  # Q(sqrt 2)
    e = numberfield.NFElement(f, (2, -4), -6)
    assert (e.num, e.den) == ((-1, 2), 3)
    assert e == nf_element(f, (F(-1, 3), F(2, 3)))
    assert repr(e) == f"NFElement(field={f!r}, coeffs=(Fraction(-1, 3), Fraction(2, 3)))"
    with pytest.raises(DivisionByZero):
        numberfield.NFElement(f, (1, 0), 0)


@given(st.sampled_from(REPRESENTATION_FIELDS), coordinate_lists, st.integers(0, 30))
@settings(max_examples=150, deadline=None)
def test_integer_interval_horner_matches_fraction_enclosure(field, xs, steps):
    a = nf_element(field, xs[: field.degree])
    lo, hi = field.refine(steps).root_interval
    vlo, vhi, s = numberfield._interval_horner(a.num, lo, hi)
    assert s > 0
    ref_lo, ref_hi = _reference_enclosure(a.coeffs, lo, hi)
    assert (F(vlo, s * a.den), F(vhi, s * a.den)) == (ref_lo, ref_hi)
    assert ((vlo > 0) - (vhi < 0)) == ((ref_lo > 0) - (ref_hi < 0))
