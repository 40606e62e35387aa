import cmath
import copy
import pickle
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from speccy import cyclotomic
from speccy.cyclotomic import CycNum, sqrt_cyclotomic

X = sympy.Symbol("x")

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4)
small_conductors = st.integers(1, 24)
# conductors with three primes (60, 105, 120, 168, 360) or higher prime
# powers (72 = 8 * 9, 248 = 8 * 31)
large_conductors = st.sampled_from((60, 72, 105, 120, 168, 248, 360))
conductors = st.one_of(small_conductors, large_conductors)


@st.composite
def cycnums(draw, conductors=conductors):
    """A CycNum whose exponent denominators divide a drawn conductor n: a few
    random terms plus random multiples of the vanishing p-gon sums
    sum_j e(k/n + j/p)  for primes p dividing n, so that many draws are
    zero."""
    n = draw(conductors)
    x = CycNum()
    for _ in range(draw(st.integers(0, 3))):
        x = x + CycNum.e(Fraction(draw(st.integers(0, n - 1)), n)) * draw(coefficients)
    for p in sympy.primefactors(n):
        if draw(st.booleans()):
            k = draw(st.integers(0, n - 1))
            c = draw(coefficients)
            for j in range(p):
                x = x + CycNum.e(Fraction(k, n) + Fraction(j, p)) * c
    return x


def oracle_is_zero(x):
    """x = P(zeta_n) with P = sum (c / den) x^k; zero iff Phi_n divides P."""
    P = sum((sympy.Rational(c, x.den) * X ** k for k, c in x.terms.items()), sympy.Integer(0))
    return sympy.rem(P, sympy.cyclotomic_poly(x.n, X), X) == 0


class TestRingAxioms:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(cycnums(), cycnums(), cycnums())
    def test_ring_axioms_mixed_conductors(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero() and a + 0 == a and a * 1 == a
        assert (a * 0).is_zero()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(cycnums())
    def test_conjugate_and_to_complex(self, a):
        z = a.to_complex()
        assert abs(a.conjugate().to_complex() - z.conjugate()) < 1e-9
        # x * conj(x) = |x|^2 is real and nonnegative
        zz = (a * a.conjugate()).to_complex()
        assert abs(zz - abs(z) ** 2) < 1e-9
        if a.is_zero():
            assert abs(z) < 1e-9

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(cycnums())
    def test_is_zero_matches_sympy_reduction(self, a):
        assert a.is_zero() == oracle_is_zero(a)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cycnums(small_conductors), cycnums(small_conductors))
    def test_difference_is_zero_matches_sympy_reduction(self, a, b):
        # any two conductors up to 24: the difference lives at their lcm
        d = a - b
        assert d.is_zero() == oracle_is_zero(d) == (a == b)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_difference_at_a_large_conductor_matches_sympy_reduction(self, data):
        # b's conductor divides a's, so the difference lives at a.n <= 360,
        # where the oracle's remainder stays cheap
        a = data.draw(cycnums(large_conductors))
        b = data.draw(cycnums(st.sampled_from(sympy.divisors(a.n))))
        d = a - b
        assert d.is_zero() == oracle_is_zero(d) == (a == b)


def oracle_product(a, b):
    """a * b as a sum of one-term CycNums, one per pair of terms, built with
    addition alone: no product kernel.  The terms are integer numerators
    over each number's denominator."""
    n = lcm(a.n, b.n)
    total = CycNum()
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            term = Fraction(ca * cb, a.den * b.den)
            total = total + CycNum({ka * (n // a.n) + kb * (n // b.n): term}, n)
    return total


@st.composite
def entries(draw):
    """A matrix entry: zero, a single root of unity, or a cycnums() sum."""
    kind = draw(st.sampled_from(("zero", "root", "sum")))
    if kind == "zero":
        return CycNum()
    if kind == "root":
        n = draw(conductors)
        return CycNum.e(Fraction(draw(st.integers(0, n - 1)), n))
    return draw(cycnums())


class TestProductKernel:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_matmul_is_the_sum_of_entry_products(self, data):
        r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
        A = [[data.draw(entries()) for _ in range(k)] for _ in range(r)]
        B = [[data.draw(entries()) for _ in range(c)] for _ in range(k)]
        M = cyclotomic._matmul(A, B)
        assert len(M) == r and all(len(row) == c for row in M)
        for i in range(r):
            for j in range(c):
                assert M[i][j] == sum(A[i][t] * B[t][j] for t in range(k))
                assert M[i][j] == sum(oracle_product(A[i][t], B[t][j]) for t in range(k))

    def test_matmul_refuses_mismatched_shapes(self):
        # a 2 x 3 by 2 x 2 product is refused, not cut to a 2 x 2 result
        one = CycNum.from_rational(1)
        A = [[one] * 3 for _ in range(2)]
        B = [[one] * 2 for _ in range(2)]
        with pytest.raises(ValueError, match="row of length 3 and a matrix of 2 rows"):
            cyclotomic._matmul(A, B)
        with pytest.raises(ValueError, match="row of length 2 and a matrix of 3 rows"):
            cyclotomic._matmul(B, [[one]] * 3)
        with pytest.raises(ValueError, match="row of length 3 and a matrix of 2 rows"):
            cyclotomic._matmul(B, B, A, [[one]] * 2)
        assert len(cyclotomic._matmul(B, A)) == 2

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(entries(), entries(), entries(), st.booleans())
    def test_is_product_matches_equality(self, a, b, c, near):
        # near: a is b * c plus a drawn entry, often a zero-valued sum
        if near:
            a = oracle_product(b, c) + a
        assert cyclotomic._is_product(a, b, c) == (a == b * c) == (a == oracle_product(b, c))


class TestFixedCases:
    @pytest.mark.parametrize("p", [p for p in range(2, 32) if sympy.isprime(p)])
    def test_sum_of_pth_roots_vanishes(self, p):
        total = CycNum()
        for k in range(p):
            total = total + CycNum.e(Fraction(k, p))
        assert total.is_zero() and total == 0

    def test_sqrt_squares_back(self):
        for n in range(1, 201):
            r = sqrt_cyclotomic(n)
            assert r * r == n, n
            assert abs(r.to_complex() - n ** 0.5) < 1e-9, n

    @pytest.mark.parametrize("u", [u for u in range(1, 200, 2)
                                   if all(e == 1 for e in sympy.factorint(u).values())])
    def test_linear_gauss_sum_matches_repeated_sum(self, u):
        # the sum of e(k^2/u) as u repeated additions, times e(-1/4) when
        # it is i sqrt(u)
        g = CycNum()
        for k in range(u):
            g = g + CycNum.e(Fraction(k * k, u))
        if u % 4 == 3:
            g = g * CycNum.e(Fraction(-1, 4))
        root = cyclotomic._gauss_sqrt(u)
        assert (root.n, root.terms) == (g.n, g.terms)
        assert root == sqrt_cyclotomic(u)

    def test_root_arithmetic_and_round_trip(self):
        # a root takes part in every operation unchanged, and copies and
        # pickles through the default __slots__ protocol
        root = sqrt_cyclotomic(60)
        before = (root.n, dict(root.terms))
        x = CycNum.e(Fraction(1, 6)) + 2
        for value in (root * x, x * root, root + x, x - root, -root, root * Fraction(1, 3),
                      root.conjugate(), root * root):
            assert not value.is_zero()
        assert root == root.conjugate() and root * root == 60
        assert (root.n, root.terms) == before
        for twin in (copy.deepcopy(root), pickle.loads(pickle.dumps(root))):
            assert type(twin) is CycNum and (twin.n, twin.terms) == before

    def test_product_of_roots(self):
        assert CycNum.e(Fraction(1, 4)) * CycNum.e(Fraction(1, 6)) == CycNum.e(Fraction(5, 12))
        assert CycNum.e(Fraction(1, 4)) * CycNum.e(Fraction(1, 6)) != CycNum.e(Fraction(1, 12))

    def test_lift_to_lcm(self):
        x = CycNum.e(Fraction(1, 4)) + CycNum.e(Fraction(1, 6))
        assert x.n == 12 and set(x.terms) == {3, 2}
        assert abs(x.to_complex() - (1j + cmath.exp(1j * cmath.pi / 3))) < 1e-12

    def test_coefficients_stay_integral(self):
        x = (CycNum.e(Fraction(1, 8)) + 3) * CycNum.from_rational(Fraction(4, 2))
        assert all(type(c) is int for c in x.terms.values())

    @pytest.mark.parametrize("n", [30, 60, 105, 120, 248])
    def test_full_coset_sums_vanish_and_one_move_does_not(self, n):
        # sum_j e((k + j n/d)/n) over j < d runs over a coset of the order-d
        # subgroup and vanishes for d > 1; moving any one coefficient by +-1
        # leaves a number that is not zero
        for d in sympy.divisors(n)[1:]:
            for k in range(n // d):
                coset = [k + j * n // d for j in range(d)]
                assert CycNum(dict.fromkeys(coset, 1), n).is_zero(), (n, d, k)
                for i in coset:
                    for step in (1, -1):
                        terms = dict.fromkeys(coset, 1)
                        terms[i] += step
                        assert not CycNum(terms, n).is_zero(), (n, d, k, i, step)

    def test_true_order_below_the_conductor(self):
        # 1 + e(2/4) = 1 + e(1/2) = 0, stored at conductor 4
        x = CycNum({0: 1, 2: 1}, 4)
        assert x.is_zero()
        assert not CycNum({0: 1, 1: 1}, 4).is_zero()
