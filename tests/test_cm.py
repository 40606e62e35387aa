import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speccy.cm import (
    QuaternionAlgebra,
    QuaternionOrder,
    _cm_order_data,
    _integral_coefficients,
    degree_bruteforce,
    degree_formula,
)
from speccy.eisenstein import EisensteinPackage, a_plus
from speccy.imq import ImQField, kronecker_symbol, ord_p, reduced_forms
from speccy.lattice import QuadLattice, enumerate_coset_vectors
from speccy.linalg import det_fraction, lattice_member


def nrd_bilinear(alg, u, v):
    """trd(u * conj(v)) through a quaternion product: the reference for
    QuaternionAlgebra.norm_gram."""
    return alg.trd(alg.mul(tuple(u), alg.conj(tuple(v))))


def principal_lattice(d):
    a, b, c = reduced_forms(d)[0]
    assert a == 1
    return QuadLattice([[-2 * a, -b], [-b, -2 * c]])


PKGS = {d: EisensteinPackage.from_lattice(principal_lattice(d))
        for d in (-3, -7, -11)}

rational_rows = st.lists(
    st.lists(st.fractions(-20, 20, max_denominator=12), min_size=4, max_size=4),
    min_size=1, max_size=3)


def admissible(pkg, m_max):
    """Every (m, mu) with m <= m_max, Q(mu) = m mod Z, Diff(m) = {p} and
    ord_p(m) >= 0: the oracle's domain."""
    for mu in pkg.disc0.elements():
        q = pkg.disc0.q_map(mu)
        m = q if q > 0 else Fraction(1)
        while m <= m_max:
            diff = pkg.diff(m)
            if len(diff) == 1 and ord_p(m, min(diff)) >= 0:
                yield m, mu
            m += 1


class TestAlgebra:
    def test_mult_table(self):
        alg = QuaternionAlgebra(Fraction(-1), Fraction(-1))
        i = (0, 1, 0, 0)
        j = (0, 0, 1, 0)
        k = (0, 0, 0, 1)
        assert alg.mul(i, j) == (0, 0, 0, 1)
        assert alg.mul(j, i) == (0, 0, 0, -1)
        assert alg.mul(i, i) == (-1, 0, 0, 0)
        assert alg.mul(k, k) == (-1, 0, 0, 0)
        assert alg.mul(j, k) == (0, 1, 0, 0)

    def test_nrd_multiplicative(self):
        alg = QuaternionAlgebra(Fraction(-2), Fraction(-7))
        x = (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2))
        y = (Fraction(0), Fraction(-1), Fraction(3), Fraction(1))
        assert alg.nrd(alg.mul(x, y)) == alg.nrd(x) * alg.nrd(y)

    def test_conj_antihomomorphism(self):
        alg = QuaternionAlgebra(Fraction(-1), Fraction(-3))
        x = (Fraction(1), Fraction(1), Fraction(0), Fraction(2))
        y = (Fraction(2), Fraction(0), Fraction(1), Fraction(-1))
        assert alg.conj(alg.mul(x, y)) == alg.mul(alg.conj(y), alg.conj(x))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(xs=rational_rows, ys=rational_rows)
    @example(xs=[[1, 2, -1, Fraction(1, 2)], [0, -1, 3, 1], [Fraction(1, 3), 0, 2, -1]],
             ys=[[1, 2, -1, Fraction(1, 2)], [0, -1, 3, 1]])
    def test_norm_gram_and_products(self, xs, ys):
        # the integer products and norm Gram against Fraction mul and a
        # product-based trd(x conj(y)), on an integral and a rational algebra
        xs = [tuple(x) for x in xs]
        for alg in (QuaternionAlgebra(-7, -5),
                    QuaternionAlgebra(Fraction(-3), Fraction(-5, 2))):
            assert alg.norm_gram(xs) == [[nrd_bilinear(alg, x, y) for y in xs] for x in xs]
            assert all(alg.norm_gram([x])[0][0] == 2 * alg.nrd(x) for x in xs)
            assert alg.products(xs, ys) == [list(alg.mul(x, tuple(y))) for x in xs
                                            for y in ys]

    def test_discriminant(self):
        for a, b, disc in [(-1, -1, 2), (-1, -3, 3), (-3, -1, 3), (-1, 3, 6),
                           (-7, -5, 5)]:
            alg = QuaternionAlgebra(Fraction(a), Fraction(b))
            assert alg.discriminant() == disc

    def test_ramification_even(self):
        for a, b in [(-1, -1), (-1, -3), (-2, -5), (-1, -7), (-3, -11)]:
            alg = QuaternionAlgebra(Fraction(a), Fraction(b))
            finite, infinite = alg.ramified_primes()
            assert (len(finite) + (1 if infinite else 0)) % 2 == 0


def nonsplit_disc(p):
    """The first of -3, -7, -11, -19 in which p does not split."""
    return next(d for d in (-3, -7, -11, -19) if kronecker_symbol(d, p) != 1)


def starting_order(alg, theta):
    """Z<1, theta, j, j theta>, the order _cm_order_data saturates."""
    j = (0, 0, 1, 0)
    return QuaternionOrder(alg, [[1, 0, 0, 0], list(theta), list(j),
                                 list(alg.mul(j, theta))])


class TestMaximalOrders:
    def test_hurwitz_p2(self):
        # the maximal order of B_{2, inf} is the Hurwitz order: 24 units
        alg, order, _, _ = _cm_order_data(2, -3, 0)
        gram = [[int(nrd_bilinear(alg, u, v)) for v in order.basis]
                for u in order.basis]
        assert len(enumerate_coset_vectors(QuadLattice(gram), [0] * 4, 1)) == 24

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 23, 43])
    def test_saturation_reaches_p(self, p):
        d = nonsplit_disc(p)
        alg, order, theta, _ = _cm_order_data(p, d, 0)
        assert order.reduced_discriminant() == p
        # the HNF-pivot determinant against the Fraction one
        assert abs(det_fraction(order.integral_forms()[1])) == p * p
        finite, infinite = alg.ramified_primes()
        assert finite == {p} and infinite
        # maximality certificate: det of reduced-trace gram = p^2
        assert abs(det_fraction(order.trace_gram())) == p * p
        # theta is the CM element (d + sqrt d)/2, inside the order
        assert order.contains(theta)
        lin = tuple(Fraction(d) * theta[i] - (Fraction(d * d - d, 4) if i == 0 else 0)
                    for i in range(4))
        assert alg.mul(theta, theta) == lin

    def test_p7_contains_standard_order(self):
        alg, order, theta, _ = _cm_order_data(7, -11, 0)
        start = starting_order(alg, theta)
        for v in start.basis:
            assert order.contains(v)
        # index of Z<1, theta, j, j theta> from the discriminant ratio 77 / 7
        assert start.reduced_discriminant() // order.reduced_discriminant() == 11

    @pytest.mark.parametrize("p,d", [(2, -3), (3, -3), (5, -7), (7, -11),
                                     (13, -19), (2, -163)])
    def test_integer_filter_matches_fractions(self, p, d):
        # the int criterion accepts exactly the c in (Z/l)^4 whose
        # sum c_r b_r / l has integral Fraction trd and nrd
        alg, order, theta, _ = _cm_order_data(p, d, 0)
        for o in (starting_order(alg, theta), order):
            trace, gram = o.integral_forms()
            for l in (2, 3, 5, 7):
                expected = []
                for c in itertools.product(range(l), repeat=4):
                    x = [sum(c[r] * o.basis[r][i] for r in range(4)) / l
                         for i in range(4)]
                    if (alg.trd(x).denominator == 1
                            and alg.nrd(x).denominator == 1):
                        expected.append(c)
                assert list(_integral_coefficients(trace, gram, l)) == expected

    def test_integral_forms(self):
        alg, order, theta, _ = _cm_order_data(7, -11, 0)
        for o in (starting_order(alg, theta), order):
            trace, gram = o.integral_forms()
            assert trace == [alg.trd(b) for b in o.basis]
            assert gram == [[nrd_bilinear(alg, u, v) for v in o.basis]
                            for u in o.basis]
            assert abs(det_fraction(gram)) == abs(det_fraction(o.trace_gram()))

    @pytest.mark.parametrize("p,rows", [
        (2, [["1/2", "1/326", "0", "77/163"], ["0", "1/163", "0", "154/163"],
             ["0", "0", "1/2", "1/2"], ["0", "0", "0", "1"]]),
        (7, [["1/2", "1/326", "0", "155/163"], ["0", "1/163", "0", "147/163"],
             ["0", "0", "1/2", "1/2"], ["0", "0", "0", "1"]]),
    ])
    def test_pinned_basis_d163(self, p, rows):
        # saturation picks the first enlarging candidate in product order,
        # so the basis it reaches is fixed
        _, order, _, _ = _cm_order_data(p, -163, 0)
        assert order.basis == [[Fraction(x) for x in row] for row in rows]
        assert order.reduced_discriminant() == p

    @pytest.mark.parametrize("rows,message", [
        ([[1, 0, 0, 0]] * 4, "must have rank 4"),
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], "must have rank 4"),
        ([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "must contain 1"),
        # Z<1, i, j, 2k> is integral but i j = k is not in it
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]],
         "not multiplicatively closed"),
    ])
    def test_each_refusal_named(self, rows, message):
        alg = QuaternionAlgebra(Fraction(-1), Fraction(-1))
        with pytest.raises(ValueError, match=message):
            QuaternionOrder(alg, rows)

    def test_non_order_rejected(self):
        alg = QuaternionAlgebra(Fraction(-1), Fraction(-1))
        with pytest.raises(ValueError, match="must be integral"):
            QuaternionOrder(alg, [[1, 0, 0, 0], [0, Fraction(1, 2), 0, 0],
                                  [0, 0, 1, 0], [0, 0, 0, 1]])

    def test_lipschitz_and_hurwitz_accepted(self):
        alg = QuaternionAlgebra(Fraction(-1), Fraction(-1))
        lipschitz = QuaternionOrder(alg, [[1, 0, 0, 0], [0, 1, 0, 0],
                                          [0, 0, 1, 0], [0, 0, 0, 1]])
        half = Fraction(1, 2)
        hurwitz = QuaternionOrder(alg, [[half] * 4, [0, 1, 0, 0],
                                        [0, 0, 1, 0], [0, 0, 0, 1]])
        assert lipschitz.reduced_discriminant() == 4
        assert hurwitz.is_maximal() and not lipschitz.is_maximal()

    @pytest.mark.parametrize("p,d", [(7, -11), (2, -163)])
    def test_contains_matches_lattice_member(self, p, d):
        # HNF membership against the SNF solve, on x = sum c_r b_r / l with
        # c in [0, l]^4, so x is in O exactly when l divides every c_r
        _, order, _, _ = _cm_order_data(p, d, 0)
        cols = [list(b) for b in order.basis]
        for l in (2, 3):
            for c in itertools.product(range(l + 1), repeat=4):
                x = [sum(c[r] * order.basis[r][i] for r in range(4)) / l
                     for i in range(4)]
                assert order.contains(x) == (lattice_member(cols, x) is not None)
                assert order.contains(x) == all(cr % l == 0 for cr in c)


class TestEmbedCM:
    def test_d7_p7(self):
        alg, order, theta, _ = _cm_order_data(7, -7, 0)
        assert alg.trd(theta) == -7
        assert alg.nrd(theta) == 14

    def test_minimal_polynomial(self):
        for d, p in [(-3, 3), (-7, 7), (-11, 11), (-7, 5), (-3, 2)]:
            K = ImQField.from_discriminant(d)
            if K.chi(p) == 1:
                continue
            alg, order, theta, _ = _cm_order_data(p, d, 0)
            assert order.contains(theta)
            sq = alg.mul(theta, theta)
            lin = tuple(Fraction(d) * theta[i]
                        - (Fraction(d * d - d, 4) if i == 0 else 0)
                        for i in range(4))
            assert sq == lin

    def test_conjugate_linear_rank2_orthogonal(self):
        # {x : x alpha = conj(alpha) x} is rank 2 and orthogonal to O_k
        alg, order, theta, ominus = _cm_order_data(7, -7, 0)
        assert len(ominus) == 2
        for x in ominus:
            for y in ([1, 0, 0, 0], theta):
                assert nrd_bilinear(alg, x, list(y)) == 0


class TestDegreeFormula:
    def test_d7_m1(self):
        pkg = PKGS[-7]
        res = degree_formula(pkg, 1, pkg.disc0.zero())
        assert res.weighted_count == 1
        assert res.degree.logs == ((7, Fraction(1)),)

    def test_wrong_support_vanishes(self):
        pkg = PKGS[-7]
        mu = pkg.disc0.from_coords((1,))
        res = degree_formula(pkg, 1, mu)
        assert res.weighted_count == 0 and res.degree.is_zero()

    def test_big_diff_vanishes(self):
        pkg = PKGS[-7]
        found = False
        for k in range(1, 60):
            if len(pkg.diff(k)) > 1:
                found = True
                res = degree_formula(pkg, k, pkg.disc0.zero())
                assert res.weighted_count == 0
        assert found

    def test_matches_minus_h_over_w_a_plus(self):
        # the closed formula against the Eisenstein coefficient, all fields
        for d, pkg in PKGS.items():
            hw = Fraction(pkg.K.h, pkg.K.w)
            for mu in pkg.disc0.elements():
                q = pkg.disc0.q_map(mu)
                for k in range(8):
                    m = q + k
                    if m <= 0:
                        continue
                    lhs = degree_formula(pkg, m, mu).degree
                    rhs = a_plus(pkg, m, mu) * (-hw)
                    assert lhs == rhs, (d, m, mu)

    def test_requires_positive_m(self):
        with pytest.raises(ValueError):
            degree_formula(PKGS[-7], 0, PKGS[-7].disc0.zero())


class TestOracle:
    def test_d7_m1_log7(self):
        pkg = PKGS[-7]
        res = degree_bruteforce(pkg, 1, pkg.disc0.zero())
        assert res.degree.logs == ((7, Fraction(1)),)
        assert res.degree == degree_formula(pkg, 1, pkg.disc0.zero()).degree

    def test_d11_m1(self):
        pkg = PKGS[-11]
        res = degree_bruteforce(pkg, 1, pkg.disc0.zero())
        assert res.degree == degree_formula(pkg, 1, pkg.disc0.zero()).degree

    def test_h1_sweep(self):
        # every (m, mu) with Diff = {p}, ord_p(m) >= 0, m <= 10
        checked = 0
        for d, pkg in PKGS.items():
            for m, mu in admissible(pkg, 10):
                bf = degree_bruteforce(pkg, m, mu)
                fm = degree_formula(pkg, m, mu)
                assert bf.degree == fm.degree, (d, m, mu)
                assert bf.weighted_count == fm.weighted_count, (d, m, mu)
                checked += 1
        assert checked > 30

    def test_order_data_cache_hits(self):
        # one cache key per order: the model index is never defaulted
        _cm_order_data.cache_clear()
        first = _cm_order_data(7, -7, 0)
        hits = _cm_order_data.cache_info().hits
        assert _cm_order_data(7, -7, 0) is first
        assert _cm_order_data.cache_info().currsize == 1
        with pytest.raises(TypeError):
            _cm_order_data(7, -7)
        # L0(-7) in a basis no other test uses (U = [[1, 2], [0, 1]]): its
        # frame is new, but (p, d, model) and so the order data are not
        pkg = EisensteinPackage.from_lattice(QuadLattice([[-2, -5], [-5, -16]]))
        res = degree_bruteforce(pkg, 1, pkg.disc0.zero())
        assert _cm_order_data.cache_info().hits == hits + 2
        assert res.degree == degree_formula(pkg, 1, pkg.disc0.zero()).degree
        alg = first[0]
        twin = QuaternionAlgebra(alg.a, alg.b)
        assert alg == twin and hash(alg) == hash(twin)
        with pytest.raises(AttributeError):
            alg.a = 1

    def test_frame_keyed_on_gram(self):
        # L0(-7) in two bases, the second the first under U = [[1, 1], [0, 1]]:
        # both share (p, d, model), so a frame cached for one basis must not
        # answer for the other
        for gram in ([[-2, -1], [-1, -4]], [[-2, -3], [-3, -8]]):
            pkg = EisensteinPackage.from_lattice(QuadLattice(gram))
            checked = 0
            for m, mu in admissible(pkg, 4):
                bf = degree_bruteforce(pkg, m, mu)
                fm = degree_formula(pkg, m, mu)
                assert bf.weighted_count == fm.weighted_count, (gram, m, mu)
                assert bf.degree == fm.degree, (gram, m, mu)
                checked += 1
            assert checked == 28

    def test_d163_sweep(self):
        # every (m, mu) with Diff = {p}, ord_p(m) >= 0, m <= 1 in
        # Q(sqrt -163), one mu of each pair +-mu: 27 primes p, so 27
        # saturated orders
        pkg = EisensteinPackage.from_lattice(principal_lattice(-163))
        seen = set()
        primes = set()
        checked = 0
        for mu in pkg.disc0.elements():
            if (-mu).coords in seen:
                continue
            seen.add(mu.coords)
            q = pkg.disc0.q_map(mu)
            m = q if q > 0 else Fraction(1)
            if m > 1:
                continue
            diff = pkg.diff(m)
            if len(diff) != 1 or ord_p(m, min(diff)) < 0:
                continue
            bf = degree_bruteforce(pkg, m, mu)
            fm = degree_formula(pkg, m, mu)
            assert bf.degree == fm.degree, (m, mu)
            assert bf.weighted_count == fm.weighted_count, (m, mu)
            primes |= diff
            checked += 1
        assert checked == 69
        assert len(primes) == 27

    def test_class_number_one_required(self):
        pkg = EisensteinPackage.from_lattice(principal_lattice(-15))
        with pytest.raises(ValueError):
            degree_bruteforce(pkg, 1, pkg.disc0.zero())

    def test_independent_of_algebra_model(self):
        # the count must not depend on which model (d, -q) realized the
        # quaternion algebra, nor on which maximal order was saturated
        pkg7 = PKGS[-7]
        pkg3 = PKGS[-3]
        cases = [(pkg7, Fraction(1), pkg7.disc0.zero()),
                 (pkg7, Fraction(2), pkg7.disc0.from_coords((3,))),
                 (pkg3, Fraction(1), pkg3.disc0.zero())]
        for pkg, m, mu in cases:
            if (m - pkg.disc0.q_map(mu)) % 1 != 0:
                m = pkg.disc0.q_map(mu) + 1
            base = degree_bruteforce(pkg, m, mu)
            alt = degree_bruteforce(pkg, m, mu, skip_models=1)
            assert base.weighted_count == alt.weighted_count, (pkg.K.d, m)
            assert (base.degree - alt.degree).is_zero()
