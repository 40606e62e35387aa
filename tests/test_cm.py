import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speccy import cm, eisenstein
from speccy.cm import (
    QuaternionAlgebra,
    QuaternionOrder,
    _algebra_model,
    _cm_order_data,
    degree_bruteforce,
    degree_formula,
    saturate_to_maximal,
)
from speccy.eisenstein import EisensteinPackage, a_plus
from speccy.imq import ImQField, hilbert_symbol, kronecker_symbol, ord_p, reduced_forms
from speccy.lattice import InputRefusal, QuadLattice, enumerate_coset_vectors, factorization
from speccy.linalg import (
    HermiteSolver,
    _scale_to_int,
    hnf_contains,
    hnf_intersection,
    inverse_fraction,
    lattice_hnf,
    mat_vec,
    transpose,
)

import fraction_reference as reference


def nrd_bilinear(alg, u, v):
    """trd(u * conj(v)) through a quaternion product: the reference for
    QuaternionAlgebra.int_norm_gram."""
    return alg.trd(alg.mul(tuple(u), reference.conj(tuple(v))))


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
        assert reference.conj(alg.mul(x, y)) == alg.mul(reference.conj(y), reference.conj(x))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(xs=rational_rows)
    @example(xs=[[1, 2, -1, Fraction(1, 2)], [0, -1, 3, 1], [Fraction(1, 3), 0, 2, -1]])
    def test_norm_gram_and_products(self, xs):
        # the norm Gram, with no quaternion product, against a product-based
        # trd(x conj(y)) on rational rows, on an integral and a rational algebra
        xs = [tuple(x) for x in xs]
        for alg in (QuaternionAlgebra(-7, -5),
                    QuaternionAlgebra(Fraction(-3), Fraction(-5, 2))):
            assert alg.int_norm_gram(xs) == [[nrd_bilinear(alg, x, y) for y in xs] for x in xs]
            assert all(alg.int_norm_gram([x])[0][0] == 2 * alg.nrd(x) for x in xs)

    def test_discriminant(self):
        # the product of the finite ramified primes
        for a, b, disc in [(-1, -1, 2), (-1, -3, 3), (-3, -1, 3), (-1, 3, 6),
                           (-7, -5, 5)]:
            alg = QuaternionAlgebra(Fraction(a), Fraction(b))
            assert math.prod(alg.ramified_primes()[0]) == disc

    def test_ramification_even(self):
        for a, b in [(-1, -1), (-1, -3), (-2, -5), (-1, -7), (-3, -11)]:
            alg = QuaternionAlgebra(Fraction(a), Fraction(b))
            finite, infinite = alg.ramified_primes()
            assert (len(finite) + (1 if infinite else 0)) % 2 == 0


class TestRationalAlgebra:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=st.fractions(-12, -1, max_denominator=4), b=st.fractions(-12, -1, max_denominator=4),
           x=st.lists(st.fractions(-5, 5, max_denominator=3), min_size=4, max_size=4),
           y=st.lists(st.fractions(-5, 5, max_denominator=3), min_size=4, max_size=4))
    @example(a=Fraction(-3), b=Fraction(-5, 2), x=[1, 0, 0, 0], y=[0, 0, 1, 0])
    def test_served_exactly_or_refused_by_name(self, a, b, x, y):
        # parameters are kept exactly (an integral Fraction as its int),
        # products and norms are exact, and an order is built only over
        # integral parameters: otherwise it is refused, never truncated
        alg = QuaternionAlgebra(a, b)
        assert (alg.a, alg.b) == (a, b)
        assert all(type(v) is int for v in alg if v.denominator == 1)
        x, y = tuple(x), tuple(y)
        xy = alg.mul(x, y)
        assert alg.nrd(xy) == alg.nrd(x) * alg.nrd(y)
        assert alg.int_norm_gram([x])[0][0] == 2 * alg.nrd(x)
        lipschitz = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        if a.denominator == 1 and b.denominator == 1:
            order = QuaternionOrder(alg, lipschitz)
            # N = diag(2, -2a, -2b, 2ab) on Z<1, i, j, k>
            assert order.reduced_discriminant() == 4 * abs(a * b)
        else:
            with pytest.raises(ValueError, match="integral a and b"):
                QuaternionOrder(alg, lipschitz)


def linear_model_scan(p, d, limit=2000):
    """Every model (d, -q), q < limit, ramified exactly at p and infinity
    whose cofactor r (q / p for p not dividing d, else q) is odd,
    squarefree and prime to d: the reference for the model search."""
    def cofactor_ok(q):
        r = q // p if d % p else q
        return (r % 2 == 1 and math.gcd(r, d) == 1
                and all(e == 1 for e in sympy.factorint(r).values()))

    return [QuaternionAlgebra(d, -q) for q in range(1, limit)
            if hilbert_symbol(d, -q, p) == -1
            and QuaternionAlgebra(d, -q).ramified_primes() == ({p}, True)
            and cofactor_ok(q)]


class TestAlgebraModel:
    @pytest.mark.parametrize("d", [-3, -4, -7, -8, -67])
    def test_search_keeps_every_model_of_the_scan(self, d):
        # for p not dividing d only multiples of p are tried: every model
        # the scan over q < 2000 finds under the cofactor rule is still
        # found, in the same order
        checked = 0
        for p in (2, 3, 5, 7, 11, 13, 67, 101, 503):
            models = linear_model_scan(p, d)
            for skip, model in enumerate(models[:2]):
                assert _algebra_model(p, d, skip) == model, (p, d, skip)
                checked += 1
        assert checked >= 8

    def test_large_prime_past_the_scan(self):
        # no q < 2000 serves p = 99991 (q must be a multiple of p)
        assert linear_model_scan(99991, -7) == []
        alg = _algebra_model(99991, -7, 0)
        assert alg.b % 99991 == 0 and alg.ramified_primes() == ({99991}, True)

    def test_exhausted_search_names_p_and_d(self, monkeypatch):
        monkeypatch.setattr(cm, "_MODEL_SEARCH", 1)
        with pytest.raises(ValueError, match=r"p = 503, d = -67"):
            _algebra_model(503, -67, 0)


H1_FIELDS = (-3, -7, -11, -19, -43, -67, -163)
# class numbers 2, 3, 3, 2, 4, 5, 2, 4 and 4; -1003 = -17 * 59
HIGHER_H_FIELDS = (-15, -23, -31, -35, -39, -47, -51, -55, -1003)


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
        rows = reference.basis(order)
        gram = [[int(nrd_bilinear(alg, u, v)) for v in rows] for u in rows]
        assert len(enumerate_coset_vectors(QuadLattice(gram), [0] * 4, 1)) == 24

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 23, 43])
    def test_saturation_reaches_p(self, p):
        d = nonsplit_disc(p)
        alg, order, theta, _ = _cm_order_data(p, d, 0)
        assert order.reduced_discriminant() == p
        # the pivot determinant against sympy's on the Fraction rows
        assert abs(reference.det(alg.int_norm_gram(reference.basis(order)))) == p * p
        finite, infinite = alg.ramified_primes()
        assert finite == {p} and infinite
        # maximality certificate: det of reduced-trace gram = p^2
        assert abs(reference.det(reference.trace_gram(order))) == p * p
        # theta is the CM element (d + sqrt d)/2, inside the order
        assert order.contains(theta)
        lin = tuple(Fraction(d) * theta[i] - (Fraction(d * d - d, 4) if i == 0 else 0)
                    for i in range(4))
        assert alg.mul(theta, theta) == lin

    @pytest.mark.parametrize("p,d", [(5, -3), (3, -7), (2, -11)])
    def test_one_ramification_per_cold_frame(self, p, d, monkeypatch):
        # the model search certifies the ramification once; saturation
        # takes its p instead of computing it again
        calls = []
        ramified = QuaternionAlgebra.ramified_primes

        def counted(alg):
            calls.append(alg)
            return ramified(alg)

        monkeypatch.setattr(QuaternionAlgebra, "ramified_primes", counted)
        _, order, _, _ = _cm_order_data.__wrapped__(p, d, 0)
        assert len(calls) == 1
        assert order.reduced_discriminant() == p

    def test_p7_contains_standard_order(self):
        alg, order, theta, _ = _cm_order_data(7, -11, 0)
        start = starting_order(alg, theta)
        for v in reference.basis(start):
            assert order.contains(v)
        # index of Z<1, theta, j, j theta> from the discriminant ratio 77 / 7
        assert start.reduced_discriminant() // order.reduced_discriminant() == 11

    @pytest.mark.parametrize("d", H1_FIELDS + HIGHER_H_FIELDS)
    def test_explicit_steps_reach_a_maximal_order(self, d, monkeypatch):
        # every nonsplit p < 200 under the first three models (h = 1), or
        # p < 400 under the first four (h > 1): each adjoined element
        # lowers the discriminant by exactly its prime l, one l of the
        # defect |d| q / p after another in increasing order, and the
        # result is maximal by the certificate |det trace_gram| = p^2,
        # whose entries go through quaternion products over Fractions
        steps = []

        def recorded(*args):
            steps.append(QuaternionOrder(*args))
            return steps[-1]

        monkeypatch.setattr(cm, "QuaternionOrder", recorded)
        bound, models = (200, 3) if d in H1_FIELDS else (400, 4)
        for p in sympy.primerange(2, bound):
            if kronecker_symbol(d, p) == 1:
                continue
            for skip in range(models):
                alg = _algebra_model(p, d, skip)
                start = QuaternionOrder(alg, cm._starting_rows(alg), 2)
                del steps[:]
                order = saturate_to_maximal(alg, start, p)
                discs = [o.reduced_discriminant() for o in [start] + steps]
                defect = [l for l, _ in factorization(discs[0] // p)]
                assert [a // b for a, b in zip(discs, discs[1:])] == defect, (p, d, skip)
                assert all(a == l * b for a, b, l in zip(discs, discs[1:], defect))
                assert abs(reference.det(reference.trace_gram(order))) == p * p, (p, d, skip)
                assert order.contains((Fraction(d, 2), Fraction(1, 2), 0, 0))

    def test_spanning_rows_keep_one_canonical_form(self, monkeypatch):
        # an order keeps only the canonical form of what spans it: five
        # rows give the hnf of its basis, and a saturation step takes one
        # canonical form of its five rows besides the closure check's
        alg = _algebra_model(3, -7, 0)
        start = QuaternionOrder(alg, cm._starting_rows(alg), 2)
        five = [[sum(col) for col in zip(*start.rows)], *reversed(start.rows)]
        assert QuaternionOrder(alg, five, start.den).hnf == start.hnf
        assert QuaternionOrder(alg, start.rows, start.den).hnf == start.hnf
        sizes, real = [], cm.lattice_hnf
        monkeypatch.setattr(cm, "lattice_hnf",
                            lambda rows, den: sizes.append(len(rows)) or real(rows, den))
        defect = factorization(start.reduced_discriminant() // 3)
        saturate_to_maximal(alg, start, 3)
        # the closure check adjoins the 16 products to the 4 basis rows
        assert len(defect) >= 1 and sizes == [5, 20] * len(defect)

    def test_integral_forms(self):
        # the discriminant read off the integer norm form squares to |det|
        # of the norm form built through quaternion products, and of the
        # trace form
        alg, order, theta, _ = _cm_order_data(7, -11, 0)
        for o in (starting_order(alg, theta), order):
            rows = reference.basis(o)
            gram = [[nrd_bilinear(alg, u, v) for v in rows] for u in rows]
            assert (o.reduced_discriminant() ** 2 == abs(reference.det(gram))
                    == abs(reference.det(reference.trace_gram(o))))

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
        assert reference.basis(order) == [[Fraction(x) for x in row] for row in rows]
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
        # the Hurwitz order is maximal: its discriminant is that of the algebra
        assert lipschitz.reduced_discriminant() == 4
        assert hurwitz.reduced_discriminant() == 2 == math.prod(alg.ramified_primes()[0])

    @pytest.mark.parametrize("p,d", [(7, -11), (2, -163)])
    def test_contains_matches_lattice_member(self, p, d):
        # HNF membership against an integer solve, on x = sum c_r b_r / l with
        # c in [0, l]^4, so x is in O exactly when l divides every c_r
        _, order, _, _ = _cm_order_data(p, d, 0)
        cols = reference.basis(order)
        for l in (2, 3):
            for c in itertools.product(range(l + 1), repeat=4):
                x = [sum(c[r] * cols[r][i] for r in range(4)) / l for i in range(4)]
                assert order.contains(x) == (reference.member(cols, x) is not None)
                assert order.contains(x) == all(cr % l == 0 for cr in c)


class TestInvariants:
    def test_non_order_step_is_named(self, monkeypatch):
        # at p = 3, d = -7 the defect 7 q / 3 has l = 7 | d; j / 7 in place
        # of its element has nrd q / 49, not integral, so O + Z j / 7 is no
        # order
        real = cm._defect_element
        monkeypatch.setattr(cm, "_defect_element", lambda alg, l: (
            ((0, 0, 1, 0), l) if alg.a % l == 0 else real(alg, l)))
        alg = _algebra_model(3, -7, 0)
        start = QuaternionOrder(alg, cm._starting_rows(alg), 2)
        with pytest.raises(cm.InvariantError, match="the step at l = 7 gave no order"):
            saturate_to_maximal(alg, start, 3)

    def test_non_order_step_fires_under_optimize(self, tmp_path):
        # python -O strips assert statements; the step's order check must
        # still raise, by name
        script = (
            "assert False, 'python -O is not in effect'\n"
            "import speccy.cm as cm\n"
            "real = cm._defect_element\n"
            "cm._defect_element = lambda alg, l: ((0, 0, 1, 0), l) if alg.a % l == 0 else real(alg, l)\n"
            "alg = cm._algebra_model(3, -7, 0)\n"
            "cm.saturate_to_maximal(alg, cm.QuaternionOrder(alg, cm._starting_rows(alg), 2), 3)\n")
        src = os.path.dirname(os.path.dirname(cm.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert "InvariantError: the step at l = 7 gave no order" in proc.stderr, proc.stderr


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

    def test_independent_of_the_local_record(self, monkeypatch):
        # a_plus and degree_formula read one record; a fault in it (rho + 1
        # wherever it is not None) must move the formula and not the
        # quaternion count.  cm binds _local_record at import, so both
        # names are patched.
        real = eisenstein._local_record

        def faulted(pkg, m, mu):
            record = real(pkg, m, mu)
            if record is None:
                return None
            p, r, length, s = record
            return p, r + 1, length, s

        def weighted_counts(pkg):
            mu = pkg.disc0.zero()
            return (degree_bruteforce(pkg, 1, mu).weighted_count,
                    degree_formula(pkg, 1, mu).weighted_count)

        for d in (-7, -11):
            with monkeypatch.context() as patch:
                patch.setattr(eisenstein, "_local_record", faulted)
                patch.setattr(cm, "_local_record", faulted)
                assert weighted_counts(PKGS[d]) == (1, 2), d
            assert weighted_counts(PKGS[d]) == (1, 1), d

    def test_pinned_output(self):
        # (count, weighted count) of every admissible (m, mu), m <= 10, on
        # five h = 1 fields, recorded when each call still solved its shift
        # in Fractions and counted a Fraction shell; count = wc * w / ord_p(pm)
        with open(os.path.join(os.path.dirname(__file__), "oracle_pin.json")) as fh:
            pin = json.load(fh)
        assert sorted(map(int, pin)) == [-43, -19, -11, -7, -3]
        for d, rows in pin.items():
            pkg = EisensteinPackage.from_lattice(principal_lattice(int(d)))
            got = []
            for m, mu in admissible(pkg, 10):
                bf = degree_bruteforce(pkg, m, mu)
                count = bf.weighted_count * pkg.K.w / ord_p(bf.prime * m, bf.prime)
                got.append([str(m), list(mu.coords), int(count), str(bf.weighted_count)])
            assert got == rows, d

    def test_one_solve_per_coset(self, monkeypatch):
        # two m with the same Diff prime and coset share one frame entry:
        # the second call does not solve the shift system again
        pkg = PKGS[-7]
        ms = {}
        for m, mu in admissible(pkg, 10):
            if degree_formula(pkg, m, mu).weighted_count:
                ms.setdefault((min(pkg.diff(m)), mu.coords), []).append(m)
        (p, coords), (m1, m2, *_) = next((k, v) for k, v in ms.items() if len(v) > 1)
        mu = pkg.disc0.from_coords(coords)
        solves = []
        solve = HermiteSolver.solve
        monkeypatch.setattr(HermiteSolver, "solve",
                            lambda self, b: solves.append(b) or solve(self, b))
        cm._coset_frame.cache_clear()
        for m in (m1, m2, m1):
            bf = degree_bruteforce(pkg, m, mu)
            assert bf.weighted_count == degree_formula(pkg, m, mu).weighted_count > 0
        assert len(solves) == 1
        frame = cm._coset_frame(p, -7, 0, pkg.L0.gram)
        assert list(frame.shifts) == [coords]

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
        # every (m, mu) with Diff = {p}, ord_p(m) >= 0, m <= 10 in
        # Q(sqrt -163), one mu of each pair +-mu: 135 primes p, so 135
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
            while m <= 10:
                diff = pkg.diff(m)
                if len(diff) == 1 and ord_p(m, min(diff)) >= 0:
                    bf = degree_bruteforce(pkg, m, mu)
                    fm = degree_formula(pkg, m, mu)
                    assert bf.degree == fm.degree, (m, mu)
                    assert bf.weighted_count == fm.weighted_count, (m, mu)
                    primes |= diff
                    checked += 1
                m += 1
        assert checked == 579
        assert len(primes) == 135

    @pytest.mark.parametrize("d,checks,primes", [(-3, 87, 7), (-67, 1668, 59)],
                             ids=["-3", "-67"])
    def test_sweep_three_models(self, d, checks, primes):
        """Every (m, mu) with Diff = {p}, ord_p(m) >= 0, m <= 10 under the
        first three algebra models: in Q(sqrt -3), where w = 6, and in
        Q(sqrt -67), whose primes reach 661, where the model (d, -q) needs
        q a multiple of p.  Budget: under 3 s for both; they took 0.5 s
        on a 2-core x86 host with Python 3.11.7."""
        pkg = EisensteinPackage.from_lattice(principal_lattice(d))
        checked, seen = 0, set()
        for m, mu in admissible(pkg, 10):
            fm = degree_formula(pkg, m, mu)
            seen.add(fm.prime)
            for skip in (0, 1, 2):
                bf = degree_bruteforce(pkg, m, mu, skip_models=skip)
                assert bf.weighted_count == fm.weighted_count, (m, mu, skip)
                assert bf.degree == fm.degree, (m, mu, skip)
                checked += 1
        assert (checked, len(seen)) == (checks, primes)

    def test_search_past_the_bound_is_refused(self, monkeypatch):
        # on L0(-7) at mu = 0 and p = 7 the outer coordinate takes about
        # 2 sqrt(8 m / 7) values: 677 at m near 10^5, 2139 at m near 10^6
        pkg = PKGS[-7]
        mu = pkg.disc0.zero()
        monkeypatch.setattr(cm, "ORACLE_SEARCH_BOUND", 1000)
        small, large = (next(m for m in range(top, 0, -1) if pkg.diff(m) == {7})
                        for top in (10 ** 5, 10 ** 6))
        assert (degree_bruteforce(pkg, small, mu).weighted_count
                == degree_formula(pkg, small, mu).weighted_count)
        with pytest.raises(InputRefusal, match="over the bound of 1000"):
            degree_bruteforce(pkg, large, mu)

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



def reference_modules(p, d, skip_models, gram):
    """M_amb = iota(d^-1 a) O^- and M_full = iota(a) O as canonical forms,
    and the shift mu -> iota(mu~), all through Fractions: A^-1 and
    sqrt(d)^-1 by inverse_fraction, the Clifford generator from
    Q(e1) = gram[0][0] / 2."""
    alg, order, theta, ominus = _cm_order_data(p, d, skip_models)
    t, q1 = gram[0][1], Fraction(gram[0][0], 2)
    Ainv = inverse_fraction([[1, Fraction(d + t, 2)], [0, -q1]])
    a_basis = transpose(Ainv)
    Rinv = inverse_fraction([[-d, Fraction(d - d * d, 2)], [2, d]])

    def iota(u, v):
        return [u + v * theta[0], v * theta[1], v * theta[2], v * theta[3]]

    def module(ideal, rows):
        return lattice_hnf(*_scale_to_int([alg.mul(iota(*col), y) for col in ideal for y in rows]))

    full = module(a_basis, reference.basis(order))
    amb = module([mat_vec(Rinv, col) for col in a_basis],
                 [[Fraction(x, order.den) for x in row] for row in ominus])
    return alg, amb, full, lambda mu: iota(*mat_vec(Ainv, mu.rep()))


def frame_rows(frame, amb):
    """The frame's basis K M_amb of the coset lattice, over amb's den."""
    H, _ = amb
    return [[a * x + b * y for x, y in zip(*H)] for a, b in frame.K]


class TestCosetFrame:
    @pytest.mark.parametrize("d", H1_FIELDS)
    def test_frame_matches_the_intersection_route(self, d):
        # every non-split p < 50 under two models: the frame's rows K M_amb
        # span M_amb cap M_full as linalg.hnf_intersection builds it, the
        # frame Gram is -Q(e1) nrd on them, and each coset's (c, e) puts
        # x0 = c K M_amb / e in M_amb with x0 - shift in M_full, or is None
        # exactly when the shift is not in M_amb + M_full
        pkg = EisensteinPackage.from_lattice(principal_lattice(d))
        gram = pkg.L0.gram
        for p in sympy.primerange(2, 50):
            if pkg.K.chi(p) == 1:
                continue
            for skip in (0, 1):
                alg, amb, full, shift_of = reference_modules(p, d, skip, gram)
                frame = cm._coset_frame(p, d, skip, gram)
                rows = frame_rows(frame, amb)
                assert lattice_hnf(rows, amb[1]) == hnf_intersection(amb, full)
                lrows = [[Fraction(x, amb[1]) for x in row] for row in rows]
                assert [list(row) for row in frame.gram] == [
                    [-gram[0][0] * x / 2 for x in row] for row in alg.int_norm_gram(lrows)]
                gens = [[Fraction(x, den) for x in row] for H, den in (amb, full) for row in H]
                for mu in pkg.disc0.elements():
                    shift = shift_of(mu)
                    entry = cm._coset_shift(frame, mu)
                    assert (entry is None) == (reference.member(gens, shift) is None), (p, mu)
                    if entry is not None:
                        c, e = entry
                        assert e > 0 and math.gcd(e, *c) == 1
                        x0 = [sum(ci * r[i] for ci, r in zip(c, lrows)) / e for i in range(4)]
                        assert hnf_contains(amb, x0)
                        assert hnf_contains(full, [x - y for x, y in zip(x0, shift)])

    def test_default_frame_grams_pinned(self):
        # the Gram of every default-model frame on the seven fields, p < 50
        # non-split, as sha256 of its JSON: recorded while the coset lattice
        # was still the HNF of M_amb cap M_full, so the search work of each
        # (m, mu) on these frames is unchanged
        grams = []
        for d in H1_FIELDS:
            pkg = EisensteinPackage.from_lattice(principal_lattice(d))
            for p in sympy.primerange(2, 50):
                if pkg.K.chi(p) != 1:
                    frame = cm._coset_frame(p, d, 0, pkg.L0.gram)
                    grams.append([d, p, [list(row) for row in frame.gram]])
        assert len(grams) == 64
        digest = hashlib.sha256(json.dumps(grams).encode()).hexdigest()
        assert digest == "468a1bd046ed968e1f0b337995b7a156ab851121254371e82fd4bd995be0fd9c"
