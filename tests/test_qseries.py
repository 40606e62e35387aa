import cmath
import math
import random
from fractions import Fraction

import pytest

from speccy.eisenstein import EisensteinPackage, eisenstein_qexp
from speccy.lattice import QuadLattice, count_coset_vectors, discriminant_group
from speccy.qseries import (
    PrincipalPart,
    VVFormQ,
    hejhal_principal_part,
    theta_series,
    theta_tail_bound,
)
from speccy.weil import S, T, WeilRep

A1 = QuadLattice([[2]])
A2 = QuadLattice([[2, 1], [1, 2]])
E8 = QuadLattice([[2, -1, 0, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0, 0],
                  [0, -1, 2, -1, 0, 0, 0, -1], [0, 0, -1, 2, -1, 0, 0, 0],
                  [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
                  [0, 0, 0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 0, 0, 2]])
B21 = QuadLattice([[2, 1], [1, 4]])


class TestRepNumber:
    def test_zero(self):
        g = discriminant_group(A1)
        assert count_coset_vectors(A1, g.zero(), 0) == 1
        assert count_coset_vectors(A2, discriminant_group(A2).zero(), 0) == 1

    def test_half(self):
        g = discriminant_group(A1)
        mu = g.from_vector([Fraction(1, 2)])
        assert count_coset_vectors(A1, mu, Fraction(1, 4)) == 2

    def test_a2(self):
        g = discriminant_group(A2)
        assert count_coset_vectors(A2, g.zero(), 1) == 6

    def test_symmetry_and_support_sweep(self):
        lat = QuadLattice([[2, 0], [0, 4]])
        g = discriminant_group(lat)
        for mu in g.elements():
            q = g.q_map(mu)
            for k in range(11):
                m = q + k
                assert count_coset_vectors(lat, mu, m) == count_coset_vectors(lat, -mu, m)
            # off support the count vanishes
            m_off = q + Fraction(1, 3)
            assert count_coset_vectors(lat, mu, m_off) == 0


class TestTheta:
    def test_a1_table(self):
        th = theta_series(A1, 1)
        assert th.weight == Fraction(1, 2)
        assert th.rows() == [(Fraction(0), (1, 0)), (Fraction(1, 4), (0, 2)),
                             (Fraction(1), (2, 0))]

    def test_cutoff_zero(self):
        th = theta_series(A1, 0)
        assert [m for m, _ in th.rows()] == [Fraction(0)]

    def test_constant_term_delta(self):
        th = theta_series(A2, 3)
        vec = dict(th.rows())[Fraction(0)]
        assert vec[0] == 1 and all(v == 0 for v in vec[1:])

    def test_support_law_validates(self):
        assert theta_series(A2, 4).check_support()
        # an a+ table: its zero entries are LogLinear zeros, never == 0
        pkg = EisensteinPackage.from_lattice(QuadLattice([[-2, -1], [-1, -4]]))
        assert eisenstein_qexp(pkg, 2).check_support()

    def test_table_matches_per_coset_enumeration(self):
        # the bulk dual-lattice sweep against coset-by-coset counting
        rng = random.Random(6)
        for _ in range(4):
            n = rng.randint(1, 3)
            while True:
                B = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                G = [[2 * sum(B[k][i] * B[k][j] for k in range(n)) for j in range(n)]
                     for i in range(n)]
                for i in range(n):
                    G[i][i] += 2
                lat = QuadLattice(G)
                if lat.is_positive_definite():
                    break
            th = theta_series(lat, 6)
            grp = th.group
            for i, mu in enumerate(grp.elements()):
                q = grp.q_map(mu)
                m = q
                while m <= 6:
                    assert th.coefficient(m, mu) == count_coset_vectors(lat, mu, m), (G, m, i)
                    m += 1

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            theta_series(QuadLattice([[0, 1], [1, 0]]), 2)

    def test_e8_is_eisenstein_e4(self):
        # E8 is even unimodular: its theta series is E4, r(n) = 240 sigma_3(n)
        th = theta_series(E8, 3)
        assert th.weight == 4 and th.group.order == 1
        sigma3 = {n: sum(d ** 3 for d in range(1, n + 1) if n % d == 0) for n in (1, 2, 3)}
        assert th.rows() == [(Fraction(0), (1,)), *((Fraction(n), (240 * s,))
                                                    for n, s in sigma3.items())]


class TestEvaluate:
    def test_zero_form(self):
        f = VVFormQ(Fraction(1, 2), discriminant_group(A1), {}, Fraction(5))
        vals, tail = f.evaluate(1j)
        assert vals == [0j, 0j]

    def test_cutoff_consistency(self):
        th20 = theta_series(A1, 20)
        th40 = theta_series(A1, 40)
        v20, t20 = th20.evaluate(1j)
        v40, t40 = th40.evaluate(1j)
        assert abs(v20[0] - v40[0]) < 1e-12
        assert abs(v20[0] - v40[0]) <= t20
        # classical value: sum over x in Z of q^(x^2) at q = e^(-2 pi)
        classical = sum(2 * math.exp(-2 * math.pi * n * n) for n in range(1, 30)) + 1
        assert abs(v40[0] - classical) < 1e-12

    def test_tail_bound_honest(self):
        th5 = theta_series(A1, 5)
        th40 = theta_series(A1, 40)
        for tau in (0.3 + 0.6j, 1j, -1.2 + 0.8j):
            v5, t5 = th5.evaluate(tau)
            v40, _ = th40.evaluate(tau)
            for a, b in zip(v5, v40):
                assert abs(a - b) <= t5

    def test_tail_bound_infinite_before_closure(self):
        # at Im tau = 1e-5 the terms still grow when the step budget runs
        # out; the partial sums (2.51e34 for E8, 2.37e9 for B21) lie below
        # the closed series (3.39e34, 1.17e10), so only inf is a bound
        assert theta_tail_bound(E8, 3, 1e-5) == math.inf
        _, tail = theta_series(B21, 3).evaluate(1e-5j)
        assert tail == math.inf

    def test_tail_bound_pinned(self):
        assert theta_tail_bound(E8, 3, 1e-4) == 3.4141056306460535e29
        assert theta_tail_bound(B21, 3, 1e-4) == 121773009.52959132

    def test_refuses_a_plus_table(self):
        L0 = QuadLattice([[-2, -1], [-1, -4]])
        with pytest.raises(ValueError, match="needs a theta table"):
            eisenstein_qexp(EisensteinPackage.from_lattice(L0), 1).evaluate(1j)

    def test_requires_upper_half_plane(self):
        th = theta_series(A1, 3)
        with pytest.raises(ValueError):
            th.evaluate(1.0 + 0j)

    def test_T_transformation_tight(self):
        # theta(tau + 1) = contragredient(T) theta(tau) to 1e-10
        th = theta_series(A1, 25)
        w = WeilRep(discriminant_group(A1))
        mat = w.generator_matrix(T, "contragredient").to_complex()
        for tau in (0.2 + 0.9j, -0.7 + 1.4j):
            lhs, _ = th.evaluate(tau + 1)
            vec, _ = th.evaluate(tau)
            rhs = [sum(mat[i][j] * vec[j] for j in range(w.dim))
                   for i in range(w.dim)]
            assert max(abs(a - b) for a, b in zip(lhs, rhs)) < 1e-10


def mobius(word, tau):
    mat = [[1, 0], [0, 1]]
    gens = {S: [[0, -1], [1, 0]], T: [[1, 1], [0, 1]]}
    for g in word:
        m = gens[g]
        mat = [[mat[0][0] * m[0][0] + mat[0][1] * m[1][0],
                mat[0][0] * m[0][1] + mat[0][1] * m[1][1]],
               [mat[1][0] * m[0][0] + mat[1][1] * m[1][0],
                mat[1][0] * m[0][1] + mat[1][1] * m[1][1]]]
    a, b = mat[0]
    c, d = mat[1]
    return (a * tau + b) / (c * tau + d)


def word_tau_and_factor(word, tau):
    """Apply the word generator by generator, composing the principal-branch
    square roots; returns (gamma tau, phi(word, tau))."""
    if not word:
        return tau, 1.0 + 0j
    head, rest = word[0], word[1:]
    tau1, j1 = word_tau_and_factor(rest, tau)
    if head == T:
        return tau1 + 1, j1
    # head == S
    return -1 / tau1, cmath.sqrt(tau1) * j1


def random_rank4_posdef(rng):
    """Random positive definite rank-4 lattice of determinant 16, built
    from a random unimodular matrix (keeps coefficient vectors small)."""
    from speccy.linalg import identity_matrix
    B = identity_matrix(4)
    for _ in range(12):
        i, j = rng.sample(range(4), 2)
        c = rng.randint(-2, 2)
        for t in range(4):
            B[i][t] += c * B[j][t]
    G = [[2 * sum(B[k][i] * B[k][j] for k in range(4)) for j in range(4)]
         for i in range(4)]
    lat = QuadLattice(G)
    assert lat.is_positive_definite()
    return lat


_THETA_CACHE = {}


def cached_theta(lat, cutoff):
    key = (lat.gram, cutoff)
    if key not in _THETA_CACHE:
        _THETA_CACHE[key] = theta_series(lat, cutoff)
    return _THETA_CACHE[key]


def certified_cutoff(lat, v, target=1e-10):
    cutoff = 10
    while theta_tail_bound(lat, cutoff, v) >= target:
        cutoff += 10
        if cutoff > 400:
            raise RuntimeError("cutoff search failed")
    return cutoff


def theta_transformation_defect(lat, word, tau, target=1e-10):
    w = WeilRep(discriminant_group(lat))
    n0 = lat.rank
    gt, phi = word_tau_and_factor(word, tau)
    cutoff = certified_cutoff(lat, min(gt.imag, tau.imag), target)
    th = cached_theta(lat, cutoff)
    lhs, _ = th.evaluate(gt)
    rhs_vec, _ = th.evaluate(tau)
    mat = w.rep_matrix(word, "contragredient").to_complex()
    rhs = [sum(mat[i][j] * rhs_vec[j] for j in range(w.dim)) for i in range(w.dim)]
    factor = phi ** n0
    return max(abs(a - factor * b) for a, b in zip(lhs, rhs))


class TestThetaModularity:
    @pytest.mark.parametrize("gram", [
        [[2]],
        [[2, 1], [1, 2]],
        [[2, 0], [0, 4]],
    ])
    def test_generators_and_words(self, gram):
        lat = QuadLattice(gram)
        rng = random.Random(20)
        words = [(T,), (S,), (S, T), (T, S), (S, T, S)]
        for word in words:
            for _ in range(3):
                tau = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
                defect = theta_transformation_defect(lat, word, tau)
                assert defect < 1e-8, (gram, word, tau, defect)

    def test_rank4_random(self):
        lat = random_rank4_posdef(random.Random(31))
        tau = complex(0.3, 1.1)
        for word in [(T,), (S,)]:
            assert theta_transformation_defect(lat, word, tau) < 1e-8


class TestPrincipalPart:
    def test_hejhal_zero_coset(self):
        g = discriminant_group(QuadLattice([[-2, -1], [-1, -4]]))
        pp = hejhal_principal_part(1, g.zero())
        assert pp.entries == {(Fraction(1), 0): Fraction(1)}
        assert pp.is_integral

    def test_hejhal_order7(self):
        g = discriminant_group(QuadLattice([[-2, -1], [-1, -4]]))
        mu = g.from_coords((1,))
        m = g.q_map(mu) + 1
        pp = hejhal_principal_part(m, mu)
        assert pp.entries == {(m, g.index_of(mu)): Fraction(1, 2),
                              (m, g.index_of(-mu)): Fraction(1, 2)}
        assert not pp.is_integral

    def test_support_law_enforced(self):
        g = discriminant_group(QuadLattice([[-2, -1], [-1, -4]]))
        with pytest.raises(ValueError):
            hejhal_principal_part(Fraction(1, 3), g.zero())

    def test_index_out_of_range_with_coefficient_zero(self):
        # L0(-7) has 7 cosets: index 7 is refused although its coefficient
        # is 0 and would be dropped
        g = discriminant_group(QuadLattice([[-2, -1], [-1, -4]]))
        with pytest.raises(ValueError, match="coset index 7 out of range: the group has 7"):
            PrincipalPart(g, {(Fraction(1), 7): Fraction(0)})
        # a coordinate tuple is not an index
        with pytest.raises(ValueError, match=r"coset index \(0,\) out of range"):
            PrincipalPart(g, {(Fraction(1), (0,)): Fraction(1)})

    def test_symmetry_enforced(self):
        g = discriminant_group(QuadLattice([[-2, -1], [-1, -4]]))
        mu = g.from_coords((1,))
        m = g.q_map(mu)
        with pytest.raises(ValueError, match="breaks mu -> -mu symmetry"):
            PrincipalPart(g, {(m, g.index_of(mu)): Fraction(1)})
