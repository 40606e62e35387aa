from fractions import Fraction

import pytest

from speccy import eisenstein
from speccy.eisenstein import TABLE_BUDGET, EisensteinPackage, a_plus, eisenstein_qexp, s_mu
from speccy.imq import LogLinear, diff_set, reduced_forms
from speccy.lattice import QuadLattice


def principal_lattice(d):
    a, b, c = reduced_forms(d)[0]
    assert a == 1
    return QuadLattice([[-2 * a, -b], [-b, -2 * c]])


PKG7 = EisensteinPackage.from_lattice(principal_lattice(-7))
PKG15 = EisensteinPackage.from_lattice(principal_lattice(-15))


class TestPackage:
    def test_d7(self):
        assert PKG7.K.d == -7 and PKG7.K.h == 1 and PKG7.K.w == 2

    def test_rejects_nonfundamental(self):
        with pytest.raises(ValueError):
            EisensteinPackage.from_lattice(QuadLattice([[-4, -2], [-2, -4]]))

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            EisensteinPackage.from_lattice(QuadLattice([[-2, 0], [0, -2]]))


    def test_diff_is_memoised(self):
        pkg = EisensteinPackage.from_lattice(principal_lattice(-7))
        for n in range(1, 71):      # m <= 10 on the support (1/7) Z
            m = Fraction(n, 7)
            first = pkg.diff(m)
            assert first == diff_set(pkg.L0, m)
            assert pkg.diff(m) is first
        assert pkg.diff(2) is pkg.diff(Fraction(2))
        assert "_diff" not in repr(pkg)


class TestSMu:
    def test_zero_counts_all_primes(self):
        assert s_mu(PKG7, PKG7.disc0.zero()) == 1
        assert s_mu(PKG15, PKG15.disc0.zero()) == 2

    def test_order7(self):
        mu = PKG7.disc0.from_coords((1,))
        assert mu.order() == 7
        assert s_mu(PKG7, mu) == 0

    def test_d15_order3(self):
        # disc group is Z/15; an element of order exactly 3 has trivial
        # 5-part, so only l = 5 counts
        g = PKG15.disc0
        assert g.elementary_divisors == (15,)
        mu = g.from_coords((5,))
        assert mu.order() == 3
        assert s_mu(PKG15, mu) == 1

    def test_primes_factored_once_per_package(self, monkeypatch):
        # s_mu reads the package's primes and factors nothing per call
        assert PKG15.disc_primes == (3, 5)
        monkeypatch.setattr(eisenstein, "factorization", None)
        for mu in PKG15.disc0.elements():
            assert s_mu(PKG15, mu) == sum(1 for l in (3, 5) if mu.order() % l)


class TestAPlus:
    def test_constant_term(self):
        val = a_plus(PKG7, 0, PKG7.disc0.zero())
        want = LogLinear.make(0, {2: 2}, {"gamma": 1, "log_pi": 1,
                                          "log_abs_d": -1, "Lprime_over_L": -2})
        assert val == want

    def test_constant_term_nonzero_coset(self):
        mu = PKG7.disc0.from_coords((3,))
        assert a_plus(PKG7, 0, mu).is_zero()

    def test_d7_m1(self):
        # Diff(1) = {7}, rho(7) = 1, ord_7(7) = 1, s(0) = 1: -2 log 7
        val = a_plus(PKG7, 1, PKG7.disc0.zero())
        assert val == LogLinear.make(0, {7: -2})

    def test_negative_m(self):
        assert a_plus(PKG7, -2, PKG7.disc0.zero()).is_zero()

    def test_support_law(self):
        mu = PKG7.disc0.from_coords((1,))
        # Q(mu) != 0 mod Z, so integral m vanish
        assert a_plus(PKG7, 1, mu).is_zero()

    def test_big_diff_vanishes(self):
        # find an m with |Diff| > 1 and check the coefficient vanishes
        found = False
        mu = PKG7.disc0.zero()
        for k in range(1, 40):
            if len(PKG7.diff(k)) > 1:
                found = True
                assert a_plus(PKG7, k, mu).is_zero()
        assert found

    def test_single_log_only(self):
        # for m > 0 the value is a pure log p multiple
        g = PKG7.disc0
        for mu in g.elements():
            q = g.q_map(mu)
            for k in range(3):
                m = q + k
                if m <= 0:
                    continue
                val = a_plus(PKG7, m, mu)
                assert val.rational == 0 and not val.specials
                assert len(val.logs) <= 1


class TestTable:
    def test_symmetry(self):
        table = eisenstein_qexp(PKG7, 2)
        g = PKG7.disc0
        for mu in g.elements():
            q = g.q_map(mu)
            for k in range(3):
                m = q + k
                if m > 2:
                    continue
                assert table.coefficient(m, mu) == table.coefficient(m, -mu)

    def test_constant_vector_delta(self):
        table = eisenstein_qexp(PKG7, 1)
        g = PKG7.disc0
        for mu in g.elements():
            val = table.coefficient(Fraction(0), mu)
            if mu.is_zero():
                assert not val.is_zero()
            else:
                assert val.is_zero()

    def test_off_lattice_exponent_zero(self):
        table = eisenstein_qexp(PKG7, 1)
        assert table.coefficient(Fraction(1, 3), PKG7.disc0.zero()).is_zero()

    def test_walk_past_the_budget_refused(self):
        # 7 cosets: cutoff 14285 asks for 7 * 14286 = 100002 > 10^5 evaluations
        assert PKG7.disc0.order * 14286 > TABLE_BUDGET >= PKG7.disc0.order * 14285
        with pytest.raises(ValueError, match="budget of 100000"):
            eisenstein_qexp(PKG7, 14285)

    def test_beyond_cutoff_raises(self):
        table = eisenstein_qexp(PKG7, 1)
        with pytest.raises(KeyError):
            table.coefficient(Fraction(3), PKG7.disc0.zero())
