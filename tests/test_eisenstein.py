import tracemalloc
from fractions import Fraction

import pytest

from speccy import eisenstein
from speccy.cm import degree_formula
from speccy.eisenstein import TABLE_BUDGET, EisensteinPackage, a_plus, eisenstein_qexp, s_mu
from speccy.imq import LogLinear, diff_set, reduced_forms
from speccy.lattice import InvariantError, QuadLattice
from speccy.qseries import theta_series

import fraction_reference as reference


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

    @staticmethod
    def lookup_tables():
        """An a+ table and a theta table, each with the zero of its entries:
        the lookup rule is VVFormQ's, shared by both."""
        return [(eisenstein_qexp(PKG7, 1), LogLinear()),
                (theta_series(QuadLattice([[2, 1], [1, 4]]), 1), 0)]

    def test_off_lattice_exponent_zero(self):
        for table, zero in self.lookup_tables():
            val = table.coefficient(Fraction(1, 3), table.group.zero())
            assert val == zero and type(val) is type(zero)

    @pytest.mark.parametrize("m", [-1, Fraction(-6, 7), Fraction(-1, 3)])
    def test_negative_exponent_zero(self, m):
        for table, zero in self.lookup_tables():
            for mu in table.group.elements():
                val = table.coefficient(m, mu)
                assert val == zero and type(val) is type(zero)

    def test_walk_past_the_budget_refused(self):
        # 7 cosets: cutoff 14285 asks for 7 * 14286 = 100002 > 10^5 evaluations
        assert PKG7.disc0.order * 14286 > TABLE_BUDGET >= PKG7.disc0.order * 14285
        with pytest.raises(ValueError, match="budget of 100000"):
            eisenstein_qexp(PKG7, 14285)

    def test_beyond_cutoff_raises(self):
        for table, _ in self.lookup_tables():
            with pytest.raises(KeyError):
                table.coefficient(Fraction(3), table.group.zero())

    def test_memory_follows_the_support(self):
        # 1003 cosets, about two nonzero entries per exponent: storing a
        # dense coset vector per exponent peaks near 14 MiB, the nonzero
        # entries alone near 1.6 MiB
        pkg = EisensteinPackage.from_lattice(QuadLattice([[-2, -1], [-1, -502]]))
        tracemalloc.start()
        try:
            table = eisenstein_qexp(pkg, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, peak
        assert table.entries and not any(val.is_zero() for val in table.entries.values())


TRANSCRIPTION_FIELDS = (-3, -7, -11, -15, -19, -23, -31, -35, -43, -163)


def _outcome(f, *args):
    """f(*args) as ("value", key of the result), or ("raises", type, message);
    the key holds the type of every Fraction-valued field."""
    try:
        res = f(*args)
    except (ValueError, InvariantError) as exc:
        return ("raises", type(exc), str(exc))
    if isinstance(res, LogLinear):
        return ("value", _loglinear_key(res))
    return ("value", res.m, type(res.m), res.mu_coords, res.prime, res.weighted_count,
            type(res.weighted_count), _loglinear_key(res.degree))


def _loglinear_key(val):
    return (val, type(val.rational), tuple(type(c) for _, c in val.logs + val.specials))


def _assert_matches_reference(pkg, m, mu):
    if m > 0:
        want = _outcome(reference.degree_formula, pkg, m, mu)
        assert _outcome(degree_formula, pkg, m, mu) == want, (m, mu)
    want = _outcome(reference.a_plus, pkg, m, mu)
    assert _outcome(a_plus, pkg, m, mu) == want, (m, mu)


class TestIntegerTranscription:
    """a_plus, degree_formula and hilbert_symbol against their Fraction
    transcription (tests/fraction_reference.py) on ten fields, h = 1, 2
    and 3: every coset and every m in (1/|d|) Z with -2/|d| <= m <= 6 (a
    degree only at m > 0).  Off the support law the reference returns at
    its first test, so there the library's vanishing values are checked
    against that branch without the call.  About 2.5 s on a 2-core x86 host
    with Python 3.11, most of it at d = -163 (163 cosets, 981 exponents)."""

    @pytest.mark.parametrize("d", TRANSCRIPTION_FIELDS)
    def test_matches_the_fraction_reference(self, d):
        pkg = EisensteinPackage.from_lattice(principal_lattice(d))
        exponents = [Fraction(n, abs(d)) for n in range(-2, 6 * abs(d) + 1)]
        zero = LogLinear()
        for mu in pkg.disc0.elements():
            q = pkg.disc0.q_map(mu)
            support = {q + k for k in range(7)}
            for m in exponents:
                if m <= 0 or m in support:
                    _assert_matches_reference(pkg, m, mu)
                    continue
                res = degree_formula(pkg, m, mu)
                assert res.prime is None and res.degree == zero == a_plus(pkg, m, mu)
                assert res.weighted_count == 0 and type(res.weighted_count) is Fraction
        for m in exponents[3:]:
            assert pkg.diff(m) == reference.diff(pkg, m), m

    @pytest.mark.parametrize("d", (-15, -23, -35))
    def test_set_diff_sets_at_class_number_above_one(self, d):
        # Diff(m) = {p} with p split, or with rho(m |d| / p^eps) = 0, does
        # not occur for a lattice L0; both are put into the package's Diff
        # cache, so the reference and the library read the same set
        K = EisensteinPackage.from_lattice(principal_lattice(d)).K
        assert K.h > 1
        split = next(p for p in (2, 3, 5, 7, 11, 13, 17, 19) if K.chi(p) == 1)
        inert = next(p for p in (2, 3, 5, 7, 11, 13, 17, 19) if K.chi(p) == -1)
        ramified = max(l for l in (3, 5, 7, 23) if d % l == 0)
        kinds = set()
        for diff in ({split}, {inert}, {ramified}, {split, inert}):
            for n in range(1, 3 * abs(d) + 1):
                pkg = EisensteinPackage.from_lattice(principal_lattice(d))
                m = Fraction(n, abs(d))
                pkg._diff[m] = frozenset(diff)
                for mu in pkg.disc0.elements():
                    if (m - pkg.disc0.q_map(mu)) % 1 == 0:
                        _assert_matches_reference(pkg, m, mu)
                        try:
                            res = degree_formula(pkg, m, mu)
                        except InvariantError:
                            kinds.add("split")
                            continue
                        kinds.add((res.prime is not None, res.weighted_count != 0))
        # raised, no prime, a prime with weight 0 (rho = 0) and a weighted prime
        assert kinds == {"split", (False, False), (True, False), (True, True)}


class TestWorkCounters:
    def test_fractions_per_pair_once_diff_is_known(self, monkeypatch):
        # a degree_formula + a_plus pair on one (m, mu) builds Q(mu) in
        # q_map once per call, the weighted count and the a+ coefficient
        # (rho reads its int argument as it is); 3.10 and 3.11 count
        # Fraction arithmetic here too
        # (3.12 builds its results without __new__), and the Fraction
        # transcription built up to 35 on 3.11
        cases = []
        for d in (-3, -7, -15, -23, -43):
            pkg = EisensteinPackage.from_lattice(principal_lattice(d))
            for mu in pkg.disc0.elements():
                q = pkg.disc0.q_map(mu)
                cases += [(pkg, q + k, mu) for k in range(4) if q + k > 0]
        for pkg, m, _mu in cases:
            pkg.diff(m)
        built = [0]
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built[0] += 1
            return new(cls, *args, **kwargs)

        most = 0
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        for pkg, m, mu in cases:
            built[0] = 0
            degree_formula(pkg, m, mu)
            a_plus(pkg, m, mu)
            most = max(most, built[0])
        monkeypatch.undo()
        assert 0 < most <= 4
