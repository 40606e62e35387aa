import os
import random
import subprocess
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import speccy
from speccy import imq
from speccy.imq import (
    ImQField,
    _hilbert_candidates,
    L_chi,
    L_chi_exact_at_0,
    L_derivative_data,
    LogLinear,
    diff_set,
    functional_equation_defects,
    hilbert_symbol,
    kronecker_symbol,
    ord_p,
    reduced_forms,
    rho,
    rho_bruteforce,
)
from speccy.lattice import FACTOR_TRIAL_BOUND, InvariantError, QuadLattice, factorization
from speccy.linalg import congruence_diagonal


def principal_lattice(d):
    """Negative definite binary lattice from the principal form of disc d."""
    forms = reduced_forms(d)
    a, b, c = forms[0]
    assert a == 1
    return QuadLattice([[-2 * a, -b], [-b, -2 * c]])


FIELDS = {d: ImQField.from_discriminant(d) for d in (-3, -7, -11, -15, -23)}


class TestField:
    def test_class_numbers(self):
        assert FIELDS[-3].h == 1
        assert FIELDS[-7].h == 1
        assert FIELDS[-11].h == 1
        assert FIELDS[-15].h == 2
        assert FIELDS[-23].h == 3

    def test_units(self):
        assert FIELDS[-3].w == 6
        assert FIELDS[-7].w == 2

    def test_rejects_even_or_nonfundamental(self):
        with pytest.raises(ValueError):
            ImQField.from_discriminant(-4)
        with pytest.raises(ValueError):
            ImQField.from_discriminant(-9)
        with pytest.raises(ValueError):
            ImQField.from_discriminant(-12)

    def test_chi_multiplicative(self):
        K = FIELDS[-23]
        rng = random.Random(1)
        for _ in range(50):
            a = rng.randint(1, 400)
            b = rng.randint(1, 400)
            assert K.chi(a * b) == K.chi(a) * K.chi(b)

    def test_chi_zero_iff_divides(self):
        K = FIELDS[-15]
        for p in (2, 3, 5, 7, 11, 13):
            assert (K.chi(p) == 0) == (15 % p == 0)


class TestPrimeHelpers:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(-10 ** 7, 10 ** 7))
    def test_prime_factors_match_factorint(self, n):
        if n == 0:
            with pytest.raises(ValueError):
                factorization(n)
        else:
            assert factorization(n) == sorted(sympy.factorint(abs(n)).items())

    def test_smooth_numbers_factor_past_the_bound(self):
        assert factorization(2 ** 200) == [(2, 200)]
        assert factorization(-(3 ** 50) * 5 ** 40 * 999983) == [(3, 50), (5, 40), (999983, 1)]
        big = sympy.nextprime(10 ** 12)
        assert factorization(7 * big) == [(7, 1), (big, 1)]

    def test_refuses_a_cofactor_past_the_bound(self):
        # two primes above the bound: trial division cannot split them
        p = sympy.nextprime(FACTOR_TRIAL_BOUND)
        q = sympy.nextprime(p)
        for n in (p * q, -2 * p * q, 10 ** 27 + 57):
            with pytest.raises(ValueError, match=str(n)):
                factorization(n)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.fractions(-1000, 1000, max_denominator=500).filter(lambda x: x != 0),
           st.fractions(-1000, 1000, max_denominator=500).filter(lambda x: x != 0))
    def test_hilbert_symbols_trivial_off_candidates(self, a, b):
        cands = _hilbert_candidates((a, b))
        assert cands == sorted({2} | set(sympy.factorint(abs(a.numerator)))
                               | set(sympy.factorint(a.denominator))
                               | set(sympy.factorint(abs(b.numerator)))
                               | set(sympy.factorint(b.denominator)))
        for p in sympy.primerange(3, 60):
            if p not in cands:
                assert hilbert_symbol(a, b, p) == 1

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(-20000, -1).filter(lambda d: d % 2))
    def test_fields_exactly_at_fundamental_discriminants(self, d):
        fundamental = d % 4 == 1 and all(e == 1 for e in sympy.factorint(-d).values())
        if fundamental:
            assert ImQField.from_discriminant(d).d == d
        else:
            with pytest.raises(ValueError):
                ImQField.from_discriminant(d)


class TestRho:
    @pytest.mark.parametrize("d", [-3, -15, -23, -163, -1003])
    def test_divisor_sum(self, d):
        # the definition rho(m) = sum_{e | m} chi(e) against the product formula
        K = ImQField.from_discriminant(d)
        for m in range(1, 3001):
            assert rho(K, m) == sum(K.chi(e) for e in sympy.divisors(m)), (d, m)

    def test_basic(self):
        K = FIELDS[-7]
        assert rho(K, 1) == 1
        assert rho(K, 2) == 2  # 2 splits in Q(sqrt(-7))
        assert rho(K, Fraction(1, 2)) == 0
        assert rho(K, -3) == 0

    def test_prime_powers(self):
        for d, K in FIELDS.items():
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                      53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
                for e in range(1, 6):
                    c = K.chi(p)
                    if c == 1:
                        want = e + 1
                    elif c == -1:
                        want = (1 + (-1) ** e) // 2
                    else:
                        want = 1
                    assert rho(K, p ** e) == want, (d, p, e)

    def test_multiplicative_on_coprime(self):
        K = FIELDS[-23]
        rng = random.Random(9)
        from math import gcd
        for _ in range(40):
            a = rng.randint(1, 200)
            b = rng.randint(1, 200)
            if gcd(a, b) == 1:
                assert rho(K, a * b) == rho(K, a) * rho(K, b)

    def test_bruteforce_small_sweep(self):
        for d, K in FIELDS.items():
            for m in range(1, 300):
                assert rho(K, m) == rho_bruteforce(K, m), (d, m)

    def test_bruteforce_d7_m2_worked(self):
        assert rho_bruteforce(FIELDS[-7], 2) == 2

    def test_oracle_bound(self):
        with pytest.raises(ValueError):
            rho_bruteforce(FIELDS[-7], 10 ** 4 + 1)


class TestHilbert:
    @pytest.mark.parametrize("p", [1, 0])
    def test_refuses_p_below_2(self, p):
        # "inf" is the only spelling of the real place
        with pytest.raises(ValueError, match="p >= 2"):
            hilbert_symbol(2, 3, p)

    def test_one_always_trivial(self):
        rng = random.Random(2)
        for _ in range(30):
            b = rng.choice([x for x in range(-30, 30) if x])
            p = rng.choice([2, 3, 5, 7, 11, "inf"])
            assert hilbert_symbol(1, b, p) == 1

    def test_minus_one_minus_one(self):
        assert hilbert_symbol(-1, -1, 2) == -1
        assert hilbert_symbol(-1, -1, "inf") == -1
        assert hilbert_symbol(-1, -1, 3) == 1

    def test_minus_one_minus_one_2_by_search(self):
        # x^2 + y^2 + z^2 = 0 has no primitive solution mod 16
        found = False
        for x in range(16):
            for y in range(16):
                for z in range(16):
                    if x % 2 == 0 and y % 2 == 0 and z % 2 == 0:
                        continue
                    if (x * x + y * y + z * z) % 16 == 0:
                        found = True
        assert not found

    def test_product_formula(self):
        rng = random.Random(4)
        for _ in range(60):
            a = rng.choice([x for x in range(-50, 50) if x])
            b = rng.choice([x for x in range(-50, 50) if x])
            places = {2, "inf"}
            for n in (abs(a), abs(b)):
                k = 2
                while k * k <= n:
                    if n % k == 0:
                        places.add(k)
                        while n % k == 0:
                            n //= k
                    k += 1
                if n > 1:
                    places.add(n)
            prod = 1
            for p in places:
                prod *= hilbert_symbol(a, b, p)
            assert prod == 1, (a, b)

    def test_symmetry_and_bilinearity(self):
        rng = random.Random(8)
        for _ in range(40):
            a = rng.choice([x for x in range(-30, 30) if x])
            b = rng.choice([x for x in range(-30, 30) if x])
            c = rng.choice([x for x in range(-30, 30) if x])
            p = rng.choice([2, 3, 5, 7, 13])
            assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
            assert (hilbert_symbol(a * c, b, p)
                    == hilbert_symbol(a, b, p) * hilbert_symbol(c, b, p))


class TestDiff:
    def test_d7_m1(self):
        L0 = principal_lattice(-7)
        assert diff_set(L0, 1) == {7}

    def test_odd_and_nonsplit(self):
        rng = random.Random(12)
        discs = [-3, -7, -11, -15, -23, -31, -39, -47]
        for _ in range(60):
            d = rng.choice(discs)
            K = ImQField.from_discriminant(d)
            L0 = principal_lattice(d)
            m = Fraction(rng.randint(1, 60), rng.choice([1, 1, 1, -d]))
            D = diff_set(L0, m)
            assert len(D) % 2 == 1, (d, m, D)
            for p in D:
                assert K.chi(p) != 1, (d, m, p)

    def test_m_positive_required(self):
        with pytest.raises(ValueError):
            diff_set(principal_lattice(-7), 0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 40), st.integers(-40, 40), st.integers(1, 40),
           st.fractions(0, 500, max_denominator=60).filter(lambda x: x > 0))
    def test_matches_the_ternary_hasse_criterion(self, a, b, c, m):
        # any negative definite binary Gram, fundamental or not
        assume(b * b < 4 * a * c)
        L0 = QuadLattice([[-2 * a, -b], [-b, -2 * c]])
        assert diff_set(L0, m) == ternary_diff_set(L0, m)


def ternary_diff_set(L0, m):
    """Diff(m) by the ternary criterion: <a1, a2, -m> is isotropic over Q_p
    iff its Hasse invariant equals (-1, -det)_p."""
    a1, a2 = (x / 2 for x in congruence_diagonal(L0.gram))
    coeffs = [a1, a2, -m]
    det = coeffs[0] * coeffs[1] * coeffs[2]
    out = set()
    for p in _hilbert_candidates(coeffs):
        hasse = (hilbert_symbol(coeffs[0], coeffs[1], p)
                 * hilbert_symbol(coeffs[0], coeffs[2], p)
                 * hilbert_symbol(coeffs[1], coeffs[2], p))
        if hasse != hilbert_symbol(-1, -det, p):
            out.add(p)
    return frozenset(out)


class TestLFunctions:
    def test_L0_equals_2h_over_w(self):
        # two independent computations: character sum vs form count
        for d in range(-3, -1000, -4):
            try:
                K = ImQField.from_discriminant(d)
            except ValueError:
                continue
            assert L_chi_exact_at_0(K) == Fraction(2 * K.h, K.w), d

    def test_d3_value(self):
        assert L_chi_exact_at_0(FIELDS[-3]) == Fraction(1, 3)

    def test_hurwitz_route_matches_exact_at_0(self):
        for d in (-7, -23):
            K = FIELDS[d]
            v = L_chi(K, 0, dps=25)
            exact = L_chi_exact_at_0(K)
            assert abs(v - mpmath.mpf(exact.numerator) / exact.denominator) < mpmath.mpf(10) ** -20

    def test_functional_equation(self):
        for d in (-7, -23):
            defects = functional_equation_defects(FIELDS[d], (0.25, 0.7, 1.3), dps=30)
            assert len(defects) == 3 and all(x < 1e-10 for x in defects), d

    def test_lprime_ratio_chowla_selberg_d3(self):
        # Chowla-Selberg for d = -3: the CM period is known in closed form;
        # cross-check L'/L against direct numerical differentiation
        K = FIELDS[-3]
        data = L_derivative_data(K, dps=30)
        eps = mpmath.mpf(10) ** -12
        with mpmath.workdps(40):
            num = (L_chi(K, eps, dps=35) - L_chi(K, -eps, dps=35)) / (2 * eps)
        exact = L_chi_exact_at_0(K)
        ratio = num / (mpmath.mpf(exact.numerator) / exact.denominator)
        assert abs(ratio - data["Lprime_over_L"]) < 1e-9


POINTS = (0.25, 0.7, 1.3)


def cpus(monkeypatch, n):
    """Pretend the affinity mask holds n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestDefectWorkers:
    """functional_equation_defects shares its Lambda values between forked
    workers; the result must not depend on how many there are."""

    @pytest.mark.parametrize("dps", [15, 30])
    @pytest.mark.parametrize("d", [-7, -23, -103])
    def test_forked_matches_serial_bit_for_bit(self, monkeypatch, d, dps):
        K = ImQField.from_discriminant(d)
        runs = []
        for n in (1, 2):
            cpus(monkeypatch, n)
            runs.append([x._mpf_ for x in functional_equation_defects(K, POINTS, dps=dps)])
        assert runs[0] == runs[1]

    def test_more_workers_and_no_fork(self, monkeypatch):
        K = FIELDS[-7]
        cpus(monkeypatch, 1)
        want = [x._mpf_ for x in functional_equation_defects(K, POINTS, dps=15)]
        cpus(monkeypatch, 8)        # capped at the six Lambda values
        assert [x._mpf_ for x in functional_equation_defects(K, POINTS, dps=15)] == want
        monkeypatch.delattr(os, "fork")
        assert [x._mpf_ for x in functional_equation_defects(K, POINTS, dps=15)] == want
        assert functional_equation_defects(K, (), dps=15) == []

    def test_a_second_thread_keeps_every_call_in_process(self, monkeypatch):
        K = FIELDS[-7]
        cpus(monkeypatch, 1)
        want = [x._mpf_ for x in functional_equation_defects(K, POINTS, dps=15)]
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(60,), daemon=True)
        thread.start()
        try:
            cpus(monkeypatch, 2)
            monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a thread"))
            got = [x._mpf_ for x in functional_equation_defects(K, POINTS, dps=15)]
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert got == want

    def test_failing_worker_is_an_invariant_error(self, monkeypatch, capfd):
        parent = os.getpid()
        real = imq.completed_lambda

        def fails_in_child(K, s, dps=30):
            if os.getpid() != parent:
                raise RuntimeError("worker failure")
            return real(K, s, dps=dps)

        monkeypatch.setattr(imq, "completed_lambda", fails_in_child)
        cpus(monkeypatch, 2)
        with pytest.raises(InvariantError, match="worker 1 of 2 exited with code 1"):
            functional_equation_defects(FIELDS[-7], POINTS, dps=15)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)      # every worker was reaped
        assert capfd.readouterr().out == ""

    def test_worker_leaves_parent_stdout_alone(self):
        # text still buffered in the parent at the fork is written once
        src = os.path.dirname(os.path.dirname(speccy.__file__))
        code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
                "from speccy.imq import ImQField, functional_equation_defects; "
                "sys.stdout.write('once'); "
                "functional_equation_defects(ImQField.from_discriminant(-7), (0.25,), dps=15)")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "once"


class TestLogLinear:
    def test_canonical_zero_dropped(self):
        x = LogLinear.make(0, {2: 1}, {}) - LogLinear.make(0, {2: 1}, {})
        assert x.is_zero()
        assert x.logs == ()

    def test_arithmetic(self):
        x = LogLinear.make(Fraction(1, 2), {7: 2}, {"gamma": 1})
        y = x * Fraction(2, 1) - x
        assert y == x

    def test_evaluate(self):
        x = LogLinear.make(1, {2: 1}, {"log_pi": 1})
        v = x.evaluate(dps=25)
        with mpmath.workdps(35):
            want = 1 + mpmath.log(2) + mpmath.log(mpmath.pi)
            assert abs(v - want) < mpmath.mpf(10) ** -20

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError):
            LogLinear.make(0, {}, {"nope": 1})


def test_frozen_records_compare_hash_and_refuse_assignment():
    # LogLinear and ImQField are immutable value records: equal fields mean
    # equal objects and equal hashes, so they can key dicts and caches
    x = LogLinear.make(Fraction(1, 2), {7: 2, 3: 0}, {"gamma": 1})
    y = LogLinear.make(Fraction(2, 4), {7: Fraction(4, 2)}, {"gamma": 1, "log_pi": 0})
    K, K2 = ImQField.from_discriminant(-23), ImQField.from_discriminant(-23)
    for a, b in ((x, y), (K, K2), (LogLinear(), LogLinear.make(0))):
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert x != LogLinear.make(Fraction(1, 2), {7: 2})
    assert K != ImQField.from_discriminant(-7)
    assert repr(K) == "ImQField(d=-23, h=3, w=2)"
    for record, name in ((x, "rational"), (K, "h"), (K, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


class TestOrdP:
    def test_values(self):
        assert ord_p(Fraction(7, 2), 7) == 1
        assert ord_p(Fraction(1, 49), 7) == -2
        assert ord_p(12, 2) == 2

    @pytest.mark.parametrize("p", [1, 0, -1])
    def test_refuses_p_below_2(self, p):
        with pytest.raises(ValueError, match="p >= 2"):
            ord_p(5, p)


class TestInvariants:
    def test_character_sum_check_fires_under_optimize(self, tmp_path):
        # python -O strips assert statements; L(chi, 0) = 2h/w must still
        # stop a chowla run, with exit code 3
        script = (
            "import sys\n"
            "assert False, 'python -O is not in effect'\n"
            "import speccy.imq as imq\n"
            "from speccy.cli import run\n"
            "real = imq.L_chi_exact_at_0\n"
            "imq.L_chi_exact_at_0 = lambda K: real(K) + 1\n"
            "sys.exit(run(sys.argv[1:]))\n")
        src = os.path.dirname(os.path.dirname(speccy.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, "chowla", "--disc", "-7"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert "disagrees with 2h/w" in proc.stderr
        assert proc.stdout == ""
