import contextlib
import hashlib
import math
import random
import signal
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from speccy.linalg import (
    HermiteSolver,
    _scale_to_int,
    hnf_contains,
    hnf_intersection,
    identity_matrix,
    inverse_fraction,
    lattice_basis,
    lattice_hnf,
    lattice_intersection,
    mat_mul,
    mat_vec,
    row_hnf,
    snf_with_transforms,
    solve_integer,
    symmetric_minors,
    transpose,
)
from speccy.imq import reduced_forms
from speccy.lattice import QuadLattice

import fraction_reference as reference


def rand_matrix(rng, n, m, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once seconds have passed, so that a
    hang fails its test instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def smith_kernel(A):
    """A basis of {x : A x = 0} read off the Smith form U A V = D: the
    columns of V past the rank.  The Smith form shares its Euclid step
    (linalg._clear_below) with the Hermite core, not its route."""
    U, V, D = snf_with_transforms(A)
    rank = sum(1 for t in range(min(len(A), len(A[0]))) if D[t][t])
    return [list(col) for col in zip(*V)][rank:]


def random_cases(rng, count):
    """count small integer matrices; about half are products of two random
    factors through a rank r <= min(n, m), so many are rank-deficient."""
    cases = []
    for _ in range(count):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        r = rng.randint(0, min(n, m))
        cases.append(mat_mul(rand_matrix(rng, n, r, -3, 3), rand_matrix(rng, r, m, -3, 3))
                     if r and rng.random() < 0.5 else rand_matrix(rng, n, m))
    return cases


class TestSNF:
    def test_invariants_random(self):
        rng = random.Random(123)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = rng.randint(1, 5)
            A = rand_matrix(rng, n, m)
            U, V, D = snf_with_transforms(A)
            assert abs(reference.det(U)) == 1
            assert abs(reference.det(V)) == 1
            got = mat_mul(mat_mul(U, A), V)
            assert got == D
            diag = [D[i][i] for i in range(min(n, m))]
            for i in range(n):
                for j in range(m):
                    if i != j:
                        assert D[i][j] == 0
            for i in range(len(diag) - 1):
                if diag[i + 1] != 0:
                    assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
                assert diag[i] >= 0

    def test_rank_deficient(self):
        A = [[2, 4], [1, 2]]
        U, V, D = snf_with_transforms(A)
        assert D[0][0] == 1 and D[1][1] == 0

    def test_known_divisors(self):
        A = [[2, 0], [0, 4]]
        _, _, D = snf_with_transforms(A)
        assert [D[0][0], D[1][1]] == [2, 4]


    def test_transforms_are_pinned(self):
        # U and V fix the generators of every DiscriminantGroup, and so
        # every coset label: a change to them (ROADMAP item 5, a bounded
        # Smith form) must be made knowingly.  The Grams: L0(d) + E8, E8,
        # the principal L0(d), and one whose divisibility fix-up leaves a 1
        # at (2, 3) below d_0 = 2, so the pivot is picked again (U[0] =
        # (-2, -2, 1, 0)); then 300 seeded small matrices
        from test_qseries import E8
        e8 = [list(row) for row in E8.gram]

        def l0(d):
            a, b, c = reduced_forms(d)[0]
            return [[-2 * a, -b], [-b, -2 * c]]

        grams = ([[row + [0] * 8 for row in l0(d)] + [[0, 0] + row for row in e8]
                  for d in (-3, -7, -11, -23)]
                 + [e8] + [l0(d) for d in (-3, -7, -11, -19, -43)]
                 + [[[4, 0, 0, 0], [0, 6, 4, 4], [0, 4, 10, 9], [0, 4, 9, 10]]])
        rng = random.Random(0)
        small = [rand_matrix(rng, n, m, -9, 9)
                 for n, m in ((rng.randint(1, 5), rng.randint(1, 5)) for _ in range(300))]
        pins = {"4dcc27a3f352d15827d95a675d22acc4867149d85768b95ecf7a5f402e3b57ef": grams,
                "0ab010360fbc3c3b203c37d4fe8066f98ab28f016cd880f98b09156ce470ddee": small}
        with time_limit(1):
            for digest, cases in pins.items():
                got = repr([snf_with_transforms(A) for A in cases])
                assert hashlib.sha256(got.encode()).hexdigest() == digest


class TestHNF:
    def test_idempotent_and_span(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 4)
            k = rng.randint(1, 5)
            rows = rand_matrix(rng, k, n)
            H = row_hnf(rows)
            assert row_hnf(H) == H
            # every original row is an integer combination of the HNF rows
            basis = [list(row) for row in H]
            for r in rows:
                coeffs = reference.member(basis, list(r))
                assert coeffs is not None or all(x == 0 for x in r)


class TestKernelSolve:
    def test_kernel_is_kernel(self):
        # m - rank(A) vectors, each in the kernel, spanning a saturated
        # lattice: every Smith divisor of the kernel matrix is 1, so a
        # missing or a doubled vector fails
        cases = [[[0, 0, 0]], [[2, 0], [0, 3]], [[2, 4]]] + random_cases(random.Random(17), 80)
        for A in cases:
            m = len(A[0])
            K = HermiteSolver(A).kernel()
            assert len(K) == m - sympy.Matrix(A).rank()
            for v in K:
                assert len(v) == m and not any(mat_vec(A, v))
            if K:
                _, _, D = snf_with_transforms(K)
                assert [D[t][t] for t in range(len(K))] == [1] * len(K)

    def test_kernel_is_canonical(self):
        # the kernel is the HNF of the Smith route's kernel: one basis per
        # kernel lattice, whatever route or input order produced it
        for A in [[[0, 0, 0]], [[2, 4]]] + random_cases(random.Random(19), 120):
            K, want = HermiteSolver(A).kernel(), smith_kernel(A)
            assert K == (lattice_hnf(want)[0] if want else [])
            assert K == row_hnf(K)

    def test_shift_system_in_budget(self):
        # the 4 x 6 shift system of a class order at d = -39, on which the
        # Euclid Smith form grows without bound; the timer turns a hang into
        # a failure
        A = [[0, 0, -390, 0, 0, 0], [0, 0, -130, -260, 0, 0], [39, 0, 0, 0, -39, 0],
             [21, 40, -1040, -520, -741, -1560]]
        b = [0, 0, 39, 21]
        best = math.inf
        with time_limit(2):
            for _ in range(3):
                start = time.perf_counter()
                solver = HermiteSolver(A)
                x, K = solver.solve(b), solver.kernel()
                best = min(best, time.perf_counter() - start)
        assert best < 0.01
        assert mat_vec(A, x) == b
        assert K == [[1, 18, 0, 0, 1, 0], [0, 39, 0, 0, 0, 1]]
        assert all(not any(mat_vec(A, v)) for v in K)

    def test_solve_roundtrip(self):
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            A = rand_matrix(rng, n, m)
            x = [rng.randint(-4, 4) for _ in range(m)]
            b = mat_vec(A, x)
            sol = solve_integer(A, b)
            assert sol is not None
            assert mat_vec(A, sol) == b

    def test_unsolvable(self):
        assert solve_integer([[2]], [1]) is None

    def test_inconsistent_singular(self):
        # b must reduce to 0 against the column lattice's echelon rows,
        # including in the coordinates past its rank
        assert solve_integer([[1, 1], [1, 1]], [0, 1]) is None
        assert reference.member([[1, 0], [1, 0]], [0, 1]) is None
        assert solve_integer([[1, 1], [1, 1]], [2, 2]) is not None

    def test_rank_deficient_matches_hnf_membership(self):
        # None exactly when adjoining b changes the HNF of the column span
        rng = random.Random(41)
        for _ in range(150):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            r = rng.randint(0, min(n, m) - 1)
            A = mat_mul(rand_matrix(rng, n, r, -3, 3), rand_matrix(rng, r, m, -3, 3)) \
                if r else [[0] * m for _ in range(n)]
            x = [rng.randint(-3, 3) for _ in range(m)]
            b = mat_vec(A, x) if rng.random() < 0.5 else \
                [rng.randint(-4, 4) for _ in range(n)]
            cols = [[A[i][j] for i in range(n)] for j in range(m)]
            sol = solve_integer(A, b)
            assert (sol is None) == (lattice_basis(cols + [b]) != lattice_basis(cols))
            if sol is not None:
                assert mat_vec(A, sol) == b


class TestLattices:
    def test_intersection_contains_and_is_contained(self):
        rng = random.Random(31)
        for _ in range(25):
            n = 3
            B1 = lattice_basis([[Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
                                 for _ in range(n)] for _ in range(3)])
            B2 = lattice_basis([[Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
                                 for _ in range(n)] for _ in range(3)])
            if len(B1) < n or len(B2) < n:
                continue
            I = lattice_intersection(B1, B2)
            for j in range(len(I)):
                v = [I[j][i] for i in range(n)] if False else list(I[j])
                assert reference.member(B1, v) is not None
                assert reference.member(B2, v) is not None
            # common sublattice: 2 * B1 cap-ish sanity, B1 scaled by lcm dens
            scaled = [[12 * x for x in col] for col in B1]
            for col in scaled:
                inside = reference.member(B2, col)
                if inside is not None:
                    assert reference.member(I, col) is not None

    def test_scale_to_int(self):
        vecs = [[Fraction(1, 4), 3], [Fraction(-5, 6), Fraction(2, 3)]]
        ints, den = _scale_to_int(vecs)
        assert den == 12
        assert ints == [[3, 36], [-10, 8]]
        assert _scale_to_int([]) == ([], 1)

    def test_scale_to_int_mixed_entries(self):
        # ints and Fractions side by side, in lists and tuples
        vecs = [[3, Fraction(1, 4), 0], (Fraction(-5, 6), -2, Fraction(7)), [1, 2, 3]]
        ints, den = _scale_to_int(vecs)
        assert den == 12
        assert ints == [[36, 3, 0], [-10, -24, 84], [12, 24, 36]]
        assert all(type(x) is int for v in ints for x in v)

    def test_member_negative(self):
        B = lattice_basis([[2, 0], [0, 2]])
        assert reference.member(B, [1, 0]) is None
        assert reference.member(B, [2, -4]) is not None


rational = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6]))


@st.composite
def rational_generators(draw, n=3):
    """1-4 rational vectors of length n (zero and dependent ones included)."""
    return draw(st.lists(st.lists(rational, min_size=n, max_size=n), min_size=1, max_size=4))


def fraction_hnf(generators):
    """The lattice's HNF built in Fractions: the generators scaled to ints
    over the lcm of their denominators, the integer HNF, divided back."""
    cols, den = _scale_to_int(generators)
    return [[Fraction(x, den) for x in row] for row in row_hnf(cols)]


def kernel_intersection(basis1, basis2):
    """The intersection through the Smith kernel of [B1 | -B2]."""
    r1 = len(basis1)
    cols, _ = _scale_to_int(list(basis1) + list(basis2))
    ker = smith_kernel(transpose(cols[:r1] + [[-x for x in c] for c in cols[r1:]]))
    return lattice_basis([[sum(v[t] * Fraction(basis1[t][i]) for t in range(r1))
                           for i in range(len(basis1[0]))]
                          for v in ker])


class TestIntegerForms:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(gens=rational_generators(), unimodular=st.lists(st.integers(-2, 2), min_size=2,
                                                           max_size=2))
    def test_form_is_the_fraction_hnf(self, gens, unimodular):
        H, den = lattice_hnf(*_scale_to_int(gens))
        assert [[Fraction(x, den) for x in row] for row in H] == fraction_hnf(gens)
        assert lattice_basis(gens) == fraction_hnf(gens)
        # least denominator, and canonical: other generators of the same
        # lattice (a row added to another, an integer scale) give the same
        assert all(type(x) is int for row in H for x in row)
        assert math.gcd(den, *(x for row in H for x in row)) == 1
        if len(gens) > 1:
            a, b = unimodular
            other = [[x + a * y for x, y in zip(gens[0], gens[1])]] + gens[1:] + [
                [b * x for x in gens[-1]]]
            assert lattice_hnf(*_scale_to_int(other)) == (H, den)
        scaled, sden = _scale_to_int(gens)
        assert lattice_hnf([[3 * x for x in row] for row in scaled], 3 * sden) == (H, den)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(gens=rational_generators(), v=st.lists(rational, min_size=3, max_size=3),
           coeffs=st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    def test_membership_by_reduction(self, gens, v, coeffs):
        form = lattice_hnf(*_scale_to_int(gens))
        basis = lattice_basis(gens)
        inside = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(3)]
        for x in (v, inside, [Fraction(0)] * 3):
            assert hnf_contains(form, x) == (reference.member(basis, x) is not None)
        assert hnf_contains(form, inside)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(gens1=rational_generators(), gens2=rational_generators())
    def test_intersection_matches_kernel_route(self, gens1, gens2):
        B1, B2 = lattice_basis(gens1), lattice_basis(gens2)
        H, den = hnf_intersection(lattice_hnf(*_scale_to_int(gens1)),
                                  lattice_hnf(*_scale_to_int(gens2)))
        want = kernel_intersection(B1, B2) if B1 and B2 else []
        assert [[Fraction(x, den) for x in row] for row in H] == want
        assert lattice_intersection(B1, B2) == want

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(A=st.integers(1, 4).flatmap(lambda n: st.integers(1, 4).flatmap(
               lambda m: st.lists(st.lists(st.integers(-5, 5), min_size=m, max_size=m),
                                  min_size=n, max_size=n))),
           bs=st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4), min_size=1,
                       max_size=5),
           xs=st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1,
                       max_size=5))
    def test_one_smith_form_many_solves(self, A, bs, xs):
        # one solver reused on solvable and random right-hand sides gives
        # what a fresh solve_integer gives, and None exactly when b is not
        # in the column lattice
        n, m = len(A), len(A[0])
        solver = HermiteSolver(A)
        cols = [[A[i][j] for i in range(n)] for j in range(m)]
        rhs = [b[:n] for b in bs] + [mat_vec(A, x[:m]) for x in xs]
        for b in rhs:
            sol = solver.solve(b)
            assert sol == solve_integer(A, b)
            assert (sol is None) == (lattice_basis(cols + [b]) != lattice_basis(cols))
            if sol is not None:
                assert mat_vec(A, sol) == b


@st.composite
def symmetric_matrices(draw, max_n=5):
    """Symmetric rational matrices with small entries; singular ones and
    zero diagonals (the folding step) come up often."""
    n = draw(st.integers(1, max_n))
    entry = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 1, 2, 3]))
    G = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            G[i][j] = G[j][i] = draw(entry)
    return G


def sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def signs(diag):
    return (sum(1 for x in diag if x > 0), sum(1 for x in diag if x < 0),
            sum(1 for x in diag if x == 0))


def minor_signs(delta):
    """signs() of a diagonal form: its k-th entry delta_k / delta_{k-1} has
    the sign of delta_k delta_{k-1}, and is 0 past the rank."""
    return signs([a * b for a, b in zip(delta, delta[1:])])


def unpivoted_minors(A):
    """The unpivoted Bareiss loop of a Fincke-Pohst set-up, the reference
    for symmetric_minors on positive definite Grams: it stops (None) at
    the first pivot that is not positive."""
    n = len(A)
    M = [list(row) for row in A]
    B, delta = [], [1]
    for k in range(n):
        p = M[k][k]
        if p <= 0:
            return None
        B.append(tuple(M[k]))
        for i in range(k + 1, n):
            Mi = M[i]
            for j in range(k + 1, n):
                Mi[j] = (p * Mi[j] - Mi[k] * M[k][j]) // delta[k]
        delta.append(p)
    return B, delta


class TestQuadratic:
    # the rational matrices are scaled to integers, s G; an even Gram 2 s G
    # is a lattice, whose signature and det read the same minors

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(symmetric_matrices())
    def test_diagonal_signs_match_charpoly(self, G):
        # every root of the characteristic polynomial of a symmetric matrix
        # is real, so Descartes's rule of signs counts them exactly
        n = len(G)
        coeffs = sympy.Matrix(G).charpoly().all_coeffs()  # leading first
        mirrored = [c * (-1) ** (n - k) for k, c in enumerate(coeffs)]
        zeros = next(k for k, c in enumerate(reversed(coeffs)) if c != 0)
        A, _ = _scale_to_int(G)
        delta = symmetric_minors(A)[1]
        assert len(delta) == n + 1 and delta[0] == 1
        assert minor_signs(delta) == (sign_changes(coeffs), sign_changes(mirrored), zeros)
        lat = QuadLattice([[2 * x for x in row] for row in A])
        assert lat.signature == (sign_changes(coeffs), sign_changes(mirrored))
        assert lat.is_degenerate == (zeros > 0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(symmetric_matrices())
    def test_diagonal_product_is_det(self, G):
        n = len(G)
        A, s = _scale_to_int(G)
        det = reference.det(G)
        assert symmetric_minors(A)[1][-1] == det * s ** n
        assert QuadLattice([[2 * x for x in row] for row in A]).det == det * (2 * s) ** n

    def test_inertia_known(self):
        assert minor_signs(symmetric_minors([[2, 0], [0, -2]])[1]) == (1, 1, 0)
        # a zero diagonal folds x_0 -> x_0 + x_1 first
        assert symmetric_minors([[0, 1], [1, 0]]) == ([(2, 1), (1, -1)], [1, 2, -1])
        assert symmetric_minors([[1, 0, 0], [0, 0, 1], [0, 1, 0]])[1] == [1, 1, 2, -1]
        assert symmetric_minors([[2, 1], [1, 2]]) == ([(2, 1), (1, 3)], [1, 2, 3])
        assert symmetric_minors([[2, 2], [2, 2]]) == ([(2, 2)], [1, 2, 0])
        assert symmetric_minors([[0, 0], [0, 0]]) == ([], [1, 0, 0])
        assert symmetric_minors([]) == ([], [1])
        assert QuadLattice([]).signature == (0, 0) and QuadLattice([]).det == 1

    def test_positive_definite_is_never_pivoted(self):
        # seeded positive definite Grams P^T P + I of rank at most 7, E8 and
        # the skewed A4 family: the rows and minors of the unpivoted loop
        from test_lattice import skewed_a4
        from test_qseries import E8
        rng = random.Random(17)
        grams = [[list(row) for row in E8.gram]] + [skewed_a4(2 ** k) for k in (0, 2, 4, 6, 8)]
        for _ in range(300):
            n = rng.randint(1, 7)
            P = rand_matrix(rng, n, n, -4, 4)
            grams.append([[sum(P[k][i] * P[k][j] for k in range(n)) + (i == j)
                           for j in range(n)] for i in range(n)])
        for A in grams:
            assert symmetric_minors(A) == unpivoted_minors(A)


class TestFractionCore:
    def test_inverse_random(self):
        # integer and rational entries, and a singular matrix (one row a
        # rational combination of the others) refused
        rng = random.Random(61)
        for t in range(60):
            n = rng.randint(1, 5)
            while True:
                A = rand_matrix(rng, n, n)
                if t % 2:
                    A = [[Fraction(x, rng.randint(1, 9)) for x in row] for row in A]
                if reference.det(A) != 0:
                    break
            Ainv = inverse_fraction(A)
            assert mat_mul(A, Ainv) == identity_matrix(n) == mat_mul(Ainv, A)
            if n > 1:
                c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                S = A[:-1] + [[c * x + y for x, y in zip(A[0], A[-2])]]
                assert reference.det(S) == 0
                with pytest.raises(ValueError, match="^singular matrix$"):
                    inverse_fraction(S)
