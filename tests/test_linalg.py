import random
from fractions import Fraction

from speccy.linalg import (
    det_fraction,
    diagonalize_quadratic,
    identity_matrix,
    inertia,
    integer_kernel,
    inverse_fraction,
    lattice_basis,
    lattice_intersection,
    lattice_member,
    mat_mul,
    mat_vec,
    row_hnf,
    snf_with_transforms,
    solve_integer,
    sqrt_fraction_exact,
)


def rand_matrix(rng, n, m, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


class TestSNF:
    def test_invariants_random(self):
        rng = random.Random(123)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = rng.randint(1, 5)
            A = rand_matrix(rng, n, m)
            U, V, D = snf_with_transforms(A)
            assert abs(det_fraction(U)) == 1
            assert abs(det_fraction(V)) == 1
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
                coeffs = lattice_member(basis, list(r))
                assert coeffs is not None or all(x == 0 for x in r)


class TestKernelSolve:
    def test_kernel_is_kernel(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rng.randint(1, 5)
            A = rand_matrix(rng, n, m)
            K = integer_kernel(A)
            ncols = len(K[0]) if K and K[0] else 0
            for j in range(ncols):
                v = [K[i][j] for i in range(m)]
                assert all(x == 0 for x in mat_vec(A, v))

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
                assert lattice_member(B1, v) is not None
                assert lattice_member(B2, v) is not None
            # common sublattice: 2 * B1 cap-ish sanity, B1 scaled by lcm dens
            scaled = [[12 * x for x in col] for col in B1]
            for col in scaled:
                inside = lattice_member(B2, col)
                if inside is not None:
                    assert lattice_member(I, col) is not None

    def test_member_negative(self):
        B = lattice_basis([[2, 0], [0, 2]])
        assert lattice_member(B, [1, 0]) is None
        assert lattice_member(B, [2, -4]) is not None


class TestQuadratic:
    def test_inertia_vs_diagonalization(self):
        rng = random.Random(53)
        for _ in range(40):
            n = rng.randint(1, 4)
            A = rand_matrix(rng, n, n, -4, 4)
            G = [[A[i][j] + A[j][i] for j in range(n)] for i in range(n)]
            p1, m1, z1 = inertia(G)
            if z1:
                continue  # diagonalize_quadratic assumes nondegenerate
            qs = diagonalize_quadratic(G)
            p2 = sum(1 for q in qs if q > 0)
            m2 = sum(1 for q in qs if q < 0)
            assert (p1, m1) == (p2, m2)

    def test_inertia_known(self):
        assert inertia([[2, 0], [0, -2]]) == (1, 1, 0)
        assert inertia([[0, 1], [1, 0]]) == (1, 1, 0)
        assert inertia([[2, 1], [1, 2]]) == (2, 0, 0)
        assert inertia([[2, 2], [2, 2]]) == (1, 0, 1)

    def test_sqrt_helpers(self):
        assert sqrt_fraction_exact(Fraction(9, 16)) == Fraction(3, 4)
        assert sqrt_fraction_exact(Fraction(2)) is None


class TestFractionCore:
    def test_inverse_random(self):
        rng = random.Random(61)
        for _ in range(30):
            n = rng.randint(1, 4)
            while True:
                A = rand_matrix(rng, n, n)
                if det_fraction(A) != 0:
                    break
            Ainv = inverse_fraction(A)
            assert mat_mul(A, Ainv) == identity_matrix(n)

    def test_det_multiplicative(self):
        rng = random.Random(71)
        for _ in range(20):
            n = rng.randint(1, 4)
            A = rand_matrix(rng, n, n)
            B = rand_matrix(rng, n, n)
            assert det_fraction(mat_mul(A, B)) == det_fraction(A) * det_fraction(B)
