import hashlib
import random
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, isqrt, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from speccy.eisenstein import EisensteinPackage
from speccy.lattice import (
    Coset,
    InputRefusal,
    InvariantError,
    QuadLattice,
    SublatticeEmbedding,
    _short_vectors,
    ball_sweep,
    count_coset_vectors,
    discriminant_group,
    enumerate_coset_vectors,
    glue_cosets,
    is_fundamental_discriminant,
    is_maximal,
    orthogonal_complement,
)
from speccy.linalg import inverse_fraction

L0_D7 = QuadLattice([[-2, -1], [-1, -4]])
A1 = QuadLattice([[2]])
A2 = QuadLattice([[2, 1], [1, 2]])
U_HYP = QuadLattice([[0, 1], [1, 0]])
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
A2A2 = [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]]
A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
D5 = [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1], [0, 0, -1, 2, 0],
      [0, 0, -1, 0, 2]]


def skewed_a4(k):
    """A4 under elementary column operations (column j += k column i, and
    the same on rows): the same lattice in an ever more skewed basis."""
    G = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    for i, j in ((1, 0), (3, 1), (2, 3), (3, 1), (0, 2)):
        for row in G:
            row[j] += k * row[i]
        G[j] = [a + k * b for a, b in zip(G[j], G[i])]
    return G


def random_even_gram(rng, n):
    """A random symmetric even n x n Gram, definite or not, perhaps singular."""
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        G[i][i] = 2 * rng.randint(-3, 3)
        for j in range(i + 1, n):
            G[i][j] = G[j][i] = rng.randint(-2, 2)
    return G


def gram_inverse_level(lat):
    """The level from G^-1: the lcm of the denominators of its entries off
    the diagonal and of half its diagonal entries."""
    return lcm(*((x / 2 if i == j else x).denominator
                 for i, row in enumerate(lat.gram_inverse()) for j, x in enumerate(row)))


def assert_table_matches_representatives(g):
    """Oracle for the generator table: q_map and b_map against the
    quadratic and bilinear form of the coset representatives, mod 1."""
    lat = g.lattice
    cosets = list(g.elements())
    reps = [mu.rep() for mu in cosets]
    for mu, x in zip(cosets, reps):
        assert g.q_map(mu) == lat.quadratic(x) % 1
        for nu, y in zip(cosets, reps):
            assert g.b_map(mu, nu) == lat.bilinear(x, y) % 1


def box_vectors(gram, shift, bound):
    """Independent oracle: every x in shift + Z^n with Q(x) = (1/2) x^T gram x
    <= bound, as (x, Q(x)), by exhaustive search over the coordinate box
    x_i^2 <= 2 bound (gram^-1)_ii (Cauchy-Schwarz), in exact arithmetic."""
    n = len(gram)
    bound = Fraction(bound)
    if bound < 0:
        return []
    if n == 0:
        return [((), Fraction(0))]
    Ginv = inverse_fraction(gram)
    shift = [Fraction(s) for s in shift]
    ranges = []
    for i in range(n):
        r = isqrt(floor(2 * bound * Ginv[i][i])) + 1
        ranges.append(range(ceil(-r - shift[i]), floor(r - shift[i]) + 1))
    # integer norms: A = D gram, y = e x, y^T A y = D e^2 x^T gram x, with
    # the last coordinate innermost: a y_l^2 + 2 b y_l + p
    D = lcm(*(Fraction(g).denominator for row in gram for g in row))
    e = lcm(*(s.denominator for s in shift))
    A = [[int(Fraction(g) * D) for g in row] for row in gram]
    c = [int(s * e) for s in shift]
    limit = 2 * D * e * e * bound
    a = A[-1][-1]
    out = []
    for head in product(*ranges[:-1]):
        y = [ci + e * ti for ci, ti in zip(c, head)]
        p = sum(A[i][j] * y[i] * y[j] for i in range(n - 1) for j in range(n - 1))
        b = sum(A[-1][j] * y[j] for j in range(n - 1))
        for tl in ranges[-1]:
            yl = c[-1] + e * tl
            norm = p + yl * (a * yl + 2 * b)
            if norm <= limit:
                x = tuple(s + ti for s, ti in zip(shift, head + (tl,)))
                out.append((x, norm / Fraction(2 * D * e * e)))
    return out


def brute_count(lat, mu_rep, m):
    """Independent oracle: #{x in mu_rep + L : Q(x) = m} by box search."""
    m = Fraction(m)
    return sum(1 for _, q in box_vectors(lat.gram, mu_rep, m) if q == m)


class TestGram:
    def test_non_integral_entry_rejected(self):
        with pytest.raises(ValueError, match=r"gram entry \[0\]\[1\] = 1.5 is not an integer"):
            QuadLattice([[2, 1.5], [1.5, 2]])
        with pytest.raises(ValueError, match="is not an integer"):
            QuadLattice([[2, Fraction(1, 2)], [Fraction(1, 2), 2]])
        with pytest.raises(ValueError, match="is not an integer"):
            QuadLattice([[2, None], [None, 2]])
        # JSON true and "2" would otherwise convert through Fraction
        with pytest.raises(ValueError, match=r"gram entry \[0\]\[1\] = True is not an integer"):
            QuadLattice([[2, True], [True, 2]])
        with pytest.raises(ValueError, match=r"gram entry \[0\]\[0\] = '2' is not an integer"):
            QuadLattice([["2", "4/4"], ["1", "2"]])

    def test_integral_values_accepted(self):
        assert QuadLattice([[2.0, Fraction(1)], [1, 2]]).gram == ((2, 1), (1, 2))

    def test_signature_and_det(self):
        assert (A2.det, A2.signature, A2.is_degenerate) == (3, (2, 0), False)
        assert (U_HYP.det, U_HYP.signature) == (-1, (1, 1))
        flat = QuadLattice([[2, 2], [2, 2]])
        assert (flat.det, flat.signature, flat.is_degenerate) == (0, (1, 0), True)
        assert QuadLattice([]).signature == (0, 0)


class TestDiscriminantGroup:
    def test_rank_one(self):
        g = discriminant_group(QuadLattice([[2]]))
        assert g.elementary_divisors == (2,)
        half = g.from_vector([Fraction(1, 2)])
        assert g.q_map(half) == Fraction(1, 4)

    def test_d7(self):
        g = discriminant_group(L0_D7)
        assert g.elementary_divisors == (7,)
        assert g.order == 7

    def test_unimodular_trivial(self):
        g = discriminant_group(U_HYP)
        assert g.order == 1
        assert g.elementary_divisors == ()

    def test_order_equals_det(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 3)
            while True:
                B = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                G = [[2 * sum(B[k][i] * B[k][j] for k in range(n)) for j in range(n)]
                     for i in range(n)]
                lat = QuadLattice(G)
                if lat.det != 0:
                    break
            assert discriminant_group(lat).order == lat.disc

    def test_q_symmetry_and_b_map(self):
        g = discriminant_group(L0_D7)
        for mu in g.elements():
            assert g.q_map(mu) == g.q_map(-mu)
            for nu in g.elements():
                lhs = g.b_map(mu, nu)
                rhs = (g.q_map(mu + nu) - g.q_map(mu) - g.q_map(nu)) % 1
                assert lhs == rhs

    @pytest.mark.parametrize("gram", [[[2, 0, 0], [0, 2, 0], [0, 0, 2]], D4,
                                      [[2, 0, 0], [0, 2, 0], [0, 0, 6]],
                                      [[2, 0, 0], [0, -2, 0], [0, 0, -6]]])
    def test_generator_table_several_generators(self, gram):
        g = discriminant_group(QuadLattice(gram))
        assert len(g.elementary_divisors) >= 2
        assert_table_matches_representatives(g)

    def test_generator_table_random(self):
        # random even lattices of rank <= 5, indefinite ones included
        rng = random.Random(23)
        checked = indefinite = several = 0
        while checked < 40:
            G = random_even_gram(rng, rng.randint(1, 5))
            lat = QuadLattice(G)
            if lat.det == 0 or lat.disc > 60:
                continue
            g = discriminant_group(lat)
            assert_table_matches_representatives(g)
            indefinite += min(lat.signature) > 0
            several += len(g.elementary_divisors) >= 2
            checked += 1
        assert indefinite >= 10 and several >= 5

    @pytest.mark.parametrize("gram", [[[2]], [[0, 1], [1, 0]], [[2, 1], [1, 4]],
                                      [[2, 0, 0], [0, 2, 0], [0, 0, 6]],
                                      [[-2, -1, 0], [-1, -4, 0], [0, 0, 2]],
                                      [[4, 2, 0], [2, 6, 0], [0, 0, 12]]])
    def test_coset_index_follows_elements(self, gram):
        g = discriminant_group(QuadLattice(gram))
        cosets = list(g.elements())
        assert [g.index_of(c) for c in cosets] == list(range(g.order))
        assert [g.coset_by_index(k) for k in range(g.order)] == cosets
        for k in (-1, g.order):
            with pytest.raises(ValueError, match=f"coset index {k} out of range"):
                g.coset_by_index(k)
        other = discriminant_group(QuadLattice([[2]]))
        with pytest.raises(ValueError, match="not in group"):
            g.index_of(other.zero())
        # a coordinate tuple padded with a 0 for a unit divisor is refused
        with pytest.raises(ValueError, match="not in group"):
            g.index_of(Coset(g, (0,) + g.zero().coords))

    def test_coset_refusals(self):
        g = discriminant_group(QuadLattice([[2, 1], [1, 4]]))  # Z/7
        with pytest.raises(ValueError, match="not in group"):
            g.index_of(Coset(g, (7,)))
        with pytest.raises(ValueError, match="cosets from different discriminant groups"):
            g.zero() + discriminant_group(QuadLattice([[2]])).zero()

    @pytest.mark.parametrize("gram", [
        [[2, 0, 0, 0, 0], [0, 2, 0, 0, 0]] + [[0, 0] + row for row in A3],
        [[2, 0], [0, 6]], D4], ids=["A1+A1+A3", "diag(2,6)", "D4"])
    def test_order_is_the_least_multiple_that_vanishes(self, gram):
        g = discriminant_group(QuadLattice(gram))
        for mu in g.elements():
            k, x = 1, mu
            while not x.is_zero():
                k, x = k + 1, x + mu
            assert mu.order() == k, mu

    def test_dual_index_and_from_vector_random(self):
        # random even lattices of rank <= 5, indefinite ones included: every
        # coset comes back from its representative, dual_index(G rep) is its
        # position, and a vector outside the dual is refused
        rng = random.Random(17)
        checked = raised = 0
        while checked < 40:
            n = rng.randint(1, 5)
            G = random_even_gram(rng, n)
            lat = QuadLattice(G)
            if lat.det == 0 or lat.disc > 400:
                continue
            g = discriminant_group(lat)
            for k, mu in enumerate(g.elements()):
                rep = mu.rep()
                assert g.from_vector(rep) == mu
                Grep = [int(sum(G[i][j] * rep[j] for j in range(n))) for i in range(n)]
                assert g.dual_index(Grep) == k
            for _ in range(3):
                v = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
                if all(sum(G[i][j] * v[j] for j in range(n)).denominator == 1
                       for i in range(n)):
                    assert g.from_vector(v) in list(g.elements())
                else:
                    raised += 1
                    with pytest.raises(ValueError, match="not in the dual lattice"):
                        g.from_vector(v)
            checked += 1
        assert raised > 20
        with pytest.raises(ValueError, match="coordinates"):
            g.from_vector([0] * (n + 1))

    def test_level_and_coordinates_random(self):
        # random even Grams of rank 0 to 5, indefinite and scaled ones
        # included: the level read off the generator table against the
        # G^-1 formula, and one coordinate per elementary divisor
        rng = random.Random(29)
        checked = indefinite = several = 0
        while checked < 80:
            scale = rng.choice((1, 1, 2, 3))
            G = [[scale * x for x in row] for row in random_even_gram(rng, rng.randint(0, 5))]
            lat = QuadLattice(G)
            if lat.det == 0 or lat.disc > 400:
                continue
            g = discriminant_group(lat)
            assert lat.level() == gram_inverse_level(lat)
            for i, mu in enumerate(g.elements()):
                assert len(mu.coords) == len(g.elementary_divisors)
                assert g.from_coords(mu.coords) == mu
                assert g.index_of(g.coset_by_index(i)) == i
            indefinite += min(lat.signature) > 0
            several += len(g.elementary_divisors) >= 2
            checked += 1
        assert indefinite >= 10 and several >= 10
        assert QuadLattice([]).level() == 1

    def test_from_coords_needs_one_coordinate_per_visible_generator(self):
        g = discriminant_group(QuadLattice([[2, 0], [0, 4]]))
        assert g.from_coords([1, 3]) == Coset(g, (1, 3))
        with pytest.raises(ValueError, match="1 coordinates given, but the group has 2"):
            g.from_coords([1])
        with pytest.raises(ValueError, match="4 coordinates given, but the group has 2"):
            g.from_coords([1, 1, 1, 1])

    def test_coset_is_a_frozen_value(self):
        g = discriminant_group(QuadLattice([[2, 0], [0, 4]]))
        mu, nu = g.from_coords([1, 3]), g.from_coords([3, 7])
        assert mu == nu and hash(mu) == hash(nu) and {mu: 1}[nu] == 1
        assert mu != g.from_coords([1, 1])
        assert mu + mu == g.from_coords([0, 2]) and -mu == g.from_coords([1, 1])
        for name in ("coords", "group", "extra"):
            with pytest.raises(AttributeError):
                setattr(mu, name, (0, 0))

    def test_singular_rejected(self):
        lat = QuadLattice([[2, 2], [2, 2]])
        with pytest.raises(Exception):
            discriminant_group(lat)


class TestMaximal:
    def test_a1(self):
        assert is_maximal(QuadLattice([[2]]))

    def test_scaled(self):
        assert not is_maximal(QuadLattice([[8]]))

    def test_d7(self):
        assert is_maximal(L0_D7)

    def test_unimodular(self):
        assert is_maximal(U_HYP)


class TestEnumeration:
    def test_zero_vector(self):
        g = discriminant_group(A1)
        assert enumerate_coset_vectors(A1, g.zero(), 0) == [(0,)]

    def test_half_coset(self):
        g = discriminant_group(A1)
        mu = g.from_vector([Fraction(1, 2)])
        vecs = enumerate_coset_vectors(A1, mu, Fraction(1, 4))
        assert vecs == [(Fraction(-1, 2),), (Fraction(1, 2),)]

    def test_a2_six_roots(self):
        g = discriminant_group(A2)
        vecs = enumerate_coset_vectors(A2, g.zero(), 1)
        assert len(vecs) == 6

    def test_empty_unless_support(self):
        g = discriminant_group(A1)
        mu = g.from_vector([Fraction(1, 2)])
        # q(mu) = 1/4, so Q(x) = 1 is impossible on the coset
        assert enumerate_coset_vectors(A1, mu, 1) == []

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            enumerate_coset_vectors(U_HYP, [0, 0], 1)

    def test_skew_within_the_float_bound(self):
        # Q(x) = (x0 + k x1)^2 + x1^2: five vectors of norm <= 1
        k = 2 ** 20
        got = ball_sweep([[2, 2 * k], [2 * k, 2 * k * k + 2]], [0, 0], 1)
        assert sorted(got) == sorted([((0, 0), 0), ((-1, 0), 2), ((1, 0), 2),
                                      ((-k, 1), 2), ((k, -1), 2)])

    def test_ill_conditioned_or_huge_input_is_refused(self):
        k = 2 ** 40
        with pytest.raises(ValueError, match="too ill-conditioned or too large"):
            ball_sweep([[2, 2 * k], [2 * k, 2 * k * k + 2]], [0, 0], 1)
        with pytest.raises(ValueError, match="too ill-conditioned or too large"):
            ball_sweep([[2]], [0], 2 ** 120)

    def test_refusal_survives_the_setup_cache(self):
        # the Gram-only set-up is cached, so a refused Gram must be refused
        # on every call, and a Gram refused only for its bound must still
        # be searched at a smaller one
        k = 2 ** 40
        for G, bound in (([[2, 2 * k], [2 * k, 2 * k * k + 2]], 1), (skewed_a4(2 ** 6), 3)):
            for _ in range(2):
                with pytest.raises(ValueError, match="too ill-conditioned or too large"):
                    ball_sweep(G, [0] * len(G), bound)
        for _ in range(2):
            with pytest.raises(ValueError, match="too ill-conditioned or too large"):
                ball_sweep([[2]], [0], 2 ** 120)
            assert sorted(ball_sweep([[2]], [0], 1)) == [((-1,), 2), ((0,), 0), ((1,), 2)]

    def test_skewed_a4_counts_or_is_refused(self):
        # skewed A4 keeps its 111 vectors of Q <= 3 while the conditioning
        # guard admits it; at k = 2^6 an unguarded search takes about
        # 10 s, so 2^6 and 2^8 are refused up front
        for k in (2 ** 2, 2 ** 4):
            assert len(ball_sweep(skewed_a4(k), [0] * 4, 3)) == 111
        for k in (2 ** 6, 2 ** 8):
            with pytest.raises(ValueError, match="too ill-conditioned or too large"):
                ball_sweep(skewed_a4(k), [0] * 4, 3)

    def test_sweep_budget(self, monkeypatch):
        # the volume estimate puts about 5,300 points of E8 in Q <= 3 (9,121
        # are returned) and 41,000 in Q <= 5: a budget of 10^4 admits the
        # one sweep and refuses the other by its bound; an exact shell
        # count is not budgeted
        from test_qseries import E8
        monkeypatch.setattr("speccy.lattice.SWEEP_BUDGET", 10 ** 4)
        assert len(ball_sweep(E8.gram, [0] * 8, 3)) == 9121
        with pytest.raises(InputRefusal, match="too ill-conditioned or too large") as info:
            ball_sweep(E8.gram, [0] * 8, 5)
        assert info.value.arg == "bound"
        # r_E8(5) = 240 sigma_3(5)
        assert count_coset_vectors(E8, discriminant_group(E8).zero(), 5) == 240 * 126

    @pytest.mark.parametrize("gram,bound,count,digest", [
        # E8, with the Gram of test_qseries, to Q <= 3
        ([[2, -1, 0, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0, 0],
          [0, -1, 2, -1, 0, 0, 0, -1], [0, 0, -1, 2, -1, 0, 0, 0],
          [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
          [0, 0, 0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 0, 0, 2]], 3, 9121,
         "c7dbea6d8fea26d6cb6595f62af75c188bcbdc289399b081fe674da0f86b5e38"),
        # the dual of the rank-6 path lattice of det 67 (last diagonal 12)
        (inverse_fraction([[2, -1, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0],
                           [0, -1, 2, -1, 0, 0], [0, 0, -1, 2, -1, 0],
                           [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 12]]), 8, 174909,
         "01fe27c4d883d6ce2bd5795a53ad6050b5a49671ceb78d91b178dc56deb08ac8"),
    ])
    def test_sweep_output_is_pinned(self, gram, bound, count, digest):
        # the exact list, order included: it fixes the insertion order of
        # the theta tables built from it; the second sweep runs on the
        # cached set-up of the first, which must come back unchanged
        for _ in range(2):
            out = ball_sweep(gram, [0] * len(gram), bound)
            assert len(out) == count
            assert hashlib.sha256(repr(out).encode()).hexdigest() == digest

    def test_rank4_count_vs_box_search(self):
        rng = random.Random(41)
        B = [[rng.randint(-1, 1) for _ in range(4)] for _ in range(4)]
        for i in range(4):
            B[i][i] += 2
        G = [[2 * sum(B[k][i] * B[k][j] for k in range(4)) for j in range(4)]
             for i in range(4)]
        lat = QuadLattice(G)
        assert lat.is_positive_definite()
        grp = discriminant_group(lat)
        mu = list(grp.elements())[min(1, grp.order - 1)]
        for k in (7, 20):
            m = grp.q_map(mu) + k
            assert len(enumerate_coset_vectors(lat, mu, m)) == brute_count(lat, mu.rep(), m)

    def test_negation_symmetry_and_bruteforce(self):
        rng = random.Random(5)
        for _ in range(8):
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
            grp = discriminant_group(lat)
            cosets = list(grp.elements())
            mu = cosets[rng.randrange(len(cosets))]
            for k in range(4):
                m = grp.q_map(mu) + k
                vs = enumerate_coset_vectors(lat, mu, m)
                vs_neg = enumerate_coset_vectors(lat, -mu, m)
                assert len(vs) == len(vs_neg)
                assert len(vs) == brute_count(lat, mu.rep(), m)


@st.composite
def skewed_problem(draw, integral):
    """(G0, U, G = U^T G0 U, shift, U shift, bound): a random diagonally
    dominant G0 of rank 1-5 (even integral, or with rational diagonal),
    skewed by a unimodular U with entries up to 50, a rational shift, and
    the norm of one vector of the coset as the bound."""
    n = draw(st.integers(1, 5))
    small = st.integers(-1, 1)
    # off-diagonal entries in {-1, 0, 1} under a diagonal that dominates them
    G0 = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            G0[i][j] = G0[j][i] = Fraction(draw(small))
        if integral:
            G0[i][i] = Fraction(2 * (n // 2) + 2 * draw(st.integers(1, 2)))
        else:
            G0[i][i] = n - 1 + Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 4)))
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-7, 7))
    for i, j, k in draw(st.lists(ops, min_size=8, max_size=24)):
        row = [a + k * b for a, b in zip(U[i], U[j])]
        if i != j and max(map(abs, row)) <= 50:
            U[i] = row
    G = [[sum(U[a][i] * G0[a][b] * U[b][j] for a in range(n) for b in range(n))
          for j in range(n)] for i in range(n)]
    den = draw(st.integers(1, 6))
    shift = [Fraction(draw(st.integers(0, den - 1)), den) for _ in range(n)]
    # the bound is the norm of a vector of the coset that is short in G0
    # coordinates, where the coset is U shift + Z^n
    Ushift = [sum(U[i][j] * shift[j] for j in range(n)) for i in range(n)]
    t0 = draw(st.lists(st.integers(-1, 0), min_size=n, max_size=n))
    bound = quad(G0, [s - floor(s) + t for s, t in zip(Ushift, t0)])
    return G0, U, G, shift, Ushift, bound


def quad(gram, x):
    return sum(x[i] * gram[i][j] * x[j] for i in range(len(x)) for j in range(len(x))) / 2


def skew_back(U, vectors):
    """Box-search vectors x' in G0 coordinates as x = U^-1 x' in G's."""
    Uinv = inverse_fraction(U)
    return sorted((tuple(sum(Uinv[i][j] * x[j] for j in range(len(x)))
                         for i in range(len(x))), q) for x, q in vectors)


class TestEnumerationProperties:
    """The enumeration core against box search in the unskewed basis: x in
    shift + Z^n for G is U x in U shift + Z^n for G0, with the same norm,
    and the bound is the norm of shift + t0, so boundary vectors count."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(skewed_problem(integral=False))
    def test_ball_sweep_matches_box_search(self, problem):
        G0, U, G, shift, Ushift, bound = problem
        scale = 2 * lcm(*(g.denominator for row in G for g in row)) \
            * lcm(*(s.denominator for s in shift)) ** 2
        got = sorted((tuple(s + ti for s, ti in zip(shift, t)), Fraction(norm, scale))
                     for t, norm in ball_sweep(G, shift, bound))
        assert got == skew_back(U, box_vectors(G0, Ushift, bound))
        assert all(q == quad(G, x) for x, q in got)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_exact_shell_is_the_filtered_sweep(self, data):
        # the exact search tries only u = -r, r at its last level; it must
        # return the sweep's vectors of norm N in the sweep's order, for
        # every N up to the sweep's bound (zero shifts give u = 0)
        n = data.draw(st.integers(1, 5))
        B = [[data.draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
        diag = [Fraction(data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3)))
                for _ in range(n)]
        G = [[sum(B[k][i] * B[k][j] for k in range(n)) + (diag[i] if i == j else 0)
              for j in range(n)] for i in range(n)]
        den = data.draw(st.integers(1, 6))
        shift = [Fraction(data.draw(st.integers(0, den - 1)), den) for _ in range(n)]
        scale = 2 * lcm(*(g.denominator for row in G for g in row)) \
            * lcm(*(s.denominator for s in shift)) ** 2
        bound = data.draw(st.integers(0, 8))
        sweep = _short_vectors(G, shift, Fraction(bound), exact=False)
        target = scale * bound
        for N in sorted({0, min(1, target), target} | {norm for _, norm in sweep}):
            assert _short_vectors(G, shift, Fraction(N, scale), exact=True) == \
                [(t, norm) for t, norm in sweep if norm == N]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(skewed_problem(integral=True))
    def test_coset_vectors_match_box_search(self, problem):
        G0, U, G, shift, Ushift, m = problem
        got = enumerate_coset_vectors(QuadLattice(G), shift, m)
        want = [x for x, q in skew_back(U, box_vectors(G0, Ushift, m)) if q == m]
        assert got == want
        assert count_coset_vectors(QuadLattice(G), shift, m) == len(got)
        assert len(got) == brute_count(QuadLattice(G0), Ushift, m) > 0


class TestComplement:
    def test_block_split(self):
        G = [[-2, -1, 0], [-1, -4, 0], [0, 0, 2]]
        L = QuadLattice(G)
        emb = orthogonal_complement(L, [[1, 0], [0, 1], [0, 0]])
        assert emb.complement.gram == ((2,),)
        assert emb.index == 1

    def test_full_sublattice(self):
        emb = orthogonal_complement(A2, [[1, 0], [0, 1]])
        assert emb.complement.rank == 0
        assert emb.index == 1

    def test_non_primitive_rejected(self):
        with pytest.raises(ValueError):
            orthogonal_complement(A2, [[2], [0]])

    def test_disc_identity_random(self):
        rng = random.Random(7)
        for _ in range(10):
            n = 3
            while True:
                B = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                G = [[2 * sum(B[k][i] * B[k][j] for k in range(n)) for j in range(n)]
                     for i in range(n)]
                for i in range(n):
                    G[i][i] += 4
                lat = QuadLattice(G)
                if not lat.is_degenerate:
                    break
            # primitive vector as sublattice
            while True:
                v = [rng.randint(-2, 2) for _ in range(n)]
                from math import gcd
                g = 0
                for x in v:
                    g = gcd(g, x)
                if g == 1 and lat.quadratic(v) != 0:
                    break
            emb = orthogonal_complement(lat, [[x] for x in v])
            assert emb.sub.disc * emb.complement.disc == lat.disc * emb.index ** 2


def build_glued_index7():
    """L = (L0 + Lambda) + Z*glue inside the rational span, glue of order 7.

    Returns (L, sub_basis of L0 in L-coordinates).
    """
    from speccy.linalg import inverse_fraction, lattice_basis, mat_vec
    G0 = [[-2, -1], [-1, -4]]
    GL = [[2, 1], [1, 4]]
    GP = [[G0[0][0], G0[0][1], 0, 0],
          [G0[1][0], G0[1][1], 0, 0],
          [0, 0, GL[0][0], GL[0][1]],
          [0, 0, GL[1][0], GL[1][1]]]
    glue = [Fraction(-4, 7), Fraction(1, 7), Fraction(4, 7), Fraction(-1, 7)]
    gens = [[Fraction(int(i == j)) for i in range(4)] for j in range(4)] + [glue]
    basis = lattice_basis(gens)  # columns in P-coordinates
    B = [[basis[j][i] for j in range(4)] for i in range(4)]
    gram = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            val = sum(Fraction(B[a][i]) * GP[a][b] * Fraction(B[b][j])
                      for a in range(4) for b in range(4))
            assert val.denominator == 1
            gram[i][j] = int(val)
    L = QuadLattice(gram)
    Binv = inverse_fraction(B)
    sub = []
    for col in ([1, 0, 0, 0], [0, 1, 0, 0]):
        c = mat_vec(Binv, col)
        assert all(Fraction(x).denominator == 1 for x in c)
        sub.append([int(x) for x in c])
    sub_basis = [[sub[j][i] for j in range(2)] for i in range(4)]
    return L, sub_basis


class TestGlue:
    def test_block_identity(self):
        G = [[-2, -1, 0], [-1, -4, 0], [0, 0, 2]]
        L = QuadLattice(G)
        emb = orthogonal_complement(L, [[1, 0], [0, 1], [0, 0]])
        g = discriminant_group(L)
        zero_pairs = glue_cosets(emb, g.zero())
        assert len(zero_pairs) == 1
        mu1, mu2 = zero_pairs[0]
        assert mu1.is_zero() and mu2.is_zero()

    def test_glued_index7(self):
        L, sub_basis = build_glued_index7()
        assert abs(L.det) == 1
        assert L.signature == (2, 2)
        emb = orthogonal_complement(L, sub_basis)
        assert emb.index == 7
        assert emb.sub.disc == 7 and emb.complement.disc == 7
        assert emb.sub.disc * emb.complement.disc == L.disc * emb.index ** 2
        pairs = glue_cosets(emb, discriminant_group(L).zero())
        assert len(pairs) == 7
        firsts = {p[0].coords for p in pairs}
        assert len(firsts) == 7
        assert any(p[0].is_zero() and p[1].is_zero() for p in pairs)

    def test_e8_root_sublattices(self):
        # every sublattice of E8 spanned by at most four simple roots (162
        # embeddings, glue indices 2 to 16): index-many distinct pairs, each
        # (mu1, mu2) the image of a vector of mu + L
        from test_qseries import E8
        zero = discriminant_group(E8).zero()
        indices = set()
        for k in range(1, 5):
            for roots in combinations(range(8), k):
                sub_basis = [[int(i == j) for j in roots] for i in range(8)]
                emb = orthogonal_complement(E8, sub_basis)
                pairs = glue_cosets(emb, zero)
                assert len(pairs) == emb.index == len(set(pairs))
                for mu1, mu2 in pairs:
                    x = [sum(b * y for b, y in zip(row, mu1.rep())) +
                         sum(c * y for c, y in zip(crow, mu2.rep()))
                         for row, crow in zip(emb.sub_basis, emb.complement_basis)]
                    assert all((a - b).denominator == 1 for a, b in zip(x, zero.rep()))
                indices.add(emb.index)
        assert indices == {2, 3, 4, 5, 6, 8, 9, 12, 16}

    @pytest.mark.parametrize("G", [D4, A2A2, A3, D5], ids=["D4", "A2+A2", "A3", "D5"])
    def test_root_sublattices_every_coset(self, G):
        # every sublattice spanned by a proper nonempty set of simple roots,
        # at every coset mu of L: index-many distinct pairs, each (mu1, mu2)
        # the image of a vector of mu + L
        L = QuadLattice(G)
        n = L.rank
        for k in range(1, n):
            for roots in combinations(range(n), k):
                emb = orthogonal_complement(L, [[int(i == j) for j in roots] for i in range(n)])
                for mu in discriminant_group(L).elements():
                    pairs = glue_cosets(emb, mu)
                    assert len(pairs) == emb.index == len(set(pairs))
                    for mu1, mu2 in pairs:
                        x = [sum(b * y for b, y in zip(row, mu1.rep())) +
                             sum(c * y for c, y in zip(crow, mu2.rep()))
                             for row, crow in zip(emb.sub_basis, emb.complement_basis)]
                        assert all((a - b).denominator == 1 for a, b in zip(x, mu.rep()))

    @pytest.mark.parametrize("a2,index", [([[2, -1], [-1, 2]], 79), ([[2, 1], [1, 2]], 103)])
    def test_d4_a2_a1_complement_in_budget(self, a2, index):
        # a primitive rank-2 sublattice of D4 + A2 + A1 whose complement,
        # in a Smith-form basis (Gram entries up to 172 with the second A2),
        # sent the discriminant group of glue_cosets into unbounded growth;
        # the HNF complement builds in milliseconds
        from test_linalg import time_limit
        G = [row + [0] * 3 for row in D4] + [[0] * 4 + row + [0] for row in a2] + [[0] * 6 + [2]]
        S = [list(row) for row in zip((1, 0, 0, -1, -1, 0, 1), (0, 1, 0, -1, 1, 1, -1))]
        with time_limit(1):
            L = QuadLattice(G)
            emb = orthogonal_complement(L, S)
            pairs = glue_cosets(emb, discriminant_group(L).zero())
        assert emb.index == index == len(pairs) == len(set(pairs))

    def test_coset_of_another_lattice_refused(self):
        emb = orthogonal_complement(QuadLattice(D4), [[1], [0], [0], [0]])
        with pytest.raises(ValueError, match="another lattice"):
            glue_cosets(emb, discriminant_group(QuadLattice(A2A2)).zero())
        # an equal lattice built apart is the same ambient lattice
        assert glue_cosets(emb, discriminant_group(QuadLattice(D4)).zero()) == \
            glue_cosets(emb, discriminant_group(emb.ambient).zero())


class TestInvariants:
    def test_glue_index_identity_is_checked(self):
        emb = orthogonal_complement(QuadLattice([[-2, -1, 0], [-1, -4, 0], [0, 0, 2]]),
                                    [[1, 0], [0, 1], [0, 0]])
        with pytest.raises(InvariantError):
            SublatticeEmbedding(emb.ambient, emb.sub_basis, emb.sub,
                                emb.complement_basis, emb.complement, box=(2,))

    def test_glue_pairs_are_fresh_lists(self):
        L, sub_basis = build_glued_index7()
        emb = orthogonal_complement(L, sub_basis)
        zero = discriminant_group(L).zero()
        first = glue_cosets(emb, zero)
        first.clear()
        assert glue_cosets(emb, zero) == glue_cosets(emb, zero) != []


def binary_grams(bound):
    """Every negative definite binary Gram [[-2a, -b], [-b, -2c]] of a reduced
    form (a, b, c), |b| <= a <= c, with 0 < 4ac - b^2 <= bound, primitive or
    not, each also in the skewed basis (e2 + k e1, e1), k = 1, 2 or 3."""
    for a in range(1, isqrt(bound // 3) + 1):
        for b in range(-a, a + 1):
            c = a
            while 4 * a * c - b * b <= bound:
                g1, t, g2 = -2 * a, -b, -2 * c
                k = 1 + (a + c) % 3
                yield [[g1, t], [t, g2]]
                yield [[g2 + 2 * k * t + k * k * g1, t + k * g1], [t + k * g1, g1]]
                c += 1


class TestCliffordDiscriminant:
    """The field of L0 comes from its even Clifford order, through
    EisensteinPackage.from_lattice, whose only admissibility test is
    ImQField.from_discriminant."""

    def clifford_square(self, lat):
        """Oracle: multiply e1 e2 e1 e2 in the rank-4 Clifford algebra with
        basis (1, e1, e2, e1e2) and read off trace and norm of w = e1 e2."""
        b = lat.gram[0][1]
        q1 = lat.gram[0][0] // 2
        q2 = lat.gram[1][1] // 2
        # e2 e1 = b - e1 e2; w^2 = e1 (b - e1 e2) e2 = b w - q1 q2
        trace, norm = b, q1 * q2
        return trace * trace - 4 * norm

    def refusal(self, lat):
        with pytest.raises(ValueError) as info:
            EisensteinPackage.from_lattice(lat)
        return str(info.value)

    def test_d7(self):
        assert EisensteinPackage.from_lattice(L0_D7).K.d == -7 == self.clifford_square(L0_D7)

    def assert_refused(self, gram, d):
        lat = QuadLattice(gram)
        assert self.clifford_square(lat) == d
        assert str(d) in self.refusal(lat).split()

    def test_d4(self):
        self.assert_refused([[-2, 0], [0, -2]], -4)

    def test_d12(self):
        self.assert_refused([[-4, -2], [-2, -4]], -12)

    def test_d27(self):
        self.assert_refused([[-2, -1], [-1, -14]], -27)

    def test_requires_negative_definite(self):
        for lat in (A2, A1, QuadLattice([[-2, 0, 0], [0, -2, 0], [0, 0, -2]]), U_HYP):
            assert self.refusal(lat) == ("even Clifford discriminant requires a negative "
                                         "definite binary lattice")

    def test_sweep_of_binary_grams(self):
        """Every negative definite binary Gram with |d| <= 200, reduced and
        skewed: an odd fundamental d gives the field of discriminant d, and
        every other d is refused by a message that names it."""
        seen = set()
        for gram in binary_grams(200):
            lat = QuadLattice(gram)
            d = self.clifford_square(lat)
            assert lat.is_negative_definite() and -200 <= d < 0
            seen.add(d)
            if d % 4 == 1 and all(e == 1 for e in sympy.factorint(-d).values()):
                assert EisensteinPackage.from_lattice(lat).K.d == d
            else:
                assert str(d) in self.refusal(lat).split()
        assert seen == {d for d in range(-200, 0) if d % 4 in (0, 1)}

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(-10 ** 6, 10 ** 6))
    def test_fundamental_matches_factorint(self, d):
        def squarefree(n):
            return n != 0 and all(e == 1 for e in sympy.factorint(abs(n)).values())

        want = (d == 1 or (d % 4 == 1 and squarefree(d))
                or (d % 16 in (8, 12) and squarefree(d // 4)))
        assert is_fundamental_discriminant(d) == want
