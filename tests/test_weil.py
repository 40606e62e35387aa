import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import speccy
from speccy import weil
from speccy.cyclotomic import CycNum, sqrt_cyclotomic
from speccy.lattice import QuadLattice, discriminant_group
from speccy.weil import S, T, T_INV, VARIANTS, ScaledMatrix, WeilRep

LATTICES = [
    QuadLattice([[2]]),
    QuadLattice([[-2]]),
    QuadLattice([[0, 1], [1, 0]]),
    QuadLattice([[2, 1], [1, 2]]),
    QuadLattice([[-2, -1], [-1, -4]]),
]


def wrep(lat):
    return WeilRep(discriminant_group(lat))


class TestGenerators:
    def test_T_diagonal_a1(self):
        w = wrep(QuadLattice([[2]]))
        M = w.omega_T()
        assert M.entries[0][0] == 1
        assert M.entries[1][1] == CycNum.e(Fraction(-1, 4))
        assert M.entries[0][1].is_zero()

    def test_T_trivial_group(self):
        w = wrep(QuadLattice([[0, 1], [1, 0]]))
        M = w.omega_T()
        assert M.dim == 1 and M.entries[0][0] == 1

    def test_sig8_of_signature_1_2(self):
        # U + <-2> has signature (1, 2), so sig8 = (1 - 2) mod 8 = 7
        lat = QuadLattice([[0, 1, 0], [1, 0, 0], [0, 0, -2]])
        w = wrep(lat)
        assert w.sig8 == 7

    @pytest.mark.parametrize("lat", LATTICES + [QuadLattice([[-2, 0, 0], [0, 2, 0], [0, 0, 6]])])
    def test_S_entries_from_the_pairing(self, lat):
        # each entry against [nu, mu] mod 1 on coset representatives, in
        # Fractions, apart from the group's integer pairing that omega_S reads
        w = wrep(lat)
        M = w.omega_S()
        cosets = list(w.disc.elements())
        for i, mu in enumerate(cosets):
            for j, nu in enumerate(cosets):
                want = CycNum.e(Fraction(w.sig8, 8) + lat.bilinear(nu.rep(), mu.rep()) % 1)
                assert M.entries[i][j] == want

    def test_S_a1(self):
        # gram [[2]], signature (1,0): 2x2 matrix e(1/8)/sqrt(2)*[[1,1],[1,-1]]
        w = wrep(QuadLattice([[2]]))
        M = w.omega_S()
        e8 = CycNum.e(Fraction(1, 8))
        assert M.sqrt_power == 1
        assert M.entries[0][0] == e8
        assert M.entries[0][1] == e8
        assert M.entries[1][0] == e8
        # b(1/2,1/2) = 1/2: entry e(1/8) * e(1/2) = -e(1/8)
        assert M.entries[1][1] == e8 * CycNum.e(Fraction(1, 2))

    def test_unitarity(self):
        for lat in LATTICES:
            w = wrep(lat)
            M = w.omega_S()
            n = M.dim
            C = M.conjugate()
            conjT = ScaledMatrix([list(col) for col in zip(*C.entries)], C.sqrt_power, C.form)
            P = conjT.matmul(M)
            # P = identity * |D|^(-1) at sqrt_power 2
            for i in range(n):
                for j in range(n):
                    want = Fraction(w.dim) if i == j else Fraction(0)
                    assert P.entries[i][j] == want


class TestRelations:
    @pytest.mark.parametrize("lat", LATTICES)
    def test_S_squared_is_Z(self, lat):
        w = wrep(lat)
        S2 = w.omega_S().matmul(w.omega_S())
        assert S2 == w.omega_Z()

    @pytest.mark.parametrize("lat", LATTICES)
    def test_ST_cubed_is_Z(self, lat):
        w = wrep(lat)
        ST = w.omega_S().matmul(w.omega_T())
        assert ST.matmul(ST).matmul(ST) == w.omega_Z()

    @pytest.mark.parametrize("lat", LATTICES)
    def test_Z_squared(self, lat):
        w = wrep(lat)
        Z2 = w.omega_Z().matmul(w.omega_Z())
        phase = CycNum.e(Fraction(w.sig8, 2))
        for i in range(w.dim):
            for j in range(w.dim):
                want = phase if i == j else CycNum()
                assert (Z2.entries[i][j] - want).is_zero()

    @pytest.mark.parametrize("lat", LATTICES)
    def test_T_order_is_level(self, lat):
        w = wrep(lat)
        N = lat.level()
        M = w.rep_matrix([T] * N)
        for i in range(w.dim):
            for j in range(w.dim):
                want = 1 if i == j else 0
                assert M.entries[i][j] == want
        if N > 1:
            M1 = w.rep_matrix([T] * (N - 1))
            assert any(not (M1.entries[i][i] - 1).is_zero() for i in range(w.dim))


# |D| <= 16, definite of both signs and indefinite; [[2, 0], [0, -4]] and
# [[2, 0], [0, 6]] have the non-cyclic groups Z/2 x Z/4 and Z/2 x Z/6
PROPERTY_GRAMS = [
    [[2]],
    [[2, 1], [1, 2]],
    [[2, 0], [0, 2]],
    [[-2, -1], [-1, -4]],
    [[2, 0], [0, -4]],
    [[2, 1], [1, 6]],
    [[2, 0], [0, 6]],
    [[4, 1], [1, 4]],
    [[2, 0], [0, 8]],
]
_PROPERTY_REPS = {}


def property_rep(i):
    if i not in _PROPERTY_REPS:
        _PROPERTY_REPS[i] = wrep(QuadLattice(PROPERTY_GRAMS[i]))
    return _PROPERTY_REPS[i]


def per_letter_oracle(w, variant, word, vec):
    """The word applied letter by letter, each generator's scale folded
    into its entries (one weil._fold of the whole matrix) and the products
    summed as CycNums: no _matmul and no carried power of sqrt(|D|)."""
    out = [CycNum.from_rational(x) for x in vec]
    for g in reversed(word):
        G = w.generator_matrix(g, variant)
        n = G.dim
        flat = weil._fold([x for row in G.entries for x in row], G.disc_order, G.sqrt_power)
        M = [flat[i:i + n] for i in range(0, n * n, n)]
        nxt = []
        for row in M:
            acc = CycNum()
            for m, x in zip(row, out):
                acc = acc + m * x
            nxt.append(acc)
        out = nxt
    return out


@st.composite
def weil_cases(draw):
    w = property_rep(draw(st.integers(0, len(PROPERTY_GRAMS) - 1)))
    variant = draw(st.sampled_from(VARIANTS))
    word = tuple(draw(st.lists(st.sampled_from([S, T, T_INV]), max_size=6)))
    vec = draw(st.lists(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
                        min_size=w.dim, max_size=w.dim))
    return w, variant, word, vec


class TestApply:
    def test_empty_word(self):
        w = wrep(QuadLattice([[2]]))
        v = [Fraction(3), Fraction(-1, 2)]
        out = w.apply("omega", (), v)
        assert out[0] == 3 and out[1] == Fraction(-1, 2)

    def test_T_Tinv_cancels(self):
        w = wrep(QuadLattice([[-2, -1], [-1, -4]]))
        v = [Fraction(k + 1) for k in range(w.dim)]
        out = w.apply("omega", (T, T_INV), v)
        for a, b in zip(out, v):
            assert a == b

    def test_dimension_mismatch(self):
        w = wrep(QuadLattice([[2]]))
        with pytest.raises(ValueError):
            w.apply("omega", (T,), [1])

    def test_matrix_apply_refuses_a_wrong_length(self):
        # |D| = 7: a vector of length 2 is refused, not cut to a zip's length
        w = wrep(QuadLattice([[-2, -1], [-1, -4]]))
        assert w.dim == 7
        for M in (w.omega_S(), w.omega_T(), w.rep_matrix((S, T))):
            with pytest.raises(ValueError, match="row of length 7 and a matrix of 2 rows"):
                M.apply([1, 2])
            with pytest.raises(ValueError, match="row of length 7 and a matrix of 8 rows"):
                M.apply(list(range(8)))

    def test_integer_path(self, monkeypatch):
        # integer input keeps every coefficient an int over denominator 1:
        # the word matrix, and the pushed column before its fold; a
        # rational vector only moves the denominators
        w = wrep(QuadLattice([[2, 1], [1, 6]]))
        pushed = []
        fold = weil._fold
        monkeypatch.setattr(weil, "_fold",
                            lambda xs, D, s: pushed.append(list(xs)) or fold(xs, D, s))

        def integral(xs):
            return all(x.den == 1 and all(type(c) is int for c in x.terms.values())
                       for x in xs)

        for word in ((S, T, S, T_INV), (T, S, S, T), (S,)):
            M = w.rep_matrix(word)
            assert integral(x for row in M.entries for x in row)
            w.apply("omega", word, list(range(w.dim)))
            M.apply([k - 5 for k in range(w.dim)])
            assert len(pushed) == 2 and all(integral(xs) for xs in pushed)
            pushed.clear()
            w.apply("omega", word, [Fraction(k, 6) for k in range(w.dim)])
            assert all(6 % x.den == 0 and all(type(c) is int for c in x.terms.values())
                       for x in pushed.pop())

    def test_pairing_invariance(self):
        # <omega(g) u, contragredient(g) v> = <u, v> for the bilinear pairing
        rng = random.Random(3)
        for lat in LATTICES[:4]:
            w = wrep(lat)
            word = tuple(rng.choice([S, T, T_INV]) for _ in range(4))
            u = [Fraction(rng.randint(-3, 3)) for _ in range(w.dim)]
            v = [Fraction(rng.randint(-3, 3)) for _ in range(w.dim)]
            gu = w.apply("omega", word, u)
            gv = w.apply("contragredient", word, v)
            lhs = CycNum()
            for a, b in zip(gu, gv):
                lhs = lhs + a * b
            rhs = sum(a * b for a, b in zip(u, v))
            assert lhs == rhs

    def test_contragredient_is_conjugate_per_generator(self):
        for lat in LATTICES:
            w = wrep(lat)
            for tok in (S, T, T_INV):
                A = w.generator_matrix(tok, "contragredient")
                B = w.generator_matrix(tok, "omega").conjugate()
                assert all((A.entries[i][j] - B.entries[i][j]).is_zero()
                           for i in range(w.dim) for j in range(w.dim))

    def test_unknown_generator_refused(self):
        w = wrep(QuadLattice([[2]]))
        with pytest.raises(ValueError, match="unknown generator 'U'"):
            w.apply("omega", ("U",), [1, 0])
        with pytest.raises(ValueError, match="unknown generator 'U'"):
            w.rep_matrix(("U",))

    def test_unknown_variant_refused(self):
        w = wrep(QuadLattice([[2]]))
        with pytest.raises(ValueError, match="unknown representation variant 'dual'"):
            w.generator_matrix(S, "dual")
        # the empty word reaches no generator matrix: apply checks it itself
        with pytest.raises(ValueError, match="unknown representation variant 'dual'"):
            w.apply("dual", (), [1, 0])

    def test_property_grams_cover_the_sizes(self):
        dims = sorted(property_rep(i).dim for i in range(len(PROPERTY_GRAMS)))
        assert dims[-1] <= 16 and 15 in dims
        assert tuple(property_rep(4).disc.elementary_divisors) == (2, 4)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(weil_cases())
    def test_apply_matches_word_matrix(self, case):
        # three routes: apply folds the word's root once, the word matrix
        # folds it once after its product, and the oracle folds per letter
        w, variant, word, vec = case
        via_apply = w.apply(variant, word, vec)
        via_matrix = w.rep_matrix(word, variant).apply(vec)
        via_letters = per_letter_oracle(w, variant, word, vec)
        assert len(via_apply) == len(via_matrix) == len(via_letters) == w.dim
        for a, b, c in zip(via_apply, via_matrix, via_letters):
            assert a == c and b == c

    def test_one_root_per_word(self, monkeypatch):
        # the word's square-root power is folded once: one Gauss sum built
        # for a word with three S letters, and one for an (ST)^3 check
        calls = []
        monkeypatch.setattr(weil, "sqrt_cyclotomic",
                            lambda n: calls.append(n) or sqrt_cyclotomic(n))
        w = wrep(QuadLattice([[2, 1], [1, 6]]))
        w.apply("omega", (S, T, S, T_INV, S), [Fraction(k, 2) for k in range(w.dim)])
        assert calls == [w.dim]
        calls.clear()
        ST = w.omega_S().matmul(w.omega_T())
        assert ST.matmul(ST).matmul(ST) == w.omega_Z()
        assert calls == [w.dim]


class TestNegatedLattice:
    def test_omega_of_negated_is_conjugate(self):
        # the representation of the sign-flipped lattice has the entrywise
        # conjugated generator matrices (same underlying group)
        for gram in ([[2]], [[2, 1], [1, 2]], [[-2, -1], [-1, -4]]):
            lat = QuadLattice(gram)
            neg = QuadLattice([[-x for x in row] for row in gram])
            w = wrep(lat)
            wn = wrep(neg)
            assert w.dim == wn.dim
            for tok in (T, S):
                A = wn.generator_matrix(tok, "omega")
                B = w.generator_matrix(tok, "omega").conjugate()
                # coset orders may differ between the two groups; compare
                # through the canonical representatives
                perm = []
                for c in wn.disc.elements():
                    match = w.disc.from_vector(list(c.rep()))
                    perm.append(w.disc.index_of(match))
                for i in range(w.dim):
                    for j in range(w.dim):
                        lhs = A.entries[i][j]
                        rhs = B.entries[perm[i]][perm[j]]
                        assert (lhs - rhs).is_zero(), (gram, tok, i, j)


class TestLargerGroup:
    def test_relations_disc_71(self):
        # |D| = 71: a 71 x 71 representation over Q(zeta_284)
        w = wrep(QuadLattice([[2, 1], [1, 36]]))
        assert w.dim == 71
        S = w.omega_S()
        Z = w.omega_Z()
        assert S.matmul(S) == Z
        Z2 = Z.matmul(Z)
        phase = CycNum.e(Fraction(w.sig8, 2))
        for i in range(w.dim):
            for j in range(w.dim):
                want = phase if i == j else CycNum()
                assert (Z2.entries[i][j] - want).is_zero()


A2 = [[2, 1], [1, 2]]
MINUS_A2 = [[-2, -1], [-1, -2]]


class TestGroupMismatch:
    def test_matmul_and_eq_refuse_two_lattices(self):
        a = wrep(QuadLattice([[2]])).omega_S()
        b = wrep(QuadLattice([[2, 1], [1, 2]])).omega_S()
        with pytest.raises(ValueError, match="orders 2 and 3"):
            a.matmul(b)
        with pytest.raises(ValueError, match="orders 2 and 3"):
            a == b  # noqa: B015

    @pytest.mark.parametrize("gram_a,gram_b,tok_a,tok_b,what", [
        # Z/2 x Z/2 against Z/4, and Q = 1/3 against Q = 2/3 on Z/3
        ([[2, 0], [0, 2]], [[4]], S, T, r"elementary divisors \(2, 2\) and \(4,\)"),
        (A2, MINUS_A2, T, T, "Q-values in coset order"),
    ])
    def test_equal_orders_refused(self, gram_a, gram_b, tok_a, tok_b, what):
        a = wrep(QuadLattice(gram_a)).generator_matrix(tok_a)
        b = wrep(QuadLattice(gram_b)).generator_matrix(tok_b)
        assert a.disc_order == b.disc_order
        with pytest.raises(ValueError, match=what):
            a.matmul(b)
        with pytest.raises(ValueError, match=what):
            a == b  # noqa: B015

    def test_same_lattice_still_compares(self):
        a = wrep(QuadLattice(A2)).omega_T()
        assert a == wrep(QuadLattice(A2)).omega_T()
        assert a.matmul(a.conjugate()) == wrep(QuadLattice(A2)).rep_matrix(())

    def test_checks_survive_optimize(self):
        # python -O strips assert statements; these checks must still fire
        script = (
            "assert False, 'python -O is not in effect'\n"
            "from speccy.lattice import QuadLattice, discriminant_group\n"
            "from speccy.weil import WeilRep\n"
            "def rep(gram):\n"
            "    return WeilRep(discriminant_group(QuadLattice(gram)))\n"
            "pairs = [(rep([[2]]).omega_T(), rep([[2, 1], [1, 2]]).omega_T()),\n"
            "         (rep([[2, 0], [0, 2]]).omega_S(), rep([[4]]).omega_T()),\n"
            "         (rep([[2, 1], [1, 2]]).omega_T(), rep([[-2, -1], [-1, -2]]).omega_T())]\n"
            "for a, b in pairs:\n"
            "    for check in (lambda: a.matmul(b), lambda: a == b):\n"
            "        try:\n"
            "            check()\n"
            "        except ValueError:\n"
            "            pass\n"
            "        else:\n"
            "            raise SystemExit('mismatch not refused')\n"
            "print('ok')\n")
        src = os.path.dirname(os.path.dirname(speccy.__file__))
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"


class TestMixedSignatureSweep:
    def test_relations_mixed(self):
        # lattices of assorted signatures with |disc| <= 50
        grams = [
            [[2, 0], [0, -4]],
            [[-2, 1], [1, 2]],
            [[2, 1], [1, 4]],
            [[4, 1], [1, 4]],
            [[-2, 0, 0], [0, 2, 0], [0, 0, 6]],
        ]
        for g in grams:
            lat = QuadLattice(g)
            w = wrep(lat)
            S2 = w.omega_S().matmul(w.omega_S())
            assert S2 == w.omega_Z()
