"""The Weil representation attached to an even lattice, acting on the
functions on the discriminant group, together with its contragredient
variant (entrywise conjugate generator matrices; theta series of positive
definite lattices transform under it).

Conventions.  With sig8 = (p - q) mod 8,

    omega(T)  is diagonal with entry e(-Q(mu)) at mu,
    omega(S)  has (nu, mu) entry e(sig8 / 8) * e([mu, nu]) / sqrt(|D|).

E [mu, nu] mod E (E the exponent) is the group's one integer pairing,
DiscriminantGroup.b_int.  Metaplectic elements are words in S, T, T^-1;
the cocycle is never needed because every computation composes generator
matrices.

Square roots are folded once per word.  Matrices carry their power of
1/sqrt(|D|) separately, so products of generators stay in integer
cyclotomic entries.  A word's product is one call of cyclotomic._matmul,
which keeps the partial products as integer exponent dicts and builds
CycNums only for the result: rep_matrix gives it the letters' matrices,
and one push (_push) the letters (WeilRep.apply) or one product
(ScaledMatrix.apply) followed by the vector as a column.  Only the end
result folds the power in (_fold: one factor per entry, a rational scale,
which only moves the entry's denominator, times the Gauss-sum root of |D|
for an odd power); a comparison multiplies by that root only when the two
powers differ in parity.  Every matrix carries the discriminant form it
acts on (elementary divisors and Q-values in coset order), and products
and comparisons refuse matrices of two different forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .cyclotomic import CycNum, _cyc, _is_product, _matmul, sqrt_cyclotomic
from .lattice import DiscriminantGroup

VARIANTS = ("omega", "contragredient")

S = "S"
T = "T"
T_INV = "T^-1"


def _same_form(a, b):
    if a.form != b.form:
        (da, qa), (db, qb) = a.form, b.form
        what = (f"orders {len(qa)} and {len(qb)}" if len(qa) != len(qb)
                else f"elementary divisors {da} and {db}" if da != db
                else "Q-values in coset order")
        raise ValueError(f"matrices over different discriminant forms: {what} differ")


def _fold(xs, D, s):
    """xs * D^(-s/2), exact: one factor per entry, the square root of an
    odd power as a Gauss sum times the rational scale."""
    f = Fraction(1, D ** ((s + 1) // 2))
    if s % 2:
        f = sqrt_cyclotomic(D) * f
    return list(xs) if f == 1 else [x * f for x in xs]


def _push(mats, vec, D):
    """mats[0] ... mats[-1] vec, |D| = D: one product of the matrices and
    the vector as a column, and one fold of their summed powers of
    1/sqrt(D)."""
    col = [[x if isinstance(x, CycNum) else CycNum.from_rational(x)] for x in vec]
    out = _matmul(*(M.entries for M in mats), col)
    return _fold([row[0] for row in out], D, sum(M.sqrt_power for M in mats))


class ScaledMatrix:
    """entries * |D|^(-s/2) with exact cyclotomic entries, acting on the
    functions on a discriminant form; form = (elementary divisors,
    Q-values in coset order) identifies it, and |D| is its length."""

    def __init__(self, entries, sqrt_power, form):
        self.entries = entries
        self.sqrt_power = sqrt_power
        self.form = form
        self.disc_order = len(form[1])

    @property
    def dim(self):
        return len(self.entries)

    def matmul(self, other):
        _same_form(self, other)
        return ScaledMatrix(_matmul(self.entries, other.entries),
                            self.sqrt_power + other.sqrt_power, self.form)

    def apply(self, vec):
        return _push([self], vec, self.disc_order)

    def conjugate(self):
        return ScaledMatrix([[x.conjugate() for x in row] for row in self.entries],
                            self.sqrt_power, self.form)

    def __eq__(self, other):
        if not isinstance(other, ScaledMatrix):
            return NotImplemented
        _same_form(self, other)
        D = self.disc_order
        A, B = self.entries, other.entries
        diff = self.sqrt_power - other.sqrt_power
        if diff < 0:
            A, B, diff = B, A, -diff
        # value equality: A * D^(-sA/2) == B * D^(-sB/2), i.e. A == B * D^(diff/2)
        scale = D ** (diff // 2)
        scale = sqrt_cyclotomic(D) * scale if diff % 2 else CycNum.from_rational(scale)
        return all(_is_product(a, b, scale)
                   for row_a, row_b in zip(A, B) for a, b in zip(row_a, row_b))

    def to_complex(self):
        sc = float(self.disc_order) ** (-self.sqrt_power / 2)
        return [[x.to_complex() * sc for x in row] for row in self.entries]


class WeilRep:
    """omega_L acting on functions on L^vee / L."""

    def __init__(self, disc: DiscriminantGroup):
        self.disc = disc
        self.dim = disc.order
        p, q = disc.lattice.signature
        self.sig8 = (p - q) % 8
        self._cosets = list(disc.elements())
        self._neg = [disc.index_of(-c) for c in self._cosets]
        self._q = [disc.q_map(c) for c in self._cosets]
        self.form = (tuple(disc.elementary_divisors), tuple(self._q))
        self._gen_cache = {}

    def _monomial(self, rows, values):
        """The matrix with values[j] at (rows[j], j) and zeros elsewhere."""
        zero = CycNum()
        ent = [[zero] * len(rows) for _ in rows]
        for j, (i, x) in enumerate(zip(rows, values)):
            ent[i][j] = x
        return ScaledMatrix(ent, 0, self.form)

    def omega_T(self) -> ScaledMatrix:
        """Diagonal matrix with entry e(-Q(mu))."""
        return self._monomial(range(self.dim), [CycNum.e(-q) for q in self._q])

    def omega_S(self) -> ScaledMatrix:
        """(nu, mu) entry e(sig8/8) e([mu, nu]) / sqrt(|D|), via b_int."""
        b, E = self.disc.b_int, self.disc.exponent
        cond = lcm(8, E)
        root8 = self.sig8 * (cond // 8)
        step = cond // E
        ent = [[_cyc(cond, {(root8 + step * b(mu, nu)) % cond: 1}) for mu in self._cosets]
               for nu in self._cosets]
        return ScaledMatrix(ent, 1, self.form)

    def omega_Z(self) -> ScaledMatrix:
        """The center: phi_mu -> e(sig8/4) phi_{-mu}."""
        return self._monomial(self._neg, [CycNum.e(Fraction(self.sig8, 4))] * self.dim)

    def generator_matrix(self, token, variant="omega") -> ScaledMatrix:
        if variant not in VARIANTS:
            raise ValueError(f"unknown representation variant {variant!r}")
        key = (token, variant)
        if key not in self._gen_cache:
            if token == S:
                M = self.omega_S()
            elif token == T:
                M = self.omega_T()
            elif token == T_INV:
                M = self.omega_T().conjugate()  # diagonal unitary: inverse = conjugate
            else:
                raise ValueError(f"unknown generator {token!r}")
            if variant == "contragredient":
                # inverse transpose = entrywise conjugate for unitary
                # generator matrices
                M = M.conjugate()
            self._gen_cache[key] = M
        return self._gen_cache[key]

    def rep_matrix(self, word, variant="omega") -> ScaledMatrix:
        """Matrix of the word g1 g2 ... gr: product of generator matrices."""
        mats = [self.generator_matrix(g, variant) for g in word]
        if not mats:
            return self._monomial(range(self.dim), [CycNum.from_rational(1)] * self.dim)
        return ScaledMatrix(_matmul(*(M.entries for M in mats)),
                            sum(M.sqrt_power for M in mats), self.form)

    def apply(self, variant, word, vec):
        """Apply the representation of a word to a vector of length dim.

        Entries may be ints, Fractions, or CycNums; the result is a list of
        CycNums with the word's square-root scale folded in exactly, once.
        """
        if variant not in VARIANTS:
            raise ValueError(f"unknown representation variant {variant!r}")
        if len(vec) != self.dim:
            raise ValueError("vector length does not match discriminant group order")
        return _push([self.generator_matrix(g, variant) for g in word], vec, self.dim)
