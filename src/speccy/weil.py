"""The Weil representation attached to an even lattice, acting on the
functions on the discriminant group, together with its contragredient
variant (entrywise conjugate generator matrices; theta series of positive
definite lattices transform under it).

Conventions.  With sig8 = (p - q) mod 8,

    omega(T)  is diagonal with entry e(-Q(mu)) at mu,
    omega(S)  has (nu, mu) entry e(sig8 / 8) * e([mu, nu]) / sqrt(|D|).

Metaplectic elements are words in the generators S, T, T^-1; the cocycle
is never needed because every computation composes generator matrices.
Matrices carry their power of 1/sqrt(|D|) separately so products of
generators stay exact; comparisons fold the square root in via Gauss sums
when the powers disagree in parity.  A product accumulates each entry's
sum of products in one exponent dict (cyclotomic._matmul).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .cyclotomic import CycNum, _matmul, sqrt_cyclotomic
from .lattice import DiscriminantGroup

VARIANTS = ("omega", "contragredient")

S = "S"
T = "T"
T_INV = "T^-1"


def _same_group(a, b):
    if a.disc_order != b.disc_order:
        raise ValueError(f"matrices over discriminant groups of orders "
                         f"{a.disc_order} and {b.disc_order}")


def _fold(xs, D, s, den=1):
    """xs * D^(-s/2) / den, exact: the square root of an odd power as a
    Gauss sum with integer coefficients, then one rational scale."""
    if s % 2:
        root = sqrt_cyclotomic(D)
        xs = [x * root for x in xs]
    scale = Fraction(1, den * D ** ((s + 1) // 2))
    return list(xs) if scale == 1 else [x * scale for x in xs]


class ScaledMatrix:
    """entries * |D|^(-s/2) with exact cyclotomic entries."""

    def __init__(self, entries, sqrt_power, disc_order):
        self.entries = entries
        self.sqrt_power = sqrt_power
        self.disc_order = disc_order

    @property
    def dim(self):
        return len(self.entries)

    def matmul(self, other):
        _same_group(self, other)
        return ScaledMatrix(_matmul(self.entries, other.entries),
                            self.sqrt_power + other.sqrt_power, self.disc_order)

    def apply(self, vec):
        vec = [x if isinstance(x, CycNum) else CycNum.from_rational(x) for x in vec]
        # integer coefficients through the product, one rational scale after
        den = lcm(*(c.denominator for x in vec for c in x.terms.values()))
        out = _matmul(self.entries, [[x * den] for x in vec])
        return _fold([row[0] for row in out], self.disc_order, self.sqrt_power, den)

    def conjugate(self):
        return ScaledMatrix([[x.conjugate() for x in row] for row in self.entries],
                            self.sqrt_power, self.disc_order)

    def transpose(self):
        n = self.dim
        return ScaledMatrix([[self.entries[j][i] for j in range(n)] for i in range(n)],
                            self.sqrt_power, self.disc_order)

    def scaled_entries(self):
        """Entries with the square-root scale folded in exactly."""
        return [_fold(row, self.disc_order, self.sqrt_power) for row in self.entries]

    def __eq__(self, other):
        if not isinstance(other, ScaledMatrix):
            return NotImplemented
        _same_group(self, other)
        if self.dim != other.dim:
            return False
        D = self.disc_order
        A, B = self.entries, other.entries
        diff = self.sqrt_power - other.sqrt_power
        if diff < 0:
            A, B, diff = B, A, -diff
        # value equality: A * D^(-sA/2) == B * D^(-sB/2), i.e. A == B * D^(diff/2)
        scale = D ** (diff // 2)
        if diff % 2:
            scale = sqrt_cyclotomic(D) * scale
        return all(A[i][j] == B[i][j] * scale
                   for i in range(self.dim) for j in range(self.dim))

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
        # [g_s, g_t] = P[s][t] / E mod 1 for the generators g_s, with E
        # the exponent of the group (the group's generator table); row i
        # of _paired is the coordinates of mu_i times P
        E = disc.exponent
        P = disc.pairing
        self._coords = [c.coords for c in self._cosets]
        self._paired = [[sum(a * P[s][t] for s, a in enumerate(v)) % E
                         for t in range(len(P))] for v in self._coords]
        self._gen_cache = {}

    def cosets(self):
        return list(self._cosets)

    def _bilinear(self, i, j):
        """[mu_i, mu_j] = k / E mod 1, E the exponent of the group; returns
        the integer k in [0, E)."""
        k = sum(x * y for x, y in zip(self._paired[i], self._coords[j]))
        return k % self.disc.exponent

    def omega_T(self) -> ScaledMatrix:
        """Diagonal matrix with entry e(-Q(mu))."""
        n = self.dim
        ent = [[CycNum() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            ent[i][i] = CycNum.e(-self._q[i])
        return ScaledMatrix(ent, 0, self.dim)

    def omega_S(self) -> ScaledMatrix:
        """(nu, mu) entry e(sig8/8) e([mu, nu]) / sqrt(|D|)."""
        n = self.dim
        E = self.disc.exponent
        cond = lcm(8, E)
        root8 = self.sig8 * (cond // 8)
        step = cond // E
        ent = [[CycNum({root8 + step * self._bilinear(j, i): 1}, cond) for j in range(n)]
               for i in range(n)]
        return ScaledMatrix(ent, 1, self.dim)

    def omega_Z(self) -> ScaledMatrix:
        """The center: phi_mu -> e(sig8/4) phi_{-mu}."""
        n = self.dim
        root4 = CycNum.e(Fraction(self.sig8, 4))
        ent = [[CycNum() for _ in range(n)] for _ in range(n)]
        for j in range(n):
            ent[self._neg[j]][j] = root4
        return ScaledMatrix(ent, 0, self.dim)

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
        n = self.dim
        ent = [[CycNum.from_rational(int(i == j)) for j in range(n)] for i in range(n)]
        out = ScaledMatrix(ent, 0, self.dim)
        for g in word:
            out = out.matmul(self.generator_matrix(g, variant))
        return out

    def apply(self, variant, word, vec):
        """Apply the representation of a word to a vector of length dim.

        Entries may be ints, Fractions, or CycNums; the result is a list of
        CycNums with all square-root scales folded in exactly.
        """
        if variant not in VARIANTS:
            raise ValueError(f"unknown representation variant {variant!r}")
        if len(vec) != self.dim:
            raise ValueError("vector length does not match discriminant group order")
        out = [x if isinstance(x, CycNum) else CycNum.from_rational(x) for x in vec]
        for g in reversed(word):
            # rightmost generator acts first
            M = self.generator_matrix(g, variant)
            out = M.apply(out)
        return out

    def level(self):
        return self.disc.lattice.level()
