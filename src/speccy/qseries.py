"""Vector-valued q-expansions graded over the rationals: theta series of
definite lattices, constant-term extraction against an Eisenstein and a
theta table, and formal principal parts of Hejhal-Poincare type.

Coefficient data, tables and principal parts alike, is keyed by (m, coset
index) with m an exact Fraction, and check_support is its one support-law
check: the law is a congruence mod Z, meaningless in floating point.

_splits walks the splits m = m1 + m2 of an exponent along the glue of L0 +
Lambda, with R(m2, mu2) read off the theta table, once for both the
pullback table and the constant-term pairing.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import lcm

from .lattice import (
    Coset,
    DiscriminantGroup,
    InputRefusal,
    QuadLattice,
    SublatticeEmbedding,
    ball_sweep,
    discriminant_group,
    glue_cosets,
)


def check_support(group: DiscriminantGroup, entries: dict, zero=0):
    """The check of coefficient data keyed by (m, coset index), tables and
    principal parts alike: every index in range, then the support law m =
    Q(mu) mod Z at every entry before mu -> -mu symmetry (an absent entry
    reads zero)."""
    asymmetric = None
    for (m, i), val in entries.items():
        c = group.coset_by_index(i)
        if (m - group.q_map(c)) % 1 != 0:
            raise ValueError(f"support law violated at ({m}, {c})")
        if asymmetric is None and entries.get((m, group.index_of(-c)), zero) != val:
            asymmetric = f"coefficient at ({m}, {c}) breaks mu -> -mu symmetry"
    if asymmetric:
        raise ValueError(asymmetric)
    return True


class VVFormQ:
    """Finitely supported vector-valued q-expansion for the contragredient
    Weil representation: a theta table of a definite lattice (integer
    entries), or the a^+ table of E'_{L0} (LogLinear entries), which pairs
    with theta tables in omega-bar_L.

    entries maps (m, coset index) to a nonzero coefficient, the index
    that of elements() (zero coset first, then lexicographic), so sorted
    entries run by exponent, then coset.  Only rows() expands a coset
    vector.  cutoff records the largest exponent the table is complete up
    to.
    """

    variant = "contragredient"

    def __init__(self, weight: Fraction, group: DiscriminantGroup,
                 entries: dict, cutoff: Fraction):
        self.weight, self.group = weight, group
        self.entries, self.cutoff = entries, cutoff
        # the entry at every (m, coset) absent from the table
        self._zero = type(next(iter(entries.values())))() if entries else 0

    def coefficient(self, m, mu: Coset):
        """The entry at (m, mu): the entries' zero at any exponent up to the
        cutoff that the table does not hold, KeyError past the cutoff."""
        m = Fraction(m)
        if m > self.cutoff:
            raise KeyError(f"coefficient at exponent {m} beyond table cutoff {self.cutoff}")
        return self.entries.get((m, self.group.index_of(mu)), self._zero)

    def rows(self):
        """(m, coefficient vector in coset order) for each exponent that
        holds a nonzero entry, ascending: the dense view printers show."""
        vecs = {}
        for m, i in sorted(self.entries):
            vecs.setdefault(m, [self._zero] * self.group.order)[i] = self.entries[m, i]
        return [(m, tuple(vec)) for m, vec in vecs.items()]

    def check_support(self):
        """The module's check_support on every stored coefficient."""
        return check_support(self.group, self.entries, self._zero)

    def evaluate(self, tau):
        """(value vector, certified tail bound) of a theta table at tau in
        the upper half plane, from the finite table up to the cutoff.  The
        bound is math.inf when Im tau is too small for theta_tail_bound to
        reach the geometric closure of its series."""
        if type(self._zero) is not int:
            raise ValueError("evaluate needs a theta table (integer entries)")
        v = tau.imag if isinstance(tau, complex) else 0.0
        if v <= 0:
            raise ValueError("tau must lie in the upper half plane")
        out = [0j] * self.group.order
        for (m, i), val in self.entries.items():
            out[i] += complex(val) * cmath.exp(2j * cmath.pi * complex(tau) * float(m))
        return out, theta_tail_bound(self.group.lattice, self.cutoff, v)


def theta_tail_bound(lattice: QuadLattice, cutoff, v) -> float:
    """Rigorous bound on sum_{m > cutoff} r(m) e^(-2 pi m v) where r(m)
    counts coset vectors of norm m, via the box bound from the enumeration
    radius.  Needs only the Gram data, not a coefficient table."""
    n = lattice.rank
    if n == 0:
        return 0.0
    # Q(x) <= m implies every |x_i| <= sqrt(2 m / lam) for an exact
    # rational lower bound lam on the smallest Gram eigenvalue
    Ginv = lattice.gram_inverse()
    lam = Fraction(1) / max(sum(abs(x) for x in row) for row in Ginv)
    step = Fraction(1, lattice.level())
    total = 0.0
    m = Fraction(cutoff) + step
    t = math.exp(-2 * math.pi * v * float(step))
    for _ in range(100000):
        r = (2 * math.sqrt(float(2 * m / lam)) + 3) ** n
        term = r * math.exp(-2 * math.pi * v * float(m))
        total += term
        m += step
        # once the per-step ratio drops below sqrt(t) the rest is geometric
        r2 = (2 * math.sqrt(float(2 * m / lam)) + 3) ** n
        if r2 * t <= r * math.sqrt(t):
            last = r2 * math.exp(-2 * math.pi * v * float(m))
            total += last / (1 - math.sqrt(t))
            break
    else:
        # no geometric closure reached: a partial sum is not a bound
        return math.inf
    return total * 1.0000001


def theta_series(lattice: QuadLattice, cutoff) -> VVFormQ:
    """Theta series of a positive definite lattice: weight rank/2, variant
    contragredient, coefficients R(m, mu) for all m <= cutoff.

    Computed by one exact sweep over the dual vectors of norm <= cutoff,
    histogrammed by norm and coset.  A negative cutoff, or one the
    search's size guard or sweep budget refuses, is an InputRefusal of
    "bound"; a Gram its conditioning guard refuses, one of "lattice".
    """
    cutoff = Fraction(cutoff)
    if cutoff < 0:
        raise InputRefusal(f"cutoff must be nonnegative, got {cutoff}", "bound")
    if lattice.rank and not lattice.is_positive_definite():
        raise ValueError("theta series requires a positive definite lattice")
    group = discriminant_group(lattice)
    dual_index = group.dual_index
    # dual vectors are x = Ginv k, k integral, with Q(x) = (1/2) k^T Ginv k
    Ginv = lattice.gram_inverse()
    den = lcm(*(x.denominator for row in Ginv for x in row))
    counts = {}
    for k, norm in ball_sweep(Ginv, [0] * lattice.rank, cutoff):
        key = norm, dual_index(k)
        counts[key] = counts.get(key, 0) + 1
    # ball_sweep's norm is D k^T Ginv k = 2 D Q(x)
    entries = {(Fraction(norm, 2 * den), i): c for (norm, i), c in counts.items()}
    return VVFormQ(Fraction(lattice.rank, 2), group, entries, cutoff)


class PrincipalPart:
    """Holomorphic principal data of a harmonic form: the finite map
    (m, mu) -> c^+(-m, mu) for m > 0, plus the constant c^+(0, 0).

    entries maps (m, coset index) to a nonzero Fraction, as VVFormQ's do,
    after check_support has passed every given key, zeros included.
    is_integral reports whether the principal part is integral in the
    sense required by the main theorem.
    """

    def __init__(self, group: DiscriminantGroup, entries: dict, constant=Fraction(0)):
        coeffs = {}
        for (m, i), c in entries.items():
            m = Fraction(m)
            if m <= 0:
                raise ValueError("principal part exponents -m require m > 0")
            coeffs[m, i] = Fraction(c)
        check_support(group, coeffs)
        self.group = group
        self.entries = {key: c for key, c in coeffs.items() if c}
        self.constant = Fraction(constant)

    @property
    def is_integral(self):
        return all(c.denominator == 1 for c in self.entries.values())

    def items(self):
        """Entries sorted by (m, index), which is (m, coordinates) order."""
        return sorted(self.entries.items())

    def support_exponents(self):
        return sorted({m for (m, _) in self.entries})


def hejhal_principal_part(m, mu: Coset) -> PrincipalPart:
    """Principal part of the Hejhal-Poincare series: half q^-m at mu and at
    -mu, merged to a single unit entry when mu = -mu."""
    group = mu.group
    entries = {}
    for i in (group.index_of(mu), group.index_of(-mu)):
        entries[m, i] = entries.get((m, i), 0) + Fraction(1, 2)
    return PrincipalPart(group, entries)


def _splits(theta: VVFormQ, emb: SublatticeEmbedding, m, mu: Coset):
    """(mu1, m2, mu2, R(m2, mu2)) over the glue pairs (mu1, mu2) of mu and
    the exponents m2 <= m in the theta support of mu2, R != 0: the splits
    m = m1 + m2 that the pullback table and the constant term both sum."""
    for mu1, mu2 in glue_cosets(emb, mu):
        m2 = theta.group.q_map(mu2)
        while m2 <= m:
            r = rep_coefficient(theta, m2, mu2)
            if r:
                yield mu1, m2, mu2, r
            m2 += 1


def constant_term_pairing(pp: PrincipalPart, eis_table: VVFormQ, theta: VVFormQ,
                          emb: SublatticeEmbedding):
    """CT {f^+, E (x) Theta} = sum over m1 + m2 + m3 = 0 of
    {c^+(m1), a^+(m2) (x) R(m3)}, as a LogLinear value.

    eis_table is the a^+ table over the sublattice; theta lives on the
    orthogonal complement; the pairing runs through the glue description of
    S_L inside S_{L0} (x) S_Lambda.
    """
    # m1 = 0 term: only the (0, 0, 0) cell survives since a^+(0, mu != 0) = 0
    # and R(0, mu != 0) = 0
    total = eis_table.coefficient(0, eis_table.group.zero()) * pp.constant
    for (m, i), cval in pp.items():
        # m2 + m3 = m with R(m3, mu2) != 0
        for mu1, m3, mu2, r in _splits(theta, emb, m, pp.group.coset_by_index(i)):
            total = total + eis_table.coefficient(m - m3, mu1) * (cval * r)
    return total


def rep_coefficient(theta: VVFormQ, m, mu: Coset) -> int:
    """Coefficient R(m, mu) out of a theta table, 0 off the support."""
    return theta.coefficient(m, mu)
