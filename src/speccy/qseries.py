"""Vector-valued q-expansions graded over the rationals: theta series of
definite lattices, constant-term extraction against an Eisenstein and a
theta table, and formal principal parts of Hejhal-Poincare type.

Exponents are exact Fractions throughout; support laws are congruences
mod Z and would be meaningless in floating point.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import lcm

from .imq import LogLinear
from .lattice import (
    Coset,
    DiscriminantGroup,
    QuadLattice,
    SublatticeEmbedding,
    ball_sweep,
    discriminant_group,
    glue_cosets,
)


class VVFormQ:
    """Finitely supported vector-valued q-expansion for the contragredient
    Weil representation, as theta series of definite lattices are.

    coeffs maps an exponent to the coefficient vector in the coset order of
    the discriminant group (zero coset first, then lexicographic).  cutoff
    records the largest exponent the table is complete up to.
    """

    variant = "contragredient"

    def __init__(self, weight: Fraction, group: DiscriminantGroup,
                 coeffs: dict, cutoff: Fraction):
        self.weight, self.group = weight, group
        self.coeffs, self.cutoff = coeffs, cutoff
        # the coefficient vector of every exponent absent from the table
        self._zero = (0,) * group.order

    def coefficient(self, m):
        m = Fraction(m)
        if m in self.coeffs:
            return self.coeffs[m]
        if m <= self.cutoff:
            return self._zero
        raise KeyError(f"coefficient at exponent {m} beyond table cutoff {self.cutoff}")

    def check_support(self):
        """Support law m = Q(mu) mod Z and mu -> -mu symmetry of every
        stored coefficient."""
        cosets = list(self.group.elements())
        neg_index = {i: self.group.index_of(-c) for i, c in enumerate(cosets)}
        for m, vec in self.coeffs.items():
            for i, c in enumerate(cosets):
                if vec[i] != vec[neg_index[i]]:
                    raise ValueError(f"coefficient at ({m}, {c}) breaks mu -> -mu symmetry")
                if vec[i] != 0:
                    q = self.group.q_map(c)
                    if (m - q) % 1 != 0:
                        raise ValueError(f"support law violated at ({m}, {c})")
        return True

    def evaluate(self, tau):
        """(value vector, certified tail bound) at tau in the upper half
        plane, from the finite table up to the cutoff.  The bound is
        math.inf when Im tau is too small for theta_tail_bound to reach
        the geometric closure of its series."""
        v = tau.imag if isinstance(tau, complex) else 0.0
        if v <= 0:
            raise ValueError("tau must lie in the upper half plane")
        n = self.group.order
        out = [0j] * n
        for m, vec in self.coeffs.items():
            qm = cmath.exp(2j * cmath.pi * complex(tau) * float(m))
            for i in range(n):
                if vec[i]:
                    out[i] += complex(vec[i]) * qm
        return out, self.tail_bound(v)

    def tail_bound(self, v):
        return theta_tail_bound(self.group.lattice, self.cutoff, v)


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
    histogrammed by norm and coset.
    """
    cutoff = Fraction(cutoff)
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    if lattice.rank and not lattice.is_positive_definite():
        raise ValueError("theta series requires a positive definite lattice")
    group = discriminant_group(lattice)
    ncosets = group.order
    dual_index = group.dual_index
    # dual vectors are x = Ginv k, k integral, with Q(x) = (1/2) k^T Ginv k
    Ginv = lattice.gram_inverse()
    den = lcm(*(x.denominator for row in Ginv for x in row))
    counts = {}
    for k, norm in ball_sweep(Ginv, [0] * lattice.rank, cutoff):
        vec = counts.get(norm)
        if vec is None:
            vec = counts[norm] = [0] * ncosets
        vec[dual_index(k)] += 1
    # ball_sweep's norm is D k^T Ginv k = 2 D Q(x)
    coeffs = {Fraction(norm, 2 * den): tuple(vec) for norm, vec in counts.items()}
    return VVFormQ(Fraction(lattice.rank, 2), group, coeffs, cutoff)


class PrincipalPart:
    """Holomorphic principal data of a harmonic form: the finite map
    (m, mu) -> c^+(-m, mu) for m > 0, plus the constant c^+(0, 0).

    Entries are stored as Fractions; is_integral reports whether the
    principal part is integral in the sense required by the main theorem.
    """

    def __init__(self, group: DiscriminantGroup, entries: dict, constant=Fraction(0)):
        norm = {}
        for (m, coords), c in entries.items():
            m = Fraction(m)
            if m <= 0:
                raise ValueError("principal part exponents -m require m > 0")
            mu = group.from_coords(coords)
            if (m - group.q_map(mu)) % 1 != 0:
                raise ValueError(f"support law violated at ({m}, {mu})")
            c = Fraction(c)
            if c:
                norm[(m, mu.coords)] = c
        for (m, coords), c in norm.items():
            neg = Coset(group, coords)
            if norm.get((m, (-neg).coords), Fraction(0)) != c:
                raise ValueError("principal part must be symmetric under mu -> -mu")
        self.group = group
        self.entries = norm    # {(Fraction m, coset coords tuple): Fraction}
        self.constant = Fraction(constant)

    @property
    def is_integral(self):
        return all(c.denominator == 1 for c in self.entries.values())

    def items(self):
        return sorted(self.entries.items())

    def support_exponents(self):
        return sorted({m for (m, _) in self.entries})


def hejhal_principal_part(m, mu: Coset) -> PrincipalPart:
    """Principal part of the Hejhal-Poincare series: half q^-m at mu and at
    -mu, merged to a single unit entry when mu = -mu."""
    group = mu.group
    m = Fraction(m)
    if m <= 0:
        raise ValueError("m must be positive")
    if (m - group.q_map(mu)) % 1 != 0:
        raise ValueError("support law violated: m must equal Q(mu) mod Z")
    if (-mu).coords == mu.coords:
        entries = {(m, mu.coords): Fraction(1)}
    else:
        entries = {(m, mu.coords): Fraction(1, 2), (m, (-mu).coords): Fraction(1, 2)}
    return PrincipalPart(group, entries)


def constant_term_pairing(pp: PrincipalPart, eis_table, theta: VVFormQ,
                          emb: SublatticeEmbedding):
    """CT {f^+, E (x) Theta} = sum over m1 + m2 + m3 = 0 of
    {c^+(m1), a^+(m2) (x) R(m3)}, as a LogLinear value.

    eis_table is an EisensteinTable over the sublattice; theta lives on the
    orthogonal complement; the pairing runs through the glue description of
    S_L inside S_{L0} (x) S_Lambda.
    """
    total = LogLinear.make(0)
    # m1 = 0 term: only the (0, 0, 0) cell survives since a^+(0, mu != 0) = 0
    # and R(0, mu != 0) = 0
    if pp.constant:
        total = total + eis_table.coefficient(Fraction(0), eis_table.group.zero()) * pp.constant
    for (m, coords), cval in pp.items():
        for mu1, mu2 in glue_cosets(emb, Coset(pp.group, coords)):
            # m2 + m3 = m with m3 in the theta support of mu2
            q3 = theta.group.q_map(mu2)
            m3 = q3
            while m3 <= m:
                m2 = m - m3
                r = rep_coefficient(theta, m3, mu2)
                if r:
                    a = eis_table.coefficient(m2, mu1)
                    if not a.is_zero():
                        total = total + a * (cval * r)
                m3 += 1
    return total


def rep_coefficient(theta: VVFormQ, m, mu: Coset) -> int:
    """Coefficient R(m, mu) out of a theta table, 0 off the support."""
    m = Fraction(m)
    if m < 0:
        return 0
    vec = theta.coefficient(m)
    return vec[theta.group.index_of(mu)]
