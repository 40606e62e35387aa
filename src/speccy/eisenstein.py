"""Holomorphic-part coefficients of the central derivative of the
incoherent weight-one Eisenstein series attached to a negative definite
binary lattice whose even Clifford order is the maximal order of an
imaginary quadratic field of odd discriminant.

The constant term is
    a^+(0, 0) = gamma + log(4 pi) - log|d| - 2 L'/L(chi, 0),
and for m > 0 with Diff = {p} a single prime,
    a^+(m, mu) = -(w / 2h) rho(m |d| / p^eps) ord_p(p m) 2^s(mu) log p
whenever Q(mu) = m in Q/Z, with eps = 1 for p inert and 0 for p ramified;
everything else vanishes.  Values are exact LogLinear elements, built
from the integers (p, rho, ord_p(p m), s(mu)) that cm.degree_formula reads.
"""

from __future__ import annotations

from fractions import Fraction

from .imq import ImQField, LogLinear, diff_set, ord_p, rho
from .lattice import (
    Coset,
    DiscriminantGroup,
    InputRefusal,
    InvariantError,
    QuadLattice,
    discriminant_group,
    factorization,
)
from .qseries import VVFormQ


class EisensteinPackage:
    """The lattice L0, its field k = C^+(L0), the discriminant group, the
    primes of disc(L0) for s_mu, and Diff(m) per m."""

    def __init__(self, L0: QuadLattice, K: ImQField, disc0: DiscriminantGroup):
        self.L0, self.K, self.disc0 = L0, K, disc0
        self.disc_primes = tuple(l for l, _ in factorization(L0.disc))
        self._diff = {}

    @classmethod
    def from_lattice(cls, L0: QuadLattice):
        """k = Q(sqrt d) for d = t^2 - g1 g2, L0 = [[g1, t], [t, g2]], the
        discriminant of Z[e1 e2], (e1 e2)^2 = t e1 e2 - g1 g2 / 4; ImQField
        refuses a d that is not odd and fundamental."""
        if L0.rank != 2 or not L0.is_negative_definite():
            raise ValueError("even Clifford discriminant requires a negative definite "
                             "binary lattice")
        (g1, t), (_, g2) = L0.gram
        return cls(L0, ImQField.from_discriminant(t * t - g1 * g2), discriminant_group(L0))

    def diff(self, m):
        """Diff(m), computed once per m."""
        if not isinstance(m, Fraction):
            m = Fraction(m)
        found = self._diff.get(m)
        if found is None:
            found = self._diff[m] = diff_set(self.L0, m)
        return found


def s_mu(pkg: EisensteinPackage, mu: Coset) -> int:
    """Number of primes l dividing disc(L0) whose l-primary component of mu
    vanishes, i.e. l does not divide the order of mu."""
    order = mu.order()
    return sum(1 for l in pkg.disc_primes if order % l != 0)


def _local_record(pkg: EisensteinPackage, m: Fraction, mu: Coset):
    """The integers (p, rho(m |d| / p^eps), ord_p(p m), s(mu)) behind both
    a^+(m, mu) and the CM degree at m > 0, or None where the support law
    or |Diff(m)| != 1 makes both vanish; a split p in Diff(m) raises."""
    K, q = pkg.K, pkg.disc0.q_map(mu)
    # m = Q(mu) mod Z: both in lowest terms, so one denominator
    diff = (pkg.diff(m) if q.denominator == m.denominator
            and (m.numerator - q.numerator) % m.denominator == 0 else ())
    if len(diff) != 1:
        return None
    (p,) = diff
    chi_p = K.chi(p)
    if chi_p == 1:
        raise InvariantError(f"Diff({m}) contains the split prime {p}")
    # m |d| / p^eps, eps = 1 for p inert and 0 for p ramified
    quot, rem = divmod(m.numerator * abs(K.d), m.denominator * p ** (chi_p == -1))
    return p, rho(K, quot) if rem == 0 else 0, 1 + ord_p(m, p), s_mu(pkg, mu)


def a_plus(pkg: EisensteinPackage, m, mu: Coset) -> LogLinear:
    """The coefficient a^+_{L0}(m, mu), exact: at m > 0, -(w / 2h) rho len
    2^s log p over the integers of _local_record, one Fraction built."""
    m = m if isinstance(m, Fraction) else Fraction(m)
    if m == 0:
        if mu.is_zero():
            return LogLinear.make(0, {2: 2},
                                  {"gamma": 1, "log_pi": 1, "log_abs_d": -1,
                                   "Lprime_over_L": -2})
        return LogLinear()
    record = _local_record(pkg, m, mu) if m > 0 else None
    if record is None:
        return LogLinear()
    p, r, length, s = record
    coeff = Fraction(-pkg.K.w * r * length * 2 ** s, 2 * pkg.K.h)
    return LogLinear(logs=((p, coeff),)) if coeff else LogLinear()


# Most a^+ evaluations the table walk may make.  One takes about 70 us on
# a 2-core x86 host with Python 3.11 (factoring m for Diff(m) and rho, on
# integers), so a walk at the budget takes about 7 s there.  The table
# stores at most one entry per evaluation, so this bounds its memory too.
TABLE_BUDGET = 10 ** 5


def eisenstein_qexp(pkg: EisensteinPackage, cutoff) -> VVFormQ:
    """The a^+ table: all a^+(m, mu) for 0 <= m <= cutoff, as a weight-one
    VVFormQ of LogLinear entries over the discriminant group of L0.  The
    walk visits only the support m = Q(mu) mod Z, and stores only the
    nonzero coefficients, about two per exponent (at mu and -mu).

    The walk evaluates a^+ about |D0| (cutoff + 1) times, D0 the
    discriminant group; a cutoff that puts this over TABLE_BUDGET
    (10^5) is refused, as a "bound" InputRefusal, before the walk starts."""
    cutoff = Fraction(cutoff)
    if cutoff < 0:
        raise InputRefusal(f"cutoff must be nonnegative, got {cutoff}", "bound")
    group = pkg.disc0
    if group.order * (cutoff + 1) > TABLE_BUDGET:
        raise InputRefusal(f"{group.order} cosets up to {cutoff} need about "
                           f"{group.order * (cutoff + 1)} a+ evaluations, over the "
                           f"budget of {TABLE_BUDGET}", "bound")
    entries = {}
    for i, mu in enumerate(group.elements()):
        m = group.q_map(mu)
        while m <= cutoff:
            val = a_plus(pkg, m, mu)
            if not val.is_zero():
                entries[m, i] = val
            m += 1
    return VVFormQ(Fraction(1), group, entries, cutoff)
