"""Holomorphic-part coefficients of the central derivative of the
incoherent weight-one Eisenstein series attached to a negative definite
binary lattice whose even Clifford order is the maximal order of an
imaginary quadratic field of odd discriminant.

The constant term is
    a^+(0, 0) = gamma + log(4 pi) - log|d| - 2 L'/L(chi, 0),
and for m > 0 with Diff = {p} a single prime,
    a^+(m, mu) = -(w / 2h) rho(m |d| / p^eps) ord_p(p m) 2^s(mu) log p
whenever Q(mu) = m in Q/Z, with eps = 1 for p inert and 0 for p ramified;
everything else vanishes.  Values are exact LogLinear elements.
"""

from __future__ import annotations

from fractions import Fraction

from .imq import ImQField, LogLinear, diff_set, ord_p, rho
from .lattice import (
    Coset,
    DiscriminantGroup,
    InvariantError,
    QuadLattice,
    discriminant_group,
    even_clifford_binary,
    factorization,
)


class EisensteinPackage:
    """The lattice L0, its field k = C^+(L0), the discriminant group, and
    the primes dividing disc(L0), factored once for s_mu."""

    def __init__(self, L0: QuadLattice, K: ImQField, disc0: DiscriminantGroup):
        self.L0, self.K, self.disc0 = L0, K, disc0
        self.disc_primes = tuple(l for l, _ in factorization(L0.disc))
        self._diff = {}

    @classmethod
    def from_lattice(cls, L0: QuadLattice):
        cd = even_clifford_binary(L0)
        if not (cd.is_fundamental and cd.is_odd):
            raise ValueError(
                "even Clifford discriminant must be odd and fundamental "
                f"(got {cd.value})")
        K = ImQField.from_discriminant(cd.value)
        return cls(L0, K, discriminant_group(L0))

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


def a_plus(pkg: EisensteinPackage, m, mu: Coset) -> LogLinear:
    """The coefficient a^+_{L0}(m, mu), exact."""
    m = Fraction(m)
    K = pkg.K
    if m == 0:
        if mu.is_zero():
            return LogLinear.make(0, {2: 2},
                                  {"gamma": 1, "log_pi": 1, "log_abs_d": -1,
                                   "Lprime_over_L": -2})
        return LogLinear.make(0)
    if m < 0:
        return LogLinear.make(0)
    if (m - pkg.disc0.q_map(mu)) % 1 != 0:
        return LogLinear.make(0)
    diff = pkg.diff(m)
    if len(diff) != 1:
        return LogLinear.make(0)
    (p,) = diff
    chi_p = K.chi(p)
    if chi_p == 1:
        raise InvariantError(f"Diff({m}) contains the split prime {p}")
    eps = 1 if chi_p == -1 else 0
    arg = m * abs(K.d) / Fraction(p) ** eps
    r = rho(K, arg)
    if r == 0:
        return LogLinear.make(0)
    length = ord_p(p * m, p)
    coeff = -Fraction(K.w, 2 * K.h) * r * length * 2 ** s_mu(pkg, mu)
    return LogLinear.make(0, {p: coeff})


class EisensteinTable:
    """Dense table of a^+ over the support lattice (1/|d|) Z up to a cutoff;
    values is {(Fraction m, coset coords): LogLinear}."""

    def __init__(self, pkg: EisensteinPackage, cutoff: Fraction, values: dict):
        self.pkg, self.cutoff, self.values = pkg, cutoff, values

    @property
    def group(self):
        return self.pkg.disc0

    def coefficient(self, m, mu: Coset) -> LogLinear:
        m = Fraction(m)
        if m < 0:
            return LogLinear.make(0)
        if m > self.cutoff:
            raise KeyError(f"exponent {m} beyond Eisenstein table cutoff {self.cutoff}")
        step = Fraction(1, abs(self.pkg.K.d))
        if (m / step).denominator != 1:
            return LogLinear.make(0)
        return self.values.get((m, mu.coords), LogLinear.make(0))


class TableBudgetError(ValueError):
    """A table walk refused before it starts: over TABLE_BUDGET."""


# Most a^+ evaluations the table walk may make.  One takes 70-90 us on a
# 2-core x86 host with Python 3.11 (factoring m for Diff(m) and rho), so a
# walk at the budget takes 7-9 s there.
TABLE_BUDGET = 10 ** 5


def eisenstein_qexp(pkg: EisensteinPackage, cutoff) -> EisensteinTable:
    """All a^+(m, mu) for 0 <= m <= cutoff in the support lattice, obeying
    the support law m = Q(mu) mod Z.

    The walk evaluates a^+ about |D0| (cutoff + 1) times, D0 the
    discriminant group; a cutoff that puts this over TABLE_BUDGET
    (10^5) raises TableBudgetError before the walk starts."""
    cutoff = Fraction(cutoff)
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    if pkg.disc0.order * (cutoff + 1) > TABLE_BUDGET:
        raise TableBudgetError(f"{pkg.disc0.order} cosets up to {cutoff} need about "
                         f"{pkg.disc0.order * (cutoff + 1)} a+ evaluations, over the "
                         f"budget of {TABLE_BUDGET}")
    step = Fraction(1, abs(pkg.K.d))
    values = {}
    for mu in pkg.disc0.elements():
        q = pkg.disc0.q_map(mu)
        m = q
        while m <= cutoff:
            val = a_plus(pkg, m, mu)
            if not val.is_zero():
                values[(m, mu.coords)] = val
            m += 1
        if mu.is_zero():
            values[(Fraction(0), mu.coords)] = a_plus(pkg, Fraction(0), mu)
    # sanity: the support step divides every stored exponent
    for (m, _c) in values:
        if (m / step).denominator != 1:
            raise InvariantError(f"exponent {m} off the support lattice {step} Z")
    return EisensteinTable(pkg, cutoff, values)
