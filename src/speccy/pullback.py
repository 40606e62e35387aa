"""The arithmetic-degree ledger for a maximal lattice split L0 + Lambda
inside L: the improper-intersection set Lambda_{m, mu}, the pullback
decomposition into CM divisor degrees and theta counts, the cotautological
degree, and the exact finite-part identities that assemble into the main
degree formula with a single symbolic L' slot.

Identity (A) is the degree-versus-Eisenstein comparison for one (m1, mu1);
(B) sums it against theta counts; (C) re-derives the constant term of
{f+, E (x) Theta}; (D) expresses the cotautological corrections through
the constant coefficient.  Given (A) through (D) the conclusion row

    [Z(f) : Y] + c+(0,0) [T : Y] = -(h/w) L'(xi(f), Theta, 0) + residual

holds with residual = 0; the residual is assembled here from independently
computed ingredients and checked to vanish coefficientwise.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .cm import degree_formula
from .eisenstein import EisensteinPackage, eisenstein_qexp
from .imq import LogLinear
from .lattice import (
    Coset,
    InputRefusal,
    InvariantError,
    QuadLattice,
    count_coset_vectors,
    glue_cosets,
    is_maximal,
    orthogonal_complement,
)
from .qseries import (
    PrincipalPart,
    VVFormQ,
    _splits,
    constant_term_pairing,
    theta_series,
)


class EmbeddingContext:
    """A maximal lattice L with a distinguished negative definite binary
    summand L0 (odd fundamental Clifford discriminant), the complement
    Lambda, the Eisenstein package, and the coefficient tables: theta on
    Lambda and a^+ on L0."""

    def __init__(self, emb, pkg: EisensteinPackage, theta: VVFormQ,
                 eis: VVFormQ, cutoff: Fraction):
        self.emb, self.pkg, self.theta, self.eis, self.cutoff = emb, pkg, theta, eis, cutoff

    @classmethod
    def build(cls, L: QuadLattice, sub_basis, cutoff) -> "EmbeddingContext":
        cutoff = Fraction(cutoff)
        if not is_maximal(L):
            raise InputRefusal("ambient lattice must be maximal", "lattice")
        try:
            emb = orthogonal_complement(L, sub_basis)
            if emb.sub.rank != 2 or not emb.sub.is_negative_definite():
                raise ValueError("distinguished sublattice must be negative definite binary")
            pkg = EisensteinPackage.from_lattice(emb.sub)
        except ValueError as exc:
            raise InputRefusal(str(exc), "sub_basis") from None
        if not emb.complement.is_positive_definite():
            raise InputRefusal("complement must be positive definite", "lattice")
        # the a+ table first: its budget refuses a cutoff before the theta
        # sweep, whose cost grows like cutoff^(rank/2), is started
        eis = eisenstein_qexp(pkg, cutoff)
        theta = theta_series(emb.complement, cutoff)
        return cls(emb, pkg, theta, eis, cutoff)

    @property
    def ambient(self):
        return self.emb.ambient

    def field_ratio(self):
        return Fraction(self.pkg.K.h, self.pkg.K.w)


def lambda_mmu_count(ctx: EmbeddingContext, m, mu: Coset) -> int:
    """#{lambda in Lambda^vee : Q(lambda) = m, lambda in mu + L}: exact
    shells on the complement over the glue pairs of mu with mu1 = 0."""
    if Fraction(m) <= 0:
        raise ValueError("m must be positive")
    return sum(count_coset_vectors(ctx.emb.complement, mu2, m)
               for mu1, mu2 in glue_cosets(ctx.emb, mu) if mu1.is_zero())


PullbackRow = namedtuple("PullbackRow", "m1 mu1 m2 mu2 count")


def pullback_table(ctx: EmbeddingContext, m, mu: Coset) -> list:
    """All rows (m1, mu1, m2, mu2, R(m2, mu2)) with m1 + m2 = m over the
    glue pairs of mu; rows with count zero are omitted.  An m1 = 0 row has
    Q(mu1) = 0 mod 1, so mu1 = 0, since the discriminant form of L0 (cyclic
    of odd squarefree order |d|) is anisotropic; these rows carry the
    improper part."""
    m = Fraction(m)
    if m <= 0:
        raise ValueError("m must be positive")
    rows = [PullbackRow(m - m2, mu1, m2, mu2, r)
            for mu1, m2, mu2, r in _splits(ctx.theta, ctx.emb, m, mu)]
    rows.sort(key=lambda r: (r.m1, r.mu1.coords, r.mu2.coords))
    return rows


def cotaut_degree(ctx: EmbeddingContext) -> LogLinear:
    """[T : Y] = (h/w) (2 L'/L + log|d| - log 4 pi - gamma)."""
    hw = ctx.field_ratio()
    return LogLinear.make(0, {2: -2 * hw},
                          {"Lprime_over_L": 2 * hw, "log_abs_d": hw,
                           "log_pi": -hw, "gamma": -hw})


def _ledger_coords(group, coords):
    """coords with a 0 in front for each unit elementary divisor, as the
    ledger keys print them: the Smith form puts the unit divisors first,
    so this is the coset's coordinate tuple over all rank divisors."""
    return (0,) * (group.lattice.rank - len(coords)) + coords


class LedgerRow:
    def __init__(self, identity: str, key: tuple, lhs: LogLinear, rhs: LogLinear):
        self.identity, self.key, self.lhs, self.rhs = identity, key, lhs, rhs

    @property
    def match(self):
        return (self.lhs - self.rhs).is_zero()


class LedgerReport:
    def __init__(self, rows: list, t_hat_degree: LogLinear, constant_term: LogLinear,
                 residual: LogLinear, lprime_coefficient: Fraction, pp_integral: bool):
        self.rows, self.t_hat_degree, self.constant_term = rows, t_hat_degree, constant_term
        self.residual, self.lprime_coefficient = residual, lprime_coefficient
        self.pp_integral = pp_integral

    @property
    def all_match(self):
        return all(r.match for r in self.rows) and self.residual.is_zero()

    def mismatches(self):
        return [r for r in self.rows if not r.match]

    def to_json(self):
        return {
            "rows": [{
                "identity": r.identity,
                "key": [str(k) for k in r.key],
                "lhs": r.lhs.to_json(),
                "rhs": r.rhs.to_json(),
                "match": r.match,
            } for r in self.rows],
            "totals": {
                "T_hat_degree": self.t_hat_degree.to_json(),
                "CT": self.constant_term.to_json(),
                "residual": self.residual.to_json(),
                "lprime_coefficient": str(self.lprime_coefficient),
                "all_match": self.all_match,
                "pp_integral": self.pp_integral,
                "conclusion": ("[Z(f):Y] + c+(0,0) [T:Y] = "
                               f"{self.lprime_coefficient} * L'(xi(f), Theta, 0)"
                               " + residual; the L' slot is symbolic"
                               " (assumed via the CM value formula)"),
            },
        }


def verify_ledger(ctx: EmbeddingContext, pp: PrincipalPart,
                  fault_negate=None) -> LedgerReport:
    """Check the exact finite-part identities (A) to (D) and assemble the
    residual of the conclusion row; fault_negate, if given as (m, coset
    index) with the index in the coset order of the L0 discriminant group,
    flips the sign of that Eisenstein coefficient so tests can confirm
    that faults are caught and localized; a target out of range or with a
    zero coefficient is an InputRefusal of "fault_negate"."""
    if pp.group.lattice.gram != ctx.ambient.gram:
        raise ValueError("principal part lives on a different lattice")
    max_m = max([m for m, _ in pp.entries] or [Fraction(0)])
    if max_m > ctx.cutoff:
        raise ValueError("context cutoff too small for this principal part")
    hw = ctx.field_ratio()
    pkg = ctx.pkg
    eis = ctx.eis
    if fault_negate is not None:
        m_f, index_f = fault_negate
        m_f = Fraction(m_f)
        try:
            pkg.disc0.coset_by_index(index_f)
        except ValueError as exc:  # an index out of range
            raise InputRefusal(str(exc), "fault_negate") from None
        val = eis.entries.get((m_f, index_f))
        if val is None:
            raise InputRefusal(f"fault target has no nonzero coefficient at m = {m_f}, "
                               f"coset index {index_f}", "fault_negate")
        # a copy with one entry negated: ctx.eis stays as built
        eis = VVFormQ(eis.weight, eis.group, {**eis.entries, (m_f, index_f): -val}, eis.cutoff)

    t_hat = cotaut_degree(ctx)
    a00 = eis.coefficient(0, pkg.disc0.zero())
    rows_a, rows_b, rows_d = {}, [], []
    ct_expanded = a00 * pp.constant
    # conclusion: residual of [Z(f):Y] + c+(0,0)[T:Y] + (h/w) L' = 0-side
    residual = t_hat * pp.constant
    for (m, i), cval in pp.items():
        mu = pp.group.coset_by_index(i)
        eis_side = heart = LogLinear.make(0)
        improper = 0
        for row in pullback_table(ctx, m, mu):
            a = eis.coefficient(row.m1, row.mu1)
            ct_expanded = ct_expanded + a * (cval * row.count)
            if row.m1 == 0:  # the improper part, with multiplicity R
                improper += row.count
                continue
            eis_side = eis_side + a * (-hw * row.count)
            # (A): per reachable (m1, mu1): degree = -(h/w) a+
            row_a = rows_a.get((row.m1, row.mu1))
            if row_a is None:
                row_a = rows_a[row.m1, row.mu1] = LedgerRow(
                    "A", (row.m1, _ledger_coords(pkg.disc0, row.mu1.coords)),
                    degree_formula(pkg, row.m1, row.mu1).degree, a * (-hw))
            # (B)'s finite heart: the CM degree at (m1, mu1) times R(m2, mu2)
            heart = heart + row_a.lhs * row.count
        # (B): finite heart vs -(h/w) sum a+ R over m1 > 0
        key = (m, _ledger_coords(pp.group, mu.coords))
        rows_b.append(LedgerRow("B", key, heart, eis_side))
        # (D) per improper slot, cross-checked against exact shells on Lambda
        lam = lambda_mmu_count(ctx, m, mu)
        if improper != lam:
            raise InvariantError(f"pullback table disagrees with lambda_mmu at "
                                 f"({m}, {mu.coords}): {improper} != {lam}")
        rows_d.append(LedgerRow("D", (*key, "improper slot"),
                                t_hat * (cval * lam), a00 * (-hw * cval * lam)))
        residual = residual + heart * cval + t_hat * (cval * lam)

    # (C): constant-term pairing vs the proof's expansion; (D) for c+(0,0)
    ct = constant_term_pairing(pp, eis, ctx.theta, ctx.emb)
    rows = [*rows_a.values(), *rows_b,
            LedgerRow("C", ("constant term",), ct, ct_expanded),
            LedgerRow("D", ("c+(0,0) slot",), t_hat * pp.constant,
                      a00 * (-hw * pp.constant)),
            *rows_d]
    return LedgerReport(rows, t_hat, ct, residual + ct * hw, -hw, pp.is_integral)
