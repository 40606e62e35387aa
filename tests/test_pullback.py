import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import speccy

from speccy.cm import degree_bruteforce
from speccy.eisenstein import EisensteinPackage, a_plus, eisenstein_qexp
from speccy.imq import LogLinear
from speccy.lattice import (
    InputRefusal,
    QuadLattice,
    count_coset_vectors,
    discriminant_group,
    enumerate_coset_vectors,
    glue_cosets,
)
from speccy.pullback import (
    EmbeddingContext,
    PullbackRow,
    cotaut_degree,
    lambda_mmu_count,
    pullback_table,
    verify_ledger,
)
from speccy.qseries import (
    PrincipalPart,
    constant_term_pairing,
    hejhal_principal_part,
    theta_series,
)
from speccy.serialize import parse_principal_part

BLOCK_GRAM = [[-2, -1, 0], [-1, -4, 0], [0, 0, 2]]
BLOCK_SUB = [[1, 0], [0, 1], [0, 0]]


def e8_ledger_lattice():
    """L0(-7) + E8 and the basis of its L0 summand."""
    from test_qseries import E8
    gram = [[0] * 10 for _ in range(10)]
    gram[0][:2], gram[1][:2] = [-2, -1], [-1, -4]
    for i in range(8):
        gram[2 + i][2:] = E8.gram[i]
    return QuadLattice(gram), BLOCK_SUB[:2] + [[0, 0]] * 8


@pytest.fixture(scope="module")
def block_ctx():
    return EmbeddingContext.build(QuadLattice(BLOCK_GRAM), BLOCK_SUB, 4)


@pytest.fixture(scope="module")
def glued_ctx():
    from test_lattice import build_glued_index7
    L, sub_basis = build_glued_index7()
    return EmbeddingContext.build(L, sub_basis, 3)


class TestContext:
    def test_block_builds(self, block_ctx):
        assert block_ctx.emb.index == 1
        assert block_ctx.pkg.K.d == -7

    def test_maximality_required(self):
        # [[8]] block is not maximal
        G = [[-2, -1, 0], [-1, -4, 0], [0, 0, 8]]
        with pytest.raises(InputRefusal):
            EmbeddingContext.build(QuadLattice(G), BLOCK_SUB, 2)

    def test_glued_builds(self, glued_ctx):
        assert glued_ctx.emb.index == 7
        assert glued_ctx.pkg.K.d == -7


class TestLambda:
    def test_block_separation(self, block_ctx):
        L = block_ctx.ambient
        g = discriminant_group(L)
        direct = enumerate_coset_vectors(block_ctx.emb.complement,
                                         block_ctx.theta.group.zero(), 1)
        assert lambda_mmu_count(block_ctx, 1, g.zero()) == len(direct) == 2

    def test_block_nonzero_sub_component_empty(self, block_ctx):
        # a coset whose L0 component is nonzero contributes nothing
        L = block_ctx.ambient
        g = discriminant_group(L)
        mu = next(c for c in g.elements()
                  if not c.is_zero() and g.q_map(c) == Fraction(5, 7))
        m = Fraction(5, 7)
        assert lambda_mmu_count(block_ctx, m, mu) == 0

    def test_glued_double_count(self, glued_ctx):
        # count through the glue description equals a direct exhaustive
        # search over the dual lattice of the ambient
        L = glued_ctx.ambient
        g = discriminant_group(L)
        comp = glued_ctx.emb.complement
        cb = glued_ctx.emb.complement_basis
        # Lambda^vee vectors lying in L and of norm 1: sweep dual cosets
        count = 0
        for mu2 in discriminant_group(comp).elements():
            for x in enumerate_coset_vectors(comp, mu2, 1):
                amb = [sum(Fraction(cb[i][j]) * x[j] for j in range(comp.rank))
                       for i in range(L.rank)]
                if all(f.denominator == 1 for f in amb):
                    count += 1
        assert lambda_mmu_count(glued_ctx, 1, g.zero()) == count > 0


def shell_rows(ctx, m, mu):
    """pullback_table's rows at (m, mu) from glue_cosets and exact shells on
    Lambda, not from the theta table."""
    comp = ctx.emb.complement
    rows = []
    for mu1, mu2 in glue_cosets(ctx.emb, mu):
        m2 = discriminant_group(comp).q_map(mu2)
        while m2 <= m:
            count = count_coset_vectors(comp, mu2, m2)
            if count and (m2 < m or mu1.is_zero()):
                rows.append(PullbackRow(m - m2, mu1, m2, mu2, count))
            m2 += 1
    return sorted(rows, key=lambda r: (r.m1, r.mu1.coords, r.mu2.coords))


class TestPullbackTable:
    def test_rows_and_constant_term_match_exact_shells(self, block_ctx, glued_ctx):
        # every coset mu of L and every m <= cutoff on its support; the
        # constant term of the Hejhal part, given a constant c+(0,0), is
        # a+(0,0) c+(0,0) plus its entries' sums over those rows
        for ctx in (block_ctx, glued_ctx):
            g = discriminant_group(ctx.ambient)
            a00 = ctx.eis.coefficient(0, ctx.eis.group.zero())
            for mu in g.elements():
                m = g.q_map(mu) or Fraction(1)
                while m <= ctx.cutoff:
                    assert pullback_table(ctx, m, mu) == shell_rows(ctx, m, mu), (mu, m)
                    pp = PrincipalPart(g, hejhal_principal_part(m, mu).entries, Fraction(5, 3))
                    expected = a00 * pp.constant
                    for (m_pp, i), c in pp.items():
                        for r in shell_rows(ctx, m_pp, g.coset_by_index(i)):
                            expected = expected + ctx.eis.coefficient(r.m1, r.mu1) * (c * r.count)
                    assert constant_term_pairing(pp, ctx.eis, ctx.theta, ctx.emb) == expected
                    m += 1

    def test_block_product(self, block_ctx):
        g = discriminant_group(block_ctx.ambient)
        rows = pullback_table(block_ctx, 1, g.zero())
        as_tuples = {(r.m1, r.m2, r.count) for r in rows}
        assert as_tuples == {(Fraction(1), Fraction(0), 1),
                             (Fraction(0), Fraction(1), 2)}

    def test_improper_rows_match_lambda(self, block_ctx, glued_ctx):
        for ctx in (block_ctx, glued_ctx):
            g = discriminant_group(ctx.ambient)
            for mu in list(g.elements())[:4]:
                q = g.q_map(mu)
                m = q + (1 if q == 0 else 0)
                if m <= 0 or m > ctx.cutoff:
                    continue
                rows = pullback_table(ctx, m, mu)
                improper = sum(r.count for r in rows if r.m1 == 0)
                assert improper == lambda_mmu_count(ctx, m, mu)

    def test_m1_zero_only_for_trivial_mu1(self, glued_ctx):
        g = discriminant_group(glued_ctx.ambient)
        rows = pullback_table(glued_ctx, 1, g.zero())
        for r in rows:
            if r.m1 == 0:
                assert r.mu1.is_zero()


class TestCotaut:
    def test_matches_minus_hw_a00(self, block_ctx):
        pkg = block_ctx.pkg
        hw = Fraction(pkg.K.h, pkg.K.w)
        lhs = cotaut_degree(block_ctx)
        rhs = a_plus(pkg, 0, pkg.disc0.zero()) * (-hw)
        assert lhs == rhs

    def test_numeric_finite_and_stable(self, block_ctx):
        val30 = cotaut_degree(block_ctx).evaluate(block_ctx.pkg.K, dps=30)
        val60 = cotaut_degree(block_ctx).evaluate(block_ctx.pkg.K, dps=60)
        assert abs(float(val30 - val60)) < 1e-25
        assert (val30 > 0) == (val60 > 0)


def heart_rows(rep):
    """{key: lhs} of the B rows of a ledger report: the finite hearts."""
    return {r.key: r.lhs for r in rep.rows if r.identity == "B"}


class TestFiniteHeart:
    def test_block_d7_m1(self, block_ctx):
        g = discriminant_group(block_ctx.ambient)
        rep = verify_ledger(block_ctx, hejhal_principal_part(1, g.zero()))
        assert list(heart_rows(rep).values()) == [LogLinear.make(0, {7: 1})]

    def test_zero_when_all_diff_big(self, block_ctx):
        # m chosen so every split lands in |Diff| > 1 or empty support
        g = discriminant_group(block_ctx.ambient)
        pkg = block_ctx.pkg
        checked = 0
        for mu in g.elements():
            q = g.q_map(mu)
            for k in range(3):
                m = q + k
                if m <= 0 or m > block_ctx.cutoff:
                    continue
                rows = pullback_table(block_ctx, m, mu)
                if all(len(pkg.diff(r.m1)) > 1 for r in rows if r.m1 > 0):
                    # the table of -mu has the same m1, so both B rows vanish
                    rep = verify_ledger(block_ctx, hejhal_principal_part(m, mu))
                    assert all(v.is_zero() for v in heart_rows(rep).values())
                    checked += 1
        assert checked

    def test_hearts_add_over_entries(self):
        # a (m1, mu1) reached from two entries adds its CM degree to both
        # hearts: {2,0} reaches m1 = 1 with R(1, 0) = 240 after {1,0} has
        # built row (A) there
        L, sub = e8_ledger_lattice()
        g = discriminant_group(L)
        ctx = EmbeddingContext.build(L, sub, 2)
        both = heart_rows(verify_ledger(ctx, parse_principal_part({"1,0": 1, "2,0": 1}, g)))
        alone = {}
        for entry in ("1,0", "2,0"):
            alone.update(heart_rows(verify_ledger(ctx, parse_principal_part({entry: 1}, g))))
        assert both == alone
        assert set(both.values()) == {LogLinear.make(0, {7: 1}), LogLinear.make(0, {7: 242})}


class TestLedger:
    def test_block_m1_zero_coset(self, block_ctx):
        g = discriminant_group(block_ctx.ambient)
        pp = hejhal_principal_part(1, g.zero())
        rep = verify_ledger(block_ctx, pp)
        assert rep.all_match
        assert rep.residual.is_zero()
        assert rep.lprime_coefficient == Fraction(-1, 2)
        kinds = {r.identity for r in rep.rows}
        assert kinds == {"A", "B", "C", "D"}

    def test_constant_only(self, block_ctx):
        g = discriminant_group(block_ctx.ambient)
        pp = PrincipalPart(g, {}, constant=Fraction(1))
        rep = verify_ledger(block_ctx, pp)
        assert rep.all_match and rep.residual.is_zero()

    def test_block_fractional_m(self, block_ctx):
        g = discriminant_group(block_ctx.ambient)
        mu = next(c for c in g.elements()
                  if not c.is_zero() and g.q_map(c) == Fraction(5, 7))
        pp = hejhal_principal_part(Fraction(5, 7) + 1, mu)
        rep = verify_ledger(block_ctx, pp)
        assert rep.all_match and rep.residual.is_zero()
        assert not rep.pp_integral

    def test_d3_block_ledger_w6(self):
        # the d = -3 field has six units; the 1/w weighting must still close
        L = QuadLattice([[-2, -1, 0], [-1, -2, 0], [0, 0, 2]])
        ctx = EmbeddingContext.build(L, [[1, 0], [0, 1], [0, 0]], 3)
        assert ctx.pkg.K.w == 6
        g = discriminant_group(L)
        pp = hejhal_principal_part(1, g.zero())
        rep = verify_ledger(ctx, pp)
        assert rep.all_match and rep.residual.is_zero()
        assert rep.lprime_coefficient == Fraction(-1, 6)

    def test_d15_block_ledger_h2(self):
        # class number two: the oracle cannot reach this field, but the
        # formula-vs-formula ledger must still close exactly
        L = QuadLattice([[-2, -1, 0], [-1, -8, 0], [0, 0, 2]])
        ctx = EmbeddingContext.build(L, [[1, 0], [0, 1], [0, 0]], 3)
        assert ctx.pkg.K.h == 2
        g = discriminant_group(L)
        pp = hejhal_principal_part(1, g.zero())
        rep = verify_ledger(ctx, pp)
        assert rep.all_match and rep.residual.is_zero()
        assert rep.lprime_coefficient == Fraction(-1, 1)

    def test_glued_ledger(self, glued_ctx):
        g = discriminant_group(glued_ctx.ambient)
        pp = hejhal_principal_part(1, g.zero())
        rep = verify_ledger(glued_ctx, pp)
        assert rep.all_match and rep.residual.is_zero()
        # the glued pullback must involve fractional splits
        rows = pullback_table(glued_ctx, 1, g.zero())
        assert any(r.m1.denominator == 7 for r in rows)

    def test_fault_injection(self, block_ctx):
        g = discriminant_group(block_ctx.ambient)
        pp = hejhal_principal_part(1, g.zero())
        rep = verify_ledger(block_ctx, pp, fault_negate=(1, 0))
        assert not rep.all_match
        assert not rep.residual.is_zero()
        bad = rep.mismatches()
        assert all(r.identity in ("A", "B") for r in bad)
        assert any(r.key[0] == Fraction(1) for r in bad)
        # the fault went into a copy of the a+ table: the context is intact
        assert verify_ledger(block_ctx, pp).all_match

    def test_constant_term_frozen_d7(self, block_ctx):
        # hand expansion for pp = {(1, 0) -> 1}: the splits (m2, m3) of 1
        # are (0, 1) and (1, 0), giving 2 a+(0,0) + a+(1,0) R(0,0):
        # CT = 2 a+(0,0) - 2 log 7
        g = discriminant_group(block_ctx.ambient)
        pp = hejhal_principal_part(1, g.zero())
        rep = verify_ledger(block_ctx, pp)
        pkg = block_ctx.pkg
        want = a_plus(pkg, 0, pkg.disc0.zero()) * 2 + LogLinear.make(0, {7: -2})
        assert rep.constant_term == want

    def test_linearity_in_pp(self, block_ctx):
        g = discriminant_group(block_ctx.ambient)
        pp1 = PrincipalPart(g, {(Fraction(1), 0): Fraction(2)})
        pp2 = hejhal_principal_part(1, g.zero())
        r1 = verify_ledger(block_ctx, pp1)
        r2 = verify_ledger(block_ctx, pp2)
        assert r1.constant_term == r2.constant_term * Fraction(2)

    def test_wrong_lattice_rejected(self, block_ctx):
        other = discriminant_group(QuadLattice([[2]]))
        pp = PrincipalPart(other, {}, constant=Fraction(1))
        with pytest.raises(ValueError):
            verify_ledger(block_ctx, pp)

    def test_report_json_shape(self, block_ctx):
        g = discriminant_group(block_ctx.ambient)
        pp = hejhal_principal_part(1, g.zero())
        blob = verify_ledger(block_ctx, pp).to_json()
        assert blob["totals"]["all_match"] is True
        assert "residual" in blob["totals"]
        assert all("identity" in r and "match" in r for r in blob["rows"])

    @pytest.mark.parametrize("case", ["readme", "readme_fault", "e8"])
    def test_ledger_pinned(self, case):
        # rows in order (identity, key, lhs, rhs) and totals, recorded
        # before verify_ledger became one pass, so a reordered row or a
        # changed value shows here
        with open(os.path.join(os.path.dirname(__file__), "ledger_pin.json")) as fh:
            want = json.load(fh)[case]
        if case == "e8":
            L, sub = e8_ledger_lattice()
            pp = {"2,0": 1, "13/7,1": 1, "13/7,6": 1, "const": "1/2"}
        else:
            L, sub, pp = QuadLattice(BLOCK_GRAM), BLOCK_SUB, {"1,0": 1}
        pp = parse_principal_part(pp, discriminant_group(L))
        ctx = EmbeddingContext.build(L, sub, max(pp.support_exponents()) + 1)
        rep = verify_ledger(ctx, pp, fault_negate=(1, 0) if case == "readme_fault" else None)
        assert json.loads(json.dumps(rep.to_json())) == want

    def test_fault_target_must_be_nonzero(self, block_ctx):
        g = discriminant_group(block_ctx.ambient)
        pp = hejhal_principal_part(1, g.zero())
        with pytest.raises(ValueError, match="no nonzero coefficient"):
            verify_ledger(block_ctx, pp, fault_negate=(Fraction(1, 7), 0))

    def test_fault_target_refusal_names_its_input(self, block_ctx):
        # the CLI blames --fault-inject for exactly these refusals
        g = discriminant_group(block_ctx.ambient)
        pp = hejhal_principal_part(1, g.zero())
        with pytest.raises(InputRefusal, match=r"at m = 1/7, coset index 0$") as exc:
            verify_ledger(block_ctx, pp, fault_negate=(Fraction(1, 7), 0))
        assert exc.value.arg == "fault_negate"
        for index in (99, -1):
            with pytest.raises(InputRefusal, match=f"coset index {index} out of range") as exc:
                verify_ledger(block_ctx, pp, fault_negate=(1, index))
            assert exc.value.arg == "fault_negate"
        other = PrincipalPart(discriminant_group(QuadLattice([[2]])), {}, constant=Fraction(1))
        with pytest.raises(ValueError, match="different lattice") as exc:
            verify_ledger(block_ctx, other, fault_negate=(1, 0))
        assert not isinstance(exc.value, InputRefusal)


def _l0_refusal(gram, m):
    pkg = EisensteinPackage.from_lattice(QuadLattice(gram))
    return degree_bruteforce(pkg, m, pkg.disc0.zero())


@pytest.mark.parametrize("call,arg", [
    (lambda ctx: theta_series(QuadLattice([[2, 1], [1, 2]]), Fraction(10) ** 400), "bound"),
    (lambda ctx: theta_series(QuadLattice([[2, 2 ** 601], [2 ** 601, 2 ** 1201 + 2]]), 2),
     "lattice"),
    (lambda ctx: theta_series(QuadLattice([[2]]), -1), "bound"),
    (lambda ctx: discriminant_group(QuadLattice([[2, 1], [1, 2 ** 101 + 2]])).elements(),
     "lattice"),
    (lambda ctx: eisenstein_qexp(ctx.pkg, 20000), "bound"),
    (lambda ctx: _l0_refusal([[-2, -1], [-1, -12]], 1), "lattice"),  # class number 3
    (lambda ctx: _l0_refusal([[-2, -1], [-1, -4]], 15), "m"),  # Diff(15) = {3, 5}
    (lambda ctx: _l0_refusal([[-2, -1], [-1, -4]], 0), "m"),
    (lambda ctx: EmbeddingContext.build(QuadLattice([[-2, -1, 0], [-1, -4, 0], [0, 0, 8]]),
                                        BLOCK_SUB, 2), "lattice"),  # not maximal
    (lambda ctx: EmbeddingContext.build(QuadLattice(BLOCK_GRAM), [[2, 0], [0, 1], [0, 0]], 2),
     "sub_basis"),
    (lambda ctx: EmbeddingContext.build(QuadLattice(BLOCK_GRAM), BLOCK_SUB, 20000), "bound"),
    (lambda ctx: verify_ledger(ctx, hejhal_principal_part(1, discriminant_group(ctx.ambient)
                                                          .zero()), (Fraction(1, 7), 0)),
     "fault_negate"),
    (lambda ctx: QuadLattice([[2, 2], [2, 2]]).gram_inverse(), "lattice"),
], ids=["size_guard", "conditioning_guard", "negative_cutoff", "coset_bound", "a_plus_budget",
        "oracle_class_number", "oracle_diff", "oracle_m", "not_maximal", "non_primitive_sub",
        "context_a_plus_budget", "fault_target", "degenerate_gram_inverse"])
def test_refusal_names_its_input(block_ctx, call, arg):
    # the CLI names the flag of the parameter arg blames
    with pytest.raises(InputRefusal) as exc:
        call(block_ctx)
    assert exc.value.arg == arg


@pytest.mark.parametrize("call,message", [
    (lambda ctx, zero: verify_ledger(ctx, hejhal_principal_part(5, zero)),
     "context cutoff too small for this principal part"),
    (lambda ctx, zero: pullback_table(ctx, 0, zero), "m must be positive"),
    (lambda ctx, zero: lambda_mmu_count(ctx, -1, zero), "m must be positive"),
], ids=["pp_past_cutoff", "pullback_table_m0", "lambda_mmu_negative_m"])
def test_ledger_refusals(block_ctx, call, message):
    # block_ctx tabulates to m = 4
    with pytest.raises(ValueError, match=message):
        call(block_ctx, discriminant_group(block_ctx.ambient).zero())


class TestInvariants:
    def test_cross_check_fires_under_optimize(self, tmp_path):
        # python -O strips assert statements; the improper-count cross-check
        # (verify_ledger counts through lambda_mmu_count) must still stop a
        # verify run, with exit code 3
        (tmp_path / "L.json").write_text('{"gram": [[-2,-1,0],[-1,-4,0],[0,0,2]]}')
        (tmp_path / "sub.json").write_text('{"basis": [[1,0],[0,1],[0,0]]}')
        script = (
            "import sys\n"
            "assert False, 'python -O is not in effect'\n"
            "import speccy.pullback as pb\n"
            "from speccy.cli import run\n"
            "real = pb.lambda_mmu_count\n"
            "pb.lambda_mmu_count = lambda ctx, m, mu: real(ctx, m, mu) + 1\n"
            "sys.exit(run(sys.argv[1:]))\n")
        src = os.path.dirname(os.path.dirname(speccy.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, "verify", "--lattice", "L.json",
             "--sub", "sub.json", "--pp", '{"1,0":1}'],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert "pullback table disagrees with lambda_mmu" in proc.stderr
        assert proc.stdout == ""
