"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py` to see every line).

Each criterion is checked at its stated tolerance; the exact identities are
compared coefficientwise on the symbolic log-linear representation, never in
floating point.
"""

import random
import time
from fractions import Fraction

from speccy.cli import run as cli_run
from speccy.cm import degree_bruteforce, degree_formula
from speccy.cyclotomic import CycNum
from speccy.eisenstein import EisensteinPackage, a_plus
from speccy.imq import (
    ImQField,
    L_chi_exact_at_0,
    diff_set,
    functional_equation_defects,
    ord_p,
    reduced_forms,
    rho,
    rho_bruteforce,
)
from speccy.lattice import QuadLattice, discriminant_group, is_maximal, orthogonal_complement
from speccy.pullback import EmbeddingContext, verify_ledger
from speccy.qseries import hejhal_principal_part
from speccy.weil import S, T, WeilRep

from test_qseries import random_rank4_posdef, theta_transformation_defect


def principal_lattice(d):
    a, b, c = reduced_forms(d)[0]
    assert a == 1
    return QuadLattice([[-2 * a, -b], [-b, -2 * c]])


def report(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_degree_eisenstein_identity():
    """degree_formula == -(h/w) a_plus exactly, five fields, 20 admissible
    exponents per coset, all cosets."""
    t0 = time.time()
    checked = 0
    for d in (-3, -7, -11, -15, -23):
        pkg = EisensteinPackage.from_lattice(principal_lattice(d))
        hw = Fraction(pkg.K.h, pkg.K.w)
        for mu in pkg.disc0.elements():
            q = pkg.disc0.q_map(mu)
            count = 0
            k = 0
            while count < 20:
                m = q + k
                k += 1
                if m <= 0:
                    continue
                lhs = degree_formula(pkg, m, mu).degree
                rhs = a_plus(pkg, m, mu) * (-hw)
                assert (lhs - rhs).is_zero(), (d, m, mu)
                count += 1
                checked += 1
    elapsed = time.time() - t0
    report(1, elapsed < 10,
           f"{checked} exact degree/Eisenstein identities in {elapsed:.1f}s (< 10s)")


def test_criterion_2_bruteforce_oracle():
    """Quaternion-order counting agrees with the closed formula for all
    admissible (m, mu) with m <= 10, class number one fields."""
    t0 = time.time()
    checked = 0
    log7_seen = False
    for d in (-3, -7, -11):
        pkg = EisensteinPackage.from_lattice(principal_lattice(d))
        for mu in pkg.disc0.elements():
            q = pkg.disc0.q_map(mu)
            m = q if q > 0 else Fraction(1)
            while m <= 10:
                diff = pkg.diff(m)
                if len(diff) == 1:
                    (p,) = diff
                    if ord_p(m, p) >= 0:
                        bf = degree_bruteforce(pkg, m, mu)
                        fm = degree_formula(pkg, m, mu)
                        assert (bf.degree - fm.degree).is_zero(), (d, m, mu)
                        assert bf.weighted_count == fm.weighted_count, (d, m, mu)
                        if d == -7 and m == 1 and mu.is_zero():
                            assert fm.degree.logs == ((7, Fraction(1)),)
                            log7_seen = True
                        checked += 1
                m += 1
    elapsed = time.time() - t0
    report(2, log7_seen and checked > 50 and elapsed < 60,
           f"{checked} oracle agreements incl. d=-7, m=1 -> log 7, {elapsed:.1f}s (< 60s)")


def test_criterion_3_theta_modularity():
    t0 = time.time()
    rng = random.Random(2024)
    lattices = [QuadLattice([[2]]), QuadLattice([[2, 1], [1, 2]]),
                QuadLattice([[2, 0], [0, 4]]), random_rank4_posdef(rng)]
    words = [(T,), (S,), (S, T), (T, S), (S, T, S)]
    worst = 0.0
    for lat in lattices:
        taus = [complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0)) for _ in range(5)]
        for word in words:
            for tau in taus:
                defect = theta_transformation_defect(lat, word, tau)
                worst = max(worst, defect)
                assert defect < 1e-8, (lat.gram, word, tau, defect)
    elapsed = time.time() - t0
    report(3, elapsed < 60,
           f"transformation defect < 1e-8 (worst {worst:.1e}) for 4 lattices x 5 words"
           f" x 5 tau, {elapsed:.1f}s (< 60s)")


def test_criterion_4_metaplectic_relations():
    grams = [
        [[2]], [[-2]], [[0, 1], [1, 0]], [[2, 1], [1, 2]],
        [[-2, -1], [-1, -4]], [[2, 0], [0, -4]], [[2, 1], [1, 4]],
        [[4, 1], [1, 4]], [[-2, 0, 0], [0, 2, 0], [0, 0, 6]],
        [[-2, -1, 0], [-1, -4, 0], [0, 0, 2]],
    ]
    assert len(grams) == 10
    for g in grams:
        lat = QuadLattice(g)
        assert lat.disc <= 50
        w = WeilRep(discriminant_group(lat))
        Smat = w.omega_S()
        Z = w.omega_Z()
        assert Smat.matmul(Smat) == Z, g
        ST = Smat.matmul(w.omega_T())
        assert ST.matmul(ST).matmul(ST) == Z, g
        Z2 = Z.matmul(Z)
        phase = CycNum.e(Fraction(w.sig8, 2))
        for i in range(w.dim):
            for j in range(w.dim):
                want = phase if i == j else CycNum()
                assert (Z2.entries[i][j] - want).is_zero(), g
    report(4, True, "S^2 = Z, (ST)^3 = Z, Z^2 = e(sig/2) id exact on 10 lattices")


def test_criterion_5_rho_crosscheck():
    t0 = time.time()
    for d in (-3, -7, -11, -15, -23):
        K = ImQField.from_discriminant(d)
        for m in range(1, 10 ** 4 + 1):
            assert rho(K, m) == rho_bruteforce(K, m), (d, m)
    elapsed = time.time() - t0
    report(5, elapsed < 30,
           f"rho == rho_bruteforce for m <= 10^4, five fields, {elapsed:.1f}s (< 30s)")


def test_criterion_6_class_number_l_value():
    count = 0
    for d in range(-3, -1001, -1):
        if d % 4 != 1:
            continue
        try:
            K = ImQField.from_discriminant(d)
        except ValueError:
            continue
        assert L_chi_exact_at_0(K) == Fraction(2 * K.h, K.w), d
        count += 1
    worst = 0.0
    points = (0.25, 0.7, 1.3)
    for d in (-7, -23):
        K = ImQField.from_discriminant(d)
        for s, defect in zip(points, functional_equation_defects(K, points, dps=30)):
            worst = max(worst, float(defect))
            assert defect < 1e-10, (d, s)
    report(6, True,
           f"L(chi,0) = 2h/w exactly for {count} fields |d| <= 1000;"
           f" functional equation defect < 1e-10 (worst {worst:.1e})")


def test_criterion_7_diff_structure():
    rng = random.Random(77)
    fundamental = [d for d in range(-3, -400, -1)
                   if d % 4 == 1 and _squarefree(d)]
    checked = 0
    while checked < 200:
        d = rng.choice(fundamental)
        K = ImQField.from_discriminant(d)
        L0 = principal_lattice(d)
        m = Fraction(rng.randint(1, 100), rng.choice([1, 1, -d]))
        D = diff_set(L0, m)
        assert len(D) % 2 == 1, (d, m, D)
        assert all(K.chi(p) != 1 for p in D), (d, m, D)
        checked += 1
    report(7, True, "Diff odd and split-free on 200 random (d, m) pairs")


def _squarefree(n):
    n = abs(n)
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def test_criterion_8_end_to_end_ledger(tmp_path):
    t0 = time.time()
    L = QuadLattice([[-2, -1, 0], [-1, -4, 0], [0, 0, 2]])
    ctx = EmbeddingContext.build(L, [[1, 0], [0, 1], [0, 0]], 2)
    g = discriminant_group(L)
    pp = hejhal_principal_part(1, g.zero())
    rep = verify_ledger(ctx, pp)
    assert rep.all_match
    assert rep.residual.is_zero()
    assert rep.lprime_coefficient == Fraction(-1, 2)
    assert {r.identity for r in rep.rows} == {"A", "B", "C", "D"}
    blob = rep.to_json()
    assert "L'" in blob["totals"]["conclusion"]
    # fault injection through the CLI: exit code 2
    lat_file = tmp_path / "L.json"
    sub_file = tmp_path / "sub.json"
    lat_file.write_text('{"gram": [[-2,-1,0],[-1,-4,0],[0,0,2]]}')
    sub_file.write_text('{"basis": [[1,0],[0,1],[0,0]]}')
    import contextlib
    import io as _io
    with contextlib.redirect_stdout(_io.StringIO()):
        code_ok = cli_run(["verify", "--lattice", str(lat_file), "--sub", str(sub_file),
                           "--pp", '{"1,0":1}'])
        code_bad = cli_run(["verify", "--lattice", str(lat_file), "--sub", str(sub_file),
                            "--pp", '{"1,0":1}', "--fault-inject", "1,0"])
    assert code_ok == 0 and code_bad == 2
    elapsed = time.time() - t0
    report(8, elapsed < 5,
           f"ledger identities (A)-(D) exact, residual 0, fault exit 2,"
           f" {elapsed:.1f}s (< 5s)")


def test_criterion_9_maximality_and_glue():
    assert is_maximal(QuadLattice([[2]]))
    assert not is_maximal(QuadLattice([[8]]))
    assert is_maximal(QuadLattice([[-2, -1], [-1, -4]]))
    embeddings = []
    L_block = QuadLattice([[-2, -1, 0], [-1, -4, 0], [0, 0, 2]])
    embeddings.append(orthogonal_complement(L_block, [[1, 0], [0, 1], [0, 0]]))
    from test_lattice import build_glued_index7
    L_glued, sub = build_glued_index7()
    embeddings.append(orthogonal_complement(L_glued, sub))
    rng = random.Random(5)
    for _ in range(5):
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
        from math import gcd
        while True:
            v = [rng.randint(-2, 2) for _ in range(n)]
            acc = 0
            for x in v:
                acc = gcd(acc, x)
            if acc == 1 and lat.quadratic(v) != 0:
                break
        embeddings.append(orthogonal_complement(lat, [[x] for x in v]))
    for emb in embeddings:
        assert emb.sub.disc * emb.complement.disc == emb.ambient.disc * emb.index ** 2
    report(9, True,
           f"maximality on 3 fixtures; disc identity on {len(embeddings)} embeddings")
