"""Seeded inputs, job lists and output oracles of the four workloads.

A *pass* is one sweep over a workload's fixed-size, seeded fixture set; a
run repeats the pass.  The seed picks which inputs fill each slot of a pass
(cosets, coefficients, discriminants, words, vectors, job order), never how
many slots of each cost class there are, so different seeds do comparable
work.  This module imports nothing from speccy: the runner must not load
the library it times.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from math import isqrt

# ---------------------------------------------------------------------------
# shared inputs

E8 = [[2, -1, 0, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0, 0],
      [0, -1, 2, -1, 0, 0, 0, -1], [0, 0, -1, 2, -1, 0, 0, 0],
      [0, 0, 0, -1, 2, -1, 0, 0], [0, 0, 0, 0, -1, 2, -1, 0],
      [0, 0, 0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 0, 0, 2]]

LEDGER_DISCS = (-3, -7, -11, -23)
CM_DISCS = (-3, -7, -11, -19, -43)


def frac_str(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def squarefree(n):
    n = abs(n)
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return n != 0


def odd_fundamental(d):
    return d < 0 and d % 4 == 1 and squarefree(d)


def class_number(d):
    """Reduced primitive forms of discriminant d, counted independently of
    speccy (used as the oracle for L(chi, 0) = 2h/w)."""
    h = 0
    for b in range(abs(d) % 2, isqrt(-d // 3) + 1, 2):
        ac = (b * b - d) // 4
        a = max(b, 1)
        while a * a <= ac:
            if ac % a == 0:
                c = ac // a
                if b <= a <= c:
                    h += 2 if 0 < b < a < c else 1
            a += 1
    return h


def principal_l0(d):
    """Gram of the negative definite binary lattice of the principal form
    x^2 + xy + c y^2 of discriminant d (odd d)."""
    c = (1 - d) // 4
    return [[-2, -1], [-1, -2 * c]]


def coset_q(d, k):
    """Q of coset k of the principal L0(d): the group is cyclic of order |d|
    with Q(k mu1) = k^2 Q(mu1) and Q(mu1) = -1/|d| mod 1."""
    return Fraction(-k * k, -d) % 1


def ledger_lattice(d):
    g = principal_l0(d)
    n = 10
    gram = [[0] * n for _ in range(n)]
    for i in range(2):
        for j in range(2):
            gram[i][j] = g[i][j]
    for i in range(8):
        for j in range(8):
            gram[2 + i][2 + j] = E8[i][j]
    return gram


def ledger_files():
    files = {f"L{-d}.json": {"gram": ledger_lattice(d)} for d in LEDGER_DISCS}
    files["sub.json"] = {"basis": [[1, 0], [0, 1]] + [[0, 0]] * 8}
    files["e8.json"] = {"gram": E8, "name": "E8"}
    return files


# ---------------------------------------------------------------------------
# ledger-e8: CLI verify on L0(d) + E8 and theta on E8


def verify_options(d, top):
    """Every principal part the generator can draw for one verify slot:
    a zero-coset entry at m = top, a symmetric (mu, -mu) pair at
    m = Q(mu) + top - 1, and an optional constant."""
    out = []
    n = -d
    for k in range(1, (n - 1) // 2 + 1):
        m = frac_str(coset_q(d, k) + top - 1)
        for c0 in (1, 2):
            for c1 in (1, -1):
                for const in (None, "1/2"):
                    pp = {f"{top},0": c0, f"{m},{k}": c1, f"{m},{n - k}": c1}
                    if const is not None:
                        pp["const"] = const
                    out.append(pp)
    return out


def verify_job(d, pp):
    argv = ["verify", "--lattice", f"L{-d}.json", "--sub", "sub.json",
            "--pp", json.dumps(pp, separators=(",", ":"))]
    return {"kind": "cli", "check": "verify", "argv": argv, "d": d}


def theta_job(cutoff):
    return {"kind": "cli", "check": "theta", "cutoff": cutoff,
            "argv": ["theta", "--lattice", "e8.json", "--cutoff", str(cutoff)]}


# verify slots (d, top m): every d at m <= 1 and L0(-7)+E8 at m <= 2, plus
# three more m <= 1 jobs on seeded fields, and theta at cutoff 3.  Per pass
# that is seven light jobs (about 0.6 s) and two of about 1.2-1.7 s, so
# three passes fit in a 25 s run; the median and the tail percentile of a
# run (p65 of 27 jobs) both fall inside the light cluster, away from the
# edge between the clusters.
LEDGER_SLOTS = [(d, 1) for d in LEDGER_DISCS] + [(-7, 2)]
LEDGER_EXTRA_M1 = (-3, -7, -11)
LEDGER_EXTRA_JOBS = 3
LEDGER_THETA_CUTOFF = 3


def ledger_pass(rng):
    jobs = [verify_job(d, rng.choice(verify_options(d, top))) for d, top in LEDGER_SLOTS]
    for _ in range(LEDGER_EXTRA_JOBS):
        d = rng.choice(LEDGER_EXTRA_M1)
        jobs.append(verify_job(d, rng.choice(verify_options(d, 1))))
    jobs.append(theta_job(LEDGER_THETA_CUTOFF))
    rng.shuffle(jobs)
    return jobs


def ledger_catalogue():
    jobs = []
    for d, top in LEDGER_SLOTS:
        jobs += [verify_job(d, pp) for pp in verify_options(d, top)]
    for d in LEDGER_EXTRA_M1:
        jobs += [verify_job(d, pp) for pp in verify_options(d, 1)]
    return jobs + [theta_job(LEDGER_THETA_CUTOFF)]


# ---------------------------------------------------------------------------
# chowla: CLI L-function analytics

CHOWLA_PRECISION = 15
# Pairs of neighbouring |d| keep the cost of each slot, and so of a pass,
# nearly independent of the seed; the last slot has h = 18 or 6.
CHOWLA_BINS = [(23, 31), (35, 39), (43, 47), (51, 55), (67, 71), (79, 83),
               (87, 91), (103, 107), (335, 339)]


def chowla_bin(lo, hi):
    return [-n for n in range(lo, hi + 1) if odd_fundamental(-n)]


def chowla_job(d):
    return {"kind": "cli", "check": "chowla", "d": d,
            "argv": ["--precision", str(CHOWLA_PRECISION), "chowla", "--disc", str(d)]}


def chowla_pass(rng):
    jobs = [chowla_job(rng.choice(chowla_bin(lo, hi))) for lo, hi in CHOWLA_BINS]
    rng.shuffle(jobs)
    return jobs


def chowla_catalogue():
    return [chowla_job(d) for lo, hi in CHOWLA_BINS for d in chowla_bin(lo, hi)]


# ---------------------------------------------------------------------------
# cm-oracle: library sweep of the degree oracle in class number one

# largest m per field; d = -43 builds a cold quaternion order for almost
# every new prime, so it is capped lower
CM_MAX_M = {-3: 10, -7: 10, -11: 10, -19: 10, -43: 4}
RHO_BATCHES = 2
RHO_BATCH = 60


def cm_pass(rng):
    jobs = []
    for d in CM_DISCS:
        n = -d
        for k in range((n - 1) // 2 + 1):
            # mu and -mu give the same degree; the seed picks the sign
            idx = k if k == 0 or rng.random() < 0.5 else n - k
            m = coset_q(d, k) or Fraction(1)
            while m <= CM_MAX_M[d]:
                jobs.append({"kind": "cm", "d": d, "m": frac_str(m), "mu": idx})
                m += 1
        for _ in range(RHO_BATCHES):
            jobs.append({"kind": "rho", "d": d,
                         "ms": [rng.randint(1, 10 ** 4) for _ in range(RHO_BATCH)]})
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# weil-modular: library relation checks in the Weil representation

# one lattice per |D| (definite of both signs and indefinite, as in the
# acceptance criteria); the seed presents each in a random basis, which
# changes the coset order but not the work
WEIL_SLOTS = [
    (7, [[-2, -1], [-1, -4]]),
    (8, [[2, 0], [0, -4]]),
    (11, [[2, 1], [1, 6]]),
    (12, [[2, 0], [0, 6]]),
    (15, [[4, 1], [1, 4]]),
    (23, [[2, 1], [1, 12]]),
    (31, [[4, 1], [1, 8]]),
]
# (ST)^3 takes 0.25 s at |D| = 12, 0.5 s at |D| = 15, 2.5-4 s at |D| = 23
# and 8-10 s at |D| = 31 (|D| = 71 takes minutes); word checks take 0.1-0.3
# s at |D| = 11-15 and 1.2 s at |D| = 23.  Above these sizes a slot checks
# only S^2 = Z and Z^2 = e(sig/2) id, so that no single job takes a large
# share of a pass.  The word checks sit on |D| = 11-15, where six per lattice
# put the median job inside their 0.1-0.15 s cluster rather than on the
# edge between two clusters, which made the median jump between seeds.
WEIL_ST3_MAX = 12
WEIL_APPLY_DISCS = range(11, 16)
WEIL_WORDS = 6


def weil_word(rng):
    letters = ["S", "S"] + [rng.choice(["T", "T^-1"]) for _ in range(2)]
    rng.shuffle(letters)
    return letters


def weil_vector(rng, n):
    return [frac_str(Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3])))
            for _ in range(n)]


def change_basis(rng, gram):
    """U^T G U for a seeded U in SL_2(Z) with entries in -1..1."""
    a, b = rng.choice([-1, 1]), rng.choice([-1, 0, 1])
    U = [[1, a], [0, 1]] if rng.random() < 0.5 else [[1, 0], [a, 1]]
    V = [[1, 0], [b, 1]] if rng.random() < 0.5 else [[1, b], [0, 1]]
    U = [[sum(U[i][k] * V[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    return [[sum(U[k][i] * gram[k][l] * U[l][j] for k in range(2) for l in range(2))
             for j in range(2)] for i in range(2)]


def weil_pass(rng):
    jobs = []
    for disc, gram in WEIL_SLOTS:
        gram = change_basis(rng, gram)
        rels = ["S2", "Z2"]
        if disc <= WEIL_ST3_MAX:
            rels.append("ST3")
        for rel in rels:
            jobs.append({"kind": "weil", "rel": rel, "gram": gram})
        if disc in WEIL_APPLY_DISCS:
            for _ in range(WEIL_WORDS):
                jobs.append({"kind": "weil", "rel": "apply", "gram": gram,
                             "word": weil_word(rng), "vec": weil_vector(rng, disc)})
    # lattices stay grouped (each builds its own WeilRep); their order varies
    groups = {}
    for job in jobs:
        groups.setdefault(json.dumps(job["gram"]), []).append(job)
    order = list(groups.values())
    rng.shuffle(order)
    return [job for group in order for job in group]


# ---------------------------------------------------------------------------
# workload table

# pass_s: seconds of one pass on the baseline machine (2 vCPUs, Python
# 3.11), at the reference host speed of bench/probe.py.  A run makes
# max(MIN_PASSES, seconds // pass_s) passes, so every run at a given
# --seconds holds the same jobs and the same tail percentile.
WORKLOADS = {
    "ledger-e8": {"runner": "cli", "make_pass": ledger_pass, "files": ledger_files,
                  "catalogue": ledger_catalogue, "pass_s": 7.5,
                  "job": "one `speccy verify` or `speccy theta` process"},
    "cm-oracle": {"runner": "lib", "make_pass": cm_pass, "pass_s": 8.2,
                  "job": "one (d, m, mu) degree check, or one batch of rho checks"},
    "weil-modular": {"runner": "lib", "make_pass": weil_pass, "pass_s": 5.4,
                     "job": "one Weil relation checked on one lattice"},
    "chowla": {"runner": "cli", "make_pass": chowla_pass, "pass_s": 8.6,
               "catalogue": chowla_catalogue,
               "job": "one `speccy chowla --disc d` process"},
}

MIN_PASSES = 3


def pass_count(workload, seconds):
    return max(MIN_PASSES, int(seconds // WORKLOADS[workload]["pass_s"]))


def write_files(workload, directory):
    """Write the workload's fixture files (lattices, embeddings) into directory."""
    for name, blob in WORKLOADS[workload].get("files", dict)().items():
        with open(os.path.join(directory, name), "w") as fh:
            json.dump(blob, fh)


def make_pass(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload]["make_pass"](rng)


def tail_percentile(jobs):
    """Highest whole percentile (at least 50) whose value, interpolated
    between neighbouring ranks as statistics.quantiles(method="inclusive")
    does, leaves at least ten of `jobs` latencies above it."""
    pct = 50
    while pct < 99 and jobs - 1 - (jobs - 1) * (pct + 1) // 100 >= 10:
        pct += 1
    return pct


def job_key(job):
    return " ".join(job["argv"])


# ---------------------------------------------------------------------------
# oracles for CLI output


def sigma3(n):
    return sum(k ** 3 for k in range(1, n + 1) if n % k == 0)


def check_cli(job, code, stdout, golden):
    """None if the job's output is right, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    want = golden.get(job_key(job))
    if want is None:
        return "no golden digest for this job"
    import hashlib
    if hashlib.sha256(stdout).hexdigest() != want:
        return "stdout digest differs from golden"
    blob = json.loads(stdout)
    return ORACLES[job["check"]](job, blob)


def _oracle_verify(job, blob):
    tot = blob["totals"]
    if not tot["all_match"] or not all(r["match"] for r in blob["rows"]):
        return "ledger identity mismatch"
    if tot["residual"] != {"rational": "0", "logs": {}, "specials": {}}:
        return "nonzero residual"
    return None


def _oracle_theta(job, blob):
    coeffs = blob["theta"]["coefficients"]
    if [c["exponent"] for c in coeffs] != [str(n) for n in range(job["cutoff"] + 1)]:
        return "theta exponents are not 0..cutoff"
    for n, c in enumerate(coeffs):
        if c["vector"] != [str(240 * sigma3(n) if n else 1)]:
            return f"E8 theta r({n}) != 240 sigma_3({n})"
    return None


def _oracle_chowla(job, blob):
    d = job["d"]
    h = class_number(d)
    w = 6 if d == -3 else 2
    if blob["field"] != {"d": d, "h": h, "w": w}:
        return "wrong field invariants"
    if blob["L_at_0"] != frac_str(Fraction(2 * h, w)) or not blob["L_at_0_equals_2h_over_w"]:
        return "L(chi, 0) != 2h/w"
    if not all(float(x) < 1e-10 for x in blob["functional_equation_defect"]):
        return "functional equation defect >= 1e-10"
    return None


ORACLES = {"verify": _oracle_verify, "theta": _oracle_theta, "chowla": _oracle_chowla}
