"""Library worker: runs one pass of a library workload in a fresh interpreter.

    python3 bench/worker.py JOBS.json RESULT.json TRACE(0|1)

Each job calls public speccy functions and checks the result against an
independent oracle; the job's latency is timed here, around the call.  The
result file holds, per job, its latency, the mean time of the host speed
probes (bench/probe.py) taken just before and just after it, an output
digest and the reason it failed (null when it passed), and with TRACE=1 the
tracer's aggregates and spans.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from fractions import Fraction
from time import perf_counter

_t0 = perf_counter()
import speccy.cli  # noqa: E402,F401  (cold import, timed like a user's first call)
from speccy import cm, cyclotomic, eisenstein, imq, lattice, weil  # noqa: E402

IMPORT_S = perf_counter() - _t0

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from probe import probe  # noqa: E402
from workloads import principal_l0  # noqa: E402

PROBE_EVERY_S = 0.5


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class Jobs:
    """Job bodies; each returns (output summary, failure reason or None).
    Library functions are looked up on their modules at call time, so the
    tracer's wrappers are seen once installed."""

    def __init__(self):
        self._pkgs = {}
        self._weil = (None, None)

    def _pkg(self, d):
        # the package is part of the user's sweep state, like a cache
        if d not in self._pkgs:
            self._pkgs[d] = eisenstein.EisensteinPackage.from_lattice(
                lattice.QuadLattice(principal_l0(d)))
        return self._pkgs[d]

    def cm(self, job):
        pkg = self._pkg(job["d"])
        m = Fraction(job["m"])
        mu = pkg.disc0.coset_by_index(job["mu"])
        hw = Fraction(pkg.K.h, pkg.K.w)
        fm = cm.degree_formula(pkg, m, mu)
        ap = eisenstein.a_plus(pkg, m, mu)
        if not (fm.degree - ap * (-hw)).is_zero():
            return None, "degree_formula != -(h/w) a_plus"
        out = [fm.prime, str(fm.weighted_count)]
        diff = pkg.diff(m)
        if len(diff) == 1:
            (p,) = diff
            if imq.ord_p(m, p) >= 0:
                bf = cm.degree_bruteforce(pkg, m, mu)
                if not (bf.degree - fm.degree).is_zero() or bf.weighted_count != fm.weighted_count:
                    return None, "quaternion count != degree_formula"
                out.append(str(bf.weighted_count))
        return out, None

    def rho(self, job):
        K = imq.ImQField.from_discriminant(job["d"])
        vals = []
        for m in job["ms"]:
            r = imq.rho(K, m)
            if r != imq.rho_bruteforce(K, m):
                return None, f"rho != form count at m = {m}"
            vals.append(r)
        return vals, None

    def _rep(self, gram):
        key = json.dumps(gram)
        if self._weil[0] != key:
            group = lattice.discriminant_group(lattice.QuadLattice(gram))
            self._weil = (key, weil.WeilRep(group))
        return self._weil[1]

    def weil(self, job):
        CycNum = cyclotomic.CycNum
        w = self._rep(job["gram"])
        rel = job["rel"]
        if rel == "S2":
            S = w.omega_S()
            ok = S.matmul(S) == w.omega_Z()
        elif rel == "ST3":
            ST = w.omega_S().matmul(w.omega_T())
            ok = ST.matmul(ST).matmul(ST) == w.omega_Z()
        elif rel == "Z2":
            Z = w.omega_Z()
            Z2 = Z.matmul(Z)
            phase = CycNum.e(Fraction(w.sig8, 2))
            ok = all((Z2.entries[i][j] - (phase if i == j else CycNum())).is_zero()
                     for i in range(w.dim) for j in range(w.dim))
        else:
            vec = [Fraction(x) for x in job["vec"]]
            got = w.apply("omega", tuple(job["word"]), vec)
            want = w.rep_matrix(tuple(job["word"])).apply([CycNum.from_rational(x) for x in vec])
            ok = all((a - b).is_zero() for a, b in zip(got, want))
            if ok:
                return [sorted((str(q), str(c)) for q, c in x.terms.items()) for x in got], None
        return [rel, w.dim, ok], None if ok else f"Weil relation {rel} fails"


def main(argv):
    jobs_path, out_path, trace = argv[0], argv[1], argv[2] == "1"
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    runner = Jobs()
    results, probes = [], []
    last_probe = None
    for i, job in enumerate(jobs):
        if last_probe is None or perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(probe())
            last_probe = perf_counter()
        body = getattr(runner, job["kind"])
        span = tracer.job(i) if tracer else None
        t = perf_counter()
        try:
            if span:
                with span:
                    out, err = body(job)
            else:
                out, err = body(job)
        except Exception as exc:  # a crashing job is a failed job, not a crashed pass
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t
        rec = {"s": dt, "probe": len(probes) - 1, "digest": _digest(out), "error": err}
        if span:
            rec["covered_s"] = span.covered
            rec["traced_s"] = span.seconds
        results.append(rec)
    probes.append(probe())
    for rec in results:
        k = rec.pop("probe")
        rec["probe_s"] = (probes[k] + probes[k + 1]) / 2
    blob = {"import_s": IMPORT_S, "jobs": results, "probe_total_s": sum(probes)}
    if tracer:
        blob["trace"] = tracer.dump()
    with open(out_path, "w") as fh:
        json.dump(blob, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
