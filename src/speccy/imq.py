"""Imaginary quadratic field invariants and L-function analytics.

The field k = Q(sqrt(d)) for a negative odd fundamental discriminant d:
class number by counting reduced binary forms, Kronecker character, the
ideal-count function rho, Diff sets through one Hilbert symbol per prime
(L0 (x) Q is Q(e1) times the norm form of Q(sqrt d)), and L(chi, s) with
its derivative at s = 0 through the log-Gamma route (which is the
Chowla-Selberg evaluation in disguise).

LogLinear is the currency of arithmetic degrees: an exact element of the
Q-span of 1, log p (p prime), the Euler-Mascheroni constant, log pi,
log|d_k|, and L'/L(chi, 0).  The last two stay symbolic so that degree
identities can be checked coefficientwise.

mpmath is imported inside the functions that evaluate numerically, so
importing speccy or its CLI does not load it.
"""

from __future__ import annotations

import functools
import marshal
import os
from collections import namedtuple
from fractions import Fraction
from math import isqrt

from .lattice import InvariantError, QuadLattice, factorization, is_fundamental_discriminant

SPECIAL_SYMBOLS = ("gamma", "log_pi", "log_abs_d", "Lprime_over_L")


class LogLinear(namedtuple("LogLinear", "rational logs specials",
                           defaults=(Fraction(0), (), ()))):
    """rational + sum r_p log p + sum c_s * (special symbol); logs and
    specials are sorted tuples of (prime, Fraction) and (symbol, Fraction)."""

    __slots__ = ()

    @classmethod
    def make(cls, rational=0, logs=None, specials=None):
        lg = tuple(sorted((int(p), Fraction(c)) for p, c in (logs or {}).items()
                          if Fraction(c) != 0))
        sp = []
        for s, c in (specials or {}).items():
            if s not in SPECIAL_SYMBOLS:
                raise ValueError(f"unknown special symbol {s!r}")
            if Fraction(c) != 0:
                sp.append((s, Fraction(c)))
        return cls(Fraction(rational), lg, tuple(sorted(sp)))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return LogLinear(self.rational + other, self.logs, self.specials)
        return LogLinear(self.rational + other.rational, _merge(self.logs, other.logs),
                         _merge(self.specials, other.specials))

    __radd__ = __add__

    def __neg__(self):
        return LogLinear(-self.rational, tuple((p, -c) for p, c in self.logs),
                         tuple((s, -c) for s, c in self.specials))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, c):
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        if c == 0:
            return LogLinear()
        return LogLinear(self.rational * c, tuple((p, v * c) for p, v in self.logs),
                         tuple((s, v * c) for s, v in self.specials))

    __rmul__ = __mul__

    def is_zero(self):
        return self.rational == 0 and not self.logs and not self.specials

    def evaluate(self, field=None, dps=30):
        """Numeric value; a field is required whenever log|d| or L'/L occur."""
        import mpmath

        with mpmath.workdps(dps + 10):
            total = mpmath.mpf(self.rational.numerator) / self.rational.denominator
            for p, c in self.logs:
                total += mpmath.mpf(c.numerator) / c.denominator * mpmath.log(p)
            for s, c in self.specials:
                coeff = mpmath.mpf(c.numerator) / c.denominator
                if s == "gamma":
                    total += coeff * mpmath.euler
                elif s == "log_pi":
                    total += coeff * mpmath.log(mpmath.pi)
                elif s == "log_abs_d":
                    if field is None:
                        raise ValueError("field required to evaluate log|d|")
                    total += coeff * mpmath.log(abs(field.d))
                elif s == "Lprime_over_L":
                    if field is None:
                        raise ValueError("field required to evaluate L'/L")
                    total += coeff * L_derivative_data(field, dps=dps)["Lprime_over_L"]
            return +total

    def to_json(self):
        return {
            "rational": str(self.rational),
            "logs": {str(p): str(c) for p, c in self.logs},
            "specials": {s: str(c) for s, c in self.specials},
        }

    def __repr__(self):
        parts = []
        if self.rational:
            parts.append(str(self.rational))
        parts += [f"{c}*log({p})" for p, c in self.logs]
        parts += [f"{c}*{s}" for s, c in self.specials]
        return "LogLinear(" + (" + ".join(parts) if parts else "0") + ")"


def _merge(xs, ys):
    """The sorted, zero-free (key, coefficient) tuple of xs + ys, for xs
    and ys already sorted and zero-free."""
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        (k, a), (l, b) = xs[i], ys[j]
        if k == l:
            c = a + b
            if c:
                out.append((k, c))
            i += 1
            j += 1
        elif k < l:
            out.append(xs[i])
            i += 1
        else:
            out.append(ys[j])
            j += 1
    return (*out, *xs[i:], *ys[j:])


def kronecker_symbol(a, n):
    """Kronecker symbol (a/n) for integers a, n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if n < 0:
        return (-1 if a < 0 else 1) * kronecker_symbol(a, -n)
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _hilbert_candidates(values):
    """2 and every prime of a numerator or denominator of the rational
    values: outside these primes every Hilbert symbol of them is 1."""
    cands = {2}
    for x in values:
        for n in (x.numerator, x.denominator):
            cands.update(p for p, _ in factorization(n))
    return sorted(cands)


def reduced_forms(d):
    """Reduced positive binary quadratic forms (a, b, c) of discriminant d:
    b^2 - 4ac = d, |b| <= a <= c, with b >= 0 when |b| = a or a = c."""
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError("d must be a negative discriminant")
    forms = []
    for b in range(abs(d) % 2, isqrt(-d // 3) + 1, 2):
        ac4 = b * b - d
        if ac4 % 4:
            continue
        ac = ac4 // 4
        a = max(b, 1)
        while a * a <= ac:
            if ac % a == 0:
                c = ac // a
                if b <= a <= c:
                    forms.append((a, b, c))
                    if 0 < b < a < c:
                        forms.append((a, -b, c))
            a += 1
    return sorted(forms)


class ImQField(namedtuple("ImQField", "d h w")):
    """Invariants of k = Q(sqrt(d)) for odd fundamental d < 0."""

    __slots__ = ()

    @classmethod
    def from_discriminant(cls, d):
        d = int(d)
        if d >= 0 or d % 2 == 0:
            raise ValueError(f"discriminant must be negative and odd, got {d}")
        if not is_fundamental_discriminant(d):
            raise ValueError(f"discriminant must be fundamental (squarefree, 1 mod 4), got {d}")
        h = len(reduced_forms(d))
        w = 6 if d == -3 else 2
        return cls(d, h, w)

    def chi(self, n):
        return kronecker_symbol(self.d, int(n))


def rho(K: ImQField, m) -> int:
    """Number of integral ideals of norm m; zero off the positive integers.
    An int m is read as it is, with no Fraction built."""
    if not isinstance(m, int):
        m = Fraction(m)
        m = m.numerator if m.denominator == 1 else 0
    if m <= 0:
        return 0
    # multiplicative: over p^e || m the ideal count is sum_{i<=e} chi(p)^i
    total = 1
    for p, e in factorization(m):
        c = K.chi(p)
        if c == 1:
            total *= e + 1
        elif c == -1:
            total *= (e + 1) % 2
    return total


@functools.lru_cache(maxsize=None)
def _form_histogram(d, bound):
    """counts[m] = number of (x, y) with f(x,y) = m <= bound, summed over
    all reduced forms of discriminant d, as a read-only memoryview of
    16-bit counts (a quarter of a list's size; a count past 2^16 - 1 is a
    ValueError, never wrapped).  f(-x, -y) = f(x, y), so only half the
    plane is walked: on y = 0 the points x > 0 count twice and the origin
    once.  A row y > 0 walks u = 2ax + by instead of x, since
    4a f(x, y) = u^2 + |d| y^2: u runs over the class of b y mod 2a with
    u^2 <= 4a bound - |d| y^2, and each u counts twice.  When that class
    is closed under u -> -u (always for a = 1), only u >= 0 is walked and
    u > 0 counts four times."""
    counts = memoryview(bytearray(2 * (bound + 1))).cast("H")
    n = -d
    for a, b, _ in reduced_forms(d):
        counts[0] += 1
        for x in range(1, isqrt(bound // a) + 1):
            counts[a * x * x] += 2
        a2, a4 = 2 * a, 4 * a
        for y in range(1, isqrt(a4 * bound // n) + 1):
            ny2 = n * y * y
            umax = isqrt(a4 * bound - ny2)
            res = b * y % a2
            if 2 * res % a2:  # -u lies in another class: walk both signs
                for u in range(res - (umax + res) // a2 * a2, umax + 1, a2):
                    counts[(u * u + ny2) // a4] += 2
            else:
                if res == 0:
                    counts[ny2 // a4] += 2
                    res = a2
                for u in range(res, umax + 1, a2):
                    counts[(u * u + ny2) // a4] += 4
    return counts.toreadonly()


RHO_ORACLE_BOUND = 10 ** 4


def rho_bruteforce(K: ImQField, m) -> int:
    """Independent oracle for rho: (1/w) * number of representations of m
    by the h reduced forms of discriminant d (form/ideal correspondence);
    zero off the positive integers, as for rho.  An int m is read as it
    is, with no Fraction built."""
    if not isinstance(m, int):
        m = Fraction(m)
        m = m.numerator if m.denominator == 1 else 0
    if m <= 0:
        return 0
    if m > RHO_ORACLE_BOUND:
        raise ValueError(f"rho_bruteforce: m = {m} is past the oracle bound {RHO_ORACLE_BOUND}")
    counts = _form_histogram(K.d, RHO_ORACLE_BOUND)
    reps = counts[m]
    if reps % K.w:
        raise InvariantError(f"{reps} representations of {m} not divisible by w = {K.w}")
    return reps // K.w


def _val(n, p):
    if p < 2:
        raise ValueError(f"valuation needs a prime p >= 2, got {p}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def ord_p(x, p) -> int:
    """p-adic valuation of a nonzero rational."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of zero")
    vn, _ = _val(abs(x.numerator), p)
    vd, _ = _val(x.denominator, p)
    return vn - vd


def hilbert_symbol(a, b, p) -> int:
    """Hilbert symbol (a, b)_p over Q_p (p prime) or over R (p = 'inf'); two
    ints are read as they are, else each x = n/d becomes n d = x d^2."""
    if not (isinstance(a, int) and isinstance(b, int)):
        a, b = Fraction(a), Fraction(b)
        a, b = a.numerator * a.denominator, b.numerator * b.denominator
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol requires nonzero arguments")
    if p == "inf":
        return -1 if (a < 0 and b < 0) else 1
    p = int(p)
    alpha, u = _val(abs(a), p)
    u *= -1 if a < 0 else 1
    beta, v = _val(abs(b), p)
    v *= -1 if b < 0 else 1
    if p != 2:
        eps = (p - 1) // 2
        s = 1
        if alpha % 2 and beta % 2:
            s *= (-1) ** (eps % 2)
        if beta % 2:
            s *= kronecker_symbol(u % p, p)
        if alpha % 2:
            s *= kronecker_symbol(v % p, p)
        return s
    # p = 2: (a,b)_2 = (-1)^(eps(u)eps(v) + alpha*omega(v) + beta*omega(u))
    def eps2(n):
        return ((n - 1) // 2) % 2

    def omega2(n):
        return ((n * n - 1) // 8) % 2

    e = eps2(u) * eps2(v) + alpha * omega2(v) + beta * omega2(u)
    return -1 if e % 2 else 1


def diff_set(L0: QuadLattice, m) -> frozenset:
    """Finite primes p where L0 (x) Q_p fails to represent m > 0.

    With a = Q(e1) and disc = [e1, e2]^2 - [e1, e1][e2, e2], completing the
    square gives Q = a (x + b y / 2a)^2 - (disc / 4a) y^2 (b = [e1, e2]), so
    L0 (x) Q = <a, -disc/4a> = a <1, -disc>.  That form represents m over
    Q_p exactly when m/a is a norm from Q_p(sqrt disc), i.e. when the
    Hilbert symbol (a m, disc)_p is 1.  The candidate primes are read off
    a and m apart, so a refused factorisation names m, not a m.  The symbol
    runs on the ints a num(m) den(m) = a m den(m)^2 and disc.
    """
    m = Fraction(m)
    if m <= 0:
        raise ValueError("diff_set requires m > 0")
    if L0.rank != 2 or not L0.is_negative_definite():
        raise ValueError("diff_set requires a negative definite binary lattice")
    gram = L0.gram
    a = gram[0][0] // 2
    disc = gram[0][1] ** 2 - gram[0][0] * gram[1][1]
    am = a * m.numerator * m.denominator
    return frozenset(p for p in _hilbert_candidates((a, m, disc))
                     if hilbert_symbol(am, disc, p) == -1)


# ---------------------------------------------------------------------------
# L-functions


def L_chi_exact_at_0(K: ImQField) -> Fraction:
    """L(chi, 0) = -(1/|d|) sum chi(a) a, exactly."""
    q = -K.d
    return Fraction(-sum(K.chi(a) * a for a in range(1, q)), q)


def L_chi(K: ImQField, s, dps=30):
    """L(chi, s) by the Hurwitz zeta expansion q^-s sum chi(a) zeta(s, a/q)."""
    import mpmath

    q = -K.d
    with mpmath.workdps(2 * dps + 10):
        s = mpmath.mpmathify(s)
        total = mpmath.mpf(0)
        for a in range(1, q):
            c = K.chi(a)
            if c:
                total += c * mpmath.zeta(s, mpmath.mpf(a) / q)
        val = mpmath.power(q, -s) * total
        return +val


@functools.lru_cache(maxsize=None)
def _lderiv_cached(K: ImQField, L0: Fraction, dps):
    """L'(chi, 0) and L'/L(chi, 0) of K, given the exact L(chi, 0) = L0."""
    import mpmath

    q = -K.d
    with mpmath.workdps(2 * dps + 10):
        # L'(chi,0) = sum chi(a) logGamma(a/q) - log(q) L(chi,0)
        acc = mpmath.mpf(0)
        for a in range(1, q):
            c = K.chi(a)
            if c:
                acc += c * mpmath.loggamma(mpmath.mpf(a) / q)
        lp = acc - mpmath.log(q) * mpmath.mpf(L0.numerator) / L0.denominator
        ratio = lp * Fraction(L0.denominator, L0.numerator)
        return +lp, +ratio


def L_derivative_data(K: ImQField, dps=30):
    """Exact L(chi, 0) plus high-precision L'(chi, 0) and L'/L(chi, 0)."""
    L0 = L_chi_exact_at_0(K)
    if L0 != Fraction(2 * K.h, K.w):
        raise InvariantError(f"character sum L(chi, 0) = {L0} disagrees with 2h/w")
    lp, ratio = _lderiv_cached(K, L0, dps)
    return {"L_at_0": L0, "Lprime_at_0": lp, "Lprime_over_L": ratio}


def completed_lambda(K: ImQField, s, dps=30):
    """Lambda(s) = (|d|/pi)^((s+1)/2) Gamma((s+1)/2) L(chi, s)."""
    import mpmath

    with mpmath.workdps(2 * dps + 10):
        s = mpmath.mpmathify(s)
        pref = mpmath.power(mpmath.mpf(-K.d) / mpmath.pi, (s + 1) / 2)
        return +(pref * mpmath.gamma((s + 1) / 2) * L_chi(K, s, dps=dps))


def functional_equation_defects(K: ImQField, points, dps=30):
    """|Lambda(s) - Lambda(1 - s)| for each real s in points.

    The Lambda values are shared round-robin between this process and one
    forked child per further CPU in the affinity mask; a child sends its
    values back as exact mpf tuples, so the result does not depend on the
    number of CPUs.  The subtraction runs at the ambient precision.  A
    process with a second thread never forks: its child could deadlock.
    A child polls its parent every 0.2 s and exits once the parent is gone."""
    import threading

    import mpmath

    args = [x for s in points for x in (s, 1 - s)]
    forkable = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                and threading.active_count() == 1)
    workers = max(1, min(len(os.sched_getaffinity(0)) if forkable else 1, len(args)))
    values = [None] * len(args)
    children = []
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    # a parent killed before it reads the share leaves no
                    # reader: poll its pid and exit once it is gone
                    import signal

                    parent = os.getppid()
                    signal.signal(signal.SIGALRM, lambda *_: os.getppid() == parent or os._exit(1))
                    signal.setitimer(signal.ITIMER_REAL, 0.2, 0.2)
                    os.close(r)
                    share = [completed_lambda(K, s, dps=dps)._mpf_ for s in args[k::workers]]
                    with os.fdopen(w, "wb") as fh:
                        fh.write(marshal.dumps([(g, int(m), e, b) for g, m, e, b in share]))
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        values[0::workers] = [completed_lambda(K, s, dps=dps) for s in args[0::workers]]
        shares = [fh.read() for _, fh in children]
    finally:
        for _, fh in children:
            fh.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
    for k, (code, data) in enumerate(zip(codes, shares), 1):
        if code:
            raise InvariantError(f"Lambda worker {k} of {workers} exited with code {code}")
        values[k::workers] = [mpmath.mp.make_mpf((g, mpmath.libmp.MPZ(m), e, b))
                              for g, m, e, b in marshal.loads(data)]
    return [abs(values[i] - values[i + 1]) for i in range(0, len(values), 2)]

