"""Exact arithmetic in the cyclotomic fields Q(zeta_n).

A CycNum is a finite sum  sum_k c_k e(k/n),  e(x) = exp(2 pi i x).  It
stores its conductor n and the dict terms = {k: c_k} of nonzero
coefficients, keyed by integer exponents 0 <= k < n.  Coefficients are
Python ints; they are Fractions only where a coefficient is not integral
(rational input vectors, the 1/|D| of a folded square root).

The conductor is any multiple of the true order of the exponents.  An
operation on two numbers of different conductors first lifts both to the
lcm of the two (k/n = (k m/n)/m), so sums and products are integer maps on
exponents.  The exponent arithmetic of a product is written once, in
_mul_into; _matmul, the matrix product of the Weil representation, uses it
to accumulate each entry's whole sum of products in one exponent dict.

Different sums can have equal values (1 + e(1/2) = 0).  With the true
order N = n/g, g = gcd(n, all k), a number is P(zeta_N) for
P = sum c_k x^(k/g), so equality and the zero test reduce P modulo the
cyclotomic polynomial Phi_N: the number is zero exactly when the
remainder is.  When N = 2m with m odd the reduction substitutes x -> -x
and works modulo Phi_m (Phi_N(x) = Phi_m(-x)), which halves its length.

Square roots of positive integers are cyclotomic by the classical Gauss
sum evaluation, provided by sqrt_cyclotomic; this is what lets scale
factors |D|^(1/2) be folded into exact matrix entries.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm

from .lattice import InvariantError, factorization

_PHI_CACHE = {1: [-1, 1]}  # N -> integer coefficients of Phi_N, ascending


def _poly_divmod_int(num, den):
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    dden = len(den) - 1
    out = [0] * (max(len(num) - dden, 0))
    for i in range(len(num) - 1, dden - 1, -1):
        q = num[i] // den[dden]
        out[i - dden] = q
        if q:
            for j in range(dden + 1):
                num[i - dden + j] -= q * den[j]
    while num and num[-1] == 0:
        num.pop()
    return out, num


def cyclotomic_polynomial(N):
    """Integer coefficients (ascending) of Phi_N, cached."""
    if N in _PHI_CACHE:
        return _PHI_CACHE[N]
    poly = [0] * N + [1]
    poly[0] = -1  # x^N - 1
    for d in range(1, N):
        if N % d == 0:
            poly, rem = _poly_divmod_int(poly, cyclotomic_polynomial(d))
            if rem:
                raise InvariantError(f"Phi_{d} leaves a remainder in x^{N} - 1")
    _PHI_CACHE[N] = poly
    return poly


def _rational(c):
    """c as an int when integral, else as a Fraction."""
    if isinstance(c, int):
        return c
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _cyc(n, terms):
    """CycNum at conductor n from a dict of reduced nonzero terms."""
    r = CycNum.__new__(CycNum)
    r.n = n
    r.terms = terms
    return r


def _lift(x, n):
    """The terms of x at the conductor n, a multiple of x.n."""
    if x.n == n:
        return x.terms
    s = n // x.n
    return {k * s: c for k, c in x.terms.items()}


def _mul_into(acc, n, at, bt):
    """acc += a * b for a dict acc of exponents at the conductor n, with a
    and b given as (exponent, coefficient) pairs at that conductor.  Zero
    coefficients may be left in acc."""
    get = acc.get
    for ka, ca in at:
        for kb, cb in bt:
            k = (ka + kb) % n
            acc[k] = get(k, 0) + ca * cb


def _matmul(A, B):
    """Exact product of CycNum matrices (lists of rows).  Each entry
    sum_k A_ik B_kj is accumulated in one exponent dict at the lcm of the
    conductors of all entries, so no partial sum is built as a CycNum."""
    n = lcm(*(x.n for M in (A, B) for row in M for x in row))
    rows_b = [[(j, list(_lift(x, n).items())) for j, x in enumerate(row) if x.terms]
              for row in B]
    width = len(B[0]) if B else 0
    out = []
    for row in A:
        accs = [{} for _ in range(width)]
        for a, row_b in zip(row, rows_b):
            if a.terms and row_b:
                at = list(_lift(a, n).items())
                for j, bt in row_b:
                    _mul_into(accs[j], n, at, bt)
        out.append([_cyc(n, {k: c for k, c in acc.items() if c}) for acc in accs])
    return out


class CycNum:
    """Element of Q(zeta_n): sum of c * e(k/n) over terms = {k: c}."""

    __slots__ = ("n", "terms")

    def __init__(self, terms=None, n=1):
        self.n = n
        self.terms = {}
        for k, c in (terms or {}).items():
            k %= n
            c = self.terms.get(k, 0) + _rational(c)
            if c:
                self.terms[k] = c
            else:
                self.terms.pop(k, None)

    @classmethod
    def e(cls, q):
        """The root of unity e(q) = exp(2 pi i q), q rational."""
        q = Fraction(q)
        return _cyc(q.denominator, {q.numerator % q.denominator: 1})

    @classmethod
    def from_rational(cls, c):
        c = _rational(c)
        return _cyc(1, {0: c} if c else {})

    def __add__(self, other):
        other = _coerce(other)
        n = lcm(self.n, other.n)
        out = dict(_lift(self, n))
        for k, c in _lift(other, n).items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                del out[k]
        return _cyc(n, out)

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _rational(other)
            if not other:
                return CycNum()
            return _cyc(self.n, {k: _rational(c * other) for k, c in self.terms.items()})
        other = _coerce(other)
        n = lcm(self.n, other.n)
        acc = {}
        _mul_into(acc, n, _lift(self, n).items(), _lift(other, n).items())
        return _cyc(n, {k: c for k, c in acc.items() if c})

    __rmul__ = __mul__

    def conjugate(self):
        n = self.n
        return _cyc(n, {-k % n: c for k, c in self.terms.items()})

    def is_zero(self):
        terms = self.terms
        if len(terms) < 2:
            return not terms  # a single nonzero monomial never vanishes
        # true order N; distinct exponents, so N > 1 here
        g = gcd(self.n, *terms)
        N = self.n // g
        # Phi_N(x) = Phi_m(-x) for N = 2m with m odd: reduce in y = -x, which
        # has y^m = 1, modulo Phi_m
        flip = N % 4 == 2
        if flip:
            N //= 2
        # clear coefficient denominators (1 for ints), reduce mod Phi_N
        den = lcm(*(c.denominator for c in terms.values()))
        poly = [0] * N
        for k, c in terms.items():
            k //= g
            v = c.numerator * (den // c.denominator)
            poly[k % N] += -v if flip and k % 2 else v
        phi = cyclotomic_polynomial(N)
        deg = len(phi) - 1
        for i in range(N - 1, deg - 1, -1):
            c = poly[i]
            if c:
                for j in range(deg + 1):
                    poly[i - deg + j] -= c * phi[j]
        return not any(poly[:deg])

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return (self - other).is_zero()

    def __bool__(self):
        return not self.is_zero()

    def to_complex(self):
        n = self.n
        return sum(float(c) * cmath.exp(2j * cmath.pi * k / n)
                   for k, c in self.terms.items()) if self.terms else 0j

    def __repr__(self):
        if not self.terms:
            return "CycNum(0)"
        parts = [f"{c}*e({Fraction(k, self.n)})" if k else f"{c}"
                 for k, c in sorted(self.terms.items())]
        return "CycNum(" + " + ".join(parts) + ")"


def _coerce(x):
    if isinstance(x, CycNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycNum.from_rational(x)
    raise TypeError(f"cannot coerce {type(x)} to CycNum")


def _gauss_sqrt(u):
    """sqrt(u) for odd squarefree positive u, via the quadratic Gauss sum
    g(u) = sum e(k^2/u), which equals sqrt(u) or i*sqrt(u)."""
    if u == 1:
        return CycNum.from_rational(1)
    g = CycNum()
    for k in range(u):
        g = g + CycNum.e(Fraction(k * k, u))
    if u % 4 == 1:
        return g
    return g * CycNum.e(Fraction(-1, 4))  # g = i sqrt(u)


def sqrt_cyclotomic(n):
    """Exact CycNum equal to the positive square root of the positive
    integer n."""
    if n <= 0:
        raise ValueError("positive integer required")
    f = m = 1
    for p, e in factorization(n):
        f *= p ** (e // 2)
        m *= p ** (e % 2)
    out = CycNum.from_rational(f)
    if m % 2 == 0:
        out = out * (CycNum.e(Fraction(1, 8)) + CycNum.e(Fraction(-1, 8)))  # sqrt(2)
        m //= 2
    return out * _gauss_sqrt(m)
