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
_mul_into, which adds a left operand times each entry of a sparse row into
one exponent dict per column.  _matmul, the matrix product of the Weil
representation, calls it once per nonzero left entry, so each entry's whole
sum of products builds in one dict; a product and _is_product (a == b * c,
with one is_zero) call it with a one-entry row.

Different sums can have equal values (1 + e(1/2) = 0).  The zero test
writes a number in the power basis of Z[zeta_N], N = n/g the true order
(g = gcd(n, all k)): Z[zeta_N] is the tensor product of the Z[zeta_q] over
q = p^a exactly dividing N, each free on zeta_q^i, i < phi(q) (Washington,
Introduction to Cyclotomic Fields, GTM 83, ch. 2).  An exponent k carries
zeta_q to the power k mod q = u + p^(a-1) v, u < p^(a-1), v < p; it is off
the basis exactly when v = p - 1, and Phi_q(y) = sum_{v<p} y^(v p^(a-1))
moves its coefficient, negated, to the p - 1 exponents with the same u and
a smaller v.  The idempotent E = 1 mod q, 0 mod N/q moves the q-part alone,
so one pass per prime power leaves every exponent on the basis, and the
number is zero exactly when no coefficient is left.

Square roots of positive integers are cyclotomic by the classical Gauss
sum evaluation, provided by sqrt_cyclotomic; this is what lets scale
factors |D|^(1/2) be folded into exact matrix entries.  The Weil layer
folds one root per word, and sqrt_cyclotomic builds it in O(n) from one
count of the squares mod the squarefree part of n.
"""

from __future__ import annotations

import cmath
import functools
from fractions import Fraction
from math import gcd, lcm

from .lattice import factorization


@functools.lru_cache(maxsize=None)
def _basis_steps(N):
    """The moves onto the power basis of Z[zeta_N], in the order is_zero
    makes them: per q = p^a exactly dividing N, each exponent k off the
    basis in q (k mod q >= (p - 1) p^(a-1)) with the p - 1 exponents
    k - j p^(a-1) E mod N, 0 < j < p, that take its coefficient negated;
    E = 1 mod q and 0 mod N/q."""
    table = []
    for p, a in factorization(N):
        q = p ** a
        low, r = q // p, N // q
        step = low * r * pow(r, -1, q)  # p^(a-1) E
        table += [(k, [(k - j * step) % N for j in range(1, p)])
                  for k in range(N) if k % q >= q - low]
    return table


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


def _mul_into(accs, n, at, row):
    """accs[j] += a * b for each (j, b) of a sparse row, with a and every b
    given as (exponent, coefficient) pairs at the conductor n and accs[j]
    an exponent dict.  Zero coefficients may be left in accs."""
    for j, bt in row:
        acc = accs[j]
        get = acc.get
        for kb, cb in bt:
            for ka, ca in at:
                k = (ka + kb) % n
                acc[k] = get(k, 0) + ca * cb


def _matmul(A, B):
    """Exact product of CycNum matrices (lists of rows).  Each entry
    sum_k A_ik B_kj is accumulated in one exponent dict at the lcm of the
    conductors of all entries, so no partial sum is built as a CycNum."""
    n = lcm(*(x.n for M in (A, B) for row in M for x in row))
    # per row k of B: (j, terms of B_kj) over its nonzero entries
    rows_b = [[(j, list(_lift(x, n).items())) for j, x in enumerate(row) if x.terms]
              for row in B]
    width = len(B[0]) if B else 0
    out = []
    for row in A:
        accs = [{} for _ in range(width)]
        for a, row_b in zip(row, rows_b):
            if a.terms:
                _mul_into(accs, n, list(_lift(a, n).items()), row_b)
        out.append([_cyc(n, {k: c for k, c in acc.items() if c}) for acc in accs])
    return out


def _is_product(a, b, c):
    """Whether a == b * c, from b * c - a accumulated in one exponent dict
    and one is_zero: no intermediate CycNum."""
    n = lcm(a.n, b.n, c.n)
    acc = {k: -v for k, v in _lift(a, n).items()}
    _mul_into([acc], n, _lift(b, n).items(), [(0, _lift(c, n).items())])
    return _cyc(n, {k: v for k, v in acc.items() if v}).is_zero()


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
        _mul_into([acc], n, _lift(self, n).items(), [(0, _lift(other, n).items())])
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
        # clear coefficient denominators (1 for ints), then move every
        # exponent onto the power basis, one prime power after the other
        den = lcm(*(c.denominator for c in terms.values()))
        acc = [0] * N
        for k, c in terms.items():
            acc[k // g] = c.numerator * (den // c.denominator)
        for k, targets in _basis_steps(N):
            c = acc[k]
            if c:
                acc[k] = 0
                for j in targets:
                    acc[j] -= c
        return not any(acc)

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
    g(u) = sum_k e(k^2/u), which equals sqrt(u) for u = 1 mod 4 and
    i sqrt(u) for u = 3 mod 4, where sqrt(u) = e(-1/4) g(u) =
    sum_k e((4 k^2 - u) / 4u).  The residues k^2 mod u are counted into
    one terms dict: O(u), no chain of additions."""
    n, step, shift = (u, 1, 0) if u % 4 == 1 else (4 * u, 4, -u)
    terms = {}
    for k in range(u):
        x = (step * (k * k % u) + shift) % n
        terms[x] = terms.get(x, 0) + 1
    return _cyc(n, terms)


def sqrt_cyclotomic(n):
    """Exact CycNum equal to the positive square root of the positive
    integer n."""
    if n <= 0:
        raise ValueError("positive integer required")
    f = m = 1
    for p, e in factorization(n):
        f *= p ** (e // 2)
        m *= p ** (e % 2)
    out = _gauss_sqrt(m // gcd(m, 2)) * f
    if m % 2 == 0:
        out = out * (CycNum.e(Fraction(1, 8)) + CycNum.e(Fraction(-1, 8)))  # sqrt(2)
    return out
