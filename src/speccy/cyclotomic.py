"""Exact arithmetic in the cyclotomic fields Q(zeta_n).

A CycNum is a finite sum  sum_k (c_k / den) e(k/n),  e(x) = exp(2 pi i x).
It stores its conductor n, the dict terms = {k: c_k} of nonzero integer
numerators, keyed by integer exponents 0 <= k < n, and one positive
denominator den with gcd(den, all c_k) = 1 (den = 1 when every coefficient
is an integer).  Sums, products and zero tests run on integers alone; a
rational coefficient only changes den.

The conductor is any multiple of the true order of the exponents.  An
operation on two numbers of different conductors first lifts both to the
lcm of the two (k/n = (k m/n)/m), so sums and products are integer maps on
exponents.  The exponent arithmetic of a product is written once, in
_mul_into, which adds a sparse row times the rows of a matrix into one
exponent dict, keyed j n + k for the term e(k/n) of column j.  _matmul, the
product of a chain of matrices, lifts every entry to one conductor and
keeps each partial product, from the right, as one such dict per row; only
the entries of the result become CycNums.  A product of two numbers and
_is_product (a == b * c, with one zero test) call _mul_into on 1 x 1
matrices.

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
    """The moves onto the power basis of Z[zeta_N], in the order _vanishes
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


def _vanishes(n, terms):
    """Whether sum c e(k/n) over a dict of nonzero integer terms is zero."""
    if len(terms) < 2:
        return not terms  # a single nonzero monomial never vanishes
    # true order N; distinct exponents, so N > 1 here
    g = gcd(n, *terms)
    N = n // g
    # move every exponent onto the power basis, one prime power after the other
    acc = [0] * N
    for k, c in terms.items():
        acc[k // g] = c
    for k, targets in _basis_steps(N):
        c = acc[k]
        if c:
            acc[k] = 0
            for j in targets:
                acc[j] -= c
    return not any(acc)


def _store(r, n, terms, den):
    """r holding the nonzero integer terms over den > 0 at conductor n,
    with the gcd of den and the numerators divided out."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {k: c // g for k, c in terms.items()}
    r.n = n
    r.terms = terms
    r.den = den
    return r


def _cyc(n, terms, den=1):
    """CycNum at conductor n from a dict of nonzero integer terms over den."""
    return _store(CycNum.__new__(CycNum), n, terms, den)


def _lift(x, n):
    """The terms of x at the conductor n, a multiple of x.n."""
    if x.n == n:
        return x.terms
    s = n // x.n
    return {k * s: c for k, c in x.terms.items()}


def _mul_into(acc, n, row, part):
    """acc += sum of a * part[k] over the (k, a) of a sparse row, at the
    conductor n, with each a given as (exponent, coefficient) pairs and each
    part[k] as (key, coefficient) pairs, key = j n + kb for the term
    e(kb/n) of column j: the product of e(ka/n) and that term lands at
    j n + (ka + kb) mod n.  Zero coefficients may be left in acc."""
    get = acc.get
    for k, at in row:
        bt = part[k]
        for ka, ca in at:
            for key, cb in bt:
                key += ka
                if key % n < ka:  # ka + kb wrapped past n
                    key -= n
                acc[key] = get(key, 0) + ca * cb


def _lifted(M, n):
    """(den, rows): the entries of a CycNum matrix at the conductor n as
    integer numerators over their one denominator den, each row the
    (column, terms) pairs of its nonzero entries, lifted as it is read."""
    den = lcm(*{x.den for row in M for x in row})
    return den, ([(j, x.terms.items() if x.n == n and x.den == den else
                   [(k * (n // x.n), c * (den // x.den)) for k, c in x.terms.items()])
                  for j, x in enumerate(row) if x.terms] for row in M)


def _row_products(n, rows, part):
    """The exponent dict of each sparse row times the rows part, one row at
    a time, so that each is dropped once its caller has read it."""
    for row in rows:
        acc = {}
        _mul_into(acc, n, row, part)
        yield acc


def _matmul(*mats):
    """Exact product mats[0] mats[1] ... of CycNum matrices (lists of rows;
    the last may be a column).  Every entry is lifted to the lcm n of all
    conductors, and each partial product, from the right, is one exponent
    dict per row keyed j n + k, over the product of the matrices'
    denominators: no CycNum is built before the result's entries."""
    for A, B in zip(mats, mats[1:]):
        for row in A:
            if len(row) != len(B):
                raise ValueError(f"matrix product of a row of length {len(row)} "
                                 f"and a matrix of {len(B)} rows")
    n = lcm(*{x.n for M in mats for row in M for x in row})
    den, rows = _lifted(mats[-1], n)
    width = len(mats[-1][0]) if mats[-1] else 0
    accs = [{j * n + k: c for j, t in row for k, c in t} for row in rows]
    for A in reversed(mats[:-1]):
        part = [[(key, c) for key, c in acc.items() if c] for acc in accs]
        den_a, rows = _lifted(A, n)
        den *= den_a
        accs = _row_products(n, rows, part)
    out = []
    for acc in accs:
        entries = [{} for _ in range(width)]
        for key, c in acc.items():
            if c:
                j, k = divmod(key, n)
                entries[j][k] = c
        out.append([_cyc(n, t, den) for t in entries])
    return out


def _is_product(a, b, c):
    """Whether a == b * c, from b * c - a accumulated in one exponent dict
    and one zero test: no intermediate CycNum."""
    n = lcm(a.n, b.n, c.n)
    s = b.den * c.den
    acc = {k: -v * s for k, v in _lift(a, n).items()}
    _mul_into(acc, n, [(0, [(k, v * a.den) for k, v in _lift(b, n).items()])],
              [_lift(c, n).items()])
    return _vanishes(n, {k: v for k, v in acc.items() if v})


class CycNum:
    """Element of Q(zeta_n): sum of (c / den) e(k/n) over terms = {k: c}."""

    __slots__ = ("n", "terms", "den")

    def __init__(self, terms=None, n=1):
        self.n, self.terms, self.den = n, {}, 1
        if terms:
            acc = {}
            for k, c in terms.items():
                k %= n
                acc[k] = acc.get(k, 0) + Fraction(c)
            den = lcm(*(c.denominator for c in acc.values()))
            _store(self, n, {k: int(c * den) for k, c in acc.items() if c}, den)

    @classmethod
    def e(cls, q):
        """The root of unity e(q) = exp(2 pi i q), q rational."""
        q = Fraction(q)
        return _cyc(q.denominator, {q.numerator % q.denominator: 1})

    @classmethod
    def from_rational(cls, c):
        if not isinstance(c, int):
            c = Fraction(c)
        return _cyc(1, {0: c.numerator} if c else {}, c.denominator)

    def __add__(self, other):
        other = _coerce(other)
        n = lcm(self.n, other.n)
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        out = dict(_lift(self, n)) if s == 1 else {k: c * s for k, c in _lift(self, n).items()}
        for k, c in _lift(other, n).items():
            v = out.get(k, 0) + c * t
            if v:
                out[k] = v
            else:
                del out[k]
        return _cyc(n, out, den)

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.n, {k: -c for k, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _cyc(self.n, {k: c * p for k, c in self.terms.items()} if p else {},
                        self.den * other.denominator)
        other = _coerce(other)
        n = lcm(self.n, other.n)
        acc = {}
        _mul_into(acc, n, [(0, _lift(self, n).items())], [_lift(other, n).items()])
        return _cyc(n, {k: c for k, c in acc.items() if c}, self.den * other.den)

    __rmul__ = __mul__

    def conjugate(self):
        n = self.n
        return _cyc(n, {-k % n: c for k, c in self.terms.items()}, self.den)

    def is_zero(self):
        return _vanishes(self.n, self.terms)

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
        return sum(c * cmath.exp(2j * cmath.pi * k / n)
                   for k, c in self.terms.items()) / self.den if self.terms else 0j

    def __repr__(self):
        if not self.terms:
            return "CycNum(0)"
        parts = [f"{Fraction(c, self.den)}*e({Fraction(k, self.n)})" if k
                 else f"{Fraction(c, self.den)}"
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
