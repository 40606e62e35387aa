"""Reference transcription of a^+(m, mu), the CM degree formula and the
Hilbert symbol in Fraction arithmetic, as they read before the library
moved them to integers.  Tests compare the library with these bodies
value for value; nothing under src/ imports this module.

a_plus and degree_formula read Diff(m) from the package, as they did, so
a test can put a Diff set of its choosing there; diff() is Diff(m) by the
reference symbol, to compare with the one diff_set now computes on ints.

The Fraction views the tests compare the integer routines with are here
too: an order's basis as Fraction rows, its trace form through quaternion
products, a determinant by sympy, lattice membership by one integer solve,
and quaternion conjugation.
"""

from fractions import Fraction

import sympy

from speccy.cm import CMDegree
from speccy.eisenstein import s_mu
from speccy.imq import LogLinear, _hilbert_candidates, _val, kronecker_symbol, ord_p, rho
from speccy.lattice import InvariantError
from speccy.linalg import _scale_to_int, solve_integer, transpose


def basis(order):
    """The basis of a QuaternionOrder, the rows of its canonical form, as
    lists of Fractions."""
    return [[Fraction(x, order.den) for x in row] for row in order.rows]


def conj(x):
    """The quaternion conjugate of x = x0 + x1 i + x2 j + x3 k."""
    return (x[0], -x[1], -x[2], -x[3])


def trace_gram(order):
    """trd(b_r b_s) on the order's basis, through Fraction products."""
    alg, rows = order.algebra, basis(order)
    return [[alg.trd(alg.mul(x, y)) for y in rows] for x in rows]


def det(A):
    """The determinant of a square matrix of ints or Fractions, by sympy."""
    return Fraction(str(sympy.Matrix(A).det()))


def member(basis_cols, v):
    """Integer coefficients c with sum c_r basis_cols[r] = v, or None."""
    cols, _ = _scale_to_int(list(basis_cols) + [v])
    return solve_integer(transpose(cols[:-1]), cols[-1])


def hilbert_symbol(a, b, p) -> int:
    """Hilbert symbol (a, b)_p over Q_p (p prime) or over R (p = 'inf')."""
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol requires nonzero arguments")
    if p == "inf":
        return -1 if (a < 0 and b < 0) else 1
    p = int(p)
    # reduce to integers
    a = a.numerator * a.denominator
    b = b.numerator * b.denominator
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


def diff(pkg, m) -> frozenset:
    """Diff(m) for the package's L0, by the reference symbol on (a m, disc)."""
    m = Fraction(m)
    gram = pkg.L0.gram
    a = gram[0][0] // 2
    disc = gram[0][1] ** 2 - gram[0][0] * gram[1][1]
    return frozenset(p for p in _hilbert_candidates((a, m, disc))
                     if hilbert_symbol(a * m, disc, p) == -1)


def a_plus(pkg, m, mu) -> LogLinear:
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
    diff_m = pkg.diff(m)
    if len(diff_m) != 1:
        return LogLinear.make(0)
    (p,) = diff_m
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


def degree_formula(pkg, m, mu) -> CMDegree:
    """Closed-form degree of the CM special divisor at (m, mu)."""
    m = Fraction(m)
    if m <= 0:
        raise ValueError("degree_formula requires m > 0")
    K = pkg.K
    if (m - pkg.disc0.q_map(mu)) % 1 != 0:
        return CMDegree(m, mu.coords, None, Fraction(0))
    diff_m = pkg.diff(m)
    if len(diff_m) != 1:
        return CMDegree(m, mu.coords, None, Fraction(0))
    (p,) = diff_m
    chi_p = K.chi(p)
    if chi_p == 1:
        raise InvariantError(f"Diff({m}) contains the split prime {p}")
    eps = 1 if chi_p == -1 else 0
    r = rho(K, m * abs(K.d) / Fraction(p) ** eps)
    length = ord_p(p * m, p)
    wc = Fraction(2) ** (s_mu(pkg, mu) - 1) * length * r
    if r == 0 or length <= 0:
        wc = Fraction(0)
    return CMDegree(m, mu.coords, p, wc)
