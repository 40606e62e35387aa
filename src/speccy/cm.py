"""Degrees of the CM special divisors: the closed formula

    weighted_count = 2^(s(mu) - 1) ord_p(p m) rho(m |d| / p^eps)
    degree = weighted_count * log p        (Diff = {p}, Q(mu) = m mod Z)

together with an independent brute-force oracle for class number one,
which counts special quasi-endomorphisms of norm m inside an explicitly
constructed maximal order of the quaternion algebra ramified at p and
infinity.  The prime-above-p bookkeeping cancels in the degree: the
length of each point is ord_p(pm) log p / log N(P), and the degree sums
length * log N(P) over points weighted by 1/#Aut.

Quaternion lattices are compared through their Hermite normal form
(linalg.lattice_basis), which is canonical: rank, membership and
multiplicative closure of an order are each one HNF equality.  Quaternion
products and norm forms run on ints: the algebra models (d, -q) have int
parameters, and rational rows are scaled to one denominator first.

The oracle's per-field work is done once per frame (_coset_frame, keyed
on p, d, the algebra model and the Gram of L0): the maximal order and O^-,
the modules iota(a) O and iota(d^-1 a) O^-, their intersection L with its
rank-2 QuadLattice, and the coordinate map into L.  Each (m, mu) then
costs one shift solve and one coset enumeration.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .eisenstein import EisensteinPackage, s_mu
from .imq import LogLinear, _hilbert_candidates, hilbert_symbol, ord_p, rho
from .lattice import Coset, InvariantError, QuadLattice, count_coset_vectors, factorization
from .linalg import (
    _scale_to_int,
    integer_kernel,
    inverse_fraction,
    lattice_basis,
    lattice_intersection,
    mat_mul,
    mat_vec,
    row_hnf,
    solve_integer,
    transpose,
)

# rounds of _closure before a growing closure is given up on
_CLOSURE_ROUNDS = 16


class QuaternionAlgebra(namedtuple("QuaternionAlgebra", "a b")):
    """(a, b / Q): i^2 = a, j^2 = b, ij = -ji = k.  a and b are ints or
    Fractions; with ints, products and norm forms run on ints."""

    __slots__ = ()

    def mul(self, x, y):
        a, b = self.a, self.b
        x0, x1, x2, x3 = x
        y0, y1, y2, y3 = y
        return (
            x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        )

    def products(self, xs, ys):
        """Every product x * y (x in xs outer, y in ys inner), as lists of
        Fractions: the rows are scaled to ints over one denominator each,
        multiplied by mul, and divided once."""
        xs, dx = _scale_to_int(xs)
        ys, dy = _scale_to_int(ys)
        den = dx * dy
        return [[Fraction(v, den) for v in self.mul(x, y)] for x in xs for y in ys]

    def conj(self, x):
        return (x[0], -x[1], -x[2], -x[3])

    def trd(self, x):
        return 2 * x[0]

    def nrd(self, x):
        return (x[0] * x[0] - self.a * x[1] * x[1] - self.b * x[2] * x[2]
                + self.a * self.b * x[3] * x[3])

    def norm_gram(self, xs):
        """The Gram matrix trd(x conj(y)) = 2 (x0 y0 - a x1 y1 - b x2 y2
        + ab x3 y3) of the reduced norm on xs; no quaternion products."""
        w = (2, -2 * self.a, -2 * self.b, 2 * self.a * self.b)
        xs, den = _scale_to_int(xs)
        den *= den
        return [[Fraction(sum(wi * xi * yi for wi, xi, yi in zip(w, x, y)), den)
                 for y in xs] for x in xs]

    def ramified_primes(self):
        """Finite ramification set, computed from Hilbert symbols; the set
        including infinity always has even cardinality."""
        finite = {p for p in _hilbert_candidates((self.a, self.b))
                  if hilbert_symbol(self.a, self.b, p) == -1}
        infinite = hilbert_symbol(self.a, self.b, "inf") == -1
        if (len(finite) + infinite) % 2:
            raise InvariantError(f"odd ramification set {sorted(finite)}, "
                                 f"infinity {infinite}")
        return frozenset(finite), infinite

    def discriminant(self) -> int:
        """The product of the finite ramified primes: the reduced
        discriminant of a maximal order."""
        return math.prod(self.ramified_primes()[0])


class QuaternionOrder:
    """An order given by a basis (rows, coordinates in 1, i, j, k).

    The rows are kept as given; the lattice they span is held as its HNF.
    Rank 4 is the length of that HNF, and 1 in O and O * O = O each leave
    it unchanged when the element or the products are adjoined."""

    def __init__(self, algebra: QuaternionAlgebra, basis):
        self.algebra = algebra
        self.basis = [[Fraction(x) for x in row] for row in basis]
        self._hnf = lattice_basis(self.basis)
        if len(self.basis) != 4 or len(self._hnf) != 4:
            raise ValueError("order basis must have rank 4")
        if not self.contains((1, 0, 0, 0)):
            raise ValueError("order must contain 1")
        if any(Fraction(algebra.trd(row)).denominator != 1
               or Fraction(algebra.nrd(row)).denominator != 1 for row in self.basis):
            raise ValueError("order basis must be integral")
        if lattice_basis(self._hnf + algebra.products(self.basis, self.basis)) != self._hnf:
            raise ValueError("order basis is not multiplicatively closed")
        self._forms = None
        self._disc = None

    def contains(self, x):
        return lattice_basis(self._hnf + [list(x)]) == self._hnf

    def trace_gram(self):
        alg = self.algebra
        return [[alg.trd(xy) for xy in alg.products([x], self.basis)] for x in self.basis]

    def integral_forms(self):
        """The trace vector t_r = trd(b_r) and the reduced-norm Gram
        N_rs = trd(b_r conj(b_s)) of the basis, as integers (both are
        integral because the order is).  Computed once per order."""
        if self._forms is None:
            trace = [self.algebra.trd(x) for x in self.basis]
            gram = self.algebra.norm_gram(self.basis)
            if any(Fraction(v).denominator != 1 for v in trace + sum(gram, [])):
                raise InvariantError("an order has a non-integral trace or norm form")
            self._forms = ([int(v) for v in trace],
                           [[int(v) for v in row] for row in gram])
        return self._forms

    def reduced_discriminant(self) -> int:
        """sqrt |det N|, which is sqrt |det trace_gram| because conjugation
        maps the order onto itself (a unimodular change of basis).  |det N|
        is the product of the pivots of the integer HNF of N."""
        if self._disc is None:
            hnf = row_hnf(self.integral_forms()[1])
            d2 = math.prod(row[i] for i, row in enumerate(hnf)) if len(hnf) == 4 else 0
            root = math.isqrt(d2)
            if root * root != d2:
                raise InvariantError(f"|det N| = {d2} is not a square")
            self._disc = root
        return self._disc

    def is_maximal(self):
        return self.reduced_discriminant() == self.algebra.discriminant()


def _integral_coefficients(trace, gram, l):
    """Every c in [0, l)^4, in itertools.product order, for which
    x = sum c_r b_r / l is integral, given the integer trace vector t and
    reduced-norm Gram N of the basis b: trd(x) = c.t / l and
    nrd(x) = c^T N c / (2 l^2), so x is integral exactly when
    c.t = 0 (mod l) and c^T N c / 2 = 0 (mod l^2)."""
    l2 = l * l
    t0, t1, t2, t3 = trace
    (n00, n01, n02, n03), (_, n11, n12, n13), (_, _, n22, n23), (_, _, _, n33) = gram
    n00, n11, n22, n33 = n00 // 2, n11 // 2, n22 // 2, n33 // 2
    for c in itertools.product(range(l), repeat=4):
        c0, c1, c2, c3 = c
        if (c0 * t0 + c1 * t1 + c2 * t2 + c3 * t3) % l:
            continue
        half_norm = (c0 * (n00 * c0 + n01 * c1 + n02 * c2 + n03 * c3)
                     + c1 * (n11 * c1 + n12 * c2 + n13 * c3)
                     + c2 * (n22 * c2 + n23 * c3) + n33 * c3 * c3)
        if half_norm % l2 == 0:
            yield c


def _closure(alg: QuaternionAlgebra, generators):
    """Smallest multiplicatively closed lattice containing the generators:
    the HNF fixed point of L -> L + L * L.

    Bounded: adjoining an integral element need not generate a finitely
    generated module in a noncommutative algebra, so a candidate whose
    closure keeps growing is rejected rather than looped on."""
    basis = lattice_basis([list(g) for g in generators])
    for _ in range(_CLOSURE_ROUNDS):
        new_basis = lattice_basis(basis + alg.products(basis, basis))
        if new_basis == basis:
            return basis
        basis = new_basis
    raise ValueError("multiplicative closure does not stabilize")


def saturate_to_maximal(alg: QuaternionAlgebra, order: QuaternionOrder):
    """Enlarge an order to a maximal one by repeatedly adjoining integral
    elements with prime denominator dividing the discriminant defect.

    The candidates are x = sum c_r b_r / l for c in [0, l)^4 over the
    current basis b.  With the integer trace vector t_r = trd(b_r) and
    reduced-norm Gram N_rs = trd(b_r conj(b_s)) of the order, x is integral
    exactly when c.t = 0 (mod l) and c^T N c / 2 = 0 (mod l^2); that test
    runs on ints, and only a candidate passing it is built in fractions,
    where its trd and nrd are checked again.  The first candidate (in
    itertools.product order) whose closure is an order of smaller
    discriminant replaces the order."""
    target = alg.discriminant()
    for _ in range(64):
        disc = order.reduced_discriminant()
        if disc == target:
            break
        defect = disc // target
        trace, gram = order.integral_forms()
        found = False
        for l, _ in factorization(defect):
            for coeffs in _integral_coefficients(trace, gram, l):
                if not any(coeffs):
                    continue
                x = [sum(Fraction(coeffs[r]) * order.basis[r][i] for r in range(4))
                     / l for i in range(4)]
                if (Fraction(alg.trd(x)).denominator != 1
                        or Fraction(alg.nrd(x)).denominator != 1):
                    raise InvariantError(f"the integer forms accepted {coeffs}/{l}, "
                                         f"whose trd or nrd is not integral")
                try:
                    bigger = QuaternionOrder(alg, _closure(alg, order.basis + [x]))
                except ValueError:
                    continue
                if bigger.reduced_discriminant() < disc:
                    order = bigger
                    found = True
                    break
            if found:
                break
        if not found:
            raise RuntimeError("saturation failed to enlarge a non-maximal order")
    if not order.is_maximal():
        raise InvariantError("saturation stopped at a non-maximal order")
    return order


class CMDegree:
    def __init__(self, m: Fraction, mu_coords: tuple, prime: int | None,
                 weighted_count: Fraction, degree: LogLinear):
        if (weighted_count == 0) != degree.is_zero():
            raise InvariantError(f"weighted count {weighted_count} "
                                 f"disagrees with degree {degree}")
        self.m, self.mu_coords, self.prime = m, mu_coords, prime
        self.weighted_count, self.degree = weighted_count, degree


def degree_formula(pkg: EisensteinPackage, m, mu: Coset) -> CMDegree:
    """Closed-form degree of the CM special divisor at (m, mu)."""
    m = Fraction(m)
    if m <= 0:
        raise ValueError("degree_formula requires m > 0")
    K = pkg.K
    if (m - pkg.disc0.q_map(mu)) % 1 != 0:
        return CMDegree(m, mu.coords, None, Fraction(0), LogLinear.make(0))
    diff = pkg.diff(m)
    if len(diff) != 1:
        return CMDegree(m, mu.coords, None, Fraction(0), LogLinear.make(0))
    (p,) = diff
    chi_p = K.chi(p)
    if chi_p == 1:
        raise InvariantError(f"Diff({m}) contains the split prime {p}")
    eps = 1 if chi_p == -1 else 0
    r = rho(K, m * abs(K.d) / Fraction(p) ** eps)
    length = ord_p(p * m, p)
    wc = Fraction(2) ** (s_mu(pkg, mu) - 1) * length * r
    if r == 0 or length <= 0:
        wc = Fraction(0)
    return CMDegree(m, mu.coords, p, wc,
                    LogLinear.make(0, {p: wc}) if wc else LogLinear.make(0))


@functools.lru_cache(maxsize=None)
def _cm_order_data(p, d, skip_models):
    """Maximal order of B_{p, infinity} built around an optimal embedding of
    the maximal order of Q(sqrt d): the algebra model is (d, b), so theta =
    (d + i)/2 is the CM element by construction.  Returns the algebra, the
    order, theta, and a basis of O^- = {x : x theta = conj(theta) x}.

    Constructing the order around the embedding matters: for larger p the
    algebra has several conjugacy classes of maximal orders and not all of
    them admit the embedding.  skip_models picks a later algebra model
    (d, -q); counts must not depend on the choice, which tests exploit.
    """
    alg = None
    remaining = skip_models
    for q in range(1, 2000):
        # p must ramify; the full ramification set (and its parity check)
        # is computed only for the models that pass this one symbol
        if hilbert_symbol(d, -q, p) != -1:
            continue
        trial = QuaternionAlgebra(d, -q)
        finite, infinite = trial.ramified_primes()
        if finite == {p} and infinite:
            if remaining == 0:
                alg = trial
                break
            remaining -= 1
    if alg is None:
        raise RuntimeError(f"no algebra model (d, -q) found for p = {p}")
    theta = (Fraction(d, 2), Fraction(1, 2), Fraction(0), Fraction(0))
    j = (Fraction(0), Fraction(0), Fraction(1), Fraction(0))
    jtheta = alg.mul(j, theta)
    order = QuaternionOrder(alg, [[1, 0, 0, 0], list(theta), list(j), list(jtheta)])
    order = saturate_to_maximal(alg, order)
    if not order.contains(theta):
        raise InvariantError("the maximal order lost the CM element")
    # O^-: kernel of x -> x theta + theta x - d x on the order
    rows = [[x + y - d * z for x, y, z in zip(bt, tb, b)]
            for bt, tb, b in zip(alg.products(order.basis, [theta]),
                                 alg.products([theta], order.basis), order.basis)]
    # express images in the order basis to keep the kernel integral
    mat, _ = _scale_to_int(rows)
    ker = integer_kernel(transpose(mat))
    ominus = []
    for jcol in range(len(ker[0]) if ker and ker[0] else 0):
        coeffs = [ker[r][jcol] for r in range(4)]
        vec = [sum(Fraction(coeffs[r]) * order.basis[r][i] for r in range(4))
               for i in range(4)]
        ominus.append(vec)
    if len(ominus) != 2:
        raise InvariantError(f"conjugate-linear part has rank {len(ominus)}, not 2")
    return alg, order, theta, ominus


@functools.lru_cache(maxsize=None)
def _coset_frame(p, d, skip_models, gram):
    """Everything degree_bruteforce needs that depends only on the prime,
    the field, the algebra model and the Gram of L0, built once: theta,
    A^-1 (L0-coordinates to k-coordinates), the columns of M_amb and
    -M_full for the shift solve, the rank-2 coset lattice L = M_amb cap
    M_full with its QuadLattice, and the coordinate map (L L^T)^-1 L."""
    alg, order, theta, ominus = _cm_order_data(p, d, skip_models)

    # k acts on L0 through the even Clifford algebra: w_cl = e1 e2 with
    # w_cl e1 = [e1,e2] e1 - Q(e1) e2, w_cl e2 = Q(e2) e1; the standard
    # generator is w = (d - t)/2 + w_cl with t = [e1, e2]
    t = gram[0][1]
    q1 = Fraction(gram[0][0], 2)
    q2 = Fraction(gram[1][1], 2)
    Wcl = [[Fraction(t), q2], [-q1, Fraction(0)]]
    c = Fraction(d - t, 2)
    Wstd = [[Wcl[0][0] + c, Wcl[0][1]], [Wcl[1][0], Wcl[1][1] + c]]
    # sanity: Wstd satisfies x^2 - d x + (d^2 - d)/4 = 0
    tr = Wstd[0][0] + Wstd[1][1]
    det = Wstd[0][0] * Wstd[1][1] - Wstd[0][1] * Wstd[1][0]
    if tr != d or det != Fraction(d * d - d, 4):
        raise InvariantError("the Clifford generator fails x^2 - d x + (d^2 - d)/4")

    # the fractional ideal a with L0 = a * e1: (u, v) with u e1 + v (w e1)
    # integral; A maps k-coordinates to L0-coordinates
    A = [[Fraction(1), Wstd[0][0]], [Fraction(0), Wstd[1][0]]]
    Ainv = inverse_fraction(A)
    a_basis = [[Ainv[0][0], Ainv[1][0]], [Ainv[0][1], Ainv[1][1]]]  # columns
    # different^{-1} * a: divide by sqrt(d) = 2w - d
    Rdelta = [[Fraction(-d), Fraction(-(d * d - d), 2)],
              [Fraction(2), Fraction(d)]]
    Rdelta_inv = inverse_fraction(Rdelta)
    dinv_a_basis = [mat_vec(Rdelta_inv, col) for col in a_basis]

    # full lattice: iota(a) * O; ambient for the coset: iota(d^-1 a) * O^-
    M_full = lattice_basis(alg.products([_iota(theta, *col) for col in a_basis],
                                        order.basis))
    M_amb = lattice_basis(alg.products([_iota(theta, *col) for col in dinv_a_basis],
                                       ominus))
    if len(M_full) != 4 or len(M_amb) != 2:
        raise InvariantError(f"module ranks {len(M_full)}, {len(M_amb)}, not 4, 2")
    cols = [list(c) for c in M_amb] + [[-x for x in c] for c in M_full]

    # V_mu = x0 + (M_amb cap M_full); Q(x) = -Q(e1) nrd(x) with -Q(e1) > 0,
    # so the Gram is -Q(e1) N
    L = lattice_intersection(M_amb, M_full)
    if len(L) != 2:
        raise InvariantError(f"the coset lattice has rank {len(L)}, not 2")
    lgram = [[-q1 * x for x in row] for row in alg.norm_gram(L)]
    if any(x.denominator != 1 for row in lgram for x in row):
        raise InvariantError(f"non-integral Gram {lgram}")
    lat = QuadLattice([[int(x) for x in row] for row in lgram])
    # coordinates in L: one solve through the Euclidean Gram L L^T
    coord_map = mat_mul(inverse_fraction(mat_mul(L, transpose(L))), L)
    return theta, Ainv, M_amb, cols, L, lat, coord_map


def _iota(theta, u, v):
    """The embedding k -> B: u + v w goes to u + v theta."""
    return [u + v * theta[0], v * theta[1], v * theta[2], v * theta[3]]


def degree_bruteforce(pkg: EisensteinPackage, m, mu: Coset,
                      skip_models=0) -> CMDegree:
    """Oracle for degree_formula, restricted to class number one.

    Realizes the special quasi-endomorphisms as an explicit rank-2 lattice
    inside the quaternion algebra ramified at Diff(m) and infinity, counts
    the coset vectors of norm m exactly, and applies the canonical-lifting
    length ord_p(pm) and the 1/w automorphism weight.  The lattice comes
    from the cached _coset_frame; each call solves for one shift.
    """
    m = Fraction(m)
    K = pkg.K
    if K.h != 1:
        raise ValueError("brute-force oracle requires class number one")
    if m <= 0:
        raise ValueError("m must be positive")
    diff = pkg.diff(m)
    if len(diff) != 1:
        raise ValueError("oracle requires Diff = {p}; degree vanishes otherwise")
    (p,) = diff
    if ord_p(m, p) < 0:
        raise ValueError("oracle requires ord_p(m) >= 0")
    theta, Ainv, M_amb, cols, L, lat, coord_map = _coset_frame(
        p, K.d, skip_models, pkg.L0.gram)

    # the shift iota(mu~) where mu = mu~ * e1
    shift = _iota(theta, *mat_vec(Ainv, list(mu.rep())))

    # one solution x0 in M_amb with x0 - shift in M_full
    scaled, _ = _scale_to_int(cols + [shift])
    sol = solve_integer(transpose(scaled[:-1]), scaled[-1])
    count = 0
    if sol is not None:
        x0 = [sum(Fraction(sol[j]) * M_amb[j][i] for j in range(2)) for i in range(4)]
        coords = mat_vec(coord_map, x0)
        if mat_vec(transpose(L), coords) != x0:
            raise InvariantError(f"{x0} is not in the span of the coset lattice")
        count = count_coset_vectors(lat, coords, m)
    length = ord_p(p * m, p)
    wc = Fraction(count, K.w) * length
    return CMDegree(m, mu.coords, p, wc,
                    LogLinear.make(0, {p: wc}) if wc else LogLinear.make(0))
