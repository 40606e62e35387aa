"""Degrees of the CM special divisors: the closed formula

    weighted_count = 2^(s(mu) - 1) ord_p(p m) rho(m |d| / p^eps)
    degree = weighted_count * log p        (Diff = {p}, Q(mu) = m mod Z)

together with an independent brute-force oracle for class number one,
which counts special quasi-endomorphisms of norm m inside an explicitly
constructed maximal order of the quaternion algebra ramified at p and
infinity.  The prime-above-p bookkeeping cancels in the degree: the
length of each point is ord_p(pm) log p / log N(P), and the degree sums
length * log N(P) over points weighted by 1/#Aut.

Every quaternion lattice the oracle builds (orders, their products O * O,
iota(a) O and iota(d^-1 a) O^-) is held in one canonical integer form
(H, den) (linalg.lattice_hnf): H the integer row HNF and den the least
denominator.  Two lattices are equal exactly when their forms are,
membership is one triangular reduction against H, and quaternion
products, trd and nrd run on the integer rows: the algebra models
(d, -q) have int parameters.

saturate_to_maximal enlarges Z<1, theta, j, j theta> by one explicit
element per prime l of the (squarefree) defect |d| q / p: (1 + s j) theta
/ l, s^2 = -1/q (mod l), of Gross and Zagier (On singular moduli, 1985)
at l | d, and j (u + theta) / l, l | N(u + theta), at l | q.  Since
[O + Z x : O] = l, O + Z x is closed or the step fails its check (below).

The oracle's per-field work is done once per frame (_coset_frame, keyed
on p, d, the algebra model and the Gram of L0), on integers: the maximal
order and O^-, the modules M_full = iota(a) O and M_amb = iota(d^-1 a)
O^-, and one Hermite form of the shift system (linalg.HermiteSolver),
whose matrix is the same for every (m, mu).  Its kernel gives the coset
lattice L = M_amb cap M_full in the basis K M_amb, K a triangular 2 x 2
integer matrix, and so its rank-2 QuadLattice.  The frame also keeps a
table filled once per coset mu: the shift iota(mu~), its solve (one
triangular reduction), and the coset's L-coordinates y adj(K) / det K as
numerators over one denominator.  Each (m, mu) then costs one shell count
by the integer enumeration core.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from .eisenstein import EisensteinPackage, _local_record
from .imq import LogLinear, _hilbert_candidates, hilbert_symbol, ord_p
from .lattice import Coset, InputRefusal, InvariantError, QuadLattice, _search, factorization
from .linalg import (
    HermiteSolver,
    _scale_to_int,
    hnf_contains,
    lattice_hnf,
    symmetric_minors,
    transpose,
)

# candidates q (or q / p) tried for an algebra model (d, -q) of B_{p, inf}
_MODEL_SEARCH = 2000
# Most values of the outer coordinate the oracle's rank-2 shell search may
# visit; the search at the bound took 0.7-0.9 s on a 2-core x86 host
# with Python 3.11.7 (L0(-7), mu = 0, m = 217999999996)
ORACLE_SEARCH_BOUND = 10 ** 6


class QuaternionAlgebra(namedtuple("QuaternionAlgebra", "a b")):
    """(a, b / Q): i^2 = a, j^2 = b, ij = -ji = k.  a and b are ints or
    Fractions (an integral Fraction is stored as its int); with ints,
    products and norm forms run on ints."""

    __slots__ = ()

    def __new__(cls, a, b):
        return super().__new__(cls, *(x.numerator if x.denominator == 1 else x
                                      for x in (a, b)))

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

    def trd(self, x):
        return 2 * x[0]

    def nrd(self, x):
        return (x[0] * x[0] - self.a * x[1] * x[1] - self.b * x[2] * x[2]
                + self.a * self.b * x[3] * x[3])

    def int_norm_gram(self, rows):
        """The Gram matrix trd(x conj(y)) = 2 (x0 y0 - a x1 y1 - b x2 y2
        + ab x3 y3) of the reduced norm on integer rows; no quaternion
        products."""
        w = (2, -2 * self.a, -2 * self.b, 2 * self.a * self.b)
        return [[sum(wi * xi * yi for wi, xi, yi in zip(w, x, y)) for y in rows]
                for x in rows]

    def ramified_primes(self):
        """(finite ramified primes, whether infinity ramifies), from Hilbert
        symbols; the set including infinity always has even cardinality."""
        a, b = self.a, self.b
        finite = {p for p in _hilbert_candidates((a, b)) if hilbert_symbol(a, b, p) == -1}
        infinite = hilbert_symbol(a, b, "inf") == -1
        if (len(finite) + infinite) % 2:
            raise InvariantError(f"odd ramification set {sorted(finite)}, "
                                 f"infinity {infinite}")
        return frozenset(finite), infinite


class QuaternionOrder:
    """An order given by a basis (rows, coordinates in 1, i, j, k), divided
    by den.

    The rows are kept as given, scaled to integer rows over one
    denominator (self.rows, self.den); the lattice they span is held in
    the canonical integer form (H, den) of linalg.lattice_hnf.  Rank 4 is
    the length of H, 1 in O is one reduction against H, and O * O = O
    leaves the form unchanged when the products are adjoined.  Products,
    trd and nrd run on ints, so the algebra's a and b must be integers; a
    model with a non-integral one is refused by name."""

    def __init__(self, algebra: QuaternionAlgebra, basis, den=1):
        if not all(isinstance(x, int) for x in algebra):
            raise ValueError(f"orders need an algebra with integral a and b, "
                             f"not ({algebra.a}, {algebra.b})")
        self.algebra = algebra
        self.rows, scale = _scale_to_int(basis)
        self.den = den * scale
        self.hnf = lattice_hnf(self.rows, self.den)
        if len(self.rows) != 4 or len(self.hnf[0]) != 4:
            raise ValueError("order basis must have rank 4")
        if not self.contains((1, 0, 0, 0)):
            raise ValueError("order must contain 1")
        den, den2 = self.den, self.den * self.den
        if any(algebra.trd(row) % den or algebra.nrd(row) % den2 for row in self.rows):
            raise ValueError("order basis must be integral")
        if _closure_step(algebra, self.hnf) != self.hnf:
            raise ValueError("order basis is not multiplicatively closed")

    def contains(self, x):
        return hnf_contains(self.hnf, x)

    def reduced_discriminant(self) -> int:
        """sqrt |det N| for N_rs = trd(b_r conj(b_s)), the integer Gram of
        the reduced norm, which is sqrt |det T| for the trace form T_rs =
        trd(b_r b_s) because conjugation maps the order onto itself (a
        unimodular change of basis).  |det N| = |delta_4|, the last leading minor of its
        fraction-free elimination (linalg.symmetric_minors)."""
        den2 = self.den * self.den
        gram = self.algebra.int_norm_gram(self.rows)
        if any(v % den2 for row in gram for v in row):
            raise InvariantError("an order has a non-integral norm form")
        d2 = abs(symmetric_minors([[v // den2 for v in row] for row in gram])[1][-1])
        root = math.isqrt(d2)
        if root * root != d2:
            raise InvariantError(f"|det N| = {d2} is not a square")
        return root


def _closure_step(alg: QuaternionAlgebra, form):
    """The canonical form of L + L * L for L of canonical form (H, den):
    the products of the rows of H lie over den^2."""
    H, den = form
    return lattice_hnf([[x * den for x in row] for row in H]
                       + [alg.mul(x, y) for x in H for y in H], den * den)


def _starting_rows(alg: QuaternionAlgebra):
    """Z<1, theta, j, j theta> of the model (d, -q) as integer rows over 2:
    2 theta = (d, 1, 0, 0) and 2 j theta = (0, 0, d, -1)."""
    d = alg.a
    return [[2, 0, 0, 0], [d, 1, 0, 0], [0, 0, 2, 0], [0, 0, d, -1]]


def _defect_element(alg: QuaternionAlgebra, l):
    """(integer numerators, denominator) of the x that saturate_to_maximal
    adjoins at a prime l of the defect of the model (d, -q).  At l | d, x =
    (1 + s j) theta / l, s the least root of q s^2 = -1 (mod l); at l
    exactly dividing q, x = j (u + theta) / l, u the least root of N(u +
    theta) = u^2 + d u + (d^2 - d)/4 = 0 (mod l).  The roots exist because
    B splits at l, (-q / l) = 1 and (d / l) = 1 in turn; trd(x) = 0 and
    l^2 | nrd(x), as nrd(a + j b) = N(a) + q N(b).  theta (1 + s j) would
    span a different order (at p = 2, d = -3)."""
    d, q = alg.a, -alg.b
    if d % l == 0:
        s = next((s for s in range(l) if (q * s * s + 1) % l == 0), None)
        if s is not None:
            return alg.mul((2, 0, 2 * s, 0), (d, 1, 0, 0)), 4 * l
    elif q % (l * l) and q % l == 0:
        u = next((u for u in range(l) if (u * u + d * u + (d * d - d) // 4) % l == 0), None)
        if u is not None:
            return alg.mul((0, 0, 1, 0), (2 * u + d, 1, 0, 0)), 2 * l
    raise InvariantError(f"no explicit element at l = {l} in the model ({d}, {-q})")


def saturate_to_maximal(alg: QuaternionAlgebra, order: QuaternionOrder, target: int):
    """Enlarge the starting order Z<1, theta, j, j theta> of the model
    (d, -q) to a maximal one, of the reduced discriminant target that the
    model search certified: at each prime l of the discriminant defect, in
    increasing order, adjoin x = _defect_element.  l x is in O and x is
    not, so [O + Z x : O] = l, and a closure past O + Z x would lower the
    discriminant by l k, k >= 2: O + Z x is the next order, and its
    constructor the one closure check.  A step it refuses, or one that
    does not lower the discriminant by exactly l, is an InvariantError
    naming l; a defect that is not squarefree (d even or not fundamental)
    is a ValueError."""
    disc = order.reduced_discriminant()
    if disc % target:
        raise InvariantError(f"discriminant {disc} is not a multiple of {target}")
    for l, e in factorization(disc // target):
        if e != 1:
            raise ValueError(f"the discriminant defect {disc // target} is not squarefree")
        x, xden = _defect_element(alg, l)
        den = math.lcm(order.den, xden)
        rows = [[v * (den // order.den) for v in row] for row in order.rows]
        rows.append([v * (den // xden) for v in x])
        try:
            order = QuaternionOrder(alg, *lattice_hnf(rows, den))
        except ValueError as exc:
            raise InvariantError(f"the step at l = {l} gave no order: {exc}") from None
        if order.reduced_discriminant() * l != disc:
            raise InvariantError(f"the step at l = {l} did not take {disc} to {disc // l}")
        disc //= l
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
    """Closed-form degree of the CM special divisor at (m, mu): weighted
    count 2^(s-1) len rho over the integers of eisenstein._local_record,
    which a_plus reads too, and one Fraction for the count."""
    m = m if isinstance(m, Fraction) else Fraction(m)
    if m <= 0:
        raise ValueError(f"degree_formula requires m > 0, got {m}")
    record = _local_record(pkg, m, mu)
    if record is None:
        return CMDegree(m, mu.coords, None, Fraction(0), LogLinear())
    p, r, length, s = record
    wc = Fraction(r * length * 2 ** s, 2) if r and length > 0 else Fraction(0)
    return CMDegree(m, mu.coords, p, wc, LogLinear(logs=((p, wc),)) if wc else LogLinear())


def _algebra_model(p, d, skip_models):
    """The (skip_models + 1)-th model (d, -q), q = step r, r = 1, 2, ...,
    of the quaternion algebra ramified exactly at p and infinity, with r
    odd, squarefree and prime to d: for odd fundamental d this makes the
    defect |d| q / p of saturate_to_maximal odd and squarefree.

    For p not dividing d, the symbol (d, -q)_p is 1 unless p divides q (d
    is a discriminant, so 1 mod 4 when odd), so step = p; for p dividing
    d, step = 1.  Either way the first _MODEL_SEARCH - 1 candidates are
    tried, and a search that finds no model raises ValueError."""
    if d % 4 not in (0, 1):
        raise ValueError(f"{d} is not a discriminant")
    step = 1 if d % p == 0 else p
    remaining = skip_models
    for q in range(step, _MODEL_SEARCH * step, step):
        # p must ramify; the full ramification set (and its parity check)
        # is computed only for the models that pass this one symbol
        r = q // step
        if (r % 2 == 0 or math.gcd(r, d) != 1 or hilbert_symbol(d, -q, p) != -1
                or any(e > 1 for _, e in factorization(r))):
            continue
        trial = QuaternionAlgebra(d, -q)
        finite, infinite = trial.ramified_primes()
        if finite == {p} and infinite:
            if remaining == 0:
                return trial
            remaining -= 1
    raise ValueError(f"no algebra model (d, -q) with q < {_MODEL_SEARCH * step} "
                     f"found for p = {p}, d = {d}")


@functools.lru_cache(maxsize=None)
def _cm_order_data(p, d, skip_models):
    """Maximal order of B_{p, infinity} built around an optimal embedding of
    the maximal order of Q(sqrt d): the algebra model is (d, b), so theta =
    (d + i)/2 is the CM element by construction.  Returns the algebra, the
    order, theta, and a basis of O^- = {x : x theta = conj(theta) x} as
    integer rows over order.den.

    Constructing the order around the embedding matters: for larger p the
    algebra has several conjugacy classes of maximal orders and not all of
    them admit the embedding.  skip_models picks a later algebra model
    (d, -q); counts must not depend on the choice, which tests exploit.
    """
    alg = _algebra_model(p, d, skip_models)
    order = saturate_to_maximal(alg, QuaternionOrder(alg, _starting_rows(alg), 2), p)
    theta2 = (d, 1, 0, 0)
    theta = tuple(Fraction(x, 2) for x in theta2)
    if not order.contains(theta):
        raise InvariantError("the maximal order lost the CM element")
    # O^-: kernel of x -> x theta + theta x - d x on the order.  Twice the
    # images of the rows are the columns of an integer matrix whose kernel
    # is O^- in order coordinates
    rows = [[x + y - 2 * d * z for x, y, z in zip(alg.mul(b, theta2), alg.mul(theta2, b), b)]
            for b in order.rows]
    ominus = [[sum(c * row[i] for c, row in zip(v, order.rows)) for i in range(4)]
              for v in HermiteSolver(transpose(rows)).kernel()]
    if len(ominus) != 2:
        raise InvariantError(f"conjugate-linear part has rank {len(ominus)}, not 2")
    return alg, order, theta, ominus


# What degree_bruteforce needs for one (p, d, model, Gram of L0); shifts is
# the table of _coset_shift, filled one coset at a time
_Frame = namedtuple("_Frame", "a den solver K gram shifts")


@functools.lru_cache(maxsize=None)
def _coset_frame(p, d, skip_models, gram):
    """Everything degree_bruteforce needs that depends only on the prime,
    the field, the algebra model and the Gram of L0, built once on
    integers.  Returns a _Frame: iota of the basis of the ideal a that
    L0 = a e1 takes to (e1, e2), as integer rows over one denominator; the
    denominator and the HermiteSolver of the shift system x0 - x = shift,
    x0 = y M_amb in M_amb = iota(d^-1 a) O^- and x in M_full = iota(a) O
    (M_amb and M_full canonical forms (H, den) of linalg.lattice_hnf); the
    y-parts K of that system's kernel basis, a triangular 2 x 2 HNF, so
    that the rows K M_amb are a basis of the coset lattice
    L = M_amb cap M_full; the integer Gram of L in that basis; and an empty
    table of coset shifts."""
    alg, order, _, ominus = _cm_order_data(p, d, skip_models)
    # k acts on L0 through the even Clifford algebra, with Q(e1) = g1 / 2,
    # Q(e2) = g2 / 2 and t = [e1, e2]: w = (d - t)/2 + e1 e2 maps e1 to
    # (d + t)/2 e1 - g1/2 e2, and it satisfies x^2 - d x + (d^2 - d)/4 = 0
    # exactly when t^2 - g1 g2 = d
    g1, t = gram[0][0], gram[0][1]
    if t * t - g1 * gram[1][1] != d:
        raise InvariantError("the Clifford generator fails x^2 - d x + (d^2 - d)/4")
    # so e2 = (t - sqrt d) / g1 e1 and L0 = a e1 for a = Z + Z (t - sqrt d) / g1.
    # iota sends sqrt d to i, so iota(a) has the rows of a below over -g1,
    # and iota(d^-1 a) = iota(a) i / d is spanned by the x i =
    # (d x1, x0, 0, 0) over g1 d (a sign does not change a lattice)
    a = [(-g1, 0, 0, 0), (-t, 1, 0, 0)]
    F, fden = lattice_hnf([alg.mul(x, b) for x in a for b in order.rows], -g1 * order.den)
    H, aden = lattice_hnf([alg.mul((d * x[1], x[0], 0, 0), b) for x in a for b in ominus],
                          g1 * d * order.den)
    if len(F) != 4 or len(H) != 2:
        raise InvariantError(f"module ranks {len(F)}, {len(H)}, not 4, 2")
    # x0 - shift in M_full for x0 = y H / aden: the columns of H and -F
    # over their common denominator
    den = math.lcm(aden, fden)
    cols = ([[x * (den // aden) for x in row] for row in H]
            + [[-x * (den // fden) for x in row] for row in F])
    solver = HermiteSolver(transpose(cols))
    # L = {y H : y H in M_full}: (y, z) is in the kernel exactly when
    # y H = z F, and y fixes z (F has rank 4), so the kernel's HNF has its
    # pivots on y0 and y1 and its y-parts are the HNF K of the y with y H in L
    K = [v[:2] for v in solver.kernel()]
    rows = [[k0 * x + k1 * y for x, y in zip(*H)] for k0, k1 in K]
    # V_mu = x0 + L; Q(x) = -Q(e1) nrd(x) with -Q(e1) > 0, so the Gram is
    # -Q(e1) N = -g1 N / 2
    lgram = [[-g1 * x for x in row] for row in alg.int_norm_gram(rows)]
    scale = 2 * aden * aden
    if any(x % scale for row in lgram for x in row):
        raise InvariantError(f"non-integral Gram {lgram} / {scale}")
    lat = QuadLattice([[x // scale for x in row] for row in lgram])
    if not lat.is_positive_definite():
        raise InvariantError(f"the coset lattice Gram {lat.gram} is not positive definite")
    return _Frame((a, -g1), den, solver, K, lat.gram, {})


def _coset_shift(frame: _Frame, mu: Coset):
    """The coset x0 + L of the special quasi-endomorphisms attached to mu,
    as the integer numerators c (in the basis K M_amb of L) over their
    least denominator e, or None when there is none: computed once per
    frame and mu, on integers, and kept in frame.shifts.

    mu = r1 e1 + r2 e2 = mu~ e1 gives the shift iota(mu~) = r1 iota(a1) +
    r2 iota(a2); the solve of the shift system finds one x0 = y M_amb
    with x0 - shift in M_full (none unless the shift is integral over the
    system's denominator), and c / e = y K^-1 = y adj(K) / det K."""
    entry = frame.shifts.get(mu.coords, False)
    if entry is not False:
        return entry
    ((a1, a2), a_den), den = frame.a, frame.den
    (r,), rden = _scale_to_int([mu.rep()])
    shift = [r[0] * x + r[1] * y for x, y in zip(a1, a2)]
    sden = a_den * rden
    entry = None
    if not any(x * den % sden for x in shift):
        sol = frame.solver.solve([x * den // sden for x in shift])
        if sol is not None:
            # K = [[k0, k1], [0, k2]] is triangular
            y0, y1 = sol[:2]
            (k0, k1), (_, k2) = frame.K
            num = (y0 * k2, y1 * k0 - y0 * k1)
            g = math.gcd(k0 * k2, *num)
            entry = (tuple(n // g for n in num), k0 * k2 // g)
    frame.shifts[mu.coords] = entry
    return entry


def degree_bruteforce(pkg: EisensteinPackage, m, mu: Coset,
                      skip_models=0) -> CMDegree:
    """Oracle for degree_formula, restricted to class number one.

    Realizes the special quasi-endomorphisms as an explicit rank-2 lattice
    inside the quaternion algebra ramified at Diff(m) and infinity, counts
    the coset vectors of norm m exactly, and applies the canonical-lifting
    length ord_p(pm) and the 1/w automorphism weight.  The lattice comes
    from the cached _coset_frame and the coset's shift from its table
    (_coset_shift), so a call whose frame and coset are known counts one
    shell on integers (lattice._search) and builds one Fraction, the
    weighted count, unless its search would pass ORACLE_SEARCH_BOUND:
    then an InputRefusal of "m".  Every refusal of the input is an
    InputRefusal whose arg names the input it concerns.
    """
    if not isinstance(m, Fraction):
        m = Fraction(m)
    K = pkg.K
    if K.h != 1:
        raise InputRefusal("brute-force oracle requires class number one", "lattice")
    if m <= 0:
        raise InputRefusal("m must be positive", "m")
    diff = pkg.diff(m)
    if len(diff) != 1:
        raise InputRefusal("oracle requires Diff = {p}; degree vanishes otherwise", "m")
    (p,) = diff
    # the canonical-lifting length ord_p(p m)
    length = ord_p(m, p) + 1
    if length <= 0:
        raise InputRefusal("oracle requires ord_p(m) >= 0", "m")
    frame = _coset_frame(p, K.d, skip_models, pkg.L0.gram)
    entry = _coset_shift(frame, mu)
    count = 0
    if entry is not None:
        # x = (c + e t) / e has Q(x) = m exactly when y = c + e t has
        # y^T G y = 2 e^2 m, an integer or no vector
        c, e = entry
        top = 2 * e * e * m.numerator
        if top % m.denominator == 0:
            target = top // m.denominator
            # y_1 = c_1 (mod e) with y_1^2 <= g00 N / det; y_0 is solved for
            (g00, g01), (_, g11) = frame.gram
            det = g00 * g11 - g01 * g01
            outer = 2 * math.isqrt(g00 * det * target) // (det * e) + 1
            if outer > ORACLE_SEARCH_BOUND:
                raise InputRefusal(f"the oracle's shell search at m = {m} would visit "
                                   f"about {outer} values, over the bound of "
                                   f"{ORACLE_SEARCH_BOUND}", "m")
            count = len(_search(frame.gram, c, e, target, True))
    wc = Fraction(count * length, K.w)
    return CMDegree(m, mu.coords, p, wc, LogLinear(logs=((p, wc),)) if wc else LogLinear())
