"""Integral quadratic lattices: Gram data, discriminant groups, duals,
maximality, orthogonal complements, and exact vector enumeration.

Conventions.  A lattice is stored through the Gram matrix of its *bilinear*
form [x, y], so [x, x] = 2 Q(x) and all entries are integers with even
diagonal.  Vectors are coordinate tuples with respect to the lattice basis;
dual vectors are rational coordinate tuples in the same basis.

Discriminant forms.  A DiscriminantGroup keeps one generator g_s per
elementary divisor d_s > 1 of the Smith form (the unit divisors add
nothing to L^vee / L), and a Coset is the one tuple of its coefficients
a_s mod d_s.  The group keeps the integer table E [g_s, g_t] (E the
exponent of the group), so q_map and b_map read a coset's values off its
coordinates without building a representative, and the level of the
lattice is read off the same table.

Enumeration.  ball_sweep, enumerate_coset_vectors and count_coset_vectors
share one Fincke-Pohst core that runs in integers only: each level's range
comes from a fraction-free LDL^T by an integer square root, so the nodes
it visits, every vector it returns and its norm are exact.  The part of
the search that depends only on the Gram matrix (the elimination rows,
the leading minors and the conditioning guard) is computed once per
integer Gram and kept in a bounded cache; only the size test, which
depends on the norm bound, runs per call.  count_coset_vectors counts a
shell without building its Fraction vectors, for callers that only need
R(m, mu).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt, lcm

from .linalg import (
    congruence_diagonal,
    det_fraction,
    identity_matrix,
    integer_kernel,
    inverse_fraction,
    mat_mul,
    mat_vec,
    row_hnf,
    snf_with_transforms,
    transpose,
)


class DegenerateLatticeError(ValueError):
    pass


class InvariantError(RuntimeError):
    """A mathematical invariant failed: a bug, never bad input.  Raised
    explicitly so the check also runs under python -O."""


def _integer_entry(x, label, i, j):
    """A matrix entry as an int; anything non-integral is refused by name."""
    if type(x) is int:
        return x
    try:
        v = None if isinstance(x, (bool, str)) else Fraction(x)
    except (TypeError, ValueError, OverflowError):
        v = None
    if v is None or v.denominator != 1:
        raise ValueError(f"{label} entry [{i}][{j}] = {x!r} is not an integer")
    return int(v)


class QuadLattice:
    """An integral lattice with even Gram matrix (rank 0 allowed)."""

    def __init__(self, gram, name=None):
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise ValueError("gram matrix must be square")
        gram = [[_integer_entry(x, "gram", i, j) for j, x in enumerate(row)]
                for i, row in enumerate(gram)]
        for i, row in enumerate(gram):
            if row[i] % 2 != 0:
                raise ValueError("gram diagonal must be even (Q must be Z-valued)")
            for j in range(n):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        self.gram = tuple(tuple(row) for row in gram)
        self.rank = n
        self.name = name
        self._disc_group = None
        diag = congruence_diagonal(gram)
        self.det = int(math.prod(diag))
        self.signature = (sum(1 for x in diag if x > 0), sum(1 for x in diag if x < 0))
        self._degenerate = sum(self.signature) < n

    def __repr__(self):
        return f"QuadLattice(rank={self.rank}, det={self.det}, signature={self.signature})"

    def __eq__(self, other):
        return isinstance(other, QuadLattice) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    @property
    def is_degenerate(self):
        return self._degenerate

    @property
    def disc(self):
        """|det(gram)|; the sign is available separately via det."""
        return abs(self.det)

    def bilinear(self, x, y):
        # a Fraction start keeps rank 0 exact: an empty sum is Fraction(0)
        return sum((Fraction(x[i]) * self.gram[i][j] * Fraction(y[j])
                    for i in range(self.rank) for j in range(self.rank)), Fraction(0))

    def quadratic(self, x):
        return self.bilinear(x, x) / 2

    def is_positive_definite(self):
        return self.signature == (self.rank, 0) and not self._degenerate

    def is_negative_definite(self):
        return self.signature == (0, self.rank) and not self._degenerate

    def gram_inverse(self):
        if self._degenerate:
            raise DegenerateLatticeError("degenerate lattice")
        return inverse_fraction(self.gram) if self.rank else []

    def level(self):
        """Smallest N with N * Q(mu) integral for every dual vector mu,
        read off the discriminant group's generator table."""
        return self.disc_group().level

    def disc_group(self):
        if self._disc_group is None:
            self._disc_group = DiscriminantGroup(self)
        return self._disc_group


class Coset(namedtuple("Coset", "group coords")):
    """Element of L^vee / L: coords[s] is the coefficient of the s-th
    generator, one per elementary divisor d_s > 1, reduced mod d_s."""

    __slots__ = ()

    def rep(self):
        """Canonical rational representative in the lattice basis,
        with every coordinate reduced into [0, 1)."""
        g = self.group
        n = g.lattice.rank
        v = [Fraction(0)] * n
        for a, gen in zip(self.coords, g._generators):
            if a:
                for i in range(n):
                    v[i] += a * gen[i]
        return tuple(x - (x.numerator // x.denominator) for x in v)

    def __neg__(self):
        g = self.group
        return Coset(g, tuple((-a) % d for a, d in zip(self.coords, g.elementary_divisors)))

    def __add__(self, other):
        if other.group is not self.group:
            raise ValueError("cosets from different discriminant groups")
        g = self.group
        return Coset(g, tuple((a + b) % d for a, b, d in
                              zip(self.coords, other.coords, g.elementary_divisors)))

    def is_zero(self):
        return all(a == 0 for a in self.coords)

    def order(self):
        o = 1
        for a, d in zip(self.coords, self.group.elementary_divisors):
            if a:
                k = d // gcd(a, d)
                o = o * k // gcd(o, k)
        return o

    def __repr__(self):
        return f"Coset{self.coords}"


class DiscriminantGroup:
    """The finite quadratic module L^vee / L, via Smith normal form of gram."""

    def __init__(self, lattice: QuadLattice):
        if lattice.is_degenerate:
            raise DegenerateLatticeError("degenerate lattice")
        self.lattice = lattice
        n = lattice.rank
        U, V, D = snf_with_transforms([list(r) for r in lattice.gram])
        # the divisors ascend, so the unit ones come first; their generators
        # lie in L, and g_s = V_s / d_s over the rest generate L^vee / L
        vis = [i for i in range(n) if D[i][i] > 1]
        self.elementary_divisors = d = tuple(D[i][i] for i in vis)
        self._generators = tuple(tuple(Fraction(V[t][i], D[i][i]) for t in range(n))
                                 for i in vis)
        # G^{-1} k = sum_i (U k)_i V_i / D_ii: the rows of U that name a
        # generator classify dual vectors by coset (see dual_index)
        self._dual_rows = tuple((tuple(U[i]), D[i][i]) for i in vis)
        self.order = math.prod(d)
        if self.order != lattice.disc:
            raise InvariantError(f"group order {self.order} != disc {lattice.disc}")
        # generator table, with E the exponent: pairing[s][t] = E [g_s, g_t]
        # mod E and _q2[s] = 2E Q(g_s) mod 2E, from W = V^T G V in integers;
        # E W_st / (d_s d_t) is integral because d_s g_s lies in L
        self.exponent = E = lcm(*d)
        GV = [[sum(g * V[b][t] for b, g in enumerate(row)) for t in vis]
              for row in lattice.gram]
        table = [[divmod(E * sum(V[a][i] * GV[a][t] for a in range(n)), d[s] * d[t])
                  for t in range(len(d))] for s, i in enumerate(vis)]
        if any(r for row in table for _, r in row):
            raise InvariantError(f"E [g_s, g_t] not integral for exponent {E}")
        self.pairing = P = tuple(tuple(w % E for w, _ in row) for row in table)
        self._q2 = tuple(row[s][0] % (2 * E) for s, row in enumerate(table))
        # the level: N Q(sum a_s g_s) is integral for all a exactly when
        # every N Q(g_s) and every N [g_s, g_t], s < t, is
        self.level = lcm(*(Fraction(q, 2 * E).denominator for q in self._q2),
                         *(Fraction(P[s][t], E).denominator
                           for s in range(len(P)) for t in range(s)))

    def zero(self):
        return Coset(self, (0,) * len(self.elementary_divisors))

    def from_coords(self, coords):
        """Coset from one coordinate per generator, reduced mod its divisor."""
        coords = list(coords)
        if len(coords) != len(self.elementary_divisors):
            raise ValueError(f"{len(coords)} coordinates given, but the group has "
                             f"{len(self.elementary_divisors)} visible generators")
        return Coset(self, tuple(a % d for a, d in zip(coords, self.elementary_divisors)))

    def from_vector(self, v):
        """Coset of a rational vector v in L^vee (lattice-basis coordinates):
        k = G v is integral exactly when v is dual, and names its coset."""
        gram = self.lattice.gram
        if len(v) != len(gram):
            raise ValueError(f"vector has {len(v)} coordinates, but the lattice "
                             f"has rank {len(gram)}")
        k = [sum(Fraction(g) * x for g, x in zip(row, v)) for row in gram]
        if any(x.denominator != 1 for x in k):
            raise ValueError("vector is not in the dual lattice")
        return self.coset_by_index(self.dual_index([int(x) for x in k]))

    def dual_index(self, k):
        """Position in elements() of the coset of G^{-1} k, k integral: its
        coordinates are (U k) mod the elementary divisors, in mixed radix."""
        index = 0
        for row, d in self._dual_rows:
            index = index * d + sum(u * x for u, x in zip(row, k)) % d
        return index

    def elements(self):
        """All cosets, ordered lexicographically by coordinates (the zero
        coset always comes first)."""
        for coords in itertools.product(*map(range, self.elementary_divisors)):
            yield Coset(self, coords)

    def coset_by_index(self, k):
        """The k-th coset of elements(): mixed radix over the divisors."""
        if not 0 <= k < self.order:
            raise ValueError(f"coset index {k} out of range: the group has "
                             f"{self.order} cosets")
        coords = []
        for d in reversed(self.elementary_divisors):
            k, a = divmod(k, d)
            coords.append(a)
        return Coset(self, tuple(reversed(coords)))

    def index_of(self, coset):
        """Position of coset in elements(), inverse of coset_by_index."""
        if coset.group is not self or len(coset.coords) != len(self.elementary_divisors):
            raise ValueError("coset not in group")
        k = 0
        for a, d in zip(coset.coords, self.elementary_divisors):
            if not 0 <= a < d:
                raise ValueError("coset not in group")
            k = k * d + a
        return k

    def q_map(self, coset):
        """Q(mu) mod Z, as a Fraction in [0, 1): for mu = sum a_s g_s,
        2E Q(mu) = sum a_s^2 2E Q(g_s) + 2 sum_{s<t} a_s a_t E [g_s, g_t]."""
        a = coset.coords
        P = self.pairing
        total = sum(x * x * q for x, q in zip(a, self._q2))
        for s in range(1, len(a)):
            if a[s]:
                total += 2 * a[s] * sum(a[t] * P[s][t] for t in range(s))
        return Fraction(total % (2 * self.exponent), 2 * self.exponent)

    def b_map(self, c1, c2):
        """[mu, nu] mod Z, as a Fraction in [0, 1)."""
        total = sum(x * sum(y * p for y, p in zip(c2.coords, row))
                    for x, row in zip(c1.coords, self.pairing))
        return Fraction(total % self.exponent, self.exponent)


def discriminant_group(lattice: QuadLattice) -> DiscriminantGroup:
    """L^vee / L with its torsion quadratic form."""
    return lattice.disc_group()


def is_maximal(lattice: QuadLattice) -> bool:
    """True iff L admits no proper integral overlattice.

    L + Zx is integral exactly when x lies in L^vee and Q(x) is integral,
    so maximality amounts to anisotropy of the discriminant form.
    """
    group = lattice.disc_group()
    for mu in group.elements():
        if not mu.is_zero() and group.q_map(mu) == 0:
            return False
    return True


class SublatticeEmbedding:
    """A direct summand L0 of L together with its orthogonal complement.
    The bases are columns of integer coordinates in the ambient basis;
    index is [L : L0 + Lambda]."""

    def __init__(self, ambient: QuadLattice, sub_basis: tuple, sub: QuadLattice,
                 complement_basis: tuple, complement: QuadLattice, index: int):
        if sub.disc * complement.disc != ambient.disc * index ** 2:
            raise InvariantError("disc(L0) disc(Lambda) != disc(L) [L : L0 + Lambda]^2")
        self.ambient, self.sub_basis, self.sub = ambient, sub_basis, sub
        self.complement_basis, self.complement, self.index = complement_basis, complement, index
        # glue_cosets memo: (reps of L / (L0 + Lambda), J^-1) and pairs per mu
        self._glue_frame = None
        self._glue = {}


def orthogonal_complement(lattice: QuadLattice, sub_basis) -> SublatticeEmbedding:
    """Saturated orthogonal complement of a direct summand, with glue index."""
    n = lattice.rank
    if len(sub_basis) != n:
        raise ValueError(f"sublattice basis has {len(sub_basis)} rows, "
                         f"the ambient lattice rank {n}")
    S = [[_integer_entry(x, "basis", i, j) for j, x in enumerate(row)]
         for i, row in enumerate(sub_basis)]  # n x r
    r = len(S[0]) if S and S[0] else 0
    if r:
        _, _, D = snf_with_transforms(S)
        if n < r or any(abs(D[t][t]) != 1 for t in range(r)):
            raise ValueError("non-primitive sublattice")
    StG = mat_mul(transpose(S), lattice.gram) if r else []
    sub = QuadLattice([[int(x) for x in row] for row in mat_mul(StG, S)] if r else [])
    if r and sub.is_degenerate:
        raise ValueError("non-primitive sublattice")  # degenerate summand unsupported
    # complement: integer kernel of S^T G
    C = integer_kernel(StG) if r else identity_matrix(n)
    ncomp = len(C[0]) if C and C[0] else 0
    comp_gram = mat_mul(mat_mul(transpose(C), lattice.gram), C) if ncomp else []
    comp = QuadLattice([[int(x) for x in row] for row in comp_gram])
    # glue index [L : L0 + Lambda]
    if r + ncomp != n:
        raise ValueError("non-primitive sublattice")
    J = [[S[i][j] for j in range(r)] + [C[i][j] for j in range(ncomp)] for i in range(n)]
    index = abs(int(det_fraction(J))) if n else 1
    return SublatticeEmbedding(lattice, tuple(map(tuple, S)) if r else (),
                               sub, tuple(map(tuple, C)) if ncomp else (), comp, index)


def glue_cosets(emb: SublatticeEmbedding, mu: Coset):
    """Representatives of (mu + L) / (L0 + Lambda) as coset pairs
    (mu1, mu2) in (L0^vee/L0) x (Lambda^vee/Lambda).  Length = glue index.
    Computed once per embedding and coset; each call returns a new list."""
    pairs = emb._glue.get(mu.coords)
    if pairs is not None:
        return list(pairs)
    n, r, nc = emb.ambient.rank, emb.sub.rank, emb.complement.rank
    if emb._glue_frame is None:
        # representatives of Z^n / J Z^n: the box of the pivots of the
        # triangular Hermite basis of J Z^n
        J = [[emb.sub_basis[i][j] for j in range(r)] +
             [emb.complement_basis[i][j] for j in range(nc)] for i in range(n)]
        H = row_hnf(transpose(J))
        reps = list(itertools.product(*(range(H[t][t]) for t in range(n))))
        emb._glue_frame = (reps, inverse_fraction(J))
    reps, Jinv = emb._glue_frame
    disc0 = emb.sub.disc_group()
    discc = emb.complement.disc_group()
    mu_rep = mu.rep()
    # keyed by coset coordinates: dedupes (a no-op safeguard, box reps are
    # exact coset representatives) and orders deterministically
    seen = {}
    for rep in reps:
        coeffs = mat_vec(Jinv, [a + b for a, b in zip(mu_rep, rep)])
        mu1 = disc0.from_vector(coeffs[:r]) if r else disc0.zero()
        mu2 = discc.from_vector(coeffs[r:]) if nc else discc.zero()
        seen[(mu1.coords, mu2.coords)] = (mu1, mu2)
    pairs = [seen[k] for k in sorted(seen)]
    if len(pairs) != emb.index:
        raise InvariantError(f"{len(pairs)} glue pairs for glue index {emb.index}")
    emb._glue[mu.coords] = pairs
    return list(pairs)


def _coset_shell(lattice: QuadLattice, mu, m):
    """(shift, the (t, norm) of every x = shift + t with Q(x) = m), for
    mu a Coset or a rational coordinate vector and L positive definite."""
    if lattice.rank and not lattice.is_positive_definite():
        raise ValueError("enumeration requires definite lattice")
    shift = mu.rep() if isinstance(mu, Coset) else [Fraction(x) for x in mu]
    return shift, _short_vectors(lattice.gram, shift, Fraction(m), exact=True)


def enumerate_coset_vectors(lattice: QuadLattice, mu, m) -> list:
    """All x in mu + L with Q(x) = m, for positive definite L.

    mu may be a Coset or a rational coordinate vector; vectors are returned
    as tuples of Fractions in the lattice basis, lexicographically sorted.
    """
    shift, found = _coset_shell(lattice, mu, m)
    # x = shift + t orders as t does, so sort the integer offsets
    return [tuple(Fraction(s.numerator + s.denominator * ti, s.denominator)
                  for s, ti in zip(shift, t)) for t in sorted(t for t, _ in found)]


def count_coset_vectors(lattice: QuadLattice, mu, m) -> int:
    """len(enumerate_coset_vectors(lattice, mu, m)), without building or
    sorting the vectors."""
    return len(_coset_shell(lattice, mu, m)[1])


def ball_sweep(gram, shift, bound):
    """All x = shift + t, t integral, with (1/2) x^T gram x <= bound, for a
    rational symmetric positive definite gram, as a list of (t, norm): t an
    integer tuple, norm = 2 e^2 D Q(x) an integer, with D and e the lcms
    of the denominators of gram and of shift."""
    return _short_vectors(gram, shift, bound, exact=False)


_REFUSED = "enumeration input too ill-conditioned or too large to search"


@functools.lru_cache(maxsize=256)
def _search_setup(A):
    """The Gram-only part of the search for an integer Gram A (a tuple of
    int tuples): the fraction-free (Bareiss) rows B, the leading minors
    delta and max_j (A^-1)_jj, all immutable.  Raises ValueError, and
    caches nothing, for an A that is not positive definite or that the
    conditioning guard refuses.  The cache serves callers that search
    many shells of one lattice, such as R(m, mu) over every coset and m
    or the degree oracle's quaternion orders (78 distinct Grams over the
    whole cm-oracle benchmark sweep); a verify run searches each of its
    Grams once."""
    n = len(A)
    M = [list(row) for row in A]
    B, delta = [], [1]
    for k in range(n):
        p = M[k][k]
        if p <= 0:
            raise ValueError("enumeration requires a positive definite gram")
        B.append(tuple(M[k]))
        for i in range(k + 1, n):
            Mi = M[i]
            for j in range(k + 1, n):
                Mi[j] = (p * Mi[j] - Mi[k] * M[k][j]) // delta[k]
        delta.append(p)
    # Conditioning guard: refuse before the search when kappa = sum_j
    # sqrt(A_jj (A^-1)_jj) is out of range, since the search tree grows
    # with it.  A single term past 2^74 already puts kappa over its
    # threshold, and is refused before any float could overflow.
    inv = [row[j] for j, row in enumerate(inverse_fraction(A))]
    terms = [A[j][j] * inv[j] for j in range(n)]
    if (max(terms) > 2 ** 74
            or 4 * (n + 2) ** 2 * sum(math.sqrt(t) for t in terms) > 2.0 ** 37):
        raise ValueError(_REFUSED)
    return tuple(B), tuple(delta), max(inv)


def _short_vectors(gram, shift, bound, exact):
    """Integer Fincke-Pohst: (t, norm) for every x = shift + t with
    norm = e^2 D x^T gram x <= 2 e^2 D bound, or == when exact.

    The search runs over y = e x = c + e t with A = D gram integral, in
    integers only.  A fraction-free (Bareiss) elimination of A gives its
    leading minors delta_0 = 1, ..., delta_n and integer rows B[k] with
    B[k][k] = delta_{k+1}, so that y^T A y = sum_k u_k^2 / (delta_k
    delta_{k+1}) with u_k = sum_{j>=k} B[k][j] y_j; both come from
    _search_setup, once per A.  Inputs too ill-conditioned or too large
    to search raise ValueError.
    """
    n = len(gram)
    D = lcm(*(x.denominator for row in gram for x in row))
    e = lcm(*(Fraction(x).denominator for x in shift))
    A = tuple(tuple(x.numerator * (D // x.denominator) for x in row) for row in gram)
    c = [int(Fraction(x) * e) for x in shift]
    target = 2 * D * e * e * Fraction(bound)
    if target < 0 or (exact and target.denominator != 1):
        return []
    N = target.numerator // target.denominator
    if n == 0:
        return [((), 0)] if N == 0 or not exact else []
    B, delta, max_inv = _search_setup(A)
    # size guard: the search tree also grows with N (A^-1)_jj
    if N * max_inv > 2 ** 100:
        raise ValueError(_REFUSED)
    out = []
    y = [0] * n

    def descend(k, T, s):
        # y[k+1:] fixed, T = delta_{k+1} * (their share of the norm) and
        # s = sum_{j>k} B[k][j] y_j; y_k is admitted when u = delta_{k+1}
        # y_k + s has u^2 <= delta_k (delta_{k+1} N - T).  The T passed
        # down is an integer: delta_k times a Schur-complement value of A.
        dk, dk1 = delta[k], delta[k + 1]
        R = dk * (dk1 * N - T)
        r = isqrt(R)
        if k == 0 and exact:
            # delta_0 = 1, so the norm (T + u^2) / delta_1 is N exactly when
            # u = -r or r with r^2 = R; emitted in increasing y_0
            if r * r == R:
                for u in (-r, r) if r else (0,):
                    y0, rem = divmod(u - s, dk1)
                    if not rem and (y0 - c[0]) % e == 0:
                        out.append((((y0 - c[0]) // e,)
                                    + tuple((y[j] - c[j]) // e for j in range(1, n)), N))
            return
        lo = -((r + s) // dk1)
        lo += (c[k] - lo) % e
        stop = (r - s) // dk1 + 1
        if k == 0:
            # delta_0 = 1: the passed-down value is the exact norm y^T A y
            rest = tuple((y[j] - c[j]) // e for j in range(1, n))
            for y0 in range(lo, stop, e):
                u = dk1 * y0 + s
                out.append((((y0 - c[0]) // e,) + rest, (T + u * u) // dk1))
            return
        # the child's s is base + B[k-1][k] y_k, base summed once here
        Bc = B[k - 1]
        base = sum(Bc[j] * y[j] for j in range(k + 1, n))
        bk = Bc[k]
        for yk in range(lo, stop, e):
            y[k] = yk
            u = dk1 * yk + s
            descend(k - 1, (dk * T + u * u) // dk1, base + bk * yk)

    descend(n - 1, 0, 0)
    return out


CliffordDiscriminant = namedtuple("CliffordDiscriminant", "value is_fundamental is_odd")


FACTOR_TRIAL_BOUND = 10 ** 6


def factorization(n):
    """The ascending (p, e) with p^e exactly dividing |n|, by trial division
    up to FACTOR_TRIAL_BOUND: a cofactor still at least its square (it may be
    composite) is refused with a ValueError naming n, never searched on."""
    if n == 0:
        raise ValueError("factorization of 0")
    rest = abs(n)
    out = []
    k = 2
    while k * k <= rest:
        if k > FACTOR_TRIAL_BOUND:
            raise ValueError(f"cannot factor {n}: trial division to {FACTOR_TRIAL_BOUND} "
                             f"leaves a cofactor of {rest}")
        if rest % k == 0:
            e = 0
            while rest % k == 0:
                rest //= k
                e += 1
            out.append((k, e))
        k += 1 if k == 2 else 2
    if rest > 1:
        out.append((rest, 1))
    return out


def is_fundamental_discriminant(d: int) -> bool:
    if d == 1:
        return True
    if d % 4 == 1:
        core = d
    elif d % 4 == 0 and d // 4 % 4 in (2, 3):
        core = d // 4
    else:
        return False
    return all(e == 1 for _, e in factorization(core))


def even_clifford_binary(lattice: QuadLattice) -> CliffordDiscriminant:
    """Discriminant of the even Clifford order Z[e1 e2] of a negative
    definite binary lattice: (e1 e2)^2 = [e1,e2] e1e2 - Q(e1) Q(e2)."""
    if lattice.rank != 2 or not lattice.is_negative_definite():
        raise ValueError("even Clifford discriminant requires a negative definite binary lattice")
    b = lattice.gram[0][1]
    q1 = lattice.gram[0][0] // 2
    q2 = lattice.gram[1][1] // 2
    d = b * b - 4 * q1 * q2
    return CliffordDiscriminant(d, is_fundamental_discriminant(d), d % 2 != 0)
