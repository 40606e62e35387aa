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

Glue.  glue_cosets reads each pair in L0^vee/L0 x Lambda^vee/Lambda off
the integer dual coordinates G x of a vector of mu + L, which restrict to
those of its L0 and Lambda parts; the box of such x and the glue index
come from one Hermite form of [S | C], taken once per embedding.

Enumeration.  ball_sweep, enumerate_coset_vectors and count_coset_vectors
share one Fincke-Pohst core that runs in integers only: each level's range
comes from a fraction-free LDL^T (linalg.symmetric_minors, the elimination
that also gives a QuadLattice its det and signature) by an integer square
root, so the nodes it visits, every vector it returns and its norm are
exact.  The part of the search that depends only on the Gram matrix (the
elimination rows, the leading minors and the conditioning guard) is
computed once per integer Gram and kept in a bounded cache; only the size
test and a ball sweep's point budget, which depend on the norm bound, run
per call.  count_coset_vectors counts a
shell without building its Fraction vectors, for callers that only need
R(m, mu).  The public functions reach the core through one Fraction front
end (_short_vectors); a caller that already holds the integer Gram, the
shift's numerators over one denominator and an integer target calls the
core, _search, directly, as the degree oracle does for its many tiny
rank-2 shells.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt, lcm

from .linalg import (
    HermiteSolver,
    _scale_to_int,
    identity_matrix,
    inverse_fraction,
    mat_mul,
    row_hnf,
    snf_with_transforms,
    symmetric_minors,
    transpose,
)


class InputRefusal(ValueError):
    """Input refused, never a bug: arg names the parameter it blames, so a
    front end can name its own option for it.  "lattice" is the Gram the
    function was given, or one derived from it such as the complement;
    "bound" a norm bound, cutoff or table size; "m", "sub_basis" and
    "fault_negate" the parameters of those names."""

    def __init__(self, message, arg):
        super().__init__(message)
        self.arg = arg


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

    def __init__(self, gram):
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
        self._disc_group = None
        delta = symmetric_minors(gram)[1]
        self.det = delta[-1]
        steps = [a * b for a, b in zip(delta, delta[1:])]
        self.signature = (sum(1 for x in steps if x > 0), sum(1 for x in steps if x < 0))

    def __repr__(self):
        return f"QuadLattice(rank={self.rank}, det={self.det}, signature={self.signature})"

    @property
    def is_degenerate(self):
        return self.det == 0

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

    # a signature of (rank, 0) or (0, rank) leaves no zero leading minor
    def is_positive_definite(self):
        return self.signature == (self.rank, 0)

    def is_negative_definite(self):
        return self.signature == (0, self.rank)

    def gram_inverse(self):
        if self.is_degenerate:
            raise InputRefusal("degenerate lattice", "lattice")
        return inverse_fraction(self.gram) if self.rank else []

    def level(self):
        """Smallest N with N * Q(mu) integral for every dual vector mu,
        read off the discriminant group's generator table."""
        return discriminant_group(self).level


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
        return lcm(*(d // gcd(a, d) for a, d in zip(self.coords, self.group.elementary_divisors)))

    def __repr__(self):
        return f"Coset{self.coords}"


# Most cosets DiscriminantGroup.elements lists.  On a 2-core x86 host with
# Python 3.11.7, is_maximal walked 10^6 of them in 2-3 s, and a disc report
# of 10^6 took about 50 s and 835 MB.
COSET_BOUND = 10 ** 6


class DiscriminantGroup:
    """The finite quadratic module L^vee / L, via Smith normal form of gram."""

    def __init__(self, lattice: QuadLattice):
        if lattice.is_degenerate:
            raise InputRefusal("degenerate lattice", "lattice")
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
        # the generators' dual coordinates G g_s = G V_s / d_s, integral
        # because U G V = D makes them columns of U^-1 (see glue_cosets)
        self._dual_gens = tuple(tuple(row[s] // d[s] for row in GV) for s in range(len(d)))
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
        coset always comes first); a group over COSET_BOUND is refused
        before the first one."""
        if self.order > COSET_BOUND:
            raise InputRefusal(f"the discriminant group has {self.order} cosets, "
                               f"over the listing bound of {COSET_BOUND}", "lattice")
        return (Coset(self, coords)
                for coords in itertools.product(*map(range, self.elementary_divisors)))

    def coset_by_index(self, k):
        """The k-th coset of elements(): mixed radix over the divisors.  Any
        k but an int in range, a coordinate tuple say, is a ValueError."""
        if not (isinstance(k, int) and 0 <= k < self.order):
            raise ValueError(f"coset index {k!r} out of range: the group has "
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

    def b_int(self, c1, c2):
        """E [mu, nu] mod E, E the exponent, as an int in [0, E)."""
        total = 0  # plain loops: omega_S calls this |D|^2 times
        for x, row in zip(c1.coords, self.pairing):
            for y, p in zip(c2.coords, row):
                total += x * y * p
        return total % self.exponent

    def b_map(self, c1, c2):
        """[mu, nu] mod Z, as a Fraction in [0, 1)."""
        return Fraction(self.b_int(c1, c2), self.exponent)


def discriminant_group(lattice: QuadLattice) -> DiscriminantGroup:
    """L^vee / L with its torsion quadratic form, built once per lattice and
    kept in lattice._disc_group."""
    if lattice._disc_group is None:
        lattice._disc_group = DiscriminantGroup(lattice)
    return lattice._disc_group


def is_maximal(lattice: QuadLattice) -> bool:
    """True iff L admits no proper integral overlattice.

    L + Zx is integral exactly when x lies in L^vee and Q(x) is integral,
    so maximality amounts to anisotropy of the discriminant form.
    """
    group = discriminant_group(lattice)
    for mu in group.elements():
        if not mu.is_zero() and group.q_map(mu) == 0:
            return False
    return True


class SublatticeEmbedding:
    """A direct summand L0 of L together with its orthogonal complement.
    The bases are columns of integer coordinates in the ambient basis; box
    holds the pivots of the Hermite form of J Z^n, J = [S | C] the n x n
    matrix of the two bases' columns: the box of their ranges represents
    L / (L0 + Lambda), and index = [L : L0 + Lambda] is their product."""

    def __init__(self, ambient: QuadLattice, sub_basis: tuple, sub: QuadLattice,
                 complement_basis: tuple, complement: QuadLattice, box: tuple):
        self.box, self.index = box, math.prod(box)
        if sub.disc * complement.disc != ambient.disc * self.index ** 2:
            raise InvariantError("disc(L0) disc(Lambda) != disc(L) [L : L0 + Lambda]^2")
        self.ambient, self.sub_basis, self.sub = ambient, sub_basis, sub
        self.complement_basis, self.complement = complement_basis, complement


def orthogonal_complement(lattice: QuadLattice, sub_basis) -> SublatticeEmbedding:
    """Saturated orthogonal complement of a direct summand, with glue index."""
    n = lattice.rank
    if len(sub_basis) != n:
        raise ValueError(f"sublattice basis has {len(sub_basis)} rows, "
                         f"the ambient lattice rank {n}")
    S = [[_integer_entry(x, "basis", i, j) for j, x in enumerate(row)]
         for i, row in enumerate(sub_basis)]  # n x r
    r = len(S[0]) if S and S[0] else 0
    # primitive: the rows of S span Z^r (the gcd of the r x r minors is 1)
    if r and row_hnf(S) != identity_matrix(r):
        raise ValueError("non-primitive sublattice")
    StG = mat_mul(transpose(S), lattice.gram) if r else []
    sub = QuadLattice([[int(x) for x in row] for row in mat_mul(StG, S)] if r else [])
    if r and sub.is_degenerate:
        raise ValueError("non-primitive sublattice")  # degenerate summand unsupported
    # complement: the HNF basis of the integer kernel of S^T G
    C = transpose(HermiteSolver(StG).kernel()) if r else identity_matrix(n)
    ncomp = len(C[0]) if C and C[0] else 0
    comp_gram = mat_mul(mat_mul(transpose(C), lattice.gram), C) if ncomp else []
    comp = QuadLattice([[int(x) for x in row] for row in comp_gram])
    S, C = tuple(map(tuple, S)) if r else (), tuple(map(tuple, C)) if ncomp else ()
    H = row_hnf(transpose(S) + transpose(C))
    return SublatticeEmbedding(lattice, S, sub, C, comp, tuple(H[t][t] for t in range(len(H))))


def glue_cosets(emb: SublatticeEmbedding, mu: Coset):
    """Representatives of (mu + L) / (L0 + Lambda) as coset pairs
    (mu1, mu2) in (L0^vee/L0) x (Lambda^vee/Lambda), sorted; length = glue
    index.  Each x = sum a_s g_s + t, t in the embedding's box, has k =
    G x integral, and S^T k, C^T k are the dual coordinates of its L0 and
    Lambda parts (S^T G C = 0)."""
    L = emb.ambient
    if mu.group.lattice.gram != L.gram:
        raise ValueError("coset of another lattice than the embedding's ambient one")
    n, S, C = L.rank, emb.sub_basis, emb.complement_basis
    disc0, discc = discriminant_group(emb.sub), discriminant_group(emb.complement)
    k0 = [sum(a * g[i] for a, g in zip(mu.coords, mu.group._dual_gens)) for i in range(n)]
    seen = set()
    for t in itertools.product(*map(range, emb.box)):
        k = [x + sum(g * y for g, y in zip(row, t)) for x, row in zip(k0, L.gram)]
        seen.add((disc0.dual_index([sum(s * x for s, x in zip(col, k)) for col in zip(*S)]),
                  discc.dual_index([sum(c * x for c, x in zip(col, k)) for col in zip(*C)])))
    if len(seen) != emb.index:
        raise InvariantError(f"{len(seen)} glue pairs for glue index {emb.index}")
    # the mixed-radix index orders cosets as their coordinates do
    return [(disc0.coset_by_index(i), discc.coset_by_index(j)) for i, j in sorted(seen)]


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
# Most points a ball sweep may expect, by the volume estimate in _search.
# On a 2-core x86 host with Python 3.11.7, theta on E8 at cutoff 14 (2.5
# million by the estimate, 2.9 million returned) took 6.4 s
SWEEP_BUDGET = 3 * 10 ** 6


@functools.lru_cache(maxsize=256)
def _search_setup(A):
    """The Gram-only part of the search for an integer Gram A (a tuple of
    int tuples): the rows B and leading minors delta of its fraction-free
    elimination (linalg.symmetric_minors, which never pivots a positive
    definite A) and the largest target N the size guard admits (N max_j
    (A^-1)_jj <= 2^100), all immutable.  Raises ValueError, and caches
    nothing, for an A with a minor that is not positive (Sylvester's
    criterion) or that the conditioning guard refuses.  The cache serves
    callers that search many shells of one lattice, such as R(m, mu) over
    every coset and m or the degree oracle's quaternion orders (78
    distinct Grams over the whole cm-oracle benchmark sweep); a verify run
    searches each of its Grams once."""
    n = len(A)
    B, delta = symmetric_minors(A)
    if min(delta) <= 0:
        raise ValueError("enumeration requires a positive definite gram")
    # Conditioning guard: refuse before the search when kappa = sum_j
    # sqrt(A_jj (A^-1)_jj) is out of range, since the search tree grows
    # with it.  A single term past 2^74 already puts kappa over its
    # threshold, and is refused before any float could overflow.
    inv = [row[j] for j, row in enumerate(inverse_fraction(A))]
    terms = [A[j][j] * inv[j] for j in range(n)]
    if (max(terms) > 2 ** 74
            or 4 * (n + 2) ** 2 * sum(math.sqrt(t) for t in terms) > 2.0 ** 37):
        raise InputRefusal(_REFUSED, "lattice")
    # N max_inv <= 2^100 exactly when N <= floor(2^100 / max_inv)
    max_inv = max(inv)
    return tuple(B), tuple(delta), (2 ** 100 * max_inv.denominator) // max_inv.numerator


def _short_vectors(gram, shift, bound, exact):
    """(t, norm) for every x = shift + t with norm = e^2 D x^T gram x <=
    2 e^2 D bound, or == when exact: the Fraction front end of _search,
    which runs over y = e x = c + e t with A = D gram integral."""
    A, D = _scale_to_int(gram)
    (c,), e = _scale_to_int([shift])
    target = 2 * D * e * e * Fraction(bound)
    if target < 0 or (exact and target.denominator != 1):
        return []
    return _search(tuple(map(tuple, A)), c, e, target.numerator // target.denominator, exact)


def _search(A, c, e, N, exact):
    """Integer Fincke-Pohst: (t, norm) for every y = c + e t, t integral,
    with norm = y^T A y <= N, or == N when exact; A is an integer Gram (a
    tuple of int tuples), c the integer numerators of the shift over e,
    and N >= 0 an int.

    A fraction-free (Bareiss) elimination of A gives its leading minors
    delta_0 = 1, ..., delta_n and integer rows B[k] with B[k][k] =
    delta_{k+1}, so that y^T A y = sum_k u_k^2 / (delta_k delta_{k+1})
    with u_k = sum_{j>=k} B[k][j] y_j; both come from _search_setup, once
    per A.  Inputs too ill-conditioned or too large to search raise
    InputRefusal.
    """
    n = len(A)
    if n == 0:
        return [((), 0)] if N == 0 or not exact else []
    B, delta, max_target = _search_setup(A)
    # size guard: the search tree also grows with N (A^-1)_jj
    if N > max_target:
        raise InputRefusal(_REFUSED, "bound")
    # sweep budget: the ball y^T A y <= N holds about V_n N^(n/2) / sqrt(det A)
    # points of the grid c + e Z^n of covolume e^n (V_n the volume of the
    # unit n-ball), compared in logs so no size of A or N overflows
    if not exact and N and (n / 2 * (math.log(math.pi) + math.log(N)) - math.lgamma(n / 2 + 1)
                            - math.log(delta[-1]) / 2 - n * math.log(e)
                            > math.log(SWEEP_BUDGET)):
        raise InputRefusal(_REFUSED, "bound")
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

