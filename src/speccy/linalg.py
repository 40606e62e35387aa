"""Exact integer and rational linear algebra used throughout the package.

Everything here works over Python ints and fractions.Fraction; no floats.
Matrices are lists of lists (row major).  Lattices are given by basis
matrices whose *columns* are the basis vectors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import lcm


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def mat_vec(A, v):
    return [sum(A[i][t] * v[t] for t in range(len(v))) for i in range(len(A))]


def transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def inverse_fraction(A):
    """Inverse, exact: rows scaled to integers (D A, D the row scales), one
    fraction-free (Bareiss) Gauss-Jordan pass on [D A | I], and one
    division by the final pivot p.  Every row step is r_i <- (p r_i -
    M[i][k] r_k) / p_prev, an exact division; columns left of the pivot
    are not kept up to date."""
    n = len(A)
    scaled = [_scale_to_int([row]) for row in A]
    M = [ints + [int(i == j) for j in range(n)] for i, ((ints,), _) in enumerate(scaled)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if M[r][k] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        M[k], M[piv] = M[piv], M[k]
        Mk = M[k]
        p = Mk[k]
        for i in range(n):
            if i != k:
                Mi = M[i]
                f = Mi[k]
                M[i] = Mi[:k] + [(p * x - f * y) // prev
                                 for x, y in zip(Mi[k:], Mk[k:])]
        prev = p
    # the right block is p (D A)^-1, and A^-1 = (D A)^-1 D
    return [[Fraction(x * den, prev) for x, (_, den) in zip(row[n:], scaled)] for row in M]


# ---------------------------------------------------------------------------
# Integer normal forms


def _clear_below(M, r, c, T=None):
    """One Euclid step down column c from pivot row r: each row i > r with
    M[i][c] != 0 loses q = M[i][c] // M[r][c] times row r, and when a
    remainder is left, rows r and i swap; T, if given, takes the same row
    steps.  True if a swap happened (the pivot shrank, so repeat)."""
    moved = False
    for i in range(r + 1, len(M)):
        if M[i][c] != 0:
            q = M[i][c] // M[r][c]
            M[i] = [a - q * b for a, b in zip(M[i], M[r])]
            if T is not None:
                T[i] = [a - q * b for a, b in zip(T[i], T[r])]
            if M[i][c] != 0:
                M[r], M[i] = M[i], M[r]
                if T is not None:
                    T[r], T[i] = T[i], T[r]
                moved = True
    return moved


def row_hnf(rows):
    """Row Hermite normal form of the lattice spanned by the given rows.

    Returns the nonzero rows; pivots positive, entries above a pivot reduced
    into [0, pivot).
    """
    M = [list(r) for r in rows]
    if not M:
        return []
    r = 0
    for c in range(len(M[0])):
        piv = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        while _clear_below(M, r, c):
            pass
        if M[r][c] < 0:
            M[r] = [-a for a in M[r]]
        for i in range(r):
            q = M[i][c] // M[r][c]
            if q:
                M[i] = [a - q * b for a, b in zip(M[i], M[r])]
        r += 1
    return M[:r]


def snf_with_transforms(A):
    """Smith normal form with transforms: returns (U, V, D) with U A V = D.

    U, V unimodular; D diagonal with d1 | d2 | ... (nonnegative).  Euclid
    steps (_clear_below) with no size control; only DiscriminantGroup
    calls it.  The row pass runs on (D, U); the column pass is the same
    step on the transposes (D^T, V^T), and V is read back off V^T.
    """
    n = len(A)
    m = len(A[0]) if n else 0
    D = [list(r) for r in A]
    U = identity_matrix(n)
    Vt = identity_matrix(m)
    t = 0
    while t < min(n, m):
        # pivot: the first smallest nonzero |entry| of the remaining block
        piv = min(((abs(D[i][j]), i, j) for i in range(t, n) for j in range(t, m)
                   if D[i][j] != 0), default=None)
        if piv is None:
            break
        _, i, j = piv
        D[t], D[i] = D[i], D[t]
        U[t], U[i] = U[i], U[t]
        for row in D:
            row[t], row[j] = row[j], row[t]
        Vt[t], Vt[j] = Vt[j], Vt[t]
        # rows then columns, until a round of both moves no pivot
        moved = True
        while moved:
            moved = _clear_below(D, t, t, U)
            D = transpose(D)
            moved |= _clear_below(D, t, t, Vt)
            D = transpose(D)
        # divisibility fix-up: d_t must divide every later entry; if one
        # does not, add its row to row t, clear columns then rows, and redo
        # this pivot
        bad = next((i for i in range(t + 1, n) for j in range(t + 1, m)
                    if D[i][j] % D[t][t] != 0), None)
        if bad is not None:
            D[t] = [a + b for a, b in zip(D[t], D[bad])]
            U[t] = [a + b for a, b in zip(U[t], U[bad])]
            moved = True
            while moved:
                D = transpose(D)
                moved = _clear_below(D, t, t, Vt)
                D = transpose(D)
                moved |= _clear_below(D, t, t, U)
            continue
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return U, transpose(Vt), D


class HermiteSolver:
    """Integer solutions of A x = b for one integer matrix A and any number
    of b, from one row HNF of the rows (column j of A, e_j) (Cohen, GTM 138,
    2.4): its rows (0, x) are the HNF of the kernel {x : A x = 0}, saturated
    and canonical, and the others, (A x, x), an echelon basis of the column
    lattice of A with preimages, so a solve reduces (b, 0) against the
    latter (_reduce) and reads -x off what is left."""

    __slots__ = ("_image", "_kernel")

    def __init__(self, A):
        n = len(A)
        H = row_hnf([list(c) + e for c, e in zip(zip(*A), identity_matrix(len(A[0]) if n else 0))])
        self._image = [row for row in H if any(row[:n])]
        self._kernel = [row[n:] for row in H if not any(row[:n])]

    def solve(self, b):
        """One integer solution x of A x = b, or None if none exists."""
        n = len(b)
        w = _reduce(list(b) + [0] * (len(self._image) + len(self._kernel)), self._image)
        return None if w is None or any(w[:n]) else [-u for u in w[n:]]

    def kernel(self):
        """The HNF basis of {x in Z^m : A x = 0}, as a list of vectors."""
        return [list(v) for v in self._kernel]


def solve_integer(A, b):
    """One integer solution x of A x = b, or None if none exists."""
    return HermiteSolver(A).solve(b)


# ---------------------------------------------------------------------------
# Rational lattices (full or partial rank), columns = generators


def _scale_to_int(vectors):
    """(integer vectors, den): the rational vectors (entries int or
    Fraction) times den, the lcm of the denominators of all their entries."""
    den = lcm(*(x.denominator for v in vectors for x in v))
    return [[x.numerator * (den // x.denominator) for x in v] for v in vectors], den


def lattice_hnf(rows, den=1):
    """Canonical form (H, den) of the lattice spanned by the integer rows
    divided by den: H is the row HNF of the rows and den the least
    denominator of H / den (no prime divides both den and every entry of
    H).
    Two lattices are equal exactly when their forms are, because the HNF
    of g M is g times the HNF of M."""
    H = row_hnf(rows)
    g = math.gcd(den, *(x for row in H for x in row))
    if g == 1:
        return H, den
    return [[x // g for x in row] for row in H], den // g


def lattice_basis(generators):
    """Canonical basis (list of column vectors) from rational generators:
    the Fraction view of lattice_hnf."""
    H, den = lattice_hnf(*_scale_to_int(generators))
    return [[Fraction(x, den) for x in row] for row in H]


def hnf_contains(form, v):
    """Whether the rational vector v lies in the lattice of the canonical
    form (H, den): den v must be integral and reduce to 0 against the rows
    of H, one pivot at a time."""
    H, den = form
    w = []
    for x in v:
        q, r = divmod(x.numerator * den, x.denominator)
        if r:
            return False
        w.append(q)
    w = _reduce(w, H)
    return w is not None and not any(w)


def _reduce(w, rows):
    """The integer vector w minus the multiples of the rows of a row
    echelon form that clear it at their pivots, one pivot at a time, or
    None when a pivot does not divide the entry it is to clear."""
    for row in rows:
        c = next(i for i, h in enumerate(row) if h)
        q, r = divmod(w[c], row[c])
        if r:
            return None
        if q:
            w = [a - q * h for a, h in zip(w, row)]
    return w


def hnf_intersection(form1, form2):
    """Canonical form of the intersection of two lattices given by their
    canonical forms.  Over the common denominator, the rows (a, a) for a in
    the first lattice and (b, 0) for b in the second span {(a + b, a)};
    the rows of its HNF whose first half is zero span {(0, a) : a = -b},
    so their second halves are a basis of the intersection."""
    (H1, d1), (H2, d2) = form1, form2
    if not H1 or not H2:
        return [], 1
    den = lcm(d1, d2)
    n = len(H1[0])
    block = ([[x * (den // d1) for x in row] * 2 for row in H1]
             + [[x * (den // d2) for x in row] + [0] * n for row in H2])
    return lattice_hnf([row[n:] for row in row_hnf(block) if not any(row[:n])], den)


def lattice_intersection(basis1, basis2):
    """Basis of the intersection of two rational lattices (column bases)."""
    H, den = hnf_intersection(lattice_hnf(*_scale_to_int(basis1)),
                              lattice_hnf(*_scale_to_int(basis2)))
    return [[Fraction(x, den) for x in row] for row in H]


# ---------------------------------------------------------------------------
# Quadratic form utilities


def symmetric_minors(A):
    """Fraction-free (Bareiss) elimination of a symmetric integer A (Bareiss,
    Math. Comp. 22 (1968); Cohen, GTM 138, 2.2): (rows, delta), rows[k] the
    k-th pivot row as it stood at its step and delta = [1, delta_1, ...,
    delta_n] the leading minors of the congruent matrix with the pivots
    first, 0 past the rank; det A = delta_n, and delta_k delta_{k-1} has
    the sign of the k-th entry of a diagonal form.  The pivot is the first
    remaining nonzero diagonal entry; when there is none, x_i -> x_i + x_j
    makes A_ii = 2 A_ij nonzero first.  The remaining block is delta_k
    times a Schur complement, so every division is exact, and a positive
    definite A is never pivoted."""
    M = [list(row) for row in A]
    rows, delta = [], [1]
    idx = list(range(len(M)))
    while idx:
        d = next((i for i in idx if M[i][i]), None)
        if d is None:
            pair = next(((i, j) for i in idx for j in idx if M[i][j]), None)
            if pair is None:
                break
            d, j = pair
            for row in M:
                row[d] += row[j]
            M[d] = [x + y for x, y in zip(M[d], M[j])]
        Md, p = M[d], M[d][d]
        rows.append(tuple(Md))
        idx.remove(d)
        for i in idx:
            Mi = M[i]
            f = Mi[d]
            for j in idx:
                Mi[j] = (p * Mi[j] - f * Md[j]) // delta[-1]
        delta.append(p)
    return rows, delta + [0] * (len(M) + 1 - len(delta))
