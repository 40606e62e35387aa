"""Weil values pinned by their coordinates, independently of storage.

tests/weil_pin.json was recorded before CycNum stored integer coefficients
over one denominator, and holds, on the seven lattices of the weil-modular
benchmark and in both variants, the values of omega(S)^2, of omega(ST)^3
for |D| <= 12 and of omega(w) v for three fixed words w and two rational
vectors v.  A value is written in the power basis of Z[zeta_N] at one
conductor N per lattice (a multiple of every conductor that occurs), the
reduction CycNum.is_zero makes, so two stored forms of one number give the
same coordinates.  A matrix or vector is {"den": d, "entries": ...} with
each entry a list of [basis exponent, numerator over d] pairs, and a
matrix keeps only its nonzero entries, keyed "i,j".
"""

import json
import os
from fractions import Fraction
from math import lcm

import pytest

from speccy import cyclotomic, weil
from speccy.lattice import QuadLattice, discriminant_group
from speccy.weil import S, T, T_INV, VARIANTS, WeilRep

GRAMS = [
    [[-2, -1], [-1, -4]],
    [[2, 0], [0, -4]],
    [[2, 1], [1, 6]],
    [[2, 0], [0, 6]],
    [[4, 1], [1, 4]],
    [[2, 1], [1, 12]],
    [[4, 1], [1, 8]],
]
WORDS = [(S, T, S, T_INV), (T, S, T, S, T), (S, T_INV, S, S)]
ST3_MAX = 12


def vectors(dim):
    return [[Fraction(i % 5 - 2, 1 + i % 3) for i in range(dim)],
            [Fraction((-1) ** i * (i + 1), 2) if i % 4 else Fraction(0) for i in range(dim)]]


def coordinates(x, N):
    """The coordinates of x in the power basis of Z[zeta_N], as a dict
    {exponent: Fraction} of the nonzero ones."""
    acc = [Fraction(0)] * N
    step = N // x.n
    assert step * x.n == N, (x.n, N)
    for k, c in x.terms.items():
        acc[k * step] += Fraction(c, x.den)
    for k, targets in cyclotomic._basis_steps(N):
        c = acc[k]
        if c:
            acc[k] = 0
            for j in targets:
                acc[j] -= c
    return {k: c for k, c in enumerate(acc) if c}


def _scaled(entries):
    """{"den": d, "entries": ...} over the lcm d of the coordinates'
    denominators; entries is a dict or a list of coordinate dicts."""
    values = entries.values() if isinstance(entries, dict) else entries
    den = lcm(*(c.denominator for v in values for c in v.values()))

    def numerators(v):
        return [[k, int(c * den)] for k, c in sorted(v.items())]

    if isinstance(entries, dict):
        return {"den": den, "entries": {key: numerators(v) for key, v in entries.items()}}
    return {"den": den, "entries": [numerators(v) for v in entries]}


def matrix_value(M, N):
    n = M.dim
    flat = weil._fold([x for row in M.entries for x in row], M.disc_order, M.sqrt_power)
    coords = {f"{i},{j}": coordinates(flat[i * n + j], N) for i in range(n) for j in range(n)}
    return _scaled({key: v for key, v in coords.items() if v})


def weil_values(gram):
    w = WeilRep(discriminant_group(QuadLattice(gram)))
    N = lcm(8, 4 * w.dim, 2 * w.disc.exponent)
    out = {"gram": gram, "N": N}
    for variant in VARIANTS:
        G = w.generator_matrix(S, variant)
        values = {"S2": matrix_value(G.matmul(G), N)}
        if w.dim <= ST3_MAX:
            values["ST3"] = matrix_value(w.rep_matrix((S, T) * 3, variant), N)
        values["apply"] = [[_scaled([coordinates(x, N) for x in w.apply(variant, word, vec)])
                            for vec in vectors(w.dim)] for word in WORDS]
        out[variant] = values
    return out


def _pin():
    with open(os.path.join(os.path.dirname(__file__), "weil_pin.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("i", range(len(GRAMS)))
def test_weil_values_pinned(i):
    want = _pin()[i]
    assert want["gram"] == GRAMS[i]
    assert weil_values(GRAMS[i]) == want


def test_pin_records_the_relations():
    # S^2 = Z = (ST)^3 in the recorded values: one nonzero entry per row,
    # and the same matrix for both words
    for rec in _pin():
        dim = len(rec["omega"]["apply"][0][0]["entries"])
        for variant in VARIANTS:
            values = rec[variant]
            rows = sorted(int(key.split(",")[0]) for key in values["S2"]["entries"])
            assert rows == list(range(dim))
            if "ST3" in values:
                assert values["ST3"] == values["S2"]
