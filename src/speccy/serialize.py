"""JSON (de)serialization shared by the command line interface.

Lattice files:      {"gram": [[int]], "name": "..."}
Sublattice files:   {"basis": [[int]]}  (columns in ambient coordinates)
Rationals are "num/den" strings; LogLinear values render both symbolically
and numerically at the requested precision.  Coset selectors are indices
into the documented coset order (zero coset first, then lexicographic on
the elementary-divisor coordinates), and principal parts are keyed by
(m, coset index) as parsed, the key of every coefficient table.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .imq import LogLinear
from .lattice import QuadLattice


def frac_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def parse_frac(s, field=None) -> Fraction:
    """A rational from "num/den" (or an int); with a field name, a bad
    value raises a ValueError that names the field."""
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError):
        if field is None:
            raise
        raise ValueError(f"{field}: {s!r} is not a rational number") from None


def load_json(path):
    """The JSON value in path; a file that cannot be read or is not JSON is
    a ValueError naming it."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None


def _load_matrix(path, key):
    """The matrix under key of the JSON object in path, a list of equally
    long rows; the object's other keys are ignored."""
    blob = load_json(path)
    if not isinstance(blob, dict) or key not in blob:
        raise ValueError(f"{path}: missing '{key}'")
    rows = blob[key]
    if (not isinstance(rows, list) or not all(isinstance(r, list) for r in rows)
            or len({len(r) for r in rows}) > 1):
        raise ValueError(f"{path}: '{key}' must be a list of equally long rows")
    return rows


def load_lattice(path) -> QuadLattice:
    return QuadLattice(_load_matrix(path, "gram"))


def load_sublattice_basis(path):
    return _load_matrix(path, "basis")


def loglinear_json(value: LogLinear, field, dps=30):
    blob = value.to_json()
    blob["value"] = float(value.evaluate(field, dps=dps))
    return blob


def qexp_json(form):
    """Schema for a vector-valued q-expansion: exponents as "num/den",
    coefficient vectors in the group's coset order."""
    group = form.group
    return {
        "weight": frac_str(form.weight),
        "variant": form.variant,
        "elementary_divisors": list(group.elementary_divisors),
        "coset_order": [list(c.coords) for c in group.elements()],
        "cutoff": frac_str(form.cutoff),
        "coefficients": [
            {"exponent": frac_str(m), "vector": [str(v) for v in vec]}
            for m, vec in form.rows()
        ],
    }


def parse_coset_key(key):
    """Split an "m,cosetindex" selector into (Fraction m, int index)."""
    parts = key.split(",")
    if len(parts) != 2:
        raise ValueError(f'key {key!r}: expected "m,cosetindex"')
    m = parse_frac(parts[0], f"key {key!r}: exponent")
    try:
        index = int(parts[1])
    except ValueError:
        raise ValueError(f"key {key!r}: coset index {parts[1]!r} is not an integer") from None
    return m, index


def parse_principal_part(text, group):
    """Parse {"m,cosetindex": coeff} into a PrincipalPart, whose constructor
    checks exponents, support and symmetry; "const" keys the constant
    coefficient c+(0,0).  Errors name the bad field."""
    from .qseries import PrincipalPart

    blob = json.loads(text) if isinstance(text, str) else text
    if not isinstance(blob, dict):
        raise ValueError('expected a JSON object {"m,cosetindex": coeff}, '
                         f"got {type(blob).__name__}")
    entries = {}
    constant = Fraction(0)
    for key, coeff in blob.items():
        value = parse_frac(coeff, f"coefficient of {key!r}")
        if key == "const":
            constant = value
            continue
        m, index = parse_coset_key(key)
        if not 0 <= index < group.order:
            raise ValueError(f"key {key!r}: coset index out of range, the group "
                             f"has {group.order} cosets")
        entries[m, index] = entries.get((m, index), Fraction(0)) + value
    return PrincipalPart(group, entries, constant=constant)
