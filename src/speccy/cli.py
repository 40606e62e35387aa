"""Batch command line interface.

Subcommands: disc, theta, eisenstein, degrees, chowla, verify.  Exit code
0 on success, 1 on input or precondition errors, 2 when `verify` finds an
identity mismatch, 3 when an internal invariant fails (a bug, reported
also under python -O).  Output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .cm import degree_bruteforce, degree_formula
from .eisenstein import EisensteinPackage, eisenstein_qexp
from .imq import ImQField, L_derivative_data, functional_equation_defects
from .lattice import InvariantError, discriminant_group
from .pullback import EmbeddingContext, verify_ledger
from .qseries import theta_series
from .serialize import (
    frac_str,
    load_json,
    load_lattice,
    load_sublattice_basis,
    loglinear_json,
    parse_coset_key,
    parse_frac,
    parse_principal_part,
    qexp_json,
)


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 1 with one line naming the flag
    (a missing subcommand is `command`), not argparse's exit 2, which means
    an identity mismatch here."""

    def error(self, message):
        message = message.removeprefix("argument ")
        missing = message.removeprefix("the following arguments are required: ")
        raise InputError(message if missing == message else f"{missing}: required, not given")


# Most working digits the CLI serves: chowla at d = -23 took 9 s at 200 and
# did not finish d = -7 within 120 s at 1,000 (2-core x86, Python 3.11.7).
MAX_PRECISION = 200


def _precision(flag):
    """The working digits: the --precision text flag, else SPECCY_PRECISION,
    else 30; anything but an integer from 1 to MAX_PRECISION is an InputError
    naming its source.  Past 30 digits, a digit string is judged by length."""
    source, text = (("--precision", flag) if flag is not None else
                    ("SPECCY_PRECISION", os.environ.get("SPECCY_PRECISION", "30")))
    digits = text.strip().removeprefix("+").lstrip("0")
    if digits.isdecimal() and len(digits) > 30:
        raise InputError(f"{source}: a {len(digits)}-digit value is over the bound "
                         f"of {MAX_PRECISION}")
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        shown = repr(text) if len(text) <= 30 else f"a {len(text)}-character value"
        raise InputError(f"{source}: {shown} is not an integer of at least 1")
    if value > MAX_PRECISION:
        raise InputError(f"{source}: {value} digits is over the bound of {MAX_PRECISION}")
    return value


def _emit(args, payload, csv_rows=None, csv_header=None):
    if args.format == "json":
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(csv_header)
        for row in csv_rows:
            writer.writerow(row)
        sys.stdout.write(out.getvalue())


def _flagged(flag, fn, *args, **flags):
    """fn(*args), with a refusal raised as an InputError naming the flag it
    blames: flags[exc.arg] for an InputRefusal whose arg ("lattice",
    "bound", ...) is listed, else flag, for any ValueError.  An unreadable
    file is a ValueError naming the file, so its line names both."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise InputError(f"{flags.get(getattr(exc, 'arg', None), flag)}: {exc}") from None


def cmd_disc(args):
    lat = _flagged("--lattice", load_lattice, args.lattice)
    group = _flagged("--lattice", discriminant_group, lat)
    payload = {
        "lattice": args.lattice,
        "rank": lat.rank,
        "det": lat.det,
        "signature": list(lat.signature),
        "level": lat.level(),
        "elementary_divisors": list(group.elementary_divisors),
        "cosets": [
            {"index": i, "coords": list(c.coords),
             "q": frac_str(group.q_map(c)), "order": c.order()}
            for i, c in enumerate(_flagged("--lattice", group.elements))
        ],
    }
    rows = [[c["index"], ",".join(map(str, c["coords"])), c["q"], c["order"]]
            for c in payload["cosets"]]
    _emit(args, payload, rows, ["index", "coords", "q", "order"])
    return 0


def cmd_theta(args):
    lat = _flagged("--lattice", load_lattice, args.lattice)
    cutoff = parse_frac(args.cutoff, "--cutoff")
    th = _flagged("--lattice", theta_series, lat, cutoff, bound="--cutoff")
    qexp = _flagged("--lattice", qexp_json, th)
    payload = {"lattice": args.lattice, "theta": qexp}
    rows = [[c["exponent"], *c["vector"]] for c in qexp["coefficients"]]
    header = ["exponent"] + [",".join(map(str, c)) or "0" for c in qexp["coset_order"]]
    _emit(args, payload, rows, header)
    return 0


def cmd_eisenstein(args):
    lat = _flagged("--lattice", load_lattice, args.lattice)
    pkg = _flagged("--lattice", EisensteinPackage.from_lattice, lat)
    table = _flagged("--cutoff", eisenstein_qexp, pkg, parse_frac(args.cutoff, "--cutoff"))
    K = pkg.K
    dps = args.precision
    entries = [{"exponent": frac_str(m), "coset": list(table.group.coset_by_index(i).coords),
                "value": loglinear_json(val, K, dps)}
               for (m, i), val in sorted(table.entries.items())]
    payload = {"lattice": args.lattice, "field": {"d": K.d, "h": K.h, "w": K.w},
               "cutoff": frac_str(table.cutoff), "coefficients": entries}
    rows = [[e["exponent"], ",".join(map(str, e["coset"])),
             json.dumps(e["value"]["logs"]), e["value"]["value"]] for e in entries]
    _emit(args, payload, rows, ["exponent", "coset", "logs", "value"])
    return 0


def cmd_degrees(args):
    lat = _flagged("--lattice", load_lattice, args.lattice)
    pkg = _flagged("--lattice", EisensteinPackage.from_lattice, lat)
    m = parse_frac(args.m, "--m")
    mu = _flagged("--mu", pkg.disc0.coset_by_index, args.mu)
    res = _flagged("--m", degree_formula, pkg, m, mu)
    K = pkg.K
    dps = args.precision
    payload = {
        "lattice": args.lattice,
        "m": frac_str(m),
        "mu": list(mu.coords),
        "formula": {
            "prime": res.prime,
            "weighted_count": frac_str(res.weighted_count),
            "degree": loglinear_json(res.degree, K, dps),
        },
    }
    rows_entry = [payload["m"], args.mu, payload["formula"]["weighted_count"],
                  json.dumps(payload["formula"]["degree"]["logs"])]
    header = ["m", "mu", "weighted_count", "degree_logs"]
    if args.oracle:
        oracle = _flagged("--m", degree_bruteforce, pkg, m, mu, lattice="--lattice")
        payload["oracle"] = {
            "weighted_count": frac_str(oracle.weighted_count),
            "degree": loglinear_json(oracle.degree, K, dps),
            "agrees": (oracle.degree - res.degree).is_zero(),
        }
        rows_entry.append(json.dumps(payload["oracle"]["degree"]["logs"]))
        header.append("oracle_degree_logs")
    _emit(args, payload, [rows_entry], header)
    return 0


def cmd_chowla(args):
    if args.lattice is not None:
        lat = _flagged("--lattice", load_lattice, args.lattice)
        K = _flagged("--lattice", EisensteinPackage.from_lattice, lat).K
    else:
        K = _flagged("--disc", ImQField.from_discriminant, args.disc)
    dps = args.precision
    data = L_derivative_data(K, dps=dps)
    payload = {
        "field": {"d": K.d, "h": K.h, "w": K.w},
        "L_at_0": frac_str(data["L_at_0"]),
        "L_at_0_equals_2h_over_w": data["L_at_0"] == Fraction(2 * K.h, K.w),
        "Lprime_at_0": str(data["Lprime_at_0"]),
        "Lprime_over_L": str(data["Lprime_over_L"]),
        "functional_equation_defect": [
            str(x) for x in functional_equation_defects(K, (0.25, 0.7, 1.3), dps=dps)
        ],
    }
    rows = [[K.d, K.h, K.w, payload["L_at_0"], payload["Lprime_over_L"]]]
    _emit(args, payload, rows, ["d", "h", "w", "L_at_0", "Lprime_over_L"])
    return 0


def cmd_verify(args):
    lat = _flagged("--lattice", load_lattice, args.lattice)
    sub = _flagged("--sub", load_sublattice_basis, args.sub)
    group = _flagged("--lattice", discriminant_group, lat)
    pp_blob = _flagged("--pp", load_json, args.pp[1:]) if args.pp.startswith("@") else args.pp
    pp = _flagged("--pp", parse_principal_part, pp_blob, group)
    max_m = max(pp.support_exponents() or [Fraction(1)])
    fault = (_flagged("--fault-inject", parse_coset_key, args.fault_inject)
             if args.fault_inject else None)
    # the table cutoff max_m comes from --pp, so a "bound" refusal blames it
    ctx = _flagged("--lattice", EmbeddingContext.build, lat, sub, max_m,
                   sub_basis="--sub", bound="--pp")
    report = _flagged("--lattice", verify_ledger, ctx, pp, fault,
                      bound="--pp", fault_negate="--fault-inject")
    payload = report.to_json()
    payload["field"] = {"d": ctx.pkg.K.d, "h": ctx.pkg.K.h, "w": ctx.pkg.K.w}
    rows = [[r["identity"], "|".join(r["key"]), r["match"]] for r in payload["rows"]]
    _emit(args, payload, rows, ["identity", "key", "match"])
    return 0 if report.all_match else 2


def build_parser():
    parser = _Parser(
        prog="speccy",
        description="Exact verification of CM special-divisor degree identities",
        epilog="exit codes: 0 success, 1 input error, 2 identity mismatch (verify), "
               "3 internal invariant failed")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--precision", default=None,
                        help=f"working decimal digits, 1 to {MAX_PRECISION} "
                             "(default: SPECCY_PRECISION or 30)")
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"),
                        default=argparse.SUPPRESS)
    common.add_argument("--precision", default=argparse.SUPPRESS)
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=lambda **kw: _Parser(
                                     parents=[common], **kw))

    p = subs.add_parser("disc", help="discriminant group report")
    p.add_argument("--lattice", required=True)
    p.set_defaults(func=cmd_disc)

    p = subs.add_parser("theta", help="representation number table")
    p.add_argument("--lattice", required=True)
    p.add_argument("--cutoff", default="10")
    p.set_defaults(func=cmd_theta)

    p = subs.add_parser("eisenstein", help="a+ coefficient table")
    p.add_argument("--lattice", required=True)
    p.add_argument("--cutoff", default="2")
    p.set_defaults(func=cmd_eisenstein)

    p = subs.add_parser("degrees", help="CM divisor degree (formula and oracle)")
    p.add_argument("--lattice", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--mu", type=int, default=0)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_degrees)

    p = subs.add_parser("chowla", help="L-value and derivative report")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--lattice")
    source.add_argument("--disc", type=int)
    p.set_defaults(func=cmd_chowla)

    p = subs.add_parser("verify", help="finite-part identity ledger")
    p.add_argument("--lattice", required=True)
    p.add_argument("--sub", required=True)
    p.add_argument("--pp", required=True,
                   help='principal part as {"m,cosetindex": coeff}, "@file" to load')
    p.add_argument("--fault-inject", default=None,
                   help="negate one a+ coefficient: 'm,cosetindex'")
    p.set_defaults(func=cmd_verify)
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.precision = _precision(args.precision)
        return args.func(args)
    except (InputError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
