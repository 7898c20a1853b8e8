#!/usr/bin/env python3
"""Show every term behind one row of the classification table.

For a discriminant (and optionally one degree n), print the c2 threshold
check and the certified c1^2 lower bound split into volume, cusp and penalty
terms, under both volume-term variants, for each inertia case that applies.
This is the drill-down used to understand any diff against the published
table: the verdict is a sum of four numbers, so show the four numbers.
"""

import argparse
import sys
from fractions import Fraction

from hmsurf.chern import (ChernError, _inert_cases, c1sq_terms, c2_lower_check, classify,
                          modes_at, theorem_table)
from hmsurf.elliptic import EllipticError
from hmsurf.field import FieldError
from hmsurf.reference_data import published_row


def show(x: Fraction) -> str:
    # certified endpoints are exact rationals, but 40-digit numerators help
    # nobody at a glance; fall back to the float with a pointer to the API
    if len(str(x)) <= 40:
        return f"{x} ({float(x):+.4f})"
    return f"{float(x):+.6f} (exact value via c1sq_terms)"


def audit_degree(D: int, n: int, p_case: str) -> None:
    c_mode, zeta_mode = modes_at(D)
    print(f"  n={n} [{p_case}, {c_mode}]  c2 floor check: "
          f"{'pass' if c2_lower_check(D, n) else 'FAIL'}")
    for zmode in ("exact", "bound") if zeta_mode == "exact" else ("bound",):
        t = c1sq_terms(D, n, p_case, zeta_mode=zmode)
        sign = "pass" if t["lower_bound"] > 0 else "FAIL"
        print(f"    zeta={zmode:<5}  volume >= {show(t['volume_lb'])}")
        print(f"               cusp   >= {show(t['c_term_lb'])}")
        print(f"               penalty <= {show(t['penalty_ub'])}")
        print(f"               c1^2   >= {show(t['lower_bound'])}  [{sign}]")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--disc", type=int, required=True)
    ap.add_argument("--n", type=int, default=None,
                    help="audit a single degree instead of the row's landmarks")
    args = ap.parse_args(argv)
    D = args.disc
    try:
        (row,) = theorem_table([D])  # refuses a D no surface here has
        if args.n is not None:
            classify(D, args.n - 1, mode="bound")  # refuses a degree no surface has
    except (FieldError, EllipticError, ChernError) as exc:
        print(exc, file=sys.stderr)
        return 2

    print(f"D={D}: computed n_min={row.n_min}, "
          f"exclusions={list(row.exclusions)}")
    if row.n_min_alt is not None:
        print(f"       floor-zeta variant: n_min={row.n_min_alt}, "
              f"exclusions={list(row.exclusions_alt)}")
    pub = published_row(D)
    if pub is None:
        print("       not in the published table")
    else:
        print(f"       published: n_min={pub[0]}, exclusions={sorted(pub[1])}")

    if args.n is not None:
        degrees = [args.n]
    else:
        degrees = sorted({3, row.n_min - 1, row.n_min} - {2})
    for n in degrees:
        audit_degree(D, n, "generic")
    for q, p_case in _inert_cases(D).items():
        audit_degree(D, q + 1, p_case)
    return 0


if __name__ == "__main__":
    sys.exit(main())
