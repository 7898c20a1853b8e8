"""Command-line frontend.

Subcommands map 1:1 onto the library layers: field / classnumber / zeta /
cusp / elliptic / classify / table / tree-center.  Handlers return the
library's values as they are; `_dumps` writes them as indented JSON in one
pass, through one hook, `_json_value`, the only code that knows the JSON
form of an exact value (a rational as its [numerator, denominator] pair).
All output is deterministic: JSON is emitted with sorted keys and every
listing canonically ordered, so a rerun with identical inputs is
byte-identical.

Exit codes: 0 success (a table run with logged discrepancies is a success -
those are data), 2 bad input or unsatisfiable request, 3 a broken internal
invariant (certificate or cross-check failure).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape

from . import chern, config, elliptic, forms, trees, zeta
from .field import FieldElement, PrimeIdealData, make_field, prime_of_norm, supported_walk
from .numeric import MAX_PRECISION_BITS, MIN_PRECISION_BITS

# classnumber's limits, each under 1 s and 80 MB cold (Python 3.11, one core):
# h(-N) sieves about sqrt(N/3)/2 integers and h+(D) about sqrt(D)/2; cold,
# classnumber --disc 99999997 takes about 0.12 s.
MAX_DEFINITE_N = 10 ** 10
MAX_NARROW_D = 10 ** 8


def _json_value(x):
    """The hook of `_dumps` (`json`'s `default=`): the JSON form of each
    exact value the library returns.  A rational is its [numerator,
    denominator] pair."""
    if isinstance(x, Fraction):
        return [x.numerator, x.denominator]
    if isinstance(x, FieldElement):
        u, v = x.as_pair()
        return {"u": u, "v": v, "encoding": "(u + v*sqrt(D))/2"}
    if isinstance(x, chern.LinearForm):
        return {"const": x.const, "a2_coeff": x.a2_coeff, "text": str(x)}
    if isinstance(x, elliptic.EllipticCounts):
        return {"entries": x.entries(), "mode": x.mode, "group": x.group_tag,
                "notes": x.notes}
    if isinstance(x, PrimeIdealData):
        return {"p": x.p, "norm": x.q, "splitting": x.splitting,
                "generator": x.generator, "omega_image": x.omega_image}
    raise TypeError(f"no JSON form for {type(x).__name__}")


def _report_json(rep: chern.ChernReport) -> dict:
    if rep.mode == "exact":
        provenance = {
            "c1_sq": "2*n*zeta + c - a3p/3 - a4p - 8*a6p/3",
            "c2": "n*zeta + l + 3*a2/2 + 5*a3p/3 + 8*a3m/3 + 7*a4p/4 "
                  "+ 15*a4m/4 + 11*a6p/6 + 35*a6m/6",
            "chi": "(c1_sq + c2)/12",
            "verdict": "general type iff c1_sq > 0 and chi > 1 for all a2 >= 0",
        }
    else:
        provenance = {
            "c1_sq": "certified floor: volume - cusp term - worst-case "
                     "elliptic penalty",
            "c2": "certified floor: n*D^(3/2)/360",
            "verdict": "general type iff the c2 floor clears 12 and the "
                       "c1_sq floor is positive",
        }
    return {
        "D": rep.D,
        "prime_norm": rep.q,
        "n": rep.n,
        "mode": rep.mode,
        "zeta": rep.zeta,
        "c": rep.c,
        "l": rep.l,
        "counts": rep.counts,
        "c1_sq": rep.c1_sq,
        "c2": rep.c2,
        "chi": rep.chi,
        "verdict": rep.verdict,
        "notes": rep.notes,
        "provenance": provenance,
    }


def _excl_text(exclusions) -> str:
    return ";".join(str(n) for n, _ in sorted(exclusions))


def _rows_csv(rows) -> str:
    # every field is an integer or ;-joined integers, so none needs CSV quoting
    lines = ["D,n_min,exclusions,n_min_alt,exclusions_alt"]
    for row in rows:
        alt = "" if row.n_min_alt is None else row.n_min_alt
        alt_excl = "" if row.exclusions_alt is None else _excl_text(row.exclusions_alt)
        lines.append(f"{row.D},{row.n_min},{_excl_text(row.exclusions)},{alt},{alt_excl}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers: take (args, cfg), return a payload for `_dumps`


def _cmd_field(args, cfg):
    F = make_field(args.disc)
    return {
        "D": F.D,
        "omega": F.omega,
        "eps": F.eps,
        "eps_norm": F.eps.norm(),
        "eps_plus": F.eps_plus,
        "h_plus": 1,  # make_field certifies it
        "provenance": {
            "eps": "continued fraction of omega, convergent closing identity",
            "h_plus": "cycles of reduced indefinite forms",
        },
    }


def _cmd_classnumber(args, cfg):
    N = args.disc
    if N == 0:
        raise config.ConfigError("discriminant must be nonzero")
    if not -MAX_DEFINITE_N <= N <= MAX_NARROW_D:
        raise config.ConfigError(f"classnumber takes -{MAX_DEFINITE_N} <= disc <= "
                                 f"{MAX_NARROW_D}, got {N}")
    if N < 0:
        h = forms.h_definite(-N)
        kind = "definite"
        prov = "exhaustive reduced-form count"
    else:
        h = forms.h_narrow_indefinite(N)
        kind = "narrow_indefinite"
        prov = "cycles of reduced indefinite forms"
    return {"disc": N, "h": h, "kind": kind, "provenance": {"h": prov}}


def _cmd_zeta(args, cfg):
    supported_walk(args.disc)
    return {
        "D": args.disc,
        "zeta": zeta.zeta_minus_one(args.disc),
        "provenance": {
            "zeta": "sigma1 divisor sum over (D - x^2)/4, divided by 60",
            "mode": "exact",
        },
    }


def _cmd_cusp(args, cfg):
    F = make_field(args.disc)
    cc = zeta.cusp_resolution(F)
    return {
        "D": F.D,
        "cycle": list(cc.cycle),
        "m": cc.m,
        "l": cc.l,
        "c": cc.c,
        "provenance": {
            "cycle": "periodic minus continued fraction, canonical rotation",
            "c": "2m - sum(b_k), cross-checked against the divisor-sum form",
            "unit_check": "cycle period reproduces the totally positive "
                          "fundamental unit",
        },
    }


def _cmd_elliptic(args, cfg):
    F = make_field(args.disc)
    mode = args.mode or cfg.mode
    if args.prime_norm is None:
        if mode != "exact":
            raise config.ConfigError(
                "bound mode needs --prime-norm; full-group counts are exact only")
        counts = elliptic.counts_full_group(F)
        return {"D": F.D, "prime": None, "counts": counts}
    P = prime_of_norm(F, args.prime_norm)
    if mode == "exact":
        counts = elliptic.counts_gamma0(F, P)
    else:
        counts = elliptic.bounds_gamma0(F, P)
    payload = {"D": F.D, "prime": P, "counts": counts}
    if args.refine:
        payload["refined"] = elliptic.atkin_lehner_refine(counts, P,
                                                          precision_bits=cfg.precision_bits)
    return payload


def _cmd_classify(args, cfg):
    mode = args.mode or cfg.mode
    report = chern.classify(args.disc, args.prime_norm, mode=mode,
                            zeta_mode=args.zeta_mode,
                            precision_bits=cfg.precision_bits)
    return _report_json(report)


def _cmd_table(args, cfg):
    rows = chern.theorem_table(dmax=args.dmax, strict_n=cfg.strict_n,
                               zeta_mode=args.zeta_mode,
                               precision_bits=cfg.precision_bits)
    diff = chern.table_diff(rows, zeta_mode=args.zeta_mode, precision_bits=cfg.precision_bits)
    csv_text = _rows_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    if args.diff:
        with open(args.diff, "w", encoding="utf-8") as fh:
            fh.write(_dumps(diff))
    return {
        "rows": [r._asdict() for r in rows],
        "diff": diff,
        "csv": csv_text,
    }


def _cmd_tree_center(args, cfg):
    T = trees.load_tree(args.infile)
    S = {s for s in (part.strip() for part in args.set.split(",")) if s}
    center = trees.tree_center(T, S)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(trees.to_dot(T))
    return {
        "kind": center.kind,
        "center": list(center.endpoints()),
        "n_vertices": len(T),
        "set": sorted(S),
        "distances": {s: trees.center_distance(T, center, s) for s in sorted(S)},
    }


HANDLERS = {
    "field": _cmd_field,
    "classnumber": _cmd_classnumber,
    "zeta": _cmd_zeta,
    "cusp": _cmd_cusp,
    "elliptic": _cmd_elliptic,
    "classify": _cmd_classify,
    "table": _cmd_table,
    "tree-center": _cmd_tree_center,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmsurf",
        description="Exact invariants and general-type tests for quotient "
                    "surfaces over real quadratic fields.")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--precision", type=int, default=None,
                        help=f"interval precision in bits (floor {MIN_PRECISION_BITS}, "
                             f"ceiling {MAX_PRECISION_BITS})")
    parser.add_argument("--format", choices=config.FORMATS, default=None,
                        help="output format (default json)")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("field", help="field constants for a discriminant")
    p.add_argument("--disc", type=int, required=True)

    p = sub.add_parser("classnumber", help="class numbers (negative disc: definite, "
                       f"down to -{MAX_DEFINITE_N}; positive: narrow, up to {MAX_NARROW_D})")
    p.add_argument("--disc", type=int, required=True)

    p = sub.add_parser("zeta", help="exact zeta value at -1")
    p.add_argument("--disc", type=int, required=True)

    p = sub.add_parser("cusp", help="cusp resolution cycle and chern term")
    p.add_argument("--disc", type=int, required=True)

    p = sub.add_parser("elliptic", help="elliptic-point counts")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--prime-norm", type=int, default=None)
    p.add_argument("--mode", choices=config.MODES, default=None)
    p.add_argument("--refine", action="store_true",
                   help="also apply the involution refinement")

    p = sub.add_parser("classify", help="Chern numbers and verdict for one surface")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--prime-norm", type=int, required=True)
    p.add_argument("--mode", choices=config.MODES, default=None)
    p.add_argument("--zeta-mode", choices=("exact", "bound"), default=None,
                   help="volume term variant for bound mode")

    p = sub.add_parser("table", help="sweep discriminants, diff against the "
                       "published table")
    p.add_argument("--dmax", type=int, default=853)
    p.add_argument("--strict-n", action="store_true",
                   help="only degrees n with n-1 an achievable prime norm")
    p.add_argument("--zeta-mode", choices=("exact", "bound"), default=None)
    p.add_argument("--out", help="write the computed rows as CSV here")
    p.add_argument("--diff", help="write the discrepancy report as JSON here")

    p = sub.add_parser("tree-center", help="centre of a vertex subset of a tree")
    p.add_argument("--in", dest="infile", required=True,
                   help="edge list file, one 'u v' per line")
    p.add_argument("--set", required=True, help="comma-separated vertex labels")
    p.add_argument("--dot", help="also export the tree as DOT")

    return parser


def _dumps(payload) -> str:
    """The bytes of `json.dumps(payload, sort_keys=True, indent=2,
    default=_json_value)` plus a newline, in one pass.  With `indent`, `json`
    runs its pure-Python encoder; this writer appends to one list and joins
    once, strings go through `json`'s own C escaper, and a list of plain ints
    is one `join`.  It takes only what handlers return: dicts with str keys
    (any other key raises TypeError), lists, tuples, str, int, bool, None and
    the `_json_value` types."""
    out = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(x, nl, out) -> None:
    """Append x's JSON to out; nl is the newline and indent of x's line."""
    if isinstance(x, str):
        out.append(_escape(x))
    elif x is None or x is True or x is False:
        out.append("null" if x is None else "true" if x else "false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, (list, tuple)):
        inner = nl + "  "
        if all(type(v) is int for v in x):  # [] too
            ints = ("," + inner).join(map(int.__repr__, x))
            out.append(f"[{inner}{ints}{nl}]" if x else "[]")
            return
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _write(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(x):
            out.append(f"{sep}{_escape(k)}: ")  # TypeError unless k is a str
            _write(x[k], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        _write(_json_value(x), nl, out)


def _emit(payload, cfg, stream) -> None:
    if cfg.output == "csv":
        text = payload.get("csv") if isinstance(payload, dict) else None
        if text is None:
            raise config.ConfigError("csv output is only available for 'table'")
        stream.write(text)
        return
    if cfg.output == "pretty":
        stream.write(_pretty(json.loads(_dumps(payload))))  # what the JSON holds
        return
    stream.write(_dumps(payload))


def _pretty(payload, indent=0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        out = []
        for key in sorted(payload):
            val = payload[key]
            if isinstance(val, (dict, list)) and val:
                out.append(f"{pad}{key}:")
                out.append(_pretty(val, indent + 1))
            else:
                out.append(f"{pad}{key}: {_pretty_scalar(val)}")
        return "\n".join(out) + ("\n" if indent == 0 else "")
    if isinstance(payload, list):
        return "\n".join(f"{pad}- {_pretty_scalar(v)}" if not isinstance(v, (dict, list))
                         else f"{pad}-\n" + _pretty(v, indent + 1)
                         for v in payload)
    return pad + _pretty_scalar(payload)


def _pretty_scalar(v) -> str:
    if isinstance(v, (dict, list)):
        return json.dumps(v, sort_keys=True)
    return json.dumps(v)


def _build_config(args) -> config.RunConfig:
    """The config file's settings, each flag given overriding its own."""
    cfg = config.load_config(args.config)
    return config.RunConfig(
        mode=cfg.mode,
        strict_n=cfg.strict_n or getattr(args, "strict_n", False),
        precision_bits=cfg.precision_bits if args.precision is None else args.precision,
        output=cfg.output if args.format is None else args.format)


PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed the message
        return 0 if not exc.code else 2
    # eps at D = 10^9 + 9 has ~30,000 digits: lift Python's int-to-str digit
    # limit once the arguments and the config file are parsed, until return.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        cfg = _build_config(args)
        if digits:
            sys.set_int_max_str_digits(0)
        payload = HANDLERS[args.cmd](args, cfg)
        _emit(payload, cfg, sys.stdout)
    except (ValueError, OSError) as exc:
        sys.stderr.write(_dumps({"error": {"type": type(exc).__name__,
                                           "message": str(exc)}}))
        return 2
    except RuntimeError as exc:
        sys.stderr.write(_dumps({"error": {"type": type(exc).__name__,
                                           "message": str(exc)}}))
        return 3
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)
    return 0


if __name__ == "__main__":
    sys.exit(main())
