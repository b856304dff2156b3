"""Command-line front end: human-readable or JSON reports for every module.

All integers in JSON payloads are serialized as decimal strings so that
arbitrary-precision values survive any JSON reader.  Exit codes: 0 on
success, 1 when a consistency check fails (`catalog verify`, or an internal
cross-check such as closed form against oracle), 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction

from . import bounds as bounds_mod
from . import catalog as catalog_mod
from .chern import sym_top_chern, sym_top_chern_paper
from .fano import analyze
from .lines import (
    CompleteIntersection,
    LineCount,
    count_lines,
    expected_family_dimension,
    line_family_through_point,
)

GENERICITY_NOTE = (
    "line counts are intersection-theoretic and count a generic member with "
    "multiplicity; special members may behave differently"
)

CITE_LINE_COUNT = "line locus class: product of top Chern classes of Sym^d F on G(2, N+1)"
CITE_LINE_CRITERION = "line existence criterion: sum(d_i) <= 2N - 2 - r"
CITE_THROUGH_POINT = "lines through a general point: N - sum(d_i) - 1"
CITE_JET_ORDER = "jet order of -K on a Fano complete intersection: k = N + 1 - sum(d_i)"
CITE_NOT_SPANNED = "a line with -K.line = k obstructs (k+1)-spannedness"
CITE_DEGREE_BOUND = "k-very ample degree bound: L^n >= 2^n + k - 2"
CITE_SECTION_BOUND = "k-very ample section bound: h0(L) >= 2n + k - 1"
CITE_BORDERLINE = "h0(L) = 2n + k - 1 forces L^n = 2^n + k - 2"
CITE_BOX_ORDER = "box product order: min(k1, k2)"
CITE_NEFVALUE = "nefvalue bound: tau <= (n + 1)/k"
CITE_CATALOG = "classification of pairs with k-very ample polarization, k >= 2"
CITE_SPLITTING = "splitting principle: Sym^d of roots {x, y} has roots t*x + (d-t)*y"


def _encode(value):
    """JSON form of a report value: every int except a bool becomes a decimal string."""
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return value


def _emit(args, command: str, inputs: dict, result: dict, citations: list[str],
          text: list[str], notes: tuple[str, ...] = ()) -> None:
    """Print one report: the JSON envelope under --json, else the text lines and notes."""
    if args.json:
        report = {"command": command, "inputs": inputs, "result": result, "citations": citations}
        if notes:
            report["notes"] = list(notes)
        print(json.dumps(_encode(report), indent=2))
    else:
        for line in text + ["note: %s" % note for note in notes]:
            print(line)


def _line_count_payload(lc: LineCount) -> dict:
    return {key: value for key, value in asdict(lc).items() if value is not None}


def _chern_terms(poly) -> list[dict]:
    return [
        {"c1_exp": i, "c2_exp": j, "coeff": poly.terms[(i, j)]}
        for (i, j) in sorted(poly.terms, key=lambda key: (-key[0], -key[1]))
    ]


def _parse_degrees(text: str | None) -> tuple[int, ...]:
    if text is None or text.strip() == "":
        return ()
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError("degrees must be comma-separated integers, got %r" % text)
    if any(v < 1 for v in values):
        raise ValueError("degrees must be positive integers")
    return values


def _cmd_lines(args) -> int:
    degrees = _parse_degrees(args.degrees)
    if not degrees:
        raise ValueError("at least one hypersurface degree is required")
    ci = CompleteIntersection(args.ambient, degrees)
    count = count_lines(ci)
    through = line_family_through_point(ci)
    delta = expected_family_dimension(ci)
    text = [
        "lines on a generic %s" % ci,
        "expected family dimension: %d" % delta,
        "result: %s" % count,
    ]
    if through is not None:
        text.append("lines through a general point: %d-dimensional" % through)
    inputs = {"ambient": ci.N, "degrees": ci.degrees}
    result = {
        "expected_family_dim": delta,
        "line_count": _line_count_payload(count),
        "family_through_point": through,
    }
    citations = [CITE_LINE_COUNT, CITE_LINE_CRITERION, CITE_THROUGH_POINT]
    _emit(args, "lines", inputs, result, citations, text, notes=(GENERICITY_NOTE,))
    return 0


def _cmd_fano_ci(args) -> int:
    ci = CompleteIntersection(args.ambient, _parse_degrees(args.degrees))
    rep = analyze(ci)
    text = ["X = %s, dim %d" % (ci, rep.dim)]
    if rep.is_fano:
        text.append("Fano: yes (sum of degrees %d <= %d)" % (ci.degree_sum, ci.N))
    else:
        text.append("Fano: no (sum of degrees %d > %d)" % (ci.degree_sum, ci.N))
    text.append("anticanonical degree (-K)^%d = %d" % (rep.dim, rep.anticanonical_degree))
    if rep.jet_order is not None:
        text.append(
            "-K is %d-jet ample, not %d-spanned"
            % (rep.jet_order, rep.not_spanned_order)
        )
        if rep.formula_extrapolated:
            text.append("(dimension 1: order formula-extrapolated, line data n/a)")
    elif rep.curve_exception:
        text.append("jet order: none reported (the plane conic is the excluded case)")
    else:
        text.append("jet order: none (-K is not ample)")
    if rep.contains_line is True:
        text.append("contains a line: yes")
    text.append("line family: %s" % rep.line_family)
    if rep.family_through_point is not None:
        text.append("lines through a general point: %d-dimensional" % rep.family_through_point)
    inputs = {"ambient": ci.N, "degrees": ci.degrees}
    result = asdict(rep)
    result["line_family"] = _line_count_payload(rep.line_family)
    citations = [CITE_JET_ORDER, CITE_NOT_SPANNED, CITE_LINE_CRITERION]
    _emit(args, "fano-ci", inputs, result, citations, text, notes=(GENERICITY_NOTE,))
    return 0


def _cmd_bounds(args) -> int:
    deg_floor = bounds_mod.min_degree(args.dim, args.order)
    sec_floor = bounds_mod.min_sections(args.dim, args.order)
    if args.degree is None and args.h0 is not None:
        raise ValueError("--h0 requires --degree")
    text = [
        "n = %d, k = %d: require L^n >= %d and h0(L) >= %d"
        % (args.dim, args.order, deg_floor, sec_floor)
    ]
    # Without --degree there is nothing to check, and these values stand.
    result = {
        "min_degree": deg_floor,
        "min_sections": sec_floor,
        "degree_ok": None,
        "sections_ok": None,
        "borderline_consistent": True,
        "ok": True,
        "failures": (),
    }
    if args.degree is not None:
        inv = bounds_mod.PolarizedInvariants(args.dim, args.order, args.degree, args.h0)
        verdict = bounds_mod.check(inv)
        result.update(asdict(verdict), ok=verdict.ok)
        text.append("degree %d: %s" % (args.degree, "ok" if verdict.degree_ok else "FAIL"))
        if args.h0 is not None:
            text.append("h0 %d: %s" % (args.h0, "ok" if verdict.sections_ok else "FAIL"))
        if not verdict.borderline_consistent:
            text.append("borderline: FAIL (h0 sits at the floor but the degree does not)")
        text.append("verdict: %s" % ("pass" if verdict.ok else "fail"))
        for failure in verdict.failures:
            text.append("  violated: %s" % failure)
    inputs = {"dim": args.dim, "order": args.order, "degree": args.degree, "h0": args.h0}
    citations = [CITE_DEGREE_BOUND, CITE_SECTION_BOUND, CITE_BORDERLINE]
    _emit(args, "bounds", inputs, result, citations, text)
    return 0


def _cmd_catalog(args) -> int:
    if args.action == "verify":
        outcome = catalog_mod.verify_all()
        text = ["verified %d catalog entries: %s" % (outcome.checked, "all consistent" if outcome.ok else "FAILURES")]
        for failure in outcome.failures:
            text.append("  %s" % failure)
        result = {"checked": outcome.checked, "ok": outcome.ok, "failures": outcome.failures}
        citations = [CITE_CATALOG, CITE_DEGREE_BOUND, CITE_SECTION_BOUND, CITE_BOX_ORDER]
        _emit(args, "catalog-verify", {}, result, citations, text)
        return 0 if outcome.ok else 1
    rows = catalog_mod.entries(n=args.dim, k=args.k)
    text = ["%d entries" % len(rows)]
    for e in rows:
        line = "%-9s n=%d k=%d deg=%-3d h0=%-3d %s" % (
            e.id,
            e.n,
            e.k_very_ample,
            e.degree,
            e.h0,
            e.description,
        )
        if e.flag:
            line += " [%s]" % e.flag
        text.append(line)
    result = {"count": len(rows), "entries": catalog_mod.catalog_as_dicts(rows)}
    _emit(args, "catalog", {"dim": args.dim, "k": args.k}, result, [CITE_CATALOG], text)
    return 0


def _cmd_adjunction(args) -> int:
    cases = catalog_mod.adjunction_cases(args.dim, args.order)
    text = ["possible structures for n = %d, k = %d:" % (args.dim, args.order)]
    for c in cases:
        text.append("  case %s (%s): %s" % (c.case_id, c.constraints, c.description))
    result = {
        "cases": [
            {"case_id": c.case_id, "constraints": c.constraints, "description": c.description}
            for c in cases
        ]
    }
    inputs = {"dim": args.dim, "order": args.order}
    _emit(args, "adjunction", inputs, result, [CITE_NEFVALUE, CITE_CATALOG], text)
    return 0


def _cmd_chern(args) -> int:
    poly = sym_top_chern(args.sym)
    result: dict = {"sym": args.sym, "top_chern": str(poly), "terms": _chern_terms(poly)}
    text = ["top Chern class of Sym^%d F: %s" % (args.sym, poly)]
    if args.paper_formula:
        alt = sym_top_chern_paper(args.sym)
        ratio = Fraction((args.sym + 1) ** 2, args.sym ** 2)
        result["alternative"] = {
            "top_chern": str(alt),
            "terms": _chern_terms(alt),
            "ratio_to_canonical": str(ratio),
        }
        text.append("printed closed-form variant (boundary (d+1)^2): %s" % alt)
        text.append("variant = %s * canonical (exact scalar)" % ratio)
    inputs = {"sym": args.sym, "paper_formula": args.paper_formula}
    _emit(args, "chern", inputs, result, [CITE_SPLITTING], text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanojet",
        description="Exact line counts, anticanonical jet orders, numeric "
        "bounds, and the verified classification catalog.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("lines", help="count lines on a generic complete intersection")
    p.add_argument("--ambient", type=int, required=True, metavar="N")
    p.add_argument("--degrees", required=True, metavar="d1,d2,...")
    p.set_defaults(func=_cmd_lines)

    p = sub.add_parser("fano-ci", help="embedding order of -K on a complete intersection")
    p.add_argument("--ambient", type=int, required=True, metavar="N")
    p.add_argument("--degrees", default="", metavar="d1,d2,...")
    p.set_defaults(func=_cmd_fano_ci)

    p = sub.add_parser("bounds", help="degree/section floors for a k-very ample bundle")
    p.add_argument("--dim", type=int, required=True, metavar="n")
    p.add_argument("--order", type=int, required=True, metavar="k")
    p.add_argument("--degree", type=int, default=None, metavar="D")
    p.add_argument("--h0", type=int, default=None, metavar="H")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("catalog", help="list or verify the classification catalog")
    p.add_argument("action", nargs="?", choices=["list", "verify"], default="list")
    p.add_argument("--k", type=int, default=None, help="filter on k_very_ample")
    p.add_argument("--dim", type=int, default=None, help="filter on dimension")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("adjunction", help="adjunction outcomes admitting (n, k)")
    p.add_argument("--dim", type=int, required=True, metavar="n")
    p.add_argument("--order", type=int, required=True, metavar="k")
    p.set_defaults(func=_cmd_adjunction)

    p = sub.add_parser("chern", help="top Chern class of Sym^d of the rank-2 bundle")
    p.add_argument("--sym", type=int, required=True, metavar="d")
    p.add_argument(
        "--paper-formula",
        action="store_true",
        help="also print the printed closed-form variant with boundary "
        "coefficient (d+1)^2 and its exact ratio to the canonical class",
    )
    p.set_defaults(func=_cmd_chern)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def run(argv=None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its diagnostic
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (AssertionError, ArithmeticError) as exc:
        print("internal check failed: %s" % exc, file=sys.stderr)
        return 1


def main() -> None:
    if hasattr(sys, "set_int_max_str_digits"):  # print exact integers of any size
        sys.set_int_max_str_digits(0)
    raise SystemExit(run())


if __name__ == "__main__":
    main()
