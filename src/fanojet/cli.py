"""Command-line front end: one report per subcommand, printed as JSON or text.

Each `_cmd_*` returns its report and exit code, and imports the modules it
runs, so a subcommand loads only what it needs.  `run` alone prints the report,
as JSON with every integer a decimal string (so exact values survive any JSON
reader) or through its text view.  Exit codes: 0 on success, 1 when a
consistency check or any internal step fails or (from `main`) stdout was
closed by its reader, 2 on input errors (`InputError`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .chern import InputError, sym_top_chern, sym_top_chern_paper
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


def _report(command, inputs, result, citations, notes=(), code=0) -> tuple[dict, int]:
    """One subcommand's report, the dict that is printed as JSON or text, and its exit code."""
    report = {"command": command, "inputs": inputs, "result": result, "citations": citations}
    if notes:
        report["notes"] = list(notes)
    return report, code


def _without_none(fields: dict) -> dict:
    return {key: value for key, value in fields.items() if value is not None}


def _chern_fields(poly) -> dict:
    terms = sorted(poly.terms.items(), reverse=True)
    return {
        "top_chern": str(poly),
        "terms": [{"c1_exp": i, "c2_exp": j, "coeff": c} for (i, j), c in terms],
    }


def _parse_degrees(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InputError("degrees must be comma-separated integers, got %r" % text)
    if any(v < 1 for v in values):
        raise InputError("degrees must be positive integers")
    return values


def _cmd_lines(args) -> tuple[dict, int]:
    degrees = _parse_degrees(args.degrees)
    if not degrees:
        raise InputError("at least one hypersurface degree is required")
    ci = CompleteIntersection(args.ambient, degrees)
    inputs = {"ambient": ci.N, "degrees": ci.degrees}
    result = {
        "expected_family_dim": expected_family_dimension(ci),
        "line_count": _without_none(asdict(count_lines(ci))),
        "family_through_point": line_family_through_point(ci),
    }
    citations = [CITE_LINE_COUNT, CITE_LINE_CRITERION, CITE_THROUGH_POINT]
    return _report("lines", inputs, result, citations, notes=(GENERICITY_NOTE,))


def _cmd_fano_ci(args) -> tuple[dict, int]:
    from .fano import analyze
    ci = CompleteIntersection(args.ambient, _parse_degrees(args.degrees))
    result = asdict(analyze(ci))
    result["line_family"] = _without_none(result["line_family"])
    inputs = {"ambient": ci.N, "degrees": ci.degrees}
    citations = [CITE_JET_ORDER, CITE_NOT_SPANNED, CITE_LINE_CRITERION]
    return _report("fano-ci", inputs, result, citations, notes=(GENERICITY_NOTE,))


def _cmd_bounds(args) -> tuple[dict, int]:
    from . import bounds
    # Without --degree there is nothing to check, and these values stand.
    result = {
        "min_degree": bounds.min_degree(args.dim, args.order),
        "min_sections": bounds.min_sections(args.dim, args.order),
        "degree_ok": None,
        "sections_ok": None,
        "borderline_consistent": True,
        "ok": True,
        "failures": (),
    }
    if args.degree is not None:
        inv = bounds.PolarizedInvariants(args.dim, args.order, args.degree, args.h0)
        verdict = bounds.check(inv)
        result.update(asdict(verdict), ok=verdict.ok)
    elif args.h0 is not None:
        raise InputError("--h0 requires --degree")
    inputs = {"dim": args.dim, "order": args.order, "degree": args.degree, "h0": args.h0}
    citations = [CITE_DEGREE_BOUND, CITE_SECTION_BOUND, CITE_BORDERLINE]
    return _report("bounds", inputs, result, citations)


def _cmd_catalog(args) -> tuple[dict, int]:
    from . import catalog
    if args.action == "verify":
        if args.dim is not None or args.k is not None:
            raise InputError("catalog verify takes no --k or --dim filter")
        outcome = catalog.verify_all()
        result = {"checked": outcome.checked, "ok": outcome.ok, "failures": outcome.failures}
        citations = [CITE_CATALOG, CITE_DEGREE_BOUND, CITE_SECTION_BOUND, CITE_BOX_ORDER]
        return _report("catalog-verify", {}, result, citations, code=0 if outcome.ok else 1)
    rows = catalog.entries(n=args.dim, k=args.k)
    result = {"count": len(rows), "entries": catalog.catalog_as_dicts(rows)}
    return _report("catalog", {"dim": args.dim, "k": args.k}, result, [CITE_CATALOG])


def _cmd_adjunction(args) -> tuple[dict, int]:
    from . import catalog
    cases = [
        {"case_id": c.case_id, "constraints": c.constraints, "description": c.description}
        for c in catalog.adjunction_cases(args.dim, args.order)
    ]
    inputs = {"dim": args.dim, "order": args.order}
    return _report("adjunction", inputs, {"cases": cases}, [CITE_NEFVALUE, CITE_CATALOG])


def _cmd_chern(args) -> tuple[dict, int]:
    result = {"sym": args.sym, **_chern_fields(sym_top_chern(args.sym))}
    if args.paper_formula:
        from fractions import Fraction
        ratio = Fraction((args.sym + 1) ** 2, args.sym ** 2)
        alt = _chern_fields(sym_top_chern_paper(args.sym))
        result["alternative"] = dict(alt, ratio_to_canonical=str(ratio))
    inputs = {"sym": args.sym, "paper_formula": args.paper_formula}
    return _report("chern", inputs, result, [CITE_SPLITTING])


def _lines_text(inputs: dict, result: dict):
    yield "lines on a generic %s" % CompleteIntersection(inputs["ambient"], inputs["degrees"])
    yield "expected family dimension: %(expected_family_dim)d" % result
    yield "result: %s" % LineCount(**result["line_count"])
    if result["family_through_point"] is not None:
        yield "lines through a general point: %(family_through_point)d-dimensional" % result


def _fano_ci_text(inputs: dict, result: dict):
    ci = CompleteIntersection(inputs["ambient"], inputs["degrees"])
    yield "X = %s, dim %d" % (ci, result["dim"])
    if result["is_fano"]:
        yield "Fano: yes (sum of degrees %d <= %d)" % (ci.degree_sum, ci.N)
    else:
        yield "Fano: no (sum of degrees %d > %d)" % (ci.degree_sum, ci.N)
    yield "anticanonical degree (-K)^%(dim)d = %(anticanonical_degree)d" % result
    if result["jet_order"] is not None:
        yield "-K is %(jet_order)d-jet ample, not %(not_spanned_order)d-spanned" % result
        if result["formula_extrapolated"]:
            yield "(dimension 1: order formula-extrapolated, line data n/a)"
    elif result["curve_exception"]:
        yield "jet order: none reported (the plane conic is the excluded case)"
    else:
        yield "jet order: none (-K is not ample)"
    if result["contains_line"] is True:
        yield "contains a line: yes"
    yield "line family: %s" % LineCount(**result["line_family"])
    if result["family_through_point"] is not None:
        yield "lines through a general point: %(family_through_point)d-dimensional" % result


def _bounds_text(inputs: dict, result: dict):
    floors = (inputs["dim"], inputs["order"], result["min_degree"], result["min_sections"])
    yield "n = %d, k = %d: require L^n >= %d and h0(L) >= %d" % floors
    if inputs["degree"] is not None:
        yield "degree %d: %s" % (inputs["degree"], "ok" if result["degree_ok"] else "FAIL")
        if inputs["h0"] is not None:
            yield "h0 %d: %s" % (inputs["h0"], "ok" if result["sections_ok"] else "FAIL")
        if not result["borderline_consistent"]:
            yield "borderline: FAIL (h0 sits at the floor but the degree does not)"
        yield "verdict: %s" % ("pass" if result["ok"] else "fail")
        for failure in result["failures"]:
            yield "  violated: %s" % failure


def _catalog_verify_text(inputs: dict, result: dict):
    verdict = "all consistent" if result["ok"] else "FAILURES"
    yield "verified %d catalog entries: %s" % (result["checked"], verdict)
    for failure in result["failures"]:
        yield "  %s" % failure


def _catalog_text(inputs: dict, result: dict):
    row_text = "%(id)-9s n=%(dim)s k=%(k_very_ample)s deg=%(degree)-3s h0=%(h0)-3s %(description)s"
    yield "%(count)d entries" % result
    for row in result["entries"]:  # from catalog_as_dicts, so its integers are decimal strings
        yield row_text % row + (" [%(flag)s]" % row if row["flag"] else "")


def _adjunction_text(inputs: dict, result: dict):
    yield "possible structures for n = %(dim)d, k = %(order)d:" % inputs
    for case in result["cases"]:
        yield "  case %(case_id)s (%(constraints)s): %(description)s" % case


def _chern_text(inputs: dict, result: dict):
    yield "top Chern class of Sym^%(sym)d F: %(top_chern)s" % result
    if "alternative" in result:
        alt = result["alternative"]
        yield "printed closed-form variant (boundary (d+1)^2): %(top_chern)s" % alt
        yield "variant = %(ratio_to_canonical)s * canonical (exact scalar)" % alt


# One text view per report kind; each reads only the inputs and result of a report.
TEXT_VIEWS = {
    "lines": _lines_text,
    "fano-ci": _fano_ci_text,
    "bounds": _bounds_text,
    "catalog-verify": _catalog_verify_text,
    "catalog": _catalog_text,
    "adjunction": _adjunction_text,
    "chern": _chern_text,
}


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
    p.add_argument("--paper-formula", action="store_true", help="also print the printed "
                   "closed-form variant with boundary coefficient (d+1)^2 and its exact "
                   "ratio to the canonical class")
    p.set_defaults(func=_cmd_chern)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def run(argv=None) -> int:
    """Parse argv, run the subcommand and print its report; return the exit code.

    Python's int-to-str digit limit, a process-wide setting, is lifted while
    `run` works, so exact integers of any size are parsed and printed; the
    caller's limit is restored on return.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        report, code = args.func(args)
        if args.json:
            print(json.dumps(_encode(report), indent=2))
        else:
            text = [*TEXT_VIEWS[report["command"]](report["inputs"], report["result"])]
            text += ["note: %s" % note for note in report.get("notes", ())]
            print("\n".join(text))
    except SystemExit as exc:  # argparse already printed its diagnostic
        return int(exc.code) if exc.code else 0
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (AssertionError, ArithmeticError, ValueError) as exc:
        print("internal check failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return code


def main() -> None:
    """Console entry point: `run`, then exit 1 quietly if the reader closed stdout."""
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; send that flush to devnull, not the closed pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    main()
