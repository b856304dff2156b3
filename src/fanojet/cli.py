"""Command-line front end: one report per subcommand, printed as JSON or text.

Each `_cmd_*` returns its report and exit code and, like each text view,
imports only the modules it runs (`chern` always, for input errors).  `run`
alone prints the report, through its text view or, loading `json` only then,
as JSON with every integer a decimal string (so exact values survive any JSON
reader).  Both print integers of any size through `chern._decimal` and leave
Python's int-to-str digit limit, a process-wide setting, alone.  Exit codes: 0
on success, 1 when a check or any internal step fails or (from `main`) stdout
was closed by its reader, 2 on input errors, an argv integer past that limit too.
"""

import argparse
import os
import sys

from .chern import InputError, _decimal

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
        return _decimal(value)
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
    rows = [{"c1_exp": i, "c2_exp": j, "coeff": c} for (i, j), c in terms]
    return {"top_chern": str(poly), "terms": rows}


def _integer(text: str) -> int:
    """An optional '-' and ASCII digits, blanks around allowed: no '+', '_' or other digits."""
    try:
        if text.isascii() and text.strip().removeprefix("-").isdigit():
            return int(text)
    except ValueError as exc:  # past the digit limit: name it rather than echo every digit
        raise argparse.ArgumentTypeError("invalid int value: %s" % str(exc).split(";")[0]) from exc
    raise argparse.ArgumentTypeError("invalid int value: %r" % text)


def _parse_degrees(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(_integer, text.split(","))) if text.strip() else ()
    except argparse.ArgumentTypeError as exc:  # only the digit limit's error has a cause
        raise InputError("degrees: %s" % exc if exc.__cause__ else
                         "degrees must be comma-separated integers, got %r" % text)


def _cmd_lines(args) -> tuple[dict, int]:
    degrees = _parse_degrees(args.degrees)
    if not degrees:
        raise InputError("at least one hypersurface degree is required")
    from . import lines
    ci = lines.CompleteIntersection(args.ambient, degrees)
    inputs = {"ambient": ci.N, "degrees": ci.degrees}
    result = {
        "expected_family_dim": lines.expected_family_dimension(ci),
        "line_count": _without_none(lines.count_lines(ci)._asdict()),
        "family_through_point": lines.line_family_through_point(ci),
    }
    citations = [CITE_LINE_COUNT, CITE_LINE_CRITERION, CITE_THROUGH_POINT]
    return _report("lines", inputs, result, citations, notes=(GENERICITY_NOTE,))


def _cmd_fano_ci(args) -> tuple[dict, int]:
    from .fano import analyze
    from .lines import CompleteIntersection
    ci = CompleteIntersection(args.ambient, _parse_degrees(args.degrees))
    result = analyze(ci)._asdict()
    result["line_family"] = _without_none(result["line_family"])
    inputs = {"ambient": ci.N, "degrees": ci.degrees}
    citations = [CITE_JET_ORDER, CITE_NOT_SPANNED, CITE_LINE_CRITERION]
    return _report("fano-ci", inputs, result, citations, notes=(GENERICITY_NOTE,))


def _cmd_bounds(args) -> tuple[dict, int]:
    from . import bounds
    floors = {"min_degree": bounds.min_degree(args.dim, args.order),
              "min_sections": bounds.min_sections(args.dim, args.order)}
    if args.degree is None and args.h0 is not None:
        raise InputError("--h0 requires --degree")
    verdict = bounds.check(bounds.PolarizedInvariants(args.dim, args.order, args.degree, args.h0))
    result = {**floors, **verdict._asdict(), "ok": verdict.ok}
    result["failures"] = result.pop("failures")  # the report lists them last
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
    cases = [case._asdict() for case in catalog.adjunction_cases(args.dim, args.order)]
    inputs = {"dim": args.dim, "order": args.order}
    return _report("adjunction", inputs, {"cases": cases}, [CITE_NEFVALUE, CITE_CATALOG])


def _cmd_chern(args) -> tuple[dict, int]:
    from .chern import sym_top_chern, sym_top_chern_paper
    result = {"sym": args.sym, **_chern_fields(sym_top_chern(args.sym))}
    if args.paper_formula:
        from fractions import Fraction
        ratio = Fraction((args.sym + 1) ** 2, args.sym ** 2)
        alt = _chern_fields(sym_top_chern_paper(args.sym))
        result["alternative"] = dict(alt, ratio_to_canonical=str(ratio))
    inputs = {"sym": args.sym, "paper_formula": args.paper_formula}
    return _report("chern", inputs, result, [CITE_SPLITTING])


def _lines_text(inputs: dict, result: dict):
    from .lines import CompleteIntersection, LineCount
    yield "lines on a generic %s" % CompleteIntersection(inputs["ambient"], inputs["degrees"])
    yield "expected family dimension: %s" % _decimal(result["expected_family_dim"])
    yield "result: %s" % LineCount(**result["line_count"])
    if (point := result["family_through_point"]) is not None:
        yield "lines through a general point: %s-dimensional" % _decimal(point)


def _fano_ci_text(inputs: dict, result: dict):
    from .lines import CompleteIntersection, LineCount
    ci = CompleteIntersection(inputs["ambient"], inputs["degrees"])
    yield "X = %s, dim %d" % (ci, result["dim"])
    verdict, relation = ("yes", "<=") if result["is_fano"] else ("no", ">")
    yield "Fano: %s (sum of degrees %s %s %d)" % (verdict, _decimal(ci.degree_sum), relation, ci.N)
    yield "anticanonical degree (-K)^%d = %s" % (ci.dim, _decimal(result["anticanonical_degree"]))
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
    if (point := result["family_through_point"]) is not None:
        yield "lines through a general point: %s-dimensional" % _decimal(point)


def _bounds_text(inputs: dict, result: dict):
    floors = (inputs["dim"], inputs["order"], result["min_degree"], result["min_sections"])
    yield "n = %s, k = %s: require L^n >= %s and h0(L) >= %s" % tuple(map(_decimal, floors))
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
    p.add_argument("--ambient", type=_integer, required=True, metavar="N")
    p.add_argument("--degrees", required=True, metavar="d1,d2,...")
    p.set_defaults(func=_cmd_lines)

    p = sub.add_parser("fano-ci", help="embedding order of -K on a complete intersection")
    p.add_argument("--ambient", type=_integer, required=True, metavar="N")
    p.add_argument("--degrees", default="", metavar="d1,d2,...")
    p.set_defaults(func=_cmd_fano_ci)

    p = sub.add_parser("bounds", help="degree/section floors for a k-very ample bundle")
    p.add_argument("--dim", type=_integer, required=True, metavar="n")
    p.add_argument("--order", type=_integer, required=True, metavar="k")
    p.add_argument("--degree", type=_integer, default=None, metavar="D")
    p.add_argument("--h0", type=_integer, default=None, metavar="H")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("catalog", help="list or verify the classification catalog")
    p.add_argument("action", nargs="?", choices=["list", "verify"], default="list")
    p.add_argument("--k", type=_integer, default=None, help="filter on k_very_ample")
    p.add_argument("--dim", type=_integer, default=None, help="filter on dimension")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("adjunction", help="adjunction outcomes admitting (n, k)")
    p.add_argument("--dim", type=_integer, required=True, metavar="n")
    p.add_argument("--order", type=_integer, required=True, metavar="k")
    p.set_defaults(func=_cmd_adjunction)

    p = sub.add_parser("chern", help="top Chern class of Sym^d of the rank-2 bundle")
    p.add_argument("--sym", type=_integer, required=True, metavar="d")
    p.add_argument("--paper-formula", action="store_true", help="also print the printed "
                   "closed-form variant with boundary coefficient (d+1)^2 and its exact "
                   "ratio to the canonical class")
    p.set_defaults(func=_cmd_chern)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def run(argv=None) -> int:
    """Parse argv, run the subcommand and print its report; return the exit code.

    Integers print at any size through `chern._decimal`, and Python's int-to-str
    digit limit, process-wide, is left as the caller set it: an integer in argv past
    it exits 2, like any other argv that argparse or the library refuses.
    """
    try:
        args = build_parser().parse_args(argv)
        report, code = args.func(args)
        if args.json:
            import json
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
