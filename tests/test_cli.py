import contextlib
import io
import json
import os
import re
import subprocess
import sys
import sysconfig
import threading
from decimal import Decimal
from importlib import metadata, resources
from pathlib import Path
from urllib.parse import urlparse
from urllib.request import url2pathname

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import fanojet
from fanojet import catalog
from fanojet.bounds import (
    PolarizedInvariants,
    box_product_order,
    check,
    curve_degree_floor,
    min_degree,
    min_sections,
    nefvalue_bound,
)
from fanojet.catalog import adjunction_cases
from fanojet.chern import (
    ChernPolynomial,
    InputError,
    sym_top_chern,
    sym_top_chern_oracle,
    sym_top_chern_paper,
)
from fanojet.cli import TEXT_VIEWS, build_parser, run
from fanojet.fano import analyze, anticanonical_degree, degree_of_twist, h0_of_twist
from fanojet.lines import CompleteIntersection, LineCount, count_lines
from fanojet.schubert import sigma


@pytest.fixture(scope="module")
def schema():
    text = resources.files("fanojet").joinpath("report_schema.json").read_text()
    return json.loads(text)


def run_json(capsys, argv):
    code = run(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_text(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


JSON_INVOCATIONS = [
    ["lines", "--ambient", "4", "--degrees", "5"],
    ["lines", "--ambient", "4", "--degrees", "3"],
    ["lines", "--ambient", "3", "--degrees", "4"],
    ["fano-ci", "--ambient", "4", "--degrees", "3"],
    ["fano-ci", "--ambient", "3"],
    ["fano-ci", "--ambient", "2", "--degrees", "2"],
    ["bounds", "--dim", "3", "--order", "2", "--degree", "7"],
    ["bounds", "--dim", "3", "--order", "2", "--degree", "16", "--h0", "11"],
    ["bounds", "--dim", "3", "--order", "2"],
    ["catalog"],
    ["catalog", "--k", "2"],
    ["catalog", "verify"],
    ["adjunction", "--dim", "4", "--order", "2"],
    ["chern", "--sym", "4"],
    ["chern", "--sym", "5", "--paper-formula"],
]


@pytest.mark.parametrize("argv", JSON_INVOCATIONS, ids=lambda a: " ".join(a))
def test_json_reports_validate_against_shipped_schema(capsys, schema, argv):
    code, report = run_json(capsys, argv)
    assert code == 0
    jsonschema.validate(report, schema)


def test_quintic_lines(capsys):
    code, report = run_json(capsys, ["lines", "--ambient", "4", "--degrees", "5"])
    assert code == 0
    assert report["result"]["line_count"] == {"kind": "finite", "count": "2875"}
    code, text = run_text(capsys, ["lines", "--ambient", "4", "--degrees", "5"])
    assert code == 0
    assert "2875" in text
    assert "generic" in text  # the genericity caveat


def test_text_and_json_carry_the_same_numbers(capsys):
    _, report = run_json(capsys, ["fano-ci", "--ambient", "5", "--degrees", "2,2"])
    _, text = run_text(capsys, ["fano-ci", "--ambient", "5", "--degrees", "2,2"])
    result = report["result"]
    assert result["jet_order"] == "2" and "2-jet ample" in text
    assert result["not_spanned_order"] == "3" and "not 3-spanned" in text
    assert result["anticanonical_degree"] == "32" and "= 32" in text


def test_fano_ci_text_output(capsys):
    code, text = run_text(capsys, ["fano-ci", "--ambient", "4", "--degrees", "3"])
    assert code == 0
    assert "2-jet ample, not 3-spanned" in text
    assert "contains a line: yes" in text


def test_bounds_failure_cites_the_degree_bound(capsys):
    code, report = run_json(capsys, ["bounds", "--dim", "3", "--order", "2", "--degree", "7"])
    assert code == 0  # a failed verdict is still a successful run
    assert report["result"]["ok"] is False
    assert report["result"]["degree_ok"] is False
    assert any("2^n + k - 2" in c for c in report["citations"])
    code, text = run_text(capsys, ["bounds", "--dim", "3", "--order", "2", "--degree", "7"])
    assert "FAIL" in text


def test_degree_order_never_matters(capsys):
    _, a = run_json(capsys, ["lines", "--ambient", "5", "--degrees", "2,4"])
    _, b = run_json(capsys, ["lines", "--ambient", "5", "--degrees", "4,2"])
    assert a["result"] == b["result"]


def test_catalog_listing(capsys):
    code, report = run_json(capsys, ["catalog"])
    assert code == 0
    assert report["result"]["count"] == "12"
    ids = [row["id"] for row in report["result"]["entries"]]
    assert ids[0] == "fano3-1" and "mukai-n5" in ids
    code, report = run_json(capsys, ["catalog", "--k", "4"])
    assert report["result"]["count"] == "1"
    assert report["result"]["entries"][0]["id"] == "fano3-5"
    code, report = run_json(capsys, ["catalog", "--dim", "4"])
    assert [row["id"] for row in report["result"]["entries"]] == ["mukai-n4"]


def test_catalog_verify(capsys):
    code, report = run_json(capsys, ["catalog", "verify"])
    assert code == 0
    assert report["result"] == {"checked": "12", "ok": True, "failures": []}
    code, text = run_text(capsys, ["catalog", "verify"])
    assert "12" in text and "consistent" in text


def test_failed_catalog_verify_exits_1(capsys, monkeypatch):
    verify_all = catalog.verify_all
    broken = [e._replace(degree=23) if e.id == "fano3-7" else e for e in catalog.entries()]
    monkeypatch.setattr(catalog, "verify_all", lambda: verify_all(broken))
    assert run(["catalog", "verify"]) == 1
    text = capsys.readouterr().out.splitlines()
    assert text[0] == "verified 12 catalog entries: FAILURES"
    assert any("fano3-7" in line and "degree mismatch" in line for line in text[1:])
    code, report = run_json(capsys, ["catalog", "verify"])
    assert code == 1
    assert report["result"]["ok"] is False and report["result"]["failures"]


def test_adjunction_report(capsys):
    code, report = run_json(capsys, ["adjunction", "--dim", "3", "--order", "5"])
    assert code == 0
    assert [c["case_id"] for c in report["result"]["cases"]] == ["reduction"]


def test_chern_report_with_variant(capsys):
    code, report = run_json(capsys, ["chern", "--sym", "4", "--paper-formula"])
    assert code == 0
    assert report["result"]["top_chern"] == "96*c1^3*c2 + 128*c1*c2^2"
    alt = report["result"]["alternative"]
    assert alt["top_chern"] == "150*c1^3*c2 + 200*c1*c2^2"
    assert alt["ratio_to_canonical"] == "25/16"
    code, text = run_text(capsys, ["chern", "--sym", "4", "--paper-formula"])
    assert "25/16" in text


def test_chern_without_variant_has_no_alternative(capsys):
    _, report = run_json(capsys, ["chern", "--sym", "3"])
    assert "alternative" not in report["result"]
    assert report["result"]["top_chern"] == "18*c1^2*c2 + 9*c2^2"


@pytest.mark.parametrize(
    "argv",
    [
        ["lines", "--ambient", "4", "--degrees", "0"],
        ["lines", "--ambient", "4", "--degrees", "x"],
        ["lines", "--ambient", "4", "--degrees", ""],
        ["lines", "--ambient", "3", "--degrees", "2,2,2"],  # r >= N
        ["fano-ci", "--ambient", "4", "--degrees", "0"],
        ["fano-ci", "--ambient", "2", "--degrees", "2,2"],
        ["bounds", "--dim", "3", "--order", "1", "--degree", "9"],
        ["bounds", "--dim", "3", "--order", "2", "--h0", "9"],
        ["bounds", "--dim", "3", "--order", "2", "--degree", "8", "--h0", "-1"],  # once FAIL
        ["adjunction", "--dim", "2", "--order", "2"],
        ["chern", "--sym", "0"],
        ["catalog", "verify", "--k", "3"],  # once ignored, exit 0
        ["catalog", "verify", "--dim", "9"],
    ],
    ids=lambda a: " ".join(a),
)
def test_input_errors_exit_2(capsys, argv):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error" in err.lower()


_DEGREES_ERROR = "error: degrees must be comma-separated integers, got %r\n"


@pytest.mark.parametrize(
    "argv,err_tail",
    [
        (["lines", "--ambient", "4", "--degrees", "5_0"],      # once CI(50) in P^4, exit 0
         _DEGREES_ERROR % "5_0"),
        (["lines", "--ambient", "1_0", "--degrees", "3,+4"],   # once CI(3,4) in P^10
         "argument --ambient: invalid int value: '1_0'\n"),
        (["lines", "--ambient", "10", "--degrees", "3,+4"], _DEGREES_ERROR % "3,+4"),
        (["chern", "--sym", "\u0663"],                         # Arabic-Indic 3, once --sym 3
         "argument --sym: invalid int value: '\u0663'\n"),
        (["bounds", "--dim", "3", "--order", "+2"], "argument --order: invalid int value: '+2'\n"),
    ],
    ids=["digit-separator", "separator-and-plus", "plus-degree", "non-ascii-digit", "plus-option"],
)
def test_cli_integers_are_strict(capsys, argv, err_tail):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(err_tail)


def test_cli_integers_allow_blanks_and_minus(capsys):
    assert run(["lines", "--ambient", " 5 ", "--degrees", "3, 3"]) == 0
    assert "CI(3,3) in P^5" in capsys.readouterr().out
    assert run(["chern", "--sym", "-1"]) == 2  # parsed, then refused by the library
    assert capsys.readouterr().err == "error: symmetric power exponent must be >= 1\n"


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_missing_required_flag_exits_2(capsys):
    assert run(["lines", "--ambient", "4"]) == 2


@pytest.mark.parametrize("error", [AssertionError, ArithmeticError, ValueError])
def test_internal_check_failure_exits_1(capsys, monkeypatch, error):
    def failing_check(ci):
        raise error("criterion and class disagree")

    monkeypatch.setattr("fanojet.lines.count_lines", failing_check)
    assert run(["lines", "--ambient", "4", "--degrees", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal check failed: criterion and class disagree\n"


def test_closed_form_and_oracle_disagreement_exits_1(capsys, monkeypatch):
    # A perturbed oracle trips the real check in sym_top_chern, in the library and via run().
    message = "closed form and splitting-principle expansion disagree at d=5"
    oracle = sym_top_chern_oracle
    monkeypatch.setattr("fanojet.chern.sym_top_chern_oracle",
                        lambda d: oracle(d) + ChernPolynomial.c2())
    sym_top_chern.cache_clear()
    try:
        with pytest.raises(AssertionError, match="^%s$" % re.escape(message)):
            sym_top_chern(5)
        assert run(["chern", "--sym", "5"]) == 1
    finally:
        sym_top_chern.cache_clear()
    assert capsys.readouterr() == ("", "internal check failed: %s\n" % message)


@pytest.mark.parametrize("sign", [0, -1], ids=["zero", "negated"])
@pytest.mark.parametrize("degree,integral", [(5, 2875), (3, 45)], ids=["delta=0", "delta=2"])
def test_nonpositive_line_integral_exits_1(capsys, monkeypatch, sign, degree, integral):
    # A zeroed or negated factor product trips the real check in count_lines,
    # in the library and via run().
    message = "line integral %d is not positive for CI(%d) in P^4" % (sign * integral, degree)
    monkeypatch.setattr("fanojet.lines.sym_top_chern", lambda d: sign * sym_top_chern(d))
    with pytest.raises(AssertionError, match="^%s$" % re.escape(message)):
        count_lines(CompleteIntersection(4, (degree,)))
    assert run(["lines", "--ambient", "4", "--degrees", str(degree)]) == 1
    assert capsys.readouterr() == ("", "internal check failed: %s\n" % message)


def test_fano_without_a_line_exits_1(capsys, monkeypatch):
    # The exact order of a Fano X of dimension >= 2 rests on a line; no line is a fault.
    monkeypatch.setattr("fanojet.fano.count_lines", lambda ci: LineCount.empty())
    with pytest.raises(AssertionError, match="^no line on the Fano CI\\(3\\) in P\\^4"):
        analyze(CompleteIntersection(4, (3,)))
    assert run(["fano-ci", "--ambient", "4", "--degrees", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal check failed: no line on the Fano ")


_VALIDATORS = {
    "chern": (lambda: sym_top_chern(0), "symmetric power exponent must be >= 1"),
    "chern-oracle": (lambda: sym_top_chern_oracle(0), "symmetric power exponent must be >= 1"),
    "chern-power": (lambda: ChernPolynomial.c1() ** -1, "negative powers are not defined"),
    "schubert": (lambda: sigma(1, 0), "Grassmannian parameter m must be >= 2"),
    "lines": (lambda: CompleteIntersection(0, ()), "ambient dimension N must be >= 1"),
    "lines-degree": (lambda: CompleteIntersection(4, (3, 0)), "degrees must be positive integers"),
    "line-count": (lambda: LineCount.finite(-1), "finite line counts are nonnegative"),
    "line-family": (lambda: LineCount.family(0), "family dimension must be >= 1"),
    "fano": (lambda: h0_of_twist(CompleteIntersection(3, (2,)), -1), "twist must be >= 0"),
    "degree-twist-dim": (lambda: degree_of_twist(CompleteIntersection(2, (2, 2, 2)), 2),
                         "not positive-dimensional"),  # once 4.0
    "h0-twist-dim": (lambda: h0_of_twist(CompleteIntersection(2, (2, 2, 2)), 3),
                     "not positive-dimensional"),  # once 1
    "bounds": (lambda: min_degree(3, 1), "degree bound requires k >= 2"),
    "min-degree-n": (lambda: min_degree(0, 2), "dimension must be >= 1"),
    "min-sections-n": (lambda: min_sections(0, 2), "dimension must be >= 1"),
    "min-sections-k": (lambda: min_sections(3, 1), "section bound requires k >= 2"),
    "nefvalue-n": (lambda: nefvalue_bound(2, 2), "nefvalue bound requires n >= 3"),
    "nefvalue-k": (lambda: nefvalue_bound(3, 1), "nefvalue bound requires k >= 2"),
    "box-product": (lambda: box_product_order(2, -1), "orders must be >= 0"),
    "curve-floor": (lambda: curve_degree_floor(-1), "order must be >= 0"),
    "invariants-n": (lambda: PolarizedInvariants(0, 2, 8), "dimension must be >= 1"),
    "invariants-k": (lambda: PolarizedInvariants(3, -1, 8), "degree bound requires k >= 2"),
    "invariants-k1": (lambda: PolarizedInvariants(3, 1, 8), "degree bound requires k >= 2"),
    "invariants-deg": (lambda: PolarizedInvariants(3, 2, 0), "degree must be >= 1"),
    "invariants-h0": (lambda: PolarizedInvariants(3, 2, 8, -1), "h0 must be >= 0"),
    "catalog": (lambda: adjunction_cases(2, 2), "adjunction table requires n >= 3"),
    "catalog-k": (lambda: adjunction_cases(3, 1), "adjunction table requires k >= 2"),
}


@pytest.mark.parametrize("call,message", _VALIDATORS.values(), ids=_VALIDATORS.keys())
def test_library_validators_raise_input_error(call, message):
    with pytest.raises(InputError, match="^%s$" % re.escape(message)):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: sym_top_chern(True),                                    # once c2
        lambda: sym_top_chern_paper(True),                              # once 4*c2
        lambda: sym_top_chern_oracle(2.0),
        lambda: LineCount.finite(2.5),
        lambda: LineCount.family(2.0),
        lambda: degree_of_twist(CompleteIntersection(4, (3,)), 2.0),    # once 24.0
        lambda: h0_of_twist(CompleteIntersection(3, (2,)), -1.0),       # type before domain
        lambda: min_degree(2.5, 2),                                     # once 5.656...
        lambda: min_sections(3.0, 2),                                   # once 7.0
        lambda: nefvalue_bound(5, True),
        lambda: box_product_order(True, 2),                             # once True
        lambda: curve_degree_floor(2.5),                                # once 2.5
        lambda: adjunction_cases(3.0, 2.0),
        lambda: catalog.entries(n=3.0),                                 # once the 10 threefolds
        lambda: catalog.entries(n=True),                                # once []
        lambda: catalog.entries(k=2.0),
    ],
    ids=["sym", "sym-paper", "sym-oracle", "finite", "family", "degree-twist", "h0-twist",
         "min-degree", "min-sections", "nefvalue", "box-product", "curve-floor", "adjunction",
         "entries-n", "entries-n-bool", "entries-k"],
)
def test_library_numbers_reject_non_int(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("argv", JSON_INVOCATIONS, ids=lambda a: " ".join(a))
def test_subcommands_return_reports_and_print_nothing(capsys, argv):
    args = build_parser().parse_args(argv)
    report, code = args.func(args)
    assert capsys.readouterr() == ("", "")
    assert code == 0
    assert list(report)[:4] == ["command", "inputs", "result", "citations"]
    assert set(report) <= {"command", "inputs", "result", "citations", "notes"}
    assert report["command"] in TEXT_VIEWS


# --- integers past Python's default int-to-str digit limit --------------------
# The library and `run` print exact integers of any size themselves and never touch
# that limit, a process-wide setting.  These tests run under the caller's limit; they
# read printed integers back through Decimal, whose parser the limit does not cover.

get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
needs_limit = pytest.mark.skipif(not get_limit(), reason="no int-to-str digit limit in force")
HUGE = 10 ** 5000  # past the default limit of 4300 digits


def _assert_prints_degree_of_quadric_1400(text_out, json_out):
    expected = anticanonical_degree(CompleteIntersection(1400, (2,)))
    assert expected.bit_length() > 4300 * 3.33  # more than 4300 decimal digits
    printed = re.search(r"anticanonical degree \(-K\)\^1399 = (\d+)\n", text_out)
    assert Decimal(printed.group(1)) == expected
    report = json.loads(json_out)
    assert Decimal(report["result"]["anticanonical_degree"]) == expected


ROOT = Path(__file__).resolve().parents[1]  # the checkout under test


def _installed_from_this_checkout():
    """Whether `fanojet` is installed by `pip install -e` from ROOT (its direct_url.json)."""
    try:
        direct_url = metadata.distribution("fanojet").read_text("direct_url.json")
    except metadata.PackageNotFoundError:
        return False
    info = json.loads(direct_url or "{}")
    return (info.get("dir_info", {}).get("editable", False)
            and Path(url2pathname(urlparse(info["url"]).path)).resolve() == ROOT)


@pytest.fixture
def console(tmp_path):
    """Run the `fanojet` command from an empty working directory.

    Once the checkout is installed (`pip install -e .`), that is the console script in
    this interpreter's scripts directory, run without PYTHONPATH, and it must exist;
    otherwise it is `python -m fanojet.cli` on the checkout's sources. Its stdout is
    buffered (PYTHONUNBUFFERED removed), so a short report is written at main's flush.
    """
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if _installed_from_this_checkout():
        script = Path(sysconfig.get_path("scripts")) / "fanojet"
        assert script.is_file(), "fanojet is installed from this checkout but %s is missing" % script
        command = [str(script)]
        env.pop("PYTHONPATH", None)
    else:
        command = [sys.executable, "-m", "fanojet.cli"]
        env["PYTHONPATH"] = str(ROOT / "src")

    def call(argv, stdout=subprocess.PIPE):
        return subprocess.run(command + argv, cwd=tmp_path, env=env, stdout=stdout,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    return call


@pytest.mark.parametrize("argv, code, needle", [
    ("lines --ambient 4 --degrees 5 --json", 0, '"count": "2875"'),
    ("catalog verify", 0, "verified 12 catalog entries: all consistent"),
    ("lines --ambient 4 --degrees 5_0", 2, None),  # the other exit-2 argv: test_input_errors_exit_2
])
def test_console_script(console, argv, code, needle):
    done = console(argv.split())
    assert done.returncode == code, done.stderr
    assert needle in done.stdout if needle else done.stdout == ""


def test_console_prints_integers_of_any_size(console):
    argv = ["fano-ci", "--ambient", "1400", "--degrees", "2"]
    runs = [console(argv + extra) for extra in ([], ["--json"])]
    assert [r.returncode for r in runs] == [0, 0], [r.stderr for r in runs]
    _assert_prints_degree_of_quadric_1400(runs[0].stdout, runs[1].stdout)


def test_console_exits_1_quietly_when_stdout_is_closed(console):
    # Small output fails at main's flush; 461 KB of `chern --sym 600` fails inside a print.
    procs = []
    for argv in ("lines --ambient 4 --degrees 5", "chern --sym 600"):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            procs.append(console(argv.split(), stdout=write_end))
        finally:
            os.close(write_end)
    assert [(p.returncode, p.stderr) for p in procs] == [(1, "")] * 2


def test_run_prints_integers_of_any_size_under_the_callers_limit(capsys, monkeypatch):
    limit = get_limit()
    seen = []
    analyze = fanojet.fano.analyze
    monkeypatch.setattr(fanojet.fano, "analyze", lambda ci: seen.append(get_limit()) or analyze(ci))
    argv = ["fano-ci", "--ambient", "1400", "--degrees", "2"]
    outputs = []
    for extra in ([], ["--json"]):
        assert run(argv + extra) == 0, capsys.readouterr().err
        outputs.append(capsys.readouterr().out)
    assert seen == [limit, limit]  # inside the subcommand, the caller's limit
    assert run(["lines", "--ambient", "3", "--degrees", "2,2,2"]) == 2
    assert get_limit() == limit
    _assert_prints_degree_of_quadric_1400(*outputs)


@needs_limit
def test_run_leaves_the_limit_in_force_for_other_threads(capsys):
    codes = []
    worker = threading.Thread(target=lambda: codes.append(run(["chern", "--sym", "1500"])))
    worker.start()
    polls = 0
    while worker.is_alive():
        with pytest.raises(ValueError, match="limit"):
            str(HUGE)
        polls += 1
    worker.join()
    assert codes == [0] and polls > 0
    assert "top Chern class of Sym^1500 F: " in capsys.readouterr().out


# Each argv is cheap to run where the limit is lifted: no line family to integrate.
@needs_limit
@pytest.mark.parametrize("argv,prefix", [
    (["lines", "--ambient", "9" * 4301, "--degrees", "9" * 4302], "error: argument --ambient: "),
    (["lines", "--ambient", "4", "--degrees", "3," + "9" * 4301], "error: degrees: "),
    (["fano-ci", "--ambient", "4", "--degrees", "-" + "9" * 4301], "error: degrees: "),
], ids=["ambient", "degrees", "negative-degree"])
def test_argv_integer_past_the_limit_exits_2_naming_it(capsys, argv, prefix):
    if get_limit() != 4300:
        pytest.skip("the message pins the default limit")
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err) < 1000  # the digits are not echoed
    tail = err.splitlines()[-1]
    assert prefix + "invalid int value: Exceeds the limit (4300" in tail, tail
    assert tail.endswith("value has 4301 digits"), tail


def _coefficients_read_back(text: str) -> list:
    """The positive coefficients that open the printed monomials, as Decimals, in order."""
    return [Decimal(c) for c in re.findall(r"(?:^| )(\d+)\*", text)]


@needs_limit
def test_library_prints_integers_past_the_limit():
    poly = sym_top_chern(1500)
    order = sorted(poly.terms, key=lambda k: (-(k[0] + 2 * k[1]), -k[0]))
    assert _coefficients_read_back(str(poly)) == [poly.terms[k] for k in order]
    assert any(abs(c).bit_length() > 4300 * 3.33 for c in poly.terms.values())
    assert str(LineCount.finite(HUGE)) == "finite count 1" + "0" * 5000
    assert repr(LineCount.finite(HUGE)) == (
        "LineCount(kind='finite', count=1%s, family_dim=None, nonempty=None)" % ("0" * 5000))
    assert str(LineCount.family(HUGE)) == "1" + "0" * 5000 + "-dimensional family (nonempty)"
    assert str(CompleteIntersection(HUGE, (2,))) == "CI(2) in P^1" + "0" * 5000
    assert repr(-HUGE * sigma(4, 1)) == "<-1%s*s[1,0] in G(2,4)>" % ("0" * 5000)
    verdict = check(PolarizedInvariants(20000, 2, 5))
    assert not verdict.ok and verdict.failures[0].startswith("degree 5 below floor 2^n+k-2 = ")
    assert Decimal(verdict.failures[0].rsplit(" ", 1)[1]) == 2 ** 20000


# --- fuzzed argv: every input ends in an answer or a clean error --------------

_small = st.integers(-2, 12).map(str)
_degrees = st.lists(st.integers(-1, 9), max_size=4).map(lambda ds: ",".join(map(str, ds)))
_junk = st.lists(st.sampled_from(["x", "--bogus", "-1", "1.5", "", "--dim", "0", "list"]),
                 max_size=2)


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


_ARGV = st.one_of(
    st.tuples(st.just(["lines"]), _opt("--ambient", _small), _opt("--degrees", _degrees)),
    st.tuples(st.just(["fano-ci"]), _opt("--ambient", _small), _opt("--degrees", _degrees)),
    st.tuples(st.just(["bounds"]), _opt("--dim", _small), _opt("--order", _small),
              _opt("--degree", _small), _opt("--h0", _small)),
    st.tuples(st.sampled_from([["catalog"], ["catalog", "list"], ["catalog", "verify"]]),
              _opt("--k", _small), _opt("--dim", _small)),
    st.tuples(st.just(["adjunction"]), _opt("--dim", _small), _opt("--order", _small)),
    st.tuples(st.just(["chern"]), _opt("--sym", st.integers(-2, 30).map(str)),
              st.sampled_from([[], ["--paper-formula"]])),
).map(lambda parts: [token for part in parts for token in part])


@settings(max_examples=150, deadline=None)
@given(argv=_ARGV, as_json=st.booleans(), junk=_junk)
def test_fuzzed_argv_exits_cleanly(schema, argv, as_json, junk):
    argv = argv + junk + (["--json"] if as_json else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 0 and as_json:
        jsonschema.validate(json.loads(out.getvalue()), schema)
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue()
