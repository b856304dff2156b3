import contextlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import fanojet
from fanojet import catalog
from fanojet.bounds import (
    box_product_order,
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
from fanojet.lines import CompleteIntersection, LineCount
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
    broken = [replace(e, degree=23) if e.id == "fano3-7" else e for e in catalog.entries()]
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
    err = capsys.readouterr().err
    assert "error" in err.lower()


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_missing_required_flag_exits_2(capsys):
    assert run(["lines", "--ambient", "4"]) == 2


@pytest.mark.parametrize("error", [AssertionError, ArithmeticError, ValueError])
def test_internal_check_failure_exits_1(capsys, monkeypatch, error):
    def failing_check(ci):
        raise error("criterion and class disagree")

    monkeypatch.setattr("fanojet.cli.count_lines", failing_check)
    assert run(["lines", "--ambient", "4", "--degrees", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal check failed: criterion and class disagree\n"


def test_negative_line_count_exits_1(capsys, monkeypatch):
    # LineCount.finite rejects -1 as bad input; inside count_lines it is an internal fault.
    monkeypatch.setattr("fanojet.lines.integrate", lambda cls: -1)
    assert run(["lines", "--ambient", "4", "--degrees", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal check failed: negative line count -1 ")


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
    "line-count": (lambda: LineCount.finite(-1), "finite line counts are nonnegative"),
    "line-family": (lambda: LineCount.family(0, True), "family dimension must be >= 1"),
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
        lambda: LineCount.family(2.0, True),
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

def _assert_prints_degree_of_quadric_1400(text_out, json_out):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        expected = anticanonical_degree(CompleteIntersection(1400, (2,)))
        assert len(str(expected)) > 4300
        printed = re.search(r"anticanonical degree \(-K\)\^1399 = (\d+)", text_out)
        assert int(printed.group(1)) == expected
        report = json.loads(json_out)
        assert int(report["result"]["anticanonical_degree"]) == expected
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_console_prints_integers_of_any_size():
    argv = ["fano-ci", "--ambient", "1400", "--degrees", "2"]
    src = str(Path(fanojet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    runs = [
        subprocess.run([sys.executable, "-m", "fanojet.cli"] + argv + extra,
                       capture_output=True, text=True, env=env, timeout=120)
        for extra in ([], ["--json"])
    ]
    assert [r.returncode for r in runs] == [0, 0], [r.stderr for r in runs]
    _assert_prints_degree_of_quadric_1400(runs[0].stdout, runs[1].stdout)


def test_console_exits_1_quietly_when_stdout_is_closed():
    src = str(Path(fanojet.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fanojet.cli", "lines", "--ambient", "4", "--degrees", "5"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_run_prints_integers_of_any_size_and_restores_the_limit(capsys):
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    limit = get_limit()
    argv = ["fano-ci", "--ambient", "1400", "--degrees", "2"]
    outputs = []
    for extra in ([], ["--json"]):
        assert run(argv + extra) == 0, capsys.readouterr().err
        assert get_limit() == limit
        outputs.append(capsys.readouterr().out)
    assert run(["lines", "--ambient", "3", "--degrees", "2,2,2"]) == 2
    assert get_limit() == limit
    _assert_prints_degree_of_quadric_1400(*outputs)


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
