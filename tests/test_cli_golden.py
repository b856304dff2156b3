"""Byte-for-byte pins of the command line: exit code, stdout and stderr.

`cli_golden.json` holds one case per argv: every subcommand in text and
--json, the input errors, and --help for the main parser and each
subcommand.  A change that alters any CLI output on purpose must regenerate
the file in the same change, by running this module as a script:

    PYTHONPATH=src python tests/test_cli_golden.py

Outputs too large for that file are rows of `PINS`; a new pin is one more row.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from fanojet.cli import run

GOLDEN = Path(__file__).with_name("cli_golden.json")

# argparse wraps --help to the terminal width; pin it.
COLUMNS = "80"

SUBCOMMANDS = ["lines", "fano-ci", "bounds", "catalog", "adjunction", "chern"]

REPORTS = [
    ["lines", "--ambient", "3", "--degrees", "3"],
    ["lines", "--ambient", "4", "--degrees", "5"],
    ["lines", "--ambient", "4", "--degrees", "3"],
    ["lines", "--ambient", "4", "--degrees", "2,2"],
    ["lines", "--ambient", "5", "--degrees", "3"],
    ["lines", "--ambient", "5", "--degrees", "3,3"],
    ["lines", "--ambient", "5", "--degrees", "4,2"],
    ["lines", "--ambient", "3", "--degrees", "4"],
    ["lines", "--ambient", "3", "--degrees", "1"],
    ["lines", "--ambient", "2", "--degrees", "1"],
    ["lines", "--ambient", "6", "--degrees", "2"],
    ["lines", "--ambient", "5", "--degrees", "2,2,2"],
    ["fano-ci", "--ambient", "1"],
    ["fano-ci", "--ambient", "2", "--degrees", "2"],
    ["fano-ci", "--ambient", "2", "--degrees", "1"],
    ["fano-ci", "--ambient", "2", "--degrees", "3"],
    ["fano-ci", "--ambient", "3"],
    ["fano-ci", "--ambient", "3", "--degrees", "2,2"],
    ["fano-ci", "--ambient", "4", "--degrees", "3"],
    ["fano-ci", "--ambient", "4", "--degrees", "5"],
    ["fano-ci", "--ambient", "5", "--degrees", "2,2"],
    ["fano-ci", "--ambient", "6", "--degrees", "2,2,2"],
    ["bounds", "--dim", "3", "--order", "2"],
    ["bounds", "--dim", "1", "--order", "5"],
    ["bounds", "--dim", "3", "--order", "2", "--degree", "7"],
    ["bounds", "--dim", "3", "--order", "2", "--degree", "8"],
    ["bounds", "--dim", "3", "--order", "2", "--degree", "16", "--h0", "11"],
    ["bounds", "--dim", "3", "--order", "2", "--degree", "8", "--h0", "7"],
    ["bounds", "--dim", "3", "--order", "2", "--degree", "9", "--h0", "7"],
    ["bounds", "--dim", "3", "--order", "2", "--degree", "7", "--h0", "6"],
    ["catalog"],
    ["catalog", "list"],
    ["catalog", "--k", "2"],
    ["catalog", "--k", "4"],
    ["catalog", "--dim", "4"],
    ["catalog", "--dim", "3"],
    ["catalog", "--dim", "9"],
    ["catalog", "--dim", "3", "--k", "3"],
    ["catalog", "verify"],
    ["adjunction", "--dim", "3", "--order", "2"],
    ["adjunction", "--dim", "3", "--order", "5"],
    ["adjunction", "--dim", "4", "--order", "2"],
    ["adjunction", "--dim", "5", "--order", "2"],
    ["adjunction", "--dim", "6", "--order", "2"],
    ["chern", "--sym", "1"],
    ["chern", "--sym", "2"],
    ["chern", "--sym", "3"],
    ["chern", "--sym", "6"],
    ["chern", "--sym", "1", "--paper-formula"],
    ["chern", "--sym", "4", "--paper-formula"],
    ["chern", "--sym", "5", "--paper-formula"],
    ["lines", "--ambient", " 5 ", "--degrees", "3, 3"],  # blanks around integers are allowed
]

INPUT_ERRORS = [
    ["lines", "--ambient", "4", "--degrees", "0"],
    ["lines", "--ambient", "4", "--degrees", "x"],
    ["lines", "--ambient", "4", "--degrees", ""],
    ["lines", "--ambient", "3", "--degrees", "2,2,2"],
    ["fano-ci", "--ambient", "2", "--degrees", "2,2"],
    ["bounds", "--dim", "3", "--order", "1", "--degree", "9"],
    ["bounds", "--dim", "3", "--order", "2", "--h0", "9"],
    ["adjunction", "--dim", "2", "--order", "2"],
    ["chern", "--sym", "0"],
    ["fano-ci", "--ambient", "4", "--degrees", "0"],
    ["bounds", "--dim", "3", "--order", "2", "--degree", "8", "--h0", "-1"],  # once FAIL
    ["catalog", "verify", "--k", "3"],  # once ignored, exit 0
    ["catalog", "verify", "--dim", "9"],
    ["frobnicate"],
    ["lines", "--ambient", "4"],  # --degrees is required
    # CLI integers are strict: ASCII digits with an optional minus, nothing else.
    ["lines", "--ambient", "4", "--degrees", "5_0"],  # once CI(50) in P^4, exit 0
    ["lines", "--ambient", "1_0", "--degrees", "3,+4"],  # once CI(3,4) in P^10
    ["lines", "--ambient", "10", "--degrees", "3,+4"],
    ["chern", "--sym", "\u0663"],  # Arabic-Indic 3, once --sym 3
    ["bounds", "--dim", "3", "--order", "+2"],
    ["chern", "--sym", "-1"],  # parsed, then refused by the library
    # Library validator messages that no argv above reaches.
    ["lines", "--ambient", "0", "--degrees", "3"],
    ["bounds", "--dim", "0", "--order", "2"],
    ["bounds", "--dim", "3", "--order", "2", "--degree", "0"],
    ["adjunction", "--dim", "3", "--order", "1"],
]

HELP = [["--help"]] + [[sub, "--help"] for sub in SUBCOMMANDS]

CORPUS = [argv + tail for argv in REPORTS + INPUT_ERRORS for tail in ([], ["--json"])] + HELP


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


# Each pinned by the sha256 of stdout or by one line of it: the digit-limit reports (N = 1,400,
# n = 20,000), line classes that are one power of one factor (49 cubics) and that square both
# factors (twelve 12s, six 6s), Sym^600 and the prime Sym^557, each also with the printed
# variant, whose scale (d+1)^2 / d^2 is not trivial there, and the count at N = 140.
PINS = {
    "fano-ci": (["fano-ci", "--ambient", "1400", "--degrees", "2", "--json"],
                "05a7d7d9a1599a150d0f453a7bb90582440132e7f5285ced93a36a909271cce3"),
    "bounds": (["bounds", "--dim", "20000", "--order", "2", "--degree", "5", "--json"],
               "9a8bb945613c3bb4f7c4c281bdd9bd1049676f88c3fc7d6d01c5de1bceeaba28"),
    "lines": (["lines", "--ambient", "99", "--degrees", ",".join(["3"] * 49), "--json"],
              "50ab37ccde79841ac69f23bfa23d798541280be30081154616d5fe0fa89e3644"),
    "lines-mixed": (["lines", "--ambient", "100", "--degrees", "12," * 12 + "6,6,6,6,6,6",
                     "--json"],
                    "4418224436ef9dfd1e58620adfe1c13cd7f2c0be4ea25071aa174d4e9dfd0dec"),
    "chern-600": (["chern", "--sym", "600", "--json"],
                  "a21ad9ccc0835fd1d1552d19abf142e19186b530ba0865435772c68c851048fd"),
    "chern-557": (["chern", "--sym", "557", "--json"],
                  "acdcfcae57cc407c8540d224fed8943f8e3f1c5a5cbab93f4d92c6680c2d42b5"),
    "chern-600-paper": (["chern", "--sym", "600", "--paper-formula", "--json"],
                        "95b16a4036f7fd67e4f0620e0af74d7c5cfdf4dbdb59d17a22926786e8718043"),
    "chern-557-paper": (["chern", "--sym", "557", "--paper-formula", "--json"],
                        "3df8e05aafbb8855c4d0cd4f1f629030257969e8715511ad5143ac694e393576"),
    "lines-140": (["lines", "--ambient", "140", "--degrees", "277"], "result: finite count "
        "64454789123735615230471500472261254048643670696060037923658419575660866713100801964509616"
        "73968353381291543572137231373290499826480202774413096287051790265659066132843590121762395"
        "50466964083721009755827670076301902160259119816462261021497396062763983129982226874461396"
        "06569436167950173254625205253654769911887196521901412533528244125720243956393830085453911"
        "17006836145134631359954119144595992977945666486316679602030053920847150143876411691092160"
        "03738780945330539651897729264285372690762121660463550170984266455792815619702219302714721"
        "80655238126855014530495312921051804865291018303200828531199133762441037495036200071978300"
        "25137673958193923717216375782540947548787104698879315"),
}


@pytest.fixture(scope="module")
def golden():
    return {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_cli_output_matches_golden(monkeypatch, golden, argv):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert capture(argv) == golden[tuple(argv)]


def test_golden_holds_exactly_the_corpus():
    # A case whose argv left the corpus, or a repeated case, fails here, not silently.
    argvs = [tuple(case["argv"]) for case in json.loads(GOLDEN.read_text())]
    assert sorted(argvs) == sorted(set(map(tuple, CORPUS)))


@pytest.mark.parametrize("argv, pin", PINS.values(), ids=PINS.keys())
def test_large_output_matches_its_pin(argv, pin):
    case = capture(argv)
    assert (case["code"], case["stderr"]) == (0, "")
    stdout = case["stdout"]
    assert pin in [hashlib.sha256(stdout.encode()).hexdigest(), *stdout.splitlines()]


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    GOLDEN.write_text(json.dumps([capture(argv) for argv in CORPUS], indent=1) + "\n")
