"""Byte-for-byte pins of the command line: exit code, stdout and stderr.

`cli_golden.json` holds one case per argv: every subcommand in text and
--json, the input errors, and --help for the main parser and each
subcommand.  A change that alters any CLI output on purpose must regenerate
the file in the same change, by running this module as a script:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
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
    ["catalog", "--dim", "9"],
    ["catalog", "--dim", "3", "--k", "3"],
    ["catalog", "verify"],
    ["adjunction", "--dim", "3", "--order", "2"],
    ["adjunction", "--dim", "3", "--order", "5"],
    ["adjunction", "--dim", "4", "--order", "2"],
    ["adjunction", "--dim", "6", "--order", "2"],
    ["chern", "--sym", "1"],
    ["chern", "--sym", "2"],
    ["chern", "--sym", "3"],
    ["chern", "--sym", "6"],
    ["chern", "--sym", "1", "--paper-formula"],
    ["chern", "--sym", "4", "--paper-formula"],
    ["chern", "--sym", "5", "--paper-formula"],
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
]

HELP = [["--help"]] + [[sub, "--help"] for sub in SUBCOMMANDS]

CORPUS = [argv + tail for argv in REPORTS + INPUT_ERRORS for tail in ([], ["--json"])] + HELP


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_cli_output_matches_golden(monkeypatch, golden, argv):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert capture(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    GOLDEN.write_text(json.dumps([capture(argv) for argv in CORPUS], indent=1) + "\n")
