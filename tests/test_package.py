"""The `fanojet` package surface: its public names, and what importing it loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fanojet

PUBLIC_NAMES = [
    "AdjunctionOutcome", "BoundsVerdict", "CatalogEntry", "CatalogVerification",
    "ChernPolynomial", "CohomologyElement", "CompleteIntersection", "EmbeddingOrderReport",
    "LineCount", "PolarizedInvariants", "SchubertClass", "adjunction_cases", "analyze",
    "anticanonical_degree", "box_product_order", "catalog_as_dicts", "count_lines",
    "curve_degree_floor", "degree_of_twist", "entries", "expected_family_dimension",
    "from_chern_poly", "h0_of_twist", "integrate", "line_family_through_point", "lines_class",
    "min_degree", "min_sections", "mul", "nefvalue_bound", "plucker_degree", "sigma",
    "sym_top_chern", "sym_top_chern_oracle", "sym_top_chern_paper", "verify_all",
]
MODULES = ("schubert", "chern", "lines", "fano", "bounds", "catalog")


def test_public_names_are_pinned():
    assert fanojet.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_is_its_home_module_object(name):
    value = getattr(fanojet, name)
    home = value.__module__
    assert home.removeprefix("fanojet.") in MODULES
    assert value is getattr(importlib.import_module(home), name)


def test_star_import_and_submodule_attributes():
    namespace = {}
    exec("from fanojet import *", namespace)
    assert all(namespace[name] is getattr(fanojet, name) for name in PUBLIC_NAMES)
    assert str(fanojet.chern.sym_top_chern(2)) == "4*c1*c2"
    assert {name: getattr(fanojet, name).__name__ for name in MODULES} == {
        name: "fanojet." + name for name in MODULES
    }


def test_dir_lists_every_public_name():
    assert set(PUBLIC_NAMES) <= set(dir(fanojet))
    assert "__version__" in dir(fanojet)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        fanojet.nope
    assert not hasattr(fanojet, "InputError")


# --- imports in a fresh interpreter -------------------------------------------

# Costly stdlib modules that a cold start should load only where it uses them.  `decimal`
# prints integers past Python's int-to-str digit limit, which no small input reaches;
# `fractions` imports it too.
WATCHED = ("dataclasses", "decimal", "fractions", "inspect", "json")


def _loaded_in_fresh_interpreter(code: str) -> set:
    """Run `code`, then report which fanojet modules and `WATCHED` modules it left loaded."""
    probe = code + (  # the set is taken before the probe imports json to print it
        "\nimport sys"
        "\nloaded = sorted(m for m in sys.modules if m.startswith('fanojet') or m in %r)"
        "\nimport json"
        "\nprint(json.dumps(loaded))" % (WATCHED,)
    )
    src = str(Path(fanojet.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_fanojet_loads_no_submodule():
    assert _loaded_in_fresh_interpreter("import fanojet") == {"fanojet"}


CLI_CORE = {"fanojet", "fanojet.cli", "fanojet.chern"}  # chern defines InputError
ALL_BUT_SCHUBERT = CLI_CORE | {"fanojet." + m for m in MODULES if m != "schubert"}


def _cli(*argv: str) -> str:
    return "from fanojet.cli import run\nrun(%r)" % [*argv]


@pytest.mark.parametrize("code, loaded", [
    pytest.param(_cli("chern", "--sym", "4"), CLI_CORE, id="chern"),
    pytest.param(_cli("frobnicate"), CLI_CORE, id="argparse-error"),
    # _cmd_lines parses --degrees before it imports lines.
    pytest.param(_cli("lines", "--ambient", "4", "--degrees", "x"), CLI_CORE,
                 id="lines-bad-degrees"),
    pytest.param(_cli("lines", "--ambient", "4", "--degrees", "5"), CLI_CORE | {"fanojet.lines"},
                 id="lines"),
    pytest.param(_cli("fano-ci", "--ambient", "4", "--degrees", "3"),
                 CLI_CORE | {"fanojet.lines", "fanojet.fano"}, id="fano-ci"),
    pytest.param(_cli("bounds", "--dim", "3", "--order", "2", "--degree", "8"),
                 CLI_CORE | {"fanojet.bounds"}, id="bounds"),
    # An integer past the digit limit loads `decimal` to print it, and only then.
    pytest.param(_cli("bounds", "--dim", "20000", "--order", "2"),
                 CLI_CORE | {"fanojet.bounds", "decimal"}, id="bounds-past-the-limit"),
    # Only --json loads json; the three reports built from records need no dataclasses.
    pytest.param(_cli("lines", "--ambient", "4", "--degrees", "5", "--json"),
                 CLI_CORE | {"fanojet.lines", "json"}, id="lines-json"),
    pytest.param(_cli("fano-ci", "--ambient", "4", "--degrees", "3", "--json"),
                 CLI_CORE | {"fanojet.lines", "fanojet.fano", "json"}, id="fano-ci-json"),
    pytest.param(_cli("bounds", "--dim", "3", "--order", "2", "--degree", "8", "--json"),
                 CLI_CORE | {"fanojet.bounds", "json"}, id="bounds-json"),
    pytest.param(_cli("catalog"), ALL_BUT_SCHUBERT, id="catalog"),
    pytest.param(_cli("catalog", "verify"), ALL_BUT_SCHUBERT, id="catalog-verify"),
    # The nefvalue bound, adjunction case vi, is the one library use of Fraction.
    pytest.param(_cli("adjunction", "--dim", "3", "--order", "2"),
                 ALL_BUT_SCHUBERT | {"fractions", "decimal"}, id="adjunction"),
    pytest.param(_cli("chern", "--sym", "4", "--paper-formula"),
                 CLI_CORE | {"fractions", "decimal"}, id="chern-paper-formula"),
    # The Schubert ring loads with the first call of lines_class, the one code that needs it.
    pytest.param("from fanojet.lines import CompleteIntersection, lines_class\n"
                 "lines_class(CompleteIntersection(4, (5,)))",
                 {"fanojet", "fanojet.chern", "fanojet.lines", "fanojet.schubert"},
                 id="lines_class"),
])
def test_subcommand_loads_only_what_it_runs(code, loaded):
    assert _loaded_in_fresh_interpreter(code) == loaded


def test_submodule_attribute_in_a_fresh_interpreter():
    loaded = _loaded_in_fresh_interpreter(
        "import fanojet\nassert str(fanojet.chern.sym_top_chern(2)) == '4*c1*c2'"
    )
    assert loaded == {"fanojet", "fanojet.chern"}
