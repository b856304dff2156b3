"""The `fanojet` package surface: its public names, what importing it loads, the syntax
floor of its declared Python, and its promise that the public functions are safe to call
from several threads."""

import ast
import importlib
import json
import os
import subprocess
import sys
import threading
from functools import partial
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
SRC = str(Path(fanojet.__file__).resolve().parents[1])  # a child interpreter's PYTHONPATH


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
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_fanojet_loads_no_submodule():
    assert _loaded_in_fresh_interpreter("import fanojet") == {"fanojet"}


def test_oracles_load_no_library_module():
    # The oracles, and the benchmark's reference routes that they import, check the library
    # by other routes, so they may not run its code; the library stays importable here.
    root = Path(__file__).resolve().parents[1]
    code = "import sys\nsys.path[:0] = [%r, %r]\nimport oracles" % (
        str(root / "tests"), str(root / "perfbench"))
    assert not {m for m in _loaded_in_fresh_interpreter(code) if m.startswith("fanojet")}


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
    # Adjunction case vi states the nefvalue bound in integers, so no Fraction.
    pytest.param(_cli("adjunction", "--dim", "3", "--order", "2"), ALL_BUT_SCHUBERT,
                 id="adjunction"),
    pytest.param(_cli("chern", "--sym", "4", "--paper-formula"), CLI_CORE,
                 id="chern-paper-formula"),
    # The Schubert ring loads with the first call of lines_class, the one code that needs it.
    pytest.param("from fanojet.lines import CompleteIntersection, lines_class\n"
                 "lines_class(CompleteIntersection(4, (5,)))",
                 {"fanojet", "fanojet.chern", "fanojet.lines", "fanojet.schubert"},
                 id="lines_class"),
])
def test_subcommand_loads_only_what_it_runs(code, loaded):
    assert _loaded_in_fresh_interpreter(code) == loaded


def test_sources_parse_as_the_declared_floor_python():
    # pyproject.toml declares requires-python >= 3.10.  This checks syntax only: a name that
    # 3.10's standard library lacks still passes.
    root = Path(__file__).resolve().parents[1]
    files = [p for top in ("src", "tests", "perfbench") for p in sorted((root / top).rglob("*.py"))]
    assert {p.relative_to(root).parts[0] for p in files} == {"src", "tests", "perfbench"}
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_submodule_attribute_in_a_fresh_interpreter():
    loaded = _loaded_in_fresh_interpreter(
        "import fanojet\nassert str(fanojet.chern.sym_top_chern(2)) == '4*c1*c2'"
    )
    assert loaded == {"fanojet", "fanojet.chern"}


def _mixed_pool_on_four_threads():
    # Cold Sym^d classes (so the oracle runs), line counts, the catalog check and
    # `analyze`, dealt to four threads that start together and switch every 1 us.  Threads
    # that miss sym_top_chern's cache together, here on the cubic's class, each compute
    # and check it, since functools.cache does not lock; the values are equal.  The count
    # over 36 12s and 18 6s (delta = 0) squares both classes and multiplies by each; all
    # four threads start on it, so that they run both product loops on equal operands at
    # the same time.  It is three times the length at which a shared accumulator in one
    # of those loops was still missed in most runs.  Each thread runs it twice: in step,
    # threads that overwrite a shared value often write the same one, and the second
    # count, with the classes warm, runs out of step.
    from fanojet import CompleteIntersection, analyze, count_lines, sym_top_chern, verify_all
    mixed = partial(count_lines, CompleteIntersection(298, (12,) * 36 + (6,) * 18))
    pool = [mixed] * 8 + [*(partial(sym_top_chern, d) for d in range(150, 160)),
            partial(count_lines, CompleteIntersection(60, (3,) * 29)), verify_all,
            partial(analyze, CompleteIntersection(4, (3,))),
            partial(analyze, CompleteIntersection(60, (3, 3, 3, 3)))]
    sym_top_chern.cache_clear()
    serial = [call() for call in pool]
    sym_top_chern.cache_clear()
    threaded, start = [None] * len(pool), threading.Barrier(4)

    def worker(first: int):  # pool[first], pool[first + 4], ...
        start.wait()
        for k in range(first, len(pool), 4):
            try:
                threaded[k] = pool[k]()
            except Exception as error:  # kept, so that the comparison below shows it
                threaded[k] = error

    workers = [threading.Thread(target=worker, args=(first,)) for first in range(4)]
    sys.setswitchinterval(1e-6)
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    differ = {k: value if isinstance(value, Exception) else "differs from the serial run"
              for k, value in enumerate(threaded) if value != serial[k]}
    assert not differ, differ


def test_mixed_pool_on_four_threads_equals_a_serial_run():
    # The pool runs in a child interpreter that is killed at the deadline: a fault that
    # stalls a worker fails the test there, and leaves no thread behind in this process.
    done = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert done.returncode == 0, done.stderr


if __name__ == "__main__":
    _mixed_pool_on_four_threads()
