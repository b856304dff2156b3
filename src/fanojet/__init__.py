"""Exact intersection-theoretic toolkit for lines on complete intersections
and the embedding order of anticanonical polarizations.

Everything is integer or rational arithmetic; there is no floating point
anywhere in the library.  Each module loads on the first use of one of its
names (PEP 562), so `import fanojet` itself imports none of them.
"""

from importlib import import_module

# Each public name, listed once under the module that defines it.
_EXPORTS = {
    "schubert": ("CohomologyElement", "SchubertClass", "from_chern_poly", "integrate", "mul",
                 "plucker_degree", "sigma"),
    "chern": ("ChernPolynomial", "sym_top_chern", "sym_top_chern_oracle", "sym_top_chern_paper"),
    "lines": ("CompleteIntersection", "LineCount", "count_lines", "expected_family_dimension",
              "line_family_through_point", "lines_class"),
    "fano": ("EmbeddingOrderReport", "analyze", "anticanonical_degree", "degree_of_twist",
             "h0_of_twist"),
    "bounds": ("BoundsVerdict", "PolarizedInvariants", "box_product_order", "curve_degree_floor",
               "min_degree", "min_sections", "nefvalue_bound"),
    "catalog": ("AdjunctionOutcome", "CatalogEntry", "CatalogVerification", "adjunction_cases",
                "catalog_as_dicts", "entries", "verify_all"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module behind `name` on first use; a submodule name gives the module."""
    if name in _EXPORTS:
        return import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(import_module("." + _HOME[name], __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
