"""The benchmark's four workloads: seeded inputs, the timed call, and its check.

Each workload owns a pool of inputs drawn from the seed.  A round runs the
whole pool once, in a seeded order, so every round does the same work; the
timed run repeats rounds until its time is up.  One process, one client, a
closed loop: the next op starts only after the previous one returned.

The library is reached only through module attributes at call time, so the
traced run's wrappers (see tracing.py) see every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction
from math import prod
from pathlib import Path

import calibration
import reference

MODULES = ("schubert", "chern", "lines", "fano", "bounds", "catalog")


class Library:
    """The fanojet modules of the checkout, and the caches they define."""

    def __init__(self, with_cli: bool = False):
        names = MODULES + (("cli",) if with_cli else ())
        self.modules = {n: importlib.import_module("fanojet." + n) for n in names}
        self.__dict__.update(self.modules)
        caches = {}
        for module in self.modules.values():
            for value in vars(module).values():
                owner = getattr(value, "__module__", None) or ""
                if owner.startswith("fanojet") and callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
        self.caches = list(caches.values())
        self.chern_caches = [f for f in self.caches if f.__module__ == "fanojet.chern"]

    def clear_caches(self) -> None:
        for f in self.caches:
            f.cache_clear()

    def chern_cache_stats(self) -> tuple[int, int]:
        """(hits, hits + misses) summed over the caches of `chern`."""
        infos = [f.cache_info() for f in self.chern_caches]
        hits = sum(i.hits for i in infos)
        return hits, hits + sum(i.misses for i in infos)


class Workload:
    name = ""
    cold_caches = False  # clear every fanojet cache before each op

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.pool = self.make_pool(random.Random("%s:%d" % (self.name, seed)))
        self.lib: Library | None = None

    def make_pool(self, rng: random.Random) -> list[tuple]:
        raise NotImplementedError

    def order(self, round_index: int) -> list[tuple]:
        items = list(self.pool)
        random.Random("%s:%d:%d" % (self.name, self.seed, round_index)).shuffle(items)
        return items

    def setup(self) -> None:
        self.lib = Library()

    def before_op(self) -> None:
        if self.cold_caches:
            self.lib.clear_caches()

    def call(self, item: tuple):
        lib = self.lib
        kind = item[0]
        if kind == "lines":
            return lib.lines.count_lines(lib.lines.CompleteIntersection(item[1], item[2]))
        if kind == "h0":
            return lib.fano.h0_of_twist(lib.lines.CompleteIntersection(item[1], item[2]), item[3])
        if kind == "verify_all":
            return lib.catalog.verify_all()
        if kind == "bounds":
            return lib.bounds.check(lib.bounds.PolarizedInvariants(*item[1:]))
        raise ValueError("unknown op %r" % (kind,))

    def call_in_process(self, item: tuple):
        """The op as the traced run makes it; the same as `call` for library ops."""
        return self.call(item)

    def check(self, item: tuple, result) -> bool:
        kind = item[0]
        if kind == "lines":
            return _line_count_matches(result, reference.lines_on(item[1], item[2]))
        if kind == "h0":
            return result == reference.h0(*item[1:])
        if kind == "verify_all":
            return result.ok and result.checked == 12 and not result.failures
        if kind == "bounds":
            want = reference.bounds_verdict(*item[1:])
            return (
                result.degree_ok == want["degree_ok"]
                and result.sections_ok == want["sections_ok"]
                and result.borderline_consistent == want["borderline_consistent"]
                and result.ok == want["ok"]
            )
        return False

    def speed_scale(self) -> float:
        """Factor to the reference speed, measured now (see calibration.py)."""
        return calibration.loop_scale()

    def cpu_ns(self) -> int:
        return time.process_time_ns()

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def stdout_bytes(self, result) -> int:
        return 0

    def smallest(self) -> tuple:
        return min(self.pool)


def _line_count_matches(lc, want: tuple) -> bool:
    if want[0] == "finite":
        return lc.kind == "finite" and lc.count == want[1]
    if want[0] == "family":
        return lc.kind == "family" and lc.family_dim == want[1] and lc.nonempty == want[2]
    return lc.kind == "empty"


class LinesHyper(Workload):
    """count_lines on CI(2N-3) in P^N, N in [60, 140), every cache cold.

    One large Sym^d class per op makes the Chern layer, and its
    splitting-principle check, most of the work.
    """

    name = "lines-hyper"
    cold_caches = True

    def make_pool(self, rng):
        # 40 strata of width 2, so every seed spreads N evenly over the range.
        pool = []
        for k in range(40):
            n = 60 + 2 * k + rng.randrange(2)
            pool.append(("lines", n, (2 * n - 3,)))
        return pool


class CiSurvey(Workload):
    """count_lines on complete intersections of many degrees in 3..12, warm caches.

    The hypersurface count is chosen so that the expected family dimension is
    -1, 0 or +1: empty cases, finite counts and families in equal shares.
    Long chains of Pieri products over small classes make Schubert
    multiplication most of the work.
    """

    name = "ci-survey"

    def make_pool(self, rng):
        # 20 strata of N, each with every expected dimension in {-1, 0, 1},
        # once with a repeated degree and once with mixed ones.  The repeated
        # degree runs through 3..12 across the strata, so the mix of class
        # sizes is the same for every seed.
        pool = []
        for k in range(20):
            for shift, delta in enumerate((-1, 0, 1)):
                for base in (3 + (k + 3 * shift) % 10, None):
                    n = 60 + 4 * k + rng.randrange(4)
                    degrees = _degrees_with_weight(rng, 2 * n - 2 - delta, base)
                    pool.append(("lines", n, degrees))
        return pool

    def setup(self):
        super().setup()
        for d in range(3, 13):
            self.lib.chern.sym_top_chern(d)


def _degrees_with_weight(rng: random.Random, weight: int, base: int | None) -> tuple[int, ...]:
    """Degrees in 3..12 with sum(d + 1) == weight (weight >= 4).

    Repeats `base` and closes with one or two other degrees; with no base,
    every degree is drawn on its own.
    """
    degrees = []
    while weight > 13:
        if base is not None and weight - (base + 1) >= 4:
            step = base + 1
        else:
            step = rng.randint(4, min(13, weight - 4))
        degrees.append(step - 1)
        weight -= step
    degrees.append(weight - 1)
    rng.shuffle(degrees)
    return tuple(degrees)


class Sections(Workload):
    """h0_of_twist over r in [10, 17] and t in [0, 6], plus verify_all and bounds.check.

    The 2^r Koszul sum is the work; no other workload measures `fano`.
    Caches are warm: set-up runs verify_all once.
    """

    name = "sections"

    def make_pool(self, rng):
        pool = []
        for r in range(10, 18):
            for t in range(7):
                n = rng.randint(r + 1, 40)
                pool.append(("h0", n, tuple(rng.randint(2, 6) for _ in range(r)), t))
        pool.append(("verify_all",))
        pool += [("bounds", *_bounds_case(rng)) for _ in range(8)]
        return pool

    def setup(self):
        super().setup()
        self.lib.catalog.verify_all()

    def smallest(self):
        return min(item for item in self.pool if item[0] == "h0")


def _bounds_case(rng: random.Random) -> tuple:
    """(n, k, degree, h0) near the k-very ample floors, on both sides of them."""
    n, k = rng.randint(1, 5), rng.randint(2, 5)
    deg = max(1, 2 ** n + k - 2 + rng.randint(-2, 2))
    sec = 2 * n + k - 1
    return n, k, deg, rng.choice([None, sec - 1, sec, sec + 1])


# Pinned facts of the classification, used to check `catalog` listings:
# (dimension, k_very_ample) of its twelve entries.
CATALOG_ROWS = [(3, 2)] * 8 + [(3, 3), (3, 4), (4, 2), (5, 2)]

# Adjunction outcomes admitted by (n, k), read off the table's constraints.
ADJUNCTION_CASES = {
    (3, 2): ["i", "ii", "iv", "v", "vi", "reduction", "2"],
    (3, 3): ["ii", "vi", "reduction"],
    (3, 4): ["vi", "reduction"],
    (4, 2): ["iii", "vi", "vii", "reduction", "1"],
    (4, 3): ["reduction", "1"],
    (5, 2): ["vi", "reduction", "1"],
    (6, 2): ["reduction", "1"],
}

README_EXAMPLES = [
    ("cli", "lines", (4, (5,)), False),
    ("cli", "lines", (4, (3,)), False),
    ("cli", "fano-ci", (4, (3,)), False),
    ("cli", "fano-ci", (3, ()), False),
    ("cli", "bounds", (3, 2, 7, None), False),
    ("cli", "catalog", (None, 2), False),
    ("cli", "catalog-verify", (), False),
    ("cli", "adjunction", (4, 2), False),
    ("cli", "chern", (4, True), False),
]


class Cli(Workload):
    """`python -m fanojet.cli <argv>` as a fresh process per op.

    The argv corpus covers all six subcommands, text and --json, on small
    inputs, and about a tenth of invalid argv that must exit 2.  Spawn and
    import dominate; the compute is microseconds.
    """

    name = "cli"
    cold_caches = True  # matters only in-process: each CLI process starts cold

    def make_pool(self, rng):
        seeded = [("lines", nd) for nd in reference.PINNED_LINE_COUNTS if nd != (4, (5,))]
        for _ in range(6):
            n = rng.randint(3, 9)
            r = rng.randint(1, min(3, n - 1))
            seeded.append(("lines", (n, tuple(rng.randint(1, 5) for _ in range(r)))))
        for _ in range(4):
            n = rng.randint(2, 8)
            r = rng.randint(0, min(2, n - 1))
            seeded.append(("fano-ci", (n, tuple(rng.randint(1, 4) for _ in range(r)))))
        seeded.append(("bounds", (rng.randint(1, 5), rng.randint(2, 5), None, None)))
        seeded += [("bounds", _bounds_case(rng)) for _ in range(4)]
        filters = [(None, None), (3, None), (None, 2), (3, 2), (4, None), (None, 3), (5, 2)]
        seeded += [("catalog", f) for f in rng.sample(filters, 3)]
        seeded.append(("catalog-verify", ()))
        seeded += [("adjunction", nk) for nk in rng.sample(sorted(ADJUNCTION_CASES), 3)]
        for _ in range(4):
            seeded.append(("chern", (rng.randint(1, 12), rng.random() < 0.5)))
        pool = list(README_EXAMPLES)
        pool += [("cli", sub, params, i % 2 == 0) for i, (sub, params) in enumerate(seeded)]
        invalid = [
            ("lines", "--ambient", str(rng.randint(3, 9)), "--degrees", "x"),
            ("lines", "--ambient", "3", "--degrees", "2,2,2"),
            ("lines", "--ambient", str(rng.randint(3, 9))),
            ("bounds", "--dim", str(rng.randint(1, 5)), "--order", "1"),
            ("adjunction", "--dim", "2", "--order", str(rng.randint(2, 4))),
            ("chern", "--sym", "0"),
            ("frobnicate",),
        ]
        pool += [("cli", "invalid", argv, rng.random() < 0.5) for argv in rng.sample(invalid, 4)]
        return pool

    def setup(self):
        # Importing the package here also writes its bytecode in a fresh checkout,
        # so no timed process pays for compiling it.
        self.lib = Library(with_cli=True)
        self.env = dict(os.environ, PYTHONPATH="src")
        self._validator = None

    def call(self, item):
        done = subprocess.run(
            [sys.executable, "-m", "fanojet.cli", *argv_for(item)],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return done.returncode, done.stdout, done.stderr

    def call_in_process(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lib.cli.run(argv_for(item))
        return code, out.getvalue(), err.getvalue()

    def speed_scale(self):
        # A CLI op is mostly interpreter start-up, which a Python loop does not track.
        return calibration.spawn_scale()

    def cpu_ns(self):
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return round((usage.ru_utime + usage.ru_stime) * 1e9)

    def peak_rss_mib(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def stdout_bytes(self, result):
        return len(result[1].encode())

    def smallest(self):
        return README_EXAMPLES[0]

    def check(self, item, result):
        _, sub, params, as_json = item
        code, out, err = result
        if sub == "invalid":
            return code == 2 and out == "" and err != ""
        if code != 0:
            return False
        if not as_json:
            return TEXT_CHECKS[sub](params, out.splitlines())
        try:
            report = json.loads(out)
        except ValueError:
            return False
        if any(True for _ in self.validator().iter_errors(report)):
            return False
        return JSON_CHECKS[sub](params, report["result"])

    def validator(self):
        if self._validator is None:
            import jsonschema

            schema = json.loads((self.root / "src/fanojet/report_schema.json").read_text())
            self._validator = jsonschema.Draft202012Validator(schema)
        return self._validator


def argv_for(item: tuple) -> list[str]:
    _, sub, params, as_json = item
    if sub == "invalid":
        argv = list(params)
    elif sub in ("lines", "fano-ci"):
        n, degrees = params
        argv = [sub, "--ambient", str(n)]
        if degrees:
            argv += ["--degrees", ",".join(map(str, degrees))]
    elif sub == "bounds":
        n, k, deg, h0 = params
        argv = ["bounds", "--dim", str(n), "--order", str(k)]
        argv += ["--degree", str(deg)] if deg is not None else []
        argv += ["--h0", str(h0)] if h0 is not None else []
    elif sub == "catalog":
        dim, k = params
        argv = ["catalog"]
        argv += ["--dim", str(dim)] if dim is not None else []
        argv += ["--k", str(k)] if k is not None else []
    elif sub == "catalog-verify":
        argv = ["catalog", "verify"]
    elif sub == "adjunction":
        argv = ["adjunction", "--dim", str(params[0]), "--order", str(params[1])]
    else:
        argv = ["chern", "--sym", str(params[0])] + (["--paper-formula"] if params[1] else [])
    return argv + (["--json"] if as_json else [])


# ---- expected CLI outputs, from the reference routes and pinned tables ----


def _lines_of(n, degrees):
    want = reference.lines_on(n, degrees) if degrees else None
    if want is None:  # P^N: its lines form all of G(2, N+1)
        want = ("family", 2 * (n - 1), True) if n >= 2 else ("finite", 1)
    return want


def _line_count_json(want):
    if want[0] == "finite":
        return {"kind": "finite", "count": str(want[1])}
    if want[0] == "family":
        return {"kind": "family", "family_dim": str(want[1]), "nonempty": want[2]}
    return {"kind": "empty"}


def _line_count_text(want):
    if want[0] == "finite":
        return "finite count %d" % want[1]
    if want[0] == "family":
        return "%d-dimensional family (%s)" % (want[1], "nonempty" if want[2] else "possibly empty")
    return "empty"


def _fano(n, degrees):
    total = sum(degrees)
    dim = n - len(degrees)
    k = n + 1 - total
    jet = None
    if total <= n and (dim >= 2 or not (n == 2 and degrees == (2,))):
        jet = k
    return total <= n, dim, jet, k ** dim * prod(degrees)


def _catalog_count(dim, k):
    return sum(1 for (n, kva) in CATALOG_ROWS if dim in (None, n) and k in (None, kva))


_TERM = re.compile(r"^c([12])(?:\^(\d+))?$")


def parse_chern(text: str) -> dict | None:
    """{(i, j): coeff} from the library's text form, e.g. '16*c1^2*c2 - c2^2'."""
    terms: dict = {}
    for part in text.replace(" - ", " + -").split(" + "):
        coeff, i, j = 1, 0, 0
        for factor in part.split("*"):
            match = _TERM.match(factor)
            if match is None:
                try:
                    coeff *= int(factor)
                except ValueError:
                    return None
            elif match.group(1) == "1":
                i += int(match.group(2) or 1)
            else:
                j += int(match.group(2) or 1)
        terms[(i, j)] = terms.get((i, j), 0) + coeff
    return terms


def _chern_json_terms(rows) -> dict:
    return {(int(t["c1_exp"]), int(t["c2_exp"])): int(t["coeff"]) for t in rows}


def _paper_scale(d):
    return Fraction((d + 1) ** 2, d * d)


def _json_lines(params, res):
    n, degrees = params
    want = reference.lines_on(n, degrees)
    through = n - sum(degrees) - 1 if n > sum(degrees) else None
    return (
        res["line_count"] == _line_count_json(want)
        and res["expected_family_dim"] == str(reference.expected_family_dim(n, degrees))
        and res["family_through_point"] == (None if through is None else str(through))
    )


def _text_lines(params, lines):
    return "result: %s" % _line_count_text(reference.lines_on(*params)) in lines


def _json_fano(params, res):
    fano, dim, jet, antideg = _fano(*params)
    return (
        res["is_fano"] == fano
        and res["dim"] == str(dim)
        and res["jet_order"] == (None if jet is None else str(jet))
        and res["anticanonical_degree"] == str(antideg)
        and res["line_family"] == _line_count_json(_lines_of(*params))
    )


def _text_fano(params, lines):
    fano, dim, jet, antideg = _fano(*params)
    ok = "anticanonical degree (-K)^%d = %d" % (dim, antideg) in lines
    ok = ok and "line family: %s" % _line_count_text(_lines_of(*params)) in lines
    if jet is not None:
        ok = ok and "-K is %d-jet ample, not %d-spanned" % (jet, jet + 1) in lines
    return ok


def _json_bounds(params, res):
    want = reference.bounds_verdict(*params)
    return all(
        res[key] == (str(value) if key.startswith("min_") else value)
        for key, value in want.items()
    )


def _text_bounds(params, lines):
    n, k, deg, _h0 = params
    want = reference.bounds_verdict(*params)
    head = "n = %d, k = %d: require L^n >= %d and h0(L) >= %d" % (
        n, k, want["min_degree"], want["min_sections"])
    if not lines or lines[0] != head:
        return False
    return deg is None or "verdict: %s" % ("pass" if want["ok"] else "fail") in lines


def _json_catalog(params, res):
    dim, k = params
    rows = res["entries"]
    return (
        res["count"] == str(_catalog_count(dim, k)) == str(len(rows))
        and all(dim in (None, int(e["dim"])) and k in (None, int(e["k_very_ample"])) for e in rows)
    )


def _text_catalog(params, lines):
    count = _catalog_count(*params)
    return bool(lines) and lines[0] == "%d entries" % count and len(lines) == count + 1


def _json_verify(_params, res):
    return res == {"checked": "12", "ok": True, "failures": []}


def _text_verify(_params, lines):
    return lines == ["verified 12 catalog entries: all consistent"]


def _json_adjunction(params, res):
    return [c["case_id"] for c in res["cases"]] == ADJUNCTION_CASES[params]


def _text_adjunction(params, lines):
    ids = [line.split()[1] for line in lines[1:] if line.startswith("  case ")]
    return ids == ADJUNCTION_CASES[params]


def _json_chern(params, res):
    d, paper = params
    terms = _chern_json_terms(res["terms"])
    ok = reference.chern_identity_holds(terms, d) and parse_chern(res["top_chern"]) == terms
    if paper:
        alt = res.get("alternative") or {}
        ok = ok and reference.chern_identity_holds(
            _chern_json_terms(alt.get("terms", [])), d, _paper_scale(d))
        ok = ok and alt.get("ratio_to_canonical") == str(_paper_scale(d))
    return ok


def _text_chern(params, lines):
    d, paper = params
    head = "top Chern class of Sym^%d F: " % d
    if not lines or not lines[0].startswith(head):
        return False
    terms = parse_chern(lines[0][len(head):])
    ok = terms is not None and reference.chern_identity_holds(terms, d)
    if paper:
        alt_head = "printed closed-form variant (boundary (d+1)^2): "
        if len(lines) != 3 or not lines[1].startswith(alt_head):
            return False
        alt = parse_chern(lines[1][len(alt_head):])
        ok = ok and alt is not None and reference.chern_identity_holds(alt, d, _paper_scale(d))
        ok = ok and lines[2] == "variant = %s * canonical (exact scalar)" % _paper_scale(d)
    return ok


JSON_CHECKS = {
    "lines": _json_lines,
    "fano-ci": _json_fano,
    "bounds": _json_bounds,
    "catalog": _json_catalog,
    "catalog-verify": _json_verify,
    "adjunction": _json_adjunction,
    "chern": _json_chern,
}
TEXT_CHECKS = {
    "lines": _text_lines,
    "fano-ci": _text_fano,
    "bounds": _text_bounds,
    "catalog": _text_catalog,
    "catalog-verify": _text_verify,
    "adjunction": _text_adjunction,
    "chern": _text_chern,
}

WORKLOADS = {w.name: w for w in (Cli, LinesHyper, CiSurvey, Sections)}
