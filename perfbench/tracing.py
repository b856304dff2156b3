"""Spans around the calls into fanojet's public functions, for the traced run only.

`Tracer.install` replaces every fanojet module attribute bound to a target
function with a wrapper, and `uninstall` puts the originals back.  Untraced
runs never create a Tracer.  Spans stay in memory as
[name, start_ns, end_ns, parent_index, op_id] and are written out at the end.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter_ns

# (module, attribute, span name); a span's layer is the first part of its name.
TARGETS = (
    ("chern", "sym_top_chern_oracle", "chern.oracle"),
    ("chern", "sym_top_chern", "chern.sym_top_chern"),
    ("schubert", "from_chern_poly", "schubert.from_chern_poly"),
    ("schubert", "mul", "schubert.mul"),
    ("schubert", "integrate", "schubert.integrate"),
    ("lines", "count_lines", "lines.count_lines"),
    ("fano", "h0_of_twist", "fano.h0_of_twist"),
    ("fano", "analyze", "fano.analyze"),
    ("bounds", "check", "bounds.check"),
    ("catalog", "verify_all", "catalog.verify_all"),
    ("cli", "run", "cli.run"),
)
LAYERS = ("schubert", "chern", "lines", "fano", "bounds", "catalog", "cli")
COUNTS = ("chern.terms_out", "schubert.mul.terms_out", "fano.koszul_subsets")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.errors = Counter(dict.fromkeys(LAYERS, 0))
        self.counts = Counter(dict.fromkeys(COUNTS, 0))
        self._patches: list[tuple] = []

    def install(self, modules: dict) -> None:
        """Wrap each target found in `modules` ({name: module}) wherever it is bound."""
        for module_name, attr, span_name in TARGETS:
            fn = getattr(modules.get(module_name), attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(span_name, fn)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, key, fn))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patches):
            setattr(module, key, fn)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        layer = name.split(".")[0]
        info = getattr(fn, "cache_info", None) if name == "chern.sym_top_chern" else None

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0, 0, self.stack[-1] if self.stack else -1, self.op]
            self.spans.append(span)
            self.stack.append(index)
            misses = info().misses if info else 0
            span[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                span[2] = perf_counter_ns()
                self.stack.pop()
            self._count(name, args, out, info is None or info().misses > misses)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, args: tuple, out, computed: bool) -> None:
        if name == "chern.sym_top_chern" and computed:
            self.counts["chern.terms_out"] += len(out.terms)
        elif name == "schubert.mul":
            self.counts["schubert.mul.terms_out"] += len(out.terms)
        elif name == "fano.h0_of_twist":
            # computed from the input, not observed: the Koszul sum has 2^r subsets
            self.counts["fano.koszul_subsets"] += 2 ** len(args[0].degrees)

    def summary(self, scales: list[float]) -> tuple[Counter, Counter]:
        """(calls, self_ns) per span name; self time excludes child spans.

        Each span's self time is multiplied by the calibration scale of its op.
        """
        child_ns = Counter()
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, self_ns = Counter(), Counter()
        for index, (name, start, end, _parent, op) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += (end - start - child_ns[index]) * scales[op]
        return calls, self_ns
