"""fanojet benchmark: one workload, one closed-loop client, every result checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the workload is timed for S seconds of op time and the
end-to-end metrics are printed.  With --trace 1 the separate traced run
wraps the library's public functions and prints the per-layer metrics.
Either way the last line of stdout is the result as one JSON object, and the
exit code is 0 only when every op and every pinned value checked out.
"""

from __future__ import annotations

from time import perf_counter, perf_counter_ns

STARTED = perf_counter()  # set-up time counts from here, before the other imports

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from calibration import Calibration, loop_scale  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7  # fresh interpreters per run; setup_s is their median
FLOOR_PROBES = 5  # spawns per run for cli.spawn_ms and cli.import_ms
TRACE_PASSES = 2  # traced passes, each after an untraced one over the same ops

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "chern.oracle.self_ms": "ms/op",
    "chern.oracle.calls": "count",
    "chern.sym_top_chern.self_ms": "ms/op",
    "chern.cache_hit_ratio": "ratio",
    "chern.terms_out": "count",
    "schubert.from_chern_poly.self_ms": "ms/op",
    "schubert.from_chern_poly.calls": "count",
    "schubert.mul.self_ms": "ms/op",
    "schubert.mul.calls": "count",
    "schubert.mul.terms_out": "count",
    "schubert.integrate.calls": "count",
    "lines.count_lines.self_ms": "ms/op",
    "fano.h0_of_twist.self_ms": "ms/op",
    "fano.h0_of_twist.calls": "count",
    "fano.koszul_subsets": "computed_count",
    "fano.analyze.self_ms": "ms/op",
    "bounds.check.self_ms": "ms/op",
    "catalog.verify_all.self_ms": "ms/op",
    "cli.spawn_ms": "ms",
    "cli.import_ms": "ms",
    "cli.run_ms": "ms/op",
    "cli.stdout_bytes": "B/op",
    **{layer + ".errors": "count" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}
# Per-layer values that must repeat exactly on two passes over the same ops.
EXACT = [name for name, unit in PER_LAYER.items() if unit in ("count", "computed_count")]
EXACT += ["chern.cache_hit_ratio", "cli.stdout_bytes"]


def use_checkout_src() -> None:
    """Put the checkout's own sources first on the import path, or fail."""
    src = ROOT / "src"
    if not (src / "fanojet" / "__init__.py").is_file():
        raise SystemExit("perfbench: no fanojet sources under %s" % src)
    sys.path.insert(0, str(src))


def make_workload(name: str, seed: int) -> workloads.Workload:
    use_checkout_src()
    return workloads.WORKLOADS[name](seed, ROOT)


def run_op(wl, item, call) -> tuple[int, int, object, bool]:
    """Time one op; returns (wall_ns, cpu_ns, result, passed its check)."""
    wl.before_op()
    c0, t0 = wl.cpu_ns(), perf_counter_ns()
    try:
        result = call(item)
    except Exception as exc:  # a failed op is counted, and the run goes on
        t1, c1 = perf_counter_ns(), wl.cpu_ns()
        print("perfbench: %r raised %r" % (item, exc), file=sys.stderr)
        return t1 - t0, c1 - c0, None, False
    t1, c1 = perf_counter_ns(), wl.cpu_ns()
    try:
        passed = bool(wl.check(item, result))
    except Exception as exc:  # a malformed result fails its check
        print("perfbench: checking %r raised %r" % (item, exc), file=sys.stderr)
        passed = False
    if not passed:
        print("perfbench: %r failed its check" % (item,), file=sys.stderr)
    return t1 - t0, c1 - c0, result, passed


def measure(wl, seconds: float) -> list[list]:
    """Rounds of the pool until `seconds` of op time; one [input, ns, cpu, ok, scale] per op."""
    index = {item: i for i, item in enumerate(wl.pool)}
    ops, spent, budget = [], 0, seconds * 1e9
    calibration = Calibration(wl.speed_scale)
    while spent < budget:
        for item in wl.order(len(ops) // len(wl.pool)):
            ns, cpu, _result, passed = run_op(wl, item, wl.call)
            ops.append([index[item], ns, cpu, passed, None])
            calibration.add(ops[-1], ns)
            spent += ns
            if spent >= budget:
                break
    calibration.flush()
    return ops


def probe_setup(name: str, seed: int) -> float:
    """Calibrated set-up seconds of a fresh interpreter, counted from its first statement."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    fields = done.stdout.split()
    if done.returncode != 0 or len(fields) != 3 or fields[0] != "ready":
        raise RuntimeError("set-up probe failed with exit code %s" % done.returncode)
    return float(fields[1]) * float(fields[2])


def probe_floor() -> tuple[float, float]:
    """Medians, in ms as measured, of a bare interpreter spawn and of `import fanojet.cli` in a child."""
    env = dict(os.environ, PYTHONPATH="src")
    code = "import time; t = time.perf_counter(); import fanojet.cli; print(time.perf_counter() - t)"
    spawn, imports = [], []
    for _ in range(FLOOR_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True)
        spawn.append((perf_counter() - t0) * 1e3)
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True).stdout
        imports.append(float(out) * 1e3)
    return statistics.median(spawn), statistics.median(imports)


def pins_hold(lib) -> bool:
    """The headline integers, from the library and from the reference routes."""
    for (n, degrees), count in reference.PINNED_LINE_COUNTS.items():
        if reference.lines_on(n, degrees) != ("finite", count):
            return False
        found = lib.lines.count_lines(lib.lines.CompleteIntersection(n, degrees))
        if found.kind != "finite" or found.count != count:
            return False
    if any(lib.schubert.plucker_degree(m) != reference.catalan(m - 2) for m in range(2, 14)):
        return False
    return lib.catalog.verify_all().ok


def timed_run(wl, seconds: float) -> dict:
    ops = measure(wl, seconds)
    peak_rss = wl.peak_rss_mib()
    latencies = [ns * scale / 1e6 for _i, ns, _cpu, _ok, scale in ops]
    per_input: dict[int, list] = {}
    for i, ns, cpu, _ok, scale in ops:
        per_input.setdefault(i, []).append((ns * scale / 1e9, cpu * scale / 1e6))
    # Each input's median over its repeats, so a slow moment weighs on one sample only.
    seconds_each = [statistics.median(s for s, _c in runs) for runs in per_input.values()]
    cpu_each = [statistics.median(c for _s, c in runs) for runs in per_input.values()]
    failed = sum(not ok for _i, _ns, _cpu, ok, _s in ops)
    metrics = {
        "ops_per_s": (1 - failed / len(ops)) * len(seconds_each) / sum(seconds_each),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": (statistics.quantiles(latencies, n=10)[8]
                           if len(latencies) > 1 else latencies[0]),
        "cpu_ms_per_op": statistics.fmean(cpu_each),
        "setup_s": statistics.median(probe_setup(wl.name, wl.seed) for _ in range(SETUP_PROBES)),
        "peak_rss_mib": peak_rss,
    }
    return result(wl, len(ops), failed, pins_hold(wl.lib), metrics, END_TO_END)


def run_pass(wl, items, tracer: Tracer | None) -> dict:
    """One pass over `items` with in-process calls; counts what the traced metrics need."""
    stats = {"failed": 0, "hits": 0, "lookups": 0, "bytes": 0}
    records, calibration = [], Calibration()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.op = index
        wl.before_op()
        hits0, lookups0 = wl.lib.chern_cache_stats()
        ns, _cpu, res, passed = run_op(wl, item, wl.call_in_process)
        hits1, lookups1 = wl.lib.chern_cache_stats()
        records.append([ns, None])
        calibration.add(records[-1], ns)
        stats["failed"] += not passed
        stats["hits"] += hits1 - hits0
        stats["lookups"] += lookups1 - lookups0
        stats["bytes"] += wl.stdout_bytes(res) if passed else 0
    calibration.flush()
    stats["scales"] = [scale for _ns, scale in records]
    stats["ns"] = sum(ns * scale for ns, scale in records)
    return stats


def traced_run(wl) -> dict:
    items = wl.order(0)
    n = len(items)
    plain, traced, spans = [], [], []
    for index in range(TRACE_PASSES):
        plain.append(run_pass(wl, items, None))
        tracer = Tracer()
        tracer.install(wl.lib.modules)
        try:
            stats = run_pass(wl, items, tracer)
        finally:
            tracer.uninstall()
        stats["calls"], stats["self_ns"] = tracer.summary(stats["scales"])
        stats["errors"], stats["counts"] = tracer.errors, tracer.counts
        traced.append(stats)
        spans += [[index] + span for span in tracer.spans]
    spawn_ms, import_ms = probe_floor()
    per_pass = [layer_metrics(wl, s, n) for s in traced]
    metrics = {name: statistics.fmean(m[name] for m in per_pass) for name in PER_LAYER}
    metrics.update({name: per_pass[0][name] for name in EXACT})
    metrics.update(
        {
            "cli.spawn_ms": spawn_ms,
            "cli.import_ms": import_ms,
            "cli.run_ms": sum(p["ns"] for p in plain) / len(plain) / n / 1e6
            if isinstance(wl, workloads.Cli) else 0.0,
            "trace.overhead_ratio": sum(p["ns"] for p in plain) / sum(t["ns"] for t in traced),
        }
    )
    exact = [{name: m[name] for name in EXACT} for m in per_pass]
    repeat = all(e == exact[0] for e in exact)
    if not repeat:
        print("perfbench: per-layer counts differ between passes: %r" % exact, file=sys.stderr)
    write_spans(wl, spans)
    passes = plain + traced
    failed = sum(p["failed"] for p in passes)
    return result(wl, n * len(passes), failed, repeat and pins_hold(wl.lib), metrics, PER_LAYER)


def layer_metrics(wl, stats: dict, n: int) -> dict:
    calls, self_ns = stats["calls"], stats["self_ns"]
    out = {name: 0 for name in PER_LAYER}
    for name in ("chern.oracle", "chern.sym_top_chern", "schubert.from_chern_poly",
                 "schubert.mul", "lines.count_lines", "fano.h0_of_twist", "fano.analyze",
                 "bounds.check", "catalog.verify_all"):
        out[name + ".self_ms"] = self_ns[name] / n / 1e6
    for name in ("chern.oracle", "schubert.from_chern_poly", "schubert.mul",
                 "schubert.integrate", "fano.h0_of_twist"):
        out[name + ".calls"] = calls[name]
    out.update(stats["counts"])
    out.update({layer + ".errors": count for layer, count in stats["errors"].items()})
    if isinstance(wl, workloads.Cli):
        out["cli.errors"] += stats["failed"]
        out["cli.stdout_bytes"] = stats["bytes"] / n
    out["chern.cache_hit_ratio"] = stats["hits"] / stats["lookups"] if stats["lookups"] else 0.0
    return out


def write_spans(wl, spans: list) -> None:
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / ("spans-%s-seed%d.jsonl" % (wl.name, wl.seed))
    with path.open("w") as f:
        f.write('["pass", "name", "start_ns", "end_ns", "parent", "op"]\n')
        for span in spans:
            f.write(json.dumps(span) + "\n")


def result(wl, attempted: int, failed: int, pins_ok: bool, metrics: dict, units: dict) -> dict:
    print("perfbench %s seed=%d: %d ops, %d failed, error_rate %.4g; python %s on %s, %s cpus"
          % (wl.name, wl.seed, attempted, failed, failed / attempted,
             platform.python_version(), platform.platform(), os.cpu_count()))
    return {
        "correct": failed == 0 and pins_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    wl = make_workload(args.workload, args.seed)
    wl.setup()
    if args.setup_probe:
        print("ready", perf_counter() - STARTED, loop_scale())
        return 0
    report = traced_run(wl) if args.trace else timed_run(wl, args.seconds)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
