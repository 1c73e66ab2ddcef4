"""Benchmark of the subinf solver and its check pipeline.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload plane-aronsson --seed 0 --seconds 35 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):

    plane-aronsson  subinf solve, euclidean:2, Aronsson's exact solution
    heis-xy         subinf solve, heisenberg1, x*y data
    audit           convolution, metric and verify layers on the A5 cone

A run generates the seeded inputs, measures set-up in fresh interpreters,
then repeats the workload's timed call until ``--seconds`` are used up
(at least ``MIN_PASSES`` times) and checks every pass's outputs.  Pass
times are normalised to a nominal machine speed by ``probe.py``.  With
``--trace 0`` it reports the end-to-end metrics, medians over the passes.
With ``--trace 1`` it alternates untraced and traced passes and reports
per-layer figures per traced pass, plus the tracing overhead; the spans
are written to ``.perfbench/trace-<workload>-s<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it repeat every metric by name and unit, the sample counts, the failed
fraction and the machine and library versions.

The program is imported from ``src/`` of the checkout, never from an
installed copy; without ``src/`` the run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# Single-threaded BLAS and OpenMP.  These must be set before numpy loads;
# subinf.cli applies SUBINF_THREADS only inside main(), after the import.
for _var in ("SUBINF_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

MIN_PASSES = 3
SETUP_SAMPLES = 3
LEVELS = (2, 4, 8)

END_TO_END_UNITS = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "solver.warm.extend_nearest_s": "s",
    "solver.warm.graph_lipschitz_s": "s",
    "solver.assembly_s": "s",
    "solver.descend_s": "s",
    "solver.descend.self_s": "s",
    **{f"solver.level.{k}.{what}": unit for k in LEVELS
       for what, unit in (("s", "s"), ("iterations", "count"))},
    "solver.line_search_s": "s",
    "solver.line_search.self_s": "s",
    "solver.line_search_calls": "count",
    "solver.line_eval_s": "s",
    "solver.line_eval_calls": "count",
    "solver.line_evals_per_step": "ratio",
    "solver.value_grad_s": "s",
    "solver.value_grad_calls": "count",
    "solver.direction_state_s": "s",
    "solver.iterations": "count",
    "solver.residual": "1",
    "solver.sup_error": "1",
    "config.load_s": "s",
    "fieldio.write_s": "s",
    "fieldio.read_s": "s",
    "convolution.plane.kernel_bound_s": "s",
    "convolution.heis.kernel_bound_s": "s",
    "convolution.plane.sup_s": "s",
    "convolution.heis.sup_s": "s",
    "convolution.kernel_pairs": "count",
    "metric.build_graph_s": "s",
    "metric.dijkstra_s": "s",
    "metric.edges": "count",
    "verify.viscosity_s": "s",
    "verify.jets_certified": "count",
    "trace.norm_wall_s": "s",
    "trace.norm_traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("plane-aronsson", "heis-xy", "audit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is the smoke-test lattice size")
    ap.add_argument("--setup-only", action="store_true",
                    help="generate and load the inputs, then exit (one set-up sample)")
    return ap.parse_args(argv)


def _import_program():
    """Put src/ and this directory first on sys.path and load the workloads."""
    if not os.path.isfile(os.path.join(SRC, "subinf", "__init__.py")):
        raise SystemExit(f"error: no subinf sources under {SRC}; run from a source checkout")
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import subinf

    if not os.path.abspath(subinf.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: subinf imported from {subinf.__file__}, not {SRC}")
    import inputs
    import probe
    import workloads

    return inputs, probe, workloads


def _setup_samples(args) -> list[float]:
    """Wall time of fresh interpreters that import, generate and load the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
           "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - t0)
    return out


def _install(tracer):
    """Wrap the program's layer boundaries; ``tracer.restore()`` undoes it."""
    from subinf import config, convolution, fieldio, metric, solver, verify

    def descend_done(counts, args, result):
        # accepted steps: the energy trace holds the start plus one entry
        # per step; the count _descend returns also includes the final
        # iteration whose line search found no descent
        counts[f"solver.level.{args[0].k}.iterations"] += len(result[1]) - 1

    def kernel_rows_done(counts, args, result):
        counts["convolution.kernel_pairs"] += result.shape[0] * result.shape[1]

    def graph_done(counts, args, graph):
        counts["metric.edges"] += graph.n_edges

    def viscosity_done(counts, args, rep):
        counts["verify.jets_certified"] += rep.jets_above + rep.jets_below

    w = tracer.wrap
    w(solver.BoundaryData, "extend_nearest", "solver.warm.extend_nearest")
    w(solver.BoundaryData, "graph_lipschitz", "solver.warm.graph_lipschitz")
    w(solver, "_cell_operators", "solver.assembly")
    w(solver, "_descend", lambda args: f"solver.level.{args[0].k}", descend_done)
    w(solver, "_line_minimize", "solver.line_search")
    w(solver._Objective, "value_grad", "solver.value_grad")
    w(solver._Objective, "direction_state", "solver.direction_state")
    w(solver._Objective, "line_eval", "solver.line_eval")
    w(config, "load_config", "config.load")
    w(fieldio, "write_field", "fieldio.write")
    w(fieldio, "read_field", "fieldio.read")
    w(convolution, "kernel_second_difference_bound", "convolution.kernel_bound")
    w(convolution, "sup_convolution", "convolution.sup")
    w(convolution, "_kernel_rows", "convolution.kernel_rows", kernel_rows_done)
    w(metric, "build_graph", "metric.build_graph", graph_done)
    w(metric, "cc_distances_from", "metric.dijkstra")
    w(verify, "viscosity_check", "verify.viscosity", viscosity_done)


def _layer_metrics(tracer, n: int, stats: dict) -> dict:
    """Per-layer figures per traced pass."""
    agg = tracer.totals()
    c = tracer.counts

    def tot(name, own=False):
        return agg[name][1 if own else 0]

    m = {
        "solver.warm.extend_nearest_s": tot("solver.warm.extend_nearest"),
        "solver.warm.graph_lipschitz_s": tot("solver.warm.graph_lipschitz"),
        "solver.assembly_s": tot("solver.assembly"),
        "solver.descend_s": sum(tot(f"solver.level.{k}") for k in LEVELS),
        "solver.descend.self_s": sum(tot(f"solver.level.{k}", own=True) for k in LEVELS),
        "solver.line_search_s": tot("solver.line_search"),
        "solver.line_search.self_s": tot("solver.line_search", own=True),
        "solver.line_search_calls": c["solver.line_search.calls"],
        "solver.line_eval_s": tot("solver.line_eval"),
        "solver.line_eval_calls": c["solver.line_eval.calls"],
        "solver.value_grad_s": tot("solver.value_grad"),
        "solver.value_grad_calls": c["solver.value_grad.calls"],
        "solver.direction_state_s": tot("solver.direction_state"),
        "config.load_s": tot("config.load"),
        "fieldio.write_s": tot("fieldio.write"),
        "fieldio.read_s": tot("fieldio.read"),
        "convolution.kernel_pairs": c["convolution.kernel_pairs"],
        "metric.build_graph_s": tot("metric.build_graph"),
        "metric.dijkstra_s": tot("metric.dijkstra"),
        "metric.edges": c["metric.edges"],
        "verify.viscosity_s": tot("verify.viscosity"),
        "verify.jets_certified": c["verify.jets_certified"],
        "trace.unattributed_s": sum(tot(name, own=True)
                                    for name in ("pass", "audit.plane", "audit.heis")),
    }
    for k in LEVELS:
        m[f"solver.level.{k}.s"] = tot(f"solver.level.{k}")
        m[f"solver.level.{k}.iterations"] = c[f"solver.level.{k}.iterations"]
    for lat in ("plane", "heis"):
        sub = tracer.totals(under="audit." + lat)
        m[f"convolution.{lat}.kernel_bound_s"] = sub["convolution.kernel_bound"][0]
        m[f"convolution.{lat}.sup_s"] = sub["convolution.sup"][0]
    m = {k: v / n for k, v in m.items()}
    calls = m["solver.line_search_calls"]
    m["solver.line_evals_per_step"] = m["solver.line_eval_calls"] / calls if calls else 0.0
    m["solver.iterations"] = stats.get("iterations", 0)
    m["solver.residual"] = stats.get("residual", 0.0)
    m["solver.sup_error"] = stats.get("sup_error", 0.0)
    return m


def _environment(args) -> dict:
    import numpy
    import scipy

    def blas(cfg):
        try:
            return cfg(mode="dicts")["Build Dependencies"]["blas"].get("version", "?")
        except (TypeError, KeyError):
            return "?"

    cpu = "?"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "?")
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "nproc": os.cpu_count(),
        "cpu": cpu, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy.show_config),
        "scipy_openblas": blas(scipy.show_config),
        "threads": {v: os.environ.get(v) for v in
                    ("SUBINF_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _one_pass(wl, state, out_dir: str, timed, tracer, after_pass):
    """One timed call and its checks: (timing or None, errors, stats)."""
    try:
        if tracer is not None:
            _install(tracer)
            try:
                timing, payload = wl.run(state, out_dir, timed, tracer.span)
            finally:
                tracer.restore()
        else:
            timing, payload = wl.run(state, out_dir, timed, _no_span)
        if after_pass is not None:
            after_pass(out_dir)
        errors, stats = wl.check(state, out_dir, payload)
        return timing, errors, stats
    except Exception as exc:  # a crashed pass is a failed pass
        return None, [f"{type(exc).__name__}: {exc}"], {}


def measure(args, after_pass=None) -> dict:
    """Run one benchmark invocation and return its result object.

    ``after_pass(out_dir)``, if given, runs between a pass and its checks;
    the harness tests use it to corrupt an output on purpose.
    """
    inputs, probe, workloads = _import_program()
    from tracer import Tracer

    size = inputs.TINY if args.size == "tiny" else inputs.FULL
    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work)
    tracer = Tracer()
    timings = {False: [], True: []}  # untraced and traced passes
    stats, n_failed, i = {}, 0, 0
    try:
        state = wl.setup(work, args.seed, size)
        if args.setup_only:
            return {}
        setup = _setup_samples(args)
        while True:
            traced = bool(args.trace) and i % 2 == 1
            out_dir = os.path.join(work, f"pass{i}")
            os.makedirs(out_dir)
            timing, errors, stats = _one_pass(wl, state, out_dir,
                                              functools.partial(probe.timed, wl.probe),
                                              tracer if traced else None, after_pass)
            shutil.rmtree(out_dir)
            for e in errors:
                print(f"pass {i} FAILED: {e}", file=sys.stderr)
            n_failed += bool(errors)
            if timing is not None:
                timings[traced].append(timing)
            i += 1
            spent = [t.seconds for t in timings[False] + timings[True]]
            # a traced run stops only after a traced pass, so both kinds count
            enough = i % 2 == 0 and i >= 2 if args.trace else i >= MIN_PASSES
            if enough and (not spent or sum(spent) + statistics.median(spent) > args.seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def norm(traced):
        ts = timings[traced]
        return statistics.median(t.normalised() for t in ts) if ts else 0.0

    if args.trace:
        metrics = _layer_metrics(tracer, max(len(timings[True]), 1), stats)
        metrics["trace.norm_wall_s"] = norm(False)
        metrics["trace.norm_traced_wall_s"] = norm(True)
        metrics["trace.overhead_s"] = (metrics["trace.norm_traced_wall_s"]
                                       - metrics["trace.norm_wall_s"])
        units = PER_LAYER_UNITS
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json"),
                    _environment(args))
    else:
        metrics = {
            "norm_wall_s": norm(False),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    print("env " + json.dumps(_environment(args)))
    for traced, label in ((False, "untraced"), (True, "traced")):
        for t in timings[traced]:
            probes = t.inside + t.around
            print(f"{label} pass: wall {t.seconds:.4f} s, normalised {t.normalised():.4f} s, "
                  f"{len(probes)} probes, mean {1e3 * sum(probes) / len(probes):.4f} ms")
    print(f"set-up seconds: {setup}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    for name in ("iterations", "residual", "sup_error", "exit_code"):
        if name in stats:
            print(f"{name} = {stats[name]!r}")
    print(f"failed_frac = {n_failed}/{i} = {n_failed / i!r}")
    return {
        "correct": n_failed == 0,
        "attempted": i,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _no_span(name):
    return contextlib.nullcontext()


def main(argv=None) -> int:
    args = _parse(argv)
    result = measure(args)
    if args.setup_only:
        return 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
