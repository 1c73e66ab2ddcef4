"""Batch front end.

Subcommands: solve, distance, convolve, verify, table, acceptance.  Each but
acceptance reads one problem config (flat key = value text) and leaves
artifacts in the output directory: field files, whitespace plot tables, and
manifest.txt with the fully resolved config and the command's results,
which main writes once the command returns an exit code.  Exit codes: 0
success, 2 config error, 3 solver non-convergence, 4 verification failure.

The env var SUBINF_THREADS caps BLAS/OpenMP parallelism.  The package's
__init__ applies it before any of its modules imports numpy, so it takes
effect however the package is entered; a value that is not an integer stops
the import with an error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VERIFY = 4


def _int_at_least(low: int):
    """argparse type for an integer option no smaller than low."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return convert


def _positive_float(text: str) -> float:
    """argparse type for a positive, finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="subinf",
        description="Minimizing Lipschitz extensions and infinity-Laplace "
                    "solves on Carnot-Caratheodory grids.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("config", help="problem config file")
        p.add_argument("-o", "--out", default=".", help="output directory")
        p.add_argument("--seed", type=_int_at_least(0), default=None,
                       help="override the config seed")

    p = sub.add_parser("solve", help="run the k-doubling solve, write field + manifest")
    add_common(p)

    p = sub.add_parser("distance", help="Carnot-Caratheodory distances on the grid graph")
    add_common(p)
    p.add_argument("--source", default=None,
                   help="source point as comma-separated coordinates (default: box center)")
    p.add_argument("--target", default=None,
                   help="if given, print the single distance instead of a table")
    p.add_argument("--depth", type=int, default=None,
                   help="bracket depth of the move set")

    p = sub.add_parser("convolve", help="sup/inf convolution of the boundary expression field")
    add_common(p)
    p.add_argument("--eps", type=float, required=True, help="convolution scale")
    p.add_argument("--mode", choices=("sup", "inf"), default="sup")
    p.add_argument("--kernel", choices=("right", "left"), default="right")

    p = sub.add_parser("verify", help="structural checks on a solve")
    add_common(p)
    p.add_argument("--check", required=True,
                   choices=("viscosity", "amle", "subelliptic"))
    p.add_argument("--jets", type=_int_at_least(0), default=64,
                   help="random jets per node (viscosity)")
    p.add_argument("--trials", type=_int_at_least(1), default=None,
                   help="sub-box trials (amle) or samples (subelliptic)")
    p.add_argument("--ratio-tol", type=_positive_float, default=1.1,
                   help="amle: largest admissible energy ratio")

    p = sub.add_parser("table", help="solve and write plot-ready columns")
    add_common(p)
    p.add_argument("--axis", type=int, default=0,
                   help="axis of the extracted line when the domain has 3+ coordinates")

    p = sub.add_parser("acceptance", help="run the acceptance suite")
    add_common(p, needs_config=False)
    p.add_argument("--configs", default=None,
                   help="directory of acceptance configs (default: bundled)")
    p.add_argument("--only", default=None,
                   help="comma-separated criterion names, e.g. A1,A3")
    return ap


def _solve_problem(cfg):
    from . import solver

    return solver.solve(cfg.boundary_data(), cfg.integrand_obj(), cfg.eps, cfg.side,
                        config=cfg.solver)


def _report_entries(report) -> dict:
    """The result lines of a solve manifest: one per LevelReport field and
    level, except k (in the key) and seconds (equal runs write equal
    manifests)."""
    from .solver import LevelReport

    entries = {
        "result.converged": report.converged,
        "result.iterations": sum(lv.iterations for lv in report.levels),
        "result.residual": report.levels[-1].residual,
        "result.message": report.message or "ok",
        "result.start.cg_iterations": report.start_cg_iterations,
    }
    names = [f.name for f in dataclasses.fields(LevelReport)
             if f.name not in ("k", "seconds")]
    for lv in report.levels:
        for name in names:
            value = getattr(lv, name)
            entries[f"result.level.{lv.k}.{name}"] = "none" if value is None else value
    return entries


def _cmd_solve(args, cfg, entries) -> int:
    from . import fieldio

    report = _solve_problem(cfg)
    fieldio.write_field(os.path.join(args.out, "solution.field"), report.solution)
    entries.update(_report_entries(report))
    print(f"solve: residual {report.levels[-1].residual:.3e} after "
          f"{entries['result.iterations']} iterations over "
          f"k = {[lv.k for lv in report.levels]}; "
          f"{'converged' if report.converged else 'NOT converged'}")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _parse_point(text: str, dom, what: str):
    """The coordinates of a lattice point; more than h/2 outside the box is an error."""
    from .errors import ConfigError

    dim = dom.spec.dim
    toks = [t for t in text.replace(",", " ").split() if t]
    try:
        vals = [float(t) for t in toks]
    except ValueError:
        raise ConfigError(f"{what} must be {dim} comma-separated numbers, got {text!r}")
    if len(vals) != dim:
        raise ConfigError(f"{what} must have {dim} coordinates, got {len(vals)}")
    half = 0.5 * dom.h
    if not all(lo - half <= v <= hi + half for v, lo, hi in zip(vals, dom.lower, dom.upper)):
        box = " x ".join(f"[{lo:g}, {hi:g}]" for lo, hi in zip(dom.lower, dom.upper))
        raise ConfigError(f"{what} {text} lies outside the box {box}")
    return vals


def _cmd_distance(args, cfg, entries) -> int:
    import numpy as np

    from . import fieldio, metric

    dom = cfg.domain()
    graph = metric.build_graph(dom, depth=args.depth)
    if args.source is None:
        center = [(l + u) / 2.0 for l, u in zip(cfg.lower, cfg.upper)]
    else:
        center = _parse_point(args.source, dom, "--source")
    src = dom.nearest_node(center)
    entries["distance.source_node"] = src
    entries["distance.depth"] = graph.depth
    entries["distance.edges"] = graph.n_edges
    if args.target is not None:
        tgt = dom.nearest_node(_parse_point(args.target, dom, "--target"))
        d = metric.cc_distance(graph, src, tgt)
        entries["distance.target_node"] = tgt
        entries["distance.value"] = float(d)
        print(f"distance: d_cc = {d:.10g} between nodes {src} and {tgt}")
    else:
        dists = metric.cc_distances_from(graph, src)
        nodes = dom.nonexterior_flat
        cols = [dom.coords[nodes][:, j] for j in range(dom.spec.dim)]
        cols.append(dists[nodes])
        names = [f"x{j}" for j in range(dom.spec.dim)] + ["d_cc"]
        fieldio.write_table(os.path.join(args.out, "distance.txt"), cols, names,
                            title=f"cc distances from node {src} ({cfg.geometry})")
        finite = dists[nodes][np.isfinite(dists[nodes])]
        entries["distance.max"] = float(finite.max()) if finite.size else float("nan")
        print(f"distance: wrote {len(nodes)} rows to distance.txt "
              f"(max {entries['distance.max']:.6g})")
    return EXIT_OK


def _cmd_convolve(args, cfg, entries) -> int:
    import numpy as np

    from . import convolution, fieldio

    dom = cfg.domain()
    u = cfg.boundary_field(dom)
    fn = (convolution.sup_convolution if args.mode == "sup"
          else convolution.inf_convolution)
    rep = fn(u, args.eps, kernel=args.kernel)
    fieldio.write_field(os.path.join(args.out, f"{args.mode}_convolution.field"), rep.field)
    gap = float(np.max(np.abs(rep.field.values[rep.shrunken] - u.values[rep.shrunken]))) \
        if rep.shrunken.size else float("nan")
    entries["convolve.mode"] = args.mode
    entries["convolve.kernel"] = args.kernel
    entries["convolve.eps"] = float(args.eps)
    entries["convolve.r0"] = rep.r0
    entries["convolve.shrunken_nodes"] = int(rep.shrunken.size)
    entries["convolve.shrunken_gap"] = gap
    if rep.shrunken.size:
        print(f"convolve: {args.mode} at eps={args.eps:g}, gap {gap:.6g} "
              f"on {rep.shrunken.size} shrunken nodes")
    else:
        print(f"convolve: {args.mode} at eps={args.eps:g}; shrunken domain "
              f"is empty at this resolution (r0 = {rep.r0:.6g})")
    return EXIT_OK


def _cmd_verify(args, cfg, entries) -> int:
    from . import verify

    f = cfg.integrand_obj()
    entries["verify.check"] = args.check

    if args.check == "subelliptic":
        samples = 1000 if args.trials is None else args.trials
        op = _operator_for(cfg, f)
        m = cfg.spec().horizontal_dim
        ok, worst = verify.subelliptic_check(op, samples, m=m, seed=cfg.seed)
        entries["verify.samples"] = samples
        entries["verify.worst_margin"] = worst
        entries["verify.passed"] = ok
        print(f"subelliptic: worst monotonicity margin {worst:.3e} "
              f"over {samples} samples -> {'ok' if ok else 'FAIL'}")
        return EXIT_OK if ok else EXIT_VERIFY

    report = _solve_problem(cfg)
    entries.update(_report_entries(report))
    if not report.converged:
        print(f"verify: solve did not converge ({report.message})", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    u = report.solution

    if args.check == "viscosity":
        op = _operator_for(cfg, f)
        rep = verify.viscosity_check(u, op, jet_samples=args.jets, seed=cfg.seed)
        entries["verify.jets"] = args.jets
        entries["verify.candidates"] = rep.candidates
        entries["verify.tol"] = rep.tol
        entries["verify.worst_subsolution"] = rep.worst_subsolution_violation
        entries["verify.worst_supersolution"] = rep.worst_supersolution_violation
        entries["verify.jets_above"] = rep.jets_above
        entries["verify.jets_below"] = rep.jets_below
        entries["verify.passed"] = rep.passed
        print(f"viscosity: sub {rep.worst_subsolution_violation:.3e} / "
              f"super {rep.worst_supersolution_violation:.3e} vs tol {rep.tol:.3e} "
              f"({rep.jets_above}+{rep.jets_below} certified jets) "
              f"-> {'ok' if rep.passed else 'FAIL'}")
        return EXIT_OK if rep.passed else EXIT_VERIFY

    trials = 20 if args.trials is None else args.trials
    worst = verify.amle_check(u, f, trials, config=cfg.solver, seed=cfg.seed)
    ok = worst <= args.ratio_tol
    entries["verify.trials"] = trials
    entries["verify.worst_ratio"] = worst
    entries["verify.ratio_tol"] = float(args.ratio_tol)
    entries["verify.passed"] = ok
    print(f"amle: worst sub-box energy ratio {worst:.6f} "
          f"(allowed {args.ratio_tol:g}) over {trials} trials -> "
          f"{'ok' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


def _operator_for(cfg, f):
    from . import verify

    if cfg.eps > 0:
        ctor = (verify.OperatorSpec.aux_lower if cfg.side == "lower"
                else verify.OperatorSpec.aux_upper)
        return ctor(f, cfg.eps)
    if f.alpha == 2.0:
        return verify.OperatorSpec.infinity_laplacian()
    return verify.OperatorSpec.aronsson(f)


def _cmd_table(args, cfg, entries) -> int:
    import numpy as np

    from . import fieldio

    dim = cfg.spec().dim
    axis = args.axis
    if not 0 <= axis < dim:
        from .errors import ConfigError

        raise ConfigError(f"--axis must be in [0, {dim - 1}], got {axis}")
    report = _solve_problem(cfg)
    u = report.solution
    dom = u.domain
    nodes = dom.nonexterior_flat
    if dim <= 2:
        cols = [dom.coords[nodes][:, j] for j in range(dim)]
        cols.append(u.values[nodes])
        names = [f"x{j}" for j in range(dim)] + ["u"]
    else:
        mid = [d // 2 for d in dom.dims]
        multi = dom.multi_indices[nodes]
        on_line = np.ones(nodes.size, dtype=bool)
        for j in range(dim):
            if j != axis:
                on_line &= multi[:, j] == mid[j]
        sel = nodes[on_line]
        cols = [dom.coords[sel][:, axis], u.values[sel]]
        names = [f"x{axis}", "u"]
    fieldio.write_table(os.path.join(args.out, "solution.txt"), cols, names,
                        title=f"{cfg.geometry} solve, h = {dom.h:g}")
    entries.update(_report_entries(report))
    print(f"table: wrote {len(cols[0])} rows ({' '.join(names)})")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _cmd_acceptance(args) -> int:
    from . import acceptance

    only = None
    if args.only:
        only = [tok.strip().upper() for tok in args.only.split(",") if tok.strip()]
    results = acceptance.run_suite(config_dir=args.configs, only=only,
                                   out_dir=args.out)
    print(acceptance.format_table(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


_HANDLERS = {
    "solve": _cmd_solve,
    "distance": _cmd_distance,
    "convolve": _cmd_convolve,
    "verify": _cmd_verify,
    "table": _cmd_table,
    "acceptance": _cmd_acceptance,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error (code 2) or --help
        return exc.code
    from .errors import SubinfError

    try:
        handler = _HANDLERS[args.command]
        if args.command == "acceptance":  # no config, so no manifest
            return handler(args)
        return _run(handler, args)
    except (SubinfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _run(handler, args) -> int:
    """Load the config, run handler(args, cfg, entries), then write the manifest.

    The handler adds its own lines to the entries; a handler that raises
    leaves no manifest.
    """
    from . import __version__, config, fieldio

    cfg = config.load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    entries = cfg.resolved_items()
    entries["command"] = args.command
    entries["version"] = __version__
    code = handler(args, cfg, entries)
    fieldio.write_manifest(os.path.join(args.out, "manifest.txt"), entries)
    return code


if __name__ == "__main__":
    sys.exit(main())
