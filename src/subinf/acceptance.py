"""Acceptance suite: ten structural checks at desk scale.

Each criterion loads its problem(s) from a config directory (the bundled
``acceptance_configs`` by default), measures something the theory pins down
(linearity of the 1D extension, vanishing residuals of exact solutions,
comparison margins, convolution monotonicity, metric equivalence, adjoint
identities, convexity exponents, strictification margins) and reports one
pass/fail line with the measured value and the tolerance it was held to.

Criteria run independently; a crash inside one is reported as a failure of
that row, never as an abort of the table.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import calculus, convolution, groups, metric, solver, verify
from . import config as cfgmod
from .errors import ConfigError
from .grids import GridDomain, HorizontalField, ScalarField
from .integrands import Integrand


@dataclass
class CriterionResult:
    name: str
    passed: bool
    measured: str
    tolerance: str
    seconds: float
    error: str = ""

    @property
    def status(self) -> str:
        return "pass" if self.passed else "FAIL"


def bundled_config_dir() -> str:
    return str(resources.files("subinf") / "acceptance_configs")


def _cfg(config_dir: str, name: str) -> cfgmod.ProblemConfig:
    return cfgmod.load_config(os.path.join(config_dir, name))


# -- criteria ----------------------------------------------------------------


def _a1(config_dir: str):
    """1D extension of g(0)=0, g(1)=1 is the linear interpolant."""
    cfg = _cfg(config_dir, "a1_line.cfg")
    t0 = time.perf_counter()
    rep = solver.solve(cfg.boundary_data(), cfg.integrand_obj(), cfg.eps, cfg.side,
                       config=cfg.solver)
    dt = time.perf_counter() - t0
    dom = rep.solution.domain
    nodes = dom.nonexterior_flat
    err = float(np.max(np.abs(rep.solution.values[nodes] - dom.coords[nodes, 0])))
    ok = err <= 1e-3 and dt <= 10.0 and rep.converged
    return ok, f"max|u - x| = {err:.2e} in {dt:.2f} s", "<= 1e-3 within 10 s"


def _a2(config_dir: str):
    """Residual of the explicit plane solution x^{4/3} - y^{4/3} refines at order >= log2(3)."""
    cfg = _cfg(config_dir, "a2_aronsson.cfg")
    t0 = time.perf_counter()
    sups = []
    for h in (cfg.h, cfg.h / 2.0):
        # band 2 keeps the nested stencil fully centred at every interior
        # node; with a width-1 band the first ring mixes in one-sided rows
        # and the sup only refines at first order
        dom = GridDomain.box(cfg.spec(), list(cfg.lower), list(cfg.upper), h, band=2)
        u = cfg.boundary_field(dom)
        sups.append(calculus.infinity_laplacian(u).max_abs_interior())
    dt = time.perf_counter() - t0
    factor = sups[0] / max(sups[1], 1e-300)
    ok = factor >= 3.0 and sups[0] <= 0.05 and dt <= 5.0
    return ok, (f"residual {sups[0]:.2e} -> {sups[1]:.2e}, factor {factor:.2f}, "
                f"{dt:.2f} s"), "factor >= 3, abs <= 0.05, within 5 s"


def _a3(config_dir: str):
    """First-layer coordinates and the vertical coordinate are in the kernel."""
    cfg = _cfg(config_dir, "a3_heisenberg.cfg")
    dom = cfg.domain()
    worst = 0.0
    for fn in (lambda c: c[:, 0], lambda c: c[:, 1], lambda c: c[:, 2]):
        u = ScalarField.from_function(dom, fn)
        worst = max(worst, calculus.infinity_laplacian(u).max_abs_interior())
    return worst <= 1e-8, f"max |op(u)| = {worst:.2e} over u in {{x, y, t}}", "<= 1e-8"


def _a4(config_dir: str):
    """Comparison margin of the lower branch against the strictified upper branch."""
    cfg = _cfg(config_dir, "a4_line.cfg")
    g, f = cfg.boundary_data(), cfg.integrand_obj()
    u = solver.solve(g, f, cfg.eps, "lower", config=cfg.solver).solution
    up = solver.solve(g, f, cfg.eps, "upper", config=cfg.solver).solution
    w, _ = solver.strictify(up, delta=0.05, eps=cfg.eps, alpha=f.alpha)
    margin = verify.comparison_check(u, w)
    shifted = ScalarField(u.domain, u.values + 0.1)
    tmargin = verify.comparison_check(u, shifted)
    ok = margin >= -1e-6 and abs(tmargin) <= 1e-12
    return ok, (f"margin {margin:.2e}, translate control {tmargin:.1e}"), \
        "margin >= -1e-6, control 0 to 1e-12"


_A5_SCALE = {"euclidean:2": 1.0, "heisenberg1": 0.25}
_A5_EPS = (0.1, 0.05, 0.025)


def _cone_field(cfg) -> ScalarField:
    """Frozen rough fixture: the min of six offset cones, scaled per geometry."""
    dom = cfg.domain()
    rng = np.random.default_rng(cfg.seed)
    lo = np.asarray(cfg.lower) + 0.2
    hi = np.asarray(cfg.upper) - 0.2
    centers = rng.uniform(lo, hi, (6, dom.spec.dim))
    offsets = rng.uniform(0.0, 0.1, 6)
    scale = _A5_SCALE.get(cfg.geometry, 1.0)

    def fn(coords):
        d = np.linalg.norm(coords[:, None, :] - centers[None, :, :], axis=2)
        return scale * np.min(offsets[None, :] + d, axis=1)

    return ScalarField.from_function(dom, fn)


def _a5(config_dir: str):
    """Sup convolution: domination, scale monotonicity, semiconvexity, shrinking gap."""
    parts = []
    ok = True
    for name in ("a5_plane.cfg", "a5_heisenberg.cfg"):
        cfg = _cfg(config_dir, name)
        u = _cone_field(cfg)
        dom = u.domain
        nodes = dom.nonexterior_flat
        c_d = convolution.kernel_second_difference_bound(dom)
        prev_gap = math.inf
        prev_vals = None
        gaps = []
        for eps in _A5_EPS:
            rep = convolution.sup_convolution(u, eps)
            vals = rep.field.values
            if not np.all(vals[nodes] >= u.values[nodes]):
                ok = False
            if prev_vals is not None and not np.all(prev_vals[nodes] >= vals[nodes]):
                ok = False
            modulus = convolution.semiconvexity_modulus(rep.field)
            if modulus < -c_d / eps:
                ok = False
            gap = (float(np.max(vals[rep.shrunken] - u.values[rep.shrunken]))
                   if rep.shrunken.size else math.nan)
            if not (rep.shrunken.size and 0.0 < gap < prev_gap):
                ok = False
            gaps.append(gap)
            prev_gap, prev_vals = gap, vals
        parts.append(f"{cfg.geometry}: gaps {' > '.join('%.4f' % g for g in gaps)}, "
                     f"C_d {c_d:.1f}")
    return ok, "; ".join(parts), \
        "u <= u^eps, eps-monotone, modulus >= -C_d/eps, gaps decreasing"


_A6_EPS = (0.2, 0.1, 0.05)


def _a6(config_dir: str):
    """Two-sided gap shrinks with eps; the eps = 0 limit ignores initialization."""
    parts = []
    ok = True
    for name in ("a6_line.cfg", "a6_heisenberg.cfg"):
        cfg = _cfg(config_dir, name)
        g = cfg.boundary_data()
        f = cfg.integrand_obj()
        sv_gap = dataclasses.replace(cfg.solver, k_max=4)
        gaps = []
        prev = math.inf
        for eps in _A6_EPS:
            lo = solver.solve(g, f, eps, "lower", config=sv_gap).solution
            hi = solver.solve(g, f, eps, "upper", config=sv_gap).solution
            gap = solver.uniqueness_gap(lo, hi)
            if not gap < prev:
                ok = False
            gaps.append(gap)
            prev = gap
        a = solver.solve(g, f, config=cfg.solver).solution
        b = solver.solve(
            g, f, config=dataclasses.replace(cfg.solver, initialization="zero")).solution
        agree = float(np.max(np.abs(a.values[a.domain.nonexterior_flat]
                                    - b.values[a.domain.nonexterior_flat])))
        if agree > 1e-4:
            ok = False
        parts.append(f"{cfg.geometry}: gaps {' > '.join('%.3e' % g for g in gaps)}, "
                     f"init agreement {agree:.1e}")
    return ok, "; ".join(parts), "gaps strictly decreasing, agreement <= 1e-4"


def _a7(config_dir: str):
    """Grid metric against the flat metric, the gauge, and group translation."""
    plane = _cfg(config_dir, "a7_plane.cfg")
    dom = plane.domain()
    graph = metric.build_graph(dom, depth=2)
    rng = np.random.default_rng(plane.seed)
    nodes = dom.nonexterior_flat
    worst_plane = 0.0
    for _ in range(100):
        a, b = (int(v) for v in rng.choice(nodes, 2, replace=False))
        d = metric.cc_distance(graph, a, b)
        worst_plane = max(worst_plane, abs(d - float(np.linalg.norm(
            dom.coords[a] - dom.coords[b]))))
    bound = 2.0 * math.sqrt(2.0) * dom.h
    ok = worst_plane <= bound

    heis = _cfg(config_dir, "a7_heisenberg.cfg")
    domh = heis.domain()
    graphh = metric.build_graph(domh)
    d_unit = metric.cc_distance(graphh, domh.nearest_node([0.0, 0.0, 0.0]),
                                domh.nearest_node([1.0, 0.0, 0.0]))
    ok = ok and 0.95 <= d_unit <= 1.05

    spec = domh.spec
    rngh = np.random.default_rng(heis.seed)
    pts = rngh.uniform(-1.0, 1.0, (100, 3, 3))
    z, x, y = pts[:, 0], pts[:, 1], pts[:, 2]
    base = groups.gauge_distance(spec, x, y)
    moved = groups.gauge_distance(spec, groups.multiply(spec, z, x),
                                  groups.multiply(spec, z, y))
    invariance = float(np.max(np.abs(moved - base)))
    ok = ok and invariance <= 1e-12

    # gauge vs graph metric: fit the equivalence constant on half the pairs,
    # hold the sandwich on the rest with 10% slack
    nodesh = domh.nonexterior_flat
    sources = rngh.choice(nodesh, 20, replace=False)
    ratios = []
    for s in sources:
        dists = metric.cc_distances_from(graphh, int(s))
        targets = rngh.choice(nodesh, 10, replace=False)
        for t in targets:
            if int(t) == int(s) or not np.isfinite(dists[int(t)]):
                continue
            gd = float(groups.gauge_distance(spec, domh.coords[int(s)],
                                             domh.coords[int(t)]))
            if gd <= 0:
                continue
            ratios.append(dists[int(t)] / gd)
    ratios = np.asarray(ratios)
    half = ratios.size // 2
    c_fit = max(float(np.max(ratios[:half])), float(np.max(1.0 / ratios[:half])))
    c_held = max(float(np.max(ratios[half:])), float(np.max(1.0 / ratios[half:])))
    sandwich = c_held <= 1.1 * c_fit and np.isfinite(c_fit)
    ok = ok and sandwich

    measured = (f"plane dev {worst_plane:.3f} (bound {bound:.3f}), "
                f"d(0, e1) = {d_unit:.3f}, invariance {invariance:.1e}, "
                f"C_K {c_fit:.2f} (held-out {c_held:.2f})")
    return ok, measured, "dev <= 2*sqrt(2)h, d in [0.95, 1.05], inv <= 1e-12, sandwich"


def _a8(config_dir: str):
    """Summation by parts: the divergence is the exact adjoint of the gradient."""
    worst = 0.0
    geoms = []
    for name in ("a8_plane.cfg", "a8_heisenberg.cfg", "a8_grushin.cfg"):
        cfg = _cfg(config_dir, name)
        dom = cfg.domain()
        rng = np.random.default_rng(cfg.seed)
        m = dom.spec.horizontal_dim
        for _ in range(50):
            u = ScalarField(dom, rng.normal(size=dom.n_nodes))
            F = HorizontalField(dom, rng.normal(size=(dom.interior_flat.size, m)))
            lhs = float(np.sum(calculus.horizontal_gradient(u).values * F.values))
            div = calculus.adjoint_divergence(F)
            ne = dom.nonexterior_flat
            rhs = float(np.sum(u.values[ne] * div.values[ne]))
            worst = max(worst, abs(lhs - rhs))
        geoms.append(cfg.geometry)
    return worst <= 1e-12, \
        f"max |<Xu, F> - <u, X*F>| = {worst:.2e} over 50 pairs x {len(geoms)} geometries", \
        "<= 1e-12"


def _a9(config_dir: str):
    """Monotone gradient inequality of f^k/k and its homogeneity exponent."""
    cfg = _cfg(config_dir, "a9_pairs.cfg")
    f = cfg.integrand_obj()
    rng = np.random.default_rng(cfg.seed)
    alpha = f.alpha

    def lhs(p, q, k):
        wp = f.value(p) ** (k - 1) * f.grad(p).T
        wq = f.value(q) ** (k - 1) * f.grad(q).T
        return np.sum((wp - wq).T * (p - q), axis=1)

    worst_min = math.inf
    worst_dev = 0.0
    for k in (1, 2, 4):
        p = rng.normal(size=(1000, 2)) * rng.uniform(0.2, 2.0, (1000, 1))
        q = rng.normal(size=(1000, 2)) * rng.uniform(0.2, 2.0, (1000, 1))
        worst_min = min(worst_min, float(np.min(lhs(p, q, k))))

        # controlled pairs: antipodal with |p - q| log-spaced in [0.1, 1]
        r = np.geomspace(0.1, 1.0, 64)
        theta = rng.uniform(0.0, 2.0 * np.pi, 64)
        d = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        pc = 0.5 * r[:, None] * d
        vals = lhs(pc, -pc, k)
        slope = np.polyfit(np.log(r), np.log(vals), 1)[0]
        target = alpha * (k - 1) + 2.0
        worst_dev = max(worst_dev, abs(slope - target) / target)
    ok = worst_min >= -1e-12 and worst_dev <= 0.15
    return ok, (f"min pairing {worst_min:.2e}, exponent off by "
                f"{100.0 * worst_dev:.2f}%"), ">= 0 on 1000 pairs, exponent within 15%"


def _a10(config_dir: str):
    """Strictified upper branch keeps a quantified operator margin."""
    cfg = _cfg(config_dir, "a10_line.cfg")
    f = cfg.integrand_obj()
    up = solver.solve(cfg.boundary_data(), f, cfg.eps, "upper", config=cfg.solver).solution
    w, mu = solver.strictify(up, delta=0.1, eps=cfg.eps, alpha=f.alpha)
    grad = calculus.horizontal_gradient(w)
    res = calculus.aronsson_residual(w, f)
    interior = w.domain.interior_flat
    branch = np.maximum(cfg.eps - f.value(grad.values),
                        res.values[interior])
    floor = mu - 10.0 * cfg.h ** 2
    mb = float(np.min(branch))
    return mb >= floor, f"operator margin {mb:.4f} vs mu - 10h^2 = {floor:.4f} (mu = {mu:.1e})", \
        ">= mu - 10 h^2"


_CRITERIA = (
    ("A1", _a1), ("A2", _a2), ("A3", _a3), ("A4", _a4), ("A5", _a5),
    ("A6", _a6), ("A7", _a7), ("A8", _a8), ("A9", _a9), ("A10", _a10),
)


def run_suite(config_dir: str | None = None, only=None,
              out_dir: str | None = None) -> list[CriterionResult]:
    config_dir = config_dir or bundled_config_dir()
    if not os.path.isdir(config_dir):
        raise ConfigError(f"acceptance config directory {config_dir} does not exist")
    if not any(n.endswith(".cfg") for n in os.listdir(config_dir)):
        raise ConfigError(f"acceptance config directory {config_dir} has no .cfg files")
    names = {name for name, _ in _CRITERIA}
    if only:
        unknown = [n for n in only if n not in names]
        if unknown:
            raise ConfigError(f"unknown acceptance criteria {unknown}; "
                              f"choose from {sorted(names)}")
    results = []
    for name, fn in _CRITERIA:
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            passed, measured, tolerance = fn(config_dir)
            err = ""
        except Exception as exc:
            passed, measured, tolerance = False, "", ""
            err = f"{type(exc).__name__}: {exc}"
        results.append(CriterionResult(name, passed, measured, tolerance,
                                       time.perf_counter() - t0, err))
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "acceptance_summary.txt"), "w") as fh:
            fh.write(format_table(results) + "\n")
    return results


def format_table(results) -> str:
    lines = []
    for r in results:
        body = r.error if r.error else f"{r.measured}  [{r.tolerance}]"
        lines.append(f"{r.name:<4} {r.status:<5} {r.seconds:6.2f} s  {body}")
    n_pass = sum(1 for r in results if r.passed)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
