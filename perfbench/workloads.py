"""The benchmark workloads: set-up, one timed pass, and the output checks.

A workload's ``setup`` writes its seeded inputs and loads them once, so a
malformed input fails before anything is timed.  ``run`` makes the timed
call inside the ``timed`` block it is given (probing with the kind its
``probe`` attribute names, see probe.py), through the program's public
entry points only, and returns the block's timing with its outputs.
``check`` judges what one pass produced and returns a list of problems
(empty when the pass is correct) plus the figures it read off the outputs.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

from subinf import cli, config, convolution, fieldio, metric, verify

import inputs

# Loose ceiling on the plane sup error |u - exact|, in units of the seed-0
# data.  The baseline k = 8 solve at h = 1/16 is off by about 0.06 to 0.09;
# the error grows with k at fixed h (see the ROADMAP), so this is a guard
# against a broken answer, not an accuracy target.
SUP_ERROR_CEILING = 0.2

# Exit codes a solve may end with.  Every baseline solve stops on a stall
# at residual ~1e-6, above gradient_tolerance, and so reports exit code 3;
# that is recorded, not counted as a failure.
SOLVE_EXITS = (cli.EXIT_OK, cli.EXIT_NO_CONVERGENCE)

AUDIT_EPS = 0.05
AUDIT_JETS = 64
# Graph depth per geometry: two-move diagonals on the plane (as A7 uses),
# the group step on heisenberg1.
AUDIT_DEPTH = {"euclidean:2": 2, "heisenberg1": None}
# Plane nodes whose graph distance from the centre is compared with the
# flat one.  The 8-move graph overestimates flat distance by up to 8.2% of
# it, so the A7 bound 2*sqrt(2)*h holds only within flat radius 1 at
# h = 1/32; samples are drawn from that disc.
AUDIT_SAMPLES = 256
AUDIT_RADIUS = 1.0


def _manifest(path: str) -> dict:
    with open(path) as fh:
        return dict(line.split(" = ", 1) for line in fh.read().splitlines() if line)


class Solve:
    """One ``subinf solve`` of a generated problem per pass."""

    probe = "small"

    def __init__(self, make):
        self.make = make

    def setup(self, work_dir: str, seed: int, size: inputs.Size):
        prob = self.make(work_dir, seed, size)
        dom = config.load_config(prob.config).domain()
        if not dom.same_lattice(prob.domain):
            raise RuntimeError(f"{prob.config} describes another lattice than its field")
        return {"problem": prob, "first": None}

    def run(self, state, out_dir: str, timed, span):
        argv = ["solve", state["problem"].config, "--out", out_dir]
        with contextlib.redirect_stdout(io.StringIO()), timed() as t, span("pass"):
            code = cli.main(argv)
        return t, code

    def check(self, state, out_dir: str, code):
        prob = state["problem"]
        dom = prob.domain
        errors = []
        if code not in SOLVE_EXITS:
            return [f"subinf solve exited with code {code}"], {}
        man = _manifest(os.path.join(out_dir, "manifest.txt"))
        stats = {"exit_code": code,
                 "iterations": int(man["result.iterations"]),
                 "residual": float(man["result.residual"])}
        if not math.isfinite(stats["residual"]):
            errors.append("residual is not finite")
        u = fieldio.read_field(os.path.join(out_dir, "solution.field"))
        if not u.domain.same_lattice(dom):
            return errors + ["solution.field is on another lattice"], stats
        if not np.array_equal(u.values[dom.boundary_flat], prob.boundary):
            errors.append("boundary values of solution.field differ from the input")
        inner = u.values[dom.interior_flat]
        lo, hi = prob.boundary.min(), prob.boundary.max()
        if not np.all(np.isfinite(inner)):
            errors.append("solution.field has non-finite interior values")
        elif inner.min() < lo or inner.max() > hi:
            errors.append(f"interior values [{inner.min()!r}, {inner.max()!r}] leave "
                          f"the boundary range [{lo!r}, {hi!r}]")
        if prob.exact:
            err = float(np.max(np.abs(inner - prob.values[dom.interior_flat])))
            stats["sup_error"] = err / prob.scale
            if not stats["sup_error"] <= SUP_ERROR_CEILING:
                errors.append(f"sup error {stats['sup_error']!r} above {SUP_ERROR_CEILING}")
        # the solve is deterministic: every pass of a run must agree
        key = (stats["iterations"], stats["residual"], u.values.tobytes())
        if state["first"] is None:
            state["first"] = key
        elif key != state["first"]:
            errors.append("pass differs from the first pass of this run")
        return errors, stats


class Audit:
    """The check pipeline on the A5 cone fixture, plane and Heisenberg."""

    probe = "large"

    def setup(self, work_dir: str, seed: int, size: inputs.Size):
        probs = {
            "plane": inputs.cone(work_dir, seed, "euclidean:2", size.audit_plane_h),
            "heis": inputs.cone(work_dir, seed, "heisenberg1", size.audit_heis_h),
        }
        for prob in probs.values():
            if not config.load_config(prob.config).domain().same_lattice(prob.domain):
                raise RuntimeError(f"{prob.config} describes another lattice than its field")
        return {"problems": probs, "seed": seed, "first": None}

    def run(self, state, out_dir: str, timed, span):
        results = {}
        with timed() as t, span("pass"):
            for label, prob in state["problems"].items():
                with span("audit." + label):
                    results[label] = self._lattice(prob)
        return t, results

    @staticmethod
    def _lattice(prob: inputs.Problem):
        cfg = config.load_config(prob.config)
        u = cfg.boundary_field()
        dom = u.domain
        c_d = convolution.kernel_second_difference_bound(dom)
        conv = convolution.sup_convolution(u, AUDIT_EPS)
        graph = metric.build_graph(dom, depth=AUDIT_DEPTH[cfg.geometry])
        centre = dom.nearest_node((dom.lower + dom.upper) / 2.0)
        dist = metric.cc_distances_from(graph, centre)
        visc = verify.viscosity_check(u, verify.OperatorSpec.infinity_laplacian(),
                                      jet_samples=AUDIT_JETS, seed=cfg.seed)
        return u, c_d, conv, centre, dist, visc

    def check(self, state, out_dir: str, results):
        errors = []
        verdicts = []
        for label, (u, c_d, conv, centre, dist, visc) in results.items():
            dom = u.domain
            nodes = dom.nonexterior_flat
            sup = conv.field.values[nodes]
            if not (np.all(np.isfinite(sup)) and np.all(sup >= u.values[nodes])):
                errors.append(f"{label}: sup convolution falls below u")
            if dom.spec.id == "euclidean:2":
                if c_d != 2.0:
                    errors.append(f"{label}: kernel bound {c_d!r} is not 2.0")
            elif not (math.isfinite(c_d) and c_d > 0.0):
                errors.append(f"{label}: kernel bound {c_d!r} is not positive")
            if not np.all(np.isfinite(dist[nodes])):
                errors.append(f"{label}: some node is unreachable from the centre")
            elif dom.spec.id == "euclidean:2":
                errors += self._flat_distance_errors(label, dom, centre, dist,
                                                     state["seed"])
            verdicts.append((label, visc.passed, visc.jets_above, visc.jets_below,
                             visc.worst_subsolution_violation,
                             visc.worst_supersolution_violation))
        if state["first"] is None:
            state["first"] = verdicts
        elif verdicts != state["first"]:
            errors.append("viscosity verdict or jet counts differ from the first pass")
        return errors, {}

    @staticmethod
    def _flat_distance_errors(label, dom, centre, dist, seed):
        nodes = dom.nonexterior_flat
        flat = np.linalg.norm(dom.coords[nodes] - dom.coords[centre], axis=1)
        disc = np.flatnonzero(flat <= AUDIT_RADIUS)
        rng = np.random.default_rng(seed)
        pick = rng.choice(disc, min(AUDIT_SAMPLES, disc.size), replace=False)
        dev = np.abs(dist[nodes[pick]] - flat[pick])
        bound = 2.0 * math.sqrt(2.0) * dom.h
        if dev.max() > bound:
            return [f"{label}: graph distance off the flat one by {dev.max()!r} > {bound!r}"]
        return []


WORKLOADS = {
    "plane-aronsson": Solve(inputs.plane_aronsson),
    "heis-xy": Solve(inputs.heis_xy),
    "audit": Audit(),
}
