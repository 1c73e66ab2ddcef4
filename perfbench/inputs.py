"""Seeded inputs for the benchmark workloads.

Each generator writes a problem config and a ``file:`` field into a
directory and returns what the checks need to judge the outputs.  The
program under test only sees those two files; the seed stays here.  Seed 0
reproduces the reference problems exactly.

Every other seed poses the same problem up to maps under which the
discrete solve does the same arithmetic, up to scale and the order of
sums: a value map a*g with a = +-2^k, k in {-1, 0, 1}, a translation of
the plane box with the data centred on it, and quarter turns of the
Heisenberg data about the t axis.  Plane solves then repeat the seed-0
iteration count exactly, and Heisenberg counts differ by rounding only.
Shifting the plane singularity off the box centre, or rotating x*y by a
general angle, poses a genuinely different problem and changed the
iteration count by up to 1.9x between seeds, which would swamp any
timing bound; an offset a*g + b with a general a and b moved it by 4%.

The plane boundary is Aronsson's exact solution |x|^(4/3) - |y|^(4/3),
evaluated here rather than through the builtin ``aronsson43`` expression,
which computes sign(x)|x|^(4/3) - sign(y)|y|^(4/3) and is exact only in
quadrants I and III.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from subinf import fieldio, groups
from subinf.grids import GridDomain, ScalarField

A5_SEED = 11
A5_SCALE = {"euclidean:2": 1.0, "heisenberg1": 0.25}


@dataclass(frozen=True)
class Size:
    """Lattice spacings and top k levels of one benchmark size."""

    plane_h: float
    plane_k: int
    heis_h: float
    heis_k: int
    audit_plane_h: float
    audit_heis_h: float


FULL = Size(plane_h=1 / 16, plane_k=8, heis_h=1 / 8, heis_k=4,
            audit_plane_h=1 / 32, audit_heis_h=1 / 8)
# Smoke-test size: every code path, a fraction of a second per pass.
TINY = Size(plane_h=1 / 4, plane_k=4, heis_h=1 / 2, heis_k=4,
            audit_plane_h=1 / 4, audit_heis_h=1 / 2)


@dataclass
class Problem:
    """One generated problem: its files and what is known about it."""

    config: str
    field: str
    domain: GridDomain
    boundary: np.ndarray  # prescribed values on domain.boundary_flat
    values: np.ndarray  # the generating function on every node
    exact: bool  # whether ``values`` is the exact infinity-harmonic solution
    scale: float  # |a| of the value map; errors are divided by it


def aronsson43(xy: np.ndarray) -> np.ndarray:
    """Aronsson's infinity-harmonic function |x|^(4/3) - |y|^(4/3)."""
    return np.abs(xy[:, 0]) ** (4.0 / 3.0) - np.abs(xy[:, 1]) ** (4.0 / 3.0)


def _value_scale(rng, seed: int) -> float:
    """a of the value map a*g: +-1, +-2 or +-1/2, and 1 at seed 0.

    Powers of two scale every floating-point operation exactly.
    """
    if seed == 0:
        return 1.0
    return float(rng.choice((-1.0, 1.0)) * 2.0 ** int(rng.integers(-1, 2)))


def _fmt(x: float) -> str:
    return "%.17g" % x


def _write(out_dir: str, name: str, geometry: str, lower, upper, h: float,
           fn, lines: list[str], whole_field: bool = False, exact: bool = False,
           scale: float = 1.0) -> Problem:
    """Write ``<name>.field`` and ``<name>.cfg`` for the box [lower, upper].

    ``fn`` maps node coordinates to values.  Unless ``whole_field``, only
    the boundary values are written and interior values are 0, so the
    field carries the Dirichlet data and nothing else.  ``lines`` are a
    comment line followed by extra config lines.
    """
    dom = GridDomain.box(groups.from_id(geometry), list(lower), list(upper), h)
    full = np.asarray(fn(dom.coords), dtype=float)
    vals = full.copy() if whole_field else np.zeros(dom.n_nodes)
    vals[dom.boundary_flat] = full[dom.boundary_flat]
    field_path = os.path.join(out_dir, name + ".field")
    fieldio.write_field(field_path, ScalarField(dom, vals))
    text = [
        lines[0],
        "[problem]",
        f"geometry = {geometry}",
        "lower = " + " ".join(_fmt(v) for v in lower),
        "upper = " + " ".join(_fmt(v) for v in upper),
        f"h = {_fmt(h)}",
        f"boundary = file:{name}.field",
    ] + lines[1:]
    cfg_path = os.path.join(out_dir, name + ".cfg")
    with open(cfg_path, "w") as fh:
        fh.write("\n".join(text) + "\n")
    return Problem(cfg_path, field_path, dom, full[dom.boundary_flat], full,
                   exact, scale)


def plane_aronsson(out_dir: str, seed: int, size: Size = FULL) -> Problem:
    """a * A(x - c) on the box c + [-1, 1]^2, A = Aronsson's solution."""
    rng = np.random.default_rng(seed)
    a = _value_scale(rng, seed)
    c = np.zeros(2) if seed == 0 else rng.uniform(-0.25, 0.25, 2)
    # a multiple of 2^-10 keeps c - 1 + i*h - c exact in binary
    c = np.round(c * 1024.0) / 1024.0
    return _write(out_dir, "plane", "euclidean:2", c - 1.0, c + 1.0,
                  size.plane_h, lambda xy: a * aronsson43(xy - c), [
                      f"# {a!r} * aronsson(x - {c.tolist()})",
                      "[solver]",
                      f"k_max = {size.plane_k}",
                  ], exact=True, scale=abs(a))


def heis_xy(out_dir: str, seed: int, size: Size = FULL) -> Problem:
    """a * x'y' on heisenberg1 [-1, 1]^3, (x', y') a seeded quarter turn of (x, y).

    Quarter turns about the t axis are group automorphisms that map the
    lattice onto itself.
    """
    rng = np.random.default_rng(seed)
    a = _value_scale(rng, seed)
    turn = 0 if seed == 0 else int(rng.integers(4))
    c, s = [(1, 0), (0, 1), (-1, 0), (0, -1)][turn]

    def g(p):
        x = c * p[:, 0] - s * p[:, 1]
        y = s * p[:, 0] + c * p[:, 1]
        return a * (x * y)

    return _write(out_dir, "heis", "heisenberg1", (-1.0,) * 3, (1.0,) * 3,
                  size.heis_h, g, [
                      f"# {a!r} * x'y', (x', y') turned {turn} quarter turns",
                      "[solver]",
                      f"k_max = {size.heis_k}",
                  ])


def cone(out_dir: str, seed: int, geometry: str, h: float) -> Problem:
    """The A5 rough fixture: min of six offset cones, scaled per geometry.

    The centres and offsets come from seed 11 + ``seed``, so seed 0 is the
    acceptance fixture itself.  The whole field is the input here.
    """
    if geometry == "euclidean:2":
        lower, upper = (0.0, 0.0), (2.0, 2.0)
    else:
        lower, upper = (-1.0,) * 3, (1.0,) * 3
    rng = np.random.default_rng(A5_SEED + seed)
    centers = rng.uniform(np.asarray(lower) + 0.2, np.asarray(upper) - 0.2,
                          (6, len(lower)))
    offsets = rng.uniform(0.0, 0.1, 6)
    scale = A5_SCALE[geometry]

    def fn(coords):
        d = np.linalg.norm(coords[:, None, :] - centers[None, :, :], axis=2)
        return scale * np.min(offsets[None, :] + d, axis=1)

    name = "cone_" + geometry.replace(":", "")
    return _write(out_dir, name, geometry, lower, upper, h, fn, [
        f"# A5 cone fixture drawn from seed {A5_SEED + seed}",
        f"seed = {seed}",
    ], whole_field=True)
