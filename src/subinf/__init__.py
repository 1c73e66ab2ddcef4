"""Minimizing Lipschitz extensions and subelliptic infinity-Laplace solves
on Carnot-Caratheodory grids: euclidean(n), the first Heisenberg group and
the Grushin plane.

The usual entry points:

    groups.from_id / euclidean / heisenberg1 / grushin
    grids.GridDomain.box, grids.ScalarField
    calculus.horizontal_gradient / infinity_laplacian / aronsson_residual
    metric.build_graph / cc_distance
    convolution.sup_convolution / inf_convolution
    solver.infinity_solve / aux_solve / minimize_k / strictify
    verify.viscosity_check / comparison_check / amle_check
"""

import os

__version__ = "0.1.0"

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_thread_cap() -> None:
    """Default each BLAS/OpenMP thread variable to SUBINF_THREADS.

    The thread pools read these variables once, when numpy loads, so this
    runs below, before any submodule imports numpy.  A variable that is
    already set keeps its value.
    """
    cap = os.environ.get("SUBINF_THREADS")
    if not cap:
        return
    try:
        n = max(1, int(cap))
    except ValueError:
        raise SystemExit(f"error: SUBINF_THREADS must be an integer, got {cap!r}")
    for var in _THREAD_VARS:
        os.environ.setdefault(var, str(n))


_apply_thread_cap()

from . import (  # noqa: E402, F401
    calculus,
    convolution,
    errors,
    grids,
    groups,
    integrands,
    metric,
    solver,
    verify,
)
