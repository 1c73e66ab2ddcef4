from dataclasses import fields

import numpy as np
import pytest

from subinf import config, fieldio, groups
from subinf.config import load_config, parse_config
from subinf.errors import ConfigError
from subinf.grids import GridDomain, ScalarField
from subinf.solver import SolverConfig

GOOD = """\
# a one dimensional line problem
[problem]
geometry = euclidean:1
lower = 0
upper = 1
h = 0.125
boundary = linear:2,0.5
eps = 0.01
side = upper
seed = 7

[solver]
k_max = 32
cross_tolerance = 1e-5
"""


def test_parse_round_trip_fields():
    cfg = parse_config(GOOD, source="good.cfg")
    assert cfg.geometry == "euclidean:1"
    assert cfg.lower == (0.0,) and cfg.upper == (1.0,)
    assert cfg.h == 0.125
    assert cfg.eps == 0.01
    assert cfg.side == "upper"
    assert cfg.seed == 7
    assert cfg.solver.k_max == 32
    assert cfg.solver.cross_tolerance == 1e-5
    dom = cfg.domain()
    assert dom.dims == (9,)
    assert cfg.integrand_obj().id == "squared_norm"
    g = cfg.boundary_data()
    assert np.allclose(sorted(g.values), [0.5, 2.5])


def test_defaults_show_up_in_resolved_items():
    cfg = parse_config(GOOD, source="good.cfg")
    items = cfg.resolved_items()
    assert items["config.integrand"] == "squared_norm"
    assert items["config.solver.max_iterations"] == 20000
    solver_keys = {key for key in items if key.startswith("config.solver.")}
    assert solver_keys == {"config.solver." + fd.name for fd in fields(SolverConfig)}


@pytest.mark.parametrize("mangle,where", [
    (lambda t: t.replace("geometry = euclidean:1", "geometry = torus"),
     "line 3: field 'geometry'"),
    (lambda t: t.replace("h = 0.125", "h = -1"), "line 6: field 'h'"),
    (lambda t: t.replace("h = 0.125", "h = tiny"), "line 6: field 'h'"),
    (lambda t: t.replace("upper = 1", "upper = -3"), "line 5: field 'upper'"),
    (lambda t: t.replace("side = upper", "side = both"), "line 9: field 'side'"),
    (lambda t: t.replace("eps = 0.01", "eps = -0.5"), "line 8: field 'eps'"),
    (lambda t: t.replace("boundary = linear:2,0.5", "boundary = spiral"),
     "line 7"),
    (lambda t: t + "junk\n", "line 15"),
    (lambda t: t.replace("[solver]", "[tuner]"), "line 12: unknown section"),
    (lambda t: t.replace("k_max = 32", "k_max = 2"), r"line 13: \[solver\]"),
    (lambda t: t.replace("k_max = 32", "max_iterations = 0"),
     r"line 13: \[solver\] max_iterations"),
    (lambda t: t.replace("seed = 7", "wheel = 7"), "unknown field 'wheel'"),
    # numpy's generators take no negative seed
    (lambda t: t.replace("seed = 7", "seed = -3"),
     "line 10: field 'seed' must be nonnegative, got -3"),
    # non-finite numbers
    (lambda t: t.replace("lower = 0", "lower = nan"),
     "line 4: field 'lower' must be finite"),
    (lambda t: t.replace("upper = 1", "upper = inf"),
     "line 5: field 'upper' must be finite"),
    (lambda t: t.replace("h = 0.125", "h = inf"),
     "line 6: field 'h' must be positive and finite, got inf"),
    (lambda t: t.replace("eps = 0.01", "eps = nan"),
     "line 8: field 'eps' must be nonnegative and finite, got nan"),
    (lambda t: t.replace("eps = 0.01", "eps = inf"),
     "line 8: field 'eps' must be nonnegative and finite, got inf"),
    (lambda t: t.replace("k_max = 32", "gradient_tolerance = inf"),
     r"line 13: \[solver\] gradient_tolerance .* got inf"),
    (lambda t: t.replace("k_max = 32", "gradient_tolerance = nan"),
     r"line 13: \[solver\] gradient_tolerance .* got nan"),
    (lambda t: t.replace("cross_tolerance = 1e-5", "cross_tolerance = nan"),
     r"line 14: \[solver\] cross_tolerance .* got nan"),
    (lambda t: t.replace("seed = 7", "integrand = power:nan"),
     "line 10: field 'integrand': power integrand needs 1 <= alpha < inf, got nan"),
])
def test_errors_are_line_anchored(mangle, where):
    with pytest.raises(ConfigError, match=where):
        parse_config(mangle(GOOD), source="good.cfg")


def test_missing_problem_section():
    with pytest.raises(ConfigError, match="missing .problem."):
        parse_config("[solver]\nk_max = 8\n", source="s.cfg")


def test_missing_required_field():
    text = GOOD.replace("boundary = linear:2,0.5\n", "")
    with pytest.raises(ConfigError, match="missing required field 'boundary'"):
        parse_config(text, source="s.cfg")


def test_duplicate_key_and_section():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(GOOD.replace("seed = 7", "seed = 7\nseed = 8"),
                     source="s.cfg")
    with pytest.raises(ConfigError, match="duplicate section"):
        parse_config(GOOD + "[solver]\nk_max = 8\n", source="s.cfg")


def test_dimension_mismatch_against_geometry():
    text = GOOD.replace("geometry = euclidean:1", "geometry = heisenberg1")
    with pytest.raises(ConfigError, match="3 coordinates"):
        parse_config(text, source="s.cfg")


def test_linear_boundary_variants():
    fn = config._builtin_expression("linear:1,2", 2, "s")
    xs = np.array([[1.0, 1.0], [0.0, 3.0]])
    assert np.allclose(fn(xs), [3.0, 6.0])
    fn0 = config._builtin_expression("linear:1,2,10", 2, "s")
    assert np.allclose(fn0(xs), [13.0, 16.0])
    with pytest.raises(ConfigError, match="coefficients"):
        config._builtin_expression("linear:1,2,3,4", 2, "s")
    with pytest.raises(ConfigError, match="non-numeric"):
        config._builtin_expression("linear:a,b", 2, "s")


def test_aronsson_boundary_expression():
    fn = config._builtin_expression("aronsson43", 2, "s")
    xs = np.array([[1.0, -1.0], [8.0, 1.0]])
    assert np.allclose(fn(xs), [0.0, 16.0 - 1.0])
    with pytest.raises(ConfigError, match="at least 2"):
        config._builtin_expression("aronsson43", 1, "s")


def test_aronsson43_is_an_exact_solution_symbolically():
    """CAS oracle: in every open quadrant, u = |x|^(4/3) - |y|^(4/3)

    kills u_x^2 u_xx + 2 u_x u_y u_xy + u_y^2 u_yy."""
    import sympy

    x, y = sympy.symbols("x y", real=True)
    a, b = sympy.symbols("a b", positive=True)
    fn = config._builtin_expression("aronsson43", 2, "s")
    for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
        # |x| = sx * x and |y| = sy * y in this quadrant
        u = (sx * x) ** sympy.Rational(4, 3) - (sy * y) ** sympy.Rational(4, 3)
        ux, uy = sympy.diff(u, x), sympy.diff(u, y)
        uxx, uyy = sympy.diff(u, x, 2), sympy.diff(u, y, 2)
        uxy = sympy.diff(ux, y)
        op = ux**2 * uxx + 2 * ux * uy * uxy + uy**2 * uyy
        assert sympy.simplify(op.subs({x: sx * a, y: sy * b})) == 0
        # and the builtin agrees with the closed form there
        pts = np.array([[1.0, 1.5], [2.0, 1.0], [1.25, 2.0]]) * [sx, sy]
        expect = np.abs(pts[:, 0]) ** (4 / 3) - np.abs(pts[:, 1]) ** (4 / 3)
        assert np.allclose(fn(pts), expect, rtol=1e-15)


def test_boundary_from_file_round_trip(tmp_path):
    dom = GridDomain.box(groups.euclidean(1), [0.0], [1.0], 0.125)
    u = ScalarField.from_function(dom, lambda c: np.sin(c[:, 0]))
    fieldio.write_field(tmp_path / "g.field", u)
    text = GOOD.replace("boundary = linear:2,0.5", "boundary = file:g.field")
    cfg_path = tmp_path / "prob.cfg"
    cfg_path.write_text(text)
    cfg = load_config(cfg_path)
    assert cfg.source == "prob.cfg"
    g = cfg.boundary_data()
    assert np.array_equal(g.values, u.values[dom.boundary_flat])


def test_boundary_file_lattice_mismatch(tmp_path):
    dom = GridDomain.box(groups.euclidean(1), [0.0], [1.0], 0.25)
    fieldio.write_field(tmp_path / "g.field", ScalarField.zeros(dom))
    text = GOOD.replace("boundary = linear:2,0.5", "boundary = file:g.field")
    (tmp_path / "prob.cfg").write_text(text)
    cfg = load_config(tmp_path / "prob.cfg")
    with pytest.raises(ConfigError, match="different"):
        cfg.boundary_data()


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/nonexistent/path.cfg")
