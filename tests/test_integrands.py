import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subinf import integrands
from subinf.errors import ParameterError


def test_squared_norm_values_grad():
    f = integrands.squared_norm()
    p = np.array([[3.0, 4.0], [0.0, 0.0]])
    assert np.array_equal(f.value(p), [25.0, 0.0])
    assert np.array_equal(f.grad(p), [[6.0, 8.0], [0.0, 0.0]])


def test_power_reduces_to_squared_norm_at_alpha_two():
    assert integrands.power(2.0) == integrands.squared_norm()
    assert integrands.from_id("power:2") == integrands.from_id("squared_norm")
    assert integrands.from_id("power:2").id == "squared_norm"


def test_power_four_closed_form():
    f = integrands.power(4.0)
    p = np.array([1.0, 2.0])
    assert np.isclose(f.value(p), 25.0)
    # grad = 4 |p|^2 p
    assert np.allclose(f.grad(p), [20.0, 40.0])


@given(st.floats(1.0, 8.0), st.floats(0.01, 10.0),
       st.tuples(st.floats(-3, 3), st.floats(-3, 3)))
@settings(max_examples=80, deadline=None)
def test_positive_homogeneity(alpha, lam, p):
    f = integrands.power(alpha)
    p = np.array(p)
    assert np.isclose(f.value(lam * p), lam**alpha * f.value(p),
                      rtol=1e-10, atol=1e-10)


@given(st.floats(1.5, 6.0))
@settings(max_examples=30, deadline=None)
def test_grad_matches_finite_difference(alpha):
    f = integrands.power(alpha)
    p = np.array([0.8, -0.6])
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (f.value(p + e) - f.value(p - e)) / (2 * h)
        assert np.isclose(f.grad(p)[i], fd, rtol=1e-5, atol=1e-7)


def test_singular_power_is_finite_at_zero():
    f = integrands.power(1.5)
    z = np.zeros(2)
    assert np.array_equal(f.grad(z), z)


def test_from_id_round_trip():
    for iid in ("squared_norm", "power:4", "power:1.5"):
        assert integrands.from_id(iid).id == iid


@pytest.mark.parametrize("bad", ["norm", "power:abc", "power:", "p4",
                                 "power:nan", "power:inf", "power:1e400"])
def test_from_id_rejects(bad):
    with pytest.raises(ParameterError):
        integrands.from_id(bad)


def test_alpha_below_one_rejected():
    with pytest.raises(ParameterError):
        integrands.power(0.5)
