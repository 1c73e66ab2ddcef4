"""Homogeneous integrands f(p) acting on horizontal vectors."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class Integrand:
    """Convex positively homogeneous integrand f(p) = |p|^alpha, 1 <= alpha < inf.

    alpha = 2 is the squared norm (id ``squared_norm``, strictly convex
    with D^2 f = 2 I).  The gradient is singular at p = 0 when alpha < 2;
    ``grad`` returns 0 there.
    """

    alpha: float

    def __post_init__(self):
        if not 1.0 <= self.alpha < math.inf:
            raise ParameterError(f"power integrand needs 1 <= alpha < inf, got {self.alpha}")

    @property
    def id(self) -> str:
        return "squared_norm" if self.alpha == 2.0 else f"power:{self.alpha:g}"

    def value(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return np.sum(p * p, axis=-1) ** (self.alpha / 2.0)

    def grad(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        norm = np.sqrt(np.sum(p * p, axis=-1))
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(norm > 0.0, self.alpha * norm ** (self.alpha - 2.0), 0.0)
        return scale[..., None] * p


def squared_norm() -> Integrand:
    return power(2.0)


def power(alpha: float) -> Integrand:
    return Integrand(float(alpha))


def from_id(integrand_id: str) -> Integrand:
    iid = integrand_id.strip()
    if iid == "squared_norm":
        return squared_norm()
    if iid.startswith("power:"):
        try:
            alpha = float(iid.split(":", 1)[1])
        except ValueError:
            raise ParameterError(f"bad power integrand id {integrand_id!r}") from None
        return power(alpha)
    raise ParameterError(f"unknown integrand id {integrand_id!r}")
