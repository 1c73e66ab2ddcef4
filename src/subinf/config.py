"""Problem descriptions parsed from flat key = value text with [section] headers.

The format is deliberately dumb: two sections, no nesting, no quoting.

    [problem]
    geometry = euclidean:1
    lower = 0
    upper = 1
    h = 0.0078125
    boundary = linear:1
    integrand = squared_norm
    eps = 0
    side = lower
    seed = 0

    [solver]
    k_max = 256

Every parse or validation failure raises ConfigError naming the file, the
line and the offending field, so a batch run never dies with a bare
traceback over a typo.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import fieldio, groups, integrands
from .errors import ConfigError
from .grids import GridDomain, ScalarField
from .solver import BoundaryData, SolverConfig

@dataclass(frozen=True)
class ProblemConfig:
    geometry: str
    lower: tuple
    upper: tuple
    h: float
    boundary: str
    integrand: str = "squared_norm"
    eps: float = 0.0
    side: str = "lower"
    seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)
    base_dir: str = "."
    source: str = "<config>"

    def spec(self) -> groups.GroupSpec:
        return groups.from_id(self.geometry)

    def domain(self) -> GridDomain:
        return GridDomain.box(self.spec(), list(self.lower), list(self.upper), self.h)

    def integrand_obj(self) -> integrands.Integrand:
        return integrands.from_id(self.integrand)

    def boundary_field(self, domain: GridDomain | None = None) -> ScalarField:
        """The boundary expression evaluated on the whole lattice."""
        dom = domain if domain is not None else self.domain()
        expr = self.boundary
        if expr.startswith("file:"):
            path = expr[5:]
            if not os.path.isabs(path):
                path = os.path.join(self.base_dir, path)
            u = fieldio.read_field(path)
            if not u.domain.same_lattice(dom):
                raise ConfigError(
                    f"{self.source}: boundary field {path} lives on a different "
                    f"lattice than the configured box"
                )
            return ScalarField(dom, u.values)
        fn = _builtin_expression(expr, len(self.lower), self.source)
        return ScalarField.from_function(dom, fn)

    def boundary_data(self) -> BoundaryData:
        return BoundaryData.from_field(self.boundary_field(self.domain()))

    def resolved_items(self) -> dict:
        """Every field with defaults expanded, for the run manifest."""
        items = {"config." + fd.name: getattr(self, fd.name) for fd in fields(self)
                 if fd.name not in ("solver", "base_dir", "source")}
        items.update(("config.solver." + fd.name, getattr(self.solver, fd.name))
                     for fd in fields(self.solver))
        return items


def _builtin_expression(expr: str, dim: int, source: str):
    if expr.startswith("linear:"):
        try:
            coef = [float(tok) for tok in expr[7:].split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"{source}: boundary {expr!r} has non-numeric coefficients") from None
        if len(coef) == dim:
            coef = coef + [0.0]
        if len(coef) != dim + 1:
            raise ConfigError(
                f"{source}: boundary linear expression needs {dim} coefficients "
                f"(plus an optional constant), got {len(coef)}"
            )
        c = np.array(coef[:dim])
        c0 = coef[dim]
        return lambda xs: xs @ c + c0
    if expr == "aronsson43":
        if dim < 2:
            raise ConfigError(f"{source}: boundary 'aronsson43' needs at least 2 coordinates")
        exponent = 4.0 / 3.0
        return lambda xs: np.abs(xs[:, 0]) ** exponent - np.abs(xs[:, 1]) ** exponent
    raise ConfigError(
        f"{source}: unknown boundary expression {expr!r} "
        f"(builtins: linear:c1,...,cn[,c0], aronsson43, file:PATH)"
    )


class _Entry:
    __slots__ = ("value", "line")

    def __init__(self, value: str, line: int):
        self.value = value
        self.line = line


def _scan(text: str, source: str) -> dict[str, dict[str, _Entry]]:
    sections: dict[str, dict[str, _Entry]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in ("problem", "solver"):
                raise ConfigError(f"{source}, line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ConfigError(f"{source}, line {lineno}: duplicate section [{name}]")
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{source}, line {lineno}: expected key = value, got {line!r}")
        if current is None:
            raise ConfigError(f"{source}, line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in current:
            raise ConfigError(f"{source}, line {lineno}: duplicate key {key!r}")
        current[key] = _Entry(value, lineno)
    if "problem" not in sections:
        raise ConfigError(f"{source}: missing [problem] section")
    return sections


def _take(section: dict, key: str, source: str, kind, default=None, required=False):
    entry = section.pop(key, None)
    if entry is None:
        if required:
            raise ConfigError(f"{source}: missing required field {key!r} in [problem]")
        return default
    try:
        return kind(entry.value)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"{source}, line {entry.line}: field {key!r}: {exc}") from None


def _floats(value: str) -> tuple:
    toks = value.replace(",", " ").split()
    if not toks:
        raise ValueError("expected one or more numbers")
    return tuple(float(t) for t in toks)


# SolverConfig's field annotations, which solver.py leaves as strings
_KINDS = {"int": int, "float": float, "str": str}


def parse_config(text: str, source: str = "<config>", base_dir: str = ".") -> ProblemConfig:
    sections = _scan(text, source)
    prob = sections["problem"]
    solv = sections.get("solver", {})

    at = {key: f"{source}, line {entry.line}" for key, entry in prob.items()}
    at.setdefault("geometry", source)
    for key in ("lower", "upper", "h", "boundary", "integrand", "eps", "side"):
        at.setdefault(key, source)

    geometry = _take(prob, "geometry", source, str, required=True)
    try:
        spec = groups.from_id(geometry)
    except Exception as exc:
        raise ConfigError(f"{at['geometry']}: field 'geometry': {exc}") from None

    lower = _take(prob, "lower", source, _floats, required=True)
    upper = _take(prob, "upper", source, _floats, required=True)
    h = _take(prob, "h", source, float, required=True)
    boundary = _take(prob, "boundary", source, str, required=True)
    integrand = _take(prob, "integrand", source, str, default="squared_norm")
    eps = _take(prob, "eps", source, float, default=0.0)
    side = _take(prob, "side", source, str, default="lower")
    seed = _take(prob, "seed", source, int, default=0)
    if prob:
        key = sorted(prob)[0]
        raise ConfigError(f"{source}, line {prob[key].line}: unknown field {key!r} in [problem]")

    if len(lower) != spec.dim or len(upper) != spec.dim:
        raise ConfigError(
            f"{at['lower']}: fields 'lower'/'upper' must have {spec.dim} coordinates "
            f"for geometry {geometry}"
        )
    for key, coords in (("lower", lower), ("upper", upper)):
        if not all(map(math.isfinite, coords)):
            raise ConfigError(f"{at[key]}: field {key!r} must be finite, got {coords}")
    if any(u <= l for l, u in zip(lower, upper)):
        raise ConfigError(f"{at['upper']}: field 'upper' must exceed 'lower' on every axis")
    if not 0 < h < math.inf:
        raise ConfigError(f"{at['h']}: field 'h' must be positive and finite, got {h}")
    if not 0 <= eps < math.inf:
        raise ConfigError(f"{at['eps']}: field 'eps' must be nonnegative and finite, got {eps}")
    if side not in ("lower", "upper"):
        raise ConfigError(f"{at['side']}: field 'side' must be lower or upper, got {side!r}")
    if seed < 0:
        raise ConfigError(f"{at['seed']}: field 'seed' must be nonnegative, got {seed}")
    try:
        integrands.from_id(integrand)
    except Exception as exc:
        raise ConfigError(f"{at['integrand']}: field 'integrand': {exc}") from None
    _builtin_check(boundary, spec.dim, at["boundary"])

    kwargs = {}
    lines = {}
    for fd in fields(SolverConfig):
        if fd.name in solv:
            lines[fd.name] = solv[fd.name].line
            kwargs[fd.name] = _take(solv, fd.name, source, _KINDS[fd.type])
    if solv:
        key = sorted(solv)[0]
        raise ConfigError(f"{source}, line {solv[key].line}: unknown field {key!r} in [solver]")
    try:
        solver = SolverConfig(**kwargs)
    except Exception as exc:
        bad = next((k for k in lines if k in str(exc)), None)
        where = f", line {lines[bad]}" if bad else ""
        raise ConfigError(f"{source}{where}: [solver] {exc}") from None

    return ProblemConfig(
        geometry=geometry, lower=lower, upper=upper, h=h, boundary=boundary,
        integrand=integrand, eps=eps, side=side, seed=seed, solver=solver,
        base_dir=base_dir, source=source,
    )


def _builtin_check(expr: str, dim: int, source: str) -> None:
    if expr.startswith("file:"):
        if not expr[5:].strip():
            raise ConfigError(f"{source}: boundary 'file:' needs a path")
        return
    _builtin_expression(expr, dim, source)


def load_config(path) -> ProblemConfig:
    path = str(path)
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text, source=os.path.basename(path),
                        base_dir=os.path.dirname(path) or ".")
