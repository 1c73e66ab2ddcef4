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

The keys of each section are the fields of its dataclass, ProblemConfig
(but solver, base_dir and source) and solver.SolverConfig, read with the
types their annotations name; a field without a default is a required key.

Every parse or validation failure raises ConfigError naming the file, the
line and the offending field, so a batch run never dies with a bare
traceback over a typo.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import fieldio, groups, integrands
from .errors import ConfigError
from .grids import GridDomain, ScalarField
from .solver import BoundaryData, SolverConfig

# ProblemConfig's fields that are not [problem] keys
_NOT_KEYS = ("solver", "base_dir", "source")


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
                 if fd.name not in _NOT_KEYS}
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


def _keywords(section: dict, cls, source: str, name: str) -> dict:
    """The [name] section's entries as keyword arguments of the dataclass cls.

    One key per field but _NOT_KEYS, converted by the field's annotation; a
    field without a default is required, and any other key is an error.
    """
    kwargs = {}
    for fd in fields(cls):
        if fd.name in _NOT_KEYS:
            continue
        entry = section.get(fd.name)
        if entry is None:
            if fd.default is MISSING and fd.default_factory is MISSING:
                raise ConfigError(f"{source}: missing required field {fd.name!r} in [{name}]")
            continue
        try:
            kwargs[fd.name] = _KINDS[fd.type](entry.value)
        except ValueError as exc:
            raise ConfigError(f"{source}, line {entry.line}: field {fd.name!r}: {exc}") from None
    unknown = set(section) - set(kwargs)
    if unknown:
        key = min(unknown)
        raise ConfigError(f"{source}, line {section[key].line}: unknown field {key!r} in [{name}]")
    return kwargs


def _floats(value: str) -> tuple:
    toks = value.replace(",", " ").split()
    if not toks:
        raise ValueError("expected one or more numbers")
    return tuple(float(t) for t in toks)


# the converters of the field annotations, which stay strings under
# `from __future__ import annotations`
_KINDS = {"int": int, "float": float, "str": str, "tuple": _floats}


def parse_config(text: str, source: str = "<config>", base_dir: str = ".") -> ProblemConfig:
    sections = _scan(text, source)
    prob = sections["problem"]
    cfg = ProblemConfig(**_keywords(prob, ProblemConfig, source, "problem"),
                        base_dir=base_dir, source=source)

    # each check that can fail reads a key the file gave: every default passes
    at = {key: f"{source}, line {entry.line}" for key, entry in prob.items()}
    try:
        spec = cfg.spec()
    except Exception as exc:
        raise ConfigError(f"{at['geometry']}: field 'geometry': {exc}") from None
    if len(cfg.lower) != spec.dim or len(cfg.upper) != spec.dim:
        raise ConfigError(
            f"{at['lower']}: fields 'lower'/'upper' must have {spec.dim} coordinates "
            f"for geometry {cfg.geometry}"
        )
    for key, coords in (("lower", cfg.lower), ("upper", cfg.upper)):
        if not all(map(math.isfinite, coords)):
            raise ConfigError(f"{at[key]}: field {key!r} must be finite, got {coords}")
    if any(u <= l for l, u in zip(cfg.lower, cfg.upper)):
        raise ConfigError(f"{at['upper']}: field 'upper' must exceed 'lower' on every axis")
    if not 0 < cfg.h < math.inf:
        raise ConfigError(f"{at['h']}: field 'h' must be positive and finite, got {cfg.h}")
    if not 0 <= cfg.eps < math.inf:
        raise ConfigError(
            f"{at['eps']}: field 'eps' must be nonnegative and finite, got {cfg.eps}")
    if cfg.side not in ("lower", "upper"):
        raise ConfigError(f"{at['side']}: field 'side' must be lower or upper, got {cfg.side!r}")
    if cfg.seed < 0:
        raise ConfigError(f"{at['seed']}: field 'seed' must be nonnegative, got {cfg.seed}")
    try:
        cfg.integrand_obj()
    except Exception as exc:
        raise ConfigError(f"{at['integrand']}: field 'integrand': {exc}") from None
    _builtin_check(cfg.boundary, spec.dim, at["boundary"])

    solv = sections.get("solver", {})
    kwargs = _keywords(solv, SolverConfig, source, "solver")
    try:
        solver = SolverConfig(**kwargs)
    except Exception as exc:
        bad = next((k for k in kwargs if k in str(exc)), None)
        where = f", line {solv[bad].line}" if bad else ""
        raise ConfigError(f"{source}{where}: [solver] {exc}") from None
    return replace(cfg, solver=solver)


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
