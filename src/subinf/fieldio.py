"""Text serialization: field files, run manifests, plot tables.

A field file is self-describing: a fixed header (format tag, geometry id,
lattice dims, lower corner, spacing, node count) followed by one line per
lattice node carrying the flat index, the classification word and the value.
Values are printed with 17 significant digits, which round-trips IEEE doubles
exactly, so write -> read -> write reproduces the file byte for byte.
Exterior nodes carry no information and are canonicalized to value 0.
"""

from __future__ import annotations

import io

import numpy as np

from . import groups
from .errors import ConfigError
from .grids import (
    CLASS_CODES,
    EXTERIOR,
    GridDomain,
    ScalarField,
    classification_code,
    classification_name,
)

FORMAT_TAG = "subinf-field"
FORMAT_VERSION = 1
# node lines parsed at once; 1024 raised a 4 913-node solve's peak RSS by 0.5 MB
_READ_LINES = 256


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _fmt_row(values) -> str:
    return " ".join(_fmt(v) for v in values)


def field_to_text(u: ScalarField) -> str:
    dom = u.domain
    out = io.StringIO()
    out.write(f"{FORMAT_TAG} {FORMAT_VERSION}\n")
    out.write(f"geometry {dom.spec.id}\n")
    out.write("dims " + " ".join(str(d) for d in dom.dims) + "\n")
    out.write("lower " + _fmt_row(dom.lower) + "\n")
    out.write("h " + _fmt(dom.h) + "\n")
    out.write(f"nodes {dom.n_nodes}\n")
    codes = dom.classification.tolist()
    name = {c: classification_name(c) for c in set(codes)}
    vals = np.where(dom.classification == EXTERIOR, 0.0, u.values).tolist()
    out.write("".join(map("%d %s %.17g\n".__mod__,
                          zip(range(dom.n_nodes), [name[c] for c in codes], vals))))
    return out.getvalue()


def write_field(path, u: ScalarField) -> None:
    with open(path, "w") as fh:
        fh.write(field_to_text(u))


class _LineReader:
    def __init__(self, text: str, source: str):
        self.lines = text.splitlines()
        self.source = source
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise ConfigError(f"{self.source}: unexpected end of file at line {self.pos + 1}")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def error(self, msg: str) -> ConfigError:
        return ConfigError(f"{self.source}, line {self.pos}: {msg}")


def _header_value(rd: _LineReader, key: str) -> list[str]:
    line = rd.next().strip()
    parts = line.split()
    if not parts or parts[0] != key:
        raise rd.error(f"expected header field {key!r}, got {line!r}")
    if len(parts) < 2:
        raise rd.error(f"header field {key!r} has no value")
    return parts[1:]


def _node_table(rd: _LineReader, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Classification codes and values of the node table that starts at ``rd.pos``.

    Blocks of ``_READ_LINES`` lines are joined with a ``|`` token between
    lines and split once.  No index, classification or value parses as
    ``|``, so a block whose every fourth token is ``|`` has three tokens on
    every line.  A block is taken when that holds, its indices count up
    from its first line's and every classification and value parses.
    Anything else sends the whole table through the line-by-line loop,
    which names the first offending line.
    """
    start = rd.pos
    lines = rd.lines[start : start + n_nodes]
    classification = np.empty(n_nodes, dtype=np.int8)
    values = np.zeros(n_nodes)
    try:
        if len(lines) < n_nodes:
            raise ValueError
        for lo in range(0, n_nodes, _READ_LINES):
            block = lines[lo : lo + _READ_LINES]
            n = len(block)
            tokens = " | ".join(block).split()
            if len(tokens) != 4 * n - 1 or tokens[3::4] != ["|"] * (n - 1) \
                    or list(map(int, tokens[0::4])) != list(range(lo, lo + n)):
                raise ValueError
            classification[lo : lo + n] = list(map(CLASS_CODES.__getitem__, tokens[1::4]))
            values[lo : lo + n] = np.fromiter(map(float, tokens[2::4]), float, n)
        rd.pos = start + n_nodes
        return classification, values
    except (ValueError, KeyError):
        pass
    for expect in range(n_nodes):
        parts = rd.next().split()
        if len(parts) != 3:
            raise rd.error("node line must be: index classification value")
        try:
            flat = int(parts[0])
            code = classification_code(parts[1])
            val = float(parts[2])
        except Exception as exc:
            raise rd.error(str(exc)) from None
        if flat != expect:
            raise rd.error(f"node index {flat} out of order (expected {expect})")
        classification[flat] = code
        values[flat] = val
    return classification, values


def field_from_text(text: str, source: str = "<field>") -> ScalarField:
    rd = _LineReader(text, source)
    tag = rd.next().split()
    if len(tag) != 2 or tag[0] != FORMAT_TAG:
        raise rd.error(f"not a {FORMAT_TAG} file")
    if tag[1] != str(FORMAT_VERSION):
        raise rd.error(f"unsupported format version {tag[1]}")

    geometry_id = _header_value(rd, "geometry")[0]
    try:
        spec = groups.from_id(geometry_id)
    except Exception as exc:
        raise rd.error(f"geometry: {exc}") from None

    try:
        dims = tuple(int(tok) for tok in _header_value(rd, "dims"))
        lower = np.array([float(tok) for tok in _header_value(rd, "lower")])
        h = float(_header_value(rd, "h")[0])
        n_nodes = int(_header_value(rd, "nodes")[0])
    except ValueError as exc:
        raise rd.error(str(exc)) from None
    if len(dims) != spec.dim or lower.size != spec.dim:
        raise rd.error(
            f"geometry {geometry_id} has dim {spec.dim}, "
            f"header gives dims {dims} and lower of length {lower.size}"
        )
    if n_nodes != int(np.prod(dims)):
        raise rd.error(f"node count {n_nodes} does not match dims {dims}")

    classification, values = _node_table(rd, n_nodes)
    if rd.pos != len(rd.lines) and any(s.strip() for s in rd.lines[rd.pos:]):
        raise ConfigError(f"{source}, line {rd.pos + 1}: trailing content after node table")

    try:
        dom = GridDomain(spec, lower, h, dims, classification)
        return ScalarField(dom, values)
    except Exception as exc:
        raise ConfigError(f"{source}: {exc}") from None


def read_field(path) -> ScalarField:
    with open(path) as fh:
        text = fh.read()
    return field_from_text(text, source=str(path))


def manifest_to_text(entries: dict) -> str:
    """Render a run manifest: one `key = value` line, sorted by key.

    Values are rendered deterministically (floats via 17 significant digits,
    sequences space-joined); nothing time- or host-dependent may be added by
    callers, so identical runs produce identical manifests.
    """
    lines = []
    for key in sorted(entries):
        lines.append(f"{key} = {_render(entries[key])}")
    return "\n".join(lines) + "\n"


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return " ".join(_render(v) for v in value)
    return str(value)


def write_manifest(path, entries: dict) -> None:
    with open(path, "w") as fh:
        fh.write(manifest_to_text(entries))


def write_table(path, columns, names, title: str | None = None) -> None:
    """Whitespace-separated numeric columns with a comment header."""
    cols = [np.asarray(c, dtype=float).reshape(-1) for c in columns]
    if len(cols) != len(names):
        raise ConfigError(f"table has {len(cols)} columns but {len(names)} names")
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise ConfigError("table columns have unequal lengths")
    with open(path, "w") as fh:
        if title:
            fh.write(f"# {title}\n")
        fh.write("# " + " ".join(names) + "\n")
        for i in range(n):
            fh.write(" ".join("%.10g" % c[i] for c in cols) + "\n")
