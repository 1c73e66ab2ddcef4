import numpy as np
import pytest

from subinf import fieldio, groups
from subinf.errors import ConfigError
from subinf.grids import EXTERIOR, GridDomain, ScalarField


def sample_field():
    dom = GridDomain.box(groups.heisenberg1(), [-1, -1, -1], [1, 1, 1], 0.5)
    rng = np.random.default_rng(0)
    vals = rng.normal(size=dom.n_nodes) * np.pi
    return ScalarField(dom, vals)


def test_round_trip_is_byte_identical(tmp_path):
    u = sample_field()
    p1 = tmp_path / "a.field"
    p2 = tmp_path / "b.field"
    fieldio.write_field(p1, u)
    v = fieldio.read_field(p1)
    fieldio.write_field(p2, v)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(u.values, v.values)
    assert u.domain.same_lattice(v.domain)


def test_seventeen_digits_round_trip_doubles():
    for x in (np.pi, 1.0 / 3.0, 1e-308, -2.5e17, 0.1 + 0.2):
        assert float(fieldio._fmt(x)) == x


def test_exterior_values_are_canonicalized():
    spec = groups.euclidean(1)
    classification = np.array([EXTERIOR, 1, 0, 0, 0, 1, EXTERIOR], dtype=np.int8)
    dom = GridDomain(spec, np.array([0.0]), 0.125, (7,), classification)
    vals = np.arange(7, dtype=float)
    vals[0] = np.nan
    vals[6] = 1e300
    u = ScalarField(dom, vals)
    text = fieldio.field_to_text(u)
    v = fieldio.field_from_text(text)
    assert v.values[0] == 0.0 and v.values[6] == 0.0
    assert np.array_equal(v.values[1:6], vals[1:6])
    assert fieldio.field_to_text(v) == text


def test_reader_rejects_wrong_tag():
    with pytest.raises(ConfigError, match="line 1"):
        fieldio.field_from_text("not-a-field 1\n")


def test_reader_rejects_unknown_geometry():
    u = sample_field()
    text = fieldio.field_to_text(u).replace("heisenberg1", "heisenberg9")
    with pytest.raises(ConfigError, match="line 2"):
        fieldio.field_from_text(text, source="mem")


def test_reader_rejects_dim_mismatch():
    u = sample_field()
    text = fieldio.field_to_text(u).replace("dims 5 5 5", "dims 5 5")
    with pytest.raises(ConfigError, match="dim"):
        fieldio.field_from_text(text)


def test_reader_rejects_node_count_mismatch():
    u = sample_field()
    text = fieldio.field_to_text(u).replace("nodes 125", "nodes 124")
    with pytest.raises(ConfigError, match="node count"):
        fieldio.field_from_text(text)


def test_reader_rejects_out_of_order_rows():
    u = sample_field()
    lines = fieldio.field_to_text(u).splitlines()
    lines[6], lines[7] = lines[7], lines[6]
    with pytest.raises(ConfigError, match="out of order"):
        fieldio.field_from_text("\n".join(lines) + "\n")


def test_reader_rejects_trailing_content():
    text = fieldio.field_to_text(sample_field()) + "extra junk\n"
    with pytest.raises(ConfigError, match="trailing"):
        fieldio.field_from_text(text)


def test_reader_rejects_truncated_file():
    lines = fieldio.field_to_text(sample_field()).splitlines()[:-10]
    with pytest.raises(ConfigError, match="end of file"):
        fieldio.field_from_text("\n".join(lines) + "\n")


def test_reader_names_the_source():
    with pytest.raises(ConfigError, match="owl.field"):
        fieldio.field_from_text("subinf-field 2\n", source="owl.field")


def test_manifest_sorted_and_deterministic(tmp_path):
    entries = {"zeta": 0.1 + 0.2, "alpha": [1, 2, 3], "flag": True,
               "name": "run-1"}
    text = fieldio.manifest_to_text(entries)
    assert text == ("alpha = 1 2 3\n"
                    "flag = true\n"
                    "name = run-1\n"
                    "zeta = 0.30000000000000004\n")
    p = tmp_path / "manifest.txt"
    fieldio.write_manifest(p, entries)
    assert p.read_text() == text


def test_write_table(tmp_path):
    p = tmp_path / "t.dat"
    fieldio.write_table(p, [[1.0, 2.0], [0.5, 0.25]], ["k", "gap"],
                        title="gap by level")
    lines = p.read_text().splitlines()
    assert lines[0] == "# gap by level"
    assert lines[1] == "# k gap"
    assert lines[2].split() == ["1", "0.5"]
    with pytest.raises(ConfigError):
        fieldio.write_table(p, [[1.0], [2.0]], ["only"])
    with pytest.raises(ConfigError):
        fieldio.write_table(p, [[1.0], [2.0, 3.0]], ["a", "b"])


def multi_block_text():
    """A 2 500-node plane field: node 1500 is in neither its first nor its last read block."""
    dom = GridDomain.box(groups.euclidean(2), [0, 0], [4.9, 4.9], 0.1)
    assert fieldio._READ_LINES <= 1500 < dom.n_nodes - fieldio._READ_LINES
    vals = np.random.default_rng(3).normal(size=dom.n_nodes)
    return fieldio.field_to_text(ScalarField(dom, vals))


def _with_line(text, node, line):
    lines = text.splitlines()
    lines[6 + node] = line
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("line, message", [
    ("1500 interior 0.2.5", "could not convert string to float: '0.2.5'"),
    ("1500 inner 0.25", "unknown node classification 'inner'"),
    ("1501 interior 0.25", "node index 1501 out of order (expected 1500)"),
    ("1500 interior", "node line must be: index classification value"),
    ("1500 interior 0.25 7", "node line must be: index classification value"),
])
def test_reader_names_the_bad_line_in_a_middle_block(line, message):
    text = _with_line(multi_block_text(), 1500, line)
    with pytest.raises(ConfigError) as err:
        fieldio.field_from_text(text, source="mid.field")
    assert str(err.value) == f"mid.field, line 1507: {message}"


def test_reader_rejects_a_short_line_before_a_long_one_at_the_short_one():
    # together the two lines hold six tokens, as two good lines would
    text = _with_line(multi_block_text(), 1500, "1500 interior")
    text = _with_line(text, 1501, "0.25 1501 interior 0.5")
    with pytest.raises(ConfigError, match="line 1507: node line must be"):
        fieldio.field_from_text(text)


def test_reader_accepts_tabs_and_repeated_spaces(monkeypatch):
    text = multi_block_text()
    # the line-by-line loop is for bad tables only; a good one never reaches it
    monkeypatch.setattr(fieldio, "classification_code", None)
    head, table = text.split("nodes 2500\n")
    spaced = head + "nodes 2500\n" + table.replace(" ", "\t  ")
    u = fieldio.field_from_text(text)
    v = fieldio.field_from_text(spaced)
    assert fieldio.field_to_text(v) == text
    assert v.values.tobytes() == u.values.tobytes()
    assert np.array_equal(v.domain.classification, u.domain.classification)
