import io

import numpy as np
import pytest

from flipsearch import Factor, build_factor_graph, parse_model, write_model
from flipsearch.fileformat import (
    ModelFormatError,
    parse_configuration,
    write_configuration,
    write_trace,
)
from flipsearch.solver import TraceRecord

from conftest import random_graph


def roundtrip(graph):
    buf = io.StringIO()
    write_model(graph, buf)
    buf.seek(0)
    return parse_model(buf)


def test_single_unary_serialization():
    g = build_factor_graph(1, [Factor((0,), (0.3, 0.7))])
    buf = io.StringIO()
    write_model(g, buf)
    lines = [l for l in buf.getvalue().splitlines() if l and not l.startswith("#")]
    assert lines == ["bfg 1", "vars 1", "factor 1 0", "0.3 0.7"]


def test_roundtrip_random_models():
    rng = np.random.default_rng(99)
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(1, 15)), max_arity=4)
        assert roundtrip(g) == g


def test_roundtrip_is_value_exact():
    table = (0.1 + 0.2, 1.0 / 3.0, float(np.nextafter(1.0, 2.0)), -0.0)
    g = build_factor_graph(2, [Factor((0, 1), table)])
    assert roundtrip(g).factors[0].table == table


def test_roundtrip_keeps_every_bit_of_every_value():
    tiny = 5e-324  # the smallest subnormal
    values = (
        0.0, -0.0, tiny, -tiny, 2.225073858507201e-308, -2.2250738585072014e-308,
        1e308, -1e308, 1.7976931348623157e308, 0.1 + 0.2, 1.0 / 3.0, -7.0,
        float(np.nextafter(1.0, 2.0)), 123456789.0, 1e-300, -1e-15,
    )
    g = build_factor_graph(
        5, [Factor((0, 1, 2, 3), values), Factor((4,), (-0.0, tiny)), Factor((2,), (1e308, -1e308))]
    )
    back = roundtrip(g)
    assert [[x.hex() for x in f.table] for f in back.factors] == [
        [x.hex() for x in f.table] for f in g.factors
    ]
    assert [f.scope for f in back.factors] == [f.scope for f in g.factors]


@pytest.mark.parametrize(
    "text,bad_line,message",
    [
        ("bfg 1\nvars 2147483648\n", 2, "variable count 2147483648 exceeds"),
        ("bfg 1\nvars 2\nfactor 1 2147483648\n1 2\n", 3, "variable 2147483648 out"),
        ("bfg 1\nvars 2\nfactor 2 0 -2147483649\n1 2 3 4\n", 3, "variable -2147483649 out"),
        (f"bfg 1\nvars 2\nfactor 1 0\n1 2\nfactor 1 {10**30}\n1 2\n", 5, f"factor 1: variable {10**30} out"),
    ],
)
def test_counts_and_indices_beyond_int32_are_rejected(text, bad_line, message):
    with pytest.raises(ModelFormatError, match=message) as exc_info:
        parse_model(io.StringIO(text))
    assert exc_info.value.line_number == bad_line


def test_comments_and_blank_lines_ignored():
    text = "# model\nbfg 1\n\nvars 2\n# a factor\nfactor 1 0\n0.25 0.75\n"
    g = parse_model(io.StringIO(text))
    assert g.variable_count == 2
    assert len(g.factors) == 1


@pytest.mark.parametrize(
    "text,bad_line",
    [
        ("bfg 2\nvars 1\n", 1),
        ("hello\nvars 1\n", 1),
        ("bfg 1\nvars -3\n", 2),
        ("bfg 1\nvars x\n", 2),
        ("bfg 1\nvars 2\nfactor 2 0 0\n1 2 3 4\n", 3),
        ("bfg 1\nvars 2\nfactor 2 0 5\n1 2 3 4\n", 3),
        ("bfg 1\nvars 2\nfactor 2 0 1\n1 2 3\n", 4),
        ("bfg 1\nvars 2\nfactor 2 0 1\n1 2 3 nan\n", 4),
        ("bfg 1\nvars 2\nfactor 0\n1\n", 3),
    ],
)
def test_parse_errors_carry_line_numbers(text, bad_line):
    with pytest.raises(ModelFormatError) as exc_info:
        parse_model(io.StringIO(text))
    assert exc_info.value.line_number == bad_line


def test_truncated_file():
    with pytest.raises(ModelFormatError):
        parse_model(io.StringIO("bfg 1\n"))
    with pytest.raises(ModelFormatError):
        parse_model(io.StringIO("bfg 1\nvars 2\nfactor 1 0\n"))


def test_file_paths(tmp_path):
    g = build_factor_graph(2, [Factor((0, 1), (1.0, 2.0, 3.0, 4.0))])
    path = tmp_path / "model.bfg"
    write_model(g, path)
    assert parse_model(path) == g


def test_configuration_roundtrip(tmp_path):
    path = tmp_path / "config.txt"
    write_configuration([1, 0, 1, 1], path)
    assert path.read_text() == "1011\n"
    bits = parse_configuration(path, 4)
    assert bits.tolist() == [1, 0, 1, 1]
    with pytest.raises(ValueError):
        parse_configuration(path, 5)


def test_trace_json(tmp_path):
    import json

    trace = [
        TraceRecord(0.0, 5.0, 1, 0, 0, 0),
        TraceRecord(0.1, 4.0, 1, 1, 3, 3),
    ]
    path = tmp_path / "trace.json"
    write_trace(trace, path)
    records = json.loads(path.read_text())
    assert len(records) == 2
    assert records[1]["best_energy"] == 4.0
    assert set(records[0]) == {
        "elapsed_seconds",
        "best_energy",
        "depth",
        "flips_accepted",
        "subsets_evaluated",
        "cstree_nodes",
    }
