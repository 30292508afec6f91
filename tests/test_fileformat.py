import dataclasses
import io
import os
import re
import tempfile
import tracemalloc
import warnings
from array import array
from typing import IO
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipsearch import (
    Factor,
    IsingSpec,
    SubgraphGridSpec,
    build_factor_graph,
    fileformat,
    generate_ising,
    generate_subgraph_grid,
    parse_model,
    write_model,
)
from flipsearch.fileformat import (
    ModelFormatError,
    parse_configuration,
    write_configuration,
    write_trace,
)
from flipsearch.model import (
    MAX_VARIABLES,
    FactorGraph,
    ModelError,
    check_factor,
    graph_from_arrays,
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
        (f"bfg 1\nvars 2\nfactor 2 {10**20} x\n1 2 3 4\n", 3),
    ],
)
def test_parse_errors_carry_line_numbers(text, bad_line):
    with pytest.raises(ModelFormatError) as exc_info:
        parse_model(io.StringIO(text))
    assert exc_info.value.line_number == bad_line


def test_truncated_file():
    """An early end names the line after the last one, or the factor line
    whose table is missing."""
    for text, bad_line in [
        ("", 1),
        ("bfg 1\n", 2),
        ("bfg 1", 2),
        ("bfg 1\n\n# vars 2\n", 4),
        ("bfg 1\nvars 2\nfactor 1 0\n", 3),
        ("bfg 1\nvars 2\nfactor 1 0\n# 0.5 0.5\n\n", 3),
        ("bfg 1\nvars 2\nfactor 1 0\n1 2\nfactor 1 1", 5),
    ]:
        with pytest.raises(ModelFormatError, match="unexpected end of file") as exc_info:
            parse_model(io.StringIO(text))
        assert exc_info.value.line_number == bad_line, text


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


@pytest.mark.parametrize(
    "bits",
    [[1, 0, 1, 1], np.array([True, False, True, True]), np.array([1, 0, 1, 1], np.uint8)],
    ids=["list", "bool", "uint8"],
)
def test_configurations_of_each_kind_roundtrip(bits):
    buf = io.StringIO()
    write_configuration(bits, buf)
    assert buf.getvalue() == "1011\n"
    assert parse_configuration(io.StringIO(buf.getvalue()), 4).tolist() == [1, 0, 1, 1]


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


@pytest.mark.parametrize(
    "write, what",
    [
        (write_model, generate_ising(IsingSpec(3, 3, 0.5, 0))),
        (write_trace, [TraceRecord(0.0, 5.0, 1, 0, 0, 0), TraceRecord(0.1, 4.0, 1, 1, 3, 3)]),
        (write_configuration, [1, 0, 1, 1]),
    ],
    ids=["model", "trace", "configuration"],
)
def test_a_writer_writes_the_same_text_to_a_path_and_to_a_file_object(tmp_path, write, what):
    path = tmp_path / "out.txt"
    write(what, path)
    buf = io.StringIO()
    write(what, buf)
    assert path.read_text() == buf.getvalue()
    assert buf.getvalue().endswith("\n")


# The line-by-line parser that the chunked one replaced, kept as the
# reference for the differential tests below.


def _content_lines(fh: IO[str]):
    for number, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


def _parse_model(fh: IO[str]) -> FactorGraph:
    lines = _content_lines(fh)

    def next_line(what: str):
        try:
            return next(lines)
        except StopIteration:
            raise ModelFormatError(0, f"unexpected end of file, expected {what}")

    number, line = next_line("header 'bfg 1'")
    if line.split() != ["bfg", "1"]:
        raise ModelFormatError(number, f"bad header {line!r}, expected 'bfg 1'")
    number, line = next_line("'vars <m>'")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "vars":
        raise ModelFormatError(number, f"expected 'vars <m>', got {line!r}")
    try:
        m = int(parts[1])
    except ValueError:
        raise ModelFormatError(number, f"bad variable count {parts[1]!r}")
    if m < 0:
        raise ModelFormatError(number, f"negative variable count {m}")
    if m > MAX_VARIABLES:
        raise ModelFormatError(number, f"variable count {m} exceeds {MAX_VARIABLES}")

    # every factor's arity, scope and values, end to end; the line numbers
    # of its scope and values place an error the model's checks find
    arity = array("q")
    scopes = array("q")
    values = array("d")
    scope_lines = array("q")
    value_lines = array("q")
    for number, line in lines:
        parts = line.split()
        if parts[0] != "factor":
            raise ModelFormatError(number, f"expected 'factor ...', got {line!r}")
        try:
            k = int(parts[1])
        except (IndexError, ValueError):
            raise ModelFormatError(number, "bad factor arity")
        if k < 1:
            raise ModelFormatError(number, f"factor arity must be >= 1, got {k}")
        if len(parts) != 2 + k:
            raise ModelFormatError(
                number, f"expected {k} scope indices, got {len(parts) - 2}"
            )
        try:
            scopes.extend(map(int, parts[2:]))
        except ValueError:
            raise ModelFormatError(number, "bad scope index")
        except OverflowError:  # a variable beyond int64 is out of range
            try:
                check_factor(len(arity), [int(p) for p in parts[2:]], (), m)
            except ModelError as exc:
                raise ModelFormatError(number, str(exc)) from exc
        vnumber, vline = next_line("factor value table")
        vparts = vline.split()
        if len(vparts) != 2**k:
            raise ModelFormatError(
                vnumber, f"expected {2 ** k} values, got {len(vparts)}"
            )
        try:
            values.extend(map(float, vparts))
        except ValueError:
            raise ModelFormatError(vnumber, "bad table value")
        arity.append(k)
        scope_lines.append(number)
        value_lines.append(vnumber)
    arity = np.asarray(arity)
    try:
        return graph_from_arrays(m, arity, np.asarray(scopes), 1 << arity, np.asarray(values))
    except ModelError as exc:
        lines_of = value_lines if exc.part == "table" else scope_lines
        raise ModelFormatError(lines_of[exc.factor], str(exc)) from exc


# what str.split() takes for blanks within a line
BLANKS = " \t\v\f\r\x1c\x1d\x1e\x1f"
SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                  1.7976931348623157e308]
CHUNK_SIZES = (1, 7, fileformat.CHUNK_CHARS)


@st.composite
def int_spellings(draw, v: int) -> str:
    sign = "-" if v < 0 else draw(st.sampled_from(["", "+", "-"] if v == 0 else ["", "+"]))
    return sign + draw(st.sampled_from(["", "0", "00"])) + str(abs(v))


@st.composite
def float_spellings(draw, x: float) -> str:
    forms = [repr(x), "%.17e" % x, "%.17E" % x]
    if x == int(x) and abs(x) < 2**53:
        forms.append(("-" if str(x).startswith("-") else "") + str(abs(int(x))))
    text = draw(st.sampled_from(forms))
    sign = "-" if text.startswith("-") else draw(st.sampled_from(["", "+"]))
    return sign + draw(st.sampled_from(["", "0", "00"])) + text.lstrip("-")


@st.composite
def model_lines(draw, min_factors: int = 0) -> list[list[str]]:
    """The content lines of a random valid model, as lists of tokens."""
    m = draw(st.integers(1 if min_factors else 0, 5))
    lines = [["bfg", "1"], ["vars", draw(int_spellings(m))]]
    if m:
        scopes = draw(st.lists(
            st.lists(st.integers(0, m - 1), min_size=1, max_size=min(3, m), unique=True),
            min_size=min_factors, max_size=5,
        ))
        values = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPECIAL_VALUES)
        )
        for scope in scopes:
            lines.append(
                ["factor", draw(int_spellings(len(scope)))]
                + [draw(int_spellings(v)) for v in scope]
            )
            table = draw(st.lists(values, min_size=2 ** len(scope), max_size=2 ** len(scope)))
            lines.append([draw(float_spellings(x)) for x in table])
    return lines


@st.composite
def rendered(draw, lines: list[list[str]]) -> str:
    """`lines` as text: random blank runs, line ends, blank and comment
    lines; a token that is '' leaves the line one token shorter."""
    edge = st.text(BLANKS, max_size=2)
    gap = st.text(BLANKS, min_size=1, max_size=3)
    comment = st.builds(
        lambda lead, text: lead + "#" + text,
        edge, st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8),
    )
    filler = st.lists(st.one_of(edge, comment), max_size=2)
    out = []
    for tokens in lines:
        out += draw(filler)
        tokens = [t for t in tokens if t]
        out.append(draw(edge) + "".join(t + draw(gap) for t in tokens[:-1])
                   + (tokens[-1] if tokens else "") + draw(edge))
    out += draw(filler)
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in out]
    text = "".join(line + end for line, end in zip(out, ends))
    return text[: -len(ends[-1])] if out and draw(st.booleans()) else text


def _fingerprint(graph):
    """Every array of `graph` with its dtype, the tables as float.hex."""
    arrays = {f.name: getattr(graph, f.name) for f in dataclasses.fields(graph)[1:]}
    return (
        graph.variable_count,
        [x.hex() for x in arrays.pop("tables").tolist()],
        {name: (a.dtype.str, a.shape, a.tolist()) for name, a in arrays.items()},
    )


def _outcome(parse, source):
    try:
        return "graph", _fingerprint(parse(source))
    except ModelFormatError as exc:
        return "error", exc.line_number, str(exc)


def _expected(text: str, reference) -> tuple:
    """What the chunked parser should give where `reference` gave a result
    for `text`: the same, but an unexpected end of file names the factor
    line whose table is missing or the line after the last line."""
    if reference[:2] != ("error", 0):
        return reference
    message = reference[2].removeprefix("line 0: ")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if message.endswith("factor value table"):
        number = max(
            n for n, line in enumerate(lines, 1)
            if line.strip() and not line.strip().startswith("#")
        )
    else:
        number = len(lines) + 1
    return "error", number, f"line {number}: {message}"


def _check_against_reference(text: str) -> None:
    reference = _expected(text, _outcome(_parse_model, io.StringIO(text)))
    for size in CHUNK_SIZES:
        with mock.patch.object(fileformat, "CHUNK_CHARS", size):
            assert _outcome(parse_model, io.StringIO(text)) == reference, size
    # a file read in text mode takes \r and \r\n for line ends as well
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "model.bfg")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        with open(path) as fh:
            translated = fh.read()
        with open(path) as fh:
            reference = _expected(translated, _outcome(_parse_model, fh))
        assert _outcome(parse_model, path) == reference


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_chunked_parser_reads_what_the_line_parser_reads(data):
    lines = data.draw(model_lines())
    text = data.draw(rendered(lines))
    assert _outcome(_parse_model, io.StringIO(text))[0] == "graph"
    _check_against_reference(text)


BAD_TOKENS = ["", "x", "1.5", "-1", "0", "1", "2", "3", "7", "nan", "inf", "-inf", "1e400",
              "factor", "vars", "bfg", "#", "+", "0x10", "1e5", str(2**31), str(2**63),
              str(10**30), str(-(10**30)),
              # tokens that numpy.loadtxt and int or float read differently
              "1_0", "1_0.5", "nan(1)", "-nan", "infinity", "-1e400", "0x1p3", "+5", "007",
              "-0", "5.0", "1\x1c0", "\x1c", str(2**63 - 1), str(-(2**63)), str(-(2**63) - 1),
              str(10**19), str(-(10**19)), str(2**64)]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_chunked_parser_reports_the_faults_the_line_parser_reports(data):
    lines = data.draw(model_lines(min_factors=1))
    # the header, the 'vars' line, a factor line or a table line
    part = data.draw(st.sampled_from([3, 2, 3, 2, 1, 0]))
    factor = data.draw(st.integers(0, (len(lines) - 2) // 2 - 1))
    i = part if part < 2 else 2 * factor + part
    how = data.draw(
        st.sampled_from(["replace", "insert", "replace", "drop", "repeat", "swap", "cut"])
    )
    if how in ("replace", "insert"):
        j = data.draw(st.integers(0, len(lines[i]) - (how == "replace")))
        lines[i][j : j + (how == "replace")] = [data.draw(st.sampled_from(BAD_TOKENS))]
    elif how == "drop":
        del lines[i]
    elif how == "repeat":
        lines.insert(i, list(lines[i]))
    elif how == "swap":
        lines[i : i + 2] = lines[i : i + 2][::-1]
    else:
        del lines[i:]
    _check_against_reference(data.draw(rendered(lines)))


_loadtxt = np.loadtxt


def _loadtxt_reading_ints_via_floats(fname, dtype=float, **kwargs):
    """np.loadtxt as numpy 1.23 to 1.26 run it: an int token it rejects is
    read as a float and cast, with only a DeprecationWarning."""
    try:
        return _loadtxt(fname, dtype, **kwargs)
    except ValueError:
        if np.dtype(dtype).kind != "i":
            raise
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return _loadtxt(fname, np.float64, **kwargs).astype(dtype)


@pytest.mark.parametrize("token", ["1.5", "5.0", "1e0", str(10**19), str(-(10**19))])
def test_an_index_numpy_reads_via_a_float_is_left_to_int(token):
    text = f"bfg 1\nvars 2\nfactor 2 0 {token}\n1 2 3 4\n"
    with mock.patch.object(np, "loadtxt", _loadtxt_reading_ints_via_floats):
        with pytest.raises(ModelFormatError, match="line 3: "):
            parse_model(io.StringIO(text))
        _check_against_reference(text)


@pytest.mark.parametrize("size", [7, fileformat.CHUNK_CHARS])
@pytest.mark.parametrize(
    "graph",
    [generate_ising(IsingSpec(20, 20, 0.5, 0)), generate_subgraph_grid(SubgraphGridSpec(10, 10, 0))],
    ids=["ising-20x20", "subgraph-10x10"],
)
def test_pieces_numpy_refuses_are_read_line_by_line(graph, size):
    """With numpy.loadtxt refusing every piece, each is read by the line
    checks, and the graph is the one the bulk reading gives."""
    buf = io.StringIO()
    write_model(graph, buf)
    expected = _fingerprint(parse_model(io.StringIO(buf.getvalue())))
    refuse = mock.Mock(side_effect=ValueError("refused"))
    with mock.patch.object(np, "loadtxt", refuse), \
            mock.patch.object(fileformat, "CHUNK_CHARS", size):
        assert _fingerprint(parse_model(io.StringIO(buf.getvalue()))) == expected
    assert refuse.called


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_a_table_takes_the_arity_of_its_factor_in_an_earlier_piece(size):
    text = "bfg 1\nvars 3\nfactor 3 0 1 2\n1 2\n"
    with mock.patch.object(fileformat, "CHUNK_CHARS", size):
        with pytest.raises(ModelFormatError, match="^line 4: expected 8 values, got 2$"):
            parse_model(io.StringIO(text))


SWAPPED_TABLES = "bfg 1\nvars 2\nfactor 1 0\n1 2 3 4\nfactor 2 0 1\n0.5 0.5\n"


@pytest.mark.parametrize("size", range(1, len(SWAPPED_TABLES) + 1))
def test_each_table_is_counted_against_its_own_factor_wherever_a_piece_starts(size):
    # the value counts add up, so only the count of each table finds this
    with mock.patch.object(fileformat, "CHUNK_CHARS", size):
        with pytest.raises(ModelFormatError, match="^line 4: expected 2 values, got 4$"):
            parse_model(io.StringIO(SWAPPED_TABLES))


@pytest.mark.parametrize("size", [7, 4096, fileformat.CHUNK_CHARS])
def test_a_well_formed_model_is_read_without_the_line_checks(size):
    """Comments, blank lines and CRLF line ends are blanked in bulk too, and
    a piece of thousands of numbers is read in rows."""
    buf = io.StringIO()
    write_model(generate_ising(IsingSpec(20, 20, 0.5, 0)), buf)
    lines = buf.getvalue().splitlines()
    lines[2:2] = ["# a comment", ""]
    lines[500:500] = ["  # another", "\t"]
    text = "\r\n".join(lines) + "\r\n"
    expected = _fingerprint(parse_model(io.StringIO(buf.getvalue())))
    refuse = mock.Mock(side_effect=AssertionError("read line by line"))
    with mock.patch.object(fileformat, "_check_factor_line", refuse), \
            mock.patch.object(fileformat, "_check_table_line", refuse), \
            mock.patch.object(fileformat, "CHUNK_CHARS", size):
        assert _fingerprint(parse_model(io.StringIO(text))) == expected


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_an_index_beyond_int64_is_reported_at_its_line(size):
    """It comes before a later line's fault and before an earlier factor's
    fault that only the model's checks find."""
    text = (
        f"bfg 1\nvars 2\nfactor 2 0 0\n1 2 3 4\nfactor 2 1 {10**30}\n1 2 3 4\nfactor x\n"
    )
    with mock.patch.object(fileformat, "CHUNK_CHARS", size):
        with pytest.raises(ModelFormatError, match=f"factor 1: variable {10**30} out of range"):
            parse_model(io.StringIO(text))
    with pytest.raises(ModelFormatError) as exc_info:
        _parse_model(io.StringIO(text))
    assert exc_info.value.line_number == 5


def _numpy_reads(token: str) -> bool:
    """Whether numpy.loadtxt reads `token` as the bulk reading calls it,
    with no error or warning, to the float64 that float gives."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = np.loadtxt([token], np.float64, comments=None, ndmin=2)[0, 0]
        except (ValueError, Warning):
            return False
    return np.array(float(token)).tobytes() == got.tobytes() or (
        np.isnan(got) and np.isnan(float(token))
    )


@pytest.mark.parametrize(
    "token", ["NaN", "-nan", "+inf", "Infinity", "inF", "1e400", "-1e400", "nan(1)", "infinite"]
)
def test_a_value_that_is_not_finite_gives_one_error_read_in_bulk_or_line_by_line(token):
    """The bulk reading takes a value that numpy reads as float does, finite
    or not, and the model's checks reject its factor at its table line; a
    `1_0` token, which numpy refuses, sends the piece to the line checks,
    which give the same error. A token float refuses is a bad value both
    ways."""
    try:
        message = f"line 4: factor 0: non-finite table value {float(token)}"
    except ValueError:
        message = "line 4: bad table value"
    read_bulk = fileformat._read_bulk
    taken, errors = [], []

    def recorded(*args):
        numbers = read_bulk(*args)
        taken.append(numbers is not None)
        return numbers

    for last in ("0.75", "1_0"):
        text = f"bfg 1\nvars 2\nfactor 1 0\n0.5 {token}\nfactor 1 1\n0.25 {last}\n"
        with mock.patch.object(fileformat, "_read_bulk", recorded):
            with pytest.raises(ModelFormatError) as exc_info:
                parse_model(io.StringIO(text))
        errors.append((str(exc_info.value), exc_info.value.line_number))
    assert errors == [(message, 4)] * 2
    numpy_reads = _numpy_reads(token)
    assert taken == [numpy_reads, False]
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        # numpy 2 reads each token float reads, so the bulk path is taken
        assert numpy_reads == message.startswith("line 4: factor 0")


# The parse's tracemalloc peak per factor on the Ising 100x100 file when the
# parser read 32 KiB pieces, kept two int64 line numbers per factor and made
# two numpy.loadtxt calls per piece (numpy 2.4). With 128 KiB pieces and no
# line numbers it reads 105.2, so a larger piece or more kept per factor
# that gives the saving back shows here.
PARSE_PEAK_BYTES_PER_FACTOR = 122.4


def test_the_parse_peaks_within_its_bytes_per_factor(tmp_path):
    path = tmp_path / "ising.bfg"
    write_model(generate_ising(IsingSpec(100, 100, 0.5, 0)), path)
    tracemalloc.start()
    try:
        graph = parse_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(graph.table_start) <= PARSE_PEAK_BYTES_PER_FACTOR


def test_non_ascii_bytes_are_rejected_with_their_line(tmp_path):
    path = tmp_path / "model.bfg"
    path.write_bytes(b"bfg 1\nvars 2\n# a comment\nfactor 1 0\n0.5 \xff\n")
    with pytest.raises(ModelFormatError, match="non-ASCII byte 0xff") as exc_info:
        parse_model(path)
    assert exc_info.value.line_number == 5


@pytest.mark.parametrize("size", CHUNK_SIZES)
@pytest.mark.parametrize(
    "text,bad_line,message",
    [
        ("bfg 1\nvars \u0661\n", 2, "non-ASCII character '\u0661'"),  # an Arabic-Indic 1
        ("bfg 1\nvars 2\nfactor\u00a01 0\n1 2\n", 3, "non-ASCII character '\\xa0'"),
        ("# caf\u00e9\nbfg 1\nvars 1\n", 1, "non-ASCII"),
        ("bfg 2\nvars \u0661\n", 1, "bad header"),  # an earlier fault comes first
    ],
)
def test_non_ascii_characters_are_rejected_with_their_line(size, text, bad_line, message):
    with mock.patch.object(fileformat, "CHUNK_CHARS", size):
        with pytest.raises(ModelFormatError, match=re.escape(message)) as exc_info:
            parse_model(io.StringIO(text))
    assert exc_info.value.line_number == bad_line
