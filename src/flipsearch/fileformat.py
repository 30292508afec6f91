"""The `bfg 1` model file format and the solve-trace JSON schema.

Line-oriented text:

    bfg 1
    vars <m>
    factor <k> <v1> ... <vk>
    <2^k reals, last scope variable varying fastest>
    ...

The file is ASCII. A line whose first non-blank character is '#' is a
comment; comments and blank lines are skipped. Tokens are separated by the
ASCII characters str.split() takes for whitespace. Reals are written with
Python's shortest round-trippable repr and read with float, so
parse(write(G)) reproduces the model value-exactly.

The parser reads CHUNK_CHARS characters at a time, cut at a line end, and
reads each piece in one of two ways. numpy finds its token starts and line
ids, classes its content lines by their index in the file and counts the
tokens on each. If every factor line has its keyword and 2 + k tokens for
its arity k, and every table line 2^k values, the piece is read in bulk:
its arity and scope tokens, and its values, are gathered from its bytes
into one buffer each and converted by one numpy.loadtxt call, which reads
a value as float does, bit for bit. A piece that fails these counts, or
whose tokens numpy rejects, warns about or reads as not finite, is read
line by line by the checks a line-by-line parser makes, through int and
float: the first faulty line raises its error with its line number, and a
piece with none (an int written 1_0, which numpy rejects) gives its
numbers.
"""

from __future__ import annotations

import dataclasses
import json
import re
import warnings
from array import array
from itertools import islice
from typing import IO, Iterable

import numpy as np

from .model import MAX_VARIABLES, FactorGraph, ModelError, check_factor, graph_from_arrays
from .model import build_factor_graph  # noqa: F401  (perfbench/spans.py traces it here)
from .solver import TraceRecord

__all__ = [
    "ModelFormatError",
    "write_model",
    "parse_model",
    "write_trace",
    "write_configuration",
    "parse_configuration",
]


class ModelFormatError(ValueError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def write_model(graph: FactorGraph, destination) -> None:
    if hasattr(destination, "write"):
        _write_model(graph, destination)
    else:
        with open(destination, "w") as fh:
            _write_model(graph, fh)


def _write_model(graph: FactorGraph, fh: IO[str]) -> None:
    m = graph.variable_count
    values = map(repr, graph.tables.tolist())
    fh.write(f"bfg 1\nvars {m}\n")
    for scope in graph.scopes.T.tolist():
        scope = [str(v) for v in scope if v != m]
        table = " ".join(islice(values, 1 << len(scope)))
        fh.write(f"factor {len(scope)} {' '.join(scope)}\n{table}\n")


def parse_model(source) -> FactorGraph:
    if hasattr(source, "read"):
        return _parse_model(source)
    # a byte outside ASCII decodes to a lone surrogate, which the parser
    # rejects with its line number
    with open(source, encoding="ascii", errors="surrogateescape") as fh:
        return _parse_model(fh)


# The source is read in pieces of about this many characters, each cut at
# a line end. Larger pieces parse a little faster, while a piece's buffers,
# and so the peak memory, grow with it.
CHUNK_CHARS = 1 << 15

# Maps the ASCII characters that str.split() and str.strip() take for
# whitespace to a space, the one blank numpy.loadtxt splits on here.
_BLANKS = b"\t\n\v\f\r\x1c\x1d\x1e\x1f"
_SPACED = bytes.maketrans(_BLANKS, b" " * len(_BLANKS))
_SPACE = ord(" ")
_FACTOR = np.frombuffer(b"factor", np.uint8)
_NON_ASCII = re.compile(r"[^\x00-\x7f]")


def _chunks(fh: IO[str]):
    """The text of `fh` in pieces of about CHUNK_CHARS characters, each but
    the last ending with a newline; a longer line makes its piece longer."""
    head: list[str] = []
    while block := fh.read(CHUNK_CHARS):
        cut = block.rfind("\n") + 1
        if cut:
            head.append(block[:cut])
            yield "".join(head)
            head = [block[cut:]]
        else:
            head.append(block)
    tail = "".join(head)
    if tail:
        yield tail


def _tokenise(text: str):
    """Tokenise the ASCII `text`. Returns its characters with every blank a
    space, padded with spaces; the start of each token that `text.split()`
    gives; per line, the offset of its end, its first token and its token
    count; the content lines, those neither blank nor a comment; and for
    each content line, whether its first token is 'factor'."""
    data = text.encode("ascii")
    # padded so that the first 7 characters from any token start, and the
    # character at the end of the last line, can be read
    chars = np.frombuffer((data + b" " * 6).translate(_SPACED), np.uint8)
    blank = np.concatenate(([True], chars[: len(data)] == _SPACE))
    starts = np.flatnonzero(blank[:-1] > blank[1:])  # a non-blank after a blank
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    if text and not text.endswith("\n"):
        ends = np.append(ends, len(data))
    after = np.searchsorted(starts, ends)  # tokens before each line's end
    count = np.diff(after, prepend=0)
    first = after - count
    lines = np.flatnonzero(count)
    head = chars[starts[first[lines]][:, None] + np.arange(7)]
    content = head[:, 0] != ord("#")
    head = head[content]
    keyword = (head[:, :6] == _FACTOR).all(axis=1) & (head[:, 6] == _SPACE)
    return chars, starts, ends, first, count, lines[content], keyword


def _read_numbers(chars: np.ndarray, lo: np.ndarray, hi: np.ndarray, expected: int, dtype):
    """The numbers in the sorted, disjoint character ranges [lo, hi) of
    `chars`, in order, as one numpy.loadtxt call reads them into a `dtype`
    array; None if it rejects or warns about one of them, finds other than
    `expected` of them or reads a float as not finite."""
    if not expected:
        return np.zeros(0, dtype)
    # the runs between consecutive bounds are out of a range and in one in turn
    bounds = np.column_stack((lo, hi)).ravel()
    run = np.diff(bounds, prepend=0, append=len(chars))
    inside = np.repeat(np.arange(len(run)) % 2 == 1, run)
    text = chars[inside].tobytes().decode("ascii")
    # numpy 1.23 to 1.26 read an int token they reject, 1.5 or 1e5 say, as
    # a float with only a DeprecationWarning; any warning rejects the piece
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            numbers = np.loadtxt([text], dtype, comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
    if len(numbers) != expected:
        return None
    if numbers.dtype.kind == "f" and not np.isfinite(numbers).all():
        return None
    return numbers


# One line's checks, in the order a line-by-line reading makes them. The
# parser reads a piece line by line through the last two when its bulk
# reading fails; the first faulty line raises its error.


def _check_header(number: int, line: str) -> None:
    if line.split() != ["bfg", "1"]:
        raise ModelFormatError(number, f"bad header {line!r}, expected 'bfg 1'")


def _variable_count(number: int, line: str) -> int:
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
    return m


def _check_factor_line(number: int, line: str, factor: int, m: int) -> list[int]:
    """The scope on `line`, checked as the 'factor' line of factor number
    `factor`, short of the checks `graph_from_arrays` makes: a variable
    beyond int64, though, gets the message `check_factor` gives it here."""
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
        raise ModelFormatError(number, f"expected {k} scope indices, got {len(parts) - 2}")
    try:
        scope = [int(p) for p in parts[2:]]
    except ValueError:
        raise ModelFormatError(number, "bad scope index")
    if any(not -(2**63) <= v < 2**63 for v in scope):
        try:
            check_factor(factor, scope, (), m)
        except ModelError as exc:
            raise ModelFormatError(number, str(exc)) from exc
    return scope


def _check_table_line(number: int, line: str, k: int) -> list[float]:
    """The values on `line`, checked as the table of a factor of arity `k`,
    short of the checks `graph_from_arrays` makes."""
    parts = line.split()
    if len(parts) != 2**k:
        raise ModelFormatError(number, f"expected {2 ** k} values, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ModelFormatError(number, "bad table value")


def _parse_model(fh: IO[str]) -> FactorGraph:
    m = 0
    lines_before = 0  # lines in earlier chunks
    content_before = 0  # content lines in earlier chunks
    # every factor's arity, scope and values, end to end; the line numbers
    # of its scope and values place an error the model's checks find
    arity = array("q")
    scopes = array("q")
    values = array("d")
    scope_lines = array("q")
    value_lines = array("q")
    for text in _chunks(fh):
        non_ascii = None if text.isascii() else _NON_ASCII.search(text)
        if non_ascii:  # read the lines before it, then reject it
            text = text[: text.rfind("\n", 0, non_ascii.start()) + 1]
        chars, starts, ends, first, count, lines, keyword = _tokenise(text)

        def line(i: int) -> str:
            return text[ends[i - 1] + 1 if i else 0 : ends[i]].strip()

        # a content line's index in the file says what it is: the header,
        # the 'vars' line, then a factor line and its table in turn
        index = content_before + np.arange(len(lines))
        content_before += len(lines)
        for i, g in zip(lines[:2].tolist(), index[:2].tolist()):
            if g == 0:
                _check_header(lines_before + i + 1, line(i))
            elif g == 1:
                m = _variable_count(lines_before + i + 1, line(i))
        is_factor = (index >= 2) & (index % 2 == 0)
        is_table = (index >= 3) & (index % 2 == 1)
        factor_lines = lines[is_factor]
        table_lines = lines[is_table]
        last_k = arity[-1] if arity else 0  # of the factor before the piece
        size = count[factor_lines] - 1  # arity and scope tokens per line
        # the piece is read in bulk if each factor line has its keyword, an
        # arity k and k indices, and each table 2^k values
        bulk = keyword[is_factor].all() and (size > 1).all()
        if bulk:
            after_keyword = starts[first[factor_lines]] + len(_FACTOR)
            ints = _read_numbers(
                chars, after_keyword, ends[factor_lines] + 1, int(size.sum()), np.int64
            )
            floats = _read_numbers(
                chars, starts[first[table_lines]], ends[table_lines] + 1,
                int(count[table_lines].sum()), np.float64,
            )
            bulk = ints is not None and floats is not None
        if bulk:
            at = np.cumsum(size) - size  # each line's arity among the ints
            k = ints[at]
            # each table line's arity is that of the factor line before it,
            # which may be the last one of an earlier piece
            table_k = np.concatenate(([last_k], k))[(index[is_table] - 1) // 2 - len(arity)]
            bulk = (size - 1 == k).all() and (
                count[table_lines] == np.left_shift(1, np.clip(table_k, 0, 62))
            ).all()
        if bulk:
            ints = np.delete(ints, at)
        else:
            # read line by line: the first faulty line raises its error, and a
            # piece with none (an int written 1_0, say) gives its numbers
            k, ints, floats = [], [], []
            for i, g in zip(lines.tolist(), index.tolist()):
                number = lines_before + i + 1
                if g >= 2 and g % 2 == 0:
                    scope = _check_factor_line(number, line(i), len(arity) + len(k), m)
                    k.append(len(scope))
                    ints += scope
                elif g >= 3:
                    floats += _check_table_line(number, line(i), k[-1] if k else last_k)
            k, ints, floats = (np.array(k, np.int64), np.array(ints, np.int64),
                               np.array(floats, np.float64))
        if non_ascii:
            code = ord(non_ascii.group())
            if 0xDC80 <= code <= 0xDCFF:  # a byte the ASCII decoder escaped
                what = f"byte 0x{code - 0xDC00:02x}"
            else:
                what = f"character {non_ascii.group()!r}"
            raise ModelFormatError(lines_before + len(ends) + 1, f"non-ASCII {what}")

        arity.frombytes(k.tobytes())
        scopes.frombytes(ints.tobytes())
        values.frombytes(floats.tobytes())
        scope_lines.frombytes((lines_before + factor_lines + 1).tobytes())
        value_lines.frombytes((lines_before + table_lines + 1).tobytes())
        lines_before += len(ends)

    if content_before < 2:
        what = "header 'bfg 1'" if content_before == 0 else "'vars <m>'"
        raise ModelFormatError(lines_before + 1, f"unexpected end of file, expected {what}")
    if content_before % 2:
        raise ModelFormatError(
            scope_lines[-1], "unexpected end of file, expected factor value table"
        )
    arity = np.frombuffer(arity, np.int64)
    try:
        return graph_from_arrays(
            m, arity, np.frombuffer(scopes, np.int64), 1 << arity, np.frombuffer(values)
        )
    except ModelError as exc:
        lines_of = value_lines if exc.part == "table" else scope_lines
        raise ModelFormatError(lines_of[exc.factor], str(exc)) from exc


def write_trace(trace: Iterable[TraceRecord], destination) -> None:
    records = [dataclasses.asdict(r) for r in trace]
    if hasattr(destination, "write"):
        json.dump(records, destination, indent=2)
    else:
        with open(destination, "w") as fh:
            json.dump(records, fh, indent=2)
            fh.write("\n")


def write_configuration(bits, destination) -> None:
    text = "".join(str(int(b)) for b in bits) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w") as fh:
            fh.write(text)


def parse_configuration(source, variable_count: int) -> np.ndarray:
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source) as fh:
            text = fh.read()
    text = text.strip()
    if len(text) != variable_count or any(ch not in "01" for ch in text):
        raise ValueError(
            f"configuration must be {variable_count} characters of 0/1, "
            f"got {text[:40]!r}"
        )
    return np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")
