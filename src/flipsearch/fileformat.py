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

The parser reads CHUNK_CHARS (128 Ki) characters at a time, cut at a
line end, and reads each piece in one of two ways. numpy finds its token
starts and line ends, classes its content lines by their index in the file
and counts the tokens on each. If every factor line has its keyword and
2 + k tokens for its arity k, written with digits and signs only, and
every table line 2^k values, the piece is read in bulk, in one numeric
pass: the keywords, and any header, 'vars' or comment line, are blanked in
the piece's own bytes, one numpy.loadtxt call reads every token left as a
float64, as float reads it, bit for bit, and the per-line token counts
split the arities and scope indices from the values. An index is taken
only below 2^53 in magnitude, where a float64 holds it exactly. A piece
that fails these counts, or whose tokens numpy rejects or warns about, is
read line by line by the checks a line-by-line parser makes, through int
and float: the first faulty line raises its error with its line number,
and a piece with none (an int written 1_0, which numpy rejects) gives its
numbers. Either way a value that is not finite (nan, inf, 1e400) is read
as float reads it, and the model's checks reject its factor.

The parser keeps no line number per factor. Per piece it keeps the index
of its first content line, the lines before it and, unless every line of
the piece is content, the piece's content lines; an error the model's
checks find once the file is read is placed at its line from these.
README.md gives the setup and memory this saves (BENCH_25.json).

Each reader and writer takes a path or a file object.
"""

from __future__ import annotations

import dataclasses
import json
import re
import warnings
from array import array
from bisect import bisect_right
from contextlib import nullcontext
from itertools import islice
from operator import itemgetter
from typing import IO, Iterable

import numpy as np

from .model import MAX_VARIABLES, FactorGraph, ModelError, check_factor, graph_from_arrays
from .model import build_factor_graph  # noqa: F401  (perfbench/spans.py traces it here)

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


def _opened(target, mode: str, **kw):
    """A context giving `target` itself if it is a file object for `mode`,
    "r" or "w", or else the file it names, opened with `mode` and `kw`."""
    if hasattr(target, "read" if mode == "r" else "write"):
        return nullcontext(target)
    return open(target, mode, **kw)


def write_model(graph: FactorGraph, destination) -> None:
    m = graph.variable_count
    values = map(repr, graph.tables.tolist())
    with _opened(destination, "w") as fh:
        fh.write(f"bfg 1\nvars {m}\n")
        for scope in graph.scopes.T.tolist():
            scope = [str(v) for v in scope if v != m]
            table = " ".join(islice(values, 1 << len(scope)))
            fh.write(f"factor {len(scope)} {' '.join(scope)}\n{table}\n")


def parse_model(source) -> FactorGraph:
    # a byte outside ASCII decodes to a lone surrogate, which the parser
    # rejects with its line number
    with _opened(source, "r", encoding="ascii", errors="surrogateescape") as fh:
        reader = _Reader()
        for text in _chunks(fh):
            reader.read(text)
        return reader.graph()


# The source is read in pieces of about this many characters, each cut at
# a line end. Larger pieces parse faster, while a piece's buffers, and so
# the peak memory, grow with it.
CHUNK_CHARS = 1 << 17

# Maps the ASCII characters that str.split() and str.strip() take for
# whitespace to a space, the one blank numpy.loadtxt splits on here.
_BLANKS = b"\t\n\v\f\r\x1c\x1d\x1e\x1f"
_SPACED = bytes.maketrans(_BLANKS, b" " * len(_BLANKS))
_SPACE = ord(" ")
# 'factor' and a blank, as the little-endian word of its first 7 characters
_FACTOR = int.from_bytes(b"factor ", "little")
_NON_ASCII = re.compile(r"[^\x00-\x7f]")
# Maps digits, signs and spaces to 1 and every other character to 0.
_INTEGRAL = bytes(c in b"0123456789+- " for c in range(256))
# An int token of smaller magnitude is read exactly as a float64.
_EXACT = 2.0**53
# numpy.loadtxt is given rows of this many numbers: it holds a row's
# characters at four bytes each, which for a whole piece in one row would
# be its largest buffer.
_ROW_NUMBERS = 1024


def _chunks(fh: IO[str]):
    """The text of `fh` in pieces of about CHUNK_CHARS characters, each but
    the last ending with a newline; a longer line makes its piece longer."""
    head: list[str] = []
    while block := fh.read(CHUNK_CHARS):
        cut = block.rfind("\n") + 1
        if cut:
            head.append(block[:cut])
            piece = "".join(head)
            head = [block[cut:]]
            del block  # only the piece is held while it is read
            yield piece
        else:
            head.append(block)
    tail = "".join(head)
    if tail:
        yield tail


def _tokenise(text: str):
    """Tokenise the ASCII `text`. Returns its characters in a bytearray, with
    every blank a space and padded with spaces; the start of each token that
    `text.split()` gives; per line, the offset of its end, its first token
    and its token count; the content lines, those neither blank nor a
    comment; and for each content line, whether its first token is
    'factor'."""
    chars = bytearray(text, "ascii")
    ends = np.flatnonzero(np.frombuffer(chars, np.uint8) == ord("\n"))
    if text and not text.endswith("\n"):
        ends = np.append(ends, len(text))
    # padded so that the 8 characters from any token start can be read
    chars += b" " * 7
    chars = chars.translate(_SPACED)
    blank = np.frombuffer(chars, np.uint8, len(text)) == _SPACE
    # a token starts with a non-blank after a blank
    starts = np.flatnonzero(np.concatenate(([True], blank[:-1])) > blank)
    after = np.searchsorted(starts, ends)  # tokens before each line's end
    count = np.diff(after, prepend=0)
    first = after - count
    lines = np.flatnonzero(count)
    # the first 8 characters of each line's first token, as one word
    head = np.ndarray(len(text), "<u8", chars, 0, (1,))[starts[first[lines]]]
    content = (head & 0xFF) != ord("#")
    keyword = (head[content] & (2**56 - 1)) == _FACTOR
    return chars, starts, ends, first, count, lines[content], keyword


def _read_numbers(chars: bytearray, cuts: list[int], expected: int):
    """The `expected` numbers of `chars`, which the offsets `cuts` split
    into rows of _ROW_NUMBERS and a last row of the rest, as one
    numpy.loadtxt call reads them into a float64 array, which reads a value
    as float does, bit for bit; None if it rejects or warns about one of
    them or finds other than `expected` of them."""
    if not expected:
        return np.zeros(0)
    text = memoryview(chars)
    rows = [str(text[a:b], "ascii") for a, b in zip([0, *cuts], [*cuts, len(chars)])]
    rows[-1] += " 0" * (-expected % _ROW_NUMBERS)  # fills the last row
    # any warning, such as numpy 1.23 to 1.26 give for some tokens they
    # read, rejects the piece
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(rows, np.float64, comments=None, ndmin=2)
        except (ValueError, Warning):
            return None
    if table.shape != (len(rows), _ROW_NUMBERS):
        return None
    return table.ravel()[:expected]


def _read_bulk(chars, starts, ends, first, count, numbered, p, last_k):
    """The arities, scopes and values of a piece's factor and table lines
    `numbered`, its first factor line at `p`, read in one numeric pass over
    its `chars` and the rest of what `_tokenise` gives; `last_k` is the
    arity of the factor before the piece. None unless every factor line has
    an arity k and k indices, written with digits and signs only, and every
    table 2^k values, all of which numpy reads."""
    factor_lines = numbered[p::2]
    size = count[factor_lines] - 1  # arity and scope tokens per line
    if not (size > 1).all():
        return None
    # every token but the keywords and those of the header, 'vars' and
    # comment lines is read
    keyword_at = starts[first[factor_lines]]
    blanked = np.frombuffer(chars, np.uint8)
    for j in range(len("factor")):
        blanked[keyword_at + j] = _SPACE
    per_line = count[numbered]  # numbers per line
    per_line[p::2] -= 1
    cum = np.cumsum(per_line)
    before = cum - per_line  # each line's first number
    expected = int(cum[-1]) if len(cum) else 0
    if len(starts) > len(factor_lines) + expected:
        other = count > 0
        other[numbered] = False
        for i in np.flatnonzero(other).tolist():
            lo = int(starts[first[i]])
            chars[lo : ends[i]] = b" " * (ends[i] - lo)
    bounds = np.column_stack((keyword_at, ends[factor_lines])).ravel()
    if len(bounds) and not np.logical_and.reduceat(
        np.frombuffer(chars.translate(_INTEGRAL), bool), bounds
    )[::2].all():
        return None
    # rows start at every _ROW_NUMBERS-th number, which on a factor line
    # is a token past the keyword
    row = np.arange(_ROW_NUMBERS, expected, _ROW_NUMBERS)
    at = np.searchsorted(cum, row, "right")
    token = first[numbered[at]] + row - before[at] + (at % 2 == p)
    numbers = _read_numbers(chars, starts[token].tolist(), expected)
    if numbers is None:
        return None
    arity_at = before[p::2]
    k = numbers[arity_at]
    # each table line's arity is that of the factor line before it, which
    # may be the last one of an earlier piece
    table_k = np.concatenate(([last_k], k))[1 - p : 1 - p + len(numbered) - len(factor_lines)]
    if not (size - 1 == k).all() or not (
        count[numbered[1 - p :: 2]] == np.left_shift(1, np.clip(table_k, 0, 62).astype(np.int64))
    ).all():
        return None
    is_scope = np.zeros(len(numbered), bool)
    is_scope[p::2] = True
    is_scope = np.repeat(is_scope, per_line)
    values = numbers[~is_scope]
    is_scope[arity_at] = False
    scopes = numbers[is_scope]
    if not (np.abs(scopes) < _EXACT).all():
        return None
    return k.astype(np.int64), scopes.astype(np.int64), values


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


class _Reader:
    """Reads a model file piece by piece; what a piece needs holds only
    while it is read."""

    def __init__(self):
        self.m = 0
        self.lines_before = 0  # lines in earlier pieces
        self.content_before = 0  # content lines in earlier pieces
        # every factor's arity, scope and values, end to end
        self.arity = array("q")
        self.scopes = array("q")
        self.values = array("d")
        # per piece with content: its first content line's index in the
        # file, the lines before it and, unless each of its lines is
        # content, its content lines; they place an error the model's
        # checks find
        self.pieces: list[tuple[int, int, np.ndarray | None]] = []

    def read(self, text: str) -> None:
        non_ascii = None if text.isascii() else _NON_ASCII.search(text)
        if non_ascii:  # read the lines before it, then reject it
            text = text[: text.rfind("\n", 0, non_ascii.start()) + 1]
        chars, starts, ends, first, count, lines, keyword = _tokenise(text)
        lines_before, content_before = self.lines_before, self.content_before

        def line(i: int) -> str:
            return text[ends[i - 1] + 1 if i else 0 : ends[i]].strip()

        # a content line's index in the file says what it is: the header,
        # the 'vars' line, then a factor line and its table in turn
        skip = max(0, 2 - content_before)
        for g, i in enumerate(lines[:skip].tolist(), content_before):
            if g == 0:
                _check_header(lines_before + i + 1, line(i))
            else:
                self.m = _variable_count(lines_before + i + 1, line(i))
        p = (content_before + skip) % 2  # the first factor line after those
        last_k = self.arity[-1] if self.arity else 0  # of the factor before the piece
        bulk = keyword[skip + p :: 2].all() and _read_bulk(
            chars, starts, ends, first, count, lines[skip:], p, last_k
        )
        if bulk:
            k, ints, floats = bulk
        else:
            # read line by line: the first faulty line raises its error, and a
            # piece with none (an int written 1_0, say) gives its numbers
            k, ints, floats = [], [], []
            for g, i in enumerate(lines.tolist(), content_before):
                number = lines_before + i + 1
                if g >= 2 and g % 2 == 0:
                    scope = _check_factor_line(number, line(i), len(self.arity) + len(k), self.m)
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

        if len(lines):
            every = len(lines) == len(ends)
            self.pieces.append((content_before, lines_before, None if every else lines))
        self.content_before += len(lines)
        self.lines_before += len(ends)
        self.arity.frombytes(memoryview(k).cast("B"))
        self.scopes.frombytes(memoryview(ints).cast("B"))
        self.values.frombytes(memoryview(floats).cast("B"))

    def line_number(self, index: int) -> int:
        """The line number of the content line with `index` in the file."""
        at = bisect_right(self.pieces, index, key=itemgetter(0)) - 1
        content_before, lines_before, lines = self.pieces[at]
        i = index - content_before
        return lines_before + 1 + (i if lines is None else int(lines[i]))

    def graph(self) -> FactorGraph:
        if self.content_before < 2:
            what = "header 'bfg 1'" if self.content_before == 0 else "'vars <m>'"
            raise ModelFormatError(
                self.lines_before + 1, f"unexpected end of file, expected {what}"
            )
        if self.content_before % 2:
            raise ModelFormatError(
                self.line_number(self.content_before - 1),
                "unexpected end of file, expected factor value table",
            )
        arity = np.frombuffer(self.arity, np.int64)
        try:
            return graph_from_arrays(
                self.m, arity, np.frombuffer(self.scopes, np.int64), 1 << arity,
                np.frombuffer(self.values),
            )
        except ModelError as exc:
            index = 2 + 2 * exc.factor + (exc.part == "table")
            raise ModelFormatError(self.line_number(index), str(exc)) from exc


def write_trace(trace: Iterable, destination) -> None:
    """Write the records of `SolveResult.trace` as a JSON array."""
    records = [dataclasses.asdict(r) for r in trace]
    with _opened(destination, "w") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")


def write_configuration(bits, destination) -> None:
    text = (np.asarray(bits, np.uint8) + ord("0")).tobytes().decode() + "\n"
    with _opened(destination, "w") as fh:
        fh.write(text)


def parse_configuration(source, variable_count: int) -> np.ndarray:
    with _opened(source, "r") as fh:
        text = fh.read().strip()
    if len(text) != variable_count or any(ch not in "01" for ch in text):
        raise ValueError(
            f"configuration must be {variable_count} characters of 0/1, "
            f"got {text[:40]!r}"
        )
    return np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")
