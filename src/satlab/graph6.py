"""graph6 text format.

Standard encoding: a size header, then the upper triangle of the
adjacency matrix in column order x(0,1), x(0,2), x(1,2), x(0,3), ...,
packed into 6-bit groups (most significant bit first), each group offset
by 63 into printable ASCII.  Both directions see the data as one string
of "0"/"1" characters, through one 64-entry table (``_SIX``) from each
data byte to its six bits and back.  ``_column_bits`` states the column
bit order once: the encoder joins its strings, the decoder reads rows
back out of the same layout, and ``column`` (used by
``canon.is_canonical`` and the enumeration) is its int form.
"""

from __future__ import annotations

from .errors import CapacityError, Graph6ParseError, InputError
from .graphs import MAX_VERTICES, Graph

_HEADER = ">>graph6<<"


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string."""
    return _encode_n(g.n) + _encode_bits(g.rows, g.n)


def _encode_n(n: int) -> str:
    if n < 0:
        raise InputError(f"vertex count must be nonnegative, got {n}")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr((n >> s & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise InputError(f"n={n} too large for graph6")


# each data byte (63 + v) and its six bits, most significant first
_SIX = {chr(63 + v): format(v, "06b") for v in range(64)}
_TO_SIX = str.maketrans(_SIX)
_FROM_SIX = {six: ch for ch, six in _SIX.items()}


def _column_bits(row: int, j: int) -> str:
    """Bits 0..j-1 of ``row`` as graph6 column j: one character per
    vertex, vertex 0 first.  ``int(bits[::-1], 2)`` reads it back."""
    return format(row & ((1 << j) - 1), f"0{j}b")[::-1]


def column(row: int, j: int) -> int:
    """Bits 0..j-1 of ``row`` as graph6 column j, vertex 0 the most
    significant bit.  Its own inverse: it maps a column back to the row
    bits it came from."""
    return int(_column_bits(row, j), 2)


def _encode_bits(rows: tuple[int, ...], n: int) -> str:
    bits = "".join(map(_column_bits, rows[1:], range(1, n)))
    bits += "0" * (-len(bits) % 6)  # zero padding to whole 6-bit groups
    return "".join([_FROM_SIX[bits[k:k + 6]] for k in range(0, len(bits), 6)])


def from_graph6(text: str) -> Graph:
    """Decode a graph6 line (an optional ``>>graph6<<`` header is allowed).

    Raises ``CapacityError`` as soon as the size header exceeds
    ``MAX_VERTICES``, before any data is read.
    """
    s = text.rstrip("\r\n")
    base = 0
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
        base = len(_HEADER)
    if not s:
        raise Graph6ParseError("empty graph6 string", base)
    n, pos = _decode_n(s, base)
    if n > MAX_VERTICES:
        raise CapacityError(f"n={n} exceeds capacity MAX_VERTICES={MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    data = s[pos:]
    if len(data) < need:
        raise Graph6ParseError(
            f"truncated data: need {need} bytes for n={n}, got {len(data)}",
            base + len(s),
        )
    if len(data) > need:
        raise Graph6ParseError("trailing bytes after graph data", base + pos + need)
    bits = data.translate(_TO_SIX)
    if len(bits) != 6 * need:  # a byte outside the table stays one character
        k = next(k for k, ch in enumerate(data) if ch not in _SIX)
        raise Graph6ParseError(f"byte {data[k]!r} outside graph6 range", base + pos + k)
    if "1" in bits[nbits:]:
        raise Graph6ParseError("nonzero padding bits", base + pos + need - 1)
    # column j at offset j*n, zero-padded to n bits: vertex i's bit of
    # column j > i sits at j*n + i, so row i, vertex 0 first, is its own
    # column followed by the stride-n slice from column i on (bit i is
    # 0), read back as ``_column_bits`` says
    padded = "".join([bits[j * (j - 1) // 2:j * (j + 1) // 2].ljust(n, "0") for j in range(n)])
    rows = [int((padded[i * n:i * n + i] + padded[i * n + i::n])[::-1], 2) for i in range(n)]
    return Graph._from_rows_unchecked(n, tuple(rows))


def _decode_n(s: str, base: int) -> tuple[int, int]:
    c0 = ord(s[0]) - 63
    if not 0 <= c0 <= 63:
        raise Graph6ParseError(f"byte {s[0]!r} outside graph6 range", base)
    if c0 != 63:
        return c0, 1
    # "~~" and six bytes for n > 258047, else "~" and three for n > 62
    start, end, floor = (2, 8, 258047) if s[1:2] == "~" else (1, 4, 62)
    if len(s) < end:
        raise Graph6ParseError(f"truncated {end}-byte size header", base + len(s))
    n = 0
    for k in range(start, end):
        v = ord(s[k]) - 63
        if not 0 <= v <= 63:
            raise Graph6ParseError(f"byte {s[k]!r} outside graph6 range", base + k)
        n = n << 6 | v
    if n <= floor:
        raise Graph6ParseError(f"non-canonical long size header for n={n}", base + start)
    return n, end


def _graph6_lines(lines):
    """Each non-blank line stripped, and the text to print for it: the line without its
    ``>>graph6<<`` header.  ``from_graph6`` rejects non-canonical size headers, nonzero
    padding and trailing bytes, so that text is ``to_graph6`` of every line it accepts."""
    for line in lines:
        line = line.strip()
        if line:
            yield line, line.removeprefix(_HEADER)


def read_graph6_lines(lines) -> list[Graph]:
    """Parse each non-blank line, stripped of surrounding whitespace (a
    CRLF line ending included); a malformed line raises its parse error."""
    return [from_graph6(line) for line, _ in _graph6_lines(lines)]
