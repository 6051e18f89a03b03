"""graph6 text format.

Standard encoding: a size header, then the upper triangle of the
adjacency matrix in column order x(0,1), x(0,2), x(1,2), x(0,3), ...,
packed into 6-bit groups (most significant bit first), each group offset
by 63 into printable ASCII.
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


def _encode_bits(rows: tuple[int, ...], n: int) -> str:
    chunks = []
    group = 0
    nbits = 0
    for j in range(1, n):
        col = rows[j]
        for i in range(j):
            group = group << 1 | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                chunks.append(chr(group + 63))
                group = 0
                nbits = 0
    if nbits:
        chunks.append(chr((group << (6 - nbits)) + 63))
    return "".join(chunks)


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
    rows = [0] * n
    bit = 0
    for k, ch in enumerate(data):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6ParseError(f"byte {ch!r} outside graph6 range", base + pos + k)
        for t in range(5, -1, -1):
            if bit >= nbits:
                if val >> t & 1:
                    raise Graph6ParseError("nonzero padding bits", base + pos + k)
                continue
            if val >> t & 1:
                i, j = _bit_to_pair(bit)
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            bit += 1
    return Graph._from_rows_unchecked(n, tuple(rows))


def _decode_n(s: str, base: int) -> tuple[int, int]:
    c0 = ord(s[0]) - 63
    if not 0 <= c0 <= 63:
        raise Graph6ParseError(f"byte {s[0]!r} outside graph6 range", base)
    if c0 != 63:
        return c0, 1
    if len(s) >= 2 and s[1] == "~":
        if len(s) < 8:
            raise Graph6ParseError("truncated 8-byte size header", base + len(s))
        n = 0
        for k in range(2, 8):
            v = ord(s[k]) - 63
            if not 0 <= v <= 63:
                raise Graph6ParseError(f"byte {s[k]!r} outside graph6 range", base + k)
            n = n << 6 | v
        if n <= 258047:
            raise Graph6ParseError(f"non-canonical long size header for n={n}", base + 2)
        return n, 8
    if len(s) < 4:
        raise Graph6ParseError("truncated 4-byte size header", base + len(s))
    n = 0
    for k in range(1, 4):
        v = ord(s[k]) - 63
        if not 0 <= v <= 63:
            raise Graph6ParseError(f"byte {s[k]!r} outside graph6 range", base + k)
        n = n << 6 | v
    if n <= 62:
        raise Graph6ParseError(f"non-canonical long size header for n={n}", base + 1)
    return n, 4


def _bit_to_pair(bit: int) -> tuple[int, int]:
    # inverse of the column-major upper-triangle enumeration
    j = 1
    while j * (j + 1) // 2 <= bit:
        j += 1
    i = bit - j * (j - 1) // 2
    return i, j


def read_graph6_lines(lines) -> list[Graph]:
    """Parse an iterable of graph6 lines.

    Surrounding whitespace (a CRLF line ending included) is stripped and
    blank lines are skipped; a malformed line raises its parse error.
    """
    out = []
    for line in lines:
        line = line.strip()
        if line:
            out.append(from_graph6(line))
    return out
