"""Matrix Market exchange format I/O for dense arrays.

Dense matrices are written in array format (column-major). Values use 17
significant digits so doubles round-trip bit-exactly. Only the array layout
is read; a coordinate-layout file raises ValueError, and so does a missing
or malformed size line, a non-numeric value or a value count other than
m·n, each naming the file.

Both directions stream the values in blocks of at most ``_BLOCK``
characters of text: ``write_dense`` formats and writes one block at a time,
and ``read`` parses each block with one numpy call into a preallocated
array. Neither holds the text or one Python object per value, so each uses
memory of about 1x the array plus one block.
"""

from __future__ import annotations

import warnings

import numpy as np

_FMT = "%.17g"
#: the longest "%.17g\n" line of a double, "-2.2250738585072014e-308\n"
_LINE_MAX = 25
#: characters of text formatted or parsed at a time
_BLOCK = 1 << 16


def write_dense(path, a: np.ndarray):
    """Write a dense array in array layout, one "%.17g" value per line in
    column-major order, formatting at most ``_BLOCK`` characters at a time."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    flat = a.T.flat  # column-major order, without a copy of the array
    per_block = max(1, _BLOCK // _LINE_MAX)
    line = _FMT + "\n"
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for start in range(0, a.size, per_block):
            values = flat[start : start + per_block].tolist()
            fh.write(line * len(values) % tuple(values))


def read(path) -> np.ndarray:
    """Read a Matrix Market array-layout file into a 2-D ndarray.

    The body is read in blocks of ``_BLOCK`` characters, each cut at its
    last newline (the partial line is carried into the next block) and
    parsed straight into the preallocated m·n result."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) < 5 or header[0] != "%%MatrixMarket" or header[1] != "matrix":
            raise ValueError(f"{path}: not a Matrix Market file")
        layout, dtype = header[2], header[3]
        if dtype != "real":
            raise ValueError(f"{path}: only real matrices are supported")
        if layout != "array":
            raise ValueError(f"{path}: unsupported layout {layout!r}")
        line = fh.readline()
        while line.startswith("%") or (line and line.isspace()):
            line = fh.readline()
        m, n = _sizes(path, line)
        out = np.empty(m * n)
        filled, carry = 0, ""
        # older numpy stops at a non-numeric token with a DeprecationWarning
        # where newer numpy raises ValueError; both become a ValueError here
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for block in iter(lambda: fh.read(_BLOCK), ""):
                text = carry + block
                cut = text.rfind("\n") + 1
                filled = _parse_into(out, filled, text[:cut], path)
                carry = text[cut:]
            filled = _parse_into(out, filled, carry, path)
    if filled != out.size:
        raise ValueError(f"{path}: expected {m} x {n} = {out.size} values, found {filled}")
    return out.reshape((m, n), order="F")


def _sizes(path, line: str) -> tuple[int, int]:
    """(m, n) from the size line; ValueError naming ``path`` unless it holds
    exactly two non-negative integers."""
    if not line:
        raise ValueError(f"{path}: missing the size line 'm n'")
    try:
        m, n = (int(s) for s in line.split())
    except ValueError:
        m = n = -1
    if m < 0 or n < 0:
        raise ValueError(f"{path}: size line {line.strip()!r} is not two non-negative integers 'm n'")
    return m, n


def _parse_into(out: np.ndarray, filled: int, text: str, path) -> int:
    """Parse the whitespace-separated values of ``text`` into ``out`` after
    its first ``filled`` values; returns the new count."""
    if not text or text.isspace():  # numpy parses blank text as [-1.0]
        return filled
    try:
        values = np.fromstring(text, sep=" ")
    except (ValueError, DeprecationWarning):
        raise ValueError(f"{path}: a non-numeric value after the first {filled} values") from None
    if filled + values.size > out.size:
        raise ValueError(f"{path}: more than the {out.size} values the size line gives")
    out[filled : filled + values.size] = values
    return filled + values.size
