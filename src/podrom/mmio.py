"""Matrix Market exchange format I/O for dense arrays.

Dense matrices are written in array format (column-major). Values use 17
significant digits so doubles round-trip bit-exactly. No stage reads an
export back: ``read`` serves the tests, and stays here only because the
benchmark's tracer names it as a target, which reads 0 on every workload;
it moves to the tests once a benchmark change drops that target. Only the
array layout is read. A malformed file, or an array ``write_dense`` cannot
write, raises ValueError naming the file.

Every line is exactly what ``"%.17g\\n" % x`` gives, formed in numpy for a
whole block at once. For 1e-6 < |x| < 1e17 the 17 digits are the integer
N = |x|·10^(16−X) rounded half to even, where X is the decimal exponent:
Dekker's product gives |x|·10^(16−X) exactly as hi + lo (10^(16−X) is an
exact double for X in −6..16), hi ≥ 1e16 > 2^53 is an even integer, so
N = hi + rint(lo), which is also what Python's correctly rounded
``%.17g`` prints. The digits are then laid out as ``%g`` does: fixed
notation for −4 ≤ X ≤ 16, "d.ddde-05" for X = −5 and −6, trailing zeros
dropped. Zeros print "0" or "-0". Only the other values, non-finite ones,
subnormals, 0 < |x| ≤ 1e-6 and |x| ≥ 1e17, go through ``%``.

Both directions stream the values in blocks of at most ``_BLOCK``
characters of text, so neither holds the text or one Python object per
value: each uses memory of the array plus one block's working arrays.
"""

from __future__ import annotations

import warnings

import numpy as np

#: the longest "%.17g\n" line of a double, "-2.2250738585072014e-308\n"
_LINE_MAX = 25
#: characters of text formatted or parsed at a time
_BLOCK = 1 << 16

#: 10^k for k = 0..22, each an exact double
_TEN = np.array([float(10**k) for k in range(23)])
#: the decimal exponents written without ``%``, one column each in the tables below
_EXPONENTS = range(-6, 17)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of doubles into high + low halves of 26 bits each."""
    c = 134217729.0 * x  # 2^27 + 1
    high = c - (c - x)
    return high, x - high


_TEN_HIGH, _TEN_LOW = _split(_TEN)


def _times_ten(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi + lo = a·10^k exactly and hi = fl(a·10^k), by
    Dekker's product (no fused multiply-add needed)."""
    a_high, a_low = _split(a)
    p_high, p_low = _TEN_HIGH[k], _TEN_LOW[k]
    hi = a * _TEN[k]
    lo = ((a_high * p_high - hi) + a_high * p_low + a_low * p_high) + a_low * p_low
    return hi, lo


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, X) with N·10^(X−16) the value of each a in (1e-6, 1e17) rounded
    to 17 significant digits, half to even, and 10^16 <= N < 10^17."""
    # floor(log10 a) may be one off next to a power of ten: the exact
    # product then falls outside [1e16, 1e17), and X moves by one
    e = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.intp)
    hi, lo = _times_ten(a, 16 - e)
    move = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.intp)
    move -= (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    moved = np.flatnonzero(move)
    if moved.size:
        e[moved] += move[moved]
        hi[moved], lo[moved] = _times_ten(a[moved], 16 - e[moved])
    # hi >= 1e16 > 2^53 is an even integer, so rint(lo) rounds half to even;
    # N stays below 10^17: rounding up to it needs a double within 5e-18
    # (relative) below a power of ten, and in this range the closest lie 8e-17 below
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), e


def _table(texts: list[str], width: int) -> np.ndarray:
    """The ASCII of each text, NUL-padded, one column per text."""
    return np.array(texts, f"S{width}").view(np.uint8).reshape(len(texts), width).T


#: "%04d" of 0..9999 as four ASCII bytes in one uint32
_QUADS = np.array([f"{q:04d}" for q in range(10000)], "S4").view(np.uint32)
#: what stands before the digits and after them, by decimal exponent
_PREFIX = _table(["0." + "0" * (-x - 1) if -4 <= x < 0 else "" for x in _EXPONENTS], 5)
_SUFFIX = _table([(f"e-{-x:02d}" if x < -4 else "") + "\n" for x in _EXPONENTS], 5)
#: the rows of one line's text: sign, prefix, 17 digits and a point, suffix
#: (more than the ``_LINE_MAX`` a line from ``%`` takes)
_WIDTH = 1 + 5 + 18 + 5
#: digit positions 0..17 as a column, in the uint8 the masks compare
_POSITION = np.arange(18, dtype=np.uint8)[:, None]


def _lines(x: np.ndarray) -> bytes:
    """The "%.17g" lines of the doubles ``x``, each with its newline, as bytes.

    Each line is laid out as one column of a NUL-padded (29, size) array of
    ASCII, one row per character position, and one ``translate`` drops the
    padding."""
    size = x.size
    a = np.abs(x)
    exact = (a > 1e-6) & (a < 1e17)
    n, e = _decimal(np.where(exact, a, 1.0))
    n = np.where(exact, n, 0)  # a zero prints "0"; "%" overwrites the rest
    quads = np.empty((5, size), np.int64)  # n's first digit, then 4 × 4 digits
    for i in range(4, 0, -1):
        high = n // 10**4
        quads[i] = n - high * 10**4
        n = high
    quads[0] = n
    digits = _QUADS[quads].view(np.uint8).reshape(5, size, 4).transpose(0, 2, 1).reshape(20, size)[3:]
    # the digits up to the last non-zero one are kept, and in fixed notation
    # the integer digits too; the point follows digit ``point`` (17: none)
    last = ((digits != ord("0")) * (_POSITION[:17] + 1)).max(axis=0)
    keep = np.where(e >= 0, np.maximum(last, e + 1), last).astype(np.uint8)
    point = np.where(e >= 0, e, np.where(e < -4, 0, 17))
    point = np.where(last > point + 1, point, 17).astype(np.uint8)
    body = np.zeros((18, size), np.uint8)
    np.multiply(digits, _POSITION[:17] < keep, out=body[:17])
    text = np.zeros((_WIDTH, size), np.uint8)
    text[0] = np.signbit(x) * np.uint8(ord("-"))
    np.take(_PREFIX, e + 6, axis=1, out=text[1:6])
    # position c holds digit c up to the point and digit c - 1 after it
    text[6] = body[0]
    unshifted = _POSITION[1:] <= point
    text[7:24] = body[1:] * unshifted + body[:-1] * ~unshifted
    dotted = np.flatnonzero(point < 17)
    text[7 + point[dotted], dotted] = ord(".")
    np.take(_SUFFIX, e + 6, axis=1, out=text[24:])
    rest = np.flatnonzero(~exact & (a != 0))
    if rest.size:
        text[:, rest] = _table(["%.17g\n" % v for v in x[rest].tolist()], _WIDTH)
    return text.T.tobytes().translate(None, b"\0")


def write_dense(path, a: np.ndarray):
    """Write a 1-D or 2-D array in array layout, one "%.17g" value per line
    in column-major order, formatting at most ``_BLOCK`` characters at a
    time."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if a.ndim > 2:
        raise ValueError(f"{path}: a Matrix Market array is 1-D or 2-D, got shape {a.shape}")
    flat = a.T.flat  # column-major order, without a copy of the array
    per_block = max(1, _BLOCK // _LINE_MAX)
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for start in range(0, a.size, per_block):
            fh.write(_lines(flat[start : start + per_block]).decode())


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
        before = 0  # the tokens of ``text`` that parse before the bad one
        for token in text.split():
            try:
                float(token)
            except ValueError:
                break
            before += 1
        raise ValueError(f"{path}: a non-numeric value after the first {filled + before} values") from None
    if filled + values.size > out.size:
        raise ValueError(f"{path}: more than the {out.size} values the size line gives")
    out[filled : filled + values.size] = values
    return filled + values.size
