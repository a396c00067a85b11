"""Matrix Market round trips: values must survive write/read bit-exactly
(17 significant decimal digits). Only the dense array layout is supported.
Both directions stream in blocks: a block shrunk to a few characters, so
that values straddle blocks, must give the same arrays and the same text,
and the memory either direction uses stays near the array's own size.
Malformed files raise ValueError naming the file."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podrom import mmio


def reference_text(a):
    """The written file as the reference format: the header, the shape,
    then "%.17g" of each value in column-major order, one per line."""
    lines = ["%%MatrixMarket matrix array real general", f"{a.shape[0]} {a.shape[1]}"]
    return "\n".join(lines + ["%.17g" % v for v in a.flatten(order="F")]) + "\n"


def test_dense_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 4)) * np.exp(rng.standard_normal((7, 4)) * 10)
    path = tmp_path / "a.mtx"
    mmio.write_dense(path, a)
    back = mmio.read(path)
    assert back.shape == a.shape
    assert np.array_equal(back, a)


def test_dense_vector_column(tmp_path):
    v = np.array([1.0, np.pi, 1e-300, -2.5e280])
    path = tmp_path / "v.mtx"
    mmio.write_dense(path, v[:, None])
    back = mmio.read(path)
    assert np.array_equal(back[:, 0], v)


def test_comments_are_skipped(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n"
        "% produced by a test\n"
        "%\n"
        "2 2\n1\n2\n3\n4.5\n"
    )
    assert np.array_equal(mmio.read(path), [[1.0, 3.0], [2.0, 4.5]])


def test_rejects_non_matrix_market(tmp_path):
    path = tmp_path / "junk.mtx"
    path.write_text("hello world\n1 2 3\n")
    with pytest.raises(ValueError):
        mmio.read(path)


def test_rejects_a_complex_matrix(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text("%%MatrixMarket matrix array complex general\n1 1\n1.0 0.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: only real matrices are supported")):
        mmio.read(path)


def test_rejects_coordinate_layout(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n")
    with pytest.raises(ValueError, match="unsupported layout 'coordinate'"):
        mmio.read(path)


POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-8, 19)])
#: the doubles where the digits or the layout change: 10^k and its two
#: neighbours, a 17-digit tie, the double 1e-6 (below 10^-6), the literal
#: 99999999999999999 (the double 1e17), zeros, the smallest subnormal and
#: the largest double
EDGES = np.concatenate([
    POWERS_OF_TEN,
    np.nextafter(POWERS_OF_TEN, 0.0),
    np.nextafter(POWERS_OF_TEN, np.inf),
    [1000000000000000.25, 9.9999999999999995e-07, 99999999999999999.0, 0.0, -0.0, 5e-324,
     np.finfo(np.float64).max],
])


def test_written_text_is_one_17_digit_value_per_line(tmp_path):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((33, 5)) * np.exp(rng.standard_normal((33, 5)) * 20)
    a[:6, 0] = [0.0, -0.0, 1e-300, 5e-324, np.inf, -np.inf]
    path = tmp_path / "a.mtx"
    for values in (a, EDGES[:, None], -EDGES[:, None]):
        mmio.write_dense(path, values)
        assert path.read_text() == reference_text(values)


@settings(max_examples=200, deadline=None)
@given(
    bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
    floats=st.lists(st.floats(-3e17, 3e17), max_size=40),
)
def test_any_double_is_written_as_the_reference(tmp_path_factory, bits, floats):
    # every 64-bit pattern (NaN, inf and subnormals included), and floats
    # drawn around the range the digits are formed in without "%"
    a = np.concatenate([np.array(bits, dtype=np.uint64).view(np.float64), floats])[:, None]
    path = tmp_path_factory.mktemp("any") / "a.mtx"
    mmio.write_dense(path, a)
    assert path.read_text() == reference_text(a)


def test_write_rejects_an_array_of_more_than_two_dimensions(tmp_path):
    path = tmp_path / "cube.mtx"
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape("shape (2, 3, 4)")):
        mmio.write_dense(path, np.zeros((2, 3, 4)))
    assert not path.exists()


SPECIAL = np.array([[-0.0, 5e-324, np.inf], [-np.inf, np.nan, 1.0 / 3.0]])


@pytest.mark.parametrize("block", [1, 2, 3, 7, 26])
class TestSmallBlocks:
    """Blocks of a few characters: each value and line end straddles blocks."""

    def test_special_values_round_trip(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(mmio, "_BLOCK", block)
        path = tmp_path / "s.mtx"
        mmio.write_dense(path, SPECIAL)
        assert path.read_text() == reference_text(SPECIAL)
        back = mmio.read(path)
        assert np.array_equal(back, SPECIAL, equal_nan=True)
        assert np.array_equal(np.signbit(back), np.signbit(SPECIAL))

    def test_written_text_matches_the_reference(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(mmio, "_BLOCK", block)
        rng = np.random.default_rng(1)
        a = rng.standard_normal((33, 5)) * np.exp(rng.standard_normal((33, 5)) * 20)
        path = tmp_path / "a.mtx"
        mmio.write_dense(path, a)
        assert path.read_text() == reference_text(a)
        assert np.array_equal(mmio.read(path), a)

    def test_no_final_newline(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(mmio, "_BLOCK", block)
        path = tmp_path / "n.mtx"
        path.write_text(reference_text(SPECIAL).rstrip("\n"))
        assert np.array_equal(mmio.read(path), SPECIAL, equal_nan=True)

    def test_crlf_line_ends(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(mmio, "_BLOCK", block)
        path = tmp_path / "w.mtx"
        path.write_bytes(reference_text(SPECIAL).replace("\n", "\r\n").encode())
        assert np.array_equal(mmio.read(path), SPECIAL, equal_nan=True)

    def test_comment_and_blank_lines(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(mmio, "_BLOCK", block)
        path = tmp_path / "c.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n% a comment\n%\n\n"
            "2 2\n1\n\n2\n  3\n4.5\n\n"
        )
        assert np.array_equal(mmio.read(path), [[1.0, 3.0], [2.0, 4.5]])


def test_empty_array_round_trip(tmp_path):
    for shape in ((0, 3), (4, 0)):
        path = tmp_path / "e.mtx"
        mmio.write_dense(path, np.empty(shape))
        assert mmio.read(path).shape == shape


BANNER = "%%MatrixMarket matrix array real general\n"


@pytest.mark.parametrize(
    "body, message",
    [
        ("", "missing the size line"),
        ("% only a comment\n\n", "missing the size line"),
        ("2\n1\n2\n", "size line '2' is not two non-negative integers"),
        ("2 2 4\n1\n2\n3\n4\n", "size line '2 2 4' is not two"),
        ("2 x\n1\n2\n", "size line '2 x' is not two"),
        ("2.0 1\n1\n2\n", "size line '2.0 1' is not two"),
        ("-1 2\n", "size line '-1 2' is not two non-negative"),
        ("2 2\n1\n2\n3\n", "expected 2 x 2 = 4 values, found 3"),
        ("2 2\n", "expected 2 x 2 = 4 values, found 0"),
        ("2 1\n1\n2\n3\n", "more than the 2 values the size line gives"),
        ("3 1\n1\nabc\n3\n", "a non-numeric value after the first"),
        # the count names the values before the bad token, wherever a block ends
        ("2 1\n1.0\nabc\n", "a non-numeric value after the first 1 values"),
        ("4 1\n1\n2\n3\nabc\n", "a non-numeric value after the first 3 values"),
        ("3 1\n1 2 x\n3\n", "a non-numeric value after the first 2 values"),
        ("2 1\n1\n2,\n", "a non-numeric value after the first"),
        ("2 1\n1\n% late comment\n", "a non-numeric value"),
    ],
)
@pytest.mark.parametrize("block", [3, mmio._BLOCK])
def test_malformed_file_names_itself(tmp_path, monkeypatch, body, message, block):
    monkeypatch.setattr(mmio, "_BLOCK", block)
    path = tmp_path / "bad.mtx"
    path.write_text(BANNER + body)
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
        mmio.read(path)


def test_non_numeric_value_on_a_numpy_that_only_warns(tmp_path, monkeypatch):
    # numpy before the deprecation expired returns the values before a bad
    # token and warns; that must raise the same ValueError
    def fromstring_that_warns(text, sep):
        warnings.warn("string or file could not be read to its end due to unmatched data", DeprecationWarning)
        return np.array([1.0])

    monkeypatch.setattr(mmio.np, "fromstring", fromstring_that_warns)
    path = tmp_path / "bad.mtx"
    path.write_text(BANNER + "3 1\n1\nabc\n3\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: a non-numeric value after the first 1 values")):
        mmio.read(path)


@pytest.mark.parametrize("shape", [(2178, 129), (8450, 257)])
def test_memory_stays_near_the_array(tmp_path, shape):
    # the peak of traced allocations (numpy reports its data to tracemalloc)
    # while writing and while reading, against the array's own bytes: a
    # Python float and string per value would take about 9x and 12x
    rng = np.random.default_rng(2)
    a = rng.standard_normal(shape) * np.exp(rng.standard_normal(shape) * 10)
    bound = 1.5 * a.nbytes + mmio._BLOCK
    path = tmp_path / "big.mtx"
    tracemalloc.start()
    try:
        mmio.write_dense(path, a)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        back = mmio.read(path)
        read_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, a)
    assert write_peak <= bound, (write_peak, a.nbytes)
    assert read_peak <= bound, (read_peak, a.nbytes)
