"""Matrix Market round trips: values must survive write/read bit-exactly
(17 significant decimal digits). Only the dense array layout is supported."""

import numpy as np
import pytest

from podrom import mmio


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


def test_rejects_coordinate_layout(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n")
    with pytest.raises(ValueError, match="unsupported layout 'coordinate'"):
        mmio.read(path)


def test_written_text_is_one_17_digit_value_per_line(tmp_path):
    # the reference: the header, the shape, then "%.17g" of each value in
    # column-major order, one per line
    rng = np.random.default_rng(1)
    a = rng.standard_normal((33, 5)) * np.exp(rng.standard_normal((33, 5)) * 20)
    a[:6, 0] = [0.0, -0.0, 1e-300, 5e-324, np.inf, -np.inf]
    path = tmp_path / "a.mtx"
    mmio.write_dense(path, a)
    want = ["%%MatrixMarket matrix array real general", "33 5"]
    want += ["%.17g" % v for v in a.flatten(order="F")]
    assert path.read_text().split("\n") == want + [""]
