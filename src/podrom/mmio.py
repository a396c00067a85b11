"""Matrix Market exchange format I/O for dense arrays.

Dense matrices are written in array format (column-major). Values use 17
significant digits so doubles round-trip bit-exactly. Only the array layout
is read; a coordinate-layout file raises ValueError.
"""

from __future__ import annotations

import numpy as np

_FMT = "%.17g"


def write_dense(path, a: np.ndarray):
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        values = a.ravel(order="F").tolist()
        fh.write((_FMT + "\n") * len(values) % tuple(values))


def read(path) -> np.ndarray:
    """Read a Matrix Market array-layout file into a 2-D ndarray."""
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
        while line.startswith("%"):
            line = fh.readline()
        sizes = line.split()
        body = fh.read().split()
    m, n = int(sizes[0]), int(sizes[1])
    vals = np.array(body, dtype=np.float64)
    return vals.reshape((m, n), order="F")
