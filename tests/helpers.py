"""Oracles that only the tests use: a CSR matrix as a dense array, and the
L2 norm and H1 seminorm of a nodal field."""

import numpy as np


def as_dense(a) -> np.ndarray:
    """The CSR matrix ``a`` as a dense (rows, cols) array."""
    out = np.zeros((a.rows, a.cols))
    out[a.row_indices(), a.col_indices] = a.values
    return out


def norms(space, v):
    """(L2 norm, H1 seminorm) of a nodal field; multi-component fields are
    stacked and the quadratic forms summed over components."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        if v.size % space.n_dof != 0:
            raise ValueError("vector length must be a multiple of n_dof")
        v = v.reshape(-1, space.n_dof)
    m = space.mass_matrix()
    a = space.stiffness_matrix()
    l2sq = sum(float(c @ m.matvec(c)) for c in v)
    h1sq = sum(float(c @ a.matvec(c)) for c in v)
    return np.sqrt(max(l2sq, 0.0)), np.sqrt(max(h1sq, 0.0))
