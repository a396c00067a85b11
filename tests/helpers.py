"""Oracles that only the tests use: a CSR matrix as a dense array, and the
L2 norm and H1 seminorm of a nodal field."""

import numpy as np


def as_dense(a) -> np.ndarray:
    """The CSR matrix ``a`` as a dense (rows, cols) array."""
    out = np.zeros((a.rows, a.cols))
    out[a.row_indices(), a.col_indices] = a.values
    return out


def norms(space, v):
    """(L2 norm, H1 seminorm) of a nodal field; a multi-component field,
    stacked or (n_comp, n_dof), by the space's stacked mass and stiffness."""
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.size % space.n_dof != 0:
        raise ValueError("vector length must be a multiple of n_dof")
    nc = v.size // space.n_dof
    l2sq = float(v @ space.mass_matrix(nc).matvec(v))
    h1sq = float(v @ space.stiffness_matrix(nc).matvec(v))
    return np.sqrt(max(l2sq, 0.0)), np.sqrt(max(h1sq, 0.0))
