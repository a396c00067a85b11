"""Oracles that only the tests use: a CSR matrix as a dense array, the L2
norm and H1 seminorm of a nodal field, and the FOM's BDF residual from the
assembled scalar mass and stiffness, component by component."""

import numpy as np

from podrom.bdf import bdf_increment_form
from podrom.mesh_fem import assemble_load, assemble_mass, assemble_reaction_system, assemble_stiffness


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


def fom_residual_oracle(op, increment, history, scheme, dt, t):
    """M bdf_dt + nu K u + G(u) - F(t) of one BDF step at u = history[0] +
    increment for the system and space of ``op`` (a ``FomOperator``): the
    assembled scalar mass and stiffness applied component by component, nu
    after the product, minus each component's load, with the Dirichlet rows
    zeroed. Independent of ``FomOperator.residual``."""
    system, space = op.system, op.space
    bdf_dt = op.split(bdf_increment_form(scheme, increment, history, dt))
    candidate = op.split(history[0] + increment)
    reaction = assemble_reaction_system(space, candidate, system.g)
    forcing = system.forcing or [None] * op.nc
    mass, stiffness = assemble_mass(space), assemble_stiffness(space)
    want = []
    for c in range(op.nc):
        term = mass.matvec(bdf_dt[c])
        term = term + system.diffusion[c] * stiffness.matvec(candidate[c])
        term = term + reaction[c]
        if forcing[c] is not None:
            term = term - assemble_load(space, forcing[c], t)
        want.append(term)
    want = np.concatenate(want)
    want[op.mask] = 0.0
    return want
