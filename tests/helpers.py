"""Oracles that only the tests use: the mesh and the Lagrange space built
cell by cell, a space clamped on its whole boundary, a CSR matrix as a
dense array, pattern-aligned values as a CSR matrix on the space's
pattern, the identity as a CSR matrix, the L2 norm and H1 seminorm of a
nodal field, the FOM's BDF residual from the assembled scalar mass and
stiffness, component by component, the load of a forcing by its pointwise
values, the projection errors by their plain formula, BiCGStab as a
fresh array per operation, and a recorder that checks a real time loop's
calls against ``bdf.implicit_step``'s contract."""

import math

import numpy as np

from podrom.bdf import bdf_increment_form
from podrom.linalg import ConvergenceError, CsrMatrix
from podrom.mesh_fem import (
    GAMMA1,
    GAMMA2,
    FeSpace,
    TriMesh,
    assemble_load,
    assemble_mass,
    assemble_reaction_system,
    assemble_stiffness,
    build_mesh,
    build_space,
    quadrature_for_degree,
)
from podrom.pod import project


def build_mesh_oracle(n_side):
    """``mesh_fem.build_mesh`` as a loop over the cells and the boundary."""
    n = n_side
    grid = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(grid, grid, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((a, b, c))  # below the SW-NE diagonal
            tris.append((a, c, d))  # above it
    triangles = np.array(tris, dtype=np.int64)

    edges = []
    for i in range(n):
        edges.append((vid(i, 0), vid(i + 1, 0), GAMMA2))  # y = 0
        edges.append((vid(0, i), vid(0, i + 1), GAMMA2))  # x = 0
        edges.append((vid(i, n), vid(i + 1, n), GAMMA1))  # y = 1
        edges.append((vid(n, i), vid(n, i + 1), GAMMA1))  # x = 1
    return TriMesh(n, vertices, triangles, edges)


def build_space_oracle(mesh, degree):
    """``mesh_fem.build_space`` with Dirichlet dofs on gamma1 and the P2
    edges numbered by a unique over the rows of the sorted endpoint pairs."""
    n_vert = len(mesh.vertices)
    if degree == 1:
        coords = mesh.vertices.copy()
        cell_dofs = mesh.triangles.copy()
    else:
        tri = mesh.triangles
        pairs = np.concatenate(
            [
                np.sort(tri[:, [1, 2]], axis=1),
                np.sort(tri[:, [0, 2]], axis=1),
                np.sort(tri[:, [0, 1]], axis=1),
            ]
        )
        uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
        edge_of = inverse.reshape(3, len(tri)).T  # local edges opposite vertices 0,1,2
        cell_dofs = np.column_stack([tri, n_vert + edge_of])
        midpoints = 0.5 * (mesh.vertices[uniq[:, 0]] + mesh.vertices[uniq[:, 1]])
        coords = np.vstack([mesh.vertices, midpoints])
    tol = 1e-12
    x, y = coords[:, 0], coords[:, 1]
    mask = (np.abs(x - 1.0) < tol) | (np.abs(y - 1.0) < tol)
    quad = quadrature_for_degree(2 if degree == 1 else 4)
    return FeSpace(mesh, degree, coords, mask, len(coords), cell_dofs, quad)


def clamped_space(n_side, degree):
    """``build_space`` with Dirichlet dofs on the whole boundary rather than
    on gamma1 alone, for fields such as sin(pi x) sin(pi y) that vanish on
    all of it."""
    space = build_space(build_mesh(n_side), degree)
    space.dirichlet_mask = ((space.dof_coords < 1e-12) | (space.dof_coords > 1.0 - 1e-12)).any(axis=1)
    return space


def as_dense(a) -> np.ndarray:
    """The CSR matrix ``a`` as a dense (rows, cols) array."""
    out = np.zeros((a.rows, a.cols))
    out[a.row_indices(), a.col_indices] = a.values
    return out


def on_pattern(space, values) -> CsrMatrix:
    """Values aligned with ``assemble_mass(space)``'s entries as a CSR matrix on its pattern."""
    pattern = assemble_mass(space)
    return CsrMatrix(pattern.rows, pattern.cols, pattern.row_offsets, pattern.col_indices, values)


def eye_csr(n) -> CsrMatrix:
    """The n x n identity as a CSR matrix."""
    idx = np.arange(n)
    return CsrMatrix.from_coo(n, n, idx, idx, np.ones(n))


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
    load = load_oracle(system, space, t)
    mass, stiffness = assemble_mass(space), assemble_stiffness(space)
    want = []
    for c in range(op.nc):
        term = mass.matvec(bdf_dt[c])
        term = term + system.diffusion[c] * stiffness.matvec(candidate[c])
        term = term + reaction[c]
        term = term - load[c]
        want.append(term)
    want = np.concatenate(want)
    want[op.dirichlet] = 0.0
    return want


def load_oracle(system, space, t):
    """The load F(t), (n_comp, n_dof): each forcing term's a(t) b(x, y)
    evaluated at the quadrature points and integrated against the basis.
    Independent of ``ReactionSystem.loads``."""
    load = np.zeros((system.n_components, space.n_dof))
    for c, a, b in system.forcing:
        load[c] += assemble_load(space, lambda x, y: a(t) * b(x, y))
    return load


def projection_errors_oracle(basis, r, v, grams):
    """``pod.projection_errors`` as the plain formula it evaluates, with a
    fresh array for the residual and for each product."""
    coeffs, proj = project(basis, r, v)
    resid = v - proj
    return coeffs, np.array([np.sum(resid * g.matvec(resid), axis=0) for g in grams])


def krylov_solve_oracle(a, b, tol=1e-12, max_iter=None, x0=None):
    """``linalg.krylov_solve``'s Jacobi-preconditioned BiCGStab loop with a
    fresh array for every vector operation and ``np.linalg.norm`` for every
    norm, for operands it accepts; the solver must match it bit for bit."""
    b = np.asarray(b, dtype=np.float64)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=np.float64)
    n = a.rows
    if max_iter is None:
        max_iter = 10 * n
    d = a.diagonal()
    d = np.where(np.abs(d) > 0, d, 1.0)  # the Jacobi preconditioner

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), 0
    if x0 is None:
        x = np.zeros(n)
        r = b.copy()  # the residual of the zero start
    else:
        x = x0.copy()
        r = b - a.matvec(x)
    if np.linalg.norm(r) <= tol * bnorm:  # the start already meets the tolerance
        return x, 0
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = p = np.zeros(n)
    for it in range(1, max_iter + 1):
        rho_new = r_hat @ r
        if rho_new == 0.0 or omega == 0.0:
            raise ConvergenceError("BiCGStab breakdown", float(np.linalg.norm(r)))
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        p_hat = p / d
        v = a.matvec(p_hat)
        denom = r_hat @ v
        if denom == 0.0:
            raise ConvergenceError("BiCGStab breakdown", float(np.linalg.norm(r)))
        alpha = rho / denom
        s = r - alpha * v
        if np.linalg.norm(s) <= tol * bnorm:
            x = x + alpha * p_hat
            return x, it
        s_hat = s / d
        t = a.matvec(s_hat)
        tt = t @ t
        if tt == 0.0:
            raise ConvergenceError("BiCGStab breakdown", float(np.linalg.norm(s)))
        omega = (t @ s) / tt
        x = x + alpha * p_hat + omega * s_hat
        r = s - omega * t
        if np.linalg.norm(r) <= tol * bnorm:
            return x, it
    raise ConvergenceError(
        f"BiCGStab did not converge in {max_iter} iterations", float(np.linalg.norm(r))
    )


class ContractRecorder:
    """Records the calls of a real ``bdf.integrate`` run to the model's
    ``at_step``, ``linearise`` and ``solve`` (``wrap`` the run's
    linearisation) and checks three clauses of ``bdf.implicit_step``'s
    contract; a broken one fails with its name:

    - "updates": a step of k updates takes k solves and k + 1
      linearisations, one more per discard, where a discard linearises the
      predictor again right after a first update whose residual norm is not
      below the predictor's;
    - "reuse": only a step's first update asks for ``reuse``;
    - "stale solve": no ``solve`` is called after a later ``linearise``,
      checked at the call.
    """

    def __init__(self):
        self.steps = []  # per step: ("linearise", d, residual norm) and ("solve", reuse) in call order
        self.linearisations = 0

    def wrap(self, linearisation):
        def recorded(scheme, dt):
            at_step = linearisation(scheme, dt)

            def recorded_at_step(history, t):
                predictor, linearise = at_step(history, t)
                events = []
                self.steps.append(events)

                def recorded_linearise(d):
                    residual, solve = linearise(d)
                    self.linearisations += 1
                    made = self.linearisations
                    events.append(("linearise", np.array(d), math.sqrt(residual.dot(residual))))

                    def recorded_solve(rhs, tol, reuse=False):
                        if made != self.linearisations:
                            raise AssertionError(
                                f"stale solve: the solve of linearisation {made} is called"
                                f" after linearisation {self.linearisations}"
                            )
                        events.append(("solve", reuse))
                        return solve(rhs, tol, reuse=reuse)

                    return residual, recorded_solve

                return predictor, recorded_linearise

            return recorded_at_step

        return recorded

    def check(self, updates) -> int:
        """The recorded steps against ``updates``, the Newton updates per step
        the run returned, in call order (the bootstrap's steps first);
        returns the number of discards."""
        assert len(updates) == len(self.steps), f"updates: {len(updates)} counted, {len(self.steps)} steps recorded"
        total = 0
        for n, (k, events) in enumerate(zip(updates, self.steps)):
            kinds = [event[0] for event in events]
            discards = sum(a == b == "linearise" for a, b in zip(kinds, kinds[1:]))
            if discards:
                assert discards == 1 and kinds[:4] == ["linearise", "solve", "linearise", "linearise"], (
                    f"updates: step {n} discards other than its first update: {kinds}"
                )
                predictor, first, again = events[0], events[2], events[3]
                assert np.array_equal(again[1], predictor[1]), f"updates: step {n} discards to another increment"
                assert not first[2] < predictor[2], f"updates: step {n} discards an update that lowered the residual"
            assert kinds.count("solve") == k and kinds.count("linearise") == k + 1 + discards, (
                f"updates: step {n} of {k} updates and {discards} discards calls {kinds}"
            )
            reuse = [event[1] for event in events if event[0] == "solve"]
            assert reuse == ([True] + [False] * (k - 1) if k else []), f"reuse: step {n} asks {reuse}"
            total += discards
        return total
