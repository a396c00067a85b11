"""Full-order model: BDF-q/Newton integration (by ``bdf.integrate``) of the
semi-discrete Galerkin system for scalar or two-component reaction-diffusion
problems, snapshot trajectories on a uniform grid, and tight reference solves.

Nonhomogeneous Dirichlet data on gamma1 is enforced by elimination at every
step: candidate states carry the prescribed boundary values, Newton updates
vanish on constrained dofs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mmio
from .bdf import NewtonConfig, bdf_increment_form, integrate
from .linalg import CsrMatrix, block_plan
from .mesh_fem import (
    FeSpace,
    assemble_load,
    assemble_reaction_jacobian_system,
    assemble_reaction_system,
    build_mesh,
    build_space,
)


@dataclass
class ReactionSystem:
    """Reaction-diffusion system u_t - nu Lap(u) + g(u) = f per component."""

    n_components: int
    diffusion: tuple  # nu per component
    g: callable  # (n_comp, ...) values -> (n_comp, ...) reaction terms
    g_prime: callable  # (n_comp, ...) -> (n_comp, n_comp, ...) partials
    forcing: list | None = None  # per-component f(x, y, t), None entries are zero
    dirichlet_values: tuple = ()

    def __post_init__(self):
        if any(nu <= 0 for nu in self.diffusion):
            raise ValueError("diffusion coefficients must be positive")


def brusselator_system(nu: float) -> ReactionSystem:
    """Brusselator with diffusion, folded into u_t - nu Lap(u) + g(u) = 0.

    Dirichlet values u = 1, v = 3 on gamma1; natural condition on gamma2.
    The (u, v) = (1, 3) state is an unstable equilibrium.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")

    def g(uv):
        u, v = uv[0], uv[1]
        return np.stack([-(1.0 + u * u * v - 4.0 * u), -(3.0 * u - u * u * v)])

    def g_prime(uv):
        u, v = uv[0], uv[1]
        return np.stack(
            [
                np.stack([-(2.0 * u * v - 4.0), -(u * u)]),
                np.stack([-(3.0 - 2.0 * u * v), u * u]),
            ]
        )

    return ReactionSystem(2, (nu, nu), g, g_prime, None, (1.0, 3.0))


def heat_system(nu: float, forcing=None, reaction=None, reaction_prime=None) -> ReactionSystem:
    """Scalar diffusion system, optionally with a reaction term and forcing."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    g = reaction if reaction is not None else (lambda u: np.zeros_like(u))
    gp = reaction_prime if reaction_prime is not None else (lambda u: np.zeros_like(u))
    return ReactionSystem(
        1,
        (nu,),
        lambda u: g(u[0])[None, ...],
        lambda u: gp(u[0])[None, None, ...],
        [forcing] if forcing is not None else None,
        (0.0,),
    )


@dataclass
class Trajectory:
    times: np.ndarray  # uniform grid t_j = j dt
    states: np.ndarray  # (M + 1, n_comp, n_dof)
    dt: float
    space: FeSpace

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def stacked(self) -> np.ndarray:
        """States flattened to (M + 1, n_comp * n_dof)."""
        return self.states.reshape(len(self.times), -1)


class FomOperator:
    """Residual/Jacobian machinery for one (system, space) pair."""

    def __init__(self, system: ReactionSystem, space: FeSpace):
        self.system = system
        self.space = space
        self.nc = system.n_components
        self.n = space.n_dof
        self.dim = self.nc * self.n
        self.mass = space.mass_matrix()
        self.stiff = space.stiffness_matrix()
        self.mask = np.tile(space.dirichlet_mask, self.nc)
        # block-Jacobian pattern, values laid out as assemble_reaction_jacobian_system's
        # (a, b) blocks; Dirichlet rows and columns are eliminated onto a unit diagonal
        blocks = [(a, b) for a in range(self.nc) for b in range(self.nc)]
        self._jac_plan = block_plan(space.pattern, blocks, self.nc)
        ri = self._jac_plan.pattern.row_indices()
        ci = self._jac_plan.pattern.col_indices
        self._jac_eliminated = self.mask[ri] | self.mask[ci]
        self._jac_unit = (ri == ci) & self.mask[ri]

    def split(self, w: np.ndarray) -> np.ndarray:
        return w.reshape(self.nc, self.n)

    def mass_apply(self, w: np.ndarray) -> np.ndarray:
        return np.concatenate([self.mass.matvec(c) for c in self.split(w)])

    def diffusion_apply(self, w: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [nu * self.stiff.matvec(c) for nu, c in zip(self.system.diffusion, self.split(w))]
        )

    def reaction(self, w: np.ndarray) -> np.ndarray:
        return assemble_reaction_system(self.space, self.split(w), self.system.g).ravel()

    def load(self, t: float) -> np.ndarray:
        out = np.zeros(self.dim)
        if self.system.forcing is not None:
            for c, f in enumerate(self.system.forcing):
                if f is not None:
                    out[c * self.n : (c + 1) * self.n] = assemble_load(self.space, f, t)
        return out

    def residual(self, increment, hist_states, scheme, dt, t):
        """Algebraic residual of one BDF step at candidate u^{n-1} + increment.

        The discrete derivative is evaluated in first-difference form from
        the increment, keeping the residual floor independent of dt."""
        bdf_dt = bdf_increment_form(scheme, increment, hist_states, dt)
        candidate = hist_states[0] + increment
        r = (
            self.mass_apply(bdf_dt)
            + self.diffusion_apply(candidate)
            + self.reaction(candidate)
            - self.load(t)
        )
        r[self.mask] = 0.0
        return r

    def jacobian(self, candidate, c0_over_dt) -> CsrMatrix:
        gp = assemble_reaction_jacobian_system(self.space, self.split(candidate), self.system.g_prime)
        for a in range(self.nc):
            gp[a, a] += c0_over_dt * self.mass.values
            gp[a, a] += self.system.diffusion[a] * self.stiff.values
        vals = self._jac_plan.assemble(gp.ravel())
        vals[self._jac_eliminated] = 0.0
        vals[self._jac_unit] = 1.0
        return self._jac_plan.csr(vals)


def fom_integrate(
    system: ReactionSystem,
    space: FeSpace,
    u0: np.ndarray,
    dt: float,
    t_end: float,
    q: int,
    newton: NewtonConfig | None = None,
) -> Trajectory:
    """Integrate on the uniform grid j dt, j = 0..M, with BDF-q/Newton.

    Starting values are bootstrapped at order q; the Newton tolerance is a
    fixed 1e-10 by default (snapshots are offline and must be accurate
    regardless of dt).
    """
    if newton is None:
        newton = NewtonConfig(tol=1e-10)
    op = FomOperator(system, space)
    states, _, _ = integrate(
        q,
        dt,
        t_end,
        [np.asarray(u0, dtype=np.float64).reshape(op.dim)],
        lambda scheme, history, d, t, step: op.residual(d, history, scheme, step, t),
        lambda scheme, candidate, step: op.jacobian(candidate, scheme.delta_f[0] / step),
        lambda order, step: newton,
    )
    arr = np.array(states).reshape(len(states), op.nc, op.n)
    return Trajectory(dt * np.arange(len(states)), arr, dt, space)


def reference_trajectory(
    system: ReactionSystem,
    space: FeSpace,
    u0: np.ndarray,
    t_end: float,
    m_out: int,
    refine: int = 256,
) -> Trajectory:
    """Tight reference: BDF-5 at step t_end / (refine * m_out), tolerance 1e-12,
    subsampled onto the m_out-point output grid.

    Surrogate for an adaptive variable-order reference integrator.
    """
    dt_fine = t_end / (refine * m_out)
    fine = fom_integrate(system, space, u0, dt_fine, t_end, 5, NewtonConfig(tol=1e-12))
    idx = np.arange(0, refine * m_out + 1, refine)
    return Trajectory(fine.times[idx], fine.states[idx], t_end / m_out, space)


def equilibrium_state(system: ReactionSystem, space: FeSpace) -> np.ndarray:
    """Constant-per-component state at the Dirichlet values, shape (n_comp, n_dof)."""
    return np.array(
        [np.full(space.n_dof, val) for val in system.dirichlet_values]
    )


def perturbed_equilibrium(space: FeSpace, amplitude: float = 0.1) -> np.ndarray:
    """Brusselator start u = 1 + a sin(pi x) sin(pi y), v = 3."""
    x, y = space.dof_coords[:, 0], space.dof_coords[:, 1]
    u = 1.0 + amplitude * np.sin(np.pi * x) * np.sin(np.pi * y)
    v = np.full(space.n_dof, 3.0)
    # keep the Dirichlet trace exact
    u[space.dirichlet_mask] = 1.0
    return np.stack([u, v])


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_trajectory(traj: Trajectory, stem: str, extra: dict | None = None):
    """Plain-text header plus one Matrix Market dense matrix per component."""
    n_comp = traj.states.shape[1]
    with open(stem + ".traj", "w") as fh:
        fh.write(f"dt = {traj.dt:.17g}\n")
        fh.write(f"M = {traj.n_steps}\n")
        fh.write(f"n_dof = {traj.space.n_dof}\n")
        fh.write(f"components = {n_comp}\n")
        fh.write(f"degree = {traj.space.degree}\n")
        fh.write(f"n_side = {traj.space.mesh.n_side}\n")
        for k, v in (extra or {}).items():
            fh.write(f"{k} = {v}\n")
    for c in range(n_comp):
        mmio.write_dense(stem + f".comp{c}.mtx", traj.states[:, c, :].T)


def load_trajectory(stem: str, space: FeSpace | None = None) -> tuple:
    """Load a trajectory; returns (Trajectory, header dict). The space is
    rebuilt from the header when not supplied. A header key the load needs
    that is missing, or a component file whose shape disagrees with the
    header's n_dof and M, raises ValueError."""
    header = {}
    with open(stem + ".traj") as fh:
        for line in fh:
            if "=" in line:
                k, v = line.split("=", 1)
                header[k.strip()] = v.strip()
    needed = ["dt", "M", "components", "n_dof"] + (["n_side", "degree"] if space is None else [])
    missing = [k for k in needed if k not in header]
    if missing:
        raise ValueError(f"{stem}.traj: missing header key(s) {', '.join(missing)}")
    dt = float(header["dt"])
    m = int(header["M"])
    n_comp = int(header["components"])
    if space is None:
        space = build_space(build_mesh(int(header["n_side"])), int(header["degree"]))
    states = np.empty((m + 1, n_comp, space.n_dof))
    expected = (int(header["n_dof"]), m + 1)
    if expected[0] != space.n_dof:
        raise ValueError(f"{stem}.traj: n_dof = {expected[0]}, but the space has {space.n_dof} dofs")
    for c in range(n_comp):
        path = stem + f".comp{c}.mtx"
        mat = np.asarray(mmio.read(path))
        if mat.shape != expected:
            raise ValueError(
                f"{path}: expected shape {expected} (n_dof x M + 1 from {stem}.traj), found {mat.shape}"
            )
        states[:, c, :] = mat.T
    return Trajectory(dt * np.arange(m + 1), states, dt, space), header


__all__ = [
    "ReactionSystem",
    "Trajectory",
    "FomOperator",
    "brusselator_system",
    "heat_system",
    "fom_integrate",
    "reference_trajectory",
    "equilibrium_state",
    "perturbed_equilibrium",
    "save_trajectory",
    "load_trajectory",
]
