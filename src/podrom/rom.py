"""Fully discrete POD-ROM: reduced operators, residual/Jacobian in the
r-dimensional coordinate space, BDF-q integration by ``bdf.integrate`` from
bootstrapped or projected starting values, and lifting back to nodal space.

The nonlinearity is the exact Galerkin projection, evaluated at the
quadrature points of the finite-element rule (no hyperreduction): the modes
and the lift are interpolated there once, so a candidate is formed as
u_q = lift_q + Phi_q c, the reaction g(u_q) is weighted by area x quadrature
weight and contracted with Phi_q. No nodal field is lifted or assembled per
Newton step; the cost is O(nc * ne * nq * r) per residual and
O(nc^2 * ne * nq * r) per Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import mmio
from .bdf import BdfScheme, NewtonConfig, bdf_increment_form, integrate
from .fom import ReactionSystem, Trajectory
from .mesh_fem import FeSpace, _states_at_quadrature, quadrature_rule
from .pod import InvalidRankError, PodBasis, project


@dataclass
class RomSystem:
    r: int
    basis: PodBasis
    reduced_mass: np.ndarray  # Phi^T M Phi
    reduced_stiffness: np.ndarray  # Phi^T A Phi (unit diffusion)
    reduced_diffusion: np.ndarray  # Phi^T blockdiag(nu_c A) Phi
    diffusion_lift: np.ndarray  # Phi^T blockdiag(nu_c A) lift, constant forcing
    lift: np.ndarray  # nodal lift: u_full = lift + Phi coords
    modes_q: np.ndarray  # (r, nc, nqp): the modes at the nqp = ne * nq quadrature points
    lift_q: np.ndarray  # (nc, nqp): the lift at the quadrature points
    quad_weights: np.ndarray  # (nqp,): element area x reference weight
    quad_points: np.ndarray  # (nqp, 2): physical coordinates, for the forcing
    system: ReactionSystem
    space: FeSpace

    @property
    def modes(self) -> np.ndarray:
        return self.basis.modes[:, : self.r]


@dataclass
class RomTrajectory:
    times: np.ndarray
    coords: np.ndarray  # (M + 1, r)
    dt: float
    q: int
    newton_iteration_counts: np.ndarray  # per main-grid implicit step (indices q..M)
    bootstrap_iteration_counts: np.ndarray


def rom_assemble(
    basis: PodBasis,
    r: int,
    space: FeSpace,
    system: ReactionSystem,
    lift: np.ndarray | None = None,
) -> RomSystem:
    """Reduced operators by triple products over the first r modes, and the
    modes and lift at the quadrature points for the reduced nonlinearity."""
    if r > basis.d_r:
        raise InvalidRankError(f"rank {r} exceeds basis dimension {basis.d_r}")
    nc, n = system.n_components, space.n_dof
    phi = basis.modes[:, :r]
    lift = np.zeros(nc * n) if lift is None else np.asarray(lift, dtype=np.float64)
    mass, stiff = space.mass_matrix(), space.stiffness_matrix()
    phi_c = phi.reshape(nc, n, r)
    mphi = np.concatenate([mass.matvec(p) for p in phi_c])
    aphi = np.concatenate([stiff.matvec(p) for p in phi_c])
    nu = np.repeat(np.asarray(system.diffusion, dtype=np.float64), n)
    alift = np.concatenate([stiff.matvec(c) for c in lift.reshape(nc, n)])
    points, weights = quadrature_rule(space)
    modes_q = _states_at_quadrature(space, phi_c.transpose(2, 0, 1).reshape(r * nc, n))
    lift_q = _states_at_quadrature(space, lift.reshape(nc, n))
    return RomSystem(
        r,
        basis,
        phi.T @ mphi,
        phi.T @ aphi,
        phi.T @ (nu[:, None] * aphi),
        phi.T @ (nu * alift),
        lift,
        np.ascontiguousarray(modes_q.reshape(r, nc, -1)),
        lift_q.reshape(nc, -1),
        weights.ravel(),
        points.reshape(-1, 2),
        system,
        space,
    )


def lift_to_nodal(romsys: RomSystem, coords: np.ndarray) -> np.ndarray:
    return romsys.lift + romsys.modes @ np.asarray(coords, dtype=np.float64)


def _state_at_quadrature(romsys: RomSystem, coords: np.ndarray) -> np.ndarray:
    """u_q = lift_q + Phi_q c, shape (nc, ne * nq)."""
    return romsys.lift_q + np.tensordot(coords, romsys.modes_q, axes=1)


def _project_quadrature(romsys: RomSystem, values: np.ndarray) -> np.ndarray:
    """Phi_q^T (w . values) for (nc, ne * nq) values at the quadrature points."""
    weighted = romsys.quad_weights * values
    return romsys.modes_q.reshape(romsys.r, -1) @ weighted.ravel()


def _reduced_load(romsys: RomSystem, t: float) -> np.ndarray:
    """Phi^T f(t), by the quadrature ``assemble_load`` uses."""
    x, y = romsys.quad_points[:, 0], romsys.quad_points[:, 1]
    vals = np.zeros_like(romsys.lift_q)
    for c, f in enumerate(romsys.system.forcing):
        if f is not None:
            vals[c] = f(x, y, t)
    return _project_quadrature(romsys, vals)


def rom_residual(
    romsys: RomSystem,
    scheme: BdfScheme,
    history,
    increment: np.ndarray,
    t_n: float,
    dt: float,
) -> np.ndarray:
    """Reduced residual at candidate coordinates history[0] + increment.

    ``history`` holds the q previous coordinate vectors, newest first; the
    discrete derivative is evaluated in first-difference form from the
    increment, keeping the residual floor independent of dt.
    """
    if len(history) != scheme.q:
        raise ValueError(f"history must hold {scheme.q} coordinate vectors")
    bdf_dt = bdf_increment_form(scheme, increment, history, dt)
    candidate = np.asarray(history[0], dtype=np.float64) + increment
    uq = _state_at_quadrature(romsys, candidate)
    nonlinear = _project_quadrature(romsys, romsys.system.g(uq))
    if romsys.system.forcing is not None:
        nonlinear -= _reduced_load(romsys, t_n)
    return (
        romsys.reduced_mass @ bdf_dt
        + romsys.reduced_diffusion @ candidate
        + romsys.diffusion_lift
        + nonlinear
    )


def rom_jacobian(romsys: RomSystem, scheme: BdfScheme, candidate: np.ndarray, dt: float):
    """(delta_0/dt) Phi^T M Phi + Phi^T nu A Phi + sum_ab Phi_q[a]^T diag(w g'_ab) Phi_q[b]."""
    uq = _state_at_quadrature(romsys, candidate)
    wgp = romsys.quad_weights * np.asarray(romsys.system.g_prime(uq), dtype=np.float64)
    # inner[j, a] = sum_b w g'_ab Phi_q[j, b]; the quadrature-point axis is innermost
    inner = np.einsum("abk,jbk->jak", wgp, romsys.modes_q)
    jac_nl = romsys.modes_q.reshape(romsys.r, -1) @ inner.reshape(romsys.r, -1).T
    return (
        (scheme.delta_f[0] / dt) * romsys.reduced_mass
        + romsys.reduced_diffusion
        + jac_nl
    )


def newton_tolerance(rule, dt: float, q: int) -> float:
    """The step-size-coupled tolerance dt^q / 100, or a fixed override."""
    if rule == "step-coupled":
        return dt**q / 100.0
    return float(rule)


def _project_coords(romsys: RomSystem, nodal: np.ndarray) -> np.ndarray:
    coeffs, _ = project(romsys.basis, romsys.r, nodal - romsys.lift)
    return coeffs


def rom_integrate(
    romsys: RomSystem,
    q: int,
    dt: float,
    t_end: float,
    init,
    newton_tol_rule="step-coupled",
) -> RomTrajectory:
    """BDF-q time loop in reduced coordinates.

    ``init`` is ("project_fom", Trajectory) to take the q starting values as
    projections of full-order states, or ("bootstrap", coords0) to bootstrap
    them from the reduced initial condition with lower-order integrations.
    Each segment's Newton tolerance follows ``newton_tol_rule`` at its own
    step size and order.
    """
    mode, payload = init
    if mode == "project_fom":
        traj: Trajectory = payload
        grid = traj.times
        starting = []
        for j in range(q):
            t_j = j * dt
            idx = int(np.argmin(np.abs(grid - t_j)))
            if abs(grid[idx] - t_j) > 1e-10 * max(1.0, t_end):
                raise ValueError(f"full-order grid does not contain t_{j} = {t_j}")
            starting.append(_project_coords(romsys, traj.stacked()[idx]))
    elif mode == "bootstrap":
        starting = [payload]
    else:
        raise ValueError(f"unknown init mode {mode!r}")
    coords, counts, boot_counts = integrate(
        q,
        dt,
        t_end,
        starting,
        partial(rom_residual, romsys),
        partial(rom_jacobian, romsys),
        lambda order, step: NewtonConfig(tol=newton_tolerance(newton_tol_rule, step, order)),
    )
    return RomTrajectory(
        dt * np.arange(len(coords)),
        np.array(coords),
        dt,
        q,
        np.array(counts, dtype=np.int64),
        np.array(boot_counts, dtype=np.int64),
    )


def rom_to_nodal_trajectory(romsys: RomSystem, rt: RomTrajectory) -> Trajectory:
    """Lift a reduced trajectory back to stacked nodal states."""
    nodal = rt.coords @ romsys.modes.T + romsys.lift[None, :]
    states = nodal.reshape(len(rt.times), romsys.system.n_components, romsys.space.n_dof)
    return Trajectory(rt.times, states, rt.dt, romsys.space)


def save_rom_trajectory(romsys: RomSystem, rt: RomTrajectory, stem: str, newton_rule="step-coupled"):
    """Trajectory text format plus ROM header line and Newton counts CSV."""
    from .fom import save_trajectory

    traj = rom_to_nodal_trajectory(romsys, rt)
    save_trajectory(traj, stem, extra={"r": romsys.r, "q": rt.q, "newton_rule": newton_rule})
    mmio.write_dense(stem + ".coords.mtx", rt.coords.T)
    with open(stem + ".newton.csv", "w") as fh:
        fh.write("step,newton_iterations\n")
        for i, c in enumerate(rt.newton_iteration_counts):
            fh.write(f"{rt.q + i},{c}\n")
