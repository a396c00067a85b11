"""Fully discrete POD-ROM: reduced operators, residual/Jacobian in the
r-dimensional coordinate space, BDF-q time loop with bootstrapped or
projected starting values, and lifting back to nodal space.

The nonlinearity is the exact Galerkin projection: candidates are lifted to
the full nodal space, the reaction term is assembled there and contracted
with the modes (no hyperreduction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mmio
from .bdf import (
    BdfScheme,
    History,
    NewtonConfig,
    bdf_coefficients,
    bdf_increment_form,
    implicit_step,
    run_bootstrap,
)
from .fom import FomOperator, ReactionSystem, Trajectory
from .mesh_fem import FeSpace, assemble_reaction_jacobian_system
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
    system: ReactionSystem
    space: FeSpace
    op: FomOperator

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
    """Reduced operators by triple products over the first r modes."""
    if r > basis.d_r:
        raise InvalidRankError(f"rank {r} exceeds basis dimension {basis.d_r}")
    op = FomOperator(system, space)
    phi = basis.modes[:, :r]
    if lift is None:
        lift = np.zeros(op.dim)
    mphi = np.column_stack([op.mass_apply(phi[:, j]) for j in range(r)])
    aphi_unit = np.empty_like(phi)
    aphi_nu = np.empty_like(phi)
    for j in range(r):
        comps = op.split(phi[:, j])
        aphi_unit[:, j] = np.concatenate([op.stiff.matvec(c) for c in comps])
        aphi_nu[:, j] = op.diffusion_apply(phi[:, j])
    return RomSystem(
        r,
        basis,
        phi.T @ mphi,
        phi.T @ aphi_unit,
        phi.T @ aphi_nu,
        phi.T @ op.diffusion_apply(np.asarray(lift, dtype=np.float64)),
        np.asarray(lift, dtype=np.float64),
        system,
        space,
        op,
    )


def lift_to_nodal(romsys: RomSystem, coords: np.ndarray) -> np.ndarray:
    return romsys.lift + romsys.modes @ np.asarray(coords, dtype=np.float64)


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
    full = lift_to_nodal(romsys, candidate)
    phi = romsys.modes
    nonlinear = phi.T @ (romsys.op.reaction(full) - romsys.op.load(t_n))
    return (
        romsys.reduced_mass @ bdf_dt
        + romsys.reduced_diffusion @ candidate
        + romsys.diffusion_lift
        + nonlinear
    )


def rom_jacobian(romsys: RomSystem, scheme: BdfScheme, candidate: np.ndarray, dt: float):
    """(delta_0/dt) Phi^T M Phi + Phi^T nu A Phi + Phi^T g'(lifted) Phi."""
    full = lift_to_nodal(romsys, candidate)
    op = romsys.op
    gp = assemble_reaction_jacobian_system(romsys.space, op.split(full), romsys.system.g_prime)
    phi_c = romsys.modes.reshape(op.nc, op.n, romsys.r)
    jac_nl = np.zeros((romsys.r, romsys.r))
    for a in range(op.nc):
        acc = np.zeros((op.n, romsys.r))
        for b in range(op.nc):
            acc += romsys.space.csr_from_values(gp[a, b]).matvec(phi_c[b])
        jac_nl += phi_c[a].reshape(op.n, romsys.r).T @ acc
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
    max_iter: int = 25,
) -> RomTrajectory:
    """BDF-q time loop in reduced coordinates.

    ``init`` is ("project_fom", Trajectory) to take the q starting values as
    projections of full-order states, or ("bootstrap", coords0) to bootstrap
    them from the reduced initial condition with lower-order integrations.
    """
    m_steps = round(t_end / dt)
    if abs(m_steps * dt - t_end) > 1e-12 * max(1.0, t_end):
        raise ValueError(f"dt = {dt} does not divide t_end = {t_end}")
    scheme = bdf_coefficients(q)

    def make_step(sub_scheme: BdfScheme, hist_states, step: float, t_new: float, tol: float):
        # hist_states in chronological order (oldest first)
        cfg = NewtonConfig(tol=tol, max_iter=max_iter)
        hist = History(sub_scheme.q)
        for i, s in enumerate(hist_states):
            hist.push(s, i)
        newest = hist.states()[0]
        return implicit_step(
            sub_scheme,
            hist,
            step,
            lambda d: rom_residual(romsys, sub_scheme, hist.states(), d, t_new, step),
            lambda d: rom_jacobian(romsys, sub_scheme, newest + d, step),
            cfg,
        )

    boot_counts: list[int] = []
    mode, payload = init
    if mode == "project_fom":
        traj: Trajectory = payload
        grid = traj.times
        coords = []
        for j in range(q):
            t_j = j * dt
            idx = int(np.argmin(np.abs(grid - t_j)))
            if abs(grid[idx] - t_j) > 1e-10 * max(1.0, t_end):
                raise ValueError(f"full-order grid does not contain t_{j} = {t_j}")
            coords.append(_project_coords(romsys, traj.stacked()[idx]))
    elif mode == "bootstrap":
        c0 = np.asarray(payload, dtype=np.float64)

        def boot_stepper(sub_scheme, history, step, t_new):
            tol = newton_tolerance(newton_tol_rule, step, sub_scheme.q)
            sol, iters = make_step(sub_scheme, list(reversed(history.states())), step, t_new, tol)
            boot_counts.append(iters)
            return sol

        starting = run_bootstrap(q, dt, c0, boot_stepper) if q > 1 else []
        coords = [c0] + starting
    else:
        raise ValueError(f"unknown init mode {mode!r}")

    coords = coords[: m_steps + 1]
    counts = []
    tol = newton_tolerance(newton_tol_rule, dt, q)
    for n in range(len(coords), m_steps + 1):
        hist_states = coords[-q:]
        sol, iters = make_step(scheme, hist_states, dt, n * dt, tol)
        coords.append(sol)
        counts.append(iters)
    return RomTrajectory(
        dt * np.arange(m_steps + 1),
        np.array(coords),
        dt,
        q,
        np.array(counts, dtype=np.int64),
        np.array(boot_counts, dtype=np.int64),
    )


def rom_to_nodal_trajectory(romsys: RomSystem, rt: RomTrajectory) -> Trajectory:
    """Lift a reduced trajectory back to stacked nodal states."""
    nodal = rt.coords @ romsys.modes.T + romsys.lift[None, :]
    states = nodal.reshape(len(rt.times), romsys.op.nc, romsys.op.n)
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
