"""Reduced-order model: reduced operators against dense triple-product
oracles, residual/Jacobian consistency by finite differences, equilibrium
preservation, in-span agreement with the full-order solution, modal decay,
and persistence."""

import ast
import dataclasses
import itertools
import math

import numpy as np
import pytest

from helpers import as_dense, clamped_space, load_oracle, on_pattern
from podrom import bdf
from podrom.bdf import bdf_coefficients, bdf_increment_form, bootstrap_plan, newton_tolerance
from podrom.fom import (
    brusselator_system,
    fom_integrate,
    heat_system,
    perturbed_equilibrium,
    space_keys,
)
from podrom.mesh_fem import (
    assemble_mass,
    assemble_reaction_jacobian_system,
    assemble_reaction_system,
    assemble_stiffness,
    build_mesh,
    build_space,
    interpolate,
)
from podrom.linalg import ConvergenceError, dense_lu_solve
from podrom.pod import H10, W0_INITIAL, W0_ZERO, InvalidRankError, build_pod_basis, project
from podrom import rom
from podrom.rom import (
    ReducedSystem,
    RomTrajectory,
    _reaction_tensor,
    initial_coords,
    reaction_slope,
    rom_assemble,
    rom_integrate,
    rom_linearisation,
    rom_to_nodal_trajectory,
    save_rom_trajectory,
)


def brusselator_setup(n_side=4, m=16, t_end=1.6, w0_mode=W0_ZERO, r=None):
    space = build_space(build_mesh(n_side), 2)
    sys = brusselator_system(0.002)
    traj = fom_integrate(sys, space, perturbed_equilibrium(space), t_end / m, t_end, 3)
    snaps, basis = build_pod_basis(traj, 1.0, w0_mode, H10)
    lift = snaps.mean if w0_mode == W0_ZERO else None
    if r is None:
        r = min(basis.d_r, 6)
    romsys = rom_assemble(basis, r, space, sys, lift=lift)
    return traj, snaps, basis, romsys


def forced_heat_setup():
    # P1, cubic reaction and a time-dependent forcing: exercises the load path
    space = clamped_space(6, 1)
    sys = heat_system(
        0.1,
        forcing=[(lambda t: 1.0 + t, lambda x, y: np.sin(np.pi * x) * np.sin(2.0 * np.pi * y))],
        reaction={3: 1.0},
    )
    u0 = interpolate(space, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))[None]
    traj = fom_integrate(sys, space, u0, 0.05, 0.5, 2)
    snaps, basis = build_pod_basis(traj, 1.0, W0_ZERO, H10)
    return rom_assemble(basis, min(4, basis.d_r), space, sys, lift=snaps.mean)


def reduced_array_shapes(romsys):
    """The "dtype shape" of each array the ``ReducedSystem`` part is built from."""
    names = [f.name for f in dataclasses.fields(ReducedSystem) if f.init and f.name not in ("r", "system")]
    return {name: f"{getattr(romsys, name).dtype} {getattr(romsys, name).shape}" for name in names}


def heat_reaction_setup(power, r=None):
    # P1 heat with the single monomial reaction 0.7 u^power, about the snapshot mean
    space = clamped_space(4, 1)
    sys = heat_system(0.1, reaction={power: 0.7})
    u0 = interpolate(space, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))[None]
    traj = fom_integrate(sys, space, u0, 0.05, 0.5, 2)
    snaps, basis = build_pod_basis(traj, 1.0, W0_ZERO, H10)
    return rom_assemble(basis, basis.d_r if r is None else r, space, sys, lift=snaps.mean)


def reaction_free_setup():
    # P1 heat with no reaction: T is stored at D = 1 as zeros
    space = clamped_space(4, 1)
    sys = heat_system(0.5)
    u0 = interpolate(space, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))[None]
    snaps, basis = build_pod_basis(fom_integrate(sys, space, u0, 0.05, 0.5, 2), 1.0, W0_ZERO, H10)
    return rom_assemble(basis, min(3, basis.d_r), space, sys, lift=snaps.mean)


def full_reaction_tensor(romsys):
    """The symmetric reduced reaction tensor T, (r, r + 1, ..., r + 1), before
    ``rom_assemble`` compresses it."""
    space, nc, r = romsys.space, romsys.system.n_components, romsys.r
    phi_c = romsys.modes.reshape(nc, space.n_dof, r)
    modes_q = space.at_quadrature(phi_c.transpose(2, 0, 1).reshape(r * nc, -1))
    lift_q = space.at_quadrature(romsys.lift.reshape(nc, -1))
    weights = space.quadrature_weights.ravel()
    return _reaction_tensor(romsys.system, modes_q.reshape(r, nc, -1), lift_q.reshape(nc, -1), weights)


def contract(tensor, chat, times):
    """``tensor`` contracted with ``chat`` in its last ``times`` slots, slot by slot."""
    for _ in range(times):
        tensor = (tensor.reshape(-1, len(chat)) @ chat).reshape(tensor.shape[:-1])
    return tensor


def solved_jacobian(solve, rhs):
    """The matrix one ROM ``solve(rhs, tol)`` hands to dense_lu_solve, copied
    at the call, checked to be inverted there (b = I) and to give the update
    as the inverse times ``rhs``."""
    seen = []

    def recording(a, b):
        seen.append((a.copy(), b.copy(), dense_lu_solve(a, b)))
        return seen[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rom, "dense_lu_solve", recording)
        update = solve(rhs, 1.0)
    [(jacobian, identity, inverse)] = seen
    assert np.array_equal(identity, np.eye(len(rhs)))
    assert np.array_equal(update, inverse.dot(rhs))
    return jacobian


def residual_and_jacobian(romsys, scheme, history, increment, t, dt):
    """The residual of one ``rom_linearisation`` candidate and the Jacobian its
    ``solve`` solves with, on the residual as right-hand side."""
    _, linearise = rom_linearisation(romsys, scheme, dt)(history, t)
    residual, solve = linearise(increment)
    return residual, solved_jacobian(solve, residual)


def gemv_setup(setup):
    """The systems the one-product tests check: the Brusselator at r 10 and
    at d_r on an n_side 8 basis, the heat reactions u^2 and u^3 at d_r, the
    forced heat case and the reaction-free one."""
    if setup.startswith("heat"):
        return heat_reaction_setup(int(setup[-1]))
    if setup == "forced_heat":
        return forced_heat_setup()
    if setup == "reaction_free":
        return reaction_free_setup()
    _, snaps, basis, romsys = brusselator_setup(n_side=8, m=32, t_end=3.2, r=10)
    if setup == "brusselator_d_r":
        assert basis.d_r > 10
        romsys = rom_assemble(basis, basis.d_r, romsys.space, romsys.system, snaps.mean)
    return romsys


def slope_matrix(romsys, chat):
    """S, (r, r + 1), at chat from ``reaction_slope``'s entries of S^T."""
    r = romsys.r
    return reaction_slope(romsys, chat, np.empty((r + 1) * r)).reshape(r + 1, r).T


def lifted(romsys, coords):
    """The stacked nodal state of one coordinate vector, by ``rom_to_nodal_trajectory``."""
    empty = np.zeros(0, dtype=np.int64)
    rt = RomTrajectory(np.atleast_2d(coords), 1.0, 1, empty, empty, "step-coupled")
    return rom_to_nodal_trajectory(romsys, rt).stacked()[0]


def nodal_nonlinearity(romsys, coords, t):
    """Phi^T (G(lift + Phi c) - F(t)) by nodal assembly."""
    space, sys = romsys.space, romsys.system
    full = (romsys.lift + romsys.modes @ coords).reshape(sys.n_components, space.n_dof)
    vec = assemble_reaction_system(space, full, sys.g) - load_oracle(sys, space, t)
    return romsys.modes.T @ vec.ravel()


def nodal_reaction_jacobian(romsys, coords):
    """Phi^T G'(lift + Phi c) Phi by nodal assembly and sparse products."""
    space, sys = romsys.space, romsys.system
    nc, n = sys.n_components, space.n_dof
    full = (romsys.lift + romsys.modes @ coords).reshape(nc, n)
    gp = assemble_reaction_jacobian_system(space, full, sys.g_prime)
    phi_c = romsys.modes.reshape(nc, n, romsys.r)
    return sum(
        phi_c[a].T @ on_pattern(space, gp[a, b]).matvec(phi_c[b])
        for a in range(nc)
        for b in range(nc)
    )


class TestAssembly:
    def test_reduced_operators_match_dense_oracle(self):
        traj, snaps, basis, romsys = brusselator_setup()
        phi = romsys.modes
        md = as_dense(assemble_mass(romsys.space))
        ad = as_dense(assemble_stiffness(romsys.space))
        big_m = np.kron(np.eye(2), md)
        big_a_unit = np.kron(np.eye(2), ad)
        big_a_nu = np.kron(np.diag(romsys.system.diffusion), ad)
        assert np.allclose(romsys.reduced_mass, phi.T @ big_m @ phi, atol=1e-13)
        assert np.allclose(romsys.reduced_stiffness, phi.T @ big_a_unit @ phi, atol=1e-12)
        assert np.allclose(romsys.reduced_diffusion, phi.T @ big_a_nu @ phi, atol=1e-13)
        assert np.allclose(romsys.diffusion_lift, phi.T @ big_a_nu @ romsys.lift, atol=1e-13)

    def test_reduced_stiffness_is_identity_for_h10_basis(self):
        # the modes are orthonormal in the H^1_0 product, whose operator is
        # the unit-diffusion stiffness
        traj, snaps, basis, romsys = brusselator_setup(r=4)
        assert np.max(np.abs(romsys.reduced_stiffness - np.eye(4))) < 1e-9

    def test_reduced_mass_spd(self):
        _, _, _, romsys = brusselator_setup()
        m = romsys.reduced_mass
        assert np.max(np.abs(m - m.T)) < 1e-14
        assert np.all(np.linalg.eigvalsh(m) > 0)

    def test_rank_guard(self):
        traj, snaps, basis, _ = brusselator_setup()
        with pytest.raises(InvalidRankError):
            rom_assemble(basis, basis.d_r + 1, traj.space, brusselator_system(0.002))
        for r in (0, -2):
            with pytest.raises(InvalidRankError):
                rom_assemble(basis, r, traj.space, brusselator_system(0.002))


class TestLift:
    def test_round_trip_through_projection(self):
        _, _, basis, romsys = brusselator_setup()
        rng = np.random.default_rng(0)
        c = rng.standard_normal(romsys.r)
        nodal = lifted(romsys, c)
        back, _ = project(basis, romsys.r, nodal - romsys.lift)
        assert np.max(np.abs(back - c)) < 1e-9
        # initial_coords takes the state stacked or per component
        assert np.array_equal(initial_coords(romsys, nodal), back)
        assert np.array_equal(initial_coords(romsys, nodal.reshape(2, -1)), back)

    def test_zero_coords_give_lift(self):
        _, _, _, romsys = brusselator_setup()
        assert np.array_equal(lifted(romsys, np.zeros(romsys.r)), romsys.lift)


class TestResidualAndJacobian:
    def test_linear_heat_jacobian_closed_form(self):
        space = clamped_space(4, 1)
        sys = heat_system(0.5)
        u0 = interpolate(space, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))[None]
        traj = fom_integrate(sys, space, u0, 0.05, 0.5, 2)
        snaps, basis = build_pod_basis(traj, 1.0, W0_INITIAL, H10)
        r = min(3, basis.d_r)
        romsys = rom_assemble(basis, r, space, sys)
        scheme = bdf_coefficients(2)
        dt = 0.05
        _, jac = residual_and_jacobian(romsys, scheme, [np.zeros(r)] * 2, np.zeros(r), 0.0, dt)
        want = (scheme.delta_f[0] / dt) * romsys.reduced_mass + romsys.reduced_diffusion
        assert np.max(np.abs(jac - want)) < 1e-12

    def test_reaction_free_system_takes_the_zero_tensor_path(self):
        # without monomials T is stored at D = 1 as zeros, so S = 0 adds
        # exactly nothing: the residual, the one product z . block, is the
        # same whatever the candidate c, and is K d + fixed to gemv rounding;
        # the Jacobian is K
        romsys = reaction_free_setup()
        r = romsys.r
        assert romsys.reaction_tensor.shape == (r * (r + 1), 1)
        assert not romsys.reaction_tensor.any()
        assert romsys.reaction_monomials.shape == (0, 1)
        rng = np.random.default_rng(4)
        stiffness, fixed = rng.standard_normal((r, r)), rng.standard_normal(r)
        d, *candidates = rng.standard_normal((3, r))
        residuals = []
        for c in candidates:
            z = np.concatenate(([1.0], c, d, [1.0]))
            block = np.vstack([slope_matrix(romsys, z[: r + 1]).T, stiffness.T, fixed])
            assert not block[: r + 1].any()
            residuals.append(rom.rom_residual(z, block))
            jacobian = rom.rom_jacobian(romsys, block[1 : r + 1], block[r + 1 : -1], np.empty((r, r)))
            assert np.array_equal(jacobian, stiffness)
        assert np.array_equal(residuals[0], residuals[1])
        gap = np.abs(residuals[0] - (stiffness @ d + fixed))
        assert np.all(gap <= 2 * (2 * r + 2) * np.finfo(float).eps * np.abs(block).T.dot(np.abs(z)))

    def test_jacobian_matches_finite_differences(self):
        _, _, _, romsys = brusselator_setup()
        scheme = bdf_coefficients(3)
        dt = 0.1
        rng = np.random.default_rng(1)
        history = [0.1 * rng.standard_normal(romsys.r) for _ in range(3)]
        d0 = 0.05 * rng.standard_normal(romsys.r)
        _, jac = residual_and_jacobian(romsys, scheme, history, d0, 0.3, dt)
        eps = 1e-6
        fd = np.empty_like(jac)
        _, linearise = rom_linearisation(romsys, scheme, dt)(history, 0.3)
        for j in range(romsys.r):
            e = np.zeros(romsys.r)
            e[j] = eps
            fd[:, j] = (linearise(d0 + e)[0] - linearise(d0 - e)[0]) / (2 * eps)
        assert np.max(np.abs(jac - fd)) < 1e-5

    @pytest.mark.parametrize("setup", ["brusselator_p2", "brusselator_p2_full_rank", "forced_heat_p1"])
    def test_quadrature_points_match_nodal_assembly(self, setup):
        if setup == "forced_heat_p1":
            romsys = forced_heat_setup()
        else:
            _, snaps, basis, romsys = brusselator_setup()
            if setup == "brusselator_p2_full_rank":
                # every mode, about a nonzero lift
                assert np.linalg.norm(snaps.mean) > 0
                romsys = rom_assemble(basis, basis.d_r, romsys.space, romsys.system, snaps.mean)
        scheme = bdf_coefficients(3)
        dt, t = 0.1, 0.3
        rng = np.random.default_rng(2)
        history = [0.1 * rng.standard_normal(romsys.r) for _ in range(3)]
        d0 = 0.05 * rng.standard_normal(romsys.r)
        candidate = history[0] + d0

        nonlinear = nodal_nonlinearity(romsys, candidate, t)
        want = (
            romsys.reduced_mass @ bdf_increment_form(scheme, d0, history, dt)
            + romsys.reduced_diffusion @ candidate
            + romsys.diffusion_lift
            + nonlinear
        )
        got, jac = residual_and_jacobian(romsys, scheme, history, d0, t, dt)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(nonlinear)

        jac_nl = nodal_reaction_jacobian(romsys, candidate)
        want = (scheme.delta_f[0] / dt) * romsys.reduced_mass + romsys.reduced_diffusion + jac_nl
        assert np.linalg.norm(jac - want) <= 1e-13 * np.linalg.norm(jac_nl)

    def test_online_arrays_do_not_depend_on_the_mesh(self):
        # an unforced system: the same rank on two meshes gives online arrays of
        # the same shapes, none sized by the ne * nq quadrature points
        shapes = []
        for n_side in (4, 8):
            traj, snaps, basis, _ = brusselator_setup(n_side=n_side)
            romsys = rom_assemble(basis, 5, traj.space, brusselator_system(0.002), snaps.mean)
            n_points = len(traj.space.mesh.triangles) * len(traj.space.quad.weights)
            arrays = {
                name: value
                for name, value in vars(romsys).items()
                if isinstance(value, np.ndarray) and name != "lift"
            }
            for name, value in list(arrays.items()) + [("lift", romsys.lift)]:
                assert n_points not in value.shape, name
            shapes.append({name: value.shape for name, value in arrays.items()})
        assert shapes[0] == shapes[1]
        assert shapes[0]["reaction_tensor"] == (30, 21)

    def test_history_length_guard(self):
        # checked once per step, before any candidate
        _, _, _, romsys = brusselator_setup()
        at_step = rom_linearisation(romsys, bdf_coefficients(3), 0.1)
        with pytest.raises(ValueError, match="expected 3 states, got 2"):
            at_step([np.zeros(romsys.r)] * 2, 0.1)

    @pytest.mark.parametrize("setup", ["brusselator", "forced_heat"])
    @pytest.mark.parametrize("q", range(1, 6))
    def test_per_run_and_per_step_terms(self, setup, q):
        # two candidates of one step share the per-run K and the per-step
        # term: each residual matches the increment form, and each Jacobian
        # the closed form at its own candidate, so K is never updated in
        # place; q 1 has an empty history term
        romsys = forced_heat_setup() if setup == "forced_heat" else brusselator_setup()[3]
        scheme = bdf_coefficients(q)
        dt, t = 0.1, 0.3
        rng = np.random.default_rng(20 + q)
        history = 0.1 * rng.standard_normal((q, romsys.r))
        _, linearise = rom_linearisation(romsys, scheme, dt)(history, t)
        degree = max(romsys.system.degree, 1)
        for d in 0.05 * rng.standard_normal((2, romsys.r)):
            candidate = history[0] + d
            slope = slope_matrix(romsys, np.concatenate(([1.0], candidate)))
            want = (
                romsys.reduced_mass @ bdf_increment_form(scheme, d, history, dt)
                + romsys.reduced_diffusion @ candidate
                + romsys.diffusion_lift
                + slope[:, 0]
                + slope[:, 1:] @ candidate
            )
            want -= romsys.modes.T @ load_oracle(romsys.system, romsys.space, t).ravel()
            residual, solve = linearise(d)
            assert np.linalg.norm(residual - want) <= 1e-13 * np.linalg.norm(want)
            jac = solved_jacobian(solve, residual)
            closed = (
                (scheme.delta_f[0] / dt) * romsys.reduced_mass
                + romsys.reduced_diffusion
                + degree * slope[:, 1:]
            )
            assert np.linalg.norm(jac - closed) <= 1e-13 * np.linalg.norm(closed)

    def test_reuse_refines_the_held_inverse_at_its_candidate(self, monkeypatch):
        # a run holds the inverse Jacobian F it formed or refined last:
        # reuse=True forms the candidate's J and applies one Newton-Schulz
        # step F (2I - J F), whose defect I - J F' is (I - J F)^2, and holds
        # that; with none held, or with reuse=False, it forms F at the
        # candidate by one dense_lu_solve. Solving for the identity reads F
        romsys = brusselator_setup()[3]
        scheme, dt, eye = bdf_coefficients(2), 0.1, np.eye(romsys.r)
        rng = np.random.default_rng(5)
        history = 0.1 * rng.standard_normal((2, romsys.r))
        formed, jacobians, jacobian = [], [], rom.rom_jacobian
        monkeypatch.setattr(rom, "dense_lu_solve", lambda a, b: formed.append(a) or dense_lu_solve(a, b))
        monkeypatch.setattr(rom, "rom_jacobian", lambda *a: jacobians.append(jacobian(*a)) or jacobians[-1])

        def run():
            return rom_linearisation(romsys, scheme, dt)(history, 0.3)[1]

        def defect(j, f):
            return np.linalg.norm(eye - j.dot(f), 2)

        # a solve holds until the run's next linearise, so each is used first
        linearise = run()
        first_d, second_d = 0.05 * rng.standard_normal((2, romsys.r))
        first = linearise(first_d)[1]
        inverse = first(eye, 1.0, reuse=True)
        assert np.array_equal(inverse, dense_lu_solve(jacobians[-1], eye)) and len(formed) == 1
        assert np.array_equal(first(eye, 1.0), inverse) and len(formed) == 2
        second = linearise(second_d)[1]
        for k in range(2):
            refined = second(eye, 1.0, reuse=True)
            j = jacobians[-1]
            assert len(formed) == 2 and len(jacobians) == 3 + k
            rounding = 4 * romsys.r * np.finfo(float).eps * np.linalg.norm(j, 2) * np.linalg.norm(refined, 2)
            assert defect(j, refined) <= defect(j, inverse) ** 2 + rounding < defect(j, inverse)
            inverse = refined
        assert np.array_equal(second(eye, 1.0), dense_lu_solve(j, eye)) and len(formed) == 3
        # a new run holds nothing from the last one
        first = run()(first_d)[1]
        assert np.array_equal(first(eye, 1.0, reuse=True), first(eye, 1.0)) and len(formed) == 5

    def test_a_bad_held_inverse_is_discarded_for_a_fresh_factor(self, monkeypatch):
        # a run that holds the inverse Jacobian of a far candidate: the
        # step's first update refines it at the predictor, does not lower the
        # residual and is discarded, and the step goes on from the predictor
        # with fresh factors along the all-fresh path, to the same bits
        romsys = brusselator_setup()[3]
        scheme, dt = bdf_coefficients(2), 0.1
        history = 0.1 * np.random.default_rng(5).standard_normal((2, romsys.r))
        formed = []
        monkeypatch.setattr(rom, "dense_lu_solve", lambda a, b: formed.append(a) or dense_lu_solve(a, b))

        def run(held):
            predictor, linearise = rom_linearisation(romsys, scheme, dt)(history, 0.3)
            if held:
                linearise(np.full(romsys.r, 10.0))[1](np.ones(romsys.r), 1.0)
            iterates, lus = [], len(formed)

            def step(d):
                iterates.append(d.copy())
                residual, solve = linearise(d)
                return residual, solve if held else lambda rhs, tol, reuse=False: solve(rhs, tol)

            sol, iters = bdf.implicit_step(scheme, history, predictor, step, 1e-10)
            return sol, iters, iterates, len(formed) - lus

        fresh_sol, fresh_iters, fresh_iterates, fresh_lus = run(False)
        sol, iters, iterates, lus = run(True)
        assert iters == fresh_iters + 1 and lus == fresh_lus == fresh_iters
        # the discard linearises the predictor again, one linearisation more
        assert np.array_equal(iterates[2:], fresh_iterates)
        assert np.array_equal(sol, fresh_sol)

    @pytest.mark.parametrize("setup", ["brusselator", "heat_u2", "heat_u3", "heat_u4", "reaction_free"])
    def test_slope_gathers_its_monomials_row_by_row(self, setup):
        # the degree D - 1 monomials, chat[rows[0]] times each further row's
        # gather, are np.multiply.reduce(chat[index]) to the bit, and D = 1
        # (an empty index) gives the one monomial 1; checked on a random Tc
        # of the system's shape, so the reaction-free zero tensor hides
        # nothing, through the product with its transposed tensor_t
        if setup == "brusselator":
            romsys = brusselator_setup()[3]
        elif setup == "reaction_free":
            romsys = reaction_free_setup()
        else:
            romsys = heat_reaction_setup(int(setup[-1]))
        rng = np.random.default_rng(7)
        romsys = dataclasses.replace(romsys, reaction_tensor=rng.standard_normal(romsys.reaction_tensor.shape))
        index = romsys.reaction_monomials
        for c in rng.standard_normal((5, romsys.r)):
            chat = np.concatenate(([1.0], c))
            want = romsys.tensor_t.dot(np.multiply.reduce(chat[index])).reshape(-1, romsys.r).T
            assert np.array_equal(slope_matrix(romsys, chat), want)

    @pytest.mark.parametrize("setup", ["brusselator_r10", "brusselator_d_r", "heat_u2", "heat_u3"])
    def test_one_product_reaction_is_the_split_form_to_gemv_rounding(self, setup):
        # the residual's reaction term S chat is one product; against the
        # split form S[:, 0] + S[:, 1:] c only the order of the sums differs,
        # so each component agrees within the gemv bound 2 (r + 1) eps |S| |chat|
        romsys = gemv_setup(setup)
        r = romsys.r
        bound = 2 * (r + 1) * np.finfo(np.float64).eps
        for c in np.random.default_rng(7).standard_normal((20, r)):
            chat = np.concatenate(([1.0], c))
            slope = slope_matrix(romsys, chat)
            gap = np.abs(slope.dot(chat) - (slope[:, 0] + slope[:, 1:].dot(c)))
            assert np.all(gap <= bound * np.abs(slope).dot(np.abs(chat)))

    @pytest.mark.parametrize(
        "setup", ["brusselator_r10", "brusselator_d_r", "heat_u2", "heat_u3", "forced_heat", "reaction_free"]
    )
    def test_one_product_residual_is_the_split_form_to_gemv_rounding(self, setup, monkeypatch):
        # a candidate's residual is the one product z . block of z = (1, c, d, 1)
        # and the run's block, whose rows are S^T, K^T and fixed; against the
        # split form K d + fixed + S chat only the order of the sums differs,
        # so each component agrees within the gemv bound 2 (2 r + 2) eps
        # |block|^T |z|. The Jacobian, D S^T[1:] + K^T transposed, takes the
        # same elementwise steps as K + D S[:, 1:] and is that to the bit; S^T,
        # tensor_t's product, is Tc's product transposed, to gemv rounding
        romsys = gemv_setup(setup)
        r, degree, eps = romsys.r, len(romsys.reaction_monomials) + 1, np.finfo(np.float64).eps
        scheme, dt, t = bdf_coefficients(3), 0.1, 0.3
        stiffness = (scheme.delta_f[0] / dt) * romsys.reduced_mass + romsys.reduced_diffusion
        seen, residual = [], rom.rom_residual

        def recording(z, block):
            seen.append((z.copy(), block.copy()))
            return residual(z, block)

        monkeypatch.setattr(rom, "rom_residual", recording)
        rng = np.random.default_rng(8)
        history = 0.1 * rng.standard_normal((3, r))
        _, linearise = rom_linearisation(romsys, scheme, dt)(history, t)
        for d in 0.05 * rng.standard_normal((5, r)):
            got, solve = linearise(d)
            z, block = seen[-1]
            chat = np.concatenate(([1.0], history[0] + d))
            slope = slope_matrix(romsys, chat)
            assert np.array_equal(z, np.concatenate((chat, d, [1.0])))
            assert np.array_equal(block[: r + 1], slope.T) and np.array_equal(block[r + 1 : -1], stiffness.T)
            split = stiffness.dot(d) + block[-1] + slope.dot(chat)
            assert np.all(np.abs(got - split) <= 2 * (2 * r + 2) * eps * np.abs(block).T.dot(np.abs(z)))
            assert np.array_equal(solved_jacobian(solve, got), stiffness + degree * slope[:, 1:])
            monomials = np.multiply.reduce(chat[romsys.reaction_monomials])
            split = romsys.reaction_tensor.dot(monomials).reshape(r, r + 1)
            bound = 2 * len(monomials) * eps * np.abs(romsys.reaction_tensor).dot(np.abs(monomials))
            assert np.all(np.abs(slope - split) <= bound.reshape(r, r + 1))

    @pytest.mark.parametrize("rank", ["1", "d_r"])
    @pytest.mark.parametrize("setup", ["heat_u0", "heat_u1", "heat_u2", "heat_u3", "brusselator"])
    def test_compressed_tensor_matches_full_contraction(self, setup, rank):
        # D = 0 (stored at D = 1), 1, 2, 3 for the heat reactions, D = 3 for
        # the Brusselator
        if setup == "brusselator":
            _, snaps, basis, romsys = brusselator_setup()
            r = 1 if rank == "1" else basis.d_r
            romsys = rom_assemble(basis, r, romsys.space, romsys.system, snaps.mean)
        else:
            romsys = heat_reaction_setup(int(setup[-1]), 1 if rank == "1" else None)
        tensor = full_reaction_tensor(romsys)
        degree = tensor.ndim - 1
        assert degree == max(romsys.system.degree, 1)
        scheme = bdf_coefficients(2)
        dt = 0.1
        rng = np.random.default_rng(3)
        history = [0.3 * rng.standard_normal(romsys.r) for _ in range(2)]
        d0 = 0.05 * rng.standard_normal(romsys.r)
        chat = np.concatenate(([1.0], history[0] + d0))

        want = contract(tensor, chat, degree - 1)
        got = slope_matrix(romsys, chat)
        assert got.shape == (romsys.r, romsys.r + 1)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

        reaction = contract(tensor, chat, degree)
        base = romsys.reduced_mass @ bdf_increment_form(scheme, d0, history, dt)
        base += romsys.reduced_diffusion @ chat[1:] + romsys.diffusion_lift
        residual, jac = residual_and_jacobian(romsys, scheme, history, d0, 0.2, dt)
        assert np.linalg.norm(residual - (base + reaction)) <= 1e-13 * np.linalg.norm(reaction)

        jac_nl = degree * want[:, 1:]
        base = (scheme.delta_f[0] / dt) * romsys.reduced_mass + romsys.reduced_diffusion
        assert np.linalg.norm(jac - (base + jac_nl)) <= 1e-13 * np.linalg.norm(jac_nl)

        # a reduced-system file is checked against reduced_shapes: it names
        # every array a step reads, with the dtype and shape assembled here
        assert reduced_array_shapes(romsys) == rom.reduced_shapes(romsys.r, romsys.system)


    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
    def test_monomial_index_orders_the_compressed_columns(self, r, degree):
        # the index is the combinations_with_replacement order of the slots
        # of (1, c), (D - 1, C(r + D - 1, D - 1)), formed once and read-only,
        # and column t of Tc holds T[i, t..., j] times t's distinct orderings
        index = rom.monomial_index(r, degree)
        want = list(itertools.combinations_with_replacement(range(r + 1), degree - 1))
        assert index.shape == (degree - 1, math.comb(r + degree - 1, degree - 1))
        assert [tuple(column) for column in index.T.tolist()] == want
        assert index is rom.monomial_index(r, degree) and not index.flags.writeable
        tensor = np.random.default_rng(10 * degree + r).standard_normal((r,) + (r + 1,) * degree)
        tensor = sum(tensor.transpose((0,) + p) for p in itertools.permutations(range(1, degree + 1)))
        tc = rom._compress(tensor).reshape(r, r + 1, len(want))
        for t, slots in enumerate(want):
            orderings = math.factorial(len(slots)) // math.prod(math.factorial(slots.count(s)) for s in set(slots))
            assert np.array_equal(tc[:, :, t], orderings * tensor[(slice(None), *slots, slice(None))]), slots


class TestNewtonTolerance:
    def test_rule_and_override(self):
        assert newton_tolerance("step-coupled", 3, 0.1) == pytest.approx(1e-5)
        assert newton_tolerance("step-coupled", 1, 0.5) == pytest.approx(5e-3)
        assert newton_tolerance(1e-9, 3, 0.1) == 1e-9

    @pytest.mark.parametrize("rule", ["inf", 0, "paper"])
    def test_rejects_a_rule_that_is_not_a_positive_finite_number(self, rule):
        with pytest.raises(ValueError, match="newton_rule must be step-coupled or a positive finite number"):
            newton_tolerance(rule, 3, 0.1)

    def test_rejects_a_step_coupled_tolerance_that_underflows(self):
        with pytest.raises(ValueError, match="the Newton tolerance must be positive and finite, got 0.0"):
            newton_tolerance("step-coupled", 2, 1e-200)

    def test_each_implicit_step_gets_the_rule_at_its_order_and_step(self, monkeypatch):
        # the loop resolves the rule once per run and per bootstrap segment:
        # a segment's steps at its own order and substep, the main loop's at
        # (q, dt); the FOM's fixed rule gives every step the same tolerance
        q, m, t_end = 5, 16, 1.6
        dt = t_end / m
        space = build_space(build_mesh(4), 2)
        system = brusselator_system(0.002)
        got, step = [], bdf.implicit_step

        def spy(scheme, history, predictor, linearise, tol):
            got.append((scheme.q, tol))
            return step(scheme, history, predictor, linearise, tol)

        monkeypatch.setattr(bdf, "implicit_step", spy)
        grid = [(order, s) for order, s, count in bootstrap_plan(q, dt) for _ in range(count)]
        grid += [(q, dt)] * (m - q + 1)
        traj = fom_integrate(system, space, perturbed_equilibrium(space), dt, t_end, q)
        assert got == [(order, 1e-10) for order, _ in grid]
        snaps, basis = build_pod_basis(traj, 1.0, W0_ZERO, H10)
        romsys = rom_assemble(basis, 4, space, system, lift=snaps.mean)
        got.clear()
        rom_integrate(romsys, q, dt, t_end, ("bootstrap", initial_coords(romsys, traj.states[0])), "step-coupled")
        assert got == [(order, newton_tolerance("step-coupled", order, s)) for order, s in grid]


class TestIntegration:
    @pytest.mark.parametrize("dt, t_end", [(-0.1, -1.0), (0.0, 1.0)])
    def test_rejects_a_step_that_is_not_positive(self, monkeypatch, dt, t_end):
        # a negative step would integrate backward in time, a zero one divide by zero
        _, _, _, romsys = brusselator_setup()
        calls = []
        monkeypatch.setattr(rom, "rom_linearisation", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=f"dt must be positive and finite, got {dt}$"):
            rom_integrate(romsys, 1, dt, t_end, ("bootstrap", np.zeros(romsys.r)))
        assert calls == []

    def test_equilibrium_coords_stay_zero(self):
        # lift at the equilibrium: the reduced dynamics must fix coords = 0
        traj, snaps, basis, _ = brusselator_setup(w0_mode=W0_INITIAL)
        sys = brusselator_system(0.002)
        eq = perturbed_equilibrium(traj.space, 0.0).ravel()
        romsys = rom_assemble(basis, 4, traj.space, sys, lift=eq)
        rt = rom_integrate(romsys, 3, 0.1, 2.0, ("bootstrap", np.zeros(4)), 1e-12)
        assert np.max(np.abs(rt.coords)) < 1e-10

    def test_in_span_tracks_projected_fom(self):
        # with (almost) the whole snapshot span retained, the reduced solution
        # must track the projection of the full-order states
        traj, snaps, basis, _ = brusselator_setup(w0_mode=W0_ZERO)
        lam = basis.eigenvalues
        r = int(np.sum(lam > 1e-9 * lam[0]))
        sys = brusselator_system(0.002)
        romsys = rom_assemble(basis, r, traj.space, sys, lift=snaps.mean)
        q = 3
        coords0 = initial_coords(romsys, traj.states[0])
        rt = rom_integrate(romsys, q, traj.dt, traj.times[-1], ("bootstrap", coords0), 1e-12)
        tail_h1 = np.sqrt(float(np.sum(lam[r:])))
        worst = 0.0
        for n in range(q, traj.n_steps + 1):
            proj, _ = project(basis, r, traj.stacked()[n] - romsys.lift)
            worst = max(worst, float(np.max(np.abs(rt.coords[n] - proj))))
        # coordinate error is bounded by the (tiny) truncation level
        assert worst < max(1e-8, 100.0 * tail_h1)

    def test_modal_heat_decay_and_temporal_order(self):
        # a single-mode basis reduces the heat equation to m c' = -nu a c
        space = clamped_space(8, 2)
        nu = 0.4
        sys = heat_system(nu)
        u0 = interpolate(space, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))[None]
        traj = fom_integrate(sys, space, u0, 0.05, 0.1, 1)
        snaps, basis = build_pod_basis(traj, 1.0, W0_INITIAL, H10)
        romsys = rom_assemble(basis, 1, space, sys)
        m = romsys.reduced_mass[0, 0]
        a = romsys.reduced_diffusion[0, 0]
        c0, _ = project(basis, 1, u0.ravel())
        t_end = 0.5
        errs = []
        for mm in (10, 20, 40):
            rt = rom_integrate(romsys, 2, t_end / mm, t_end, ("bootstrap", c0), 1e-13)
            exact = c0[0] * np.exp(-a / m * t_end)
            errs.append(abs(rt.coords[-1, 0] - exact))
        slope = np.polyfit(np.log([t_end / mm for mm in (10, 20, 40)]), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.3

    def test_forced_online_step_needs_no_mesh(self):
        # the forced ROM's steps read the reduced loads and the amplitudes
        # a(t), never the space: a ReducedSystem, which holds no space, basis
        # or lift, gives the same coordinates
        romsys = forced_heat_setup()
        assert romsys.reduced_loads.shape == (1, romsys.r)
        coords0 = np.full(romsys.r, 0.1)
        assert reduced_array_shapes(romsys) == rom.reduced_shapes(romsys.r, romsys.system)
        fields = [f.name for f in dataclasses.fields(ReducedSystem) if f.init]
        reduced = ReducedSystem(**{name: getattr(romsys, name) for name in fields})
        runs = [
            rom_integrate(system, 2, 0.05, 0.5, ("bootstrap", coords0)).coords
            for system in (romsys, reduced)
        ]
        assert np.array_equal(runs[0], runs[1])

    @staticmethod
    def zero_system(system, r):
        """The arrays of a rank-r ``ReducedSystem`` of ``system``, all zero."""
        shapes = rom.reduced_shapes(r, system)
        return {key: np.zeros(ast.literal_eval(shape.split(" ", 1)[1])) for key, shape in shapes.items()}

    def test_a_zero_residual_predictor_takes_no_update(self):
        # a reduced system of zeros has a zero residual at every candidate and
        # a zero Jacobian: each step returns its predictor, the constant
        # history, with 0 updates, and no solve is asked for
        system = heat_system(0.1)
        romsys = ReducedSystem(2, **self.zero_system(system, 2), system=system)
        rt = rom_integrate(romsys, 3, 0.1, 1.0, ("bootstrap", np.ones(2)))
        assert np.array_equal(rt.coords, np.ones((11, 2)))
        assert not rt.newton_iteration_counts.any() and not rt.bootstrap_iteration_counts.any()

    def test_a_singular_solve_names_its_step(self):
        # a reduced system of zeros but its constant diffusion term has that
        # term as its residual and a zero Jacobian: the dense solve's failure
        # goes through the loop's handler, which names the order, the step,
        # the time and the step size, here of the bootstrap's first step.
        # The solve forms no residual of its own, so Newton names the norm of
        # the residual it asked the solve to remove, and keeps the pivot
        system = heat_system(0.1)
        arrays = self.zero_system(system, 2)
        arrays["diffusion_lift"] = np.ones(2)
        with pytest.raises(ConvergenceError) as exc:
            rom_integrate(ReducedSystem(2, **arrays, system=system), 3, 0.1, 1.0, ("bootstrap", np.ones(2)))
        message = str(exc.value)
        assert message.startswith("bootstrap BDF-1 step n = 1 at t = 0.025 (step size 0.025): "), message
        assert message.count("pivot") == 1, message
        assert exc.value.residual == math.sqrt(2.0), message
        assert message.endswith(f"(pivot 0.000e+00) (residual {exc.value.residual:.3e})"), message

    def test_iteration_counts_recorded(self):
        traj, snaps, basis, romsys = brusselator_setup()
        rt = rom_integrate(romsys, 3, 0.2, 1.6, ("bootstrap", initial_coords(romsys, traj.states[0])))
        assert rt.q == 3
        assert len(rt.newton_iteration_counts) == rt.coords.shape[0] - 1 - 2
        assert np.all(rt.newton_iteration_counts >= 1)
        assert len(rt.bootstrap_iteration_counts) >= 1
        assert np.all(rt.bootstrap_iteration_counts >= 1)

    def test_init_errors(self):
        _, _, _, romsys = brusselator_setup()
        with pytest.raises(ValueError):
            rom_integrate(romsys, 2, 0.3, 1.6, ("bootstrap", np.zeros(romsys.r)))
        with pytest.raises(ValueError):
            rom_integrate(romsys, 2, 0.2, 1.6, ("nonsense", None))


class TestPersistence:
    def test_nodal_lift_and_save(self, tmp_path):
        traj, snaps, basis, romsys = brusselator_setup()
        rt = rom_integrate(romsys, 2, 0.2, 1.6, ("bootstrap", initial_coords(romsys, traj.states[0])))
        nodal = rom_to_nodal_trajectory(romsys, rt)
        assert nodal.states.shape == (9, 2, traj.space.n_dof)
        want = romsys.lift + romsys.modes @ rt.coords[3]
        assert np.allclose(nodal.states[3].ravel(), want, atol=1e-14)
        stem = str(tmp_path / "rom")
        save_rom_trajectory(romsys, rt, stem, space_keys(romsys.space))
        # reduced data only: the header, the coordinates and the Newton counts
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rom.coords.mtx", "rom.newton.csv", "rom.traj"]
        with open(stem + ".traj") as fh:
            header = dict(line.rstrip("\n").split(" = ") for line in fh)
        assert list(header) == ["dt", "M", "n_dof", "components", "degree", "n_side", "r", "q", "newton_rule"]
        assert header["M"] == "8" and header["r"] == str(romsys.r) and header["q"] == "2"
        assert header["newton_rule"] == "step-coupled"
        # the Newton counts of steps q..M, one "step,count" line each
        counts = rt.newton_iteration_counts
        want = "step,newton_iterations\n" + "".join(f"{2 + i},{c}\n" for i, c in enumerate(counts))
        assert open(stem + ".newton.csv").read() == want
        from podrom import mmio

        coords_back = np.asarray(mmio.read(stem + ".coords.mtx")).T
        assert np.array_equal(coords_back, rt.coords)
        # the header names the rule the run used
        fixed = rom_integrate(romsys, 2, 0.2, 1.6, ("bootstrap", initial_coords(romsys, traj.states[0])), 1e-12)
        save_rom_trajectory(romsys, fixed, stem + "_fixed", space_keys(romsys.space))
        assert "newton_rule = 1e-12\n" in open(stem + "_fixed.traj").readlines()
