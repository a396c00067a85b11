"""Reduced-order model: reduced operators against dense triple-product
oracles, residual/Jacobian consistency by finite differences, equilibrium
preservation, in-span agreement with the full-order solution, modal decay,
and persistence."""

import dataclasses

import numpy as np
import pytest

from helpers import as_dense, load_oracle, on_pattern
from podrom.bdf import bdf_coefficients, bdf_increment_form
from podrom.fom import (
    brusselator_system,
    fom_integrate,
    heat_system,
    perturbed_equilibrium,
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
from podrom.linalg import dense_lu_solve
from podrom.pod import H10, W0_INITIAL, W0_ZERO, InvalidRankError, build_pod_basis, project
from podrom import rom
from podrom.rom import (
    RomTrajectory,
    _reaction_tensor,
    initial_coords,
    newton_tolerance,
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
    space = build_space(build_mesh(6), 1, dirichlet="all")
    sys = heat_system(
        0.1,
        forcing=[(lambda t: 1.0 + t, lambda x, y: np.sin(np.pi * x) * np.sin(2.0 * np.pi * y))],
        reaction={3: 1.0},
    )
    u0 = interpolate(space, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))[None]
    traj = fom_integrate(sys, space, u0, 0.05, 0.5, 2)
    snaps, basis = build_pod_basis(traj, 1.0, W0_ZERO, H10)
    return rom_assemble(basis, min(4, basis.d_r), space, sys, lift=snaps.mean)


def heat_reaction_setup(power, r=None):
    # P1 heat with the single monomial reaction 0.7 u^power, about the snapshot mean
    space = build_space(build_mesh(4), 1, dirichlet="all")
    sys = heat_system(0.1, reaction={power: 0.7})
    u0 = interpolate(space, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))[None]
    traj = fom_integrate(sys, space, u0, 0.05, 0.5, 2)
    snaps, basis = build_pod_basis(traj, 1.0, W0_ZERO, H10)
    return rom_assemble(basis, basis.d_r if r is None else r, space, sys, lift=snaps.mean)


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
    at the call, checked to give the same update."""
    seen = []

    def recording(a, b):
        seen.append(a.copy())
        return dense_lu_solve(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rom, "dense_lu_solve", recording)
        update = solve(rhs, 1.0)
    [jacobian] = seen
    assert np.array_equal(update, dense_lu_solve(jacobian, rhs))
    return jacobian


def residual_and_jacobian(romsys, scheme, history, increment, t, dt):
    """The residual of one ``rom_linearisation`` candidate and the Jacobian its
    ``solve`` solves with, on the residual as right-hand side."""
    residual, solve = rom_linearisation(romsys, scheme, dt)(history, t)(increment)
    return residual, solved_jacobian(solve, residual)


def lifted(romsys, coords):
    """The stacked nodal state of one coordinate vector, by ``rom_to_nodal_trajectory``."""
    empty = np.zeros(0, dtype=np.int64)
    rt = RomTrajectory(np.zeros(1), np.atleast_2d(coords), 1.0, 1, empty, empty, "step-coupled")
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
        space = build_space(build_mesh(4), 1, dirichlet="all")
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
        # without monomials T is stored at D = 1 as zeros, so the residual is
        # K d + fixed and the Jacobian K, whatever the candidate
        space = build_space(build_mesh(4), 1, dirichlet="all")
        sys = heat_system(0.5)
        u0 = interpolate(space, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))[None]
        snaps, basis = build_pod_basis(fom_integrate(sys, space, u0, 0.05, 0.5, 2))
        romsys = rom_assemble(basis, min(3, basis.d_r), space, sys, lift=snaps.mean)
        r = romsys.r
        assert romsys.reaction_tensor.shape == (r * (r + 1), 1)
        assert not romsys.reaction_tensor.any()
        assert romsys.reaction_monomials.shape == (0, 1)
        rng = np.random.default_rng(4)
        stiffness, fixed = rng.standard_normal((r, r)), rng.standard_normal(r)
        d, candidate = rng.standard_normal(r), rng.standard_normal(r)
        slope = reaction_slope(romsys, candidate)
        residual = rom.rom_residual(stiffness, fixed, d, candidate, slope)
        assert np.array_equal(residual, stiffness @ d + fixed)
        assert np.array_equal(rom.rom_jacobian(romsys, stiffness, slope), stiffness)

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
        linearise = rom_linearisation(romsys, scheme, dt)(history, 0.3)
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
        linearise = rom_linearisation(romsys, scheme, dt)(history, t)
        degree = max(romsys.system.degree, 1)
        for d in 0.05 * rng.standard_normal((2, romsys.r)):
            candidate = history[0] + d
            slope = reaction_slope(romsys, candidate)
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
        got = reaction_slope(romsys, history[0] + d0)
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


class TestNewtonTolerance:
    def test_rule_and_override(self):
        assert newton_tolerance("step-coupled")(3, 0.1) == pytest.approx(1e-5)
        assert newton_tolerance("step-coupled")(1, 0.5) == pytest.approx(5e-3)
        assert newton_tolerance(1e-9)(3, 0.1) == 1e-9

    @pytest.mark.parametrize("rule", ["inf", 0, "paper"])
    def test_rejects_a_rule_that_is_not_a_positive_finite_number(self, rule):
        with pytest.raises(ValueError, match="newton_rule must be step-coupled or a positive finite number"):
            newton_tolerance(rule)


class TestIntegration:
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
        space = build_space(build_mesh(8), 2, dirichlet="all")
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
        # a(t), never the space: without it a run gives the same coordinates
        romsys = forced_heat_setup()
        assert romsys.reduced_loads.shape == (1, romsys.r)
        coords0 = np.full(romsys.r, 0.1)
        runs = [
            rom_integrate(system, 2, 0.05, 0.5, ("bootstrap", coords0)).coords
            for system in (romsys, dataclasses.replace(romsys, space=None))
        ]
        assert np.array_equal(runs[0], runs[1])

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
        save_rom_trajectory(romsys, rt, stem)
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
        save_rom_trajectory(romsys, fixed, stem + "_fixed")
        assert "newton_rule = 1e-12\n" in open(stem + "_fixed.traj").readlines()
