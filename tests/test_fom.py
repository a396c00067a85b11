"""Full-order model: reaction-system arithmetic, equilibrium preservation,
heat decay against the closed form, temporal self-convergence orders, the
tight reference integrator, persistence, and boundary handling."""

import numpy as np
import pytest

from podrom.bdf import NewtonConfig
from podrom.fom import (
    FomOperator,
    ReactionSystem,
    brusselator_system,
    equilibrium_state,
    fom_integrate,
    heat_system,
    load_trajectory,
    perturbed_equilibrium,
    reference_trajectory,
    save_trajectory,
)
from podrom.linalg import block_csr
from podrom.mesh_fem import (
    assemble_reaction_jacobian_system,
    build_mesh,
    build_space,
    interpolate,
    norms,
)


def small_space(n_side=4, degree=1, dirichlet="gamma1"):
    return build_space(build_mesh(n_side), degree, dirichlet=dirichlet)


class TestBrusselatorSystem:
    def test_equilibrium_annihilates_reaction(self):
        sys = brusselator_system(0.002)
        uv = np.array([[1.0, 1.0], [3.0, 3.0]])
        g = sys.g(uv)
        assert np.max(np.abs(g)) == 0.0

    def test_reaction_values_by_hand(self):
        # g_u = -(1 + u^2 v - 4u), g_v = -(3u - u^2 v)
        sys = brusselator_system(0.002)
        uv = np.array([[2.0], [0.5]])
        g = sys.g(uv)
        assert g[0, 0] == pytest.approx(-(1.0 + 4.0 * 0.5 - 8.0))
        assert g[1, 0] == pytest.approx(-(6.0 - 4.0 * 0.5))

    def test_jacobian_matches_finite_differences(self):
        sys = brusselator_system(0.002)
        rng = np.random.default_rng(3)
        uv = rng.uniform(0.5, 3.0, size=(2, 5))
        jac = sys.g_prime(uv)
        eps = 1e-6
        for b in range(2):
            bump = np.zeros_like(uv)
            bump[b] = eps
            fd = (sys.g(uv + bump) - sys.g(uv - bump)) / (2 * eps)
            assert np.max(np.abs(jac[:, b] - fd)) < 1e-7

    def test_stores_diffusion_and_boundary_values(self):
        sys = brusselator_system(0.004)
        assert sys.diffusion == (0.004, 0.004)
        assert sys.dirichlet_values == (1.0, 3.0)

    def test_rejects_nonpositive_diffusion(self):
        with pytest.raises(ValueError):
            brusselator_system(0.0)
        with pytest.raises(ValueError):
            heat_system(-1.0)
        with pytest.raises(ValueError):
            ReactionSystem(1, (0.0,), lambda u: u, lambda u: u)


class TestEquilibrium:
    def test_state_shape_and_values(self):
        space = small_space()
        sys = brusselator_system(0.002)
        eq = equilibrium_state(sys, space)
        assert eq.shape == (2, space.n_dof)
        assert np.all(eq[0] == 1.0) and np.all(eq[1] == 3.0)

    def test_preserved_over_ten_steps(self):
        # the constant state solves the discrete system exactly at every order
        space = small_space(4, 2)
        sys = brusselator_system(0.002)
        eq = equilibrium_state(sys, space)
        for q in (1, 3, 5):
            traj = fom_integrate(sys, space, eq, 0.05, 0.5, q)
            dev = np.max(np.abs(traj.states - eq[None]))
            assert dev < 1e-10, f"q={q}: deviation {dev}"

    def test_perturbed_start(self):
        space = small_space(4, 2)
        w = perturbed_equilibrium(space, amplitude=0.2)
        x, y = space.dof_coords[:, 0], space.dof_coords[:, 1]
        assert np.allclose(w[0], 1.0 + 0.2 * np.sin(np.pi * x) * np.sin(np.pi * y), atol=1e-12)
        assert np.all(w[1] == 3.0)
        assert np.all(w[0][space.dirichlet_mask] == 1.0)


class TestHeatDecay:
    def test_matches_separated_solution(self):
        # u0 = sin(pi x) sin(pi y) vanishes on the whole boundary and decays
        # as exp(-2 nu pi^2 t)
        nu = 0.1
        space = build_space(build_mesh(16), 2, dirichlet="all")
        sys = heat_system(nu)
        f0 = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        u0 = interpolate(space, f0)[None, :]
        t_end = 0.1
        traj = fom_integrate(sys, space, u0, 1e-3, t_end, 3)
        exact = np.exp(-2.0 * nu * np.pi**2 * t_end) * interpolate(space, f0)
        err_l2, _ = norms(space, traj.states[-1, 0] - exact)
        ref_l2, _ = norms(space, exact)
        assert err_l2 / ref_l2 < 0.02


class TestTemporalSelfConvergence:
    def test_orders_q1_to_q3(self):
        # cubic reaction exercises Newton; errors measured against a much
        # finer run on the same mesh so only the time discretization matters
        space = small_space(4, 1)
        sys = heat_system(
            0.05,
            reaction=lambda u: u**3,
            reaction_prime=lambda u: 3.0 * u * u,
        )
        u0 = interpolate(space, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))[None]
        t_end = 0.5
        fine = fom_integrate(sys, space, u0, t_end / 2560, t_end, 5, NewtonConfig(tol=1e-13))
        ref = fine.states[-1]
        for q in (1, 2, 3):
            errs = []
            steps = [10, 20, 40, 80]
            for m in steps:
                traj = fom_integrate(sys, space, u0, t_end / m, t_end, q, NewtonConfig(tol=1e-13))
                errs.append(norms(space, (traj.states[-1] - ref).ravel())[0])
            slope = np.polyfit(np.log([t_end / m for m in steps]), np.log(errs), 1)[0]
            assert abs(slope - q) < 0.3, f"q={q}: slope {slope}"


class TestReferenceTrajectory:
    def test_single_interior_dof_closed_form(self):
        # n_side = 2, P1, fully clamped: one interior dof, so the Galerkin
        # system is the scalar ODE m u' + nu a u = 0
        space = build_space(build_mesh(2), 1, dirichlet="all")
        free = ~space.dirichlet_mask
        assert free.sum() == 1
        i = int(np.flatnonzero(free)[0])
        m = space.mass_matrix().to_dense()[i, i]
        a = space.stiffness_matrix().to_dense()[i, i]
        nu = 0.3
        u0 = np.zeros((1, space.n_dof))
        u0[0, i] = 1.0
        t_end = 0.5
        traj = reference_trajectory(heat_system(nu), space, u0, t_end, 5, refine=64)
        exact = np.exp(-nu * a / m * t_end)
        assert abs(traj.states[-1, 0, i] - exact) < 1e-9

    def test_equilibrium_and_grid(self):
        space = small_space(2, 1)
        sys = brusselator_system(0.002)
        eq = equilibrium_state(sys, space)
        traj = reference_trajectory(sys, space, eq, 0.2, 4, refine=8)
        assert traj.n_steps == 4
        assert traj.dt == pytest.approx(0.05)
        assert np.allclose(traj.times, 0.05 * np.arange(5), atol=1e-14)
        assert np.max(np.abs(traj.states - eq[None])) < 1e-10


class TestIntegratorInterface:
    def test_rejects_nondividing_dt(self):
        space = small_space(2, 1)
        sys = heat_system(1.0)
        with pytest.raises(ValueError):
            fom_integrate(sys, space, np.zeros((1, space.n_dof)), 0.3, 1.0, 1)

    def test_dirichlet_trace_held_exactly(self):
        space = small_space(4, 2)
        sys = brusselator_system(0.002)
        w0 = perturbed_equilibrium(space)
        traj = fom_integrate(sys, space, w0, 0.1, 0.5, 2)
        mask = space.dirichlet_mask
        assert np.all(traj.states[:, 0, mask] == 1.0)
        assert np.all(traj.states[:, 1, mask] == 3.0)

    def test_jacobian_matches_block_assembly(self):
        # reference: the block matrix assembled from COO triplets, Dirichlet
        # rows and columns zeroed and a unit diagonal put on constrained dofs
        space = small_space(4, 2)
        sys = brusselator_system(0.002)
        op = FomOperator(sys, space)
        w = perturbed_equilibrium(space, 0.3).ravel()
        c0 = 137.0 / 60.0 / 0.05
        gp = assemble_reaction_jacobian_system(space, op.split(w), sys.g_prime)
        blocks = {}
        for a in range(2):
            for b in range(2):
                vals = gp[a, b]
                if a == b:
                    vals = vals + c0 * op.mass.values
                    vals = vals + sys.diffusion[a] * op.stiff.values
                blocks[(a, b)] = vals
        ref = block_csr(space.pattern, blocks, 2)
        ri, ci = ref.row_indices(), ref.col_indices
        ref.values[op.mask[ri] | op.mask[ci]] = 0.0
        ref.values[(ri == ci) & op.mask[ri]] = 1.0
        for _ in range(2):  # the pattern is reused across calls
            jac = op.jacobian(w, c0)
            assert np.array_equal(jac.row_offsets, ref.row_offsets)
            assert np.array_equal(jac.col_indices, ref.col_indices)
            assert np.array_equal(jac.values, ref.values)

    def test_unstable_equilibrium_perturbation_grows(self):
        space = small_space(8, 2)
        sys = brusselator_system(0.002)
        w0 = perturbed_equilibrium(space)
        traj = fom_integrate(sys, space, w0, 0.1, 5.0, 2)
        eq = equilibrium_state(sys, space)
        dev0 = norms(space, (traj.states[0] - eq).ravel())[0]
        dev1 = norms(space, (traj.states[-1] - eq).ravel())[0]
        assert dev1 > 2.0 * dev0


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        space = small_space(3, 2)
        sys = brusselator_system(0.002)
        traj = fom_integrate(sys, space, perturbed_equilibrium(space), 0.1, 0.3, 2)
        stem = str(tmp_path / "run")
        save_trajectory(traj, stem, extra={"note": "x"})
        back, header = load_trajectory(stem)
        assert header["note"] == "x"
        assert back.dt == traj.dt
        assert back.space.n_dof == space.n_dof
        assert np.array_equal(back.states, traj.states)
        assert np.allclose(back.times, traj.times, atol=1e-15)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("M", "4", r"comp0\.mtx: expected shape \(\d+, 5\).*found \(\d+, 4\)"),
            ("M", "2", r"comp0\.mtx: expected shape \(\d+, 3\).*found \(\d+, 4\)"),
            ("n_dof", "7", r"run\.traj: n_dof = 7, but the space has \d+ dofs"),
            ("M", None, r"run\.traj: missing header key\(s\) M$"),
        ],
    )
    def test_header_disagreeing_with_files_raises(self, tmp_path, key, value, message):
        space = small_space(3, 2)
        sys = brusselator_system(0.002)
        traj = fom_integrate(sys, space, perturbed_equilibrium(space), 0.1, 0.3, 2)
        stem = str(tmp_path / "run")
        save_trajectory(traj, stem)
        with open(stem + ".traj") as fh:
            lines = fh.read().splitlines()
        with open(stem + ".traj", "w") as fh:
            for line in lines:
                if not line.startswith(f"{key} ="):
                    fh.write(line + "\n")
                elif value is not None:  # None deletes the line
                    fh.write(f"{key} = {value}\n")
        with pytest.raises(ValueError, match=message):
            load_trajectory(stem)
