"""Full-order model: reaction-system arithmetic, equilibrium preservation,
heat decay against the closed form, temporal self-convergence orders, tight
BDF-5 solves, persistence, and boundary handling."""

import numpy as np
import pytest

from helpers import as_dense, clamped_space, fom_residual_oracle, load_oracle, norms, on_pattern
from podrom import fom
from podrom.bdf import bdf_coefficients, bdf_increment_form, bootstrap_plan, integrate
from podrom.fom import (
    FomOperator,
    ReactionSystem,
    brusselator_system,
    fom_integrate,
    heat_system,
    load_trajectory,
    perturbed_equilibrium,
    save_trajectory,
)
from podrom.harness import DEFAULT_T
from podrom.linalg import ConvergenceError, block_csr, krylov_solve
from podrom.mesh_fem import (
    assemble_elements,
    assemble_load,
    assemble_mass,
    assemble_reaction_jacobian_system,
    assemble_stiffness,
    build_mesh,
    build_space,
    interpolate,
)

EPS = np.finfo(np.float64).eps
#: rounding depth, in units u = eps / 2 of first-order error per term of the
#: absolute sums (P2, nq = 6, nloc = 6; P1 is shallower). K = 16 is derived
#: for the Jacobian and only measured for the residual.
#: Jacobian: the operator forms each element entry first, c0 M_e + nu K_e +
#: sum_q reaction: a reaction term N_i N_j (w dg) goes through 3 products and
#: 5 quadrature sums, a mass term through 8 roundings in M_e, then c0, + nu
#: K_e and + reaction (11); then comes the 2 nloc-term product, exact on the
#: unit vectors the Jacobian test applies, and at most 6 element
#: contributions (5): 16 u. The oracle sums the same GEMM (8) over the
#: elements (5), then adds c0 mass and nu stiffness (3): 16 u. So the
#: Jacobian and its diagonal differ by at most 32 u = 16 eps times the
#: absolute sums of their terms (measured: 1.78 eps at worst, Brusselator P1;
#: 1.15 eps for the diagonal).
#: Residual: its products are not exact. Its operator side is 21 u deep
#: (nloc-term interpolation, the quadrature sum, the nloc-term stiffness
#: product, 6 contributions) and the oracle's CSR rows sum up to 19 entries
#: (35 u), so the first-order bound is 56 u, about 28 eps, above K; the
#: worst measured is 0.57 eps, which K covers with room to spare.
ROUNDING_K = 16


def small_space(n_side=4, degree=1):
    return build_space(build_mesh(n_side), degree)


def three_component_system():
    """g = (u0^2 u1 + u0 u1^2, u2^3, 1 - u0 u1 u2): two terms of g_0 share a
    lowered monomial, u0 u1, and so does the last term of g_2."""
    exponents = [(2, 1, 0), (1, 2, 0), (0, 0, 3), (0, 0, 0), (1, 1, 1)]
    coefficients = [(1.0, 1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0, -1.0)]
    return ReactionSystem(3, (1.0, 1.0, 1.0), exponents, coefficients)


def absolute_parts(space, states, g_prime):
    """Pattern-aligned absolute sums of the quadrature terms of the reaction
    Jacobian's blocks, (nc, nc, nnz), and of the mass, (nnz,), and of the
    gradient-product terms of the stiffness, (nnz,): the scale of the
    rounding of any order of summing those terms."""
    weights = space.quadrature_weights
    products = np.abs(space.basis_products)
    dq = np.abs(g_prime(space.at_quadrature(states)))
    nc = len(states)
    reaction = np.array(
        [[assemble_elements(space, (dq[a, b] * weights) @ products).values for b in range(nc)] for a in range(nc)]
    )
    mass = assemble_elements(space, weights @ products).values
    gradient = np.abs(space.gradient_weights) @ np.abs(space.gradient_products).reshape(3, -1)
    return reaction, mass, assemble_elements(space, gradient).values


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
        rng = np.random.default_rng(3)
        systems = (brusselator_system(0.002), heat_system(1.0, reaction={3: 1.0}), three_component_system())
        for sys in systems:
            nc = sys.n_components
            uv = rng.uniform(0.5, 3.0, size=(nc, 5))
            jac = sys.g_prime(uv)
            assert jac.shape == (nc, nc, 5)
            eps = 1e-6
            for b in range(nc):
                bump = np.zeros_like(uv)
                bump[b] = eps
                fd = (sys.g(uv + bump) - sys.g(uv - bump)) / (2 * eps)
                assert np.max(np.abs(jac[:, b] - fd)) < 1e-7

    def test_partials_match_hand_written_brusselator(self):
        sys = brusselator_system(0.002)
        u, v = np.random.default_rng(6).uniform(0.5, 3.0, size=(2, 50, 6))
        want = np.stack([
            np.stack([4.0 - 2.0 * u * v, -u * u]),
            np.stack([2.0 * u * v - 3.0, u * u]),
        ])
        err = np.max(np.abs(sys.g_prime(np.stack([u, v])) - want))
        assert err <= 1e-14 * np.max(np.abs(want))

    def test_tables_give_hand_written_values(self):
        # u^2 v with coefficient 2 in g_u, and -u^3 in g_v
        sys = ReactionSystem(2, (1.0, 1.0), [(2, 1), (3, 0)], [(2.0, 0.0), (0.0, -1.0)])
        rng = np.random.default_rng(4)
        uv = rng.uniform(-2.0, 2.0, size=(2, 3, 4))
        u, v = uv
        assert sys.degree == 3
        assert np.allclose(sys.g(uv), np.stack([2.0 * u * u * v, -(u**3)]), rtol=1e-15, atol=0)
        want = np.stack([
            np.stack([4.0 * u * v, 2.0 * u * u]),
            np.stack([-3.0 * u * u, np.zeros_like(u)]),
        ])
        assert np.allclose(sys.g_prime(uv), want, rtol=1e-15, atol=0)
        heat = heat_system(1.0, reaction={3: 1.0})
        assert heat.degree == 3
        assert np.allclose(heat.g(uv[:1]), uv[:1] ** 3, rtol=1e-15, atol=0)
        assert np.allclose(heat.g_prime(uv[:1]), 3.0 * uv[:1][None] ** 2, rtol=1e-15, atol=0)
        linear = heat_system(1.0)
        assert linear.degree == 0
        assert np.array_equal(linear.g(uv[:1]), np.zeros((1, 3, 4)))
        assert np.array_equal(linear.g_prime(uv[:1]), np.zeros((1, 1, 3, 4)))
        # u0^2 u1 and u0 u1^2 both lower to u0 u1, and u0 u1 u2 lowers to it too
        three = three_component_system()
        u0, u1, u2 = uvw = rng.uniform(-2.0, 2.0, size=(3, 3, 4))
        assert three.degree == 3
        want = np.stack([u0 * u0 * u1 + u0 * u1 * u1, u2 * u2 * u2, 1.0 - u0 * u1 * u2])
        assert np.allclose(three.g(uvw), want, rtol=1e-15, atol=0)
        zero = np.zeros_like(u0)
        want = np.stack([
            np.stack([2.0 * u0 * u1 + u1 * u1, u0 * u0 + 2.0 * u0 * u1, zero]),
            np.stack([zero, zero, 3.0 * u2 * u2]),
            np.stack([-u1 * u2, -u0 * u2, -u0 * u1]),
        ])
        assert np.allclose(three.g_prime(uvw), want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("shape", [(), (7,), (6, 32)], ids=["point", "points", "quadrature"])
    def test_reaction_is_the_tensordot_contraction_bit_for_bit(self, shape):
        # g contracts its coefficient table with the monomials, flattened
        # over the points, by one matmul: the product np.tensordot forms
        rng = np.random.default_rng(8)
        for sys in (brusselator_system(0.002), heat_system(1.0, reaction={3: 1.0, 1: -0.5}), three_component_system()):
            u = rng.uniform(-2.0, 2.0, size=(sys.n_components,) + shape)
            monomials = np.ones((len(sys.factors),) + shape)
            for m, ks in enumerate(sys.factors):
                for k in ks:
                    monomials[m] *= u[k]
            assert np.array_equal(sys.g(u), np.tensordot(sys.coefficients, monomials, axes=1))
            assert sys.g_prime(u).shape == (sys.n_components,) * 2 + shape
        linear = heat_system(1.0)
        assert np.array_equal(linear.g(np.ones((1,) + shape)), np.zeros((1,) + shape))
        assert np.array_equal(linear.g_prime(np.ones((1,) + shape)), np.zeros((1, 1) + shape))

    def test_rejects_malformed_tables(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ReactionSystem(1, (1.0,), [(-1,)], [[1.0]])
        # a fractional power is not truncated to an integer one
        with pytest.raises(ValueError, match="integers, got 1.5"):
            ReactionSystem(1, (1.0,), [(1.5,)], [[1.0]])
        with pytest.raises(ValueError, match="shape"):
            ReactionSystem(2, (1.0, 1.0), [(1, 0)], [[1.0]])

    def test_stores_diffusion_and_boundary_values(self):
        # the system stores nu only: the initial state fixes the Dirichlet
        # values (test_dirichlet_trace_held_exactly)
        sys = brusselator_system(0.004)
        assert sys.diffusion == (0.004, 0.004)

    def test_rejects_nonpositive_diffusion(self):
        with pytest.raises(ValueError):
            brusselator_system(0.0)
        with pytest.raises(ValueError):
            heat_system(-1.0)
        with pytest.raises(ValueError):
            ReactionSystem(1, (0.0,), [(1,)], [[1.0]])

    @pytest.mark.parametrize("nu", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_rejects_diffusion_that_is_not_positive_and_finite(self, nu):
        for make in (brusselator_system, heat_system):
            with pytest.raises(ValueError, match="nu must be positive and finite"):
                make(nu)
        with pytest.raises(ValueError, match="nu must be positive and finite"):
            ReactionSystem(2, (1.0, nu), [(1, 0)], [[1.0], [0.0]])


class TestComponentCounts:
    """A per-component entry of another length fails at construction, with
    both counts, instead of as a broadcast error at the first step."""

    def test_rejects_a_diffusion_per_other_count(self):
        with pytest.raises(ValueError, match="1 diffusion coefficients for 2 components"):
            ReactionSystem(2, (1.0,), [(1, 0)], [[1.0], [0.0]])

    @pytest.mark.parametrize("component", [-1, 2])
    def test_rejects_a_forcing_term_outside_the_components(self, component):
        term = (component, np.cos, lambda x, y: x)
        with pytest.raises(ValueError, match=rf"component {component} of 2 components \(0\.\.1\)"):
            ReactionSystem(2, (1.0, 1.0), [(1, 0)], [[1.0], [0.0]], [term])


class TestForcingLoads:
    def test_two_terms_on_one_component_none_on_the_other(self):
        space = small_space(3, 2)
        b1, b2 = (lambda x, y: x * y + 1.0), (lambda x, y: np.sin(np.pi * x) * y)
        terms = [(1, lambda t: 1.0 + t, b1), (1, np.cos, b2)]
        sys = ReactionSystem(2, (1.0, 1.0), [], np.zeros((2, 0)), terms)
        loads = sys.loads(space)
        zero = np.zeros(space.n_dof)
        assert np.array_equal(loads[0], np.concatenate([zero, assemble_load(space, b1)]))
        assert np.array_equal(loads[1], np.concatenate([zero, assemble_load(space, b2)]))
        t = 0.7
        assert np.array_equal(sys.amplitudes(t), [1.7, np.cos(t)])
        want = load_oracle(sys, space, t).ravel()
        # the oracle rounds a(t) b(x_q) per point, the loads a(t) times each integral
        assert np.allclose(sys.amplitudes(t) @ loads, want, rtol=0, atol=4 * EPS * np.abs(want).max())

    def test_no_terms_give_empty_loads(self):
        space = small_space(3, 2)
        for sys in (heat_system(1.0), brusselator_system(0.002)):
            assert sys.loads(space).shape == (0, sys.n_components * space.n_dof)
            assert sys.amplitudes(0.5).shape == (0,)


class TestEquilibrium:
    def test_state_shape_and_values(self):
        space = small_space()
        eq = perturbed_equilibrium(space, 0.0)
        assert eq.shape == (2, space.n_dof)
        assert np.all(eq[0] == 1.0) and np.all(eq[1] == 3.0)

    def test_preserved_over_ten_steps(self):
        # the constant state solves the discrete system exactly at every order
        space = small_space(4, 2)
        sys = brusselator_system(0.002)
        eq = perturbed_equilibrium(space, 0.0)
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
        space = clamped_space(16, 2)
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
        sys = heat_system(0.05, reaction={3: 1.0})
        u0 = interpolate(space, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))[None]
        t_end = 0.5
        fine = fom_integrate(sys, space, u0, t_end / 2560, t_end, 5, newton_rule=1e-13)
        ref = fine.states[-1]
        for q in (1, 2, 3):
            errs = []
            steps = [10, 20, 40, 80]
            for m in steps:
                traj = fom_integrate(sys, space, u0, t_end / m, t_end, q, newton_rule=1e-13)
                errs.append(norms(space, (traj.states[-1] - ref).ravel())[0])
            slope = np.polyfit(np.log([t_end / m for m in steps]), np.log(errs), 1)[0]
            assert abs(slope - q) < 0.3, f"q={q}: slope {slope}"


class TestReferenceTrajectory:
    """Tight BDF-5 solves (Newton tolerance 1e-12), as the studies' references use."""

    def test_single_interior_dof_closed_form(self):
        # n_side = 2, P1, fully clamped: one interior dof, so the Galerkin
        # system is the scalar ODE m u' + nu a u = 0
        space = clamped_space(2, 1)
        free = ~space.dirichlet_mask
        assert free.sum() == 1
        i = int(np.flatnonzero(free)[0])
        m = as_dense(assemble_mass(space))[i, i]
        a = as_dense(assemble_stiffness(space))[i, i]
        nu = 0.3
        u0 = np.zeros((1, space.n_dof))
        u0[0, i] = 1.0
        t_end = 0.5
        traj = fom_integrate(heat_system(nu), space, u0, t_end / 320, t_end, 5, newton_rule=1e-12)
        exact = np.exp(-nu * a / m * t_end)
        assert abs(traj.states[-1, 0, i] - exact) < 1e-9

    def test_equilibrium_and_grid(self):
        space = small_space(2, 1)
        sys = brusselator_system(0.002)
        eq = perturbed_equilibrium(space, 0.0)
        traj = fom_integrate(sys, space, eq, 0.05, 0.2, 5, newton_rule=1e-12)
        assert traj.n_steps == 4
        assert traj.dt == pytest.approx(0.05)
        assert np.allclose(traj.times, 0.05 * np.arange(5), atol=1e-14)
        assert np.max(np.abs(traj.states - eq[None])) < 1e-10

    def test_rejects_a_tolerance_that_is_not_positive(self):
        space = small_space(2, 1)
        sys = brusselator_system(0.002)
        eq = perturbed_equilibrium(space, 0.0)
        with pytest.raises(ValueError, match="newton_rule must be"):
            fom_integrate(sys, space, eq, 0.05, 0.2, 5, newton_rule=0.0)

    @pytest.mark.parametrize("dt, t_end", [(-0.1, -1.0), (0.0, 1.0)])
    def test_rejects_a_step_that_is_not_positive(self, monkeypatch, dt, t_end):
        # a negative step would integrate backward in time, a zero one divide by zero
        calls = []
        monkeypatch.setattr(FomOperator, "linearisation", lambda op, scheme, step: calls.append(step))
        space = small_space(2, 1)
        u0 = np.ones((1, space.n_dof))
        with pytest.raises(ValueError, match=f"dt must be positive and finite, got {dt}$"):
            fom_integrate(heat_system(0.1), space, u0, dt, t_end, 1)
        assert calls == []


class TestInexactNewton:
    """The FOM's Newton updates are solved by BiCGStab to the forcing-term
    tolerance clip(FORCING tol / ||rhs||, 1e-13, 0.5), relative; Newton's
    own stopping test on the true residual keeps every stored state within
    the Newton tolerance."""

    TOL = 1e-10
    # the run of the tests below: 32 steps of T/128 at q 5
    Q, M, DT = 5, 32, DEFAULT_T / 128

    @pytest.fixture(scope="class")
    def linearised(self):
        """The FOM's Newton ``solve`` at a perturbed state, and the Jacobian
        it solves with."""
        space = small_space(8, 2)
        op = FomOperator(brusselator_system(0.002), space)
        w = perturbed_equilibrium(space, 0.2).ravel()
        scheme, dt = bdf_coefficients(5), 0.05
        _, linearise = op.linearisation(scheme, dt)(np.array([w] * 5), 0.0)
        _, solve = linearise(np.zeros_like(w))
        return solve, op.jacobian(w, op.jacobian_linear_part(scheme.delta_f[0] / dt))

    # 1e-12: the 0.5 clip; 1e-6: the forcing term itself; 1e4: the 1e-13 clip
    @pytest.mark.parametrize(
        "scale, relative", [(1e-12, 0.5), (1e-6, 1e-5), (1e4, 1e-13)]
    )
    def test_forcing_rule(self, linearised, monkeypatch, scale, relative):
        solve, jacobian = linearised
        asked = []

        def recording(a, b, tol, x0=None):
            asked.append(tol)
            return krylov_solve(a, b, tol=tol, x0=x0)

        monkeypatch.setattr(fom, "krylov_solve", recording)
        rhs = np.random.default_rng(7).standard_normal(jacobian.rows)
        rhs *= scale / np.linalg.norm(rhs)
        x = solve(rhs, self.TOL)
        assert asked == [pytest.approx(relative, rel=1e-12)]
        bound = max(fom.FORCING * self.TOL, 1e-13 * scale)
        assert np.linalg.norm(jacobian.matvec(x) - rhs) <= bound * (1 + 1e-12)

    def test_zero_right_hand_side(self, linearised):
        solve, jacobian = linearised
        x = solve(np.zeros(jacobian.rows), self.TOL)
        assert np.array_equal(x, np.zeros(jacobian.rows))

    def test_reuse_changes_no_update(self):
        # the FOM holds no Jacobian: at one candidate, the first update of a
        # step asked with reuse is the one asked without, to the bit, on the
        # run's first step (started from zero) and on its second (started
        # from the first step's update)
        space = small_space(8, 2)
        op = FomOperator(brusselator_system(0.002), space)
        w = perturbed_equilibrium(space, 0.2).ravel()
        history, d = np.array([w] * 5), 1e-3 * np.sin(np.arange(len(w)))
        updates = []
        for reuse in (True, False):
            at_step = op.linearisation(bdf_coefficients(5), 0.05)
            for scale in (1.0, 2.0):
                residual, solve = at_step(history, 0.0)[1](scale * d)
                updates.append(solve(-residual, self.TOL, reuse=reuse))
        assert np.array_equal(updates[:2], updates[2:])

    def worst_step_residual(self, op, states, dt):
        """The largest BDF-Q residual of the main-loop states of a run, by
        the assembled-matrix oracle rather than the residual the Newton
        solve itself tests."""
        q, scheme = self.Q, bdf_coefficients(self.Q)
        return max(
            np.linalg.norm(
                fom_residual_oracle(
                    op, states[n] - states[n - 1], states[n - q : n][::-1], scheme, dt, n * dt
                )
            )
            for n in range(q, len(states))
        )

    def test_stored_states_meet_their_bdf_equations(self):
        space = small_space(8, 2)
        sys = brusselator_system(0.002)
        traj = fom_integrate(
            sys, space, perturbed_equilibrium(space, 0.2), self.DT, self.M * self.DT, self.Q
        )
        assert self.worst_step_residual(FomOperator(sys, space), traj.stacked(), self.DT) <= 2 * self.TOL

    def counted_run(self, monkeypatch, dt, keep_start):
        """A run over the window of self.M steps of self.DT in steps of
        ``dt``, through a ``krylov_solve`` that counts; ``keep_start`` False
        drops every start. Returns its states, its BiCGStab iterations, the
        number of solves given no start, and the Newton updates per step."""
        space = small_space(8, 2)
        op = FomOperator(brusselator_system(0.002), space)
        iterations, unstarted = [], []

        def counting(a, b, tol, x0=None):
            unstarted.append(x0 is None)
            x, its = krylov_solve(a, b, tol=tol, x0=x0 if keep_start else None)
            iterations.append(its)
            return x, its

        monkeypatch.setattr(fom, "krylov_solve", counting)
        u0 = perturbed_equilibrium(space, 0.2).ravel()
        states, counts, boot_counts = integrate(
            self.Q, dt, self.M * self.DT, [u0], op.linearisation, self.TOL
        )
        assert self.worst_step_residual(op, states, dt) <= 2 * self.TOL
        return states, sum(iterations), sum(unstarted), counts + boot_counts

    def runs(self, dt):
        """The ``integrate`` calls of one run: its bootstrap segments and its main loop."""
        return len(bootstrap_plan(self.Q, dt)) + 1

    def test_warm_start_saves_krylov_iterations(self, monkeypatch):
        """Each step's first update starts BiCGStab from the extrapolated
        first updates of earlier steps of its run: 347 iterations against
        557 from zero on this run; both runs meet their BDF equations."""
        _, warm, unstarted, updates = self.counted_run(monkeypatch, self.DT, True)
        _, cold, _, _ = self.counted_run(monkeypatch, self.DT, False)
        assert warm <= 0.8 * cold, (warm, cold)
        assert unstarted == self.runs(self.DT) + sum(updates) - len(updates)

    def test_only_each_steps_first_update_is_started(self, monkeypatch):
        """The first step of each run (the bootstrap segments and the main
        loop) and every later update of a step start BiCGStab from zero. At
        steps of T/32, 13 steps of the run take two or three updates."""
        dt = 4 * self.DT
        _, _, unstarted, updates = self.counted_run(monkeypatch, dt, True)
        assert sum(updates) - len(updates) >= 10
        assert unstarted == self.runs(dt) + sum(updates) - len(updates)


class TestIntegratorInterface:
    def test_rejects_nondividing_dt(self):
        space = small_space(2, 1)
        sys = heat_system(1.0)
        with pytest.raises(ValueError):
            fom_integrate(sys, space, np.zeros((1, space.n_dof)), 0.3, 1.0, 1)

    def test_non_finite_residual_names_the_step(self):
        # a load that turns NaN after t = 0.25 reaches BiCGStab as a NaN
        # right-hand side at the step to t = 0.3, which fails at once
        space = small_space(2, 1)
        sys = heat_system(1.0, forcing=[(lambda t: np.nan if t > 0.25 else 0.0, lambda x, y: np.ones_like(x))])
        with pytest.raises(ConvergenceError, match=r"BDF-1 step n = 3 at t = 0\.3 .*non-finite"):
            fom_integrate(sys, space, np.zeros((1, space.n_dof)), 0.1, 0.5, 1)

    def test_dirichlet_trace_held_exactly(self):
        # the start fixes the Dirichlet data: its gamma1 values, whatever they
        # are, hold exactly at every step
        space = small_space(4, 2)
        sys = brusselator_system(0.002)
        mask = space.dirichlet_mask
        moved = perturbed_equilibrium(space)
        moved[0, mask], moved[1, mask] = 2.0, 5.0
        for w0, (u_b, v_b) in ((perturbed_equilibrium(space), (1.0, 3.0)), (moved, (2.0, 5.0))):
            traj = fom_integrate(sys, space, w0, 0.1, 0.5, 2)
            assert np.all(traj.states[:, 0, mask] == u_b)
            assert np.all(traj.states[:, 1, mask] == v_b)

    @pytest.mark.parametrize(
        "degree, system, base_values",
        [
            (2, brusselator_system(0.002), (1.0, 3.0)),
            (
                1,
                heat_system(0.5, forcing=[(lambda t: 1.0 + t, lambda x, y: x * y)], reaction={3: 1.0}),
                (0.0,),
            ),
            (
                2,
                ReactionSystem(
                    2,
                    (0.01, 0.03),
                    [(0, 0), (1, 0), (2, 1)],
                    [(-1.0, 4.0, -1.0), (0.0, -3.0, 1.0)],
                    [(1, np.cos, lambda x, y: x - y)],
                ),
                (1.0, 3.0),
            ),
        ],
        ids=["brusselator-P2", "forced-cubic-heat-P1", "one-forced-component-P2"],
    )
    def test_residual_matches_per_component_formula(self, degree, system, base_values):
        # oracle: the scalar mass and stiffness applied component by
        # component, nu after the product, minus each component's load; the
        # operator sums the same terms per element in another order, so the
        # two agree to ROUNDING_K eps times the absolute sums of the terms
        space = small_space(4, degree)
        op = FomOperator(system, space)
        scheme = bdf_coefficients(3)
        dt, t = 0.1, 0.3
        rng = np.random.default_rng(degree + op.nc)
        base = np.repeat(base_values, space.n_dof)  # constant per component
        history = [base + 0.1 * rng.standard_normal(op.dim) for _ in range(3)]
        increment = 0.05 * rng.standard_normal(op.dim)
        want = fom_residual_oracle(op, increment, history, scheme, dt, t)
        got = op.residual(increment, history, scheme, dt, t)
        bdf_dt = op.split(np.abs(bdf_increment_form(scheme, increment, history, dt)))
        candidate = op.split(history[0] + increment)
        _, mass, stiffness = absolute_parts(space, candidate, system.g_prime)
        mass, stiffness = on_pattern(space, mass), on_pattern(space, stiffness)
        weights, basis = space.quadrature_weights, np.abs(space.basis_values)
        qc = space.quadrature_points
        at_q = np.abs(system.g(space.at_quadrature(candidate)))
        for c, a, b in system.forcing:
            at_q[c] += np.abs(a(t) * b(qc[..., 0], qc[..., 1]))
        scale = []
        for c in range(op.nc):
            integrated = np.bincount(
                space.cell_dofs.ravel(), ((at_q[c] * weights) @ basis).ravel(), minlength=op.n
            )
            scale.append(
                mass.matvec(bdf_dt[c])
                + system.diffusion[c] * stiffness.matvec(np.abs(candidate[c]))
                + integrated
            )
        scale = np.concatenate(scale)
        mask = np.tile(space.dirichlet_mask, op.nc)
        assert np.array_equal(got[mask], np.zeros(mask.sum()))
        ratio = np.abs(got - want)[~mask] / (ROUNDING_K * EPS * scale[~mask])
        assert np.max(ratio) <= 1.0, np.max(ratio)

    def check_jacobian(self, system, space, w, c0):
        """The operator's full matrix, its action on every unit vector,
        against the block matrix assembled from COO triplets with the
        Dirichlet rows and columns of the identity: exactly 0 off the
        block pattern, exactly the identity's Dirichlet rows and columns,
        and every other entry, and ``diagonal()``, within ROUNDING_K eps
        times the absolute sums of its reaction, mass and stiffness terms;
        ``diagonal()`` also exactly the full matrix's on free dofs. A
        product leaves its operand unwritten."""
        op = FomOperator(system, space)
        gp = assemble_reaction_jacobian_system(space, op.split(w), system.g_prime)
        reaction, mass, stiffness = absolute_parts(space, op.split(w), system.g_prime)
        blocks, scales = {}, {}
        for a in range(op.nc):
            for b in range(op.nc):
                vals, scale = gp[a, b], reaction[a, b]
                if a == b:
                    vals = vals + c0 * assemble_mass(space).values
                    vals = vals + system.diffusion[a] * assemble_stiffness(space).values
                    scale = scale + c0 * mass + system.diffusion[a] * stiffness
                blocks[(a, b)], scales[(a, b)] = vals, scale
        scalar = assemble_mass(space)
        ref = as_dense(block_csr(scalar, blocks, op.nc))
        scale = as_dense(block_csr(scalar, scales, op.nc))
        pattern = as_dense(block_csr(scalar, {k: np.ones_like(v) for k, v in blocks.items()}, op.nc))
        mask, eye = np.tile(space.dirichlet_mask, op.nc), np.eye(op.dim)
        jac = op.jacobian(w, op.jacobian_linear_part(c0))
        assert (jac.rows, jac.cols) == (op.dim, op.dim)
        full = np.column_stack([jac.matvec(e) for e in eye])
        # BiCGStab reads its operands again after a product, so the product
        # zeroes the Dirichlet entries of a copy: the unit vectors, and an
        # operand nonzero on every dof, stay as they were
        assert np.array_equal(eye, np.eye(op.dim))
        x = np.random.default_rng(7).uniform(1.0, 2.0, op.dim)
        operand = x.copy()
        y = jac.matvec(x)
        assert np.array_equal(x, operand)
        assert np.array_equal(y[mask], operand[mask])
        assert np.array_equal(full[pattern == 0], np.zeros(np.sum(pattern == 0)))
        assert np.array_equal(full[mask], eye[mask])
        assert np.array_equal(full[:, mask], eye[:, mask])
        free = (pattern != 0) & ~mask[:, None] & ~mask[None, :]
        ratio = np.abs(full - ref)[free] / (ROUNDING_K * EPS * scale[free])
        assert np.max(ratio) <= 1.0, np.max(ratio)
        diagonal = jac.diagonal()
        assert np.array_equal(diagonal[mask], np.ones(mask.sum()))
        # the preconditioner's diagonal is the products' own: the same element
        # matrices through one scatter order
        assert np.array_equal(diagonal[~mask], np.diag(full)[~mask])
        ratio = np.abs(diagonal - np.diag(ref))[~mask] / (ROUNDING_K * EPS * np.diag(scale)[~mask])
        assert np.max(ratio) <= 1.0, np.max(ratio)
        return op, jac, full

    def test_jacobian_matches_block_assembly(self):
        space = small_space(4, 2)
        sys = brusselator_system(0.002)
        w = perturbed_equilibrium(space, 0.3).ravel()
        c0 = 137.0 / 60.0 / 0.05
        op, jac, full = self.check_jacobian(sys, space, w, c0)
        # the linear part is reused across a run's Jacobians
        linear_part = op.jacobian_linear_part(c0)
        for _ in range(2):
            again = op.jacobian(w, linear_part)
            assert np.array_equal(np.column_stack([again.matvec(e) for e in np.eye(op.dim)]), full)
            assert np.array_equal(again.diagonal(), jac.diagonal())

    @pytest.mark.parametrize(
        "degree, system, base_values",
        [
            (1, brusselator_system(0.002), (1.0, 3.0)),
            (1, heat_system(0.5, reaction={3: 1.0}), (0.0,)),
            (2, heat_system(0.5, reaction={3: 1.0}), (0.0,)),
            (
                2,
                ReactionSystem(
                    2,
                    (0.01, 0.03),
                    [(0, 0), (1, 0), (2, 1)],
                    [(-1.0, 4.0, -1.0), (0.0, -3.0, 1.0)],
                    [(1, np.cos, lambda x, y: x - y)],
                ),
                (1.0, 3.0),
            ),
        ],
        ids=["brusselator-P1", "cubic-heat-P1", "cubic-heat-P2", "one-forced-component-P2"],
    )
    def test_jacobian_matches_block_assembly_per_system(self, degree, system, base_values):
        # the block-assembly reference of the test above, for a scalar system,
        # for P1 and for components with different diffusion and one forcing
        space = small_space(4, degree)
        nc, n = system.n_components, space.n_dof
        rng = np.random.default_rng(degree)
        base = np.repeat(base_values, n)  # constant per component
        w = base + 0.3 * rng.standard_normal((nc, n)).ravel()
        mask = np.tile(space.dirichlet_mask, nc)
        w[mask] = base[mask]
        self.check_jacobian(system, space, w, 3.0 / 2.0 / 0.05)

    def test_unstable_equilibrium_perturbation_grows(self):
        space = small_space(8, 2)
        sys = brusselator_system(0.002)
        w0 = perturbed_equilibrium(space)
        traj = fom_integrate(sys, space, w0, 0.1, 5.0, 2)
        eq = perturbed_equilibrium(space, 0.0)
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
        # a text header and the states in numpy's own format, nothing else
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.states.npy", "run.traj"]
        back, header = load_trajectory(stem)
        assert header["note"] == "x"
        assert back.dt == traj.dt
        assert back.space.n_dof == space.n_dof
        assert np.array_equal(back.states, traj.states)
        assert np.allclose(back.times, traj.times, atol=1e-15)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            pytest.param(
                "M", "4", r"run\.states\.npy: expected states float64 \(5, 2, \d+\).*found float64 \(4, 2, \d+\)",
                id="M-4-states-shape",
            ),
            pytest.param(
                "M", "2", r"run\.states\.npy: expected states float64 \(3, 2, \d+\).*found float64 \(4, 2, \d+\)",
                id="M-2-states-shape",
            ),
            pytest.param(
                "components", "1", r"run\.states\.npy: expected states float64 \(4, 1, \d+\)",
                id="components-1-states-shape",
            ),
            ("n_dof", "7", r"run\.traj: n_dof = 7, but the space has \d+ dofs"),
            ("M", None, r"run\.traj: missing header key\(s\) M$"),
            # a malformed value names the file and the key
            pytest.param("M", "x", r"run\.traj: M = 'x' is not a valid int$", id="M-x-malformed"),
            pytest.param("dt", "abc", r"run\.traj: dt = 'abc' is not a valid float$", id="dt-abc-malformed"),
            # a dt the time grid cannot use names the file and the key too
            pytest.param("dt", "0", r"run\.traj: dt = '0' is not positive and finite$", id="dt-0"),
            pytest.param("dt", "-0.1", r"run\.traj: dt = '-0.1' is not positive and finite$", id="dt--0.1"),
            pytest.param("dt", "nan", r"run\.traj: dt = 'nan' is not positive and finite$", id="dt-nan"),
            pytest.param("dt", "inf", r"run\.traj: dt = 'inf' is not positive and finite$", id="dt-inf"),
            pytest.param("n_side", "0", r"run\.traj: n_side must be at least 1$", id="n_side-0-malformed"),
            pytest.param("degree", "3", r"run\.traj: degree must be 1 or 2$", id="degree-3-malformed"),
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

    @pytest.mark.parametrize("key", ["M", "dt", "system"])
    def test_repeated_header_key_raises(self, tmp_path, key):
        # a second line of a key is rejected, not read last-wins: a second M
        # would otherwise show only as a states shape mismatch, and a second
        # dt or system not at all
        space = small_space(3, 2)
        traj = fom_integrate(brusselator_system(0.002), space, perturbed_equilibrium(space), 0.1, 0.3, 2)
        stem = str(tmp_path / "run")
        save_trajectory(traj, stem, extra={"system": "brusselator"})
        with open(stem + ".traj", "a") as fh:
            fh.write(f"{key} = 9\n")
        with pytest.raises(ValueError, match=rf"run\.traj: repeated header key {key}$"):
            load_trajectory(stem)
