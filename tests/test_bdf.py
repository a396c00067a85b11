"""BDF coefficients and stepping: exact rational identities, polynomial
exactness, the first-difference decomposition (property-tested), bootstrap
plans, and scalar convergence orders."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podrom.bdf import (
    ETA,
    History,
    NewtonConfig,
    UnsupportedOrderError,
    bdf_apply,
    bdf_apply_as_differences,
    bdf_coefficients,
    bdf_increment_form,
    bootstrap_plan,
    extrapolate,
    extrapolate_increment,
    implicit_step,
    run_bootstrap,
)


class TestCoefficients:
    def test_q1_backward_euler(self):
        s = bdf_coefficients(1)
        assert s.delta == (Fraction(1), Fraction(-1))
        assert s.eta == 0.0

    def test_q2(self):
        s = bdf_coefficients(2)
        assert s.delta == (Fraction(3, 2), Fraction(-2), Fraction(1, 2))
        assert s.alpha == (Fraction(3, 2), Fraction(-1, 2))

    def test_q3(self):
        s = bdf_coefficients(3)
        assert s.delta == (Fraction(11, 6), Fraction(-3), Fraction(3, 2), Fraction(-1, 3))
        assert s.alpha == (Fraction(11, 6), Fraction(-7, 6), Fraction(1, 3))
        assert s.eta == 0.0769

    def test_eta_table(self):
        assert ETA == {1: 0.0, 2: 0.0, 3: 0.0769, 4: 0.2878, 5: 0.8097}

    def test_exact_rational_identities(self):
        for q in range(1, 6):
            s = bdf_coefficients(q)
            assert sum(s.delta, Fraction(0)) == 0
            assert s.delta[0] > 0
            for j in range(q):
                assert s.alpha[j] == sum(s.delta[: j + 1], Fraction(0))
            assert s.alpha[q - 1] == -s.delta[q]

    def test_unsupported_orders(self):
        for q in (0, 6, -1):
            with pytest.raises(UnsupportedOrderError):
                bdf_coefficients(q)


class TestApply:
    def test_constant_sequence_is_zero(self):
        for q in range(1, 6):
            s = bdf_coefficients(q)
            seq = [np.full(3, 2.5)] * (q + 1)
            assert np.max(np.abs(bdf_apply(s, seq, 0.1))) < 1e-13

    def test_linear_exactness(self):
        for q in range(1, 6):
            s = bdf_coefficients(q)
            dt = 0.37
            t_n = 5.0
            seq = [np.array([t_n - i * dt]) for i in range(q + 1)]
            assert abs(bdf_apply(s, seq, dt)[0] - 1.0) < 1e-13

    def test_degree_q_polynomial_exactness(self):
        rng = np.random.default_rng(0)
        for q in range(1, 6):
            s = bdf_coefficients(q)
            dt = 0.1 + 0.3 * rng.random()
            t_n = 1.0 + rng.random()
            seq = [np.array([(t_n - i * dt) ** q]) for i in range(q + 1)]
            exact = q * t_n ** (q - 1)
            assert abs(bdf_apply(s, seq, dt)[0] - exact) <= 1e-11 * max(1.0, abs(exact))

    def test_q2_difference_form_by_hand(self):
        s = bdf_coefficients(2)
        dt = 0.2
        u2, u1, u0 = np.array([3.0]), np.array([1.5]), np.array([-1.0])
        got = bdf_apply_as_differences(s, [u2, u1, u0], dt)
        want = 1.5 * (u2 - u1) / dt - 0.5 * (u1 - u0) / dt
        assert np.allclose(got, want, rtol=1e-14)

    def test_wrong_history_length(self):
        s = bdf_coefficients(3)
        with pytest.raises(ValueError):
            bdf_apply(s, [np.zeros(2)] * 3, 0.1)

    @settings(max_examples=60, deadline=None)
    @given(
        q=st.integers(1, 5),
        data=st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=60,
            max_size=60,
        ),
        dt=st.floats(1e-4, 1.0),
    )
    def test_difference_decomposition_property(self, q, data, dt):
        s = bdf_coefficients(q)
        arr = np.array(data).reshape(6, 10)
        seq = [arr[i] for i in range(q + 1)]
        a = bdf_apply(s, seq, dt)
        b = bdf_apply_as_differences(s, seq, dt)
        assert np.linalg.norm(a - b) <= 1e-13 * max(1.0, np.linalg.norm(a))

    def test_increment_form_matches(self):
        rng = np.random.default_rng(4)
        for q in range(1, 6):
            s = bdf_coefficients(q)
            seq = [rng.standard_normal(5) for _ in range(q + 1)]
            inc = seq[0] - seq[1]
            a = bdf_apply(s, seq, 0.05)
            b = bdf_increment_form(s, inc, seq[1:], 0.05)
            assert np.linalg.norm(a - b) <= 1e-12 * max(1.0, np.linalg.norm(a))


class TestBootstrapPlan:
    def test_q1_empty(self):
        assert bootstrap_plan(1, 0.01) == []

    def test_q2_single_bdf1_step(self):
        assert bootstrap_plan(2, 0.01) == [(1, 0.01, 1)]

    def test_q3_exponent_rule(self):
        plan = bootstrap_plan(3, 0.01)
        # order-2 integration at step 0.01^{3/2} = 1e-3, which divides 0.01
        assert plan == [(1, 0.001, 1), (2, 0.001, 19)]

    def test_steps_divide_dt_and_cover_window(self):
        for q in range(2, 6):
            dt = 0.037
            plan = bootstrap_plan(q, dt)
            s_min = plan[0][1]
            covered = 0
            for order, step, count in plan:
                assert order < q
                k = step / s_min
                assert abs(k - round(k)) < 1e-9
                covered += round(k) * count
            assert covered == round((q - 1) * dt / s_min)

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            bootstrap_plan(3, 1.5)
        with pytest.raises(ValueError):
            bootstrap_plan(3, 0.0)


class TestHistory:
    def test_ring_depth_and_order(self):
        h = History(2)
        h.push(np.array([0.0]), 0)
        h.push(np.array([1.0]), 1)
        h.push(np.array([2.0]), 2)
        states = h.states()
        assert len(states) == 2
        assert states[0][0] == 2.0  # newest first

    def test_rejects_nonconsecutive_indices(self):
        h = History(3)
        h.push(np.zeros(1), 0)
        with pytest.raises(ValueError):
            h.push(np.zeros(1), 2)


class TestExtrapolate:
    def test_polynomial_reproduction(self):
        # degree k-1 polynomials are extrapolated exactly by k points
        for k in range(1, 6):
            coef = np.arange(1, k + 1, dtype=np.float64)
            poly = np.polynomial.Polynomial(coef)
            pts = [np.array([poly(3.0 - j)]) for j in range(k)]  # newest first
            got = extrapolate(pts)
            assert abs(got[0] - poly(4.0)) < 1e-10

    def test_increment_form_consistent(self):
        rng = np.random.default_rng(8)
        pts = [rng.standard_normal(4) for _ in range(4)]
        a = extrapolate(pts) - pts[0]
        b = extrapolate_increment(pts)
        assert np.max(np.abs(a - b)) < 1e-12


def scalar_step_factory(scheme, lam, dt):
    """Newton callbacks for u' = lam u in increment form."""

    def make(hist_states):
        def residual(d):
            bdf_dt = bdf_increment_form(scheme, d, hist_states, dt)
            return bdf_dt - lam * (hist_states[0] + d)

        def jacobian(d):
            return np.array([[float(scheme.delta_f[0]) / dt - lam]])

        return residual, jacobian

    return make


class TestImplicitStep:
    def test_affine_residual_one_iteration(self):
        scheme = bdf_coefficients(1)
        h = History(1)
        h.push(np.array([1.0]), 0)
        make = scalar_step_factory(scheme, -1.0, 0.1)
        residual, jacobian = make(h.states())
        sol, iters = implicit_step(
            scheme, h, 0.1, residual, jacobian, NewtonConfig(tol=1e-12)
        )
        assert iters == 1
        assert abs(sol[0] - 1.0 / 1.1) < 1e-13

    def test_residual_evaluations_are_updates_plus_one(self):
        # u' = -u^3 by BDF-1 from u = 1: Newton needs several updates, and the
        # residual of each update's convergence check drives the next one
        scheme = bdf_coefficients(1)
        h = History(1)
        h.push(np.array([1.0]), 0)
        dt = 0.5
        calls = []

        def residual(d):
            calls.append(d.copy())
            return d / dt + (1.0 + d) ** 3

        def jacobian(d):
            return np.array([[1.0 / dt + 3.0 * (1.0 + d[0]) ** 2]])

        cfg = NewtonConfig(tol=1e-13, predictor="previous")
        sol, iters = implicit_step(scheme, h, dt, residual, jacobian, cfg)
        assert iters >= 2
        assert len(calls) == iters + 1
        # every residual is taken at a new iterate
        assert len({c[0] for c in calls}) == len(calls)
        assert abs((sol[0] - 1.0) / dt + sol[0] ** 3) <= 1e-13

    def test_nonconvergence_raises(self):
        scheme = bdf_coefficients(1)
        h = History(1)
        h.push(np.array([1.0]), 0)

        def residual(d):
            return np.array([1.0])  # unsatisfiable

        def jacobian(d):
            return np.array([[1.0]])

        from podrom.linalg import ConvergenceError

        with pytest.raises(ConvergenceError):
            implicit_step(scheme, h, 0.1, residual, jacobian, NewtonConfig(tol=1e-12, max_iter=3))


def integrate_scalar(q, lam, dt, t_end, u0=1.0, exact_start=True):
    """BDF-q on u' = lam u with exact starting values."""
    scheme = bdf_coefficients(q)
    m = round(t_end / dt)
    vals = [np.array([u0 * np.exp(lam * j * dt)]) for j in range(q)] if exact_start else None
    hist = History(q)
    for j, v in enumerate(vals):
        hist.push(v, j)
    make = scalar_step_factory(scheme, lam, dt)
    out = list(vals)
    for n in range(q, m + 1):
        residual, jacobian = make(hist.states())
        sol, _ = implicit_step(scheme, hist, dt, residual, jacobian, NewtonConfig(tol=1e-14))
        out.append(sol)
        hist.push(sol, n)
    return np.array(out)[:, 0]


class TestScalarConvergence:
    def test_orders_match_q(self):
        lam = -2.0
        for q in range(1, 6):
            errs = []
            for k in range(4, 10):
                dt = 2.0**-k
                u = integrate_scalar(q, lam, dt, 1.0)
                errs.append(abs(u[-1] - np.exp(lam)))
            slopes = np.polyfit(
                np.log([2.0**-k for k in range(4, 10)]), np.log(errs), 1
            )
            assert abs(slopes[0] - q) < 0.2, f"q={q}: slope {slopes[0]}"


class TestRunBootstrap:
    def test_values_land_on_grid(self):
        lam = -2.0
        q = 3
        dt = 0.01

        def stepper(scheme, history, step, t_new):
            make = scalar_step_factory(scheme, lam, step)
            residual, jacobian = make(history.states())
            sol, _ = implicit_step(scheme, history, step, residual, jacobian, NewtonConfig(1e-14))
            return sol

        starting = run_bootstrap(q, dt, np.array([1.0]), stepper)
        assert len(starting) == q - 1
        for j, v in enumerate(starting, start=1):
            exact = np.exp(lam * j * dt)
            # order-(q-1) at step dt^{q/(q-1)} gives error ~ dt^q per value
            assert abs(v[0] - exact) < 10 * dt**q
