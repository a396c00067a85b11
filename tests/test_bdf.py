"""BDF coefficients and stepping: exact rational identities, polynomial
exactness, the first-difference decomposition (property-tested), bootstrap
plans, the time-loop driver, and scalar convergence orders."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podrom import bdf
from podrom.bdf import (
    ETA,
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
    integrate,
    run_bootstrap,
)
from podrom.linalg import ConvergenceError


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


def scalar_callbacks(lam):
    """Driver callbacks for u' = lam u in increment form."""

    def residual(scheme, history, d, t, step):
        return bdf_increment_form(scheme, d, history, step) - lam * (history[0] + d)

    def jacobian(scheme, candidate, step):
        return np.array([[float(scheme.delta_f[0]) / step - lam]])

    return residual, jacobian


def tight(order, step):
    return NewtonConfig(tol=1e-14)


class TestImplicitStep:
    def test_affine_residual_one_iteration(self):
        scheme = bdf_coefficients(1)
        h = [np.array([1.0])]
        residual, jacobian = scalar_callbacks(-1.0)
        sol, iters = implicit_step(
            scheme,
            h,
            0.1,
            lambda d: residual(scheme, h, d, 0.1, 0.1),
            lambda d: jacobian(scheme, h[0] + d, 0.1),
            NewtonConfig(tol=1e-12),
        )
        assert iters == 1
        assert abs(sol[0] - 1.0 / 1.1) < 1e-13

    def test_residual_evaluations_are_updates_plus_one(self):
        # u' = -u^3 by BDF-1 from u = 1: Newton needs several updates, and the
        # residual of each update's convergence check drives the next one
        scheme = bdf_coefficients(1)
        h = [np.array([1.0])]
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
        h = [np.array([1.0])]

        def residual(d):
            return np.array([1.0])  # unsatisfiable

        def jacobian(d):
            return np.array([[1.0]])

        with pytest.raises(ConvergenceError):
            implicit_step(scheme, h, 0.1, residual, jacobian, NewtonConfig(tol=1e-12, max_iter=3))

    def test_history_must_match_order(self):
        scheme = bdf_coefficients(2)
        with pytest.raises(ValueError):
            implicit_step(scheme, [np.zeros(1)], 0.1, None, None, NewtonConfig(tol=1e-12))


def integrate_scalar(q, lam, dt, t_end, u0=1.0):
    """BDF-q on u' = lam u from the exact starting values u0 exp(lam t_j), j < q."""
    starting = [np.array([u0 * np.exp(lam * j * dt)]) for j in range(q)]
    states, _, _ = integrate(q, dt, t_end, starting, *scalar_callbacks(lam), tight)
    return np.array(states)[:, 0]


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
        residual, jacobian = scalar_callbacks(lam)

        def stepper(scheme, history, step, t_new):
            sol, _ = implicit_step(
                scheme,
                history,
                step,
                lambda d: residual(scheme, history, d, t_new, step),
                lambda d: jacobian(scheme, history[0] + d, step),
                NewtonConfig(1e-14),
            )
            return sol

        starting = run_bootstrap(q, dt, np.array([1.0]), stepper)
        assert len(starting) == q - 1
        for j, v in enumerate(starting, start=1):
            exact = np.exp(lam * j * dt)
            # order-(q-1) at step dt^{q/(q-1)} gives error ~ dt^q per value
            assert abs(v[0] - exact) < 10 * dt**q


class TestIntegrate:
    @pytest.mark.parametrize("q", range(1, 6))
    @pytest.mark.parametrize("t_end", [1.0, 0.4, 0.2])  # M = 10, M = 4, M = 2
    def test_implicit_steps_match_the_plan(self, monkeypatch, q, t_end):
        # perfbench's traced step count relies on this; the driver must also
        # reach implicit_step and run_bootstrap through the bdf module
        dt = 0.1
        calls = {"implicit_step": 0, "run_bootstrap": 0}
        for name in calls:
            original = getattr(bdf, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(bdf, name, counted)
        m = round(t_end / dt)
        boot = sum(count for _, _, count in bootstrap_plan(q, dt)) if q > 1 else 0
        main = max(0, m - q + 1)
        states, counts, boot_counts = integrate(
            q, dt, t_end, [np.array([1.0])], *scalar_callbacks(-2.0), tight
        )
        assert calls == {"implicit_step": boot + main, "run_bootstrap": int(q > 1)}
        assert (len(states), len(counts), len(boot_counts)) == (m + 1, main, boot)
        # with the q starting values given, nothing is bootstrapped
        calls.update(implicit_step=0, run_bootstrap=0)
        given = [np.array([np.exp(-2.0 * j * dt)]) for j in range(q)]
        states, counts, boot_counts = integrate(q, dt, t_end, given, *scalar_callbacks(-2.0), tight)
        assert calls == {"implicit_step": main, "run_bootstrap": 0}
        assert (len(states), len(counts), len(boot_counts)) == (m + 1, main, 0)

    @pytest.mark.parametrize(
        "t_fail, where",
        [(0.3, "BDF-2 step n = 3 at t = 0.3 (step size 0.1)"),
         (0.1, "BDF-1 bootstrap step at t = 0.1 (step size 0.1)")],
    )
    def test_failure_names_order_step_and_time(self, t_fail, where):
        residual, jacobian = scalar_callbacks(-2.0)

        def failing(scheme, history, d, t, step):
            if abs(t - t_fail) < 1e-12:
                return np.array([1.0])  # unsatisfiable
            return residual(scheme, history, d, t, step)

        with pytest.raises(ConvergenceError) as info:
            integrate(2, 0.1, 1.0, [np.array([1.0])], failing, jacobian, tight)
        assert str(info.value).startswith(where + ": Newton did not converge")
        assert info.value.residual == 1.0
        assert isinstance(info.value.__cause__, ConvergenceError)

    def test_rejects_wrong_number_of_starting_values(self):
        residual, jacobian = scalar_callbacks(-2.0)
        with pytest.raises(ValueError, match="expected 1 or 3 starting values"):
            integrate(3, 0.1, 1.0, [np.zeros(1)] * 2, residual, jacobian, tight)
