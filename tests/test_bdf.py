"""BDF coefficients and stepping: exact rational identities, polynomial
exactness, the first-difference decomposition (property-tested), bootstrap
plans, the time-loop driver, and scalar convergence orders."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podrom import bdf
from podrom.bdf import (
    MAX_NEWTON_ITER,
    UnsupportedOrderError,
    bdf_apply,
    bdf_coefficients,
    bdf_increment_form,
    bootstrap_plan,
    check_step,
    extrapolate_increment,
    implicit_step,
    integrate,
    run_bootstrap,
)
from podrom.harness import DEFAULT_T
from podrom.linalg import ConvergenceError


class TestCoefficients:
    def test_q1_backward_euler(self):
        s = bdf_coefficients(1)
        assert s.delta == (Fraction(1), Fraction(-1))

    def test_q2(self):
        s = bdf_coefficients(2)
        assert s.delta == (Fraction(3, 2), Fraction(-2), Fraction(1, 2))
        assert s.alpha == (Fraction(3, 2), Fraction(-1, 2))

    def test_q3(self):
        s = bdf_coefficients(3)
        assert s.delta == (Fraction(11, 6), Fraction(-3), Fraction(3, 2), Fraction(-1, 3))
        assert s.alpha == (Fraction(11, 6), Fraction(-7, 6), Fraction(1, 3))

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
        got = bdf_increment_form(s, u2 - u1, [u1, u0], dt)
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
        b = bdf_increment_form(s, seq[0] - seq[1], seq[1:], dt)
        assert np.linalg.norm(a - b) <= 1e-13 * max(1.0, np.linalg.norm(a))

    @pytest.mark.parametrize("dim", [1, 10, 4356])
    @pytest.mark.parametrize("q", range(1, 6))
    def test_list_and_view_histories_agree_bitwise(self, q, dim):
        # the time loop passes a negative-stride view of its trajectory; the
        # two kernels it calls give the same bits as for a list of copies
        rng = np.random.default_rng(10 * q + dim)
        trajectory = rng.standard_normal((q + 2, dim))
        view = trajectory[1 : q + 1][::-1]
        assert view.strides[0] < 0
        listed = [row.copy() for row in view]
        s = bdf_coefficients(q)
        inc = rng.standard_normal(dim)
        got = bdf_increment_form(s, inc, view, 0.01)
        assert np.array_equal(bdf_increment_form(s, inc, listed, 0.01), got)
        predictor = extrapolate_increment(view)
        assert np.array_equal(extrapolate_increment(listed), predictor)
        # and both agree with the sums written out state by state
        diffs = [listed[j - 1] - listed[j] for j in range(1, q)]
        loop = (s.alpha_f[0] * inc + sum(a * d for a, d in zip(s.alpha_f[1:], diffs))) / 0.01
        assert np.linalg.norm(got - loop) <= 1e-14 * np.linalg.norm(loop)
        weights = [(-1.0) ** j * math.comb(q, j + 1) for j in range(q)]
        loop = sum(w * (u - listed[0]) for w, u in zip(weights[1:], listed[1:]))
        assert np.linalg.norm(predictor - loop) <= 1e-14 * max(1.0, np.linalg.norm(loop))

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

    @pytest.mark.parametrize(
        "t_end, m, steps",
        [(DEFAULT_T, 16384, 1399), (0.8, 8192, 4886), (1e-3, 8, 3921)],
        ids=["desk-M16384", "reference-T0.8-M8192", "T1e-3-M8"],
    )
    def test_admits_the_largest_plans_the_project_builds(self, t_end, m, steps):
        # the plans are counted, never run
        check_step(5, t_end, m)
        assert sum(count for _, _, count in bootstrap_plan(5, t_end / m)) == steps
        assert steps <= bdf.MAX_BOOTSTRAP_STEPS


def extrapolate(history_states):
    """Polynomial extrapolation through k uniform history points to the next
    one, by the weights of ``extrapolate_increment``."""
    h = np.asarray(history_states, dtype=np.float64)
    return bdf.extrapolation_weights(len(h)) @ h


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


def scalar_linearisation(lam):
    """Time-loop callback for u' = lam u in increment form."""

    def linearisation(scheme, step):
        def at_step(history, t):
            def linearise(d):
                residual = bdf_increment_form(scheme, d, history, step) - lam * (history[0] + d)
                return residual, lambda rhs, tol: rhs / (float(scheme.delta_f[0]) / step - lam)

            return linearise

        return at_step

    return linearisation


def tight(order, step):
    return 1e-14


class TestImplicitStep:
    def test_affine_residual_one_iteration(self):
        scheme = bdf_coefficients(1)
        h = [np.array([1.0])]
        linearise = scalar_linearisation(-1.0)(scheme, 0.1)(h, 0.1)
        sol, iters = implicit_step(scheme, h, linearise, 1e-12)
        assert iters == 1
        assert abs(sol[0] - 1.0 / 1.1) < 1e-13

    def test_residual_evaluations_are_updates_plus_one(self):
        # u' = -u^3 by BDF-1 from u = 1: Newton needs several updates, and the
        # residual of each update's convergence check drives the next one
        scheme = bdf_coefficients(1)
        h = [np.array([1.0])]
        dt = 0.5
        calls = []

        def linearise(d):
            calls.append(d.copy())
            return d / dt + (1.0 + d) ** 3, lambda rhs, tol: rhs / (1.0 / dt + 3.0 * (1.0 + d) ** 2)

        # at BDF-1 the predictor is the previous value, so Newton starts from d = 0
        sol, iters = implicit_step(scheme, h, linearise, 1e-13)
        assert iters >= 2
        assert len(calls) == iters + 1
        # every residual is taken at a new iterate
        assert len({c[0] for c in calls}) == len(calls)
        assert abs((sol[0] - 1.0) / dt + sol[0] ** 3) <= 1e-13

    @pytest.mark.parametrize("updates", [1, 2, 3])
    def test_linearisations_are_updates_plus_one_and_jacobians_updates(self, updates):
        # u' = -u^3 by BDF-1 from u = 1, with the tolerance set between the
        # residuals of the iterates so that Newton stops after ``updates``
        scheme = bdf_coefficients(1)
        h = [np.array([1.0])]
        dt = 0.5

        def residual(d):
            return d / dt + (1.0 + d) ** 3

        def jacobian(d):
            return np.array([[1.0 / dt + 3.0 * (1.0 + d[0]) ** 2]])

        d, norms = np.zeros(1), []
        for _ in range(updates + 1):
            norms.append(abs(residual(d)[0]))
            d = d - np.linalg.solve(jacobian(d), residual(d))
        tol = np.sqrt(norms[updates] * norms[updates - 1])
        counts = {"linearise": 0, "jacobian": 0}

        def linearise(d):
            counts["linearise"] += 1

            def solve(rhs, tol):
                counts["jacobian"] += 1
                return np.linalg.solve(jacobian(d), rhs)

            return residual(d), solve

        # at BDF-1 the predictor is the previous value, as in the iterates above
        _, iters = implicit_step(scheme, h, linearise, tol)
        assert iters == updates
        assert counts == {"linearise": updates + 1, "jacobian": updates}

    def test_nonconvergence_raises(self):
        scheme = bdf_coefficients(1)
        h = [np.array([1.0])]
        calls = []

        def linearise(d):
            calls.append(d)
            return np.array([1.0]), lambda rhs, tol: rhs  # unsatisfiable

        with pytest.raises(ConvergenceError, match=f"in {MAX_NEWTON_ITER} iterations"):
            implicit_step(scheme, h, linearise, 1e-12)
        assert len(calls) == MAX_NEWTON_ITER + 1

    def test_history_must_match_order(self):
        scheme = bdf_coefficients(2)
        with pytest.raises(ValueError):
            implicit_step(scheme, [np.zeros(1)], None, 1e-12)


def integrate_scalar(q, lam, dt, t_end, u0=1.0):
    """BDF-q on u' = lam u from the exact starting values u0 exp(lam t_j), j < q."""
    starting = [np.array([u0 * np.exp(lam * j * dt)]) for j in range(q)]
    states, _, _ = integrate(q, dt, t_end, starting, scalar_linearisation(lam), tight)
    return states[:, 0]


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


def dict_bootstrap(q, dt, u0, linearisation, tol):
    """The dict-based bootstrap loop ``run_bootstrap`` replaced, kept as its
    oracle: states keyed by integer multiples of the finest step, each
    history gathered from the dict, one implicit step at a time."""
    plan = bootstrap_plan(q, dt)
    if not plan:
        return [], []
    s_min = plan[0][1]
    states = {0: np.asarray(u0, dtype=np.float64)}
    t_units, counts = 0, []
    for order, step, count in plan:
        k = round(step / s_min)
        scheme = bdf_coefficients(order)
        at_step = linearisation(scheme, step)
        for _ in range(count):
            history = np.array([states[t_units - j * k] for j in range(order)])
            t_units += k
            sol, iters = implicit_step(scheme, history, at_step(history, t_units * s_min), tol(order, step))
            states[t_units] = sol
            counts.append(iters)
    k_dt = round(dt / s_min)
    return [states[j * k_dt] for j in range(1, q)], counts


class TestRunBootstrap:
    def test_values_land_on_grid(self):
        lam = -2.0
        q = 3
        dt = 0.01
        starting, counts = run_bootstrap(q, dt, np.array([1.0]), scalar_linearisation(lam), tight)
        assert len(starting) == q - 1
        assert len(counts) == sum(count for _, _, count in bootstrap_plan(q, dt))
        for j, v in enumerate(starting, start=1):
            exact = np.exp(lam * j * dt)
            # order-(q-1) at step dt^{q/(q-1)} gives error ~ dt^q per value
            assert abs(v[0] - exact) < 10 * dt**q

    @pytest.mark.parametrize("dt", [0.05, 0.0125])
    @pytest.mark.parametrize("q", range(2, 6))
    def test_matches_the_dict_loop(self, q, dt):
        # u' = -2 u + sin(3 t) + u^2 / 4 per component, so the times matter,
        # at a tolerance that takes one to three Newton updates per step
        def linearisation(scheme, step):
            def at_step(history, t):
                def linearise(d):
                    u = history[0] + d
                    residual = bdf_increment_form(scheme, d, history, step) + 2.0 * u - np.sin(3.0 * t) - u**2 / 4

                    def solve(rhs, tol):
                        return rhs / (float(scheme.delta_f[0]) / step + 2.0 - u / 2)

                    return residual, solve

                return linearise

            return at_step

        def tol(order, step):
            return 1e-13

        u0 = np.array([1.0, -0.5])
        got, got_counts = run_bootstrap(q, dt, u0, linearisation, tol)
        want, want_counts = dict_bootstrap(q, dt, u0, linearisation, tol)
        assert got_counts == want_counts
        assert len(got) == len(want) == q - 1
        # a segment's times are n * step, the dict loop's t_units * s_min;
        # the two may differ in the last bit, which moves the values by rounding
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


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
            q, dt, t_end, [np.array([1.0])], scalar_linearisation(-2.0), tight
        )
        assert calls == {"implicit_step": boot + main, "run_bootstrap": int(q > 1)}
        assert (len(states), len(counts), len(boot_counts)) == (m + 1, main, boot)
        # one preallocated trajectory, also when M < q - 1 cuts the start
        assert isinstance(states, np.ndarray) and states.shape == (m + 1, 1)
        # with the q starting values given, nothing is bootstrapped
        calls.update(implicit_step=0, run_bootstrap=0)
        given = [np.array([np.exp(-2.0 * j * dt)]) for j in range(q)]
        states, counts, boot_counts = integrate(q, dt, t_end, given, scalar_linearisation(-2.0), tight)
        assert calls == {"implicit_step": main, "run_bootstrap": 0}
        assert (len(states), len(counts), len(boot_counts)) == (m + 1, main, 0)
        assert isinstance(states, np.ndarray) and states.shape == (m + 1, 1)
        assert np.array_equal(states[:q], given[: m + 1])

    @pytest.mark.parametrize("q", range(1, 6))
    def test_callback_levels_are_called_once_per_run_step_and_candidate(self, q):
        # per integrate call (one per bootstrap segment, one for the main
        # loop), per implicit step, and per Newton candidate: one per update
        # plus the predictor of each step
        dt, t_end = 0.1, 1.0
        calls = {"run": [], "step": 0, "linearise": 0}
        model = scalar_linearisation(-2.0)

        def linearisation(scheme, step):
            calls["run"].append((scheme.q, step))
            at_step = model(scheme, step)

            def counted_step(history, t):
                calls["step"] += 1
                linearise = at_step(history, t)

                def counted(d):
                    calls["linearise"] += 1
                    return linearise(d)

                return counted

            return counted_step

        _, counts, boot_counts = integrate(q, dt, t_end, [np.array([1.0])], linearisation, tight)
        plan = bootstrap_plan(q, dt)
        assert len(calls["run"]) == len(plan) + 1
        assert calls["run"] == [(order, step) for order, step, _ in plan] + [(q, dt)]
        steps = len(counts) + len(boot_counts)
        assert steps == sum(count for _, _, count in plan) + round(t_end / dt) - q + 1
        assert calls["step"] == steps
        assert calls["linearise"] == sum(counts) + sum(boot_counts) + steps

    @pytest.mark.parametrize(
        "t_fail, where",
        [(0.3, "BDF-2 step n = 3 at t = 0.3 (step size 0.1)"),
         (0.1, "bootstrap BDF-1 step n = 1 at t = 0.1 (step size 0.1)")],
    )
    def test_failure_names_order_step_and_time(self, t_fail, where):
        def failing(scheme, step):
            at_step = scalar_linearisation(-2.0)(scheme, step)

            def failing_step(history, t):
                linearise = at_step(history, t)
                if abs(t - t_fail) < 1e-12:
                    return lambda d: (np.array([1.0]), linearise(d)[1])  # unsatisfiable
                return linearise

            return failing_step

        with pytest.raises(ConvergenceError) as info:
            integrate(2, 0.1, 1.0, [np.array([1.0])], failing, tight)
        assert str(info.value).startswith(where + ": Newton did not converge")
        assert info.value.residual == 1.0
        assert isinstance(info.value.__cause__, ConvergenceError)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan, np.inf])
    @pytest.mark.parametrize("n_starting", [1, 3])
    def test_rejects_a_tolerance_that_is_not_positive(self, bad, n_starting):
        # bootstrapped or given the q starting values, no step is taken
        calls = []

        def linearisation(scheme, step):
            calls.append(step)
            return scalar_linearisation(-2.0)(scheme, step)

        starting = [np.array([1.0])] * n_starting
        with pytest.raises(ValueError, match="Newton tolerance must be positive"):
            integrate(3, 0.1, 1.0, starting, linearisation, lambda order, step: bad)
        assert calls == []

    @pytest.mark.parametrize(
        "q, dt, t_end, message",
        [
            (2, 1.0, 4.0, "got T = 4.0 and M = 4, T/M = 1"),  # given both starting values
            (3, 0.1, 0.0, "got T = 0.0 and M = 0, T/M = nan"),
            (6, 0.1, 1.0, "BDF order must be in 1..5, got 6"),
            # a bootstrap plan that cannot run, counted but never run or allocated
            (5, 1.25e-13, 1e-12, "BDF-5 with T = 1e-12 and M = 8 plans 113147289155 bootstrap steps, above the bound of 100000"),
            (5, 1.25e-301, 1e-300, "BDF-5 with T = 1e-300 and M = 8 plans a bootstrap substep that is not a positive normal float"),
            (2, 1e-310, 1e-310, "BDF-2 with T = 1e-310 and M = 1 plans a bootstrap substep that is not a positive normal float"),
        ],
    )
    def test_rejects_a_grid_that_check_step_rejects(self, q, dt, t_end, message):
        calls = []

        def linearisation(scheme, step):
            calls.append(step)
            return scalar_linearisation(-2.0)(scheme, step)

        for starting in ([np.array([1.0])], [np.array([1.0])] * q):
            with pytest.raises(ValueError, match=re.escape(message)):
                integrate(q, dt, t_end, starting, linearisation, tight)
        assert calls == []

    def test_rejects_wrong_number_of_starting_values(self):
        with pytest.raises(ValueError, match="expected 1 or 3 starting values"):
            integrate(3, 0.1, 1.0, [np.zeros(1)] * 2, scalar_linearisation(-2.0), tight)
