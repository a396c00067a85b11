"""BDF coefficients and stepping: exact rational identities, polynomial
exactness, the first-difference decomposition (property-tested), bootstrap
plans, the time-loop driver, its model contract on both real models, and
scalar convergence orders."""

import math
import re
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ContractRecorder
from podrom import bdf, fom, mesh_fem, pod, rom
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
    newton_tolerance,
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

    def test_one_scheme_per_order(self):
        for q in range(1, 6):
            assert bdf_coefficients(q) is bdf_coefficients(q)

    def test_float_weights_are_read_only(self):
        # the cache hands one scheme to every caller, so none may write to it
        s = bdf_coefficients(3)
        for weights in (s.delta_f, s.alpha_f):
            with pytest.raises(ValueError, match="read-only"):
                weights[0] = 0.0
        assert s.delta_f[0] == 11 / 6 and s.alpha_f[0] == 11 / 6

    def test_unsupported_orders_raise_on_every_call(self):
        for q in (0, 6):
            for _ in range(2):
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
        # a negative-stride view of an oldest-first trajectory, as a caller
        # may pass, gives the two kernels' same bits as a list of copies
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
        # q = 1 plans nothing, but only for a step check_step accepts
        with pytest.raises(ValueError, match="T must be positive and finite, got 0.0"):
            bootstrap_plan(1, 0.0)

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
                return residual, lambda rhs, tol, reuse=False: rhs / (float(scheme.delta_f[0]) / step - lam)

            return extrapolate_increment(history), linearise

        return at_step

    return linearisation


#: a fixed Newton rule, far below the errors the tests measure
TIGHT = 1e-14


class TestImplicitStep:
    def test_affine_residual_one_iteration(self):
        scheme = bdf_coefficients(1)
        h = [np.array([1.0])]
        predictor, linearise = scalar_linearisation(-1.0)(scheme, 0.1)(h, 0.1)
        sol, iters = implicit_step(scheme, h, predictor, linearise, 1e-12)
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
            slope = 1.0 / dt + 3.0 * (1.0 + d) ** 2
            return d / dt + (1.0 + d) ** 3, lambda rhs, tol, reuse=False: rhs / slope

        # at BDF-1 the predictor is the previous value, so Newton starts from d = 0
        sol, iters = implicit_step(scheme, h, extrapolate_increment(h), linearise, 1e-13)
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

            def solve(rhs, tol, reuse=False):
                counts["jacobian"] += 1
                return np.linalg.solve(jacobian(d), rhs)

            return residual(d), solve

        # at BDF-1 the predictor is the previous value, as in the iterates above
        _, iters = implicit_step(scheme, h, extrapolate_increment(h), linearise, tol)
        assert iters == updates
        assert counts == {"linearise": updates + 1, "jacobian": updates}

    def test_nonconvergence_raises(self):
        scheme = bdf_coefficients(1)
        h = [np.array([1.0])]
        calls = []

        def linearise(d):
            calls.append(d)
            return np.array([1.0]), lambda rhs, tol, reuse=False: rhs  # unsatisfiable

        with pytest.raises(ConvergenceError, match=f"in {MAX_NEWTON_ITER} iterations"):
            implicit_step(scheme, h, extrapolate_increment(h), linearise, 1e-12)
        # the first update does not lower the residual: the discard linearises
        # the predictor again
        assert len(calls) == MAX_NEWTON_ITER + 2

    def test_non_finite_residual_norm_stops_at_once(self):
        # the update leaves finite entries whose squares overflow, as nu 1e300
        # does in the FOM: one solve, then the failure names the norm
        solves = []

        def linearise(d):
            def solve(rhs, tol, reuse=False):
                solves.append(rhs)
                return np.array([1e200])

            return np.array([1.0 if d[0] == 0.0 else 1e200]), solve

        h = [np.zeros(1)]
        with np.errstate(over="ignore"), pytest.raises(ConvergenceError) as exc:
            implicit_step(bdf_coefficients(1), h, extrapolate_increment(h), linearise, 1e-12)
        assert len(solves) == 1
        assert exc.value.message == "Newton residual norm is not finite at update 1"
        assert exc.value.residual == np.inf

        def linearisation(scheme, step):
            return lambda history, t: (extrapolate_increment(history), linearise)

        solves.clear()
        with np.errstate(over="ignore"), pytest.raises(ConvergenceError) as exc:
            integrate(1, 0.5, 1.0, [np.zeros(1)], linearisation, TIGHT)
        assert len(solves) == 1
        assert exc.value.message == (
            "BDF-1 step n = 1 at t = 0.5 (step size 0.5): Newton residual norm is not finite at update 1"
        )

    def test_a_predictor_within_tolerance_takes_no_update(self):
        # the residual at the predictor is tested before any update: a step
        # whose predictor meets the tolerance returns it with 0 updates and
        # asks for no solve
        solves = []

        def linearise(d):
            def solve(rhs, tol, reuse=False):
                solves.append(rhs)
                return rhs

            return np.array([1e-13]), solve

        h = np.array([[3.0], [2.0]])
        sol, iters = implicit_step(bdf_coefficients(2), h, extrapolate_increment(h), linearise, 1e-12)
        assert (sol.tolist(), iters, solves) == ([4.0], 0, [])

    def test_only_the_first_update_of_a_step_asks_for_reuse(self):
        # u' = -u^3 by BDF-3, bootstrapped: in every step, of every segment,
        # the first update asks for the held factor and no later one does
        asked = []

        def linearisation(scheme, step):
            c0 = float(scheme.delta_f[0]) / step

            def at_step(history, t):
                flags = []
                asked.append(flags)

                def linearise(d):
                    u = history[0] + d

                    def solve(rhs, tol, reuse=False):
                        flags.append(reuse)
                        return rhs / (c0 + 3.0 * u**2)

                    return bdf_increment_form(scheme, d, history, step) + u**3, solve

                return extrapolate_increment(history), linearise

            return at_step

        _, counts, boot_counts = integrate(3, 0.25, 2.0, [np.array([1.0])], linearisation, TIGHT)
        assert [len(flags) for flags in asked] == boot_counts + counts
        assert max(counts) >= 2
        assert all(flags == [True] + [False] * (len(flags) - 1) for flags in asked)

    @pytest.mark.parametrize("held, discarded", [(-1.0, True), (0.5, False)])
    def test_a_held_update_that_does_not_lower_the_residual_is_discarded(self, held, discarded):
        # BDF-1 on u' = -u^3 from u = 1, with a model whose held update is
        # ``held`` times the fresh one. Of the wrong sign it raises the
        # residual: the step discards it and goes on from the predictor with
        # fresh updates, so its iterates are the all-fresh path's, one update
        # later. Half an update lowers the residual and is kept
        dt = 0.5

        def run(scale):
            iterates = []

            def linearise(d):
                iterates.append(d.copy())

                def solve(rhs, tol, reuse=False):
                    return (scale if reuse else 1.0) * rhs / (1.0 / dt + 3.0 * (1.0 + d) ** 2)

                return d / dt + (1.0 + d) ** 3, solve

            h = [np.array([1.0])]
            sol, iters = implicit_step(bdf_coefficients(1), h, extrapolate_increment(h), linearise, 1e-13)
            return sol, iters, iterates

        fresh_sol, fresh_iters, fresh_iterates = run(1.0)
        assert len(fresh_iterates) == fresh_iters + 1
        sol, iters, iterates = run(held)
        if discarded:
            # the discard linearises the predictor again: one linearisation more
            assert iters == fresh_iters + 1 and len(iterates) == iters + 2
            assert np.array_equal(iterates[2:], fresh_iterates)
            assert np.array_equal(sol, fresh_sol)
        else:
            assert len(iterates) == iters + 1
            assert np.array_equal(iterates[1], 0.5 * fresh_iterates[1])
            assert abs((sol[0] - 1.0) / dt + sol[0] ** 3) <= 1e-13

    def test_a_solve_holds_until_the_next_linearise(self):
        # a model may keep a candidate's state in buffers of its run (the ROM
        # writes each candidate's slope into one block), so a ``solve`` is
        # valid only until the model's next ``linearise``: this model's solve
        # raises when a later linearise ran. BDF-1 on u' = -u^3 with a held
        # update of the wrong sign takes the discard path, which linearises
        # the predictor again instead of reusing its first solve
        dt, made = 0.5, []

        def linearise(d):
            made.append(d.copy())
            own = len(made)

            def solve(rhs, tol, reuse=False):
                if len(made) != own:
                    raise AssertionError(f"solve of linearisation {own} used after linearisation {len(made)}")
                return (-1.0 if reuse else 1.0) * rhs / (1.0 / dt + 3.0 * (1.0 + d) ** 2)

            return d / dt + (1.0 + d) ** 3, solve

        h = [np.array([1.0])]
        sol, iters = implicit_step(bdf_coefficients(1), h, extrapolate_increment(h), linearise, 1e-13)
        assert len(made) == iters + 2 and np.array_equal(made[2], made[0])
        assert abs((sol[0] - 1.0) / dt + sol[0] ** 3) <= 1e-13

    def test_history_must_match_order(self):
        scheme = bdf_coefficients(2)
        with pytest.raises(ValueError):
            implicit_step(scheme, [np.zeros(1)], None, None, 1e-12)


def integrate_scalar(q, lam, dt, t_end, u0=1.0):
    """BDF-q on u' = lam u from the exact starting values u0 exp(lam t_j), j < q."""
    starting = [np.array([u0 * np.exp(lam * j * dt)]) for j in range(q)]
    states, _, _ = integrate(q, dt, t_end, starting, scalar_linearisation(lam), TIGHT)
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


def dict_bootstrap(q, dt, u0, linearisation, newton_rule):
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
            tol = newton_tolerance(newton_rule, order, step)
            sol, iters = implicit_step(scheme, history, *at_step(history, t_units * s_min), tol)
            states[t_units] = sol
            counts.append(iters)
    k_dt = round(dt / s_min)
    return [states[j * k_dt] for j in range(1, q)], counts


class TestRunBootstrap:
    def test_values_land_on_grid(self):
        lam = -2.0
        q = 3
        dt = 0.01
        starting, counts = run_bootstrap(q, dt, np.array([1.0]), scalar_linearisation(lam), TIGHT)
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

                    def solve(rhs, tol, reuse=False):
                        return rhs / (float(scheme.delta_f[0]) / step + 2.0 - u / 2)

                    return residual, solve

                return extrapolate_increment(history), linearise

            return at_step

        u0 = np.array([1.0, -0.5])
        got, got_counts = run_bootstrap(q, dt, u0, linearisation, 1e-13)
        want, want_counts = dict_bootstrap(q, dt, u0, linearisation, 1e-13)
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
            q, dt, t_end, [np.array([1.0])], scalar_linearisation(-2.0), TIGHT
        )
        assert calls == {"implicit_step": boot + main, "run_bootstrap": int(q > 1)}
        assert (len(states), len(counts), len(boot_counts)) == (m + 1, main, boot)
        # one preallocated trajectory, also when M < q - 1 cuts the start
        assert isinstance(states, np.ndarray) and states.shape == (m + 1, 1)
        # with the q starting values given, nothing is bootstrapped
        calls.update(implicit_step=0, run_bootstrap=0)
        given = [np.array([np.exp(-2.0 * j * dt)]) for j in range(q)]
        states, counts, boot_counts = integrate(q, dt, t_end, given, scalar_linearisation(-2.0), TIGHT)
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
                predictor, linearise = at_step(history, t)

                def counted(d):
                    calls["linearise"] += 1
                    return linearise(d)

                return predictor, counted

            return counted_step

        _, counts, boot_counts = integrate(q, dt, t_end, [np.array([1.0])], linearisation, TIGHT)
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
                predictor, linearise = at_step(history, t)
                if abs(t - t_fail) < 1e-12:
                    return predictor, lambda d: (np.array([1.0]), linearise(d)[1])  # unsatisfiable
                return predictor, linearise

            return failing_step

        with pytest.raises(ConvergenceError) as info:
            integrate(2, 0.1, 1.0, [np.array([1.0])], failing, TIGHT)
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
        with pytest.raises(ValueError, match="newton_rule must be"):
            integrate(3, 0.1, 1.0, starting, linearisation, bad)
        assert calls == []

    @pytest.mark.parametrize(
        "q, dt, t_end, message",
        [
            (2, 1.0, 4.0, "got T = 4.0 and M = 4, T/M = 1"),  # given both starting values
            (3, 0.1, 0.0, "T must be positive and finite, got 0.0"),
            # at q = 1 too, a T that is not positive and finite and an M below 1
            (1, 0.1, 0.0, "T must be positive and finite, got 0.0"),
            (1, 0.1, -1.0, "T must be positive and finite, got -1.0"),
            (1, 0.1, np.inf, "T must be positive and finite, got inf"),
            (1, 0.1, np.nan, "T must be positive and finite, got nan"),
            (1, 0.1, 1e-14, "M must be at least 1, got 0"),  # shorter than half a step
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
                integrate(q, dt, t_end, starting, linearisation, TIGHT)
        assert calls == []

    @pytest.mark.parametrize("q", [1, 3])
    def test_rejects_a_step_whose_window_overflows(self, q):
        # a finite T over a tiny dt: T/dt overflows, which is not an M of 0
        calls = []

        def linearisation(scheme, step):
            calls.append(step)
            return scalar_linearisation(-2.0)(scheme, step)

        for starting in ([np.array([1.0])], [np.array([1.0])] * q):
            with pytest.raises(ValueError, match=re.escape("dt = 1e-300 is too small for T = 10000000000.0")):
                integrate(q, 1e-300, 1e10, starting, linearisation, TIGHT)
            with pytest.raises(ValueError, match="T must be positive and finite, got inf"):
                integrate(q, 1e-300, np.inf, starting, linearisation, TIGHT)
        assert calls == []

    def test_rejects_wrong_number_of_starting_values(self):
        with pytest.raises(ValueError, match="expected 1 or 3 starting values"):
            integrate(3, 0.1, 1.0, [np.zeros(1)] * 2, scalar_linearisation(-2.0), TIGHT)

    @pytest.mark.parametrize("q", range(1, 6))
    def test_histories_are_newest_first_forward_slices_of_the_states(self, q):
        # the loop stores its trajectory newest first and returns the
        # reversed view: the states come back oldest first, and each
        # main-loop history is a C-contiguous forward slice of them
        dt, t_end = 0.1, 1.0
        seen = []
        model = scalar_linearisation(-2.0)

        def linearisation(scheme, step):
            at_step = model(scheme, step)

            def recording(history, t):
                seen.append((history, t))
                return at_step(history, t)

            return recording

        u0 = np.array([1.0, -0.5, 2.0])
        states, counts, _ = integrate(q, dt, t_end, [u0], linearisation, TIGHT)
        assert states.shape == (11, 3) and np.array_equal(states[0], u0)
        main = seen[len(seen) - len(counts) :]
        assert [round(t / dt) for _, t in main] == list(range(q, 11))
        for history, t in main:
            n = round(t / dt)
            assert history.flags.c_contiguous and np.shares_memory(history, states)
            assert np.array_equal(history, states[n - q : n][::-1])
        # in time order: each state is exp(-2 t) u0 within BDF-1's 4% at this
        # step, while the reversed order would be off by up to 86%
        exact = np.exp(-2.0 * dt * np.arange(11))[:, None] * u0
        assert np.all(np.abs(states - exact) <= 0.05 * np.abs(u0))

    @pytest.mark.parametrize("q", range(1, 6))
    def test_the_newest_first_loop_steps_as_over_reversed_views(self, q):
        # the same steps taken one by one over an oldest-first array, each
        # history its negative-stride reversed view, give the same bits
        dt, t_end, m = 0.1, 1.0, 10
        given = [np.exp(-2.0 * j * dt) * np.array([1.0, -0.5, 2.0]) for j in range(q)]
        got, _, _ = integrate(q, dt, t_end, given, scalar_linearisation(-2.0), TIGHT)
        scheme = bdf_coefficients(q)
        at_step = scalar_linearisation(-2.0)(scheme, dt)
        want = np.empty((m + 1, 3))
        want[:q] = given
        for n in range(q, m + 1):
            history = want[n - q : n][::-1]
            want[n], _ = implicit_step(scheme, history, *at_step(history, n * dt), TIGHT)
        assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def sweep_fom():
    """The FOM run of the benchmark's sweep: the desk protocol (Brusselator,
    P2, BDF-5 on M 128) on n_side 8."""
    space = mesh_fem.build_space(mesh_fem.build_mesh(8), 2)
    system = fom.brusselator_system(0.002)
    return fom.fom_integrate(system, space, fom.perturbed_equilibrium(space), DEFAULT_T / 128, DEFAULT_T, 5)


@pytest.fixture(scope="module")
def sweep_rom(sweep_fom):
    """The set-up of the benchmark's sweep: ``sweep_fom``'s snapshots, their
    H10 POD with the zero-after-mean anchor, its ROM at r 10 and that ROM's
    initial coordinates."""
    snaps, basis = pod.build_pod_basis(sweep_fom, 1.0, pod.W0_ZERO, pod.H10)
    romsys = rom.rom_assemble(basis, 10, sweep_fom.space, fom.brusselator_system(0.002), snaps.mean)
    return romsys, rom.initial_coords(romsys, sweep_fom.states[0])


def held_throughout(romsys, scheme, step):
    """The ROM's callback with every update applying one fixed inverse
    Jacobian: the ROM's fresh inverse at the run's first update, read off
    column by column and never refined, serves the whole segment."""
    at_step = rom.rom_linearisation(romsys, scheme, step)
    inverse = []

    def step_of(history, t):
        predictor, linearise = at_step(history, t)

        def held(d):
            residual, solve = linearise(d)

            def fixed(rhs, tol, reuse=False):
                if not inverse:
                    inverse.append(np.column_stack([solve(e, tol) for e in np.eye(len(rhs))]))
                return inverse[0].dot(rhs)

            return residual, fixed

        return predictor, held

    return step_of


def fresh_throughout(romsys, scheme, step):
    """The ROM's callback with every update forming a fresh inverse Jacobian
    at its own candidate."""
    at_step = rom.rom_linearisation(romsys, scheme, step)

    def step_of(history, t):
        predictor, linearise = at_step(history, t)

        def fresh(d):
            residual, solve = linearise(d)
            return residual, lambda rhs, tol, reuse=False: solve(rhs, tol)

        return predictor, fresh

    return step_of


class TestHeldFactor:
    def test_the_bdf1_sweep_run_refreshes_and_converges(self, sweep_rom):
        # BDF-1 on M 32 (a step of 0.22) of the benchmark's sweep: a fixed
        # inverse held over the whole segment stops serving at the last step,
        # while the ROM's rule, which refines its held inverse at each step's
        # first update, converges there
        romsys, coords0 = sweep_rom
        dt = DEFAULT_T / 32
        held = partial(held_throughout, romsys)
        with pytest.raises(ConvergenceError, match=re.escape("BDF-1 step n = 32 at t = 7.09064")):
            integrate(1, dt, DEFAULT_T, [coords0], held, "step-coupled")
        rt = rom.rom_integrate(romsys, 1, dt, DEFAULT_T, ("bootstrap", coords0))
        assert rt.coords.shape == (33, romsys.r) and np.all(np.isfinite(rt.coords))
        assert rt.newton_iteration_counts.max() > 2

    def test_refreshes_fall_below_updates(self, sweep_rom, monkeypatch):
        # the benchmark's online run (q 5, M 512) on the sweep's ROM: each of
        # its runs (the bootstrap segments and the main loop) forms one
        # inverse Jacobian by a dense solve, at its first update, and
        # refines it at every later step, so far fewer than there are updates
        romsys, coords0 = sweep_rom
        formed = []
        solve = rom.dense_lu_solve
        monkeypatch.setattr(rom, "dense_lu_solve", lambda a, b: formed.append(a) or solve(a, b))
        rt = rom.rom_integrate(romsys, 5, DEFAULT_T / 512, DEFAULT_T, ("bootstrap", coords0))
        updates = int(rt.newton_iteration_counts.sum() + rt.bootstrap_iteration_counts.sum())
        assert len(formed) == len(bootstrap_plan(5, DEFAULT_T / 512)) + 1
        assert 0 < len(formed) < updates

    def test_held_updates_end_as_near_the_tight_solution_as_fresh_ones(self, sweep_rom):
        # BDF-1 on M 32 under the step-coupled rule, whose tolerance bounds
        # the residual, not the error: the refined held inverse leaves the
        # run within 2x the all-fresh path's distance from the solution at
        # a Newton tolerance of 1e-13
        romsys, coords0 = sweep_rom
        dt = DEFAULT_T / 32
        tight = rom.rom_integrate(romsys, 1, dt, DEFAULT_T, ("bootstrap", coords0), 1e-13).coords
        held = rom.rom_integrate(romsys, 1, dt, DEFAULT_T, ("bootstrap", coords0)).coords
        fresh, _, _ = integrate(1, dt, DEFAULT_T, [coords0], partial(fresh_throughout, romsys), "step-coupled")
        assert np.abs(held - tight).max() <= 2.0 * np.abs(fresh - tight).max()


def extrapolation_rounding_bound(history):
    """Componentwise bound on the distance between two roundings of the
    predictor P = sum_{j >= 1} w_j (h_j - h_0): ``bdf.extrapolate_increment``
    and the ROM's product sum_i v_i (h_i - h_{i+1}), v_i = -sum_{j > i} w_j.
    Each of the q - 1 terms of either sum takes one rounding in its
    difference and one in its product, and the sum q - 2 more (the zero
    entries of the ROM's operator add exact zeros), so each lies within
    gamma_q = q u / (1 - q u) of its absolute terms' sum from P."""
    h = np.asarray(history)
    q = len(h)
    w = bdf.extrapolation_weights(q)
    v = -np.cumsum(w[:0:-1])[::-1]
    u = np.finfo(float).eps / 2
    gamma = q * u / (1 - q * u)
    direct = np.abs(w[1:]).dot(np.abs(h[1:] - h[0]))
    by_parts = np.abs(v).dot(np.abs(h[:-1] - h[1:]))
    return gamma * (direct + by_parts)


class TestPredictor:
    """The predictor each model's ``at_step`` hands to ``implicit_step``."""

    def histories(self, q, states, rng):
        """Newest-first histories of q states: three random ones, the size
        of ``states``' entries, and every fifth window of ``states``."""
        scale = np.abs(states).max()
        yield from scale * rng.standard_normal((3, q, states.shape[1]))
        for n in range(q, len(states), 5):
            yield states[n - q : n][::-1]

    @pytest.mark.parametrize("q", range(1, 6))
    def test_the_rom_product_is_the_extrapolation_to_rounding(self, sweep_rom, q):
        romsys, coords0 = sweep_rom
        coords = rom.rom_integrate(romsys, 5, DEFAULT_T / 128, DEFAULT_T, ("bootstrap", coords0)).coords
        at_step = rom.rom_linearisation(romsys, bdf_coefficients(q), DEFAULT_T / 128)
        for history in self.histories(q, coords, np.random.default_rng(q)):
            got, want = at_step(history, 0.5)[0], extrapolate_increment(history)
            assert np.all(np.abs(got - want) <= extrapolation_rounding_bound(history))
            if q == 1:
                assert np.array_equal(got, np.zeros(romsys.r))

    @pytest.mark.parametrize("q", range(1, 6))
    def test_the_fom_predictor_is_the_extrapolation(self, sweep_fom, q):
        op = fom.FomOperator(fom.brusselator_system(0.002), sweep_fom.space)
        at_step = op.linearisation(bdf_coefficients(q), DEFAULT_T / 128)
        for history in self.histories(q, sweep_fom.stacked(), np.random.default_rng(q)):
            assert np.array_equal(at_step(history, 0.5)[0], extrapolate_increment(history))


def discarding_linearisation(scheme, step):
    """u' = -u^3 with a held update of the wrong sign: every step whose
    predictor misses the tolerance discards its first update."""
    c0 = float(scheme.delta_f[0]) / step

    def at_step(history, t):
        def linearise(d):
            u = history[0] + d

            def solve(rhs, tol, reuse=False):
                return (-1.0 if reuse else 1.0) * rhs / (c0 + 3.0 * u**2)

            return bdf_increment_form(scheme, d, history, step) + u**3, solve

        return extrapolate_increment(history), linearise

    return at_step


class TestModelContract:
    """Both real models keep ``implicit_step``'s contract over a whole
    bootstrapped run, as ``ContractRecorder`` checks it; a stub model that
    discards shows the recorder accepts the discard path."""

    @pytest.mark.parametrize("model", ["rom", "fom", "discarding stub"])
    def test_a_run_keeps_the_driver_contract(self, sweep_fom, model):
        # the desk protocol's grid (BDF-5, M 128), for the ROM at r 4 of its
        # n_side 8 basis and for the FOM on n_side 4
        system, q, dt = fom.brusselator_system(0.002), 5, DEFAULT_T / 128
        if model == "rom":
            snaps, basis = pod.build_pod_basis(sweep_fom, 1.0, pod.W0_ZERO, pod.H10)
            romsys = rom.rom_assemble(basis, 4, sweep_fom.space, system, snaps.mean)
            start = rom.initial_coords(romsys, sweep_fom.states[0])
            linearisation, rule = partial(rom.rom_linearisation, romsys), "step-coupled"
        elif model == "fom":
            space = mesh_fem.build_space(mesh_fem.build_mesh(4), 2)
            start = fom.perturbed_equilibrium(space).ravel()
            linearisation, rule = fom.FomOperator(system, space).linearisation, 1e-10
        else:
            start, linearisation, rule = np.array([1.0]), discarding_linearisation, TIGHT
        recorder = ContractRecorder()
        _, counts, boot_counts = integrate(q, dt, DEFAULT_T, [start], recorder.wrap(linearisation), rule)
        discards = recorder.check([*boot_counts, *counts])
        assert recorder.linearisations > len(recorder.steps) > 128
        assert discards > 0 or model != "discarding stub"
