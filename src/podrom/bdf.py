"""BDF-q machinery: coefficients, first-difference form, ``implicit_step``
(one Newton step, whose docstring is the contract of a model's callbacks)
and ``integrate``, the one time loop both models run through a two-level
callback without knowing which it steps; starting values are bootstrapped
by the same loop, once per segment of ``bootstrap_plan``. The run rules
both models share have one owner each: ``implicit_step`` for Newton,
``check_step`` for the grids that run, and ``newton_tolerance`` for the
tolerance a Newton rule, "step-coupled" or a fixed number, sets per step.

Coefficients come from the exact rational expansion of the generating
polynomial sum_{l=1..q} (1/l)(1-z)^l, so the consistency identity
sum(delta) = 0 and the first-difference weights hold exactly.

A history is a (q, dim) array of states, newest first (a list of q vectors
is accepted too), and every BDF-q combination is one product over it: the
definition (``bdf_apply``), the first-difference form both models step
with (``bdf_increment_form``) and the predictor (``extrapolate_increment``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .linalg import ConvergenceError

MAX_ORDER = 5
#: Newton updates one implicit step may take before it fails
MAX_NEWTON_ITER = 25
#: implicit steps one bootstrap plan may take: 20 times the largest plan the
#: tests, the CLI and the benchmark build (4886, BDF-5 at T 0.8 and M 8192, a
#: convergence reference), and about 90 s of desk FOM stepping at 0.9 ms a
#: step (2-vCPU Xeon). A BDF-5 plan takes about 2 dt^{-5/6} steps, so this
#: admits BDF-5 down to a step of about 2.4e-6 (BDF-4 9e-8, BDF-3 4e-10)
MAX_BOOTSTRAP_STEPS = 100_000


class UnsupportedOrderError(ValueError):
    pass


@dataclass(frozen=True)
class BdfScheme:
    q: int
    delta: tuple  # Fractions, delta_0..delta_q
    alpha: tuple  # Fractions, alpha_0..alpha_{q-1}
    delta_f: np.ndarray = field(compare=False, default=None)
    alpha_f: np.ndarray = field(compare=False, default=None)


def _check_order(q: int):
    if not 1 <= q <= MAX_ORDER:
        raise UnsupportedOrderError(f"BDF order must be in 1..{MAX_ORDER}, got {q}")


def check_step(q: int, t_end: float, m: int):
    """The bootstrap plan of a BDF-q grid of m steps over [0, t_end] that can
    run, at any order: 1 <= q <= MAX_ORDER (else UnsupportedOrderError), a
    positive finite t_end and m >= 1; from q = 2 on, a step t_end / m in (0, 1),
    where the bootstrap's substeps dt^{q/(q-1)} are finer than dt, and a plan
    whose substeps are positive normal floats and whose steps number at most
    MAX_BOOTSTRAP_STEPS (else ValueError). Planning is a few float operations
    per call, outside any step."""
    _check_order(q)
    if not 0 < t_end < math.inf:
        raise ValueError(f"T must be positive and finite, got {t_end}")
    if m < 1:
        raise ValueError(f"M must be at least 1, got {m}")
    step = t_end / m
    if q >= 2 and not 0 < step < 1:
        raise ValueError(f"q >= 2 needs a step T/M below 1, got T = {t_end} and M = {m}, T/M = {step:g}")
    plan = _bootstrap_segments(q, step)
    if plan is None:
        raise ValueError(
            f"BDF-{q} with T = {t_end} and M = {m} plans a bootstrap substep that is not a positive normal float"
        )
    planned = sum(count for _, _, count in plan)
    if planned > MAX_BOOTSTRAP_STEPS:
        raise ValueError(
            f"BDF-{q} with T = {t_end} and M = {m} plans {planned} bootstrap steps,"
            f" above the bound of {MAX_BOOTSTRAP_STEPS}"
        )
    return plan


def newton_tolerance(rule, order: int, step: float) -> float:
    """The Newton tolerance of a BDF step of ``order`` and size ``step``:
    step^order / 100 for the rule "step-coupled", so that Newton's error does
    not spoil the rate, else ``rule``, a positive finite number (or ValueError)."""
    if rule == "step-coupled":
        tol = step**order / 100.0
    else:
        try:
            tol = float(rule)
        except ValueError:
            tol = math.nan
        if not 0 < tol < math.inf:
            raise ValueError(f"newton_rule must be step-coupled or a positive finite number, got {rule!r}")
    if not 0 < tol < math.inf:  # a step-coupled tolerance that underflows
        raise ValueError(f"the Newton tolerance must be positive and finite, got {tol}")
    return tol


@lru_cache(maxsize=None)
def bdf_coefficients(q: int) -> BdfScheme:
    """Exact BDF-q coefficients and their first-difference weights, one
    scheme per order, with read-only float arrays because the cache hands
    the same scheme to every caller."""
    _check_order(q)
    delta = [Fraction(0)] * (q + 1)
    for l in range(1, q + 1):
        for i in range(l + 1):
            delta[i] += Fraction(1, l) * math.comb(l, i) * (-1) ** i
    alpha = [sum(delta[: j + 1], Fraction(0)) for j in range(q)]
    # by consistency sum(delta) = 0, so alpha_{q-1} == -delta_q
    assert alpha[q - 1] == -delta[q]
    delta_f, alpha_f = np.array([float(d) for d in delta]), np.array([float(a) for a in alpha])
    delta_f.flags.writeable = alpha_f.flags.writeable = False
    return BdfScheme(q, tuple(delta), tuple(alpha), delta_f=delta_f, alpha_f=alpha_f)


def as_history(states, length: int) -> np.ndarray:
    """``states`` (a (length, dim) array or a list of vectors) as one array."""
    states = np.asarray(states, dtype=np.float64)
    if len(states) != length:
        raise ValueError(f"expected {length} states, got {len(states)}")
    return states


def bdf_apply(scheme: BdfScheme, states, dt: float) -> np.ndarray:
    """(1/dt) sum_i delta_i u^{n-i} for q+1 states ordered newest first."""
    return scheme.delta_f @ as_history(states, scheme.q + 1) / dt


def bdf_increment_form(scheme: BdfScheme, increment, hist_states, dt: float) -> np.ndarray:
    """Discrete derivative from the candidate increment u^n - u^{n-1}.

    Evaluating the leading difference directly from the Newton unknown (the
    increment) keeps the attainable residual floor independent of dt; forming
    u^n first and subtracting would quantize the difference at the ulp of the
    full state, which the 1/dt factor amplifies.
    """
    h = as_history(hist_states, scheme.q)
    alpha = scheme.alpha_f
    return (alpha[0] * increment + alpha[1:].dot(h[:-1] - h[1:])) / dt


def bootstrap_plan(q: int, dt: float):
    """Segments (order, step, count), run in sequence, producing a fine grid
    from which the q-1 starting values at t_1..t_{q-1} are sampled.

    q = 1 needs nothing; q = 2 takes one BDF-1 step of size dt; q >= 3
    integrates [0, (q-1) dt] at order q-1 with fixed step dt^{q/(q-1)},
    shrunk so an integer number of substeps lands on every t_j.
    """
    return check_step(q, dt, 1)


def _bootstrap_segments(q: int, dt: float):
    """``bootstrap_plan`` unchecked, or None once a substep is not a positive
    normal float (``dt ** (q / (q - 1))`` underflows for dt near 1e-300)."""
    if q == 1:
        return []
    if not dt >= sys.float_info.min:
        return None
    if q == 2:
        return [(1, dt, 1)]
    target = dt ** (q / (q - 1))
    if not target >= sys.float_info.min:
        return None
    n_sub = max(1, math.ceil(dt / target))
    step = dt / n_sub
    plan = _bootstrap_segments(q - 1, step)
    if plan is not None:
        # the recursion covers [0, (q-2) * step] exactly; finish at order q-1
        plan.append((q - 1, step, (q - 1) * n_sub - (q - 2)))
    return plan


@lru_cache(maxsize=None)
def extrapolation_weights(k: int) -> np.ndarray:
    """Weights of the degree k-1 extrapolation through k uniform points,
    read-only because the cache hands the same array to every caller."""
    weights = np.array([(-1.0) ** j * math.comb(k, j + 1) for j in range(k)])
    weights.flags.writeable = False
    return weights


def extrapolate_increment(history_states) -> np.ndarray:
    """The polynomial extrapolation through k uniform history points to the
    next one, minus states[0], evaluated in difference form.

    The extrapolation weights sum to one, so the predictor increment is a
    combination of history differences and stays small at small steps.
    """
    h = np.asarray(history_states, dtype=np.float64)
    return extrapolation_weights(len(h))[1:].dot(h[1:] - h[0])


def implicit_step(scheme: BdfScheme, history: np.ndarray, predictor, linearise, tol: float):
    """One implicit BDF step solved by Newton; returns (solution, iterations).

    ``history`` holds the q previous states. Newton iterates on the
    increment d = u^n - u^{n-1} from ``predictor``, which ``at_step``
    returned with ``linearise``: the polynomial extrapolation through the
    history less its newest state (``extrapolate_increment``; 0 at q = 1).
    ``linearise(d)``, into which the step's fixed terms are bound, returns
    the residual at the candidate history[0] + d, the caller's to keep, and
    ``solve(rhs, tol, reuse=False)``: the Newton update for the Jacobian at
    that candidate, built only when called, from what the residual formed.
    A ``solve`` is valid only until the next ``linearise``, as a model may
    keep its candidate in buffers of its run. With ``reuse=True`` the model
    may build the update from what it holds from earlier candidates instead
    of a fresh factor.

    A predictor whose residual is at most ``tol`` is returned with 0
    updates. Otherwise only the first update asks for ``reuse``, the
    simplified Newton of BDF codes with a refresh on failure (Hairer &
    Wanner, Solving ODEs II, IV.8): a first update that does not lower the
    residual norm below the predictor's is discarded, and the step
    linearises the predictor again for a fresh update. The linearisation
    computed for the convergence check drives the next update, so k
    updates (a discarded one counted too) take k solves and k + 1
    linearisations, one more per discard.

    ``solve`` receives ``tol``, the bound on the true residual that stops
    Newton, so a model may solve its update inexactly (the FOM does)
    without changing the stopping test. A ConvergenceError from ``solve``
    without a residual (nan, as a singular direct solve raises it) is
    re-raised with the norm of the Newton residual it was asked to solve.
    """
    if len(history) != scheme.q:
        raise ValueError(f"history must hold {scheme.q} states")
    d = predictor
    r, solve = linearise(d)
    predictor_norm = math.sqrt(r.dot(r))
    if predictor_norm <= tol:
        return history[0] + d, 0
    for it in range(1, MAX_NEWTON_ITER + 1):
        try:
            d = d + solve(-r, tol, reuse=it == 1)
        except ConvergenceError as exc:
            if not math.isnan(exc.residual):
                raise
            raise ConvergenceError(exc.message, math.sqrt(r.dot(r))) from exc
        r, solve = linearise(d)
        res_norm = math.sqrt(r.dot(r))
        if res_norm <= tol:
            return history[0] + d, it
        if not math.isfinite(res_norm):
            raise ConvergenceError(f"Newton residual norm is not finite at update {it}", res_norm)
        if it == 1 and not res_norm < predictor_norm:
            d = predictor
            r, solve = linearise(d)
    raise ConvergenceError(f"Newton did not converge in {MAX_NEWTON_ITER} iterations", res_norm)


def integrate(q: int, dt: float, t_end: float, starting, linearisation, newton_rule):
    """BDF-q/Newton on the uniform grid t_n = n dt, n = 0..M, with M dt = t_end.

    ``starting`` is [u_0], whose q - 1 further starting values are
    bootstrapped by ``run_bootstrap``, or the q values u_0..u_{q-1}. The
    model enters at two levels: ``linearisation(scheme, dt)``, once per run
    (each bootstrap segment, and one run for the main loop when M >= q),
    forms its per-run constants and returns ``at_step(history, t)``, which,
    once per step, forms the per-step ones and returns (predictor,
    linearise) for ``implicit_step``. What a model holds across candidates
    lives in its per-run closure, so no segment serves another's. Each
    step's tolerance is ``newton_tolerance`` of ``newton_rule`` at the run's
    order and step; a rejected dt, grid or rule fails before any step.

    The trajectory is stored newest first, u_M..u_0, so ``history`` is the
    C-contiguous forward slice of the q rows after u_n's, a view of the
    trajectory itself: callbacks must not write to it. Returns (states, the
    (M + 1, dim) reversed view u_0..u_M of that array, Newton updates per
    main-loop step n = q..M, Newton updates per bootstrap step). When
    M < q - 1 the states are the first M + 1 starting values. A
    ConvergenceError is re-raised naming the order, the step and the time
    where Newton or the linear solve failed, with its residual kept.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    ratio = t_end / dt
    if math.isfinite(t_end) and not math.isfinite(ratio):
        raise ValueError(f"dt = {dt} is too small for T = {t_end}: T/dt overflows")
    m_steps = round(ratio) if math.isfinite(ratio) else 0  # a t_end check_step rejects
    if abs(ratio - m_steps) > 1e-12 * max(1.0, ratio):
        raise ValueError(f"dt = {dt} does not divide t_end = {t_end}")
    check_step(q, t_end, m_steps)
    tolerance = newton_tolerance(newton_rule, q, dt)
    boot_counts = []
    if len(starting) == 1 and q > 1:
        later, boot_counts = run_bootstrap(q, dt, starting[0], linearisation, newton_rule)
        starting = [starting[0], *later]
    elif len(starting) != q:
        raise ValueError(f"expected 1 or {q} starting values, got {len(starting)}")
    newest_first = np.empty((m_steps + 1,) + np.shape(starting[0]))  # row k holds u_{M - k}
    states = newest_first[::-1]
    states[:q] = starting[: m_steps + 1]
    if m_steps < q:
        return states, [], boot_counts
    scheme = bdf_coefficients(q)
    at_step = linearisation(scheme, dt)
    counts = []
    for n in range(q, m_steps + 1):
        row, t = m_steps - n, n * dt
        history = newest_first[row + 1 : row + 1 + q]
        try:
            predictor, linearise = at_step(history, t)
            newest_first[row], iters = implicit_step(scheme, history, predictor, linearise, tolerance)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"BDF-{q} step n = {n} at t = {t:.6g} (step size {dt:.6g}): {exc.message}",
                exc.residual,
            ) from exc
        counts.append(iters)
    return states, counts, boot_counts


def run_bootstrap(q: int, dt: float, u0: np.ndarray, linearisation, newton_rule):
    """The q - 1 starting values at t_1..t_{q-1} from u0, a (q - 1, dim)
    array, and the Newton updates per bootstrap step.

    Each segment (order, step, count) of ``bootstrap_plan`` is one
    ``integrate`` call from t = 0, started from the previous segment's states
    taken at its own step; every step divides the next one and dt, so each
    sample is a grid hit. A ConvergenceError is re-raised with "bootstrap"
    before the order, step, time and step size ``integrate`` names.
    """
    plan = bootstrap_plan(q, dt)
    states, boot_counts = np.asarray(u0, dtype=np.float64)[None], []
    prev_step = plan[0][1] if plan else dt
    for order, step, count in plan:
        starting = states[:: round(step / prev_step)][:order]
        try:
            states, updates, _ = integrate(
                order, step, (order - 1 + count) * step, starting, linearisation, newton_rule
            )
        except ConvergenceError as exc:
            raise ConvergenceError(f"bootstrap {exc.message}", exc.residual) from exc
        boot_counts += updates
        prev_step = step
    return states[:: round(dt / prev_step)][1:q], boot_counts
