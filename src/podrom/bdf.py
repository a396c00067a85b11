"""BDF-q machinery: coefficients, first-difference form, starting-value
bootstrapping, a generic implicit step driven by Newton's method, and
``integrate``, the one BDF-q time loop that the full-order and the reduced
model both run through their residual and Jacobian callbacks.

Coefficients come from the exact rational expansion of the generating
polynomial sum_{l=1..q} (1/l)(1-z)^l, so the consistency identity
sum(delta) = 0 and the first-difference weights hold exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .linalg import CsrMatrix, ConvergenceError, dense_lu_solve, krylov_solve

#: multiplier constants making the shifted-test-function energy argument work
#: for BDF-q, q <= 5; stored to four significant digits (reporting only).
ETA = {1: 0.0, 2: 0.0, 3: 0.0769, 4: 0.2878, 5: 0.8097}

MAX_ORDER = 5


class UnsupportedOrderError(ValueError):
    pass


@dataclass(frozen=True)
class BdfScheme:
    q: int
    delta: tuple  # Fractions, delta_0..delta_q
    eta: float
    alpha: tuple  # Fractions, alpha_0..alpha_{q-1}
    delta_f: np.ndarray = field(compare=False, default=None)
    alpha_f: np.ndarray = field(compare=False, default=None)


def bdf_coefficients(q: int) -> BdfScheme:
    """Exact BDF-q coefficients and their first-difference weights."""
    if not 1 <= q <= MAX_ORDER:
        raise UnsupportedOrderError(f"BDF order must be in 1..{MAX_ORDER}, got {q}")
    delta = [Fraction(0)] * (q + 1)
    for l in range(1, q + 1):
        for i in range(l + 1):
            delta[i] += Fraction(1, l) * math.comb(l, i) * (-1) ** i
    alpha = [sum(delta[: j + 1], Fraction(0)) for j in range(q)]
    # by consistency sum(delta) = 0, so alpha_{q-1} == -delta_q
    assert alpha[q - 1] == -delta[q]
    return BdfScheme(
        q,
        tuple(delta),
        ETA[q],
        tuple(alpha),
        delta_f=np.array([float(d) for d in delta]),
        alpha_f=np.array([float(a) for a in alpha]),
    )


def bdf_apply(scheme: BdfScheme, states, dt: float) -> np.ndarray:
    """(1/dt) sum_i delta_i u^{n-i} for q+1 states ordered newest first."""
    if len(states) != scheme.q + 1:
        raise ValueError(f"expected {scheme.q + 1} states, got {len(states)}")
    acc = scheme.delta_f[0] * np.asarray(states[0], dtype=np.float64)
    for d, u in zip(scheme.delta_f[1:], states[1:]):
        acc = acc + d * np.asarray(u, dtype=np.float64)
    return acc / dt


def bdf_apply_as_differences(scheme: BdfScheme, states, dt: float) -> np.ndarray:
    """Same derivative, written as weighted first-order differences."""
    if len(states) != scheme.q + 1:
        raise ValueError(f"expected {scheme.q + 1} states, got {len(states)}")
    acc = None
    for j, a in enumerate(scheme.alpha_f):
        diff = np.asarray(states[j], dtype=np.float64) - np.asarray(states[j + 1], dtype=np.float64)
        acc = a * diff if acc is None else acc + a * diff
    return acc / dt


def bdf_increment_form(scheme: BdfScheme, increment, hist_states, dt: float) -> np.ndarray:
    """Discrete derivative from the candidate increment u^n - u^{n-1}.

    Evaluating the leading difference directly from the Newton unknown (the
    increment) keeps the attainable residual floor independent of dt; forming
    u^n first and subtracting would quantize the difference at the ulp of the
    full state, which the 1/dt factor amplifies.
    """
    acc = scheme.alpha_f[0] * np.asarray(increment, dtype=np.float64)
    for j in range(1, scheme.q):
        diff = np.asarray(hist_states[j - 1], dtype=np.float64) - np.asarray(
            hist_states[j], dtype=np.float64
        )
        acc = acc + scheme.alpha_f[j] * diff
    return acc / dt


def bootstrap_plan(q: int, dt: float):
    """Segments (order, step, count), run in sequence, producing a fine grid
    from which the q-1 starting values at t_1..t_{q-1} are sampled.

    q = 1 needs nothing; q = 2 takes one BDF-1 step of size dt; q >= 3
    integrates [0, (q-1) dt] at order q-1 with fixed step dt^{q/(q-1)},
    shrunk so an integer number of substeps lands on every t_j.
    """
    if q < 1:
        raise ValueError("order must be at least 1")
    if not 0.0 < dt < 1.0:
        raise ValueError("the bootstrap exponent rule needs dt in (0, 1)")
    if q == 1:
        return []
    if q == 2:
        return [(1, dt, 1)]
    target = dt ** (q / (q - 1))
    n_sub = max(1, math.ceil(dt / target))
    step = dt / n_sub
    plan = bootstrap_plan(q - 1, step)
    # the recursion covers [0, (q-2) * step] exactly; finish at order q-1
    remaining = (q - 1) * n_sub - (q - 2)
    plan.append((q - 1, step, remaining))
    return plan


def run_bootstrap(q: int, dt: float, u0: np.ndarray, stepper):
    """Execute a bootstrap plan and return the q-1 starting values at t_1..t_{q-1}.

    ``stepper(scheme, history, step, t_new)`` advances one implicit step from
    the ``scheme.q`` previous states, newest first. All segment steps divide
    dt, so sample times are exact grid hits; times are tracked as integer
    multiples of the finest step.
    """
    plan = bootstrap_plan(q, dt)
    if not plan:
        return []
    s_min = plan[0][1]
    states = {0: np.asarray(u0, dtype=np.float64)}
    t_units = 0
    for order, step, count in plan:
        k = round(step / s_min)
        scheme = bdf_coefficients(order)
        for _ in range(count):
            history = [states[t_units - j * k] for j in range(order)]
            t_units += k
            states[t_units] = stepper(scheme, history, step, t_units * s_min)
    k_dt = round(dt / s_min)
    return [states[j * k_dt] for j in range(1, q)]


@dataclass
class NewtonConfig:
    tol: float
    max_iter: int = 25
    predictor: str = "local-extrapolation"  # or "previous"

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def extrapolate(history_states) -> np.ndarray:
    """Polynomial extrapolation through k uniform history points to the next one."""
    k = len(history_states)
    acc = None
    for j, u in enumerate(history_states):
        w = (-1.0) ** j * math.comb(k, j + 1)
        acc = w * u if acc is None else acc + w * u
    return acc


def extrapolate_increment(history_states) -> np.ndarray:
    """extrapolate(states) - states[0], evaluated in difference form.

    The extrapolation weights sum to one, so the predictor increment is a
    combination of history differences and stays small at small steps.
    """
    k = len(history_states)
    newest = np.asarray(history_states[0], dtype=np.float64)
    acc = np.zeros_like(newest)
    for j in range(1, k):
        w = (-1.0) ** j * math.comb(k, j + 1)
        acc = acc + w * (np.asarray(history_states[j], dtype=np.float64) - newest)
    return acc


def _solve_linear(jac, rhs):
    if isinstance(jac, CsrMatrix):
        x, _ = krylov_solve(jac, rhs, tol=1e-13, preconditioner="jacobi")
        return x
    return dense_lu_solve(np.asarray(jac), rhs)


def implicit_step(
    scheme: BdfScheme,
    history: list,
    dt: float,
    residual,
    jacobian,
    cfg: NewtonConfig,
):
    """One implicit BDF step solved by Newton; returns (solution, iterations).

    ``history`` holds the q previous states, newest first. Newton iterates
    on the increment d = u^n - u^{n-1}; ``residual`` and
    ``jacobian`` take the candidate increment (the BDF history contribution
    is the caller's responsibility inside ``residual``). The solution
    returned is newest history state plus the converged increment. The
    residual computed for the convergence check drives the next update, so
    k updates take k + 1 residual evaluations.
    """
    if len(history) != scheme.q:
        raise ValueError(f"history must hold {scheme.q} states")
    if cfg.predictor == "local-extrapolation":
        d = extrapolate_increment(history)
    else:
        d = np.zeros_like(history[0])
    r = residual(d)
    for it in range(1, cfg.max_iter + 1):
        d = d + _solve_linear(jacobian(d), -r)
        r = residual(d)
        res_norm = float(np.linalg.norm(r))
        if res_norm <= cfg.tol:
            return history[0] + d, it
    raise ConvergenceError(f"Newton did not converge in {cfg.max_iter} iterations", res_norm)


def integrate(q: int, dt: float, t_end: float, starting, residual, jacobian, newton):
    """BDF-q/Newton on the uniform grid t_n = n dt, n = 0..M, with M dt = t_end.

    ``starting`` is [u_0], whose q - 1 further starting values are
    bootstrapped by ``run_bootstrap``, or the q values u_0..u_{q-1}. The model
    enters through ``residual(scheme, history, d, t, step)``, its residual at
    the candidate history[0] + d for the previous states ``history`` (newest
    first), and ``jacobian(scheme, candidate, step)``; ``newton(order, step)``
    gives the NewtonConfig of each segment, resolved once per segment.

    Returns (states u_0..u_M, Newton updates per main-loop step n = q..M,
    Newton updates per bootstrap step). A ConvergenceError is re-raised
    naming the order, the step and the time where Newton or the linear
    solve failed, with its residual kept.
    """
    m_steps = t_end / dt
    if abs(m_steps - round(m_steps)) > 1e-12 * max(1.0, m_steps):
        raise ValueError(f"dt = {dt} does not divide t_end = {t_end}")
    m_steps = round(m_steps)
    config = lru_cache(maxsize=None)(newton)
    boot_counts = []

    def advance(scheme, history, step, t, n=None):
        try:
            return implicit_step(
                scheme,
                history,
                step,
                lambda d: residual(scheme, history, d, t, step),
                lambda d: jacobian(scheme, history[0] + d, step),
                config(scheme.q, step),
            )
        except ConvergenceError as exc:
            where = "bootstrap step" if n is None else f"step n = {n}"
            raise ConvergenceError(
                f"BDF-{scheme.q} {where} at t = {t:.6g} (step size {step:.6g}): {exc.message}",
                exc.residual,
            ) from exc

    def boot_step(scheme, history, step, t):
        sol, iters = advance(scheme, history, step, t)
        boot_counts.append(iters)
        return sol

    states = [np.asarray(u, dtype=np.float64) for u in starting]
    if len(states) == 1 and q > 1:
        states += run_bootstrap(q, dt, states[0], boot_step)
    elif len(states) != q:
        raise ValueError(f"expected 1 or {q} starting values, got {len(states)}")
    del states[m_steps + 1 :]
    scheme = bdf_coefficients(q)
    counts = []
    for n in range(len(states), m_steps + 1):
        sol, iters = advance(scheme, states[: -q - 1 : -1], dt, n * dt, n)
        states.append(sol)
        counts.append(iters)
    return states, counts, boot_counts
