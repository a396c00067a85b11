"""Oracles that only the tests use: the mesh and the Lagrange space built
cell by cell, a space clamped on its whole boundary, a CSR matrix as a
dense array, pattern-aligned values as a CSR matrix on the space's
pattern, the identity as a CSR matrix, the L2 norm and H1 seminorm of a
nodal field, the FOM's BDF residual from the assembled scalar mass and
stiffness, component by component, the load of a forcing by its pointwise
values, the projection errors by their plain formula, BiCGStab as a
fresh array per operation, and the driver contract's one check.

That check is ``ContractRecorder``, built on ``wrap_callbacks``, the
tests' one wrapper of a model's callback levels. It records a real
``bdf.integrate`` run and fails by the name of the clause a run breaks:
"levels", "updates", "reuse", "stale solve", "history", "predictor" or
"residual".
``tests/test_bdf.py`` runs it on the ROM at r 4 (BDF-5, M 128), the r-10
ROM on BDF-1, M 32, the n_side 4 FOM, the u' = -u^3 stub, held and
discarding, and the linear scalar model at every order. A contract change
edits ``bdf.implicit_step``'s docstring and the recorder; no model
restates a clause, and only ``TestImplicitStep``'s single-step tests
(three of them state "updates", "reuse" and "stale solve" by hand on the
stub) change besides."""

import math
from dataclasses import dataclass, field

import numpy as np

from podrom.bdf import bdf_increment_form, bootstrap_plan, newton_tolerance
from podrom.linalg import ConvergenceError, CsrMatrix
from podrom.mesh_fem import (
    GAMMA1,
    GAMMA2,
    FeSpace,
    TriMesh,
    assemble_load,
    assemble_mass,
    assemble_reaction_system,
    assemble_stiffness,
    build_mesh,
    build_space,
    quadrature_for_degree,
)
from podrom.pod import project


def build_mesh_oracle(n_side):
    """``mesh_fem.build_mesh`` as a loop over the cells and the boundary."""
    n = n_side
    grid = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(grid, grid, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((a, b, c))  # below the SW-NE diagonal
            tris.append((a, c, d))  # above it
    triangles = np.array(tris, dtype=np.int64)

    edges = []
    for i in range(n):
        edges.append((vid(i, 0), vid(i + 1, 0), GAMMA2))  # y = 0
        edges.append((vid(0, i), vid(0, i + 1), GAMMA2))  # x = 0
        edges.append((vid(i, n), vid(i + 1, n), GAMMA1))  # y = 1
        edges.append((vid(n, i), vid(n, i + 1), GAMMA1))  # x = 1
    return TriMesh(n, vertices, triangles, edges)


def build_space_oracle(mesh, degree):
    """``mesh_fem.build_space`` with Dirichlet dofs on gamma1 and the P2
    edges numbered by a unique over the rows of the sorted endpoint pairs."""
    n_vert = len(mesh.vertices)
    if degree == 1:
        coords = mesh.vertices.copy()
        cell_dofs = mesh.triangles.copy()
    else:
        tri = mesh.triangles
        pairs = np.concatenate(
            [
                np.sort(tri[:, [1, 2]], axis=1),
                np.sort(tri[:, [0, 2]], axis=1),
                np.sort(tri[:, [0, 1]], axis=1),
            ]
        )
        uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
        edge_of = inverse.reshape(3, len(tri)).T  # local edges opposite vertices 0,1,2
        cell_dofs = np.column_stack([tri, n_vert + edge_of])
        midpoints = 0.5 * (mesh.vertices[uniq[:, 0]] + mesh.vertices[uniq[:, 1]])
        coords = np.vstack([mesh.vertices, midpoints])
    tol = 1e-12
    x, y = coords[:, 0], coords[:, 1]
    mask = (np.abs(x - 1.0) < tol) | (np.abs(y - 1.0) < tol)
    quad = quadrature_for_degree(2 if degree == 1 else 4)
    return FeSpace(mesh, degree, coords, mask, len(coords), cell_dofs, quad)


def clamped_space(n_side, degree):
    """``build_space`` with Dirichlet dofs on the whole boundary rather than
    on gamma1 alone, for fields such as sin(pi x) sin(pi y) that vanish on
    all of it."""
    space = build_space(build_mesh(n_side), degree)
    space.dirichlet_mask = ((space.dof_coords < 1e-12) | (space.dof_coords > 1.0 - 1e-12)).any(axis=1)
    return space


def as_dense(a) -> np.ndarray:
    """The CSR matrix ``a`` as a dense (rows, cols) array."""
    out = np.zeros((a.rows, a.cols))
    out[a.row_indices(), a.col_indices] = a.values
    return out


def on_pattern(space, values) -> CsrMatrix:
    """Values aligned with ``assemble_mass(space)``'s entries as a CSR matrix on its pattern."""
    pattern = assemble_mass(space)
    return CsrMatrix(pattern.rows, pattern.cols, pattern.row_offsets, pattern.col_indices, values)


def eye_csr(n) -> CsrMatrix:
    """The n x n identity as a CSR matrix."""
    idx = np.arange(n)
    return CsrMatrix.from_coo(n, n, idx, idx, np.ones(n))


def norms(space, v):
    """(L2 norm, H1 seminorm) of a nodal field; a multi-component field,
    stacked or (n_comp, n_dof), by the space's stacked mass and stiffness."""
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.size % space.n_dof != 0:
        raise ValueError("vector length must be a multiple of n_dof")
    nc = v.size // space.n_dof
    l2sq = float(v @ space.mass_matrix(nc).matvec(v))
    h1sq = float(v @ space.stiffness_matrix(nc).matvec(v))
    return np.sqrt(max(l2sq, 0.0)), np.sqrt(max(h1sq, 0.0))


def fom_residual_oracle(op, increment, history, scheme, dt, t):
    """M bdf_dt + nu K u + G(u) - F(t) of one BDF step at u = history[0] +
    increment for the system and space of ``op`` (a ``FomOperator``): the
    assembled scalar mass and stiffness applied component by component, nu
    after the product, minus each component's load, with the Dirichlet rows
    zeroed. Independent of ``FomOperator.residual``."""
    system, space = op.system, op.space
    bdf_dt = op.split(bdf_increment_form(scheme, increment, history, dt))
    candidate = op.split(history[0] + increment)
    reaction = assemble_reaction_system(space, candidate, system.g)
    load = load_oracle(system, space, t)
    mass, stiffness = assemble_mass(space), assemble_stiffness(space)
    want = []
    for c in range(op.nc):
        term = mass.matvec(bdf_dt[c])
        term = term + system.diffusion[c] * stiffness.matvec(candidate[c])
        term = term + reaction[c]
        term = term - load[c]
        want.append(term)
    want = np.concatenate(want)
    want[op.dirichlet] = 0.0
    return want


def load_oracle(system, space, t):
    """The load F(t), (n_comp, n_dof): each forcing term's a(t) b(x, y)
    evaluated at the quadrature points and integrated against the basis.
    Independent of ``ReactionSystem.loads``."""
    load = np.zeros((system.n_components, space.n_dof))
    for c, a, b in system.forcing:
        load[c] += assemble_load(space, lambda x, y: a(t) * b(x, y))
    return load


def projection_errors_oracle(basis, r, v, grams):
    """``pod.projection_errors`` as the plain formula it evaluates, with a
    fresh array for the residual and for each product."""
    coeffs, proj = project(basis, r, v)
    resid = v - proj
    return coeffs, np.array([np.sum(resid * g.matvec(resid), axis=0) for g in grams])


def krylov_solve_oracle(a, b, tol=1e-12, max_iter=None, x0=None):
    """``linalg.krylov_solve``'s Jacobi-preconditioned BiCGStab loop with a
    fresh array for every vector operation and ``np.linalg.norm`` for every
    norm, for operands it accepts; the solver must match it bit for bit."""
    b = np.asarray(b, dtype=np.float64)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=np.float64)
    n = a.rows
    if max_iter is None:
        max_iter = 10 * n
    d = a.diagonal()
    d = np.where(np.abs(d) > 0, d, 1.0)  # the Jacobi preconditioner

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), 0
    if x0 is None:
        x = np.zeros(n)
        r = b.copy()  # the residual of the zero start
    else:
        x = x0.copy()
        r = b - a.matvec(x)
    if np.linalg.norm(r) <= tol * bnorm:  # the start already meets the tolerance
        return x, 0
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = p = np.zeros(n)
    for it in range(1, max_iter + 1):
        rho_new = r_hat @ r
        if rho_new == 0.0 or omega == 0.0:
            raise ConvergenceError("BiCGStab breakdown", float(np.linalg.norm(r)))
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        p_hat = p / d
        v = a.matvec(p_hat)
        denom = r_hat @ v
        if denom == 0.0:
            raise ConvergenceError("BiCGStab breakdown", float(np.linalg.norm(r)))
        alpha = rho / denom
        s = r - alpha * v
        if np.linalg.norm(s) <= tol * bnorm:
            x = x + alpha * p_hat
            return x, it
        s_hat = s / d
        t = a.matvec(s_hat)
        tt = t @ t
        if tt == 0.0:
            raise ConvergenceError("BiCGStab breakdown", float(np.linalg.norm(s)))
        omega = (t @ s) / tt
        x = x + alpha * p_hat + omega * s_hat
        r = s - omega * t
        if np.linalg.norm(r) <= tol * bnorm:
            return x, it
    raise ConvergenceError(
        f"BiCGStab did not converge in {max_iter} iterations", float(np.linalg.norm(r))
    )


def wrap_callbacks(linearisation, run=None, step=None, linearise=None, solve=None):
    """``linearisation``, a model's callback for ``bdf.integrate``, with each
    of its levels passed through a hook. A hook takes the level's own
    callable and the arguments the driver passed, and returns what the level
    returns, so it may record the call, check it or change its result:

    - ``run(linearisation, scheme, dt)`` -> at_step, once per run;
    - ``step(at_step, history, t)`` -> (predictor, linearise), once per step;
    - ``linearise(linearise, d)`` -> (residual, solve), once per candidate;
    - ``solve(solve, rhs, tol, reuse)`` -> the Newton update.

    A level without a hook calls through, and what a hook returns is wrapped
    at the levels below it."""

    def through(hook, level, *args):
        return level(*args) if hook is None else hook(level, *args)

    def wrapped(scheme, dt):
        at_step = through(run, linearisation, scheme, dt)

        def wrapped_step(history, t):
            predictor, model_linearise = through(step, at_step, history, t)

            def wrapped_linearise(d):
                residual, model_solve = through(linearise, model_linearise, d)
                return residual, lambda rhs, tol, reuse=False: through(solve, model_solve, rhs, tol, reuse)

            return predictor, wrapped_linearise

        return wrapped_step

    return wrapped


@dataclass
class RecordedStep:
    """One step's calls: its time, the history and predictor the driver and
    the model handed over with their values at the handover, its events,
    ("linearise", d, residual norm) and ("solve", reuse, update), in call
    order, and each residual ``linearise`` returned with its values at the
    return."""

    t: float
    history: np.ndarray
    history_values: np.ndarray
    predictor: np.ndarray
    predictor_values: np.ndarray
    events: list = field(default_factory=list)
    residuals: list = field(default_factory=list)

    @property
    def increments(self):
        """The increments d of the step's linearisations, in call order."""
        return [event[1] for event in self.events if event[0] == "linearise"]

    @property
    def norms(self):
        """The residual norms of the step's linearisations, in call order."""
        return [event[2] for event in self.events if event[0] == "linearise"]


@dataclass
class RecordedRun:
    """One ``linearisation(scheme, dt)`` call: the run's order, step,
    Newton tolerance and steps."""

    order: int
    step: float
    tol: float
    steps: list = field(default_factory=list)


class ContractRecorder:
    """Records the calls of a real ``bdf.integrate`` run (``wrap`` its
    linearisation) and checks every clause of the contract that
    ``bdf.implicit_step`` and ``integrate`` state; a broken clause fails
    with its name:

    - "levels": one ``linearisation(scheme, dt)`` per bootstrap segment and
      one for the main loop when M >= q, with that run's (order, step), and
      one ``at_step`` per step;
    - "updates": a step starts from its predictor, and k updates take k
      solves and k + 1 linearisations, one more per discard. A discard
      linearises the predictor again right after a first update whose
      residual norm is not below the predictor's. Each solve is asked to
      remove its linearisation's residual to the run's tolerance, each
      later linearisation is at the increment plus the update, and the
      step stops at its first residual norm within the tolerance;
    - "reuse": only a step's first update asks for ``reuse``;
    - "stale solve": no ``solve`` is called after a later ``linearise``;
    - "history": no callback writes to the history it was given;
    - "predictor": the predictor ``at_step`` returned, of a state's shape,
      stays unchanged until the step ends, because a discard restarts
      from it;
    - "residual": a residual ``linearise`` returned is the caller's to
      keep, unchanged by every later callback of its step.

    "stale solve", "history", "predictor" and "residual" are checked at the
    call, the others by ``check`` after the run. ``linearisations``,
    ``solves`` and ``fresh_solves`` count the recorded calls.
    """

    def __init__(self, newton_rule):
        self.newton_rule = newton_rule
        self.runs = []
        self.linearisations = 0

    def wrap(self, linearisation):
        return wrap_callbacks(linearisation, run=self._run, step=self._step, linearise=self._linearise)

    def _run(self, linearisation, scheme, dt):
        self.runs.append(RecordedRun(scheme.q, dt, newton_tolerance(self.newton_rule, scheme.q, dt)))
        return linearisation(scheme, dt)

    def _step(self, at_step, history, t):
        history_values = np.array(history)
        predictor, linearise = at_step(history, t)
        step = RecordedStep(t, history, history_values, predictor, np.array(predictor))
        self.runs[-1].steps.append(step)
        assert np.shape(predictor) == history_values.shape[1:], (
            f"predictor: at_step at t = {t:.6g} returns shape {np.shape(predictor)}, not a state's"
        )
        self._unchanged(step, "at_step")
        return predictor, linearise

    def _linearise(self, linearise, d):
        run = self.runs[-1]
        step = run.steps[-1]
        increment = np.array(d)
        residual, solve = linearise(d)
        self._unchanged(step, "linearise")
        self.linearisations += 1
        made = self.linearisations
        step.events.append(("linearise", increment, math.sqrt(residual.dot(residual))))
        step.residuals.append((residual, np.array(residual)))

        def checked_solve(rhs, tol, reuse=False):
            assert made == self.linearisations, (
                f"stale solve: the solve of linearisation {made} is called after linearisation {self.linearisations}"
            )
            assert tol == run.tol and np.array_equal(rhs, -residual), (
                f"updates: the solve of linearisation {made} is not asked to remove its residual to tolerance {run.tol}"
            )
            update = solve(rhs, tol, reuse=reuse)
            self._unchanged(step, "solve")
            step.events.append(("solve", reuse, np.array(update)))
            return update

        return residual, checked_solve

    def _reuse(self):
        """Each recorded run's solves, as the ``reuse`` each was asked with."""
        return [[e[1] for step in run.steps for e in step.events if e[0] == "solve"] for run in self.runs]

    @property
    def solves(self) -> int:
        return sum(map(len, self._reuse()))

    @property
    def fresh_solves(self) -> int:
        """The solves after which a model that holds one factor per run
        holds a fresh one: each asked without ``reuse``, and each run's
        first, which finds none held yet."""
        return sum(run.count(False) + bool(run) for run in self._reuse())

    @staticmethod
    def _unchanged(step, call):
        assert np.array_equal(step.history, step.history_values), (
            f"history: {call} at t = {step.t:.6g} writes to its history"
        )
        assert np.array_equal(step.predictor, step.predictor_values), (
            f"predictor: {call} at t = {step.t:.6g} changes the step's predictor"
        )
        for k, (residual, values) in enumerate(step.residuals):
            assert np.array_equal(residual, values), (
                f"residual: {call} at t = {step.t:.6g} changes the residual of the step's linearisation {k}"
            )

    def check(self, q, dt, counts, boot_counts) -> int:
        """The recorded calls of ``integrate(q, dt, ...)`` against its plan,
        bootstrapped when it returned ``boot_counts`` (given the q starting
        values when it did not), and against the Newton updates per step it
        returned, in call order (the bootstrap's steps first); returns the
        number of discards."""
        plan = bootstrap_plan(q, dt) if boot_counts else []
        main = [(q, dt, len(counts))] if counts else []  # no main-loop run at M < q
        want = [*plan, *main]
        got = [(run.order, run.step, len(run.steps)) for run in self.runs]
        assert got == want, f"levels: {len(got)} runs of (order, step, steps), {got[:6]}, planned {want}"
        updates = [*boot_counts, *counts]
        steps = [(run.tol, step) for run in self.runs for step in run.steps]
        assert len(updates) == len(steps), f"updates: {len(updates)} counted, {len(steps)} steps recorded"
        return sum(self._check_step(n, k, tol, step) for n, (k, (tol, step)) in enumerate(zip(updates, steps)))

    @staticmethod
    def _check_step(n, k, tol, step) -> int:
        events = step.events
        kinds = [event[0] for event in events]
        discards = sum(a == b == "linearise" for a, b in zip(kinds, kinds[1:]))
        assert kinds.count("solve") == k and kinds.count("linearise") == k + 1 + discards, (
            f"updates: step {n} of {k} updates and {discards} discards calls {kinds}"
        )
        assert np.array_equal(events[0][1], step.predictor_values), f"updates: step {n} does not start from its predictor"
        if discards:
            assert discards == 1 and kinds[:4] == ["linearise", "solve", "linearise", "linearise"], (
                f"updates: step {n} discards other than its first update: {kinds}"
            )
            predictor, first, again = events[0], events[2], events[3]
            assert np.array_equal(again[1], step.predictor_values), f"updates: step {n} discards to another increment"
            assert not first[2] < predictor[2], f"updates: step {n} discards an update that lowered the residual"
        for before, (kind, _, update), after in zip(events, events[1:], events[2:]):
            if kind == "solve":
                assert np.array_equal(after[1], before[1] + update), (
                    f"updates: step {n} linearises other than at the increment plus the update"
                )
        norms = step.norms
        assert norms[-1] <= tol < min(norms[:-1], default=math.inf), (
            f"updates: step {n} stops at residual norms {norms}, tolerance {tol}"
        )
        reuse = [event[1] for event in events if event[0] == "solve"]
        assert reuse == ([True] + [False] * (k - 1) if k else []), f"reuse: step {n} asks {reuse}"
        return discards
