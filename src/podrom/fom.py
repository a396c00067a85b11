"""Full-order model: BDF-q/Newton integration (by ``bdf.integrate``) of the
semi-discrete Galerkin system for scalar or two-component reaction-diffusion
problems, and snapshot trajectories on a uniform grid.

Nonhomogeneous Dirichlet data on gamma1 is enforced by elimination at every
step: the initial state fixes it, candidate states carry its boundary values
and Newton updates vanish on constrained dofs.

The Newton operator is cell-based (Kronbichler & Kormann, Comput. Fluids
63, 2012) with the element axis last, so that numpy's innermost loop runs
over the elements rather than over the nloc local dofs. The residual gathers
the element values of (bdf_dt, u) once, integrates (bdf_dt + g(u)) w_q
against the basis at the quadrature points and adds nu_c K_e u_e per
element. The Jacobian is held as per-element matrices J[a, b, i, j, e], the
reaction integrated with one matmul plus the per-run linear part c0 M_e +
nu_c K_e on the diagonal blocks; a product is one gather, one einsum and one
``bincount``, with the Dirichlet entries of x zeroed in a copy before the
gather and passed through after the scatter, both by index, and the Jacobi
diagonal sums the element diagonals, so the FOM forms no global matrix.
BiCGStab (``linalg.krylov_solve``) uses only the operator's products and
diagonal. Around those kernels the loop keeps numpy's dispatch small: the
Dirichlet rows are set through the index array ``FomOperator.dirichlet``
rather than a boolean mask or ``np.where``, the reaction and its partials
are one matmul each, and a norm is sqrt(v.dot(v)), the ddot np.linalg.norm
takes. A product of 1-D or 2-D operands that a step, a Newton candidate or
a Krylov iteration forms, in either model, is the method a.dot(b): the same
BLAS call as ``@`` with less dispatch. Two kinds keep another form: the
stacked N-D products of the residual and the Jacobian keep ``@``, since
dot would order the stacked axes differently, and ``dense_lu_solve``'s
norms keep ``np.vdot``, which flattens a multi-column right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bdf import bdf_increment_form, extrapolate_increment, extrapolation_weights, integrate
from .linalg import krylov_solve
from .mesh_fem import FeSpace, assemble_load, build_mesh, build_space


#: forcing term of the inexact Newton update (Dembo, Eisenstat & Steihaug,
#: SIAM J. Numer. Anal. 19, 1982; Eisenstat & Walker, SIAM J. Sci. Comput.
#: 17, 1996): an iterative linear solve only has to reach FORCING times the
#: Newton tolerance, since Newton tests the true nonlinear residual anyway
FORCING = 0.1


@dataclass
class ReactionSystem:
    """Reaction-diffusion system u_t - nu Lap(u) + g(u) = f per component,
    with a polynomial reaction g_c(u) = sum_m coefficients[c, m] prod_k u_k^exponents[m, k].

    The exponent table is the constructor's input only: each monomial is
    kept as ``factors[m]``, the sorted tuple of its factors' components
    (u^2 v -> (0, 0, 1)), which ``g``, ``g_prime`` and the ROM's tensor
    build read.
    """

    n_components: int
    diffusion: tuple  # nu per component
    exponents: np.ndarray  # (n_mono, nc): the power of each component in each monomial
    coefficients: np.ndarray  # (nc, n_mono): the coefficient of each monomial in each g_c
    forcing: tuple = ()  # terms (c, a, b): f_c = sum of a(t) b(x, y) over the terms on c

    def __post_init__(self):
        nc = self.n_components
        if len(self.diffusion) != nc:
            raise ValueError(f"{len(self.diffusion)} diffusion coefficients for {nc} components")
        for c, _, _ in self.forcing:
            if not 0 <= c < nc:
                raise ValueError(f"a forcing term on component {c} of {nc} components (0..{nc - 1})")
        for nu in self.diffusion:
            if not 0 < nu < np.inf:
                raise ValueError(f"nu must be positive and finite, got {nu}")
        powers = np.asarray(self.exponents, dtype=np.float64).reshape(-1, nc)
        bad = powers[~(np.isfinite(powers) & (powers >= 0) & (powers == np.floor(powers)))]
        if bad.size:
            raise ValueError(f"monomial exponents must be nonnegative integers, got {bad[0]:g}")
        self.exponents = powers.astype(np.int64)
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        if self.coefficients.shape != (nc, len(self.exponents)):
            raise ValueError(
                f"coefficients must have shape {(nc, len(self.exponents))}, "
                f"got {self.coefficients.shape}"
            )
        self.factors = [tuple(np.repeat(np.arange(nc), row).tolist()) for row in self.exponents]
        # d g_a / d u_b = sum_m coefficients[a, m] n_mb (m less one factor b), with n_mb
        # the times b occurs in m: one table over the distinct lowered monomials, shared
        # by every (a, b), in the order the monomials and their factors first give them
        lowered = {}  # lowered monomial -> its (nc, nc) coefficients [a, b]
        for m, ks in enumerate(self.factors):
            for b in sorted(set(ks)):
                i = ks.index(b)
                block = lowered.setdefault(ks[:i] + ks[i + 1 :], np.zeros((nc, nc)))
                block[:, b] += self.coefficients[:, m] * ks.count(b)
        self._lowered = list(lowered)
        # (nc nc, n_lowered): row a nc + b holds d g_a / d u_b's coefficients
        self._jac_coefficients = np.reshape(list(lowered.values()), (-1, nc * nc)).T.copy()

    @property
    def degree(self) -> int:
        """The highest total degree of a monomial; 0 without any."""
        return max(map(len, self.factors), default=0)

    def loads(self, space: FeSpace) -> np.ndarray:
        """(J, nc n_dof): each forcing term's load int b phi_i in its component's block."""
        out = np.zeros((len(self.forcing), self.n_components, space.n_dof))
        for j, (c, _, b) in enumerate(self.forcing):
            out[j, c] = assemble_load(space, b)
        return out.reshape(-1, self.n_components * space.n_dof)

    def amplitudes(self, t: float) -> np.ndarray:
        """(J,) amplitudes a(t) of the forcing terms: F(t) = amplitudes(t) @ loads."""
        return np.array([a(t) for _, a, _ in self.forcing], dtype=np.float64)

    def g(self, u: np.ndarray) -> np.ndarray:
        """Reaction terms, (n_comp, ...) values -> (n_comp, ...)."""
        return _contract(self.coefficients, self.factors, u, (self.n_components,))

    def g_prime(self, u: np.ndarray) -> np.ndarray:
        """Partial derivatives, (n_comp, ...) values -> (n_comp, n_comp, ...)."""
        nc = self.n_components
        return _contract(self._jac_coefficients, self._lowered, u, (nc, nc))


def _contract(table, factors, u, lead) -> np.ndarray:
    """sum_m table[:, m] prod_k u[k] over the factor tuple k of each monomial
    m of ``factors`` (its factors multiplied in their order), for (nc, ...)
    values u, shaped ``lead`` + u.shape[1:]: the monomials at the flattened
    points, then one matmul. The sizes are explicit, since without monomials
    reshape(0, -1) raises; the product then gives zeros."""
    u = np.asarray(u, dtype=np.float64)
    points = math.prod(u.shape[1:])
    values = u.reshape(len(u), points)
    monomials = np.empty((len(factors), points))
    for m, ks in enumerate(factors):
        monomials[m] = values[ks[0]] if ks else 1.0
        for k in ks[1:]:
            monomials[m] *= values[k]
    return table.dot(monomials).reshape(lead + u.shape[1:])


def brusselator_system(nu: float) -> ReactionSystem:
    """Brusselator with diffusion, folded into u_t - nu Lap(u) + g(u) = 0:
    g_u = -(1 + u^2 v - 4u), g_v = -(3u - u^2 v).

    The (u, v) = (1, 3) state is an unstable equilibrium.
    """
    exponents = [(0, 0), (1, 0), (2, 1)]  # 1, u, u^2 v
    coefficients = [(-1.0, 4.0, -1.0), (0.0, -3.0, 1.0)]
    return ReactionSystem(2, (nu, nu), exponents, coefficients)


def heat_system(nu: float, forcing=(), reaction: dict | None = None) -> ReactionSystem:
    """Scalar diffusion system with optional forcing terms (a, b), f = sum a(t) b(x, y),
    and polynomial reaction g(u) = sum_p reaction[p] u^p (e.g. {3: 1.0} for u^3)."""
    powers = sorted(reaction or {})
    return ReactionSystem(
        1,
        (nu,),
        [(p,) for p in powers],
        [[reaction[p] for p in powers]],
        tuple((0, a, b) for a, b in forcing),
    )


@dataclass
class Trajectory:
    """States on the uniform grid t_j = j dt, j = 0..M, of one space."""

    states: np.ndarray  # (M + 1, n_comp, n_dof)
    dt: float
    space: FeSpace

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.states))

    @property
    def n_steps(self) -> int:
        return len(self.states) - 1

    def stacked(self) -> np.ndarray:
        """States flattened to (M + 1, n_comp * n_dof)."""
        return self.states.reshape(len(self.states), -1)


class FomOperator:
    """Residual/Jacobian machinery for one (system, space) pair, applied
    element by element with the element axis last: no global Jacobian is
    stored.

    The operator keeps its own element-last gather index ``cell_dofs.T`` and
    bincount targets rather than the space's element-first ``gather`` and
    ``scatter``: numpy's innermost loop then runs over the elements (512 at
    n_side 16) instead of over nloc = 6 local dofs, which makes a
    single-vector product cheaper (stacked mass at n_side 16, P2, one
    column: 40 against 75 us), while the space's many-column
    ``ElementOperator`` products stay element-first, where they are cheaper
    (10 columns: 0.20 against 0.67 ms; 129 columns: 3.5 against 10 ms)."""

    def __init__(self, system: ReactionSystem, space: FeSpace):
        self.system = system
        self.space = space
        self.nc = system.n_components
        self.n = space.n_dof
        self.dim = self.nc * self.n
        self.dirichlet = np.flatnonzero(np.tile(space.dirichlet_mask, self.nc))  # the constrained rows
        self.cell_dofs = space.cell_dofs.T.copy()  # (nloc, ne)
        self.rows = (self.cell_dofs + self.n * np.arange(self.nc)[:, None, None]).ravel()
        self.basis = space.basis_values  # N, (nq, nloc)
        self.basis_products = space.basis_products.T.copy()  # (nloc^2, nq)
        self.weights = space.quadrature_weights.T.copy()  # (nq, ne)
        # element matrices, element axis last and contiguous: M_e, (nloc, nloc,
        # ne), and nu_c K_e, (nc, nloc, nloc, ne)
        nu = np.asarray(system.diffusion, dtype=np.float64)[:, None, None, None]
        self.mass = space.element_mass.transpose(1, 2, 0).copy()
        self.stiffness = nu * space.element_stiffness.transpose(1, 2, 0).copy()
        self.loads = system.loads(space)

    def split(self, w: np.ndarray) -> np.ndarray:
        return w.reshape(w.shape[:-1] + (self.nc, self.n))

    def gather(self, fields: np.ndarray) -> np.ndarray:
        """Element values, element axis last: (..., n_dof) -> (..., nloc, ne)."""
        return fields.take(self.cell_dofs, axis=-1)

    def scatter(self, elem: np.ndarray) -> np.ndarray:
        """(nc, nloc, ne) element vectors summed into a stacked field by one ``bincount``."""
        return np.bincount(self.rows, weights=elem.ravel(), minlength=self.dim)

    def residual(self, increment, hist_states, scheme, dt, t):
        """Algebraic residual M bdf_dt + nu (K u) + G(u) - F(t) of one BDF
        step at the candidate u = u^{n-1} + increment, with M and K the
        stacked mass and stiffness: one gather of (bdf_dt, u), the mass and
        reaction terms (bdf_dt(x_q) + g(u(x_q))) w_q integrated against the
        basis, nu_c K_e u_e per element, and one ``bincount``, less
        amplitudes(t) @ loads.

        The discrete derivative bdf_dt is evaluated in first-difference form
        from the increment, keeping the residual floor independent of dt."""
        bdf_dt = bdf_increment_form(scheme, increment, hist_states, dt)
        pair = np.concatenate((bdf_dt, hist_states[0] + increment)).reshape(2, -1)  # (bdf_dt, u)
        elem_values = self.gather(self.split(pair))
        # the N-D products keep @, which stacks the basis over the leading
        # (2, nc) axes; dot would put those axes after the basis's row axis
        at_q = self.basis @ elem_values  # (2, nc, nq, ne)
        values = (at_q[0] + self.system.g(at_q[1])) * self.weights
        elem = self.basis.T @ values + np.einsum("cije,cje->cie", self.stiffness, elem_values[1])
        r = self.scatter(elem)
        if len(self.loads):
            r -= self.system.amplitudes(t).dot(self.loads)
        r[self.dirichlet] = 0.0
        return r

    def linearisation(self, scheme, dt):
        """``bdf.integrate``'s callback. Per run it forms the Jacobian's
        linear part (``jacobian_linear_part``); per step, ``at_step(hist_states,
        t)`` returns the predictor, ``extrapolate_increment(hist_states)``, and
        ``linearise(increment)``: the residual at u^{n-1} + increment and
        ``solve(rhs, tol, reuse=False)``, the inexact Newton update
        (``newton_update``) with the Jacobian at the same candidate. The FOM
        holds no Jacobian across candidates, so ``reuse`` changes nothing:
        every update is formed with the candidate's own Jacobian.

        The first update of a step starts BiCGStab from the polynomial
        extrapolation of the first updates of the run's previous three steps
        (of all of them on its second and third step); the run's first step
        and every later update of a step start from zero."""
        linear_part = self.jacobian_linear_part(scheme.delta_f[0] / dt)
        firsts = []  # the first updates of the run's last three steps, newest first

        def at_step(hist_states, t):
            start = extrapolation_weights(len(firsts)).dot(np.array(firsts)) if firsts else None
            first = True

            def linearise(increment):
                def solve(rhs, tol, reuse=False):
                    nonlocal first
                    jac = self.jacobian(hist_states[0] + increment, linear_part)
                    if not first:
                        return newton_update(jac, rhs, tol)
                    first = False
                    x = newton_update(jac, rhs, tol, start)
                    firsts[:] = [x, *firsts[:2]]
                    return x

                return self.residual(increment, hist_states, scheme, dt, t), solve

            return extrapolate_increment(hist_states), linearise

        return at_step

    def jacobian_linear_part(self, c0_over_dt) -> np.ndarray:
        """The Jacobian's part fixed for a run: per component c the element
        matrices L[c] = c0_over_dt M_e + nu_c K_e, (nc, nloc, nloc, ne)."""
        return c0_over_dt * self.mass + self.stiffness

    def jacobian(self, candidate, linear_part) -> "FomJacobian":
        """The Jacobian at ``candidate``, with the Dirichlet rows and columns
        of the identity, as per-element matrices J[a, b, i, j, e]: the
        reaction sum_q N_qi N_qj w_qe dg_a/du_b(u(x_q)), one matmul with the
        (nloc^2, nq) table of basis products, plus delta_ab L[a]
        (``jacobian_linear_part``)."""
        dq = self.system.g_prime(self.basis @ self.gather(self.split(candidate))) * self.weights
        elements = (self.basis_products @ dq).reshape(dq.shape[:2] + self.mass.shape)
        for a, block in enumerate(linear_part):
            elements[a, a] += block
        return FomJacobian(self, elements)


@dataclass
class FomJacobian:
    """J x = scatter(sum_b J[a, b] x_e) with per-element matrices J[a, b, i,
    j, e] and the Dirichlet entries of x passed through; its Jacobi diagonal
    sums the element diagonals J[a, a, i, i, e] in the same scatter order.

    A product is one gather, one einsum whose innermost loop runs over the
    elements and one ``bincount``. It zeroes the Dirichlet entries of a copy
    of x through the operator's index array ``dirichlet`` (BiCGStab reads
    its operand again) and after the scatter sets y[dirichlet] =
    x[dirichlet]. Forming J and its diagonal costs about twice a product
    (68 against 33 us at n_side 16, P2), but is done once per ~8 products
    (1398 products for 180 Jacobians in the desk run)."""

    op: FomOperator
    elements: np.ndarray  # J, (nc, nc, nloc, nloc, ne)

    def __post_init__(self):
        self.rows = self.cols = self.op.dim

    def diagonal(self) -> np.ndarray:
        diag = self.op.scatter(np.einsum("aaiie->aie", self.elements))
        diag[self.op.dirichlet] = 1.0
        return diag

    def matvec(self, x: np.ndarray) -> np.ndarray:
        op, fixed = self.op, self.op.dirichlet
        free = x.copy()  # BiCGStab reads its operand again: zero a copy
        free[fixed] = 0.0
        y = op.scatter(np.einsum("abije,bje->aie", self.elements, op.gather(op.split(free))))
        y[fixed] = x[fixed]
        return y


def newton_update(
    jac: FomJacobian, rhs: np.ndarray, tol: float, x0: np.ndarray | None = None
) -> np.ndarray:
    """J^{-1} rhs by BiCGStab, inexactly: to ||J x - rhs|| <= FORCING * tol,
    clipped to a relative 1e-13..0.5, so the Newton test on the true
    residual, ||r|| <= tol, decides every accepted state as before. BiCGStab
    starts from ``x0``, or from zero when it is None; the start does not
    change the tolerance, which stays relative to ||rhs||."""
    rhs_norm = math.sqrt(rhs.dot(rhs))
    # a zero right-hand side is solved by zero at any tolerance
    rel = min(max(FORCING * tol / rhs_norm, 1e-13), 0.5) if rhs_norm > 0.0 else 0.5
    x, _ = krylov_solve(jac, rhs, tol=rel, x0=x0)
    return x


def fom_integrate(
    system: ReactionSystem,
    space: FeSpace,
    u0: np.ndarray,
    dt: float,
    t_end: float,
    q: int,
    newton_rule=1e-10,
) -> Trajectory:
    """Integrate on the uniform grid j dt, j = 0..M, with BDF-q/Newton.

    Starting values are bootstrapped at order q. ``newton_rule`` goes to
    ``bdf.integrate`` as the ROM's does; the default, a fixed 1e-10, is the
    tolerance at every order and step (snapshots are offline and must be
    accurate regardless of dt). Each Newton update is solved inexactly by
    ``newton_update``; Newton's own test on the true residual is unchanged.
    """
    op = FomOperator(system, space)
    u0 = np.asarray(u0, dtype=np.float64).reshape(op.dim)
    states, _, _ = integrate(q, dt, t_end, [u0], op.linearisation, newton_rule)
    return Trajectory(states.reshape(-1, op.nc, op.n), dt, space)


def perturbed_equilibrium(space: FeSpace, amplitude: float = 0.1) -> np.ndarray:
    """Brusselator start u = 1 + a sin(pi x) sin(pi y), v = 3: Dirichlet
    values u = 1, v = 3 on gamma1; natural condition on gamma2."""
    x, y = space.dof_coords[:, 0], space.dof_coords[:, 1]
    u = 1.0 + amplitude * np.sin(np.pi * x) * np.sin(np.pi * y)
    v = np.full(space.n_dof, 3.0)
    # keep the Dirichlet trace exact
    u[space.dirichlet_mask] = 1.0
    return np.stack([u, v])


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def space_keys(space: FeSpace) -> dict:
    """The header keys that name a space: n_dof, degree and n_side."""
    return {"n_dof": space.n_dof, "degree": space.degree, "n_side": space.mesh.n_side}


def save_header(stem: str, dt: float, n_steps: int, n_comp: int, space: dict, extra: dict | None = None):
    """Write the plain-text header <stem>.traj: the time grid, the
    ``space_keys`` and the ``extra`` keys, one "key = value" line each."""
    keys = {"dt": f"{dt:.17g}", "M": n_steps, "n_dof": space["n_dof"], "components": n_comp,
            "degree": space["degree"], "n_side": space["n_side"], **(extra or {})}
    with open(stem + ".traj", "w") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in keys.items()))


def save_trajectory(traj: Trajectory, stem: str, extra: dict | None = None):
    """The header <stem>.traj (``save_header``) and the (M + 1, n_comp, n_dof)
    states as one numpy array file, <stem>.states.npy."""
    save_header(stem, traj.dt, traj.n_steps, traj.states.shape[1], space_keys(traj.space), extra)
    np.save(stem + ".states.npy", traj.states)


#: the header keys the load needs, with their types
_HEADER_KEYS = {"dt": float, "M": int, "components": int, "n_dof": int, "n_side": int, "degree": int}


def load_trajectory(stem: str) -> tuple:
    """Load a trajectory; returns (Trajectory, header dict). The space is
    rebuilt from the header. A repeated header key, a key the load needs
    that is missing or malformed, or a dt that is not positive and finite
    raises ValueError naming <stem>.traj and the key; so does a states file
    that is not a float64 array of the shape (M + 1, components, n_dof) the
    header gives, naming <stem>.states.npy."""
    header = {}
    with open(stem + ".traj") as fh:
        for key, value in (map(str.strip, line.split("=", 1)) for line in fh if "=" in line):
            if key in header:
                raise ValueError(f"{stem}.traj: repeated header key {key}")
            header[key] = value
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise ValueError(f"{stem}.traj: missing header key(s) {', '.join(missing)}")
    values = {}
    for key, kind in _HEADER_KEYS.items():
        try:
            values[key] = kind(header[key])
        except ValueError:
            raise ValueError(f"{stem}.traj: {key} = {header[key]!r} is not a valid {kind.__name__}") from None
    if not 0 < values["dt"] < np.inf:
        raise ValueError(f"{stem}.traj: dt = {header['dt']!r} is not positive and finite")
    try:
        space = build_space(build_mesh(values["n_side"]), values["degree"])
    except ValueError as exc:
        raise ValueError(f"{stem}.traj: {exc}") from None
    if values["n_dof"] != space.n_dof:
        raise ValueError(f"{stem}.traj: n_dof = {values['n_dof']}, but the space has {space.n_dof} dofs")
    path = stem + ".states.npy"
    try:
        states = np.load(path, allow_pickle=False)
    except (OSError, EOFError, ValueError) as exc:
        raise ValueError(f"{path}: cannot read the states ({exc})") from None
    expected = f"float64 {(values['M'] + 1, values['components'], space.n_dof)}"
    found = f"{states.dtype} {states.shape}" if isinstance(states, np.ndarray) else type(states).__name__
    if found != expected:
        raise ValueError(f"{path}: expected states {expected} as {stem}.traj gives, found {found}")
    return Trajectory(states, values["dt"], space), header

