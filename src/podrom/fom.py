"""Full-order model: BDF-q/Newton integration (by ``bdf.integrate``) of the
semi-discrete Galerkin system for scalar or two-component reaction-diffusion
problems, and snapshot trajectories on a uniform grid.

Nonhomogeneous Dirichlet data on gamma1 is enforced by elimination at every
step: candidate states carry the prescribed boundary values, Newton updates
vanish on constrained dofs.

The Newton operator is cell-based (Kronbichler & Kormann, Comput. Fluids
63, 2012) with the element axis last, so that numpy's innermost loop runs
over the elements rather than over the nloc local dofs. The residual gathers
the element values of (bdf_dt, u) once, integrates (bdf_dt + g(u)) w_q
against the basis at the quadrature points and adds nu_c K_e u_e per
element. The Jacobian is held as per-element matrices J[a, b, i, j, e], the
reaction integrated with one matmul plus the per-run linear part c0 M_e +
nu_c K_e on the diagonal blocks; a product is one gather, one einsum and one
``bincount``, with the Dirichlet entries of x dropped before the gather and
passed through after the scatter, and the Jacobi diagonal sums the element
diagonals, so the FOM forms no global matrix. BiCGStab
(``linalg.krylov_solve``) uses only the operator's products and diagonal.
Against the earlier products at the quadrature points (n_side 16, P2, two
components, one BLAS thread, medians of 7 interleaved runs) a product takes
53 against 80 us and a residual 117 against 268 us, while forming J and its
diagonal takes 117 against 95 us; the desk FOM run (M 128, q 5) takes 19%
less time (0.194 against 0.240 s, 10 interleaved pairs) with the same Newton
and BiCGStab counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bdf import bdf_increment_form, extrapolation_weights, integrate
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
    """

    n_components: int
    diffusion: tuple  # nu per component
    exponents: np.ndarray  # (n_mono, nc): the power of each component in each monomial
    coefficients: np.ndarray  # (nc, n_mono): the coefficient of each monomial in each g_c
    forcing: tuple = ()  # terms (c, a, b): f_c = sum of a(t) b(x, y) over the terms on c
    dirichlet_values: tuple = ()

    def __post_init__(self):
        nc = self.n_components
        if len(self.diffusion) != nc:
            raise ValueError(f"{len(self.diffusion)} diffusion coefficients for {nc} components")
        if self.dirichlet_values and len(self.dirichlet_values) != nc:
            raise ValueError(f"{len(self.dirichlet_values)} Dirichlet values for {nc} components")
        for c, _, _ in self.forcing:
            if not 0 <= c < nc:
                raise ValueError(f"a forcing term on component {c} of {nc} components (0..{nc - 1})")
        if not all(0 < nu < np.inf for nu in self.diffusion):
            raise ValueError(
                f"diffusion coefficients must be positive and finite, got {self.diffusion}"
            )
        self.exponents = np.asarray(self.exponents, dtype=np.int64).reshape(-1, nc)
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        if np.any(self.exponents < 0):
            raise ValueError("monomial exponents must be nonnegative")
        if self.coefficients.shape != (nc, len(self.exponents)):
            raise ValueError(
                f"coefficients must have shape {(nc, len(self.exponents))}, "
                f"got {self.coefficients.shape}"
            )
        # d g_a / d u_b = sum_m coefficients[a, m] e[m, b] u^(e[m] - unit_b):
        # one table over the distinct lowered monomials, shared by every (a, b)
        lowered = {}
        terms = []
        for m, powers in enumerate(self.exponents):
            for b in np.flatnonzero(powers):
                key = tuple(powers - np.eye(nc, dtype=np.int64)[b])
                terms.append((b, lowered.setdefault(key, len(lowered)), m))
        self._jac_exponents = np.array(list(lowered), dtype=np.int64).reshape(-1, nc)
        self._jac_coefficients = np.zeros((nc, nc, len(lowered)))
        for b, j, m in terms:
            self._jac_coefficients[:, b, j] += self.coefficients[:, m] * self.exponents[m, b]

    @property
    def degree(self) -> int:
        """The highest total degree of a monomial; 0 without any."""
        return int(self.exponents.sum(axis=1).max(initial=0))

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
        return np.tensordot(self.coefficients, _monomials(self.exponents, u), axes=1)

    def g_prime(self, u: np.ndarray) -> np.ndarray:
        """Partial derivatives, (n_comp, ...) values -> (n_comp, n_comp, ...)."""
        return np.tensordot(self._jac_coefficients, _monomials(self._jac_exponents, u), axes=1)


def _monomials(exponents: np.ndarray, u: np.ndarray) -> np.ndarray:
    """prod_k u[k]^exponents[m, k] per row m for (nc, ...) values u, shape
    (n_mono, ...); each power u[k] ** p is formed once per call."""
    u = np.asarray(u, dtype=np.float64)
    powers = {}
    out = np.empty((len(exponents),) + u.shape[1:])
    for m, row in enumerate(exponents):
        factors = []
        for k in np.flatnonzero(row):
            p = int(row[k])
            if (k, p) not in powers:
                powers[k, p] = u[k] if p == 1 else u[k] ** p
            factors.append(powers[k, p])
        if not factors:
            out[m] = 1.0
        elif len(factors) == 1:
            out[m] = factors[0]
        else:
            np.multiply(factors[0], factors[1], out=out[m])
            for f in factors[2:]:
                out[m] *= f
    return out


def brusselator_system(nu: float) -> ReactionSystem:
    """Brusselator with diffusion, folded into u_t - nu Lap(u) + g(u) = 0:
    g_u = -(1 + u^2 v - 4u), g_v = -(3u - u^2 v).

    Dirichlet values u = 1, v = 3 on gamma1; natural condition on gamma2.
    The (u, v) = (1, 3) state is an unstable equilibrium.
    """
    if not 0 < nu < np.inf:
        raise ValueError(f"nu must be positive and finite, got {nu}")
    exponents = [(0, 0), (1, 0), (2, 1)]  # 1, u, u^2 v
    coefficients = [(-1.0, 4.0, -1.0), (0.0, -3.0, 1.0)]
    return ReactionSystem(2, (nu, nu), exponents, coefficients, (), (1.0, 3.0))


def heat_system(nu: float, forcing=(), reaction: dict | None = None) -> ReactionSystem:
    """Scalar diffusion system with optional forcing terms (a, b), f = sum a(t) b(x, y),
    and polynomial reaction g(u) = sum_p reaction[p] u^p (e.g. {3: 1.0} for u^3)."""
    if not 0 < nu < np.inf:
        raise ValueError(f"nu must be positive and finite, got {nu}")
    powers = sorted(reaction or {})
    return ReactionSystem(
        1,
        (nu,),
        [(p,) for p in powers],
        [[reaction[p] for p in powers]],
        tuple((0, a, b) for a, b in forcing),
        (0.0,),
    )


@dataclass
class Trajectory:
    times: np.ndarray  # uniform grid t_j = j dt
    states: np.ndarray  # (M + 1, n_comp, n_dof)
    dt: float
    space: FeSpace

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def stacked(self) -> np.ndarray:
        """States flattened to (M + 1, n_comp * n_dof)."""
        return self.states.reshape(len(self.times), -1)


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
        self.mask = np.tile(space.dirichlet_mask, self.nc)
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
        return np.take(fields, self.cell_dofs, axis=-1)

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
        elem_values = self.gather(self.split(np.stack([bdf_dt, hist_states[0] + increment])))
        at_q = self.basis @ elem_values  # (2, nc, nq, ne)
        values = (at_q[0] + self.system.g(at_q[1])) * self.weights
        elem = self.basis.T @ values + np.einsum("cije,cje->cie", self.stiffness, elem_values[1])
        r = self.scatter(elem)
        if len(self.loads):
            r -= self.system.amplitudes(t) @ self.loads
        r[self.mask] = 0.0
        return r

    def linearisation(self, scheme, dt):
        """``bdf.integrate``'s callback. Per run it forms the Jacobian's
        linear part (``jacobian_linear_part``); per step, ``at_step(hist_states,
        t)`` returns ``linearise(increment)``: the residual at u^{n-1} +
        increment and ``solve(rhs, tol)``, the inexact Newton update
        (``newton_update``) with the Jacobian at the same candidate.

        The first update of a step starts BiCGStab from the polynomial
        extrapolation of the first updates of the run's previous three steps
        (of all of them on its second and third step); the run's first step
        and every later update of a step start from zero."""
        linear_part = self.jacobian_linear_part(scheme.delta_f[0] / dt)
        firsts = []  # the first updates of the run's last three steps, newest first

        def at_step(hist_states, t):
            start = extrapolation_weights(len(firsts)) @ np.array(firsts) if firsts else None
            first = True

            def linearise(increment):
                def solve(rhs, tol):
                    nonlocal first
                    jac = self.jacobian(hist_states[0] + increment, linear_part)
                    if not first:
                        return newton_update(jac, rhs, tol)
                    first = False
                    x = newton_update(jac, rhs, tol, start)
                    firsts[:] = [x, *firsts[:2]]
                    return x

                return self.residual(increment, hist_states, scheme, dt, t), solve

            return linearise

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
    elements and one ``bincount``: 53 against 80 us for the earlier
    quadrature-point product at n_side 16, P2, two components. Forming J and
    its diagonal costs 117 against 95 us, but is done once per ~8 products
    (1398 products for 180 Jacobians in the desk run)."""

    op: FomOperator
    elements: np.ndarray  # J, (nc, nc, nloc, nloc, ne)

    def __post_init__(self):
        self.rows = self.cols = self.op.dim

    def diagonal(self) -> np.ndarray:
        diag = self.op.scatter(np.einsum("aaiie->aie", self.elements))
        diag[self.op.mask] = 1.0
        return diag

    def matvec(self, x: np.ndarray) -> np.ndarray:
        op, mask = self.op, self.op.mask
        elem_values = op.gather(op.split(np.where(mask, 0.0, x)))
        y = op.scatter(np.einsum("abije,bje->aie", self.elements, elem_values))
        y[mask] = x[mask]
        return y


def newton_update(
    jac: FomJacobian, rhs: np.ndarray, tol: float, x0: np.ndarray | None = None
) -> np.ndarray:
    """J^{-1} rhs by BiCGStab, inexactly: to ||J x - rhs|| <= FORCING * tol,
    clipped to a relative 1e-13..0.5, so the Newton test on the true
    residual, ||r|| <= tol, decides every accepted state as before. BiCGStab
    starts from ``x0``, or from zero when it is None; the start does not
    change the tolerance, which stays relative to ||rhs||."""
    rhs_norm = float(np.linalg.norm(rhs))
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
    tol: float = 1e-10,
) -> Trajectory:
    """Integrate on the uniform grid j dt, j = 0..M, with BDF-q/Newton.

    Starting values are bootstrapped at order q; the Newton tolerance ``tol``
    is the same at every order and step, 1e-10 by default (snapshots are
    offline and must be accurate regardless of dt). Each Newton update is
    solved inexactly by ``newton_update``, while Newton's own test on the
    true residual ||r|| <= tol is unchanged.
    """
    op = FomOperator(system, space)
    states, _, _ = integrate(
        q,
        dt,
        t_end,
        [np.asarray(u0, dtype=np.float64).reshape(op.dim)],
        op.linearisation,
        lambda order, step: tol,
    )
    return Trajectory(dt * np.arange(len(states)), states.reshape(-1, op.nc, op.n), dt, space)


def equilibrium_state(system: ReactionSystem, space: FeSpace) -> np.ndarray:
    """Constant-per-component state at the Dirichlet values, shape (n_comp, n_dof)."""
    return np.array(
        [np.full(space.n_dof, val) for val in system.dirichlet_values]
    )


def perturbed_equilibrium(space: FeSpace, amplitude: float = 0.1) -> np.ndarray:
    """Brusselator start u = 1 + a sin(pi x) sin(pi y), v = 3."""
    x, y = space.dof_coords[:, 0], space.dof_coords[:, 1]
    u = 1.0 + amplitude * np.sin(np.pi * x) * np.sin(np.pi * y)
    v = np.full(space.n_dof, 3.0)
    # keep the Dirichlet trace exact
    u[space.dirichlet_mask] = 1.0
    return np.stack([u, v])


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_header(
    stem: str, dt: float, n_steps: int, n_comp: int, space: FeSpace, extra: dict | None = None
):
    """Write the plain-text header <stem>.traj: the time grid, the space and
    the ``extra`` keys, one "key = value" line each."""
    keys = {"dt": f"{dt:.17g}", "M": n_steps, "n_dof": space.n_dof, "components": n_comp,
            "degree": space.degree, "n_side": space.mesh.n_side, **(extra or {})}
    with open(stem + ".traj", "w") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in keys.items()))


def save_trajectory(traj: Trajectory, stem: str, extra: dict | None = None):
    """The header <stem>.traj (``save_header``) and the (M + 1, n_comp, n_dof)
    states as one numpy array file, <stem>.states.npy."""
    save_header(stem, traj.dt, traj.n_steps, traj.states.shape[1], traj.space, extra)
    np.save(stem + ".states.npy", traj.states)


#: the header keys the load needs, with their types
_HEADER_KEYS = {"dt": float, "M": int, "components": int, "n_dof": int, "n_side": int, "degree": int}


def load_trajectory(stem: str) -> tuple:
    """Load a trajectory; returns (Trajectory, header dict). The space is
    rebuilt from the header. A header key the load needs that is missing or
    malformed raises ValueError naming <stem>.traj and the key; so does a
    states file that is not a float64 array of the shape (M + 1, components,
    n_dof) the header gives, naming <stem>.states.npy."""
    with open(stem + ".traj") as fh:
        header = dict((s.strip() for s in line.split("=", 1)) for line in fh if "=" in line)
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise ValueError(f"{stem}.traj: missing header key(s) {', '.join(missing)}")
    values = {}
    for key, kind in _HEADER_KEYS.items():
        try:
            values[key] = kind(header[key])
        except ValueError:
            raise ValueError(f"{stem}.traj: {key} = {header[key]!r} is not a valid {kind.__name__}") from None
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
    return Trajectory(values["dt"] * np.arange(len(states)), states, values["dt"], space), header


__all__ = [
    "ReactionSystem",
    "Trajectory",
    "FomOperator",
    "brusselator_system",
    "heat_system",
    "fom_integrate",
    "equilibrium_state",
    "perturbed_equilibrium",
    "save_header",
    "save_trajectory",
    "load_trajectory",
]
