"""Fully discrete POD-ROM: reduced operators, residual/Jacobian in the
r-dimensional coordinate space, BDF-q integration by ``bdf.integrate`` from
bootstrapped starting values, and lifting back to nodal space.

The nonlinearity is the exact Galerkin projection of the polynomial
reaction (no hyperreduction), precomputed as one reduced tensor (tensorial
POD). Every monomial is padded to the reaction's degree D with a constant
pseudo-variable, so with c_hat = (1, c) and the augmented fields
[lift_k; Phi_k] each component is u_k = [lift_k; Phi_k] . c_hat, and

    Phi^T g(lift + Phi c) = T . c_hat^D,   T: (r, r + 1, ..., r + 1),

with T symmetric in its D slots and contracted over the quadrature points
of the finite-element rule once, in ``rom_assemble``. A constant-only
reaction is stored at D = 1, and so is a reaction-free one, as T = 0: every
system takes the same path. T is kept with its last slot free and its
other D - 1 slots compressed to sorted index tuples, multiplicities folded
in (the compressed Kronecker storage of operator inference, Peherstorfer &
Willcox, CMAME 306, 2016): an (r (r + 1), C(r + D - 1, D - 1)) matrix Tc,
row (i, j) for T[i, ..., j]. Its column order, the monomial index, depends
on r and D alone, so it is formed from them (``monomial_index``) and never
stored or handed over. A step reads ``tensor_t``, Tc with its rows in
(j, i) order, formed with the system; a reduced file keeps Tc. Online, one
linearisation forms S = T . c_hat^(D - 1), (r, r + 1), as its transpose

    S^T = tensor_t @ m(c_hat),   (r + 1) r entries, row j holding S[:, j],

from the degree D - 1 monomials m(c_hat) of c_hat; the reaction residual
is the one product S c_hat and its Jacobian D S[:, 1:]. That costs
O(r (r + 1) C(r + D - 1, D - 1)) per linearisation, independent of the mesh.

A run (``rom_linearisation``) holds one C-contiguous (2 r + 2, r) block
whose rows are S^T, K^T with K = (delta_0/dt) M_r + D_r, the linear part
of the Jacobian, and fixed, the part of the residual no candidate changes,
and one z = (1, c, d, 1). K^T is written once per run; fixed (the BDF
history term, D_r h_0 and diffusion_lift) and the predictor Newton starts
from are written per step by one product over the history's first
differences. A candidate d writes c = h_0 + d and d into z and its S^T
into the block, so its residual

    K d + fixed + S c_hat = z . block

is one product, and its Jacobian J = K + D S[:, 1:] is formed as J^T =
D S^T[1:] + K^T from contiguous rows of the block into a buffer of the
run. A candidate's S lives in the run's block, so its ``solve`` holds
until the next ``linearise``. The run holds an inverse Jacobian F, formed
at its first update by ``dense_lu_solve``. Each later step's first Newton
update forms the candidate's J and refines F by one Newton-Schulz step,
F <- F (2I - J F), which squares the defect I - J F with two r x r products
and no factorisation (Schulz, ZAMM 13, 1933); so a step of one update takes
two linearisations and no LU. Each later update of a step (or a fresh one
after a discarded first, ``bdf.implicit_step``) inverts J, r x r, at its
candidate by ``dense_lu_solve``. A forcing of J separable terms a_j(t)
b_j(x, y) adds sum_j a_j(t) Phi^T B_j to fixed per step, from the (J, r)
reduced loads: O(J r), and no step touches the mesh.

``ReducedSystem`` holds what a step reads, all r-sized; ``RomSystem`` adds
the basis, lift and space of projection and lifting. ``podrom pod`` writes
the first per rank, so the online stage's cost depends on r, not the mesh.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import mmio
from .bdf import BdfScheme, as_history, extrapolation_weights, integrate
from .fom import ReactionSystem, Trajectory, save_header
from .linalg import dense_lu_solve
from .mesh_fem import FeSpace
from .pod import InvalidRankError, PodBasis, project

#: the tensor build takes the quadrature points in blocks whose factors hold at
#: most this many entries (32 MB), so its memory does not grow with the mesh
_BUILD_BLOCK_ENTRIES = 1 << 22


@lru_cache(maxsize=None)
def monomial_index(r: int, degree: int) -> np.ndarray:
    """Tc's column order at rank r and degree D >= 1, (D - 1, C(r + D - 1, D - 1)):
    column t holds the t-th sorted tuple of slots of (1, c) in
    ``itertools.combinations_with_replacement`` order. Read-only, formed once."""
    tuples = list(itertools.combinations_with_replacement(range(r + 1), degree - 1))
    index = np.array(tuples, dtype=np.intp).reshape(len(tuples), degree - 1).T.copy()
    index.flags.writeable = False
    return index


@dataclass
class ReducedSystem:
    """What a step reads: the r-sized operators, loads and reaction tensor,
    and the system for ``amplitudes(t)``. Tc's column order,
    ``reaction_monomials``, is set from r and the system's degree, and
    ``tensor_t``, the tensor a step reads, from Tc."""

    r: int
    reduced_mass: np.ndarray  # Phi^T M Phi
    reduced_stiffness: np.ndarray  # Phi^T A Phi (unit diffusion)
    reduced_diffusion: np.ndarray  # Phi^T blockdiag(nu_c A) Phi
    diffusion_lift: np.ndarray  # Phi^T blockdiag(nu_c A) lift, constant forcing
    reduced_loads: np.ndarray  # (J, r): B_j Phi, the forcing terms' loads
    reaction_tensor: np.ndarray  # (r (r + 1), C(r + D - 1, D - 1)): Tc
    system: ReactionSystem
    reaction_monomials: np.ndarray = field(init=False, repr=False)  # monomial_index(r, D)
    monomial_rows: tuple = field(init=False, repr=False)  # its D - 1 rows, one gather each
    tensor_t: np.ndarray = field(init=False, repr=False)  # Tc, rows in (j, i) order: S^T's

    def __post_init__(self):
        self.reaction_monomials = monomial_index(self.r, max(self.system.degree, 1))
        self.monomial_rows = tuple(self.reaction_monomials)
        tc = self.reaction_tensor.reshape(self.r, self.r + 1, -1)
        self.tensor_t = np.ascontiguousarray(tc.transpose(1, 0, 2)).reshape(self.r * (self.r + 1), -1)


@dataclass
class RomSystem(ReducedSystem):
    basis: PodBasis
    lift: np.ndarray  # nodal lift: u_full = lift + Phi coords
    space: FeSpace

    @property
    def modes(self) -> np.ndarray:
        return self.basis.modes[:, : self.r]


def reduced_shapes(r: int, system: ReactionSystem) -> dict:
    """The "dtype shape" of each array a rank-r ``ReducedSystem`` of ``system``
    is built from, by field name: the float64 arrays a hand-off file holds."""
    d = max(system.degree, 1) - 1
    shapes = {"reduced_mass": (r, r), "reduced_stiffness": (r, r), "reduced_diffusion": (r, r),
              "diffusion_lift": (r,), "reduced_loads": (len(system.amplitudes(0.0)), r),
              "reaction_tensor": (r * (r + 1), math.comb(r + d, d))}
    return {k: f"float64 {v}" for k, v in shapes.items()}


@dataclass
class RomTrajectory:
    coords: np.ndarray  # (M + 1, r)
    dt: float
    q: int
    newton_iteration_counts: np.ndarray  # per main-grid implicit step (indices q..M)
    bootstrap_iteration_counts: np.ndarray
    newton_rule: str | float  # the rule the run's Newton tolerances followed (``bdf.newton_tolerance``)


def rom_assemble(
    basis: PodBasis,
    r: int,
    space: FeSpace,
    system: ReactionSystem,
    lift: np.ndarray | None = None,
) -> RomSystem:
    """Reduced operators and forcing loads by products with the first r modes,
    and the reduced reaction tensor from the modes and lift at the quadrature points."""
    if not 1 <= r <= basis.d_r:
        raise InvalidRankError(f"rank {r} is outside 1..{basis.d_r}, the basis dimension")
    nc, n = system.n_components, space.n_dof
    phi = basis.modes[:, :r]
    lift = np.zeros(nc * n) if lift is None else np.asarray(lift, dtype=np.float64)
    stiff = space.stiffness_matrix(nc)
    mphi = space.mass_matrix(nc).matvec(phi)
    aphi = stiff.matvec(phi)
    alift = stiff.matvec(lift)
    nu = np.repeat(np.asarray(system.diffusion, dtype=np.float64), n)
    modes_q = space.at_quadrature(phi.T.reshape(r * nc, n)).reshape(r, nc, -1)
    lift_q = space.at_quadrature(lift.reshape(nc, n)).reshape(nc, -1)
    tensor = _reaction_tensor(system, modes_q, lift_q, space.quadrature_weights.ravel())
    return RomSystem(
        r,
        phi.T @ mphi,
        phi.T @ aphi,
        phi.T @ (nu[:, None] * aphi),
        phi.T @ (nu * alift),
        system.loads(space) @ phi,
        _compress(tensor),
        system,
        basis,
        lift,
        space,
    )


def _row_products(first: np.ndarray, factors) -> np.ndarray:
    """Pointwise products first[i] * prod_s factors[s][j_s] over the last
    (quadrature-point) axis, rows flattened row-major in (i, j_1, ...)."""
    out = first
    for f in factors:
        out = (out[:, None, :] * f[None, :, :]).reshape(-1, out.shape[-1])
    return out


def _reaction_tensor(system: ReactionSystem, modes_q, lift_q, weights):
    """The symmetric tensor T with Phi^T g(lift + Phi c) = T . (1, c)^D.

    ``modes_q`` is (r, nc, nqp), ``lift_q`` (nc, nqp) and ``weights``
    (nqp,). A monomial with the factors (k_1, ..., k_d) (``system.factors``)
    fills the slots [i, j_1..j_d, 0, ..., 0] with sum_q w_q psi_i(q) prod_s
    [lift_k_s; Phi_k_s][j_s](q), where psi combines the modes' components by
    the monomial's coefficients; the symmetrisation then spreads the constant
    slots over all positions. A constant-only or reaction-free system gets
    one slot, D = 1.
    """
    r, nc, nqp = modes_q.shape
    degree = max(system.degree, 1)
    fields = [np.vstack([lift_q[k], modes_q[:, k]]) for k in range(nc)]
    tensor = np.zeros((r,) + (r + 1,) * degree)
    for ks, coefs in zip(system.factors, system.coefficients.T):
        slots = [fields[k] for k in ks]
        d, half = len(slots), len(slots) // 2
        psi = weights * np.einsum("c,icq->iq", coefs, modes_q)
        rows = r * (r + 1) ** half + (r + 1) ** (d - half)
        block = max(1, _BUILD_BLOCK_ENTRIES // rows)
        part = np.zeros((r * (r + 1) ** half, (r + 1) ** (d - half)))
        for q0 in range(0, nqp, block):
            qs = slice(q0, q0 + block)
            cut = [f[:, qs] for f in slots]
            left = _row_products(psi[:, qs], cut[:half])
            right = _row_products(np.ones((1, left.shape[1])), cut[half:])
            part += left @ right.T
        tensor[(slice(None),) * (d + 1) + (0,) * (degree - d)] += part.reshape((r,) + (r + 1,) * d)
    perms = itertools.permutations(range(1, degree + 1))
    return sum(tensor.transpose((0,) + p) for p in perms) / math.factorial(degree)


def _compress(tensor: np.ndarray) -> np.ndarray:
    """Tc for the symmetric T: Tc[(i, j), t] is T[i, t_1, ..., t_(D-1), j]
    times the number of distinct orderings of the sorted tuple t, the
    column t of ``monomial_index``, so that T . c_hat^(D-1) = Tc @
    prod(c_hat[index])."""
    r, n, k = tensor.shape[0], tensor.shape[-1], tensor.ndim - 2
    index = monomial_index(r, k + 1)
    orderings = [
        math.factorial(k) // math.prod(math.factorial(c) for c in Counter(t).values())
        for t in index.T.tolist()
    ]
    flat = n ** np.arange(k - 1, -1, -1) @ index
    tc = tensor.reshape(r, n**k, n)[:, flat, :] * np.array(orderings, dtype=np.float64)[:, None]
    return np.ascontiguousarray(tc.transpose(0, 2, 1).reshape(r * n, -1))


def reaction_slope(romsys: ReducedSystem, chat: np.ndarray, out: np.ndarray) -> np.ndarray:
    """S = T . chat^(D-1), an (r, r + 1) array, at chat = (1, c), written into
    ``out`` as the (r + 1) r entries of S^T row by row: the one product of
    ``tensor_t`` with the degree D - 1 monomials of chat; returns ``out``. The
    reduced reaction at c is the one product S chat, its Jacobian D S[:, 1:]."""
    rows = romsys.monomial_rows
    monomials = chat[rows[0]] if rows else chat[:1]  # D = 1: the one monomial chat[0] = 1
    for row in rows[1:]:
        monomials *= chat[row]
    return romsys.tensor_t.dot(monomials, out=out)


def rom_residual(z: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The reduced residual K d + fixed + S chat as the one product z . block,
    a new array, of z = (1, c, d, 1) and the (2 r + 2, r) block whose rows
    are S^T, K^T and fixed (``rom_linearisation``), at the candidate c =
    history[0] + d whose S the block holds.

    The discrete derivative's leading term is (delta_0/dt) M_r d, taken from
    the increment d in K d, keeping the residual floor independent of dt.
    """
    return z.dot(block)


def rom_jacobian(
    romsys: ReducedSystem, slope_rows: np.ndarray, stiffness_t: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """J = K + D S[:, 1:] at a candidate, from the rows S^T[1:] and K^T of a
    run's block (``rom_linearisation``), formed as J^T = D S^T[1:] + K^T
    from those contiguous rows into ``out``, an (r, r) array the run holds;
    returns J, the transposed view of ``out``. The rows are only read."""
    np.multiply(len(romsys.reaction_monomials) + 1, slope_rows, out=out)
    out += stiffness_t
    return out.T


def rom_linearisation(romsys: ReducedSystem, scheme: BdfScheme, dt: float):
    """``bdf.integrate``'s two-level callback.

    Per run it forms K = (delta_0/dt) M_r + D_r and the (q r + 1, 2 r)
    history operator that maps the step's terms (h[:-1] - h[1:], h_0, 1) to
    two r-vectors. The first is fixed = M_r (alpha[1:]/dt) (h[:-1] - h[1:]) +
    D_r h_0 + diffusion_lift, the same difference-form terms as the increment
    form. The second is the predictor sum_i v_i (h[i] - h[i + 1]), v_i =
    -sum_{j > i} w_j with w = ``bdf.extrapolation_weights(q)``, which is
    ``bdf.extrapolate_increment`` w[1:] @ (h[1:] - h_0) summed by parts.
    The run holds one C-contiguous (2 r + 2, r) block, whose rows are S^T
    (r + 1 rows, written per candidate), K^T (written once) and fixed, with
    the predictor in the row after it (so a predictor holds until the next
    ``at_step``), and one z = (1, c, d, 1), so that the residual K d + fixed
    + S (1, c) is z . block.

    Per step, ``at_step(history, t)`` checks that ``history`` holds the q
    previous coordinate vectors, newest first, writes its terms into the
    run's one buffer, forms fixed and the predictor by one product into the
    block's last row and the row after it, takes amplitudes(t) @
    reduced_loads from fixed, and returns (predictor, linearise). Per
    candidate, ``linearise(d)`` writes c = h_0 + d and d into z, S^T into
    the block (``reaction_slope`` through ``ReducedSystem.tensor_t``), and
    returns the new residual (``rom_residual``) and ``solve(rhs, tol,
    reuse=False)``, which forms the candidate's Jacobian J (``rom_jacobian``)
    from the block and returns the update F rhs. So a ``solve`` holds only
    until the next ``linearise`` of the run. The run holds one inverse F:
    ``reuse=True`` refines the held F at the candidate by one Newton-Schulz
    step, F (2I - J F), whose defect I - J F' is (I - J F)^2, and holds
    that; ``reuse=False``, or ``reuse=True`` with none held, forms F =
    ``dense_lu_solve(J, I)`` and holds it.
    """
    mass, diffusion = romsys.reduced_mass, romsys.reduced_diffusion
    loads, r, q = romsys.reduced_loads, romsys.r, scheme.q
    weights = scheme.alpha_f[1:] / dt
    identity = np.eye(r)
    fixed_columns = np.vstack([*(w * mass.T for w in weights), diffusion.T, romsys.diffusion_lift[None]])
    tails = -np.cumsum(extrapolation_weights(q)[:0:-1])[::-1]  # v_0..v_{q-2}
    predictor_columns = np.vstack([*(v * identity for v in tails), np.zeros((r + 1, r))])
    history_operator = np.hstack([fixed_columns, predictor_columns])
    terms = np.ones(q * r + 1)  # (h[:-1] - h[1:], h_0, 1), written per step
    differences, newest = terms[: (q - 1) * r].reshape(q - 1, r), terms[(q - 1) * r : -1]
    block_and_predictor = np.empty((2 * r + 3, r))  # the block (S^T; K^T; fixed), then the predictor
    block, predictor = block_and_predictor[:-1], block_and_predictor[-1]
    slope_t = block[: r + 1].reshape(-1)  # S^T, written per candidate
    slope_rows, stiffness_t = block[1 : r + 1], block[r + 1 : -1]
    stiffness_t[:] = ((scheme.delta_f[0] / dt) * mass + diffusion).T  # K^T
    fixed_and_predictor = block_and_predictor[-2:].reshape(-1)  # written per step
    z = np.ones(2 * r + 2)  # (1, c, d, 1)
    chat, candidate, increment = z[: r + 1], z[1 : r + 1], z[r + 1 : -1]
    jt = np.empty((r, r))  # J^T, written per update
    twice_identity = 2.0 * identity
    held = None  # the inverse Jacobian F the run formed or refined last

    def at_step(history, t):
        h = as_history(history, q)
        h0 = h[0]
        np.subtract(h[:-1], h[1:], out=differences)
        newest[:] = h0
        terms.dot(history_operator, out=fixed_and_predictor)
        if len(loads):
            block[-1] -= romsys.system.amplitudes(t).dot(loads)

        def linearise(d):
            np.add(h0, d, out=candidate)
            increment[:] = d
            reaction_slope(romsys, chat, out=slope_t)

            def solve(rhs, tol, reuse=False):
                nonlocal held
                jacobian = rom_jacobian(romsys, slope_rows, stiffness_t, jt)
                if held is None or not reuse:
                    held = dense_lu_solve(jacobian, identity)
                else:  # one Newton-Schulz step
                    product = jacobian.dot(held)
                    held = held.dot(np.subtract(twice_identity, product, out=product))
                return held.dot(rhs)

            return rom_residual(z, block), solve

        return predictor, linearise

    return at_step


def initial_coords(romsys: RomSystem, nodal: np.ndarray) -> np.ndarray:
    """Reduced coordinates of a nodal state, stacked or (nc, n_dof): the
    coefficients of P^r (nodal - lift)."""
    coeffs, _ = project(romsys.basis, romsys.r, np.reshape(nodal, -1) - romsys.lift)
    return coeffs


def rom_integrate(
    romsys: ReducedSystem,
    q: int,
    dt: float,
    t_end: float,
    init,
    newton_rule="step-coupled",
) -> RomTrajectory:
    """BDF-q time loop in reduced coordinates.

    ``init`` is ("bootstrap", coords0): the q - 1 further starting values
    are bootstrapped from the reduced initial condition coords0 with
    lower-order integrations. ``newton_rule`` goes to ``bdf.integrate``
    as it is: each segment's Newton tolerance is ``bdf.newton_tolerance`` of
    it at the segment's own order and step.
    """
    mode, coords0 = init
    if mode != "bootstrap":
        raise ValueError(f"unknown init mode {mode!r}")
    linearisation = partial(rom_linearisation, romsys)
    coords, counts, boot_counts = integrate(q, dt, t_end, [coords0], linearisation, newton_rule)
    return RomTrajectory(
        coords,
        dt,
        q,
        np.array(counts, dtype=np.int64),
        np.array(boot_counts, dtype=np.int64),
        newton_rule,
    )


def rom_to_nodal_trajectory(romsys: RomSystem, rt: RomTrajectory) -> Trajectory:
    """Lift a reduced trajectory back to stacked nodal states."""
    nodal = rt.coords @ romsys.modes.T + romsys.lift[None, :]
    states = nodal.reshape(len(rt.coords), romsys.system.n_components, romsys.space.n_dof)
    return Trajectory(states, rt.dt, romsys.space)


def save_rom_trajectory(romsys: ReducedSystem, rt: RomTrajectory, stem: str, space: dict):
    """Reduced data only: the header <stem>.traj (``fom.save_header`` of ``space``,
    with r, q and the Newton rule), the (r, M + 1) coordinates <stem>.coords.mtx
    and the Newton counts <stem>.newton.csv. Nodal states: lift + modes @ coords."""
    extra = {"r": romsys.r, "q": rt.q, "newton_rule": rt.newton_rule}
    save_header(stem, rt.dt, len(rt.coords) - 1, romsys.system.n_components, space, extra)
    mmio.write_dense(stem + ".coords.mtx", rt.coords.T)
    counts = rt.newton_iteration_counts
    rows = np.column_stack((rt.q + np.arange(len(counts)), counts))
    header = "step,newton_iterations"
    np.savetxt(stem + ".newton.csv", rows, fmt="%d", delimiter=",", header=header, comments="")
