"""Snapshot sets of tau-scaled first-order difference quotients, correlation
matrices in the H^1_0 (or L^2) inner product, POD modes, projectors and the
eigenvalue-tail identity. Every projection onto the modes goes through
``project``, which holds the one rank check 0 <= r <= d_r, and every
projection error ||(I - P^r) v||_G through ``projection_errors``.

With N = M + 1 snapshots the first column is sqrt(N) w0 (w0 = initial state,
trajectory mean, or identically zero after mean subtraction) and columns
2..N are tau (u(t_{j-1}) - u(t_{j-2})) / dt. The zero column contributed in
the zero-after-mean mode is kept so the 1/N scaling is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mmio
from .fom import Trajectory
from .linalg import sym_eigen
from .mesh_fem import ElementOperator, FeSpace

W0_INITIAL = "initial"
W0_MEAN = "mean"
W0_ZERO = "zero-after-mean-subtraction"
W0_MODES = (W0_INITIAL, W0_MEAN, W0_ZERO)

H10 = "H10"
L2 = "L2"
INNER_PRODUCTS = (H10, L2)

#: correlation eigenvalues below RANK_TOL * lambda_1 are numerically zero
RANK_TOL = 1e-12

#: Poincare constant upper bound on the unit square, reporting only.
POINCARE_UNIT_SQUARE = 1.0 / (np.pi * np.sqrt(2.0))


class DegenerateSnapshotsError(Exception):
    pass


class InvalidRankError(ValueError):
    pass


@dataclass
class SnapshotSet:
    columns: np.ndarray  # (dim, N)
    tau: float
    dt: float
    w0_mode: str
    mean: np.ndarray  # stored mean (zero unless mean-subtraction was applied)

    @property
    def n_snapshots(self) -> int:
        return self.columns.shape[1]


@dataclass
class PodBasis:
    inner_product: str
    eigenvalues: np.ndarray  # strictly positive, descending
    modes: np.ndarray  # (dim, d_r), orthonormal in the declared inner product
    gram_operator: ElementOperator

    @property
    def d_r(self) -> int:
        return len(self.eigenvalues)


def build_snapshots(traj: Trajectory, tau: float, w0_mode: str = W0_ZERO) -> SnapshotSet:
    """Assemble the N = M + 1 snapshot columns from a trajectory."""
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if traj.n_steps < 1:
        raise ValueError("trajectory needs at least one interval")
    u = traj.stacked()  # (M + 1, dim)
    m = traj.n_steps
    n = m + 1
    mean = u.mean(axis=0)
    if w0_mode == W0_INITIAL:
        w0 = u[0]
        stored_mean = np.zeros_like(mean)
    elif w0_mode == W0_MEAN:
        w0 = mean
        stored_mean = np.zeros_like(mean)
    elif w0_mode == W0_ZERO:
        w0 = np.zeros_like(mean)
        stored_mean = mean
    else:
        raise ValueError(f"unknown w0 mode {w0_mode!r}")
    cols = np.empty((u.shape[1], n))
    cols[:, 0] = np.sqrt(n) * w0
    cols[:, 1:] = (tau / traj.dt) * (u[1:] - u[:-1]).T
    return SnapshotSet(cols, tau, traj.dt, w0_mode, stored_mean)


def gram_matrix(space: FeSpace, inner_product: str, n_components: int) -> ElementOperator:
    """The space's stacked stiffness (H10) or mass (L2) operator."""
    if inner_product == H10:
        return space.stiffness_matrix(n_components)
    if inner_product == L2:
        return space.mass_matrix(n_components)
    raise ValueError(f"unknown inner product {inner_product!r}, expected {H10} or {L2}")


def correlation_matrix(snaps: SnapshotSet, gram: ElementOperator) -> np.ndarray:
    """K_ij = (1/N) (y_i, y_j)_X for the chosen inner product."""
    if gram.cols != snaps.columns.shape[0]:
        raise ValueError("gram operator does not conform with the snapshot columns")
    gy = gram.matvec(snaps.columns)
    return (snaps.columns.T @ gy) / snaps.n_snapshots


def pod_basis(
    snaps: SnapshotSet,
    k: np.ndarray,
    gram: ElementOperator,
    inner_product: str = H10,
) -> PodBasis:
    """Eigenpairs of the correlation matrix and the induced orthonormal modes.

    Eigenvalues below RANK_TOL * lambda_1 are discarded as numerically zero.
    """
    lam, vecs = sym_eigen(k)
    if not (len(lam) and 0 < lam[0] < np.inf):
        raise DegenerateSnapshotsError("all correlation eigenvalues are numerically zero")
    d_r = int(np.sum(lam > RANK_TOL * lam[0]))
    lam = lam[:d_r]
    vecs = vecs[:, :d_r]
    n = snaps.n_snapshots
    modes = snaps.columns @ (vecs / (np.sqrt(n) * np.sqrt(lam))[None, :])
    # deterministic sign: largest-magnitude entry of each mode made positive
    largest = modes[np.argmax(np.abs(modes), axis=0), np.arange(d_r)]
    modes[:, largest < 0] *= -1.0
    return PodBasis(inner_product, lam.copy(), modes, gram)


def build_pod_basis(
    traj: Trajectory,
    tau: float = 1.0,
    w0_mode: str = W0_ZERO,
    inner_product: str = H10,
):
    """Convenience pipeline: snapshots -> correlation matrix -> basis."""
    snaps = build_snapshots(traj, tau, w0_mode)
    n_comp = traj.states.shape[1]
    gram = gram_matrix(traj.space, inner_product, n_comp)
    k = correlation_matrix(snaps, gram)
    basis = pod_basis(snaps, k, gram, inner_product)
    return snaps, basis


def project(basis: PodBasis, r: int, v: np.ndarray):
    """Best approximation in span of the first r modes, 0 <= r <= d_r, of a
    vector or of the columns of a matrix; returns (coefficients,
    reconstruction)."""
    if not 0 <= r <= basis.d_r:
        raise InvalidRankError(f"rank {r} is outside 0..{basis.d_r}, the basis dimension")
    phi = basis.modes[:, :r]
    coeffs = phi.T @ basis.gram_operator.matvec(np.asarray(v, dtype=np.float64))
    return coeffs, phi @ coeffs


def projection_errors(basis: PodBasis, r: int, v: np.ndarray, grams):
    """(coefficients of P^r v, ||(I - P^r) v_j||_G^2) for the columns v_j: the
    errors a (len(grams), n) array, one row per Gram operator G in ``grams``.
    The residual is formed in the projection's buffer and resid * G resid in
    the buffer of G resid (a new array from each ``g.matvec``), so neither
    allocates another array of v's size."""
    coeffs, resid = project(basis, r, v)
    np.subtract(v, resid, out=resid)
    sq = []
    for g in grams:
        weighted = g.matvec(resid)
        sq.append(np.sum(np.multiply(resid, weighted, out=weighted), axis=0))
    return coeffs, np.array(sq)


def tail_identity_check(snaps: SnapshotSet, basis: PodBasis, r: int):
    """Both sides of the projection identity: the mean-square projection error
    of the snapshot columns versus the eigenvalue tail sum_{k>r} lambda_k."""
    sq = projection_errors(basis, r, snaps.columns, [basis.gram_operator])[1][0]
    return float(np.sum(sq)) / snaps.n_snapshots, float(np.sum(basis.eigenvalues[r:]))


def pointwise_projection_report(traj: Trajectory, snaps: SnapshotSet, basis: PodBasis, r: int):
    """Measured pointwise projection maxima against the eigenvalue-tail bound.

    The states are centred on ``snaps.mean`` (zero unless the set was built
    with mean subtraction), and the bound uses the set's ``tau`` and
    ``w0_mode``. Returns (max_l2, max_h1, bound_l2, bound_h1). Both bounds
    are stated for an H10 basis (ValueError otherwise): the H1 bound
    (2 + 4 Ctilde T^2 / tau^2) * tail is constant-free; the L2 bound uses the
    analytic unit-square Poincare constant and is informational only.
    """
    if basis.inner_product != H10:
        raise ValueError(f"the pointwise bound needs an {H10} basis, got {basis.inner_product}")
    c_tilde = 1.0 if snaps.w0_mode == W0_INITIAL else 4.0
    u = traj.stacked() - snaps.mean[None, :]
    nc = traj.states.shape[1]
    grams = [gram_matrix(traj.space, L2, nc), gram_matrix(traj.space, H10, nc)]
    l2_sq, h1_sq = projection_errors(basis, r, u.T, grams)[1]
    t_total = traj.times[-1] - traj.times[0]
    tail = float(np.sum(basis.eigenvalues[r:]))
    factor = 2.0 + 4.0 * c_tilde * t_total**2 / snaps.tau**2
    bound_h1 = factor * tail
    bound_l2 = POINCARE_UNIT_SQUARE**2 * bound_h1
    return (
        float(np.sqrt(np.max(l2_sq))),
        float(np.sqrt(np.max(h1_sq))),
        float(np.sqrt(bound_l2)),
        float(np.sqrt(bound_h1)),
    )


# ---------------------------------------------------------------------------
# export (``podrom pod``); nothing in the pipeline reads these files back
# ---------------------------------------------------------------------------


def save_basis(basis: PodBasis, stem: str):
    mmio.write_dense(stem + ".modes.mtx", basis.modes)
    header = f"inner_product = {basis.inner_product}"
    np.savetxt(stem + ".eigs.txt", basis.eigenvalues, fmt="%.17g", header=header)


def save_snapshots(snaps: SnapshotSet, stem: str):
    mmio.write_dense(stem + ".snaps.mtx", snaps.columns)
    mmio.write_dense(stem + ".mean.mtx", snaps.mean[:, None])
    with open(stem + ".snapmeta", "w") as fh:
        fh.write(f"tau = {snaps.tau:.17g}\n")
        fh.write(f"dt = {snaps.dt:.17g}\n")
        fh.write(f"w0_mode = {snaps.w0_mode}\n")
