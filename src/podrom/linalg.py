"""Dense and sparse linear algebra kernels.

Dense matrices are plain 2-D numpy arrays. The pipeline forms no sparse
matrix (its finite-element operators are applied element by element); the
minimal CSR container holds the assembled reference matrices of the tests.
It stays here only because the benchmark's tracer names ``block_csr``,
``CsrMatrix.from_coo`` and ``csr_matvec`` as targets, which read 0 on every
workload; the "sparse storage" section moves to the tests once a benchmark
change drops them. Every COO -> CSR conversion is ``CsrMatrix.from_coo``:
one ``unique`` of row-major keys and one ``bincount`` in triplet order. The
matvec reduces the products of each row with one ``reduceat``.
The symmetric eigensolve and the dense direct solve are numpy's LAPACK
routines; the iterative solver is BiCGStab with a Jacobi preconditioner, on
any square operator with ``rows``, ``cols``, ``matvec`` and ``diagonal()``:
the FOM's matrix-free Jacobian, or a CsrMatrix. Either solve fails with a
ConvergenceError, the one error the BDF loop names with its step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ConvergenceError(Exception):
    """Raised when a solve fails: an iterative one short of its tolerance, or a singular direct one."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.message = message
        self.residual = residual


class SingularMatrixError(ConvergenceError):
    """A direct solve met a matrix singular to working precision; no residual is formed (nan)."""

    def __init__(self, pivot: float):
        super().__init__(f"matrix is singular to working precision (pivot {pivot:.3e})", float("nan"))
        self.pivot = pivot


# ---------------------------------------------------------------------------
# sparse storage
# ---------------------------------------------------------------------------


@dataclass
class CsrMatrix:
    """Compressed sparse row matrix with sorted column indices per row."""

    rows: int
    cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.row_offsets = np.asarray(self.row_offsets, dtype=np.int64)
        self.col_indices = np.asarray(self.col_indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.col_indices) != len(self.values):
            raise ValueError("col_indices and values must have equal length")
        if len(self.row_offsets) != self.rows + 1:
            raise ValueError("row_offsets must have length rows + 1")
        if np.any(np.diff(self.row_offsets) < 0):
            raise ValueError("row_offsets must be nondecreasing")
        cols = self.col_indices
        if len(cols) and not 0 <= cols.min() <= cols.max() < self.cols:
            raise ValueError("column index out of range")

    @property
    def nnz(self) -> int:
        return len(self.values)

    def row_indices(self) -> np.ndarray:
        return np.repeat(np.arange(self.rows, dtype=np.int64), np.diff(self.row_offsets))

    @staticmethod
    def from_coo(rows: int, cols: int, ri, ci, vals) -> "CsrMatrix":
        """Build CSR from triplets, summing duplicates in triplet order,
        columns sorted per row; every triplet's entry is stored, zero or not."""
        ri = np.asarray(ri, dtype=np.int64)
        ci = np.asarray(ci, dtype=np.int64)
        if ri.shape != ci.shape or (
            len(ri) and not (0 <= ri.min() <= ri.max() < rows and 0 <= ci.min() <= ci.max() < cols)
        ):
            raise ValueError(f"COO triplet indices must be paired and inside the {rows} x {cols} matrix")
        # row-major keys: the sorted unique keys are the CSR entries in order
        keys, entry = np.unique(ri * cols + ci, return_inverse=True)
        values = np.bincount(entry, weights=vals, minlength=len(keys))
        offsets = np.searchsorted(keys, cols * np.arange(rows + 1))
        return CsrMatrix(rows, cols, offsets, keys % cols, values)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return csr_matvec(self, x)

    def diagonal(self) -> np.ndarray:
        d = np.zeros(min(self.rows, self.cols))
        on_diag = self.row_indices() == self.col_indices
        d[self.col_indices[on_diag]] = self.values[on_diag]
        return d


def csr_matvec(a: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector (or matrix-matrix, columnwise) product."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != a.cols:
        raise ValueError(f"dimension mismatch: matrix has {a.cols} cols, vector {x.shape[0]}")
    if x.ndim == 1:
        return _row_sums(a, a.values * np.take(x, a.col_indices))
    products = np.take(x.reshape(a.cols, -1), a.col_indices, axis=0)
    products *= a.values[:, None]
    return _row_sums(a, products).reshape((a.rows,) + x.shape[1:])


def _row_sums(a: CsrMatrix, products: np.ndarray) -> np.ndarray:
    """Sums over the stored entries of each row of ``products`` (one per entry)."""
    # reduceat would give an empty row the entry at its start, so only the
    # non-empty rows are reduced
    starts = a.row_offsets[:-1]
    filled = starts < a.row_offsets[1:]
    out = np.zeros((a.rows,) + products.shape[1:])
    out[filled] = np.add.reduceat(products, starts[filled], axis=0)
    return out


def block_csr(pattern: CsrMatrix, blocks: dict, n_blocks: int) -> CsrMatrix:
    """Assemble an (n_blocks x n_blocks) block matrix sharing one scalar pattern.

    ``blocks`` maps (bi, bj) to a value array aligned with ``pattern.values``;
    missing blocks are structurally zero.
    """
    keys = sorted(blocks)
    n = pattern.rows
    ri, ci = pattern.row_indices(), pattern.col_indices
    return CsrMatrix.from_coo(
        n_blocks * n,
        n_blocks * n,
        np.concatenate([ri + bi * n for bi, _ in keys]),
        np.concatenate([ci + bj * n for _, bj in keys]),
        np.concatenate([blocks[k] for k in keys]),
    )


# ---------------------------------------------------------------------------
# symmetric eigendecomposition
# ---------------------------------------------------------------------------


def sym_eigen(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum of a symmetric matrix (LAPACK): the eigenvalues, descending,
    and the eigenvectors as columns aligned with them."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("sym_eigen requires a square matrix")
    scale = np.linalg.norm(a)
    if scale > 0 and np.max(np.abs(a - a.T)) > 1e-12 * scale:
        raise ValueError("sym_eigen requires a symmetric matrix")
    lam, vecs = np.linalg.eigh(0.5 * (a + a.T))
    order = np.argsort(-lam, kind="stable")
    return lam[order], vecs[:, order]


# ---------------------------------------------------------------------------
# dense direct solve
# ---------------------------------------------------------------------------


_SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))


def dense_lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b (LAPACK LU with partial pivoting); with b the identity,
    x is the inverse of a, which the ROM holds as its Newton factor.

    When the solve fails, or its solution is non-finite or grows beyond
    ||b|| / (sqrt(eps) ||a||), an SVD decides: SingularMatrixError, carrying
    the smallest singular value as the pivot, is raised when a is singular
    to working precision (that value is at most n eps times the largest) or
    the LU failed. Besides a ValueError for a bad shape it raises no other.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("dense_lu_solve requires a square matrix")
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValueError("right-hand side does not conform")
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:  # an exactly zero pivot
        x = None
    else:
        # a finite solution whose growth ||a|| ||x|| / ||b|| stays below
        # 1 / sqrt(eps) rules out a matrix singular to working precision;
        # vdot flattens, so each is a Frobenius norm without np.linalg.norm's
        # dispatch, also for a multi-column b and x, where x.dot(x) would be
        # a matrix product (or fail on the shapes)
        growth = math.sqrt(np.vdot(a, a)) * math.sqrt(np.vdot(x, x)) * _SQRT_EPS
        if growth <= math.sqrt(np.vdot(b, b)):
            return x
    try:
        sv = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError:  # the SVD fails on non-finite entries
        raise SingularMatrixError(float("nan")) from None
    if x is None or sv[-1] <= n * np.finfo(np.float64).eps * sv[0]:
        raise SingularMatrixError(float(sv[-1]))
    return x


# ---------------------------------------------------------------------------
# Krylov solve (BiCGStab)
# ---------------------------------------------------------------------------


def krylov_solve(
    a,
    b: np.ndarray,
    tol: float = 1e-12,
    max_iter: int | None = None,
    x0: np.ndarray | None = None,
):
    """Jacobi-preconditioned BiCGStab iterate with ||a x - b|| <= tol * ||b||,
    started from ``x0``, or from zero when it is None. ``a`` is any square
    operator with ``rows``, ``cols``, ``matvec`` and ``diagonal()`` (the
    FOM's matrix-free Jacobian, or a CsrMatrix); only its products and its
    diagonal are used. The test stays relative to ||b||, whatever the start;
    b = 0 is solved by zero.

    Returns (x, iteration_count); a start that already meets the tolerance
    is returned with 0 iterations. Raises ValueError for a non-conforming
    operand or a tolerance that is not positive, and ConvergenceError at once
    for a non-finite b or x0, and on breakdown or iteration exhaustion.
    """
    if a.rows != a.cols:
        raise ValueError("krylov_solve requires a square matrix")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (a.cols,):
        raise ValueError("right-hand side does not conform")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if x0 is not None:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != b.shape:
            raise ValueError(f"x0 has shape {x0.shape}, expected {b.shape}")
    for name, v in (("right-hand side", b), ("start", x0)):
        if v is not None and not np.all(np.isfinite(v)):
            raise ConvergenceError(f"BiCGStab given a non-finite {name}", float("nan"))
    n = a.rows
    if max_iter is None:
        max_iter = 10 * n
    d = np.array(a.diagonal(), dtype=np.float64)
    d[~(np.abs(d) > 0)] = 1.0  # the Jacobi preconditioner, 1 on a zero diagonal entry

    # a norm is one ddot and a correctly rounded sqrt, as np.linalg.norm
    # takes it for a 1-D float64 vector, without its dispatch
    bnorm = math.sqrt(b.dot(b))
    if bnorm == 0.0:
        return np.zeros(n), 0
    if x0 is None:
        x = np.zeros(n)
        r = b.copy()  # the residual of the zero start
    else:
        x = x0.copy()
        r = b - a.matvec(x)
    if math.sqrt(r.dot(r)) <= tol * bnorm:  # the start already meets the tolerance
        return x, 0
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v, p = np.zeros(n), np.zeros(n)  # distinct: p is updated in place
    for it in range(1, max_iter + 1):
        rho_new = r_hat.dot(r)
        if rho_new == 0.0 or omega == 0.0:
            raise ConvergenceError("BiCGStab breakdown", math.sqrt(r.dot(r)))
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        # p = r + beta (p - omega v), each operation as written
        p -= omega * v
        p *= beta
        p += r
        p_hat = p / d
        v = a.matvec(p_hat)
        denom = r_hat.dot(v)
        if denom == 0.0:
            raise ConvergenceError("BiCGStab breakdown", math.sqrt(r.dot(r)))
        alpha = rho / denom
        s = r - alpha * v
        if math.sqrt(s.dot(s)) <= tol * bnorm:
            x += alpha * p_hat
            return x, it
        s_hat = s / d
        t = a.matvec(s_hat)
        tt = t.dot(t)
        if tt == 0.0:
            raise ConvergenceError("BiCGStab breakdown", math.sqrt(s.dot(s)))
        omega = t.dot(s) / tt
        x += alpha * p_hat
        x += omega * s_hat
        r = s - omega * t
        if math.sqrt(r.dot(r)) <= tol * bnorm:
            return x, it
    raise ConvergenceError(
        f"BiCGStab did not converge in {max_iter} iterations", math.sqrt(r.dot(r))
    )
