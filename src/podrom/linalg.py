"""Dense and sparse linear algebra kernels.

Dense matrices are plain 2-D numpy arrays. Sparse matrices use a minimal
CSR container; every COO -> CSR conversion goes through one sort/segment
plan (``coo_plan``), which callers with fixed indices build once and refill.
The symmetric eigensolve and the dense direct solve are numpy's LAPACK
routines; the sparse iterative solver is BiCGStab with an optional Jacobi
preconditioner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class SingularMatrixError(Exception):
    """Raised when a direct solve meets a matrix singular to working precision."""

    def __init__(self, pivot: float):
        super().__init__(f"matrix is singular to working precision (pivot {pivot:.3e})")
        self.pivot = pivot


class ConvergenceError(Exception):
    """Raised when an iterative solver fails to reach its tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.message = message
        self.residual = residual


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
        if len(self.row_offsets) != self.rows + 1:
            raise ValueError("row_offsets must have length rows + 1")
        if np.any(np.diff(self.row_offsets) < 0):
            raise ValueError("row_offsets must be nondecreasing")
        if len(self.col_indices) != len(self.values):
            raise ValueError("col_indices and values must have equal length")
        if len(self.col_indices) and (
            self.col_indices.min() < 0 or self.col_indices.max() >= self.cols
        ):
            raise ValueError("column index out of range")

    @property
    def nnz(self) -> int:
        return len(self.values)

    # row index per stored entry, cached
    _row_of_entry: np.ndarray | None = field(default=None, repr=False, compare=False)

    def row_indices(self) -> np.ndarray:
        if self._row_of_entry is None:
            self._row_of_entry = np.repeat(
                np.arange(self.rows, dtype=np.int64), np.diff(self.row_offsets)
            )
        return self._row_of_entry

    @staticmethod
    def from_coo(rows: int, cols: int, ri, ci, vals) -> "CsrMatrix":
        """Build CSR from triplets, summing duplicates, columns sorted per row."""
        plan = coo_plan(rows, cols, ri, ci)
        return plan.csr(plan.assemble(vals))

    @staticmethod
    def identity(n: int) -> "CsrMatrix":
        idx = np.arange(n, dtype=np.int64)
        return CsrMatrix(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return csr_matvec(self, x)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        out[self.row_indices(), self.col_indices] = self.values
        return out

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
    products = a.values.reshape((-1,) + (1,) * (x.ndim - 1)) * x[a.col_indices]
    # reduceat would give an empty row the entry at its start, so only the
    # non-empty rows are reduced
    starts = a.row_offsets[:-1]
    filled = starts < a.row_offsets[1:]
    out = np.zeros((a.rows,) + x.shape[1:])
    out[filled] = np.add.reduceat(products, starts[filled], axis=0)
    return out


@dataclass
class CooPlan:
    """Sort/segment plan coalescing COO triplets with fixed indices into CSR.

    ``assemble`` sums the triplet values landing on each stored entry of
    ``pattern``; ``csr`` wraps pattern-aligned values in a matrix sharing the
    pattern's index arrays.
    """

    order: np.ndarray  # triplets in row-major (row, col) order
    starts: np.ndarray  # first sorted triplet of each stored entry
    pattern: CsrMatrix  # the coalesced structure, values zero

    def assemble(self, vals) -> np.ndarray:
        return np.add.reduceat(np.asarray(vals, dtype=np.float64)[self.order], self.starts)

    def csr(self, values: np.ndarray) -> CsrMatrix:
        p = self.pattern
        return CsrMatrix(p.rows, p.cols, p.row_offsets, p.col_indices, values)


def coo_plan(rows: int, cols: int, ri, ci) -> CooPlan:
    """The CooPlan of a (rows x cols) matrix with triplet indices ``ri``, ``ci``."""
    ri = np.asarray(ri, dtype=np.int64)
    ci = np.asarray(ci, dtype=np.int64)
    order = np.lexsort((ci, ri))
    rs, cs = ri[order], ci[order]
    new = np.ones(len(rs), dtype=bool)
    new[1:] = (rs[1:] != rs[:-1]) | (cs[1:] != cs[:-1])
    starts = np.flatnonzero(new)
    offsets = np.zeros(rows + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(np.bincount(rs[starts], minlength=rows))
    pattern = CsrMatrix(rows, cols, offsets, cs[starts], np.zeros(len(starts)))
    return CooPlan(order, starts, pattern)


def block_plan(pattern: CsrMatrix, keys, n_blocks: int) -> CooPlan:
    """CooPlan of an (n_blocks x n_blocks) block matrix whose blocks ``keys``
    share one scalar pattern, for values concatenated block by block."""
    n = pattern.rows
    ri = pattern.row_indices()
    ci = pattern.col_indices
    return coo_plan(
        n_blocks * n,
        n_blocks * n,
        np.concatenate([ri + bi * n for bi, _ in keys]),
        np.concatenate([ci + bj * n for _, bj in keys]),
    )


def block_csr(pattern: CsrMatrix, blocks: dict, n_blocks: int) -> CsrMatrix:
    """Assemble an (n_blocks x n_blocks) block matrix sharing one scalar pattern.

    ``blocks`` maps (bi, bj) to a value array aligned with ``pattern.values``;
    missing blocks are structurally zero.
    """
    keys = sorted(blocks)
    plan = block_plan(pattern, keys, n_blocks)
    return plan.csr(plan.assemble(np.concatenate([blocks[k] for k in keys])))


# ---------------------------------------------------------------------------
# symmetric eigendecomposition
# ---------------------------------------------------------------------------


@dataclass
class EigenDecomposition:
    eigenvalues: np.ndarray  # sorted descending
    eigenvectors: np.ndarray  # columns aligned with eigenvalues


def sym_eigen(a: np.ndarray) -> EigenDecomposition:
    """Full spectrum of a symmetric matrix (LAPACK), eigenvalues descending."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("sym_eigen requires a square matrix")
    scale = np.linalg.norm(a)
    if scale > 0 and np.max(np.abs(a - a.T)) > 1e-12 * scale:
        raise ValueError("sym_eigen requires a symmetric matrix")
    lam, vecs = np.linalg.eigh(0.5 * (a + a.T))
    order = np.argsort(-lam, kind="stable")
    return EigenDecomposition(lam[order], vecs[:, order])


# ---------------------------------------------------------------------------
# dense direct solve
# ---------------------------------------------------------------------------


def dense_lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b (LAPACK LU with partial pivoting).

    Raises SingularMatrixError, carrying the smallest singular value as the
    pivot, when a is singular to working precision: that value is at most
    n eps times the largest.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("dense_lu_solve requires a square matrix")
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValueError("right-hand side does not conform")
    try:
        sv = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError:  # the SVD fails on non-finite entries
        raise SingularMatrixError(float("nan")) from None
    if sv[-1] <= n * np.finfo(np.float64).eps * sv[0]:
        raise SingularMatrixError(float(sv[-1]))
    return np.linalg.solve(a, b)


# ---------------------------------------------------------------------------
# Krylov solve (BiCGStab)
# ---------------------------------------------------------------------------


def krylov_solve(
    a: CsrMatrix,
    b: np.ndarray,
    tol: float = 1e-12,
    max_iter: int | None = None,
    preconditioner: str = "jacobi",
    x0: np.ndarray | None = None,
):
    """BiCGStab iterate with ||a x - b|| <= tol * ||b||.

    Returns (x, iteration_count). Raises ConvergenceError on breakdown or
    iteration exhaustion.
    """
    if a.rows != a.cols:
        raise ValueError("krylov_solve requires a square matrix")
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != a.cols:
        raise ValueError("right-hand side does not conform")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = a.rows
    if max_iter is None:
        max_iter = 10 * n
    if preconditioner == "jacobi":
        d = a.diagonal()
        d = np.where(np.abs(d) > 0, d, 1.0)
        apply_m = lambda v: v / d
    elif preconditioner == "none":
        apply_m = lambda v: v
    else:
        raise ValueError(f"unknown preconditioner {preconditioner!r}")

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), 0
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    r = b - a.matvec(x)
    if np.linalg.norm(r) <= tol * bnorm:
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
        p_hat = apply_m(p)
        v = a.matvec(p_hat)
        denom = r_hat @ v
        if denom == 0.0:
            raise ConvergenceError("BiCGStab breakdown", float(np.linalg.norm(r)))
        alpha = rho / denom
        s = r - alpha * v
        if np.linalg.norm(s) <= tol * bnorm:
            x = x + alpha * p_hat
            return x, it
        s_hat = apply_m(s)
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
