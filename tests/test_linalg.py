"""Dense/sparse kernels checked against independent small-scale oracles:
bisection on Sturm-like inertia counts for eigenvalues, Cramer's rule with
subset-DP determinants for the LU solver, and densification for the sparse
paths.
"""

import numpy as np
import pytest

from helpers import as_dense, krylov_solve_oracle
from podrom import fom, linalg, mesh_fem
from podrom.linalg import (
    ConvergenceError,
    CsrMatrix,
    SingularMatrixError,
    block_csr,
    csr_matvec,
    dense_lu_solve,
    krylov_solve,
    sym_eigen,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _inertia_below(a, x):
    """Number of eigenvalues of symmetric a strictly below x, via the signs
    of the pivots of an LDL^T-style elimination of a - x I (Sylvester's law).
    """
    m = a - x * np.eye(len(a))
    n = len(m)
    count = 0
    m = m.copy()
    for k in range(n):
        piv = m[k, k]
        if piv == 0.0:
            piv = 1e-300
        if piv < 0:
            count += 1
        m[k + 1 :, k + 1 :] -= np.outer(m[k + 1 :, k], m[k, k + 1 :]) / piv
    return count


def eigenvalues_by_bisection(a, tol=1e-11):
    """All eigenvalues of a symmetric matrix by inertia bisection."""
    n = len(a)
    radius = float(np.max(np.sum(np.abs(a), axis=1))) + 1.0
    eigs = []
    for k in range(1, n + 1):  # k-th smallest
        lo, hi = -radius, radius
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if _inertia_below(a, mid) >= k:
                hi = mid
            else:
                lo = mid
        eigs.append(0.5 * (lo + hi))
    return np.array(sorted(eigs, reverse=True))


def determinant_by_expansion(a):
    """Determinant via dynamic programming over column subsets (no LU)."""
    n = len(a)
    prev = {0: 1.0}
    for i in range(n):
        nxt = {}
        for mask, val in prev.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                sign = (-1.0) ** bin(mask & (bit - 1)).count("1")
                key = mask | bit
                nxt[key] = nxt.get(key, 0.0) + sign * a[i, j] * val
        prev = nxt
    return prev[(1 << n) - 1]


def solve_by_cramer(a, b):
    det = determinant_by_expansion(a)
    x = np.empty(len(b))
    for j in range(len(b)):
        aj = a.copy()
        aj[:, j] = b
        x[j] = determinant_by_expansion(aj) / det
    return x


def eye_csr(n):
    idx = np.arange(n)
    return CsrMatrix.from_coo(n, n, idx, idx, np.ones(n))


def random_csr(rng, rows, cols, density=0.2):
    dense = rng.standard_normal((rows, cols)) * (rng.random((rows, cols)) < density)
    ri, ci = np.nonzero(dense)
    return CsrMatrix.from_coo(rows, cols, ri, ci, dense[ri, ci]), dense


def csr_with_empty_rows(rng, cols):
    """7-row matrix whose first, middle two and last rows are empty."""
    _, dense = random_csr(rng, 7, cols, density=0.6)
    dense[[0, 3, 4, 6]] = 0.0
    ri, ci = np.nonzero(dense)
    return CsrMatrix.from_coo(7, cols, ri, ci, dense[ri, ci]), dense


# ---------------------------------------------------------------------------
# sym_eigen
# ---------------------------------------------------------------------------


class TestSymEigen:
    def test_identity(self):
        lam, _ = sym_eigen(np.eye(3))
        assert np.allclose(lam, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        lam, vecs = sym_eigen(np.diag([4.0, 1.0, 0.0]))
        assert np.allclose(lam, [4.0, 1.0, 0.0], atol=1e-14)
        # axis eigenvectors up to sign
        assert np.allclose(np.abs(vecs), np.eye(3), atol=1e-14)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((8, 8))
        a = a + a.T
        lam, _ = sym_eigen(a)
        oracle = eigenvalues_by_bisection(a)
        assert np.max(np.abs(lam - oracle)) < 1e-9

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 12))
        a = a + a.T
        lam, v = sym_eigen(a)
        assert np.all(np.diff(lam) <= 1e-12)
        rel = np.linalg.norm(v @ np.diag(lam) @ v.T - a) / np.linalg.norm(a)
        assert rel < 1e-10
        assert np.max(np.abs(v.T @ v - np.eye(12))) < 1e-12
        for k in range(12):
            assert np.linalg.norm(a @ v[:, k] - lam[k] * v[:, k]) <= 1e-10 * np.linalg.norm(a)

    def test_trace_and_shift(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 6))
        a = a + a.T
        lam, _ = sym_eigen(a)
        assert abs(lam.sum() - np.trace(a)) < 1e-10 * max(1.0, abs(np.trace(a)))
        shifted, _ = sym_eigen(a + 2.5 * np.eye(6))
        assert np.max(np.abs(shifted - (lam + 2.5))) < 1e-10

    def test_rejects_nonsquare_and_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eigen(np.ones((2, 3)))
        bad = np.array([[1.0, 2.0], [0.5, 1.0]])
        with pytest.raises(ValueError):
            sym_eigen(bad)


# ---------------------------------------------------------------------------
# CSR
# ---------------------------------------------------------------------------


class TestCsr:
    def test_identity_matvec(self):
        x = np.arange(5.0)
        assert np.array_equal(eye_csr(5).matvec(x), x)

    def test_zero_matrix(self):
        a = CsrMatrix.from_coo(4, 4, [], [], [])
        assert a.nnz == 0 and np.array_equal(a.row_offsets, np.zeros(5))
        assert np.array_equal(a.matvec(np.ones(4)), np.zeros(4))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        a, dense = random_csr(rng, 20, 20)
        x = rng.standard_normal(20)
        assert np.max(np.abs(a.matvec(x) - dense @ x)) < 1e-14
        a, dense = csr_with_empty_rows(rng, 20)
        assert np.max(np.abs(a.matvec(x) - dense @ x)) < 1e-14

    def test_linearity(self):
        rng = np.random.default_rng(9)
        a, _ = random_csr(rng, 15, 15)
        x, y = rng.standard_normal(15), rng.standard_normal(15)
        lhs = a.matvec(x + y)
        rhs = a.matvec(x) + a.matvec(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    @pytest.mark.parametrize(
        "ri, ci",
        [([0, 3], [0, 1]), ([0, -1], [0, 1]), ([0, 1], [0, 3]), ([0, 1], [-1, 0]), ([0, 1], [2])],
    )
    def test_unpaired_or_outside_triplets_raise(self, ri, ci):
        with pytest.raises(ValueError, match="must be paired and inside the 3 x 3 matrix"):
            CsrMatrix.from_coo(3, 3, ri, ci, [1.0, 2.0])

    @pytest.mark.parametrize(
        "offsets, message",
        [([0, 1], r"row_offsets must have length rows \+ 1"), ([0, 2, 1], "row_offsets must be nondecreasing")],
        ids=["length", "decreasing"],
    )
    def test_rejects_bad_row_offsets(self, offsets, message):
        with pytest.raises(ValueError, match=message):
            CsrMatrix(2, 2, offsets, [0, 1], [1.0, 2.0])

    def test_duplicate_triplets_are_summed(self):
        a = CsrMatrix.from_coo(2, 2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0])
        assert np.allclose(as_dense(a), [[0.0, 5.0], [4.0, 0.0]])

    @pytest.mark.parametrize("vals, want", [([1e16, 1.0, -1e16], 0.0), ([1e16, -1e16, 1.0], 1.0)])
    def test_duplicates_are_summed_in_triplet_order(self, vals, want):
        # 1e16 + 1 rounds to 1e16: the 1 survives only after the cancellation
        a = CsrMatrix.from_coo(1, 1, [0, 0, 0], [0, 0, 0], vals)
        assert a.values.tolist() == [want]

    def test_column_indices_sorted_within_rows(self):
        a = CsrMatrix.from_coo(2, 3, [0, 0, 1], [2, 0, 1], [1.0, 2.0, 3.0])
        s, e = a.row_offsets[0], a.row_offsets[1]
        assert np.all(np.diff(a.col_indices[s:e]) > 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eye_csr(3).matvec(np.ones(4))

    def test_matrix_matrix_matvec(self):
        rng = np.random.default_rng(13)
        a, dense = random_csr(rng, 8, 6)
        x = rng.standard_normal((6, 4))
        assert np.max(np.abs(csr_matvec(a, x) - dense @ x)) < 1e-13
        a, dense = csr_with_empty_rows(rng, 6)
        assert np.max(np.abs(csr_matvec(a, x) - dense @ x)) < 1e-13

    def test_chunked_matrix_matvec_is_columnwise(self):
        # a 2-D product: each column equals its 1-D product bit for bit, with
        # and without empty first, middle and last rows
        rng = np.random.default_rng(19)
        n = 1200
        _, dense = random_csr(rng, n, n, density=0.05)
        for empty in ([], [0, n // 2, n - 1]):
            dense[empty] = 0.0
            ri, ci = np.nonzero(dense)
            a = CsrMatrix.from_coo(n, n, ri, ci, dense[ri, ci])
            x = rng.standard_normal((n, 10))
            out = csr_matvec(a, x)
            columns = np.column_stack([csr_matvec(a, np.ascontiguousarray(c)) for c in x.T])
            assert np.array_equal(out, columns)
            assert np.max(np.abs(out - dense @ x)) < 1e-12

    def test_direct_construction_checks_values_and_indices(self):
        # a direct construction needs one value per column index, each
        # column inside the matrix
        with pytest.raises(ValueError, match="equal length"):
            CsrMatrix(2, 3, [0, 2, 3], [0, 2, 1], np.zeros(4))
        with pytest.raises(ValueError, match="column index out of range"):
            CsrMatrix(2, 3, [0, 2, 3], [0, 3, 1], np.ones(3))

    def test_block_csr(self):
        rng = np.random.default_rng(17)
        pattern, dense = random_csr(rng, 5, 5, density=0.4)
        vals2 = rng.standard_normal(pattern.nnz)
        blocks = {(0, 0): pattern.values, (1, 0): vals2}
        big = block_csr(pattern, blocks, 2)
        lower = np.zeros((5, 5))
        lower[pattern.row_indices(), pattern.col_indices] = vals2
        expect = np.zeros((10, 10))
        expect[:5, :5] = dense
        expect[5:, :5] = lower
        assert np.max(np.abs(as_dense(big) - expect)) < 1e-14


# ---------------------------------------------------------------------------
# dense LU
# ---------------------------------------------------------------------------


class TestDenseLu:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        assert np.array_equal(dense_lu_solve(np.eye(3), b), b)

    def test_diagonal_2x2(self):
        x = dense_lu_solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0])

    def test_matches_cramer_oracle(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((10, 10)) + 10.0 * np.eye(10)
        b = rng.standard_normal(10)
        x = dense_lu_solve(a, b)
        assert np.max(np.abs(x - solve_by_cramer(a, b))) < 1e-9

    def test_residual_bound(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((30, 30))
        b = rng.standard_normal(30)
        x = dense_lu_solve(a, b)
        res = np.linalg.norm(a @ x - b)
        assert res <= 1e-10 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b))

    def test_multiple_rhs(self):
        rng = np.random.default_rng(25)
        a = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
        b = rng.standard_normal((6, 3))
        x = dense_lu_solve(a, b)
        assert np.max(np.abs(a @ x - b)) < 1e-12

    def test_singular_raises_with_pivot(self):
        # exactly singular, and singular to working precision
        for a in ([[1.0, 2.0], [2.0, 4.0]], [[1.0, 2.0], [2.0, 4.0 + 1e-15]]):
            with pytest.raises(SingularMatrixError) as exc:
                dense_lu_solve(np.array(a), np.array([1.0, 1.0]))
            assert exc.value.pivot >= 0.0

    def test_non_finite_entry_is_singular_with_a_nan_pivot(self):
        # LU gives a non-finite solution, and the SVD then fails on the nan
        with pytest.raises(SingularMatrixError) as exc:
            dense_lu_solve(np.array([[1.0, np.nan], [0.0, 1.0]]), np.array([1.0, 1.0]))
        assert np.isnan(exc.value.pivot)

    def test_growth_on_a_regular_matrix_keeps_the_lu_solution(self, monkeypatch):
        # ||a|| ||x|| sqrt(eps) = 14.9 > ||b|| = 1 sends the solve to the SVD,
        # which finds sigma_min / sigma_max = 1e-9 well above 2 eps
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
        x = dense_lu_solve(np.diag([1.0, 1e-9]), np.array([0.0, 1.0]))
        assert calls == [1]
        assert np.array_equal(x, [0.0, 1.0 / 1e-9])

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            dense_lu_solve(np.ones((2, 3)), np.ones(2))

    def test_non_conforming_rhs_rejected(self):
        with pytest.raises(ValueError, match="right-hand side does not conform"):
            dense_lu_solve(np.eye(2), np.ones(3))


# ---------------------------------------------------------------------------
# BiCGStab
# ---------------------------------------------------------------------------


def laplacian_1d(n):
    ri, ci, vals = [], [], []
    for i in range(n):
        ri.append(i), ci.append(i), vals.append(2.0)
        if i > 0:
            ri.append(i), ci.append(i - 1), vals.append(-1.0)
        if i < n - 1:
            ri.append(i), ci.append(i + 1), vals.append(-1.0)
    return CsrMatrix.from_coo(n, n, ri, ci, vals)


def convection_diffusion_1d(n, seed):
    """A nonsymmetric n x n CSR matrix: upwinded 1-D convection-diffusion
    (2.5 on the diagonal, -1.8 below, -0.4 above) plus random entries three
    places off the diagonal on either side."""
    rng = np.random.default_rng(seed)
    i = np.arange(n)
    ri = np.concatenate([i, i[1:], i[:-1], i[3:], i[:-3]])
    ci = np.concatenate([i, i[:-1], i[1:], i[:-3], i[3:]])
    vals = np.concatenate(
        [np.full(n, 2.5), np.full(n - 1, -1.8), np.full(n - 1, -0.4), 0.3 * rng.standard_normal(2 * (n - 3))]
    )
    return CsrMatrix.from_coo(n, n, ri, ci, vals)


def brusselator_jacobian():
    """The FOM's Newton operator at a perturbed Brusselator state (n_side 4,
    P2): nonsymmetric, with Dirichlet rows passed through."""
    space = mesh_fem.build_space(mesh_fem.build_mesh(4), 2)
    op = fom.FomOperator(fom.brusselator_system(0.002), space)
    w = fom.perturbed_equilibrium(space, 0.3).ravel()
    return op.jacobian(w, op.jacobian_linear_part(137.0 / 60.0 / 0.05))


class Recording:
    """An operator that records a copy of every operand it is applied to
    and of every product, and fails when a product writes its operand."""

    def __init__(self, a):
        self.a, self.rows, self.cols = a, a.rows, a.cols
        self.products = []

    def diagonal(self):
        return self.a.diagonal()

    def matvec(self, x):
        operand = x.copy()
        y = self.a.matvec(x)
        assert np.array_equal(x, operand), "the product wrote its operand"
        self.products.append((operand, y.copy()))
        return y


def dense_csr(a):
    a = np.array(a, dtype=np.float64)
    ri, ci = np.nonzero(a)
    return CsrMatrix.from_coo(*a.shape, ri, ci, a[ri, ci])


class TestKrylov:
    @pytest.mark.parametrize(
        "a, b, products",
        [
            ([[0.0, 1.0], [-1.0, 0.0]], [1.0, 0.0], 1),  # r_hat . v = 0 (a rotation)
            ([[-1.0, -1.0], [0.0, 0.0]], [-1.0, 1.0], 2),  # t = a s_hat = 0
            ([[-1.0, -1.0], [-1.0, 0.0]], [-1.0, 0.0], 2),  # omega = 0, then r_hat . r = 0
        ],
        ids=["denominator", "t-zero", "omega-zero"],
    )
    def test_breakdown_raises(self, a, b, products):
        op = Recording(dense_csr(a))
        with pytest.raises(ConvergenceError, match="BiCGStab breakdown") as exc:
            krylov_solve(op, np.array(b))
        assert len(op.products) == products
        assert exc.value.residual > 0
        with pytest.raises(ConvergenceError, match="BiCGStab breakdown"):
            krylov_solve_oracle(dense_csr(a), np.array(b))

    def test_identity_one_iteration(self):
        b = np.array([1.0, 2.0, 3.0])
        x, iters = krylov_solve(eye_csr(3), b, tol=1e-12)
        assert np.allclose(x, b)
        assert iters <= 1

    def test_zero_rhs(self):
        x, iters = krylov_solve(laplacian_1d(10), np.zeros(10), tol=1e-12)
        assert np.array_equal(x, np.zeros(10))
        assert iters == 0

    def test_matches_dense_lu_oracle(self):
        n = 50
        a = laplacian_1d(n)
        b = np.ones(n)
        x, _ = krylov_solve(a, b, tol=1e-12)
        oracle = dense_lu_solve(as_dense(a), b)
        assert np.linalg.norm(a.matvec(x) - b) <= 1e-12 * np.linalg.norm(b) * 1.001
        assert np.max(np.abs(x - oracle)) < 1e-7  # Laplacian condition number ~ n^2

    def test_spd_converges_within_10n(self):
        n = 40
        a = laplacian_1d(n)
        rng = np.random.default_rng(31)
        b = rng.standard_normal(n)
        x, iters = krylov_solve(a, b, tol=1e-12)
        assert iters <= 10 * n
        assert np.linalg.norm(a.matvec(x) - b) <= 1e-12 * np.linalg.norm(b) * 1.001

    def test_max_iter_exhaustion(self):
        a = laplacian_1d(50)
        with pytest.raises(ConvergenceError) as exc:
            krylov_solve(a, np.ones(50), tol=1e-14, max_iter=2)
        assert exc.value.residual > 0

    def test_invalid_inputs(self):
        a = laplacian_1d(5)
        with pytest.raises(ValueError):
            krylov_solve(a, np.ones(5), tol=-1.0)
        with pytest.raises(ValueError):
            krylov_solve(a, np.ones(6))

    def test_non_square_operator_rejected(self):
        a = CsrMatrix.from_coo(2, 3, [0, 1], [0, 1], [1.0, 1.0])
        with pytest.raises(ValueError, match="krylov_solve requires a square matrix"):
            krylov_solve(a, np.ones(2))

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
    def test_rejects_a_tolerance_that_is_not_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            krylov_solve(laplacian_1d(5), np.ones(5), tol=tol)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["b", "x0"])
    def test_non_finite_input_raises_before_any_matvec(self, monkeypatch, bad, where):
        # a non-finite b used to run all 10 n iterations before it raised
        n = 200
        a = laplacian_1d(n)
        vecs = {"b": np.ones(n), "x0": np.zeros(n)}
        vecs[where][n // 2] = bad
        matvecs = []
        monkeypatch.setattr(linalg, "csr_matvec", lambda *args: matvecs.append(1))
        with pytest.raises(ConvergenceError, match="non-finite"):
            krylov_solve(a, vecs["b"], tol=1e-10, x0=vecs["x0"])
        assert matvecs == []

    def test_exact_start_takes_no_iterations(self):
        a = laplacian_1d(30)
        b = np.random.default_rng(5).standard_normal(30)
        exact = dense_lu_solve(as_dense(a), b)
        x, iters = krylov_solve(a, b, tol=1e-10, x0=exact)
        assert iters == 0
        assert np.array_equal(x, exact)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3])
    def test_start_meets_the_tolerance_relative_to_b(self, scale):
        # a start far worse than zero (scale 1e3) still ends at tol * ||b||
        n = 40
        a = laplacian_1d(n)
        rng = np.random.default_rng(9)
        b = rng.standard_normal(n)
        x0 = dense_lu_solve(as_dense(a), b) + scale * rng.standard_normal(n)
        x, iters = krylov_solve(a, b, tol=1e-10, x0=x0)
        assert iters > 0
        assert np.linalg.norm(a.matvec(x) - b) <= 1e-10 * np.linalg.norm(b) * 1.001

    def test_start_leaves_no_trace_on_the_caller(self):
        # the iterate is updated in place, so it must start as a copy of x0;
        # b and x0 stay unwritten, whether the start meets the tolerance
        # (0 iterations) or not
        a = laplacian_1d(10)
        b = np.arange(10.0)
        exact = dense_lu_solve(as_dense(a), b)
        for start in (np.ones(10), exact):
            x0, b_in = start.copy(), b.copy()
            x, _ = krylov_solve(a, b_in, tol=1e-10, x0=x0)
            assert np.array_equal(x0, start)
            assert np.array_equal(b_in, b)
            assert not np.shares_memory(x, x0) and not np.shares_memory(x, b_in)

    @pytest.mark.parametrize("shape", [(9,), (11,), (10, 1), ()])
    def test_start_of_wrong_shape_raises(self, shape):
        with pytest.raises(ValueError, match="x0 has shape"):
            krylov_solve(laplacian_1d(10), np.ones(10), x0=np.ones(shape))

    def test_zero_rhs_gives_zero_whatever_the_start(self):
        x, iters = krylov_solve(laplacian_1d(10), np.zeros(10), x0=np.arange(10.0))
        assert np.array_equal(x, np.zeros(10))
        assert iters == 0

    @pytest.mark.parametrize("operator", [convection_diffusion_1d, brusselator_jacobian], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("start", ["zero", "x0"])
    @pytest.mark.parametrize("tol", [1e-2, 1e-6, 1e-12])
    def test_iterates_match_the_fresh_array_loop_bit_for_bit(self, operator, start, tol):
        # the solver updates its iterate and search direction in place and
        # takes its norms as sqrt(v @ v); every operand of every product,
        # the solution and the count must be the fresh-array loop's
        a = operator(60, 3) if operator is convection_diffusion_1d else operator()
        rng = np.random.default_rng(17)
        b = rng.standard_normal(a.rows)
        x0 = 0.1 * rng.standard_normal(a.rows) if start == "x0" else None
        got, want = Recording(a), Recording(a)
        x, iters = krylov_solve(got, b, tol=tol, x0=x0)
        x_want, iters_want = krylov_solve_oracle(want, b, tol=tol, x0=x0)
        assert iters == iters_want > 0
        assert np.array_equal(x, x_want)
        assert len(got.products) == len(want.products)
        for (operand, y), (operand_want, y_want) in zip(got.products, want.products):
            assert np.array_equal(operand, operand_want)
            assert np.array_equal(y, y_want)

    def test_exhaustion_matches_the_fresh_array_loop_bit_for_bit(self):
        a = convection_diffusion_1d(60, 3)
        b = np.random.default_rng(17).standard_normal(60)
        with pytest.raises(ConvergenceError) as got:
            krylov_solve(a, b, tol=1e-15, max_iter=4)
        with pytest.raises(ConvergenceError) as want:
            krylov_solve_oracle(a, b, tol=1e-15, max_iter=4)
        assert got.value.residual == want.value.residual > 0
