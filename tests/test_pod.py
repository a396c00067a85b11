"""POD pipeline: snapshot-column construction, correlation matrices against a
dense triple-product oracle, mode orthonormality and scaling laws, projector
properties, the eigenvalue-tail identity, pointwise bounds, persistence."""

import numpy as np
import pytest

from helpers import as_dense, eye_csr, projection_errors_oracle
from podrom.fom import Trajectory, brusselator_system, fom_integrate, perturbed_equilibrium
from podrom.harness import DEFAULT_T
from podrom import mmio
from podrom.mesh_fem import assemble_stiffness, build_mesh, build_space
from podrom.rom import initial_coords, rom_assemble, rom_integrate
from podrom.pod import (
    H10,
    L2,
    RANK_TOL,
    W0_INITIAL,
    W0_MEAN,
    W0_ZERO,
    DegenerateSnapshotsError,
    InvalidRankError,
    SnapshotSet,
    build_pod_basis,
    build_snapshots,
    correlation_matrix,
    gram_matrix,
    pod_basis,
    pointwise_projection_report,
    project,
    projection_errors,
    save_basis,
    save_snapshots,
    tail_identity_check,
)


def toy_trajectory(states_2d, dt=0.5, n_side=2, degree=1):
    """Wrap rows of states_2d (one per time level) into a scalar Trajectory."""
    space = build_space(build_mesh(n_side), degree)
    arr = np.asarray(states_2d, dtype=np.float64)[:, None, :]
    assert arr.shape[2] == space.n_dof
    return Trajectory(arr, dt, space), space


def brusselator_trajectory(n_side=4, m=16, t_end=1.6):
    space = build_space(build_mesh(n_side), 2)
    sys = brusselator_system(0.002)
    return fom_integrate(sys, space, perturbed_equilibrium(space), t_end / m, t_end, 3), space


class TestSnapshotConstruction:
    def test_two_step_columns_by_hand(self):
        a = np.arange(9.0)
        b = a + 2.0
        traj, _ = toy_trajectory([a, b], dt=0.5)
        snaps = build_snapshots(traj, tau=2.0, w0_mode=W0_INITIAL)
        assert snaps.n_snapshots == 2
        assert np.allclose(snaps.columns[:, 0], np.sqrt(2.0) * a, atol=1e-14)
        assert np.allclose(snaps.columns[:, 1], 2.0 * (b - a) / 0.5, atol=1e-14)
        assert np.all(snaps.mean == 0.0)

    def test_mean_and_zero_modes(self):
        a = np.arange(9.0)
        b = a + 2.0
        traj, _ = toy_trajectory([a, b])
        mean = build_snapshots(traj, 1.0, W0_MEAN)
        assert np.allclose(mean.columns[:, 0], np.sqrt(2.0) * (a + 1.0), atol=1e-14)
        zero = build_snapshots(traj, 1.0, W0_ZERO)
        assert np.all(zero.columns[:, 0] == 0.0)
        assert np.allclose(zero.mean, a + 1.0, atol=1e-14)

    def test_differences_cancel_constant_shift(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((5, 9))
        traj, _ = toy_trajectory(u)
        shifted, _ = toy_trajectory(u + 7.0)
        s1 = build_snapshots(traj, 1.0, W0_ZERO)
        s2 = build_snapshots(shifted, 1.0, W0_ZERO)
        assert np.allclose(s1.columns, s2.columns, atol=1e-12)

    def test_invalid_inputs(self):
        traj, _ = toy_trajectory(np.zeros((2, 9)))
        with pytest.raises(ValueError):
            build_snapshots(traj, 0.0, W0_INITIAL)
        with pytest.raises(ValueError):
            build_snapshots(traj, 1.0, "nonsense")
        short, _ = toy_trajectory(np.zeros((1, 9)))
        with pytest.raises(ValueError):
            build_snapshots(short, 1.0, W0_INITIAL)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_rejects_tau_that_is_not_positive_and_finite(self, tau):
        traj, _ = toy_trajectory(np.eye(9)[:3])
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            build_snapshots(traj, tau, W0_ZERO)


class TestCorrelationMatrix:
    def test_against_dense_triple_product(self):
        traj, space = brusselator_trajectory()
        snaps = build_snapshots(traj, 1.3, W0_MEAN)
        gram = gram_matrix(space, H10, 2)
        k = correlation_matrix(snaps, gram)
        y = snaps.columns
        dense = y.T @ np.kron(np.eye(2), as_dense(assemble_stiffness(space))) @ y / snaps.n_snapshots
        assert np.max(np.abs(k - dense)) < 1e-12 * max(1.0, np.max(np.abs(dense)))
        assert np.max(np.abs(k - k.T)) < 1e-13 * max(1.0, np.max(np.abs(k)))

    def test_single_and_duplicated_column(self):
        a = np.zeros(9)
        a[4] = 1.0  # interior dof on the 2x2 mesh
        traj, space = toy_trajectory([a, 2 * a])
        gram = gram_matrix(space, H10, 1)
        snaps = build_snapshots(traj, 1.0, W0_INITIAL)
        k = correlation_matrix(snaps, gram)
        aa = float(a @ gram.matvec(a))
        # columns are [sqrt(2) a, 2 a]; K = (1/2) [[2aa, 2sqrt2 aa],[., 4aa]]
        want = 0.5 * aa * np.array([[2.0, 2.0 * np.sqrt(2.0)], [2.0 * np.sqrt(2.0), 4.0]])
        assert np.allclose(k, want, rtol=1e-13)

    def test_nonconforming_gram_rejected(self):
        traj, space = toy_trajectory(np.zeros((2, 9)))
        snaps = build_snapshots(traj, 1.0, W0_INITIAL)
        with pytest.raises(ValueError):
            correlation_matrix(snaps, eye_csr(5))
        # 10 rows are one field of the 9-dof space and a row left over
        with pytest.raises(ValueError, match="does not conform"):
            pod_basis(_raw_snaps(np.ones((10, 2))), space, H10)

    def test_gram_operator_is_the_spaces_stacked_operator(self):
        # a selector over the space's stacked operators: they apply the element
        # matrices the space formed once, so nothing is assembled per call
        space = build_space(build_mesh(2), 2)
        for nc in (1, 2):
            for name, elements in ((H10, space.element_stiffness), (L2, space.element_mass)):
                gram = gram_matrix(space, name, nc)
                assert gram.elements is elements
                assert gram.n_components == nc

    def test_unknown_inner_product_rejected(self):
        # the names are case-sensitive: "h10" is not silently the L2 product
        traj, space = toy_trajectory(np.zeros((2, 9)))
        for name in ("h10", "l2", "H1"):
            with pytest.raises(ValueError, match="unknown inner product"):
                gram_matrix(space, name, 1)
        with pytest.raises(ValueError, match="unknown inner product"):
            build_pod_basis(traj, 1.0, W0_INITIAL, "h10")
        with pytest.raises(ValueError, match="unknown inner product"):
            pod_basis(build_snapshots(traj, 1.0, W0_INITIAL), space, "l2")


class TestPodBasis:
    def test_orthonormal_modes_and_unit_eigenvalues(self):
        # G-orthonormal snapshot columns Q scaled by sqrt(N):
        # K = (1/N) N Q^T G Q = I has all eigenvalues 1
        space = build_space(build_mesh(3), 1)
        gram = gram_matrix(space, H10, 1)
        y = np.random.default_rng(1).standard_normal((space.n_dof, 3))
        chol = np.linalg.cholesky(y.T @ gram.matvec(y))
        qmat = np.linalg.solve(chol, y.T).T
        n = 3
        snaps = _raw_snaps(np.sqrt(n) * qmat)
        basis = pod_basis(snaps, space, H10)
        assert np.allclose(basis.eigenvalues, 1.0, atol=1e-12)
        g = basis.modes.T @ gram.matvec(basis.modes)
        assert np.max(np.abs(g - np.eye(basis.d_r))) < 1e-12

    def test_single_snapshot_normalized(self):
        y = np.zeros((9, 1))
        y[4, 0] = 3.0
        snaps = _raw_snaps(y)
        _, space = toy_trajectory(np.zeros((2, 9)))
        gram = gram_matrix(space, H10, 1)
        basis = pod_basis(snaps, space, H10)
        assert basis.d_r == 1
        phi = basis.modes[:, 0]
        assert abs(phi @ gram.matvec(phi) - 1.0) < 1e-12
        assert np.allclose(phi, y[:, 0] / np.sqrt(y[:, 0] @ gram.matvec(y[:, 0])), atol=1e-12)

    def test_gram_orthonormality_on_fem_snapshots(self):
        traj, space = brusselator_trajectory()
        snaps, basis = build_pod_basis(traj, 1.0, W0_ZERO, H10)
        phi = basis.modes
        g = phi.T @ basis.gram_operator.matvec(phi)
        defect = np.abs(g - np.eye(basis.d_r))
        # roundoff in mode k is amplified by lambda_1 / lambda_k, so the
        # orthonormality defect degrades toward the rank cutoff
        lam = basis.eigenvalues
        amplify = lam[0] / np.minimum.outer(lam, lam)
        assert np.max(defect / (1.0 + amplify)) < 1e-12
        leading = lam >= 1e-6 * lam[0]
        assert np.max(defect[np.ix_(leading, leading)]) < 1e-9
        assert np.all(np.diff(basis.eigenvalues) <= 1e-15)

    def test_scaling_law(self):
        # scaling every snapshot by c scales eigenvalues by c^2, modes invariant
        traj, space = brusselator_trajectory()
        snaps = build_snapshots(traj, 1.0, W0_MEAN)
        b1 = pod_basis(snaps, space, H10)
        b2 = pod_basis(_raw_snaps(3.0 * snaps.columns), space, H10)
        r = min(b1.d_r, b2.d_r, 6)
        assert np.allclose(b2.eigenvalues[:r], 9.0 * b1.eigenvalues[:r], rtol=1e-9)
        assert np.max(np.abs(b2.modes[:, :r] - b1.modes[:, :r])) < 1e-7

    def test_rank_control(self):
        # the basis keeps the numerical rank: every eigenvalue above
        # RANK_TOL * lambda_1, each with its mode; callers truncate by r
        traj, space = brusselator_trajectory()
        snaps = build_snapshots(traj, 1.0, W0_ZERO)
        lam = np.linalg.eigvalsh(correlation_matrix(snaps, gram_matrix(space, H10, 2)))[::-1]
        b = pod_basis(snaps, space, H10)
        assert 4 < b.d_r == np.sum(lam > RANK_TOL * lam[0]) <= snaps.n_snapshots
        assert b.modes.shape == (snaps.columns.shape[0], b.d_r)
        assert np.allclose(b.eigenvalues, lam[: b.d_r], rtol=0.0, atol=1e-12 * lam[0])

    def test_degenerate_snapshots(self):
        _, space = toy_trajectory(np.zeros((2, 9)))
        with pytest.raises(DegenerateSnapshotsError):
            pod_basis(_raw_snaps(np.zeros((9, 3))), space, H10)


class TestProjection:
    def test_in_span_reproduced(self):
        traj, _ = brusselator_trajectory()
        snaps, basis = build_pod_basis(traj, 1.0, W0_ZERO, H10)
        v = basis.modes[:, :3] @ np.array([1.0, -2.0, 0.5])
        coeffs, rec = project(basis, 3, v)
        assert np.allclose(coeffs, [1.0, -2.0, 0.5], atol=1e-10)
        assert np.max(np.abs(rec - v)) < 1e-10

    def test_matches_normal_equations(self):
        traj, _ = brusselator_trajectory()
        snaps, basis = build_pod_basis(traj, 1.0, W0_ZERO, H10)
        rng = np.random.default_rng(2)
        v = rng.standard_normal(basis.modes.shape[0])
        r = 5
        phi = basis.modes[:, :r]
        gd = np.kron(np.eye(2), as_dense(assemble_stiffness(traj.space)))
        want = np.linalg.solve(phi.T @ gd @ phi, phi.T @ gd @ v)
        coeffs, _ = project(basis, r, v)
        assert np.max(np.abs(coeffs - want)) < 1e-9

    def test_idempotent(self):
        traj, _ = brusselator_trajectory()
        snaps, basis = build_pod_basis(traj, 1.0, W0_ZERO, H10)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(basis.modes.shape[0])
        _, p1 = project(basis, 4, v)
        _, p2 = project(basis, 4, p1)
        assert np.max(np.abs(p2 - p1)) < 1e-11

    @pytest.mark.parametrize("inner_product", [H10, L2])
    def test_projection_errors_match_the_plain_formula_bitwise(self, inner_product):
        # the in-place residual and products do the same operations in the
        # same order as the formula, so the results are equal, not close;
        # each order of the Gram operators checks that a product leaves the
        # residual the next one reads unchanged
        traj, space = brusselator_trajectory()
        snaps, basis = build_pod_basis(traj, 1.0, W0_ZERO, inner_product)
        grams = [gram_matrix(space, H10, 2), gram_matrix(space, L2, 2)]
        v = np.random.default_rng(4).standard_normal((basis.modes.shape[0], 7))
        for r in (0, 3, basis.d_r):
            for operand in (v[:, 0], v, snaps.columns):
                for gs in (grams, grams[::-1], grams[:1]):
                    got = projection_errors(basis, r, operand, gs)
                    want = projection_errors_oracle(basis, r, operand, gs)
                    assert got[1].shape == want[1].shape == (len(gs),) + operand.shape[1:]
                    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_rank_guard(self):
        traj, _ = brusselator_trajectory()
        _, basis = build_pod_basis(traj, 1.0, W0_ZERO, H10)
        v = np.zeros(basis.modes.shape[0])
        with pytest.raises(InvalidRankError):
            project(basis, basis.d_r + 1, v)
        # a negative rank is not a slice from the end of the modes
        with pytest.raises(InvalidRankError):
            project(basis, -2, v)
        coeffs, rec = project(basis, 0, v + 1.0)
        assert coeffs.shape == (0,) and np.array_equal(rec, np.zeros_like(v))


class TestTailIdentities:
    @pytest.mark.parametrize("w0_mode", [W0_INITIAL, W0_MEAN, W0_ZERO])
    def test_identity_all_ranks(self, w0_mode):
        traj, space = brusselator_trajectory()
        snaps = build_snapshots(traj, 1.0, w0_mode)
        basis = pod_basis(snaps, space, H10)
        lam1 = basis.eigenvalues[0]
        for r in range(basis.d_r + 1):
            lhs, rhs = tail_identity_check(snaps, basis, r)
            assert abs(lhs - rhs) <= 1e-10 * lam1, f"r={r}"

    def test_r_zero_is_total_energy(self):
        traj, space = brusselator_trajectory()
        snaps = build_snapshots(traj, 1.0, W0_MEAN)
        k = correlation_matrix(snaps, gram_matrix(space, H10, 2))
        basis = pod_basis(snaps, space, H10)
        lhs, rhs = tail_identity_check(snaps, basis, 0)
        assert rhs == pytest.approx(float(np.sum(basis.eigenvalues)))
        assert lhs == pytest.approx(float(np.trace(k)), rel=1e-10)

    def test_l2_variant(self):
        traj, space = brusselator_trajectory()
        snaps = build_snapshots(traj, 1.0, W0_MEAN)
        basis = pod_basis(snaps, space, L2)
        assert basis.inner_product == L2 and basis.gram_operator.elements is space.element_mass
        lam1 = basis.eigenvalues[0]
        for r in (0, 2, basis.d_r):
            lhs, rhs = tail_identity_check(snaps, basis, r)
            assert abs(lhs - rhs) <= 1e-10 * lam1


class TestPointwiseBound:
    @pytest.mark.parametrize("inner_product", [H10, L2])
    def test_bound_holds_and_error_decreases(self, inner_product):
        traj, space = brusselator_trajectory(n_side=4, m=24, t_end=2.4)
        for w0_mode in (W0_INITIAL, W0_ZERO):
            snaps, basis = build_pod_basis(traj, 1.0, w0_mode, inner_product)
            prev = np.inf
            for r in (2, 4, 8):
                r_eff = min(r, basis.d_r)
                measured, bound = pointwise_projection_report(traj, snaps, basis, r_eff)
                assert measured <= bound * (1 + 1e-12), f"{w0_mode} r={r_eff}"
                assert measured <= prev * (1 + 1e-12)
                prev = measured

    def test_bound_holds_for_an_l2_basis_of_random_states(self):
        """An L2 POD of a random trajectory is labelled L2, and its report
        measures and bounds in L2: at every rank the measured maximum is at
        most the bound. A Gram operator labelled apart from its name once
        gave an "H1 bound" of 1.08 below a measured 1.75 on this set.

        Measured: a squared ratio of at most 0.014 below r = d_r (0.28 over
        all three anchors and both inner products). At r = d_r the tail is
        0 and the states lie in the modes' span up to rounding, 6e-15 of
        the r = 0 maximum, so the bound is met to 1e-12 of that maximum."""
        space = build_space(build_mesh(4), 1)
        states = np.random.default_rng(0).standard_normal((13, 1, space.n_dof))
        states[:, :, space.dirichlet_mask] = 0.0
        traj = Trajectory(states, 0.1, space)
        snaps = build_snapshots(traj, 1.0, W0_ZERO)
        basis = pod_basis(snaps, space, L2)
        assert basis.inner_product == L2
        scale = pointwise_projection_report(traj, snaps, basis, 0)[0]
        for r in range(basis.d_r + 1):
            measured, bound = pointwise_projection_report(traj, snaps, basis, r)
            assert measured <= bound + 1e-12 * scale, f"r={r}: {measured} > {bound}"

    @pytest.mark.parametrize("w0_mode, c_tilde", [(W0_ZERO, 4.0), (W0_INITIAL, 1.0)])
    def test_report_reads_the_snapshot_set(self, w0_mode, c_tilde):
        # the states are centred on the set's mean, and the bound takes the
        # set's tau (2 here, not the default 1) and w0 mode
        traj, space = brusselator_trajectory()
        tau, r = 2.0, 4
        snaps, basis = build_pod_basis(traj, tau, w0_mode, H10)
        measured, bound = pointwise_projection_report(traj, snaps, basis, r)
        grams = [gram_matrix(space, H10, 2)]
        (h1_sq,) = projection_errors_oracle(basis, r, (traj.stacked() - snaps.mean).T, grams)[1]
        assert np.array_equal(measured, np.sqrt(h1_sq.max()))
        t_total = 1.6
        tail = np.sum(basis.eigenvalues[r:])
        assert bound == pytest.approx(np.sqrt((2.0 + 4.0 * c_tilde * t_total**2 / tau**2) * tail), rel=1e-14)

    def test_difference_quotients_bound_every_state_independently_of_m(self):
        """The paper's reason for difference-quotient snapshots: with them,
        max_n ||(I - P^r)(u^n - mean)||^2_{H10} over the tail sum_{k>r}
        lambda_k is a constant independent of M, while with the
        mean-subtracted states themselves as snapshots (the same Gram
        operator, the same 1/N scaling) it grows with M, as a bound of N
        times the tail allows.

        Desk protocol at n_side 8 (Brusselator, P2, BDF-5 over one period),
        r 8, M 64..512: the DQ ratio measured 0.2182, 0.2185, 0.2166,
        0.2163, a spread of 1.0%; the state ratio 9.82, 17.0, 22.5, 25.9,
        growing by 2.64x. The margins: a DQ spread of at most 5%, and a
        state ratio growing at every doubling of M, by at least 2x in all.
        """
        space = build_space(build_mesh(8), 2)
        system, u0, r = brusselator_system(0.002), perturbed_equilibrium(space), 8
        dq_ratios, state_ratios = [], []
        for m in (64, 128, 256, 512):
            traj = fom_integrate(system, space, u0, DEFAULT_T / m, DEFAULT_T, 5)
            dq = build_snapshots(traj, 1.0, W0_ZERO)
            states = SnapshotSet((traj.stacked() - dq.mean).T, 1.0, traj.dt, W0_ZERO, dq.mean)
            for snaps, ratios in ((dq, dq_ratios), (states, state_ratios)):
                basis = pod_basis(snaps, space, H10)
                max_h1 = pointwise_projection_report(traj, snaps, basis, r)[0]
                ratios.append(max_h1**2 / np.sum(basis.eigenvalues[r:]))
        assert max(dq_ratios) <= 1.05 * min(dq_ratios), dq_ratios
        assert np.all(np.diff(state_ratios) > 0), state_ratios
        assert state_ratios[-1] >= 2.0 * state_ratios[0], state_ratios

    def test_difference_quotients_give_the_rate_q_in_time(self):
        """The abstract's claim that difference quotients are essential to
        get the expected rate q in time. One FOM run (desk protocol at
        n_side 8, M_snap 256) feeds a DQ basis and a basis of the
        mean-subtracted states (the same Gram operator, the same 1/N
        scaling). Each ROM runs at q 5 and r 18 on M 64, 128, 256 with a
        fixed Newton tolerance of 1e-13 and the mean as lift; the error is
        max_n |u_r^n - P^r u_h(t_n)|_H1 over the main loop.

        Measured: the DQ ROM's pairwise orders 4.09 and 4.75, and at M 256
        0.70x its projection error max_n |(I - P^r)(u_h - mean)|_H1; the
        state ROM's error falls 1.09x over the last doubling and stays 38x
        above its own projection error. The margins: DQ orders within 1.25
        of q and the M 256 error below 2x the projection error; the state
        error falling by less than 2x and staying at least 10x above its
        projection error. The gap needs a rank large enough for the time
        error to matter, r >= 14 here: at r 6 the state basis gave the
        smaller error.
        """
        space = build_space(build_mesh(8), 2)
        system, q, r, m_snap = brusselator_system(0.002), 5, 18, 256
        traj = fom_integrate(system, space, perturbed_equilibrium(space), DEFAULT_T / m_snap, DEFAULT_T, q)
        dq = build_snapshots(traj, 1.0, W0_ZERO)
        states = SnapshotSet((traj.stacked() - dq.mean).T, 1.0, traj.dt, W0_ZERO, dq.mean)
        results = {}
        for name, snaps in (("dq", dq), ("state", states)):
            basis = pod_basis(snaps, space, H10)
            romsys = rom_assemble(basis, r, space, system, dq.mean)
            proj_coords, (proj_sq,) = projection_errors(basis, r, states.columns, [basis.gram_operator])
            coords0 = initial_coords(romsys, traj.states[0])
            errors = []
            for m in (64, 128, 256):
                rt = rom_integrate(romsys, q, DEFAULT_T / m, DEFAULT_T, ("bootstrap", coords0), 1e-13)
                d = rt.coords - proj_coords.T[:: m_snap // m]
                errors.append(np.sqrt(np.sum((d @ romsys.reduced_stiffness) * d, axis=1))[q:].max())
            results[name] = np.array(errors), np.sqrt(proj_sq.max())
        (dq_errors, dq_proj), (state_errors, state_proj) = results["dq"], results["state"]
        orders = np.log2(dq_errors[:-1] / dq_errors[1:])
        assert np.all(np.abs(orders - q) <= 1.25), orders
        assert dq_errors[-1] <= 2.0 * dq_proj, (dq_errors, dq_proj)
        assert state_errors[-2] < 2.0 * state_errors[-1], state_errors
        assert state_errors[-1] >= 10.0 * state_proj, (state_errors, state_proj)

    def test_rank_guard(self):
        traj, _ = brusselator_trajectory()
        snaps, basis = build_pod_basis(traj, 1.0, W0_ZERO, H10)
        with pytest.raises(InvalidRankError):
            pointwise_projection_report(traj, snaps, basis, basis.d_r + 1)
        with pytest.raises(InvalidRankError):
            tail_identity_check(snaps, basis, -1)


class TestPersistence:
    """``podrom pod`` exports these files; nothing in the pipeline reads them."""

    def test_snapshot_round_trip(self, tmp_path):
        traj, _ = brusselator_trajectory()
        snaps = build_snapshots(traj, 1.7, W0_ZERO)
        stem = str(tmp_path / "s")
        save_snapshots(snaps, stem)
        assert np.array_equal(mmio.read(stem + ".snaps.mtx"), snaps.columns)
        assert np.array_equal(mmio.read(stem + ".mean.mtx")[:, 0], snaps.mean)
        meta = dict(
            (s.strip() for s in line.split("=", 1)) for line in open(stem + ".snapmeta")
        )
        assert float(meta["tau"]) == snaps.tau and float(meta["dt"]) == snaps.dt
        assert meta["w0_mode"] == snaps.w0_mode

    def test_basis_round_trip(self, tmp_path):
        traj, _ = brusselator_trajectory()
        _, basis = build_pod_basis(traj, 1.0, W0_ZERO, H10)
        stem = str(tmp_path / "b")
        save_basis(basis, stem)
        assert np.array_equal(mmio.read(stem + ".modes.mtx"), basis.modes)
        lines = open(stem + ".eigs.txt").read().splitlines()
        assert lines[0] == f"# inner_product = {basis.inner_product}"
        assert np.array_equal(np.array(lines[1:], dtype=np.float64), basis.eigenvalues)
        assert lines[1:] == [f"{lam:.17g}" for lam in basis.eigenvalues]


def _raw_snaps(columns):
    from podrom.pod import SnapshotSet

    return SnapshotSet(np.asarray(columns, dtype=np.float64), 1.0, 1.0, W0_INITIAL, np.zeros(columns.shape[0]))
