"""End-to-end acceptance suite. Each test prints one PASS/FAIL line for its
numbered criterion; shared pipelines (the desk-scale snapshot set and the
temporal convergence sweep) are built once per module.

Criterion 8 checks the observed Newton iteration statistics against the
production-scale range 2..4. At desk scale the extrapolation predictor is accurate
enough that a single update meets the step-coupled tolerance, so the modal
count is expected to sit at 1; the check is asserted as stated rather than
weakened to match."""

import numpy as np
import pytest

from podrom.bdf import bdf_apply, bdf_coefficients, bdf_increment_form
from podrom.fom import brusselator_system, fom_integrate, perturbed_equilibrium
from podrom.harness import (
    RunConfig,
    build_desk_setup,
    estimate_order,
    initial_coords,
    make_rom,
    r_refinement_study,
    spatial_convergence_study,
    temporal_convergence_study,
)
from podrom.mesh_fem import build_mesh, build_space
from podrom.pod import (
    H10,
    L2,
    W0_INITIAL,
    W0_MEAN,
    build_pod_basis,
    build_snapshots,
    pod_basis,
    pointwise_projection_report,
    tail_identity_check,
)

M_SWEEP = (64, 128, 256, 512, 1024)


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def desk():
    """Desk-scale snapshot pipeline: Brusselator, n_side 16, P2, M = 128."""
    return build_desk_setup(RunConfig())


@pytest.fixture(scope="module")
def sweep(desk):
    """Temporal convergence sweep at fixed r = 10 over the dyadic M grid,
    against an 8x-finer tight BDF-5 reference."""
    romsys = make_rom(desk, 10)
    coords0 = initial_coords(romsys, desk.fom_traj.states[0])
    return temporal_convergence_study(
        romsys, coords0, desk.cfg.T, q_values=(1, 2, 3, 4, 5), m_values=M_SWEEP
    )


def test_criterion_1_alpha_decomposition_identity():
    rng = np.random.default_rng(0)
    worst = 0.0
    for q in range(1, 6):
        s = bdf_coefficients(q)
        from fractions import Fraction

        assert sum(s.delta, Fraction(0)) == 0
        for j in range(q):
            assert s.alpha[j] == sum(s.delta[: j + 1], Fraction(0))
        for _ in range(200):
            seq = [rng.standard_normal(10) for _ in range(6)][: q + 1]
            dt = 10.0 ** rng.uniform(-4, 0)
            a = bdf_apply(s, seq, dt)
            b = bdf_increment_form(s, seq[0] - seq[1], seq[1:], dt)
            worst = max(worst, np.linalg.norm(a - b) / max(1.0, np.linalg.norm(a)))
    ok = worst <= 1e-13
    _report(1, ok, f"difference-decomposition worst relative gap {worst:.2e} (<= 1e-13)")
    assert ok


def test_criterion_2_tail_identity(desk):
    worst = {}
    for ip in (H10, L2):
        snaps = build_snapshots(desk.fom_traj, desk.cfg.tau, desk.cfg.w0_mode)
        basis = pod_basis(snaps, desk.space, ip)
        lam1 = basis.eigenvalues[0]
        gap = 0.0
        for r in range(1, basis.d_r + 1):
            lhs, rhs = tail_identity_check(snaps, basis, r)
            gap = max(gap, abs(lhs - rhs))
        worst[ip] = (gap, lam1)
    ok = all(gap <= 1e-10 * lam1 for gap, lam1 in worst.values())
    detail = ", ".join(
        f"{ip}: |lhs-rhs| <= {gap:.2e} vs 1e-10*lambda1 = {1e-10 * lam1:.2e}"
        for ip, (gap, lam1) in worst.items()
    )
    _report(2, ok, detail)
    assert ok


def test_criterion_3_pointwise_bound(desk):
    rows = []
    ok = True
    for w0_mode in (W0_INITIAL, W0_MEAN):
        snaps, basis = build_pod_basis(desk.fom_traj, desk.cfg.tau, w0_mode, H10)
        for r in (4, 8, 16):
            max_h1, bound_h1 = pointwise_projection_report(desk.fom_traj, snaps, basis, r)
            ok = ok and (max_h1 <= bound_h1)
            rows.append(f"{w0_mode} r={r}: {max_h1:.3e} <= {bound_h1:.3e}")
    _report(3, ok, "; ".join(rows))
    assert ok


def test_criterion_3_pointwise_bound_in_l2(desk):
    # the bound holds in the basis's own inner product: an L2 basis's
    # eigenvalues bound its projection error in L2
    rows = []
    ok = True
    for w0_mode in (W0_INITIAL, W0_MEAN):
        snaps, basis = build_pod_basis(desk.fom_traj, desk.cfg.tau, w0_mode, L2)
        for r in (4, 8, 16):
            max_l2, bound_l2 = pointwise_projection_report(desk.fom_traj, snaps, basis, r)
            ok = ok and (max_l2 <= bound_l2)
            rows.append(f"{w0_mode} r={r}: {max_l2:.3e} <= {bound_l2:.3e}")
    _report("3 (L2 basis)", ok, "; ".join(rows))
    assert ok


def test_criterion_4_scalar_bdf_order():
    lam = -2.0
    slopes = {}
    for q in range(1, 6):
        s = bdf_coefficients(q)
        errs = []
        dts = [2.0**-k for k in range(4, 10)]
        for dt in dts:
            m = round(1.0 / dt)
            u = [np.exp(lam * j * dt) for j in range(q)]
            for n in range(q, m + 1):
                # linear problem: solve the implicit relation directly
                known = sum(float(s.delta_f[j]) * u[-j] for j in range(1, q + 1))
                u.append(-known / (float(s.delta_f[0]) - lam * dt))
            errs.append(abs(u[-1] - np.exp(lam)))
        slope, _ = estimate_order(list(zip(dts, errs)))
        slopes[q] = slope
    ok = all(abs(slopes[q] - q) < 0.2 for q in slopes)
    _report(4, ok, ", ".join(f"q={q}: order {slopes[q]:.3f}" for q in slopes))
    assert ok


def test_criterion_5_rom_temporal_order(sweep, desk):
    details = []
    ok = True
    for q in range(1, 6):
        rows = sweep[q]
        errs = [(desk.cfg.T / row["M"], row["max_l2"]) for row in rows]
        _, pairwise = estimate_order(errs)
        tol = 0.25 if q <= 3 else 0.4
        finest_two = pairwise[-2:]
        ok = ok and all(abs(p - q) <= tol for p in finest_two)
        details.append(f"q={q}: finest pairwise {finest_two[0]:.2f}/{finest_two[1]:.2f} (+/-{tol})")
    _report(5, ok, "; ".join(details))
    assert ok


def test_criterion_6_monotone_r_refinement(desk):
    fom_fine = fom_integrate(
        desk.system,
        desk.space,
        desk.fom_traj.states[0],
        desk.cfg.T / 1024,
        desk.cfg.T,
        desk.cfg.q,
    )
    rows = r_refinement_study(desk, fom_fine, desk.cfg.r_grid, q=5)
    ok = True
    for key in ("pod_l2", "pod_h1"):
        vals = [row[key] for row in rows]
        ok = ok and all(vals[i + 1] <= vals[i] * (1 + 1e-12) for i in range(len(vals) - 1))
    ratios = []
    for row in rows[-2:]:
        for pod_key, proj_key in (("pod_l2", "proj_l2"), ("pod_h1", "proj_h1")):
            ratio = row[pod_key] / row[proj_key]
            ratios.append((row["r"], pod_key, ratio))
            ok = ok and (0.2 <= ratio <= 5.0)
    detail = (
        "errors " + "/".join(f"{row['pod_h1']:.3e}" for row in rows)
        + "; tracking " + ", ".join(f"r={r} {k}: {v:.2f}x" for r, k, v in ratios)
    )
    _report(6, ok, detail)
    assert ok


def test_criterion_7_starting_value_subordination(sweep):
    failures = []
    for q in range(2, 6):
        for row in sweep[q]:
            if not (row["start_l2"] < row["max_l2"] and row["start_h1"] < row["max_h1"]):
                failures.append((q, row["M"]))
    ok = not failures
    _report(7, ok, "all (q, M) subordinate" if ok else f"violations at {failures}")
    assert ok


def test_criterion_8_newton_behavior(sweep):
    counts = np.concatenate(
        [row["newton_counts"] for q in sweep for row in sweep[q]]
    )
    hist = dict(zip(*[arr.tolist() for arr in np.unique(counts, return_counts=True)]))
    modal = max(hist, key=hist.get)
    max_count = int(counts.max())
    ok_max = max_count <= 6
    ok_modal = 2 <= modal <= 4
    ok = ok_max and ok_modal
    _report(
        8,
        ok,
        f"max iterations {max_count} (<= 6: {'yes' if ok_max else 'no'}), "
        f"modal {modal} (in 2..4: {'yes' if ok_modal else 'no'}), histogram {hist}",
    )
    assert ok


def test_criterion_9_fem_spatial_order():
    pts = spatial_convergence_study(0.02, n_sides=(8, 16, 32))
    slope, _ = estimate_order(pts)
    ok = slope >= 2.7
    _report(9, ok, f"manufactured-solution L2 order {slope:.3f} (>= 2.7)")
    assert ok


def test_criterion_10_equilibrium_preserved():
    space = build_space(build_mesh(16), 2)
    sys = brusselator_system(0.002)
    eq = perturbed_equilibrium(space, 0.0)
    worst = 0.0
    for q in range(1, 6):
        traj = fom_integrate(sys, space, eq, 0.05, 1.0, q)
        worst = max(worst, float(np.max(np.abs(traj.states - eq[None]))))
    ok = worst <= 1e-10
    _report(10, ok, f"max deviation over 20 steps, q = 1..5: {worst:.2e} (<= 1e-10)")
    assert ok
