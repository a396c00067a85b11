"""End-to-end acceptance suite. Each test prints one PASS/FAIL line for its
numbered criterion; shared pipelines (the desk-scale snapshot set and the
temporal convergence sweep) are built once per module.

Criterion 8 checks the observed Newton iteration statistics against the
production-scale range 2..4. At desk scale the extrapolation predictor is accurate
enough that a single update meets the step-coupled tolerance, so the modal
count is expected to sit at 1; the check is asserted as stated rather than
weakened to match.

The figures the criteria print are recorded at full precision in
acceptance_figures.json, and ``test_figures_match_the_record`` compares
them with the file at the ``TOLERANCES`` below, each taken from a recorded
move of that figure. The criteria's figures come from module-scoped
fixtures, so the comparison reruns no pipeline. Updating the file is a
deliberate act that CHANGES.md names."""

import json
from fractions import Fraction
from pathlib import Path

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
FIGURES = Path(__file__).with_name("acceptance_figures.json")
#: (rtol, atol) per criterion: a figure passes when |got - recorded| <=
#: atol + rtol |recorded|. Each is the largest recorded move of that figure:
#: - 2: PR 22 moved the L2 gap 1.19e-13 -> 1.20e-13, at most 2e-15 or 1.7e-2
#:   relative once the printed digits' rounding is allowed for;
#: - 3, 6 and 7: PR 12's inexact FOM Newton moved criterion 6 by up to 2.9e-4
#:   relative, the largest recorded move of a figure built from the desk
#:   states' POD (PR 17's warm start, 3.640e-05 -> 3.639e-05, lies within);
#: - 4, 5 and 9, observed orders: PR 12 moved criterion 5's by 1e-5;
#:   "5: q=5 order 512/1024" is the exception it does not cover: it resolves
#:   rounding, mostly through the study's M 8192 reference run, whose fixed
#:   Newton tolerance of 1e-12 lets about 28% of its steps accept their
#:   predictor, a choice that flips with rounding. So a ROM change that
#:   moves coordinates only by rounding (2e-14 to 5e-14) moves this order
#:   by 1e-4 to 3e-4, and each such change rewrites it in the record. The
#:   figure also holds only at the BLAS thread count the record was taken
#:   at, two on a 2-vCPU host: at one, this order and "q=5 order 256/512"
#:   move outside their tolerance;
#: - 8: exact, because a Newton count is an integer that moves only with
#:   the Newton path; changes to that path (a held first update, a held
#:   inverse Jacobian) rewrote both counts in the record, and a change that
#:   keeps the path keeps them to the step;
#: - 10: PR 22 moved the deviation 2.11e-15 -> 2.22e-15, at most 1.2e-16.
#: PR 27's 2.8e-14 move of the desk states and PR 28's 3.3e-16 move of a
#: cubic heat run were measured on states, not on a printed figure.
TOLERANCES = {
    "2": (1.7e-2, 0.0),
    "3": (2.9e-4, 0.0),
    "4": (0.0, 1e-5),
    "5": (0.0, 1e-5),
    "6": (2.9e-4, 0.0),
    "7": (2.9e-4, 0.0),
    "8": (0.0, 0.0),
    "9": (0.0, 1e-5),
    "10": (0.0, 1.2e-16),
}


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


@pytest.fixture(scope="module")
def tail_gaps(desk):
    """Criterion 2: per inner product, (the largest tail-identity gap over
    r = 1..d_r, lambda_1) of the desk snapshots' basis."""
    worst = {}
    for ip in (H10, L2):
        snaps = build_snapshots(desk.fom_traj, desk.cfg.tau, desk.cfg.w0_mode)
        basis = pod_basis(snaps, desk.fom_traj.space, ip)
        gap = 0.0
        for r in range(1, basis.d_r + 1):
            lhs, rhs = tail_identity_check(snaps, basis, r)
            gap = max(gap, abs(lhs - rhs))
        worst[ip] = (gap, basis.eigenvalues[0])
    return worst


@pytest.fixture(scope="module")
def pointwise(desk):
    """Criterion 3: (largest projection error, bound) per basis inner
    product, w0 mode and r."""
    reports = {}
    for ip in (H10, L2):
        for w0_mode in (W0_INITIAL, W0_MEAN):
            snaps, basis = build_pod_basis(desk.fom_traj, desk.cfg.tau, w0_mode, ip)
            for r in (4, 8, 16):
                reports[ip, w0_mode, r] = pointwise_projection_report(desk.fom_traj, snaps, basis, r)
    return reports


@pytest.fixture(scope="module")
def scalar_orders():
    """Criterion 4: the observed order of BDF-q on u' = -2 u over [0, 1], per q."""
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
    return slopes


@pytest.fixture(scope="module")
def rom_orders(sweep, desk):
    """Criterion 5: the pairwise L2 orders of the sweep, per q."""
    return {q: estimate_order([(desk.cfg.T / row["M"], row["max_l2"]) for row in sweep[q]])[1] for q in sweep}


@pytest.fixture(scope="module")
def refinement(desk):
    """Criterion 6: the rank-refinement rows against a BDF-q FOM on M = 1024."""
    fom_fine = fom_integrate(
        desk.cfg.reaction_system(),
        desk.fom_traj.space,
        desk.fom_traj.states[0],
        desk.cfg.T / 1024,
        desk.cfg.T,
        desk.cfg.q,
    )
    return r_refinement_study(desk, fom_fine, desk.cfg.r_grid, q=5)


def tracking_ratios(rows):
    """Criterion 6: (r, error key, ROM error over projection error) of the two largest ranks."""
    return [
        (row["r"], pod_key, row[pod_key] / row[proj_key])
        for row in rows[-2:]
        for pod_key, proj_key in (("pod_l2", "proj_l2"), ("pod_h1", "proj_h1"))
    ]


def newton_counts(sweep):
    """Criterion 8: every main-loop Newton count of the sweep, and their histogram."""
    counts = np.concatenate(
        [row["newton_counts"] for q in sweep for row in sweep[q]]
    )
    return counts, dict(zip(*[arr.tolist() for arr in np.unique(counts, return_counts=True)]))


@pytest.fixture(scope="module")
def spatial_order():
    """Criterion 9: the manufactured heat solution's L2 order on P2, n_side 8, 16, 32."""
    slope, _ = estimate_order(spatial_convergence_study(0.02, n_sides=(8, 16, 32)))
    return slope


@pytest.fixture(scope="module")
def equilibrium_deviation():
    """Criterion 10: the largest deviation from the Brusselator equilibrium
    over 20 BDF-q steps, q = 1..5, on n_side 16."""
    space = build_space(build_mesh(16), 2)
    sys = brusselator_system(0.002)
    eq = perturbed_equilibrium(space, 0.0)
    worst = 0.0
    for q in range(1, 6):
        traj = fom_integrate(sys, space, eq, 0.05, 1.0, q)
        worst = max(worst, float(np.max(np.abs(traj.states - eq[None]))))
    return worst


def test_criterion_1_alpha_decomposition_identity():
    rng = np.random.default_rng(0)
    worst = 0.0
    for q in range(1, 6):
        s = bdf_coefficients(q)
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


def test_criterion_2_tail_identity(tail_gaps):
    ok = all(gap <= 1e-10 * lam1 for gap, lam1 in tail_gaps.values())
    detail = ", ".join(
        f"{ip}: |lhs-rhs| <= {gap:.2e} vs 1e-10*lambda1 = {1e-10 * lam1:.2e}"
        for ip, (gap, lam1) in tail_gaps.items()
    )
    _report(2, ok, detail)
    assert ok


def pointwise_rows(pointwise, ip):
    """Criterion 3: whether every maximum of the ``ip`` basis meets its bound, and the rows."""
    rows = []
    ok = True
    for w0_mode in (W0_INITIAL, W0_MEAN):
        for r in (4, 8, 16):
            max_err, bound = pointwise[ip, w0_mode, r]
            ok = ok and (max_err <= bound)
            rows.append(f"{w0_mode} r={r}: {max_err:.3e} <= {bound:.3e}")
    return ok, rows


def test_criterion_3_pointwise_bound(pointwise):
    ok, rows = pointwise_rows(pointwise, H10)
    _report(3, ok, "; ".join(rows))
    assert ok


def test_criterion_3_pointwise_bound_in_l2(pointwise):
    # the bound holds in the basis's own inner product: an L2 basis's
    # eigenvalues bound its projection error in L2
    ok, rows = pointwise_rows(pointwise, L2)
    _report("3 (L2 basis)", ok, "; ".join(rows))
    assert ok


def test_criterion_4_scalar_bdf_order(scalar_orders):
    ok = all(abs(slope - q) < 0.2 for q, slope in scalar_orders.items())
    _report(4, ok, ", ".join(f"q={q}: order {slope:.3f}" for q, slope in scalar_orders.items()))
    assert ok


def test_criterion_5_rom_temporal_order(rom_orders):
    details = []
    ok = True
    for q in range(1, 6):
        tol = 0.25 if q <= 3 else 0.4
        finest_two = rom_orders[q][-2:]
        ok = ok and all(abs(p - q) <= tol for p in finest_two)
        details.append(f"q={q}: finest pairwise {finest_two[0]:.2f}/{finest_two[1]:.2f} (+/-{tol})")
    _report(5, ok, "; ".join(details))
    assert ok


def test_criterion_6_monotone_r_refinement(refinement):
    ok = True
    for key in ("pod_l2", "pod_h1"):
        vals = [row[key] for row in refinement]
        ok = ok and all(vals[i + 1] <= vals[i] * (1 + 1e-12) for i in range(len(vals) - 1))
    ratios = tracking_ratios(refinement)
    ok = ok and all(0.2 <= ratio <= 5.0 for _, _, ratio in ratios)
    detail = (
        "errors " + "/".join(f"{row['pod_h1']:.3e}" for row in refinement)
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
    counts, hist = newton_counts(sweep)
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


def test_criterion_9_fem_spatial_order(spatial_order):
    ok = spatial_order >= 2.7
    _report(9, ok, f"manufactured-solution L2 order {spatial_order:.3f} (>= 2.7)")
    assert ok


def test_criterion_10_equilibrium_preserved(equilibrium_deviation):
    ok = equilibrium_deviation <= 1e-10
    _report(10, ok, f"max deviation over 20 steps, q = 1..5: {equilibrium_deviation:.2e} (<= 1e-10)")
    assert ok


def test_figures_match_the_record(
    tail_gaps, pointwise, scalar_orders, rom_orders, refinement, sweep, spatial_order, equilibrium_deviation
):
    # every figure the criteria print, keyed "<criterion>: <label>", against
    # the file at its criterion's tolerance; criterion 7's is the smallest
    # ratio of a maximum error to its starting-value error over q >= 2
    got = {f"2: {ip} gap": float(gap) for ip, (gap, _) in tail_gaps.items()}
    for (ip, w0_mode, r), (max_err, bound) in pointwise.items():
        got[f"3: {ip} {w0_mode} r={r} max/bound"] = float(max_err / bound)
    got.update({f"4: q={q} order": float(v) for q, v in scalar_orders.items()})
    for q, pairwise in rom_orders.items():
        got.update({f"5: q={q} order {m0}/{m1}": v for m0, m1, v in zip(M_SWEEP, M_SWEEP[1:], pairwise)})
    for row in refinement:
        got.update({f"6: r={row['r']} {key}": float(row[key]) for key in ("pod_l2", "pod_h1")})
    got.update({f"6: r={r} {key} tracking": float(v) for r, key, v in tracking_ratios(refinement)})
    got["7: smallest max/start"] = min(
        float(row[f"max_{norm}"] / row[f"start_{norm}"])
        for q in range(2, 6)
        for row in sweep[q]
        for norm in ("l2", "h1")
    )
    got.update({f"8: steps of {n} Newton update(s)": steps for n, steps in newton_counts(sweep)[1].items()})
    got["9: order"] = float(spatial_order)
    got["10: deviation"] = float(equilibrium_deviation)

    want = json.loads(FIGURES.read_text())
    assert sorted(got) == sorted(want)
    off = []
    for key, value in want.items():
        rtol, atol = TOLERANCES[key.split(":")[0]]
        if not abs(got[key] - value) <= atol + rtol * abs(value):
            off.append(f"{key}: {got[key]!r}, recorded {value!r}")
    exact = sum(got[key] == value for key, value in want.items())
    _report("figures", not off, f"{exact} of {len(want)} equal to the record, {len(off)} outside tolerance")
    assert not off, "\n".join(off)
