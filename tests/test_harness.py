"""Study harness and CLI: order estimation, L2 errors against exact fields,
config parsing and validation (with fuzzing), CSV determinism, spatial
convergence of the manufactured solution, and the command-line pipeline
(with fuzzed overrides)."""

import contextlib
import dataclasses
import io
import itertools
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podrom import cli, harness, mmio, pod
from podrom.fom import load_trajectory
from podrom.harness import (
    SYSTEMS,
    RunConfig,
    build_desk_setup,
    emit_convergence_csv,
    emit_r_refinement_csv,
    emit_starting_values_csv,
    estimate_order,
    initial_coords,
    l2_error_vs_exact,
    make_rom,
    parse_config,
    r_refinement_study,
    spatial_convergence_study,
    temporal_convergence_study,
)
from podrom.mesh_fem import build_mesh, build_space, interpolate
from podrom.pod import INNER_PRODUCTS, W0_MODES, InvalidRankError, project
from podrom.rom import rom_integrate, rom_to_nodal_trajectory


def saved(save, *arrays, **kwargs):
    """The bytes that ``save`` (``np.save`` or ``np.savez``) writes for ``arrays``."""
    buf = io.BytesIO()
    save(buf, *arrays, **kwargs)
    return buf.getvalue()


def with_doubled_modes(build_pod_basis):
    """``build_pod_basis`` whose basis has its modes doubled: not orthonormal."""

    def build(*args):
        snaps, basis = build_pod_basis(*args)
        return snaps, dataclasses.replace(basis, modes=2.0 * basis.modes)

    return build


class TestEstimateOrder:
    def test_exact_power_law(self):
        pts = [(2.0**-k, 3.0 * (2.0**-k) ** 3) for k in range(2, 7)]
        slope, pairwise = estimate_order(pts)
        assert slope == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(pairwise, 3.0, atol=1e-12)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(0)
        pts = [
            (2.0**-k, (2.0**-k) ** 2 * np.exp(0.05 * rng.standard_normal()))
            for k in range(2, 8)
        ]
        slope, _ = estimate_order(pts)
        assert abs(slope - 2.0) < 0.15

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_order([(0.1, 1.0)])
        with pytest.raises(ValueError):
            estimate_order([(0.1, 1.0), (0.05, 0.0)])


class TestL2ErrorVsExact:
    def test_interpolant_of_quadratic_is_exact_on_p2(self):
        space = build_space(build_mesh(4), 2)
        f = lambda x, y: x * y + 0.5 * x * x
        err = l2_error_vs_exact(space, interpolate(space, f), f)
        assert err < 1e-13

    def test_unit_offset(self):
        space = build_space(build_mesh(4), 2)
        f = lambda x, y: np.zeros_like(x)
        err = l2_error_vs_exact(space, interpolate(space, lambda x, y: np.ones_like(x)), f)
        assert err == pytest.approx(1.0, rel=1e-12)


TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20)
FLOATS = st.one_of(st.floats(0, 10).map(repr), st.sampled_from(("-1", "nan", "inf", "1e400")))
#: per key, values that are mostly valid, with near misses mixed in
CONFIG_VALUES = {
    "n_side": st.integers(-1, 40).map(str),
    "M": st.integers(-1, 40).map(str),
    "degree": st.integers(0, 3).map(str),
    "q": st.integers(0, 6).map(str),
    "nu": FLOATS,
    "T": FLOATS,
    "tau": FLOATS,
    "r_grid": st.lists(st.integers(-2, 20), max_size=4).map(lambda v: ", ".join(map(str, v))),
    "system": st.sampled_from(tuple(SYSTEMS) + ("Heat", "bogus")),
    "w0_mode": st.sampled_from(W0_MODES + ("zero", "bogus")),
    "inner_product": st.sampled_from(INNER_PRODUCTS + ("h10", "l2")),
    "newton_rule": st.one_of(st.sampled_from(("step-coupled", "Step-coupled", "paper")), FLOATS, TEXT),
    "out_dir": TEXT,
}
#: command-line override values: integers near the valid ranges, or any text
OVERRIDE = st.one_of(st.integers(-3, 1100).map(str), TEXT)
CONFIG_LINE = st.sampled_from(sorted(CONFIG_VALUES)).flatmap(
    lambda key: CONFIG_VALUES[key].map(lambda v: f"{key} = {v}")
)
#: up to five key lines and at most one line of arbitrary text, in any order
CONFIG_TEXT = (
    st.tuples(st.lists(CONFIG_LINE, max_size=5), st.lists(TEXT, max_size=1))
    .flatmap(lambda parts: st.permutations(parts[0] + parts[1]))
    .map("\n".join)
)


class TestParseConfig:
    def test_full_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# study configuration\n"
            "n_side = 8\n"
            "degree = 2\n"
            "system = brusselator\n"
            "nu = 0.004   # diffusion\n"
            "T = 3.5\n"
            "M = 64\n"
            "q = 4\n"
            "r_grid = 4, 8\n"
            "tau = 2.0\n"
            "w0_mode = mean\n"
            "newton_rule = 1e-9\n"
            "out_dir = results\n"
        )
        cfg = parse_config(str(path))
        assert cfg.n_side == 8 and cfg.degree == 2 and cfg.M == 64 and cfg.q == 4
        assert cfg.nu == 0.004 and cfg.T == 3.5 and cfg.tau == 2.0
        assert cfg.r_grid == (4, 8)
        assert cfg.w0_mode == "mean" and cfg.out_dir == "results"
        assert cfg.newton_rule == "1e-9"

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("frobnicate = 1\n")
        with pytest.raises(ValueError):
            parse_config(str(path))

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ValueError):
            parse_config(str(path))

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(q=6)
        with pytest.raises(ValueError):
            RunConfig(nu=-1.0)
        for bad in (
            {"nu": float("nan")},
            {"T": float("inf")},
            {"degree": 3},
            {"r_grid": (4, 0)},
            {"r_grid": ()},
        ):
            with pytest.raises(ValueError):
                RunConfig(**bad)
        for key in ("system", "w0_mode", "inner_product", "newton_rule"):
            with pytest.raises(ValueError, match=key):
                RunConfig(**{key: "bogus"})
        for rule in ("0", "-1e-9", "nan", "inf", "1e400"):
            with pytest.raises(ValueError, match="newton_rule"):
                RunConfig(newton_rule=rule)
        assert RunConfig(newton_rule="1e-12").newton_rule == "1e-12"
        # the BDF-q bootstrap (q >= 2) needs a step below 1; BDF-1 takes none
        for q in (2, 5):
            with pytest.raises(ValueError, match=r"T = 4\.0 and M = 4, T/M = 1$"):
                RunConfig(T=4.0, M=4, q=q)
        assert RunConfig(T=8.0, M=4, q=1).q == 1

    def test_defaults_round_trip(self, tmp_path):
        # every field written as its default parses back to RunConfig()
        path = tmp_path / "defaults.cfg"
        lines = []
        for key, value in vars(RunConfig()).items():
            text = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
            lines.append(f"{key} = {text}\n")
        path.write_text("".join(lines))
        assert parse_config(str(path)) == RunConfig()

    @settings(max_examples=150, deadline=None)
    @given(CONFIG_TEXT)
    def test_fuzz_parse_config(self, tmp_path_factory, text):
        # any text either parses to a valid RunConfig or raises ValueError
        path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
        path.write_text(text, encoding="utf-8")
        try:
            cfg = parse_config(str(path))
        except ValueError:
            return
        assert cfg.system in SYSTEMS
        assert cfg.w0_mode in W0_MODES and cfg.inner_product in INNER_PRODUCTS
        assert cfg.degree in (1, 2) and 1 <= cfg.q <= 5
        assert cfg.r_grid and min(cfg.r_grid) >= 1
        assert cfg.newton_rule == "step-coupled" or 0 < float(cfg.newton_rule) < np.inf
        assert cfg.q == 1 or cfg.T / cfg.M < 1


def tiny_cfg(**overrides):
    base = dict(n_side=4, degree=2, M=16, T=1.6, q=3, r_grid=(2, 4))
    base.update(overrides)
    return RunConfig(**base)


class TestStudies:
    def test_csv_determinism(self, tmp_path):
        outputs = []
        for run in range(2):
            setup = build_desk_setup(tiny_cfg())
            romsys = make_rom(setup, 4)
            coords0 = initial_coords(romsys, setup.fom_traj.states[0])
            results = temporal_convergence_study(
                romsys, coords0, 1.6, q_values=(1, 2), m_values=(8, 16), ref_factor=4
            )
            conv = tmp_path / f"conv{run}.csv"
            start = tmp_path / f"start{run}.csv"
            emit_convergence_csv(str(conv), results, 1.6)
            emit_starting_values_csv(str(start), results)
            rows = r_refinement_study(setup, setup.fom_traj, (2, 4), q=2)
            rref = tmp_path / f"rref{run}.csv"
            emit_r_refinement_csv(str(rref), rows)
            outputs.append((conv.read_bytes(), start.read_bytes(), rref.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_convergence_rows_shape_and_subordination(self, tmp_path):
        setup = build_desk_setup(tiny_cfg())
        romsys = make_rom(setup, 4)
        coords0 = initial_coords(romsys, setup.fom_traj.states[0])
        results = temporal_convergence_study(
            romsys, coords0, 1.6, q_values=(2,), m_values=(8, 16, 32), ref_factor=4
        )
        rows = results[2]
        assert [row["M"] for row in rows] == [8, 16, 32]
        # second-order decay between the finest rows
        ratio = rows[-2]["max_l2"] / rows[-1]["max_l2"]
        assert 2.0 < np.log2(ratio) + 1.0  # order > 1 at least on this toy run
        for row in rows:
            assert row["start_l2"] <= row["max_l2"]
            assert np.all(row["newton_counts"] >= 1)

    def test_convergence_rows_match_per_step_norms(self):
        # each row is a maximum of sqrt(d M d) (L2) and sqrt(d A d) (H1) over
        # d = u_r^n - u_ref(t_n), for n = q..M (max_*) and n = 1..q-1 (start_*);
        # at q 1 the start range is empty
        setup = build_desk_setup(tiny_cfg())
        romsys = make_rom(setup, 4)
        coords0 = initial_coords(romsys, setup.fom_traj.states[0])
        results = temporal_convergence_study(
            romsys, coords0, 1.6, q_values=(1, 3), m_values=(8, 16), ref_factor=4
        )
        ref = rom_integrate(romsys, 5, 1.6 / 64, 1.6, ("bootstrap", coords0), 1e-12)
        norms = {"l2": romsys.reduced_mass, "h1": romsys.reduced_stiffness}
        for q, rows in results.items():
            for row in rows:
                m = row["M"]
                rt = rom_integrate(romsys, q, 1.6 / m, 1.6, ("bootstrap", coords0))
                want = dict.fromkeys(("max_l2", "max_h1", "start_l2", "start_h1"), 0.0)
                for n in range(1, m + 1):
                    d = rt.coords[n] - ref.coords[n * (64 // m)]
                    for norm, mat in norms.items():
                        key = ("max_" if n >= q else "start_") + norm
                        want[key] = max(want[key], float(np.sqrt(d @ mat @ d)))
                for key, value in want.items():
                    assert abs(row[key] - value) <= 1e-14 * value, (q, m, key)
                assert q > 1 or row["start_l2"] == row["start_h1"] == 0.0

    def test_convergence_row_without_main_loop_steps_is_nan(self, tmp_path):
        # at q 5, M 4 every step is a starting value: the main-loop maxima are
        # NaN, not 0, and the CSV leaves the pairwise orders next to it blank
        setup = build_desk_setup(tiny_cfg())
        romsys = make_rom(setup, 4)
        coords0 = initial_coords(romsys, setup.fom_traj.states[0])
        results = temporal_convergence_study(
            romsys, coords0, 1.6, q_values=(5,), m_values=(4, 8), ref_factor=4
        )
        short, full = results[5]
        assert np.isnan(short["max_l2"]) and np.isnan(short["max_h1"])
        assert short["start_l2"] > 0 and short["start_h1"] > 0
        assert np.isfinite(full["max_l2"]) and full["max_l2"] > 0
        conv = tmp_path / "conv.csv"
        emit_convergence_csv(str(conv), results, 1.6)
        rows = [line.split(",") for line in conv.read_text().splitlines() if line[0].isdigit()]
        assert [row[:2] for row in rows] == [["5", "4"], ["5", "8"]]
        assert rows[0][3:5] == ["nan", "nan"]
        assert rows[0][-1] == rows[1][-1] == ""

    def test_convergence_rows_name_the_step_of_each_maximum(self):
        # max_l2_step and max_h1_step are the argmax over the main-loop steps
        # n = q..M of the per-step errors recomputed from the coordinates,
        # and None at q 5, M 4, where no main-loop step is left
        setup = build_desk_setup(tiny_cfg())
        romsys = make_rom(setup, 4)
        coords0 = initial_coords(romsys, setup.fom_traj.states[0])
        results = temporal_convergence_study(
            romsys, coords0, 1.6, q_values=(2, 5), m_values=(4, 16), ref_factor=4
        )
        ref = rom_integrate(romsys, 5, 1.6 / 64, 1.6, ("bootstrap", coords0), 1e-12)
        assert results[5][0]["max_l2_step"] is None and results[5][0]["max_h1_step"] is None
        for q, m in ((2, 4), (2, 16), (5, 16)):
            row = next(row for row in results[q] if row["M"] == m)
            rt = rom_integrate(romsys, q, 1.6 / m, 1.6, ("bootstrap", coords0))
            d = rt.coords - ref.coords[:: 64 // m]
            for norm, mat in (("l2", romsys.reduced_mass), ("h1", romsys.reduced_stiffness)):
                errors = np.einsum("ni,ij,nj->n", d, mat, d)
                assert row[f"max_{norm}_step"] == q + int(np.argmax(errors[q:])), (q, m, norm)

    @pytest.mark.parametrize(
        "m_values, ref_factor", [((16, 8), 4), ((8, 24), 3)], ids=["descending", "non-dyadic"]
    )
    def test_convergence_csv_orders_are_estimate_orders(self, tmp_path, m_values, ref_factor):
        # the CSV's pairwise_order_l2 is estimate_order's pairwise list at
        # %.6g for any sequence of M, not only a doubling one: positive where
        # the error falls with dt
        setup = build_desk_setup(tiny_cfg())
        romsys = make_rom(setup, 4)
        coords0 = initial_coords(romsys, setup.fom_traj.states[0])
        results = temporal_convergence_study(
            romsys, coords0, 1.6, q_values=(2, 3), m_values=m_values, ref_factor=ref_factor
        )
        conv = tmp_path / "conv.csv"
        emit_convergence_csv(str(conv), results, 1.6)
        lines = [line.split(",") for line in conv.read_text().splitlines()[2:]]
        for q, rows in results.items():
            points = [(1.6 / row["M"], row["max_l2"]) for row in rows]
            _, pairwise = estimate_order(points)
            orders = [line[-1] for line in lines if line[0] == str(q)]
            assert orders == [""] + [f"{p:.6g}" for p in pairwise]
            (dt0, err0), (dt1, err1) = points
            assert (dt0 - dt1) * (err0 - err1) > 0, (q, points)
            assert pairwise[0] > 0, (q, pairwise)

    def test_convergence_study_rejects_m_not_dividing_the_reference(self, monkeypatch):
        # ref_factor 2 x max M 32 = 64, which M 24 does not divide: rejected
        # before the reference run, not by a broadcast error after it
        setup = build_desk_setup(tiny_cfg(M=32, T=3.2))
        romsys = make_rom(setup, 4)
        coords0 = initial_coords(romsys, setup.fom_traj.states[0])
        runs = []
        monkeypatch.setattr(harness, "rom_integrate", lambda *args: runs.append(args))
        with pytest.raises(ValueError, match=r"M = 24 does not divide m_ref .* = 64"):
            temporal_convergence_study(romsys, coords0, 3.2, m_values=(24, 32), ref_factor=2)
        assert runs == []

    def test_convergence_study_rejects_a_step_of_one_or_more_before_any_run(self, monkeypatch):
        # the sweep's M 64 at T 70 is a step of 1.09 at q 2: rejected, naming
        # T and M, before the reference or any other ROM run
        setup = build_desk_setup(tiny_cfg())
        romsys = make_rom(setup, 4)
        coords0 = initial_coords(romsys, setup.fom_traj.states[0])
        runs = []
        monkeypatch.setattr(harness, "rom_integrate", lambda *args: runs.append(args))
        with pytest.raises(ValueError, match="T = 70.0 and M = 64"):
            temporal_convergence_study(romsys, coords0, 70.0, (2,), (64, 128))
        assert runs == []

    def test_r_refinement_study_rejects_a_rank_outside_the_basis(self, monkeypatch):
        # rank 99 is rejected by its ROM's assembly before the rank 2 run,
        # not after it
        setup = build_desk_setup(tiny_cfg(M=24, T=2.4))
        runs = []
        monkeypatch.setattr(harness, "rom_integrate", lambda *args: runs.append(args))
        with pytest.raises(InvalidRankError, match=r"rank 99 is outside 1\.\.\d+, the basis dimension"):
            r_refinement_study(setup, setup.fom_traj, (2, 99), q=2)
        assert runs == []

    def test_r_refinement_monotone_projection(self):
        setup = build_desk_setup(tiny_cfg(M=24, T=2.4))
        rows = r_refinement_study(setup, setup.fom_traj, (2, 4, 6), q=2)
        proj = [row["proj_h1"] for row in rows]
        assert all(proj[i + 1] <= proj[i] * (1 + 1e-12) for i in range(len(proj) - 1))

    def test_r_refinement_rows_name_the_step_of_each_maximum(self):
        # each maximum's _step is the argmax over n = q..M of its per-step
        # error, recomputed from the ROM coordinates and the projection
        setup = build_desk_setup(tiny_cfg(M=24, T=2.4))
        traj, q = setup.fom_traj, 2
        fluct = (traj.stacked() - setup.snaps.mean).T
        mass, stiffness = setup.fom_traj.space.mass_matrix(2), setup.fom_traj.space.stiffness_matrix(2)
        for row in r_refinement_study(setup, traj, (2, 4), q=q):
            romsys = make_rom(setup, row["r"])
            coords0 = initial_coords(romsys, traj.states[0])
            rt = rom_integrate(romsys, q, traj.dt, traj.times[-1], ("bootstrap", coords0))
            coeffs, reconstruction = project(setup.basis, row["r"], fluct)
            d, resid = rt.coords - coeffs.T, fluct - reconstruction
            errors = {
                "pod_l2": np.einsum("ni,ij,nj->n", d, romsys.reduced_mass, d),
                "pod_h1": np.einsum("ni,ij,nj->n", d, romsys.reduced_stiffness, d),
                "proj_l2": np.sum(resid * mass.matvec(resid), axis=0),
                "proj_h1": np.sum(resid * stiffness.matvec(resid), axis=0),
            }
            for key, values in errors.items():
                assert row[f"{key}_step"] == q + int(np.argmax(values[q:])), (row["r"], key)

    def test_r_refinement_norms_do_not_follow_the_basis_inner_product(self):
        # under an L2 basis, proj_h1 is still the stacked-stiffness (H1)
        # norm of the projection residual, computed here directly
        setup = build_desk_setup(tiny_cfg(M=16, T=1.0, inner_product="L2"))
        q, r = 3, 2
        row = r_refinement_study(setup, setup.fom_traj, (r,), q=q)[0]
        fluct = (setup.fom_traj.stacked() - setup.snaps.mean).T
        phi = setup.basis.modes[:, :r]
        resid = fluct - phi @ (phi.T @ setup.fom_traj.space.mass_matrix(2).matvec(fluct))
        h1_sq = np.sum(resid * setup.fom_traj.space.stiffness_matrix(2).matvec(resid), axis=0)
        assert row["proj_h1"] == pytest.approx(np.sqrt(h1_sq[q:].max()), rel=1e-12)
        assert row["proj_h1"] > 2.0 * row["proj_l2"]

    def test_spatial_convergence_smoke(self):
        pts = spatial_convergence_study(0.02, n_sides=(4, 8), t_end=0.05)
        slope, _ = estimate_order(pts)
        assert slope > 2.5


class TestCli:
    def test_check_exits_zero(self, capsys):
        assert cli.main(["check"]) == 0
        out = capsys.readouterr().out
        assert "bdf identities: ok" in out
        assert "pod identities: ok" in out

    @pytest.mark.parametrize(
        "module, name, broken, line",
        [
            (cli, "bdf_increment_form", lambda form: lambda *args: form(*args) + 1.0,
             "FAIL: BDF-1: first-difference decomposition mismatch"),
            (pod, "build_pod_basis", with_doubled_modes, "FAIL: POD modes not orthonormal"),
            (pod, "tail_identity_check", lambda check: lambda snaps, basis, r: (basis.eigenvalues[0], 0.0),
             "FAIL: tail identity fails at r = 0"),
        ],
        ids=["bdf", "orthonormality", "tail"],
    )
    def test_check_reports_each_failed_identity(self, monkeypatch, capsys, module, name, broken, line):
        # each identity that `check` tests, made to fail, exits 1 and prints
        # its own FAIL line on stderr
        monkeypatch.setattr(module, name, broken(getattr(module, name)))
        assert cli.main(["check"]) == cli.PIPELINE_ERROR
        assert line in capsys.readouterr().err.splitlines()

    def test_usage_errors_exit_two(self, tmp_path, capsys, monkeypatch):
        assert cli.main(["frobnicate"]) == cli.USAGE_ERROR
        bad = tmp_path / "bad.cfg"
        bad.write_text("frobnicate = 1\n")
        assert cli.main(["mesh", "--config", str(bad)]) == cli.USAGE_ERROR
        missing = str(tmp_path / "nope.cfg")
        assert cli.main(["mesh", "--config", missing]) == cli.USAGE_ERROR
        assert cli.main(["fom", "--M", "0", "--out", str(tmp_path / "out")]) == cli.USAGE_ERROR
        # a mistyped enumerated value or a rank below 1 is rejected before any
        # run, with a message that names the key
        out = str(tmp_path / "out")
        for line, key in (
            ("inner_product = h10", "inner_product"),
            ("w0_mode = bogus", "w0_mode"),
            ("newton_rule = paper", "newton_rule"),
        ):
            bad.write_text(line + "\n")
            capsys.readouterr()
            assert cli.main(["fom", "--config", str(bad), "--out", out]) == cli.USAGE_ERROR
            assert key in capsys.readouterr().err
        for rank in ("0", "-3"):
            assert cli.main(["rom", "--r", rank, "--out", out]) == cli.USAGE_ERROR
            assert f"r_grid ranks must be at least 1, got ({rank},)" in capsys.readouterr().err
        # a step T/M of 1 or more at q >= 2 is named by T, M and T/M, not by
        # the bootstrap's exponent rule
        bad.write_text("n_side = 4\nT = 8\nM = 4\nq = 3\n")
        assert cli.main(["fom", "--config", str(bad), "--out", out]) == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert err == f"error: {bad}: q >= 2 needs a step T/M below 1, got T = 8.0 and M = 4, T/M = 2\n"
        # so is a grid that a stage runs beyond the config's: the fom.traj
        # grid that errors runs at its q, before any ROM run
        runs = []
        monkeypatch.setattr(harness, "rom_integrate", lambda *args: runs.append(args))
        short = str(tmp_path / "short")
        bad.write_text("n_side = 4\nT = 8\nM = 4\nq = 1\n")
        assert cli.main(["fom", "--config", str(bad), "--out", short]) == 0
        capsys.readouterr()
        assert cli.main(["errors", "--config", str(bad), "--out", short, "--q", "3", "--M", "128"]) == cli.USAGE_ERROR
        assert "q >= 2 needs a step T/M below 1, got T = 8.0 and M = 4" in capsys.readouterr().err
        assert runs == []
        # a path that cannot be read or written is a usage error, named in the message
        plain = tmp_path / "plain"
        plain.write_text("")
        for argv, path in (
            (["fom", "--config", str(tmp_path)], tmp_path),
            (["fom", "--out", str(plain)], plain),
            (["rom", "--out", str(plain)], plain),
        ):
            assert cli.main(argv) == cli.USAGE_ERROR
            assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflow_is_one_pipeline_failure_line(self, tmp_path, capsys):
        # nu 1e300 overflows the residual norms: Newton's named failure is the
        # only text on stderr, and numpy warns of no overflow on the way
        cfg = tmp_path / "stiff.cfg"
        cfg.write_text("n_side = 4\nM = 8\nnu = 1e300\n")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["fom", "--config", str(cfg), "--out", str(tmp_path / "out")]) == cli.PIPELINE_ERROR
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("pipeline failure: "), err

    def test_convergence_sweep_scales_with_t(self, tmp_path):
        # at T 70 and M 128 the sweep starts from M 128, not 64, so its
        # coarsest step 0.55 is below 1 and q 2 runs; the orders of this
        # heat run are not checked
        cfg = tmp_path / "heat.cfg"
        cfg.write_text("n_side = 4\nsystem = heat\nnu = 0.1\nT = 70\nM = 128\nr_grid = 4\n")
        out = tmp_path / "heat"
        assert cli.main(["fom", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli.main(["pod", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli.main(["convergence", "--config", str(cfg), "--out", str(out), "--q", "2"]) == 0
        rows = [line.split(",") for line in (out / "convergence.csv").read_text().splitlines()[2:]]
        assert [(row[0], int(row[1])) for row in rows] == [("2", m) for m in (128, 256, 512, 1024, 2048)]
        assert all(np.isfinite(float(v)) for row in rows for v in row[3:7])

    @pytest.mark.parametrize(
        "line, message",
        [
            ("n_side = x", "n_side = 'x' is not a valid int"),
            ("r_grid = 3, y", "r_grid = '3, y' is not a valid comma-separated list of int"),
            ("just some words", "malformed config line: just some words"),
            ("frobnicate = 1", "unknown config key: frobnicate"),
            ("n_side = 8", "repeated config key: n_side"),
            ("M = 0", "M must be at least 1, got 0"),
            ("nu = -1", "nu must be positive and finite, got -1.0"),
            ("T = inf", "T must be positive and finite, got inf"),
            ("tau = nan", "tau must be positive and finite, got nan"),
            ("M = 8\nT = 1e-12", "BDF-5 with T = 1e-12 and M = 8 plans 113147289155 bootstrap steps, above the bound of 100000"),
            ("M = 8\nT = 1e-300", "BDF-5 with T = 1e-300 and M = 8 plans a bootstrap substep that is not a positive normal float"),
        ],
        ids=[
            "int-value", "tuple-entry", "malformed-line", "unknown-key", "repeated-key",
            "M-0", "nu-negative", "T-inf", "tau-nan", "bootstrap-steps", "bootstrap-underflow",
        ],
    )
    def test_config_error_names_the_file_and_the_key(self, tmp_path, capsys, line, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_side = 4\n" + line + "\n")
        capsys.readouterr()
        assert cli.main(["mesh", "--config", str(bad), "--out", str(tmp_path / "out")]) == cli.USAGE_ERROR
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not (tmp_path / "out").exists()

    @settings(max_examples=300, deadline=None)
    @given(st.fixed_dictionaries({flag: st.none() | OVERRIDE for flag in ("--q", "--M", "--r")}))
    def test_fuzz_overrides(self, tmp_path_factory, overrides):
        # any override strings give 0 or a usage error with a message, never
        # an exception
        base = tmp_path_factory.getbasetemp()
        cfg = base / "fuzz-mesh.cfg"
        cfg.write_text("n_side = 2\n")
        argv = ["mesh", "--config", str(cfg), "--out", str(base / "fuzz-mesh")]
        for flag, value in overrides.items():
            if value is not None:
                argv += [flag, value]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, cli.USAGE_ERROR)
        if code == cli.USAGE_ERROR:
            assert err.getvalue().strip()

    @pytest.fixture
    def short_run(self, tmp_path):
        """A BDF-5 snapshot run of M = 4 < q steps, so no main-loop step."""
        cfg = tmp_path / "short.cfg"
        cfg.write_text(f"T = 1.0\nM = 4\nn_side = 4\nr_grid = 2\nout_dir = {tmp_path / 'out'}\n")
        args = ["--config", str(cfg)]
        assert cli.main(["fom", *args]) == 0
        return args, tmp_path / "out"

    def test_rom_with_fewer_steps_than_the_order(self, short_run, capsys):
        args, out_dir = short_run
        assert cli.main(["pod", *args]) == 0
        capsys.readouterr()
        assert cli.main(["rom", *args]) == 0
        assert "Newton iterations: none, M < q" in capsys.readouterr().out
        assert (out_dir / "rom_q5_r2_M4.traj").exists()

    def test_errors_with_fewer_steps_than_the_order(self, short_run, capsys):
        args, out_dir = short_run
        capsys.readouterr()
        assert cli.main(["errors", *args]) == 0
        assert capsys.readouterr().err == ""
        rows = (out_dir / "errors_vs_r.csv").read_text().splitlines()
        # no main-loop step is compared, which must not read as "exact"
        assert rows[-1] == "2,nan,nan,nan,nan"

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda raw, states: b"",
            lambda raw, states: raw[:40],  # within the .npy header
            lambda raw, states: raw[:-8],  # within the values
            lambda raw, states: pickle.dumps(states),
            lambda raw, states: saved(np.save, np.array([1.0, "a"], dtype=object)),
            lambda raw, states: saved(np.save, states.astype(np.float32)),
            lambda raw, states: saved(np.save, states[:-1]),
            lambda raw, states: saved(np.savez, states),
        ],
        ids=["empty", "cut-header", "cut-data", "pickled", "object", "float32", "shape", "npz"],
    )
    def test_bad_states_file_is_a_usage_error(self, short_run, capsys, corrupt):
        # every failure to read the states back names the file and exits 2
        args, out_dir = short_run
        path = out_dir / "fom.states.npy"
        path.write_bytes(corrupt(path.read_bytes(), np.load(path)))
        capsys.readouterr()
        assert cli.main(["pod", *args]) == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err, err

    def test_pod_checks_every_rank_before_it_writes(self, short_run, capsys):
        # a rank above the basis dimension is a usage error that leaves no
        # export and no reduced file, not even for the ranks before it
        args, out_dir = short_run
        cfg = out_dir.parent / "short.cfg"
        cfg.write_text(cfg.read_text().replace("r_grid = 2", "r_grid = 2, 99"))
        capsys.readouterr()
        assert cli.main(["pod", *args]) == cli.USAGE_ERROR
        assert "rank 99 is outside 1.." in capsys.readouterr().err
        assert not list(out_dir.glob("pod.*")) and not list(out_dir.glob("reduced_*"))

    def test_online_stage_reads_only_the_reduced_files(self, short_run):
        # `rom` and `convergence` read pod's reduced system and the config
        # alone: without fom.traj and fom.states.npy they write the same bytes
        args, out_dir = short_run
        assert cli.main(["pod", *args]) == 0
        outputs = ("rom_q5_r2_M4.traj", "rom_q5_r2_M4.coords.mtx", "rom_q5_r2_M4.newton.csv",
                   "convergence.csv", "starting_values.csv")

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["rom", *args]) == 0
                assert cli.main(["convergence", *args, "--q", "2"]) == 0
            return [(out_dir / name).read_bytes() for name in outputs]

        present = run()
        for name in ("fom.traj", "fom.states.npy", *outputs):
            (out_dir / name).unlink()
        assert run() == present

    @pytest.mark.parametrize(
        "line, corrupt",
        [
            ("", None),
            ("tau = 2.0", lambda raw, arrays: raw),
            ("w0_mode = mean", lambda raw, arrays: raw),
            ("inner_product = L2", lambda raw, arrays: raw),
            ("", lambda raw, arrays: b""),
            ("", lambda raw, arrays: raw[: len(raw) // 2]),
            ("", lambda raw, arrays: pickle.dumps(arrays)),
            ("", lambda raw, arrays: saved(np.savez, **{
                k: v.astype(np.float32) if v.ndim else v for k, v in arrays.items()})),
            ("", lambda raw, arrays: saved(np.savez, **{**arrays, "reduced_mass": arrays["reduced_mass"][:, :1]})),
            ("", lambda raw, arrays: saved(np.savez, **{**arrays, "coords0": arrays["coords0"][:1]})),
            ("", lambda raw, arrays: saved(np.savez, **{k: v for k, v in arrays.items() if k != "reaction_tensor"})),
            ("", lambda raw, arrays: saved(np.savez, **{k: v for k, v in arrays.items() if k != "n_dof"})),
            ("", lambda raw, arrays: saved(np.save, arrays["reduced_mass"])),
        ],
        ids=["missing", "tau", "w0_mode", "inner_product", "empty", "truncated", "pickled", "float32",
             "shape", "coords-shape", "missing-array", "missing-record", "npy"],
    )
    def test_bad_reduced_file_is_a_usage_error(self, short_run, capsys, line, corrupt):
        # `rom` and `convergence` name the reduced file they cannot use and
        # exit 2, whether it is missing, made under other settings or corrupt
        args, out_dir = short_run
        path = out_dir / "reduced_r2.npz"
        if corrupt is None:
            assert not path.exists()
        else:
            assert cli.main(["pod", *args]) == 0
            with np.load(path) as data:
                arrays = {key: data[key] for key in data.files}
            path.write_bytes(corrupt(path.read_bytes(), arrays))
        cfg = out_dir.parent / "short.cfg"
        cfg.write_text(cfg.read_text() + line + "\n")
        for sub in ("rom", "convergence"):
            capsys.readouterr()
            assert cli.main([sub, *args]) == cli.USAGE_ERROR
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(path) in err, err
            # a setting the config changed is named with its value, a bad file with the remedy
            assert (line or "run podrom pod") in err, err
        assert not list(out_dir.glob("rom_*")) and not (out_dir / "convergence.csv").exists()

    def test_a_singular_reduced_system_names_its_step(self, short_run, capsys):
        # a reduced file whose arrays are all zero but the constant diffusion
        # term passes the load's checks: its residual is that term at every
        # candidate, and its Jacobian is singular, a pipeline failure whose
        # one stderr line names the bootstrap step where the dense solve failed
        args, out_dir = short_run
        assert cli.main(["pod", *args]) == 0
        path = out_dir / "reduced_r2.npz"
        with np.load(path) as data:
            arrays = {key: np.zeros_like(data[key]) if data[key].ndim else data[key] for key in data.files}
        arrays["diffusion_lift"] = np.ones_like(arrays["diffusion_lift"])
        path.write_bytes(saved(np.savez, **arrays))
        capsys.readouterr()
        assert cli.main(["rom", *args]) == cli.PIPELINE_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith(
            "pipeline failure: bootstrap BDF-1 step n = 1 at t = 0.015625 (step size 0.015625): matrix is singular"
        ), err

    def test_a_fom_run_removes_the_reduced_files_it_makes_stale(self, tmp_path, capsys):
        # pod's reduced systems were built from the trajectory that a later
        # fom run replaces: fom deletes them, so rom names the missing file
        # instead of running on the old POD; pod's exports stay. The output
        # directory's name holds glob characters, which match only themselves
        cfg, out_dir = tmp_path / "run.cfg", tmp_path / "out[1]"
        cfg.write_text(f"n_side = 4\nT = 0.8\nM = 8\nq = 2\nr_grid = 3\nout_dir = {out_dir}\n")
        args = ["--config", str(cfg)]
        for argv in (["fom", *args], ["pod", *args], ["fom", *args, "--M", "16"]):
            assert cli.main(argv) == 0, argv
        capsys.readouterr()
        assert cli.main(["rom", *args, "--M", "16"]) == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert str(out_dir / "reduced_r3.npz") in err and "run podrom pod" in err, err
        assert len([p for p in out_dir.iterdir() if p.name.startswith("pod.")]) == 5
        assert not [p for p in out_dir.iterdir() if p.name.startswith("rom_")]

    @pytest.mark.parametrize(
        "corrupt",
        [lambda index, r: np.roll(index, 1, axis=1), lambda index, r: index + r + 2],
        ids=["rolled", "out-of-range"],
    )
    def test_a_stored_monomial_index_is_not_read(self, tmp_path, corrupt):
        # Tc's column order follows from r and the reaction's degree: a file
        # in the format that also stored it, with a wrong one, runs as the
        # clean file does
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n_side = 4\nT = 1.6\nM = 16\nq = 3\nr_grid = 4\nout_dir = {tmp_path / 'out'}\n")
        args, out_dir = ["--config", str(cfg)], tmp_path / "out"
        outputs = ("rom_q3_r4_M16.traj", "rom_q3_r4_M16.coords.mtx", "rom_q3_r4_M16.newton.csv")

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["rom", *args]) == 0
            return [(out_dir / name).read_bytes() for name in outputs]

        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["fom", *args]) == 0 and cli.main(["pod", *args]) == 0
        clean = run()
        path = out_dir / "reduced_r4.npz"
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        # the Brusselator's (D - 1, C(r + D - 1, D - 1)) = (2, 15) index at r 4
        stored = corrupt(np.array(list(itertools.combinations_with_replacement(range(5), 2))).T, 4)
        path.write_bytes(saved(np.savez, **{**arrays, "reaction_monomials": stored}))
        assert run() == clean

    def test_pipeline_chain(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "n_side = 4\ndegree = 2\nM = 8\nT = 0.8\nq = 2\nr_grid = 3\n"
            f"out_dir = {tmp_path / 'out'}\n"
        )
        args = ["--config", str(cfg)]
        assert cli.main(["mesh", *args]) == 0
        assert cli.main(["fom", *args]) == 0
        assert cli.main(["pod", *args]) == 0
        assert cli.main(["rom", *args]) == 0
        assert cli.main(["errors", *args]) == 0
        out_dir = tmp_path / "out"
        for name in ("mesh.txt", "fom.traj", "pod.modes.mtx", "errors_vs_r.csv"):
            assert (out_dir / name).exists(), name
        # `convergence` reads pod's reduced system: it runs no FOM
        def no_fom(*args, **kwargs):
            raise AssertionError("convergence ran a FOM")

        with monkeypatch.context() as patch:
            patch.setattr(harness, "fom_integrate", no_fom)
            assert cli.main(["convergence", *args, "--q", "2"]) == 0
        for name in ("convergence.csv", "starting_values.csv"):
            assert (out_dir / name).exists(), name
        rom_files = list(out_dir.glob("rom_q2_r3_M8.*"))
        assert sorted(p.name[len("rom_q2_r3_M8"):] for p in rom_files) == [".coords.mtx", ".newton.csv", ".traj"]
        csv_lines = (out_dir / "errors_vs_r.csv").read_text().splitlines()
        assert csv_lines[1].startswith("r,")
        # `pod`'s exports are the basis that `errors` rebuilds from fom.traj
        # and the config and that `rom`'s reduced system was assembled from,
        # and `rom` runs without them
        traj, _ = load_trajectory(str(out_dir / "fom"))
        setup = build_desk_setup(parse_config(str(cfg)), fom_traj=traj)
        assert np.array_equal(mmio.read(out_dir / "pod.modes.mtx"), setup.basis.modes)
        coords_path = out_dir / "rom_q2_r3_M8.coords.mtx"
        coords = mmio.read(coords_path)
        # `rom` writes reduced data only; its nodal field is rebuilt from the
        # exports as pod.mean.mtx + pod.modes.mtx[:, :r] @ coords
        romsys = make_rom(setup, 3)
        rt = rom_integrate(romsys, 2, 0.1, 0.8, ("bootstrap", initial_coords(romsys, traj.states[0])))
        assert np.array_equal(coords, rt.coords.T)
        rebuilt = mmio.read(out_dir / "pod.mean.mtx") + mmio.read(out_dir / "pod.modes.mtx")[:, :3] @ coords
        lifted = rom_to_nodal_trajectory(romsys, rt).stacked().T
        assert np.linalg.norm(rebuilt - lifted) <= 1e-14 * np.linalg.norm(lifted)
        pod_files = list(out_dir.glob("pod.*"))
        assert len(pod_files) == 5
        for path in pod_files:
            path.unlink()
        coords_path.unlink()
        assert cli.main(["rom", *args]) == 0
        assert np.array_equal(mmio.read(coords_path), coords)
        # an unattainable Newton tolerance is a pipeline failure that names
        # the order, the step and the time where Newton gave up
        strict = tmp_path / "strict.cfg"
        strict.write_text(cfg.read_text() + "newton_rule = 1e-30\n")
        capsys.readouterr()
        assert cli.main(["rom", "--config", str(strict), "--q", "1"]) == cli.PIPELINE_ERROR
        assert "BDF-1 step n = 1 at t = 0.1 (step size 0.1)" in capsys.readouterr().err
        # a config whose mesh, degree, system or nu disagrees with fom.traj is
        # a usage error for every subcommand that reads it, raised before
        # anything is written
        for key, value, named in (
            ("n_side", "6", "n_side = 4"),
            ("degree", "1", "degree = 2"),
            ("system", "heat", "2 component(s)"),
            ("nu", "0.5", "nu = 0.002"),
        ):
            other = tmp_path / f"other_{key}.cfg"
            kept = [line for line in cfg.read_text().splitlines() if not line.startswith(f"{key} =")]
            other.write_text("\n".join([*kept, f"{key} = {value}"]) + "\n")
            for sub in ("pod", "rom", "errors", "convergence"):
                capsys.readouterr()
                assert cli.main([sub, "--config", str(other)]) == cli.USAGE_ERROR, (key, sub)
                err = capsys.readouterr().err
                assert f"{key} = {value}" in err and named in err, err
        assert not list(out_dir.glob("pod.*"))
        # so is a fom.traj that does not record its system and nu
        traj_file = out_dir / "fom.traj"
        header = traj_file.read_text()
        traj_file.write_text("".join(
            line for line in header.splitlines(keepends=True) if not line.startswith(("system", "nu"))
        ))
        capsys.readouterr()
        assert cli.main(["pod", *args]) == cli.USAGE_ERROR
        assert "records system = None and nu = None" in capsys.readouterr().err
        traj_file.write_text(header)
        # a header that disagrees with the stored states is a usage error
        traj_file.write_text(traj_file.read_text().replace("M = 8", "M = 9"))
        capsys.readouterr()
        assert cli.main(["pod", *args]) == cli.USAGE_ERROR
        assert "fom.states.npy: expected states float64 (10, 2, " in capsys.readouterr().err
        # so is a header that lacks a key the load needs
        traj_file.write_text(traj_file.read_text().replace("M = 9\n", ""))
        assert cli.main(["pod", *args]) == cli.USAGE_ERROR
        assert "fom.traj: missing header key(s) M" in capsys.readouterr().err
