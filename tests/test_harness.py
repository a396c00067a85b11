"""Study harness and CLI: error measurement against quadratic-form oracles,
order estimation, config parsing, CSV determinism, spatial convergence of the
manufactured solution, and the command-line pipeline."""

import numpy as np
import pytest

from podrom import cli
from podrom.fom import Trajectory
from podrom.harness import (
    RunConfig,
    build_desk_setup,
    compare_trajectories,
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


def random_trajectory(space, m=4, n_comp=1, seed=0, dt=0.25):
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((m + 1, n_comp, space.n_dof))
    return Trajectory(dt * np.arange(m + 1), states, dt, space)


class TestCompareTrajectories:
    def test_identical_is_zero(self):
        space = build_space(build_mesh(3), 1)
        a = random_trajectory(space)
        assert compare_trajectories(a, a, space, 0.5) == (0.0, 0.0, 0.0)

    def test_against_quadratic_form_oracle(self):
        space = build_space(build_mesh(3), 2)
        a = random_trajectory(space, n_comp=2, seed=1)
        b = random_trajectory(space, n_comp=2, seed=2)
        nu = 0.3
        max_l2, max_h1, integ = compare_trajectories(a, b, space, nu, start=1)
        md = space.mass_matrix().to_dense()
        kd = space.stiffness_matrix().to_dense()
        l2s, h1s = [], []
        for n in range(1, 5):
            e = a.states[n] - b.states[n]
            l2s.append(sum(float(c @ md @ c) for c in e))
            h1s.append(sum(float(c @ kd @ c) for c in e))
        assert max_l2 == pytest.approx(np.sqrt(max(l2s)), rel=1e-12)
        assert max_h1 == pytest.approx(np.sqrt(max(h1s)), rel=1e-12)
        assert integ == pytest.approx(a.dt * nu * sum(h1s), rel=1e-12)

    def test_grid_mismatch_rejected(self):
        space = build_space(build_mesh(3), 1)
        a = random_trajectory(space, m=4)
        b = random_trajectory(space, m=5)
        with pytest.raises(ValueError):
            compare_trajectories(a, b, space, 1.0)


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
            "newton_rule = paper\n"
            "out_dir = results\n"
        )
        cfg = parse_config(str(path))
        assert cfg.n_side == 8 and cfg.degree == 2 and cfg.M == 64 and cfg.q == 4
        assert cfg.nu == 0.004 and cfg.T == 3.5 and cfg.tau == 2.0
        assert cfg.r_grid == (4, 8)
        assert cfg.w0_mode == "mean" and cfg.out_dir == "results"

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

    def test_r_refinement_monotone_projection(self):
        setup = build_desk_setup(tiny_cfg(M=24, T=2.4))
        rows = r_refinement_study(setup, setup.fom_traj, (2, 4, 6), q=2)
        proj = [row["proj_h1"] for row in rows]
        assert all(proj[i + 1] <= proj[i] * (1 + 1e-12) for i in range(len(proj) - 1))

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

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        assert cli.main(["frobnicate"]) == cli.USAGE_ERROR
        bad = tmp_path / "bad.cfg"
        bad.write_text("frobnicate = 1\n")
        assert cli.main(["mesh", "--config", str(bad)]) == cli.USAGE_ERROR
        assert cli.main(["tables", "--which", "nonsense"]) == cli.USAGE_ERROR
        missing = str(tmp_path / "nope.cfg")
        assert cli.main(["mesh", "--config", missing]) == cli.USAGE_ERROR
        assert cli.main(["fom", "--M", "0", "--out", str(tmp_path / "out")]) == cli.USAGE_ERROR

    def test_threads_guard(self, tmp_path, monkeypatch):
        for bad in ("0", "abc"):
            monkeypatch.setenv("PODROM_THREADS", bad)
            assert cli.main(["check"]) == cli.USAGE_ERROR
        monkeypatch.setenv("PODROM_THREADS", "2")
        assert cli.main(["check"]) == 0

    def test_pipeline_chain(self, tmp_path, capsys):
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
        rom_files = list(out_dir.glob("rom_q2_r3_M8.*"))
        assert any(p.suffix == ".traj" for p in rom_files)
        csv_lines = (out_dir / "errors_vs_r.csv").read_text().splitlines()
        assert csv_lines[1].startswith("r,")
        # an unattainable Newton tolerance is a pipeline failure that names
        # the order, the step and the time where Newton gave up
        strict = tmp_path / "strict.cfg"
        strict.write_text(cfg.read_text() + "newton_rule = 1e-30\n")
        capsys.readouterr()
        assert cli.main(["rom", "--config", str(strict), "--q", "1"]) == cli.PIPELINE_ERROR
        assert "BDF-1 step n = 1 at t = 0.1 (step size 0.1)" in capsys.readouterr().err
        # a header that disagrees with the stored states is a usage error
        traj_file = out_dir / "fom.traj"
        traj_file.write_text(traj_file.read_text().replace("M = 8", "M = 9"))
        capsys.readouterr()
        assert cli.main(["pod", *args]) == cli.USAGE_ERROR
        assert "fom.comp0.mtx: expected shape" in capsys.readouterr().err
        # so is a header that lacks a key the load needs
        traj_file.write_text(traj_file.read_text().replace("M = 9\n", ""))
        assert cli.main(["pod", *args]) == cli.USAGE_ERROR
        assert "fom.traj: missing header key(s) M" in capsys.readouterr().err
