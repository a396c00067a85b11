"""Command-line pipeline: podrom <subcommand> --config <path> [options].

Subcommands: mesh, fom, pod, rom, errors, convergence, check. `fom` is the
pipeline's one FOM run: it writes fom.traj and fom.states.npy. `pod`, `rom`,
`errors` and `convergence` read only those and the config, which must give
the mesh, degree, system and nu that fom.traj records, and rebuild the same
POD from them deterministically. `pod` exports the modes, eigenvalues,
snapshots and mean, `rom` reduced data only, and no subcommand reads them
back. `rom` runs at the first rank of r_grid, `convergence` at the last and
`errors` at every one.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import harness, pod as pod_mod, rom as rom_mod
from .bdf import bdf_apply, bdf_coefficients, bdf_increment_form
from .fom import Trajectory, load_trajectory, save_trajectory
from .harness import RunConfig, build_desk_setup, parse_config
from .mesh_fem import build_mesh, build_space, export_mesh

USAGE_ERROR = 2
PIPELINE_ERROR = 1


def _load_config(args) -> RunConfig:
    cfg = parse_config(args.config) if args.config else RunConfig()
    overrides = {
        "q": args.q,
        "M": args.M,
        "r_grid": None if args.r is None else (args.r,),
        "out_dir": args.out,
    }
    # replace() re-runs RunConfig's validation on the overridden values
    return dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _fom_stem(cfg):
    return os.path.join(cfg.out_dir, "fom")


def cmd_mesh(cfg: RunConfig) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    mesh = build_mesh(cfg.n_side)
    path = os.path.join(cfg.out_dir, "mesh.txt")
    export_mesh(mesh, path)
    print(f"wrote {path}: {len(mesh.vertices)} vertices, {len(mesh.triangles)} triangles")
    return 0


def _load_desk(cfg: RunConfig) -> harness.DeskSetup:
    """The desk set-up from fom.traj and fom.states.npy, whose system, nu,
    mesh, degree and components must be the config's (ValueError otherwise)."""
    traj, header = load_trajectory(_fom_stem(cfg))
    describe = "system = {} and nu = {} with n_side = {}, degree = {} and {} component(s)".format
    made = describe(
        header.get("system"), header.get("nu"),
        traj.space.mesh.n_side, traj.space.degree, traj.states.shape[1],
    )
    given = describe(
        cfg.system, cfg.nu, cfg.n_side, cfg.degree, harness.SYSTEMS[cfg.system](cfg.nu).n_components
    )
    if made != given:
        raise ValueError(f"{_fom_stem(cfg)}.traj records {made}, but the config gives {given}")
    return build_desk_setup(cfg, fom_traj=traj)


def cmd_fom(cfg: RunConfig) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    traj = harness.desk_fom(cfg)
    save_trajectory(traj, _fom_stem(cfg), extra={"system": cfg.system, "nu": cfg.nu})
    print(f"wrote {_fom_stem(cfg)}.traj ({cfg.M} steps, {traj.space.n_dof} dofs/component)")
    return 0


def cmd_pod(cfg: RunConfig) -> int:
    setup = _load_desk(cfg)
    stem = os.path.join(cfg.out_dir, "pod")
    pod_mod.save_basis(setup.basis, stem)
    pod_mod.save_snapshots(setup.snaps, stem)
    print(f"wrote {stem}.modes.mtx (d_r = {setup.basis.d_r})")
    return 0


def cmd_rom(cfg: RunConfig) -> int:
    setup = _load_desk(cfg)
    r = cfg.r_grid[0]
    romsys = harness.make_rom(setup, r)
    coords0 = harness.initial_coords(romsys, setup.fom_traj.states[0])
    rt = rom_mod.rom_integrate(
        romsys, cfg.q, cfg.T / cfg.M, cfg.T, ("bootstrap", coords0), cfg.newton_rule
    )
    stem = os.path.join(cfg.out_dir, f"rom_q{cfg.q}_r{r}_M{cfg.M}")
    rom_mod.save_rom_trajectory(romsys, rt, stem)
    counts = rt.newton_iteration_counts
    summary = f"min {counts.min()}, max {counts.max()}" if counts.size else "none, M < q"
    print(f"wrote {stem}.traj (Newton iterations: {summary})")
    return 0


def cmd_errors(cfg: RunConfig) -> int:
    setup = _load_desk(cfg)
    rows = harness.r_refinement_study(setup, setup.fom_traj, cfg.r_grid, cfg.q, cfg.newton_rule)
    path = os.path.join(cfg.out_dir, "errors_vs_r.csv")
    harness.emit_r_refinement_csv(path, rows)
    print(f"wrote {path}")
    return 0


def cmd_convergence(cfg: RunConfig, q_values=(1, 2, 3, 4, 5)) -> int:
    setup = _load_desk(cfg)
    romsys = harness.make_rom(setup, cfg.r_grid[-1])
    coords0 = harness.initial_coords(romsys, setup.fom_traj.states[0])
    # the sweep grows with M, and with T so that its coarsest step T/M is below 1
    scale = max(1, cfg.M // 128, int(cfg.T // 64) + 1)
    m_values = tuple(m * scale for m in harness.DEFAULT_M_SWEEP)
    results = harness.temporal_convergence_study(
        romsys, coords0, cfg.T, q_values, m_values, newton_rule=cfg.newton_rule
    )
    path = os.path.join(cfg.out_dir, "convergence.csv")
    harness.emit_convergence_csv(path, results, cfg.T)
    sv_path = os.path.join(cfg.out_dir, "starting_values.csv")
    harness.emit_starting_values_csv(sv_path, results)
    print(f"wrote {path} and {sv_path}")
    return 0


def cmd_check(cfg: RunConfig) -> int:
    """Fast identity suites; exits nonzero on any failure."""
    rng = np.random.default_rng(0)
    failures = []

    for q in range(1, 6):
        scheme = bdf_coefficients(q)
        seq = [rng.standard_normal(8) for _ in range(q + 1)]
        a = bdf_apply(scheme, seq, 0.01)
        b = bdf_increment_form(scheme, seq[0] - seq[1], seq[1:], 0.01)
        if np.linalg.norm(a - b) > 1e-13 * max(1.0, np.linalg.norm(a)):
            failures.append(f"BDF-{q}: first-difference decomposition mismatch")
    print(f"bdf identities: {'FAIL' if failures else 'ok'}")

    # synthetic snapshot set on a small mesh: tail identity and orthonormality
    space = build_space(build_mesh(4), 1)
    m_small = 12
    states = rng.standard_normal((m_small + 1, 1, space.n_dof))
    states[:, :, space.dirichlet_mask] = 0.0
    traj = Trajectory(0.1 * np.arange(m_small + 1), states, 0.1, space)
    snaps, basis = pod_mod.build_pod_basis(traj, tau=1.0, w0_mode=pod_mod.W0_INITIAL)
    gram = basis.gram_operator
    g = basis.modes.T @ gram.matvec(basis.modes)
    if np.max(np.abs(g - np.eye(basis.d_r))) > 1e-10:
        failures.append("POD modes not orthonormal")
    for r in (0, basis.d_r // 2, basis.d_r):
        lhs, rhs = pod_mod.tail_identity_check(snaps, basis, r)
        if abs(lhs - rhs) > 1e-10 * basis.eigenvalues[0]:
            failures.append(f"tail identity fails at r = {r}")
    print(f"pod identities: {'FAIL' if failures else 'ok'}")

    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return PIPELINE_ERROR if failures else 0


COMMANDS = {"mesh": cmd_mesh, "fom": cmd_fom, "pod": cmd_pod, "rom": cmd_rom, "errors": cmd_errors,
            "convergence": cmd_convergence, "check": cmd_check}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="podrom", description=__doc__)
    parser.add_argument("subcommand", choices=list(COMMANDS))
    parser.add_argument("--config", default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--q", type=int, default=None)
    parser.add_argument("--r", type=int, default=None)
    parser.add_argument("--M", type=int, default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        cfg = _load_config(args)
        # an overflow leaves a non-finite residual, which the Newton or Krylov
        # failure then names with its step; numpy's warning would only precede it
        with np.errstate(over="ignore"):
            if args.subcommand == "convergence" and args.q:  # --q selects the sweep's one order
                return cmd_convergence(cfg, (args.q,))
            return COMMANDS[args.subcommand](cfg)
    except (ValueError, OSError) as exc:  # bad input, or a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # pipeline failures carry step diagnostics
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return PIPELINE_ERROR


if __name__ == "__main__":
    sys.exit(main())
