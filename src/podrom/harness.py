"""Run configuration and pipeline orchestration: the validated config, the
desk setup (FOM snapshot run and POD), and the studies behind the
r-refinement, temporal-order and starting-value CSV tables, with
convergence-slope estimation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .bdf import check_step
from .fom import (
    ReactionSystem,
    Trajectory,
    brusselator_system,
    fom_integrate,
    heat_system,
    perturbed_equilibrium,
)
from .mesh_fem import FeSpace, build_mesh, build_space, interpolate
from .pod import (
    H10,
    INNER_PRODUCTS,
    L2,
    W0_MODES,
    W0_ZERO,
    PodBasis,
    SnapshotSet,
    build_pod_basis,
    gram_matrix,
    projection_errors,
)
from .rom import RomSystem, initial_coords, newton_tolerance, rom_assemble, rom_integrate

DEFAULT_T = 7.090636  # integration window used by the desk-scale protocol
DEFAULT_M_SWEEP = (64, 128, 256, 512, 1024)
#: the configurable systems, each built from its diffusion coefficient nu
SYSTEMS = {"brusselator": brusselator_system, "heat": heat_system}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    n_side: int = 16
    degree: int = 2
    system: str = "brusselator"
    nu: float = 0.002
    T: float = DEFAULT_T
    M: int = 128
    q: int = 5
    r_grid: tuple = (6, 10, 14, 18)
    tau: float = 1.0
    w0_mode: str = W0_ZERO
    inner_product: str = H10
    newton_rule: str = "step-coupled"
    out_dir: str = "out"

    def __post_init__(self):
        for key in ("n_side", "M"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1, got {getattr(self, key)}")
        for key in ("T", "tau"):
            if not 0 < getattr(self, key) < np.inf:
                raise ValueError(f"{key} must be positive and finite, got {getattr(self, key)}")
        if self.degree not in (1, 2):
            raise ValueError(f"degree must be 1 or 2, got {self.degree}")
        check_step(self.q, self.T, self.M)
        if not self.r_grid or min(self.r_grid) < 1:
            raise ValueError(f"r_grid ranks must be at least 1, got {self.r_grid}")
        for key, allowed in (
            ("system", tuple(SYSTEMS)),
            ("w0_mode", W0_MODES),
            ("inner_product", INNER_PRODUCTS),
        ):
            value = getattr(self, key)
            if value not in allowed:
                raise ValueError(f"{key} must be one of {', '.join(allowed)}, got {value!r}")
        SYSTEMS[self.system](self.nu)  # the system checks nu
        newton_tolerance(self.newton_rule)


def parse_config(path: str) -> RunConfig:
    """Flat key = value file with # comments. Each value is read as the type
    of its RunConfig field's default; a tuple as comma-separated entries. A
    line without "=", an unknown or repeated key, a value not of its key's
    type and a value RunConfig rejects raise ValueError naming ``path`` and
    the line or the key."""
    defaults = vars(RunConfig())
    kwargs = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: malformed config line: {raw.rstrip()}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in defaults:
                raise ValueError(f"{path}: unknown config key: {key}")
            default = defaults[key]
            many = isinstance(default, tuple)
            kind = type(default[0] if many else default)
            try:
                value = tuple(kind(v) for v in val.split(",")) if many else kind(val)
            except ValueError:
                what = f"comma-separated list of {kind.__name__}" if many else kind.__name__
                raise ValueError(f"{path}: {key} = {val!r} is not a valid {what}") from None
            if key in kwargs:
                raise ValueError(f"{path}: repeated config key: {key}")
            kwargs[key] = value
    try:
        return RunConfig(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# error measurement
# ---------------------------------------------------------------------------


def _pairwise_order(dt0, err0, dt1, err1):
    """The observed order between two runs, log(err0 / err1) / log(dt0 / dt1)."""
    return float(np.log(err0 / err1) / np.log(dt0 / dt1))


def estimate_order(errors):
    """Least-squares slope of log err versus log dt, plus pairwise orders.

    ``errors`` is a list of (dt, err) with err > 0. Returns (slope, pairwise), where
    pairwise[i] = ``_pairwise_order`` of points i and i + 1, as in convergence.csv.
    """
    if len(errors) < 2:
        raise ValueError("need at least two (dt, err) points")
    dts = np.array([d for d, _ in errors], dtype=np.float64)
    errs = np.array([e for _, e in errors], dtype=np.float64)
    if np.any(errs <= 0) or np.any(dts <= 0):
        raise ValueError("errors and steps must be positive")
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    pairwise = [_pairwise_order(dts[i], errs[i], dts[i + 1], errs[i + 1]) for i in range(len(errs) - 1)]
    return float(slope), pairwise


def l2_error_vs_exact(space: FeSpace, nodal: np.ndarray, exact) -> float:
    """Quadrature L2 norm of u_h - u for a scalar field and exact u(x, y)."""
    qc = space.quadrature_points
    diff = space.at_quadrature(nodal[None])[0] - exact(qc[..., 0], qc[..., 1])
    return float(np.sqrt(np.sum(space.quadrature_weights * diff**2)))


# ---------------------------------------------------------------------------
# desk-scale pipeline
# ---------------------------------------------------------------------------


@dataclass
class DeskSetup:
    cfg: RunConfig
    space: FeSpace
    system: ReactionSystem
    fom_traj: Trajectory
    snaps: SnapshotSet
    basis: PodBasis


def desk_fom(cfg: RunConfig) -> Trajectory:
    """The configured FOM snapshot run: BDF-q over M steps of [0, T], from the
    perturbed equilibrium, or for heat from sin(pi x) sin(pi y), 0 on gamma1."""
    space = build_space(build_mesh(cfg.n_side), cfg.degree)
    if cfg.system == "brusselator":
        u0 = perturbed_equilibrium(space)
    else:
        u0 = interpolate(space, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))[None, :]
        u0[:, space.dirichlet_mask] = 0.0
    return fom_integrate(SYSTEMS[cfg.system](cfg.nu), space, u0, cfg.T / cfg.M, cfg.T, cfg.q)


def build_desk_setup(cfg: RunConfig, fom_traj: Trajectory | None = None) -> DeskSetup:
    """POD basis per the configured protocol, from ``fom_traj`` or else from
    a fresh desk FOM run. A given ``fom_traj`` must be of the config's mesh,
    degree and system: the CLI loads fom.states.npy and checks fom.traj."""
    fom_traj = desk_fom(cfg) if fom_traj is None else fom_traj
    snaps, basis = build_pod_basis(fom_traj, cfg.tau, cfg.w0_mode, cfg.inner_product)
    return DeskSetup(cfg, fom_traj.space, SYSTEMS[cfg.system](cfg.nu), fom_traj, snaps, basis)


def make_rom(setup: DeskSetup, r: int) -> RomSystem:
    return rom_assemble(setup.basis, r, setup.space, setup.system, setup.snaps.mean)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


def _reduced_norms(romsys: RomSystem, d: np.ndarray):
    """(L2, H1) norms of the lifted coordinate differences Phi d, one per
    row of ``d``."""
    l2 = np.sqrt(np.maximum(0.0, np.sum((d @ romsys.reduced_mass) * d, axis=1)))
    h1 = np.sqrt(np.maximum(0.0, np.sum((d @ romsys.reduced_stiffness) * d, axis=1)))
    return l2, h1


def temporal_convergence_study(
    romsys: RomSystem,
    coords0: np.ndarray,
    t_end: float,
    q_values=(1, 2, 3, 4, 5),
    m_values=DEFAULT_M_SWEEP,
    ref_factor: int = 8,
    newton_rule="step-coupled",
):
    """Temporal-order sweep: ROM at each (q, M) against a tight BDF-5 ROM
    reference on a ref_factor-times-finer grid.

    Returns a dict keyed by q with rows (M, max_l2, max_h1, start_l2,
    start_h1, newton_counts, max_l2_step, max_h1_step), a ``_step`` the
    main-loop step n (at t_n = n dt) of its maximum; max_l2 and max_h1 are
    NaN, and their steps None, when M < q leaves no main-loop step. Raises
    ValueError, before any run, for an M that does not divide the
    reference's M and for a sweep or reference grid ``check_step`` rejects.
    """
    m_ref = ref_factor * max(m_values)
    for m in m_values:
        if m_ref % m:
            raise ValueError(f"M = {m} does not divide m_ref = ref_factor * max(M) = {m_ref}")
        for q in q_values:
            check_step(q, t_end, m)
    check_step(5, t_end, m_ref)
    # the reference solve gets a fixed tight tolerance: the step-coupled rule
    # would demand residuals below roundoff at the reference step size
    ref = rom_integrate(
        romsys, 5, t_end / m_ref, t_end, ("bootstrap", coords0), 1e-12
    )
    results = {}
    for q in q_values:
        rows = []
        for m in m_values:
            dt = t_end / m
            rt = rom_integrate(romsys, q, dt, t_end, ("bootstrap", coords0), newton_rule)
            l2, h1 = _reduced_norms(romsys, rt.coords - ref.coords[:: m_ref // m])
            max_l2, max_h1 = _main_loop_max(l2, q), _main_loop_max(h1, q)  # (maximum, step) pairs
            rows.append(
                {
                    "M": m,
                    "max_l2": max_l2[0],
                    "max_h1": max_h1[0],
                    "start_l2": float(l2[1:q].max(initial=0.0)),
                    "start_h1": float(h1[1:q].max(initial=0.0)),
                    "newton_counts": rt.newton_iteration_counts,
                    "max_l2_step": max_l2[1],
                    "max_h1_step": max_h1[1],
                }
            )
        results[q] = rows
    return results


def r_refinement_study(
    setup: DeskSetup,
    fom_fine: Trajectory,
    r_values,
    q: int = 5,
    newton_rule="step-coupled",
):
    """Rank-refinement table: max errors of u_r^n against P^r u_h(t_n) and
    the projection errors (I - P^r) u_h(t_n) over the main-loop steps
    n = q..M of the fine FOM grid, NaN when M < q, in L2 and the H1 seminorm:
    rows (r, pod_l2, pod_h1, proj_l2, proj_h1) and the main-loop step n of
    each maximum, under its key with ``_step`` appended (None when M < q).
    A fine grid that ``check_step`` rejects at q (ValueError) or a rank outside
    the basis (InvalidRankError) raises before any run."""
    t_end = fom_fine.times[-1]
    dt = fom_fine.dt
    check_step(q, t_end, fom_fine.n_steps)
    fluct = (fom_fine.stacked() - setup.snaps.mean[None, :]).T  # (dim, M+1)
    nc = setup.system.n_components
    grams = [gram_matrix(setup.space, L2, nc), gram_matrix(setup.space, H10, nc)]
    romsystems = [make_rom(setup, r) for r in r_values]
    rows = []
    for r, romsys in zip(r_values, romsystems):
        coords0 = initial_coords(romsys, fom_fine.states[0])
        rt = rom_integrate(romsys, q, dt, t_end, ("bootstrap", coords0), newton_rule)
        proj_coords, (proj_l2_sq, proj_h1_sq) = projection_errors(setup.basis, r, fluct, grams)
        # (maximum, step) pairs
        pod_l2, pod_h1 = (_main_loop_max(v, q) for v in _reduced_norms(romsys, rt.coords - proj_coords.T))
        proj_l2, proj_h1 = _main_loop_max(proj_l2_sq, q), _main_loop_max(proj_h1_sq, q)
        rows.append(
            {
                "r": r,
                "pod_l2": pod_l2[0],
                "pod_h1": pod_h1[0],
                "proj_l2": float(np.sqrt(proj_l2[0])),
                "proj_h1": float(np.sqrt(proj_h1[0])),
                "pod_l2_step": pod_l2[1],
                "pod_h1_step": pod_h1[1],
                "proj_l2_step": proj_l2[1],
                "proj_h1_step": proj_h1[1],
            }
        )
    return rows


def _main_loop_max(values: np.ndarray, q: int):
    """The largest of values[q:], the main-loop steps, floored at 0, and the
    step n = q.. that holds it, or (NaN, None) when M < q leaves no
    main-loop step to compare."""
    if len(values) <= q:
        return np.nan, None
    main = values[q:]
    return float(main.max(initial=0.0)), q + int(np.argmax(main))


def spatial_convergence_study(nu: float, n_sides=(8, 16, 32), t_end: float = 0.1, q: int = 3):
    """Manufactured heat solution u = e^{-t} cos(pi x / 2) cos(pi y / 2):
    L2 spatial errors on a sequence of P2 meshes under tight time stepping."""
    lam = -1.0 + nu * np.pi**2 / 2.0

    def shape(x, y):
        return np.cos(np.pi * x / 2.0) * np.cos(np.pi * y / 2.0)

    system = heat_system(nu, forcing=[(lambda t: lam * np.exp(-t), shape)])
    out = []
    for n_side in n_sides:
        space = build_space(build_mesh(n_side), 2)
        u0 = interpolate(space, shape)[None, :]
        dt = t_end / 100
        traj = fom_integrate(system, space, u0, dt, t_end, q, tol=1e-12)
        err = l2_error_vs_exact(space, traj.states[-1, 0], lambda x, y: np.exp(-t_end) * shape(x, y))
        out.append((1.0 / n_side, err))
    return out


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def write_csv(path, comment, columns, rows):
    """A ``# comment`` line, the column names and one line per row: the one
    place a table value is formatted, an int as is, None blank, else %.6g."""

    def field(v):
        return "" if v is None else str(v) if isinstance(v, (int, np.integer)) else f"{v:.6g}"

    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"# {comment}\n" + ",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(field, row)) + "\n")


def emit_convergence_csv(path, results, t_end):
    """One row per (q, M), its order taken against the q's row before it."""
    columns = ["q", "M", "dt", "max_l2", "max_h1", "start_l2", "start_h1", "pairwise_order_l2"]
    rows = []
    for q in sorted(results):
        prev = None
        for row in results[q]:
            dt, err = t_end / row["M"], row["max_l2"]
            order = _pairwise_order(*prev, dt, err) if prev and prev[1] > 0 and err > 0 else None
            rows.append([q, row["M"], dt, err, row["max_h1"], row["start_l2"], row["start_h1"], order])
            prev = dt, err
    write_csv(path, "maximum errors along the window vs tight BDF-5 reference", columns, rows)


def emit_r_refinement_csv(path, rows):
    columns = ["r", "pod_max_l2", "proj_max_l2", "pod_max_h1", "proj_max_h1"]
    out = [[r["r"], r["pod_l2"], r["proj_l2"], r["pod_h1"], r["proj_h1"]] for r in rows]
    write_csv(path, "maximum errors vs reduced rank (L2 norm; H1 seminorm)", columns, out)


def emit_starting_values_csv(path, results):
    """start_l2, then start_h1, per q >= 2 and M; blank where q has no run at M."""
    ms = sorted({row["M"] for rows in results.values() for row in rows})
    by_m = {q: {row["M"]: row for row in results[q]} for q in sorted(results) if q >= 2}
    columns = ["M"] + [f"q{q}_l2" for q in by_m] + [f"q{q}_h1" for q in by_m]
    norms = ("start_l2", "start_h1")
    out = [[m] + [by_m[q].get(m, {}).get(norm) for norm in norms for q in by_m] for m in ms]
    write_csv(path, "maximum errors at the starting values, per order and step count", columns, out)
