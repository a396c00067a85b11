"""Run configuration and pipeline orchestration: the validated config, the
desk setup (FOM snapshot run and POD), and the studies behind the
r-refinement, temporal-order and starting-value CSV tables, with
convergence-slope estimation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .fom import (
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
    build_pod_basis,
    gram_matrix,
    projection_errors,
)
from .rom import RomSystem, initial_coords, rom_assemble, rom_integrate

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
        positive = (self.nu, self.T, self.tau)
        if self.n_side < 1 or self.M < 1 or not all(0 < x < np.inf for x in positive):
            raise ValueError("n_side and M must be positive, and nu, T and tau positive and finite")
        if self.degree not in (1, 2):
            raise ValueError(f"degree must be 1 or 2, got {self.degree}")
        if not 1 <= self.q <= 5:
            raise ValueError("q must be in 1..5")
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
        if self.newton_rule != "step-coupled":
            try:
                tol = float(self.newton_rule)
            except ValueError:
                tol = np.nan
            if not 0 < tol < np.inf:
                raise ValueError(
                    "newton_rule must be step-coupled or a positive finite number, "
                    f"got {self.newton_rule!r}"
                )


def parse_config(path: str) -> RunConfig:
    """Flat key = value file with # comments. Each value is read as the type
    of its RunConfig field's default; a tuple as comma-separated entries. A
    line without "=", an unknown key, a value not of its key's type and a
    value RunConfig rejects raise ValueError naming ``path`` and the line
    or the key."""
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
                kwargs[key] = tuple(kind(v) for v in val.split(",")) if many else kind(val)
            except ValueError:
                what = f"comma-separated list of {kind.__name__}" if many else kind.__name__
                raise ValueError(f"{path}: {key} = {val!r} is not a valid {what}") from None
    try:
        return RunConfig(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# error measurement
# ---------------------------------------------------------------------------


def estimate_order(errors):
    """Least-squares slope of log err versus log dt, plus pairwise orders.

    ``errors`` is a list of (dt, err) with err > 0. Returns (slope, pairwise)
    where pairwise[i] = log2(err_i / err_{i+1}) for a dyadic dt sequence.
    """
    if len(errors) < 2:
        raise ValueError("need at least two (dt, err) points")
    dts = np.array([d for d, _ in errors], dtype=np.float64)
    errs = np.array([e for _, e in errors], dtype=np.float64)
    if np.any(errs <= 0) or np.any(dts <= 0):
        raise ValueError("errors and steps must be positive")
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    pairwise = [
        float(np.log(errs[i] / errs[i + 1]) / np.log(dts[i] / dts[i + 1]))
        for i in range(len(errs) - 1)
    ]
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
    system: object
    fom_traj: Trajectory
    snaps: object
    basis: PodBasis


def initial_state(cfg: RunConfig, space: FeSpace):
    if cfg.system == "brusselator":
        return perturbed_equilibrium(space)
    u0 = interpolate(space, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    u0[space.dirichlet_mask] = 0.0
    return u0[None, :]


def desk_fom(cfg: RunConfig) -> Trajectory:
    """The configured FOM snapshot run: BDF-q over M steps of [0, T]."""
    space = build_space(build_mesh(cfg.n_side), cfg.degree)
    system = SYSTEMS[cfg.system](cfg.nu)
    return fom_integrate(system, space, initial_state(cfg, space), cfg.T / cfg.M, cfg.T, cfg.q)


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
    start_h1, newton_counts); max_l2 and max_h1 are NaN when M < q leaves
    no main-loop step. Raises ValueError, before any run, for an M that
    does not divide the reference's M.
    """
    m_ref = ref_factor * max(m_values)
    for m in m_values:
        if m_ref % m:
            raise ValueError(f"M = {m} does not divide m_ref = ref_factor * max(M) = {m_ref}")
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
            rows.append(
                {
                    "M": m,
                    "max_l2": _main_loop_max(l2, q),
                    "max_h1": _main_loop_max(h1, q),
                    "start_l2": float(l2[1:q].max(initial=0.0)),
                    "start_h1": float(h1[1:q].max(initial=0.0)),
                    "newton_counts": rt.newton_iteration_counts,
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
    n = q..M of the fine FOM grid, NaN when M < q, in L2 and the H1 seminorm."""
    t_end = fom_fine.times[-1]
    dt = fom_fine.dt
    fluct = (fom_fine.stacked() - setup.snaps.mean[None, :]).T  # (dim, M+1)
    nc = setup.system.n_components
    grams = [gram_matrix(setup.space, L2, nc), gram_matrix(setup.space, H10, nc)]
    rows = []
    for r in r_values:
        romsys = make_rom(setup, r)
        coords0 = initial_coords(romsys, fom_fine.states[0])
        rt = rom_integrate(romsys, q, dt, t_end, ("bootstrap", coords0), newton_rule)
        proj_coords, (proj_l2_sq, proj_h1_sq) = projection_errors(setup.basis, r, fluct, grams)
        pod_l2, pod_h1 = _reduced_norms(romsys, rt.coords - proj_coords.T)
        rows.append(
            {
                "r": r,
                "pod_l2": _main_loop_max(pod_l2, q),
                "pod_h1": _main_loop_max(pod_h1, q),
                "proj_l2": float(np.sqrt(_main_loop_max(proj_l2_sq, q))),
                "proj_h1": float(np.sqrt(_main_loop_max(proj_h1_sq, q))),
            }
        )
    return rows


def _main_loop_max(values: np.ndarray, q: int) -> float:
    """Largest of values[q:], the main-loop steps, floored at 0, or NaN when
    M < q leaves no main-loop step to compare."""
    return float(values[q:].max(initial=0.0)) if len(values) > q else np.nan


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


def _fmt(x):
    return f"{x:.6g}"


def write_csv(path, header_comment, columns, rows):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        for line in header_comment:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def emit_convergence_csv(path, results, t_end):
    columns = ["q", "M", "dt", "max_l2", "max_h1", "start_l2", "start_h1", "pairwise_order_l2"]
    rows = []
    for q in sorted(results):
        prev = None
        for row in results[q]:
            dt = t_end / row["M"]
            order = ""
            if prev is not None and prev["max_l2"] > 0 and row["max_l2"] > 0:
                order = _fmt(np.log2(prev["max_l2"] / row["max_l2"]))
            rows.append(
                [
                    str(q),
                    str(row["M"]),
                    _fmt(dt),
                    _fmt(row["max_l2"]),
                    _fmt(row["max_h1"]),
                    _fmt(row["start_l2"]),
                    _fmt(row["start_h1"]),
                    order,
                ]
            )
            prev = row
    write_csv(path, ["maximum errors along the window vs tight BDF-5 reference"], columns, rows)


def emit_r_refinement_csv(path, rows):
    columns = ["r", "pod_max_l2", "proj_max_l2", "pod_max_h1", "proj_max_h1"]
    out = [
        [str(r["r"]), _fmt(r["pod_l2"]), _fmt(r["proj_l2"]), _fmt(r["pod_h1"]), _fmt(r["proj_h1"])]
        for r in rows
    ]
    write_csv(path, ["maximum errors vs reduced rank (L2 norm; H1 seminorm)"], columns, out)


def emit_starting_values_csv(path, results):
    ms = sorted({row["M"] for rows in results.values() for row in rows})
    qs = [q for q in sorted(results) if q >= 2]
    columns = ["M"] + [f"q{q}_l2" for q in qs] + [f"q{q}_h1" for q in qs]
    out = []
    for m in ms:
        row = [str(m)]
        for norm in ("start_l2", "start_h1"):
            for q in qs:
                match = [r for r in results[q] if r["M"] == m]
                row.append(_fmt(match[0][norm]) if match else "")
        out.append(row)
    write_csv(path, ["maximum errors at the starting values, per order and step count"], columns, out)
