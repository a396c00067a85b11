"""The benchmark's workloads: set-up, one timed unit, and the unit's check.

Every workload runs the Brusselator desk protocol (P2, nu 0.002, T one
period, BDF-5 FOM snapshots on M 128, H10 POD with the zero-after-mean
anchor) and differs in which stage it times:

- ``offline`` times the ``podrom fom`` -> ``podrom pod`` path at n_side 16:
  fom_integrate, save/load of the trajectory, build_pod_basis, save_basis.
- ``online`` times one rom_integrate at r 10, q 5, M 512 on the n_side 16
  desk basis, bootstrapped, with the step-coupled Newton tolerance.
- ``sweep`` times temporal_convergence_study at r 10 on an n_side 8 basis:
  q 1..5, M in {32, 64, 128}, ref_factor 8.

The podrom modules are used through their module objects, so the tracer's
rebinding of a public function reaches the benchmark's own calls too.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from podrom import bdf, fom, harness, mesh_fem, pod, rom

NU = 0.002
DEGREE = 2
T = harness.DEFAULT_T
Q = 5
M_DESK = 128
TAU = 1.0
RANK = 10

#: stated distance of the online ROM from P^r u_h on the snapshot grid:
#: max over the grid of ||c_rom - c_proj||_2 relative to max ||c_proj||_2
#: (the modes are H10-orthonormal, so this is the relative H10 distance)
ONLINE_MAX_REL_DISTANCE = 1e-2
#: POD tolerances of the unit and acceptance tests: orthonormality defect
#: scaled by 1 + lambda_1 / lambda_k, the same defect on modes with
#: lambda >= 1e-6 lambda_1, and the tail-identity gap over lambda_1
ORTHO_TOL = 1e-12
ORTHO_LEADING_TOL = 1e-9
TAIL_TOL = 1e-10
#: fom_integrate's default Newton tolerance, and the factor by which the
#: residual recomputed from the stored states may exceed it (the increment
#: u^n - u^{n-1} is re-formed from rounded states)
FOM_NEWTON_TOL = 1e-10
FOM_RESIDUAL_SAFETY = 2.0


def implicit_steps(q, m):
    """Implicit steps one BDF-q run over M steps takes: bootstrap plus main loop."""
    boot = sum(count for _, _, count in bdf.bootstrap_plan(q, T / m)) if q > 1 else 0
    return boot + m - q + 1


class Desk:
    """Space, system and generated initial state of the desk protocol."""

    def __init__(self, n_side, amplitude):
        self.space = mesh_fem.build_space(mesh_fem.build_mesh(n_side), DEGREE)
        self.system = fom.brusselator_system(NU)
        self.u0 = fom.perturbed_equilibrium(self.space, amplitude)

    def integrate(self):
        return fom.fom_integrate(self.system, self.space, self.u0, T / M_DESK, T, Q)

    @staticmethod
    def basis(traj):
        return pod.build_pod_basis(traj, TAU, pod.W0_ZERO, pod.H10)

    def max_step_residual(self, traj):
        """Largest BDF-Q residual norm of the stored states over the main-loop
        steps n = Q..M, each step with its Q predecessors as history."""
        op = fom.FomOperator(self.system, self.space)
        scheme = bdf.bdf_coefficients(Q)
        states = traj.stacked()
        worst = 0.0
        for n in range(Q, len(states)):
            history = [states[n - 1 - j] for j in range(Q)]
            r = op.residual(states[n] - states[n - 1], history, scheme, traj.dt, traj.times[n])
            worst = max(worst, float(np.linalg.norm(r)))
        return worst


class Workload:
    """Interface: ``setup`` (timed as setup_s), ``run`` (the timed unit),
    ``check`` (after the unit, untimed) and ``steps``, the implicit steps
    of one unit.

    ``run`` returns a dict; its ``stepping`` (offline: the FOM time loop),
    when present, is the part of the unit that step_ms divides. Stage times
    fom_s and pod_s come from the unit's or the set-up's ``stages``. Both
    are ``(start, end)`` pairs of ``time.perf_counter`` readings.
    """

    n_side = 16

    def __init__(self, workdir):
        self.workdir = workdir


class Offline(Workload):
    def setup(self, amplitude):
        return {"desk": Desk(self.n_side, amplitude)}

    def steps(self):
        return implicit_steps(Q, M_DESK)

    def run(self, state):
        desk = state["desk"]
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            t0 = time.perf_counter()
            traj = desk.integrate()
            t1 = time.perf_counter()
            fom.save_trajectory(traj, os.path.join(tmp, "fom"))
            t2 = time.perf_counter()
            loaded, _ = fom.load_trajectory(os.path.join(tmp, "fom"))
            snaps, basis = desk.basis(loaded)
            pod.save_basis(basis, os.path.join(tmp, "pod"))
            t3 = time.perf_counter()
        return {
            "stages": {"fom_s": (t0, t2), "pod_s": (t2, t3)},
            "stepping": (t0, t1),
            "traj": traj,
            "loaded": loaded,
            "snaps": snaps,
            "basis": basis,
        }

    def check(self, state, out):
        problems = []
        residual = state["desk"].max_step_residual(out["traj"])
        if not residual <= FOM_RESIDUAL_SAFETY * FOM_NEWTON_TOL:
            problems.append(f"FOM states miss their BDF-{Q} equations: residual {residual:.3e}")
        if not np.array_equal(out["traj"].states, out["loaded"].states):
            problems.append("trajectory does not round-trip bit-exactly through Matrix Market")
        basis, snaps = out["basis"], out["snaps"]
        # roundoff in mode k grows like lambda_1 / lambda_k, so the defect is
        # judged relative to that factor, and absolutely on the leading modes
        defect = np.abs(basis.modes.T @ basis.gram_operator.matvec(basis.modes) - np.eye(basis.d_r))
        lam = basis.eigenvalues
        ortho = float(np.max(defect / (1.0 + lam[0] / np.minimum.outer(lam, lam))))
        leading = lam >= 1e-6 * lam[0]
        ortho_leading = float(np.max(defect[np.ix_(leading, leading)]))
        if not (ortho <= ORTHO_TOL and ortho_leading <= ORTHO_LEADING_TOL):
            problems.append(
                f"modes not H10-orthonormal: scaled defect {ortho:.3e}, leading {ortho_leading:.3e}"
            )
        tail_gap = 0.0
        for r in (0, RANK, basis.d_r):
            lhs, rhs = pod.tail_identity_check(snaps, basis, r)
            tail_gap = max(tail_gap, abs(lhs - rhs) / basis.eigenvalues[0])
        if not tail_gap <= TAIL_TOL:
            problems.append(f"tail identity fails: relative gap {tail_gap:.3e}")
        fingerprint = {
            "d_r": basis.d_r,
            "lambda_1": float(basis.eigenvalues[0]),
            "eigenvalue_sum": float(np.sum(basis.eigenvalues)),
            "final_state_norm": float(np.linalg.norm(out["traj"].states[-1])),
            "max_step_residual": residual,
            "orthonormality_defect_scaled": ortho,
            "orthonormality_defect_leading": ortho_leading,
            "tail_identity_gap": tail_gap,
        }
        return problems, fingerprint


class _RomWorkload(Workload):
    """Set-up shared by the ROM workloads: desk FOM, POD basis, rom_assemble."""

    def setup(self, amplitude):
        desk = Desk(self.n_side, amplitude)
        t0 = time.perf_counter()
        traj = desk.integrate()
        t1 = time.perf_counter()
        snaps, basis = desk.basis(traj)
        t2 = time.perf_counter()
        romsys = rom.rom_assemble(basis, RANK, desk.space, desk.system, snaps.mean)
        coords0 = harness.initial_coords(romsys, traj.states[0])
        return {
            "romsys": romsys,
            "coords0": coords0,
            "traj": traj,
            "stages": {"fom_s": (t0, t1), "pod_s": (t1, t2)},
        }


class Online(_RomWorkload):
    M = 512

    def steps(self):
        return implicit_steps(Q, self.M)

    def run(self, state):
        rt = rom.rom_integrate(state["romsys"], Q, T / self.M, T, ("bootstrap", state["coords0"]))
        return {"rt": rt}

    def check(self, state, out):
        problems = []
        romsys, rt = state["romsys"], out["rt"]
        if "proj" not in state:
            fluct = state["traj"].stacked() - romsys.lift[None, :]
            state["proj"] = pod.project(romsys.basis, romsys.r, fluct.T)[0].T
        proj = state["proj"]
        on_grid = rt.coords[:: self.M // M_DESK]
        distance = float(np.max(np.linalg.norm(on_grid - proj, axis=1)))
        rel = distance / float(np.max(np.linalg.norm(proj, axis=1)))
        if not rel <= ONLINE_MAX_REL_DISTANCE:
            problems.append(f"ROM is {rel:.3e} from P^r u_h, above {ONLINE_MAX_REL_DISTANCE:g}")
        previous = state.setdefault("coords", rt.coords)
        if not np.array_equal(previous, rt.coords):
            problems.append("repeated rom_integrate on the same input gave different coordinates")
        fingerprint = {
            "final_coord_norm": float(np.linalg.norm(rt.coords[-1])),
            "rel_distance_to_projection": rel,
            "newton_iterations_max": int(rt.newton_iteration_counts.max()),
        }
        return problems, fingerprint


class Sweep(_RomWorkload):
    n_side = 8
    q_values = (1, 2, 3, 4, 5)
    m_values = (32, 64, 128)
    ref_factor = 8

    def steps(self):
        ref = implicit_steps(5, self.ref_factor * max(self.m_values))
        return ref + sum(implicit_steps(q, m) for q in self.q_values for m in self.m_values)

    def run(self, state):
        results = harness.temporal_convergence_study(
            state["romsys"], state["coords0"], T, self.q_values, self.m_values, self.ref_factor
        )
        return {"results": results}

    def check(self, state, out):
        problems = []
        orders = {}
        for q, rows in out["results"].items():
            errs = [row["max_l2"] for row in rows]
            if not all(a > b for a, b in zip(errs, errs[1:])):
                problems.append(f"q {q}: errors do not decrease with M: {errs}")
                continue
            _, pairwise = harness.estimate_order([(T / row["M"], row["max_l2"]) for row in rows])
            orders[str(q)] = pairwise
        return problems, {"pairwise_orders_l2": orders}


WORKLOADS = {"offline": Offline, "online": Online, "sweep": Sweep}
