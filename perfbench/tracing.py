"""Span tracing of podrom's public functions, installed from outside the package.

Each target is replaced by a wrapper under every name a podrom module binds
it to (``from .linalg import krylov_solve`` in bdf.py makes a second binding
next to ``podrom.linalg.krylov_solve``), and under its class for methods. A
wrapped call records one span: name, start, end, parent and an optional
number taken from its arguments or result. Spans stay in memory until the
run ends. Nothing under ``src/`` changes, and ``uninstall`` restores every
binding.

A target that no longer exists (a later change deleted it) is recorded as
absent; the metrics built on it are then reported as absent, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _matvec_label(args, kwargs):
    return "linalg.csr_matvec_2d" if np.ndim(_arg(args, kwargs, 1, "x")) > 1 else "linalg.csr_matvec_1d"


def _matvec_size(args, kwargs, result):
    a = _arg(args, kwargs, 0, "a")
    return (a.nnz, a.rows)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _iterations(args, kwargs, result):
    return result[1]


# span name, module, attribute path, span label, extra value recorded per call
TARGETS = [
    ("linalg.krylov_solve", "podrom.linalg", "krylov_solve", None, _iterations),
    ("linalg.block_csr", "podrom.linalg", "block_csr", None, None),
    ("linalg.from_coo", "podrom.linalg", "CsrMatrix.from_coo", None, None),
    ("linalg.sym_eigen", "podrom.linalg", "sym_eigen", None, None),
    ("linalg.csr_matvec", "podrom.linalg", "csr_matvec", _matvec_label, _matvec_size),
    ("linalg.dense_lu_solve", "podrom.linalg", "dense_lu_solve", None, None),
    ("mesh_fem.assemble_reaction_system", "podrom.mesh_fem", "assemble_reaction_system", None, None),
    (
        "mesh_fem.assemble_reaction_jacobian_system",
        "podrom.mesh_fem",
        "assemble_reaction_jacobian_system",
        None,
        None,
    ),
    ("bdf.implicit_step", "podrom.bdf", "implicit_step", None, _iterations),
    ("bdf.run_bootstrap", "podrom.bdf", "run_bootstrap", None, None),
    ("fom.FomOperator.residual", "podrom.fom", "FomOperator.residual", None, None),
    ("fom.FomOperator.jacobian", "podrom.fom", "FomOperator.jacobian", None, None),
    ("pod.build_snapshots", "podrom.pod", "build_snapshots", None, None),
    ("pod.correlation_matrix", "podrom.pod", "correlation_matrix", None, None),
    ("pod.pod_basis", "podrom.pod", "pod_basis", None, None),
    ("mmio.write_dense", "podrom.mmio", "write_dense", None, _file_bytes),
    ("mmio.read", "podrom.mmio", "read", None, _file_bytes),
    ("rom.rom_assemble", "podrom.rom", "rom_assemble", None, None),
    ("rom.rom_integrate", "podrom.rom", "rom_integrate", None, None),
    ("rom.rom_residual", "podrom.rom", "rom_residual", None, None),
    ("rom.rom_jacobian", "podrom.rom", "rom_jacobian", None, None),
    ("harness.temporal_convergence_study", "podrom.harness", "temporal_convergence_study", None, None),
]


def _resolve(module_name, path):
    """(owner, attribute, raw value) for ``path`` in the module, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
    else:
        raw = getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


class Tracer:
    """Collects spans ``[name, start, end, parent, extra]`` in call order."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._undo = []

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself; yields its index."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, fn, name, label, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(label(args, kwargs) if label else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if extra is not None:
                self.spans[idx][4] = extra(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "podrom" or n.startswith("podrom.")]
        for name, module_name, path, label, extra in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, raw = found
            if isinstance(owner, type):
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrapper(fn, name, label, extra)
                self._rebind(owner, attr, raw, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
                continue
            wrapped = self._wrapper(raw, name, label, extra)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is raw:
                        self._rebind(module, binding, raw, wrapped)

    def _rebind(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def write(self, path):
        """One JSON array per line: name, start, end, parent, extra."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------


class _Stats:
    def __init__(self):
        self.durations = []
        self.self_time = 0.0
        self.extras = []

    @property
    def calls(self):
        return len(self.durations)

    @property
    def time(self):
        return float(sum(self.durations))


def _below(spans, root):
    """Whether each span descends from the span at index ``root``."""
    below = [False] * len(spans)
    for i, span in enumerate(spans):
        parent = span[3]
        below[i] = parent is not None and (parent == root or below[parent])
    return below


def aggregate(spans, root):
    """Per-name statistics over the spans below the span at index ``root``.

    A span's self time is its duration minus the time its child spans cover
    (children of one parent never overlap: the program is single-threaded).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, extra in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats = {}
    for i, below in enumerate(_below(spans, root)):
        if not below:
            continue
        name, start, end, parent, extra = spans[i]
        st = stats.setdefault(name, _Stats())
        st.durations.append(end - start)
        st.self_time += end - start - child_time[i]
        if extra is not None:
            st.extras.append(extra)
    return stats


def bootstrap_steps(spans, root):
    """implicit_step spans below ``root`` that run inside a run_bootstrap span."""
    inside = [False] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            inside[i] = inside[parent] or spans[parent][0] == "bdf.run_bootstrap"
    below = _below(spans, root)
    return sum(
        1 for i, s in enumerate(spans) if s[0] == "bdf.implicit_step" and inside[i] and below[i]
    )


def _calls(st):
    return st.calls


def _time(st):
    return st.time


def _self(st):
    return st.self_time


def _us_per_call(st):
    return 1e6 * st.time / st.calls if st.calls else 0.0


def _mean_extra(st):
    return float(np.mean(st.extras)) if st.extras else 0.0


def _sum_extra(st):
    return float(sum(st.extras))


def _step_ms_p50(st):
    return 1e3 * float(np.percentile(st.durations, 50)) if st.durations else 0.0


def _step_ms_p90(st):
    return 1e3 * float(np.percentile(st.durations, 90)) if st.durations else 0.0


def _first_update_share(st):
    return float(np.mean([it == 1 for it in st.extras])) if st.extras else 0.0


def _matvec_flops(st):
    return float(sum(2 * nnz for nnz, _ in st.extras))


def _matvec_bytes(st):
    # computed, not measured: per stored entry a value, a column index, a row
    # index and the gathered x entry (8 bytes each), plus the output vector
    return float(sum(32 * nnz + 8 * rows for nnz, rows in st.extras))


# metric name, unit, span whose statistics it reads, value from them
LAYER_METRICS = [
    ("linalg.krylov_solve.calls", "count", "linalg.krylov_solve", _calls),
    ("linalg.krylov_solve.time_s", "s", "linalg.krylov_solve", _time),
    ("linalg.krylov_solve.iters_per_call", "count", "linalg.krylov_solve", _mean_extra),
    ("linalg.block_csr.calls", "count", "linalg.block_csr", _calls),
    ("linalg.block_csr.time_s", "s", "linalg.block_csr", _time),
    ("linalg.from_coo.time_s", "s", "linalg.from_coo", _time),
    ("linalg.sym_eigen.time_s", "s", "linalg.sym_eigen", _time),
    ("linalg.csr_matvec_1d.calls", "count", "linalg.csr_matvec_1d", _calls),
    ("linalg.csr_matvec_1d.time_s", "s", "linalg.csr_matvec_1d", _time),
    ("linalg.csr_matvec_1d.flops", "flop", "linalg.csr_matvec_1d", _matvec_flops),
    ("linalg.csr_matvec_1d.bytes", "B", "linalg.csr_matvec_1d", _matvec_bytes),
    ("linalg.csr_matvec_2d.calls", "count", "linalg.csr_matvec_2d", _calls),
    ("linalg.csr_matvec_2d.time_s", "s", "linalg.csr_matvec_2d", _time),
    ("linalg.dense_lu_solve.calls", "count", "linalg.dense_lu_solve", _calls),
    ("linalg.dense_lu_solve.time_s", "s", "linalg.dense_lu_solve", _time),
    ("mesh_fem.assemble_reaction_system.calls", "count", "mesh_fem.assemble_reaction_system", _calls),
    ("mesh_fem.assemble_reaction_system.time_s", "s", "mesh_fem.assemble_reaction_system", _time),
    (
        "mesh_fem.assemble_reaction_jacobian_system.calls",
        "count",
        "mesh_fem.assemble_reaction_jacobian_system",
        _calls,
    ),
    (
        "mesh_fem.assemble_reaction_jacobian_system.time_s",
        "s",
        "mesh_fem.assemble_reaction_jacobian_system",
        _time,
    ),
    ("bdf.implicit_step.calls", "count", "bdf.implicit_step", _calls),
    ("bdf.implicit_step.time_s", "s", "bdf.implicit_step", _time),
    ("bdf.implicit_step.self_s", "s", "bdf.implicit_step", _self),
    ("bdf.implicit_step.step_ms_p50", "ms", "bdf.implicit_step", _step_ms_p50),
    ("bdf.implicit_step.step_ms_p90", "ms", "bdf.implicit_step", _step_ms_p90),
    ("bdf.newton_iters_per_step", "count", "bdf.implicit_step", _mean_extra),
    ("bdf.first_update_share", "ratio", "bdf.implicit_step", _first_update_share),
    ("bdf.run_bootstrap.time_s", "s", "bdf.run_bootstrap", _time),
    ("fom.FomOperator.residual.calls", "count", "fom.FomOperator.residual", _calls),
    ("fom.FomOperator.residual.time_s", "s", "fom.FomOperator.residual", _time),
    ("fom.FomOperator.jacobian.calls", "count", "fom.FomOperator.jacobian", _calls),
    ("fom.FomOperator.jacobian.time_s", "s", "fom.FomOperator.jacobian", _time),
    ("pod.build_snapshots.time_s", "s", "pod.build_snapshots", _time),
    ("pod.correlation_matrix.time_s", "s", "pod.correlation_matrix", _time),
    ("pod.pod_basis.time_s", "s", "pod.pod_basis", _time),
    ("mmio.write_dense.time_s", "s", "mmio.write_dense", _time),
    ("mmio.write_dense.bytes", "B", "mmio.write_dense", _sum_extra),
    ("mmio.read.time_s", "s", "mmio.read", _time),
    ("mmio.read.bytes", "B", "mmio.read", _sum_extra),
    ("rom.rom_residual.calls", "count", "rom.rom_residual", _calls),
    ("rom.rom_residual.us_per_call", "us", "rom.rom_residual", _us_per_call),
    ("rom.rom_jacobian.calls", "count", "rom.rom_jacobian", _calls),
    ("rom.rom_jacobian.us_per_call", "us", "rom.rom_jacobian", _us_per_call),
    ("harness.temporal_convergence_study.self_s", "s", "harness.temporal_convergence_study", _self),
]


def _target(span):
    return "linalg.csr_matvec" if span.startswith("linalg.csr_matvec") else span


def layer_metrics(tracer, run_root, setup_root):
    """Per-layer metrics of the timed section below ``run_root``, and the
    names of those whose target was not called there (they read 0).

    rom_assemble runs during set-up in the ROM workloads, so its time is read
    below ``setup_root``. Each value is ``(value, unit)``, or None when its
    target is absent.
    """
    empty = _Stats()
    run = aggregate(tracer.spans, run_root)
    out = {
        name: None if _target(span) in tracer.absent else (value(run.get(span, empty)), unit)
        for name, unit, span, value in LAYER_METRICS
    }
    idle = [name for name, _, span, _ in LAYER_METRICS if span not in run]
    boot_absent = {"bdf.run_bootstrap", "bdf.implicit_step"} & set(tracer.absent)
    out["bdf.run_bootstrap.steps"] = (
        None if boot_absent else (bootstrap_steps(tracer.spans, run_root), "count")
    )
    if "bdf.run_bootstrap" not in run:
        idle.append("bdf.run_bootstrap.steps")
    setup = aggregate(tracer.spans, setup_root)
    out["rom.rom_assemble.time_s"] = (
        None if "rom.rom_assemble" in tracer.absent else (_time(setup.get("rom.rom_assemble", empty)), "s")
    )
    if "rom.rom_assemble" not in setup:
        idle.append("rom.rom_assemble.time_s")
    return out, [name for name in idle if out[name] is not None]
