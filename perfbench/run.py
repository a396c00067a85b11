"""podrom benchmark: one workload per invocation, timed end to end or traced.

    python3 perfbench/run.py --workload {offline,online,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; podrom is imported from its ``src/``. One
process, BLAS pinned to one thread, closed loop: each timed unit starts when
the previous one and its check have finished.

``--trace 0`` sets the workload up at least SETUP_REPEATS times and for at
least SETUP_MIN_S seconds (setup_s is the median), then runs units back to
back until ``--seconds`` is used up, never fewer than MIN_UNITS, and prints
the end-to-end metrics: medians over the units (in the ROM workloads, the
stage times fom_s and pod_s are medians over the set-ups).

``--trace 1`` runs one untraced unit to warm the process up, then installs
the span wrappers, sets up again and runs one traced unit, removes the
wrappers and runs a second untraced unit; every unit is checked with the
wrappers removed. It prints the per-layer metrics of the traced unit and the
tracing overhead: traced minus second untraced wall time. The overhead can be
negative, so it is printed and recorded but left out of the result line.

Times are normalised to a reference machine speed. The host's speed drifts
by a third over tens of seconds, for the process's CPU time as much as for
its wall time, so a probe times a fixed kernel (an integer loop and small
numpy operations, like the interpreter-bound work of podrom) every
PROBE_PERIOD_S from SIGALRM, in this process. The work done in an interval
is proportional to the integral of the speed over it, so each interval is
scaled by PROBE_REF_S times the mean of the probe's reciprocal durations
during it. A normalised time is thus the time the interval would take at the
speed where the probe takes PROBE_REF_S, not the seconds it took. Raw medians
are kept in the run record and printed beside the normalised ones.

The seed draws the amplitude of the initial perturbation around 0.1. Every
unit is checked; a unit that raises or fails its check counts as failed.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A per-run record with the run
manifest, per-unit samples and output fingerprints is written to
``perfbench/out/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import os

# pin BLAS before numpy loads it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 4
SETUP_MIN_S = 1.0
MIN_UNITS = 2
AMPLITUDE = 0.1
AMPLITUDE_SPREAD = 0.05  # relative half-width of the seeded amplitude draw

PROBE_PERIOD_S = 0.025
#: probe kernel duration at the reference speed: the fastest tenth of its
#: samples in quiet runs on a 2-vCPU Xeon VM at 2.1 GHz, so normalised times
#: read as that host's seconds when no neighbour slows it down
PROBE_REF_S = 1.6e-4

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("fom_s", "s"),
    ("pod_s", "s"),
    ("step_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


#: printed and recorded, but not in the result line
RECORD_ONLY = {"trace.overhead_s"}


def import_podrom():
    """Import podrom from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import podrom
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import podrom from {src}: {exc}")
    if Path(podrom.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: podrom was imported from {podrom.__file__}, not {src}")


def manifest(seed, amplitude, probe):
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    durations = [d for _, d in probe.samples]
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        **git_revision(),
        "seed": seed,
        "amplitude": amplitude,
        "probe": {
            "reference_s": PROBE_REF_S,
            "samples": len(durations),
            "quantiles_s": statistics.quantiles(durations, n=10) if len(durations) > 1 else durations,
        },
    }


def git_revision():
    if not (ROOT / ".git").exists():
        return {"git_revision": None, "git_dirty": None}
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {"git_revision": None, "git_dirty": None}
    return {"git_revision": rev or None, "git_dirty": bool(status.strip())}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SpeedProbe:
    """Times a fixed kernel every PROBE_PERIOD_S while active."""

    def __init__(self):
        import numpy as np

        self.samples = []  # (start, duration)
        self._vectors = (np.arange(129.0), np.ones(129))

    def sample(self, *_):
        t = time.perf_counter()
        s = 0
        for i in range(1500):
            s += i * i
        a, b = self._vectors
        for _ in range(75):
            c = 0.5 * a - b
            b = c.copy()
        self.samples.append((t, time.perf_counter() - t))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0, t1, seconds=None):
        """``seconds`` (default t1 - t0) measured over [t0, t1], at the
        reference speed, from the probe samples in the interval, or the three
        nearest it when it holds fewer."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if len(inside) < 3:
            mid = 0.5 * (t0 + t1)
            inside = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:3]]
        raw = t1 - t0 if seconds is None else seconds
        return raw * PROBE_REF_S * statistics.fmean(1.0 / d for d in inside)


def timings(probe, spans):
    """Normalised and raw (``raw_`` prefix) duration of each named span."""
    out = {}
    for name, (t0, t1) in spans.items():
        out[name] = probe.scaled(t0, t1)
        out["raw_" + name] = t1 - t0
    return out


class Unit:
    """One timed unit: its wall and CPU time, outputs and, once ``check``
    has run, its problems and fingerprint."""

    def __init__(self, workload, state, probe):
        self.workload, self.state = workload, state
        self.problems = []
        self.fingerprint = {}
        self.out = {}
        probe.sample()
        self.t0, c0 = time.perf_counter(), time.process_time()
        try:
            self.out = workload.run(state)
        except Exception:
            self.problems.append(traceback.format_exc(limit=3))
        self.t1, self.cpu = time.perf_counter(), time.process_time() - c0
        probe.sample()

    def check(self):
        if not self.problems:
            try:
                self.problems, self.fingerprint = self.workload.check(self.state, self.out)
            except Exception:
                self.problems.append(traceback.format_exc(limit=3))
        return self

    @property
    def ok(self):
        return not self.problems

    def record(self, steps, probe):
        t0, t1 = self.out.get("stepping", (self.t0, self.t1))
        return {
            **timings(probe, {"wall_s": (self.t0, self.t1), **self.out.get("stages", {})}),
            "cpu_s": probe.scaled(self.t0, self.t1, self.cpu),
            "raw_cpu_s": self.cpu,
            "step_ms": 1e3 * probe.scaled(t0, t1) / steps,
            "raw_step_ms": 1e3 * (t1 - t0) / steps,
            "ok": self.ok,
            "problems": self.problems,
            "fingerprint": self.fingerprint,
        }


def timed_run(workload, amplitude, seconds, probe):
    setups = []
    spent = 0.0
    while len(setups) < SETUP_REPEATS or spent < SETUP_MIN_S:
        probe.sample()
        t0 = time.perf_counter()
        state = workload.setup(amplitude)
        t1 = time.perf_counter()
        probe.sample()
        spent += t1 - t0
        setups.append(timings(probe, {"setup_s": (t0, t1), **state.get("stages", {})}))
    steps = workload.steps()
    units = []
    start = time.perf_counter()
    while True:
        units.append(Unit(workload, state, probe).check().record(steps, probe))
        elapsed = time.perf_counter() - start
        if len(units) >= MIN_UNITS and elapsed + statistics.median(u["raw_wall_s"] for u in units) > seconds:
            break
    good = [u for u in units if u["ok"]] or units
    stage_source = good if "fom_s" in good[0] else setups
    sources = {"setup_s": setups, "fom_s": stage_source, "pod_s": stage_source}
    metrics, raw, notes = {}, {}, {}
    for name, unit in END_TO_END:
        if name == "peak_rss_mb":
            metrics[name] = (peak_rss_mb(), unit)
            continue
        rows = sources.get(name, good)
        metrics[name] = (statistics.median(r[name] for r in rows), unit)
        raw[name] = statistics.median(r["raw_" + name] for r in rows)
        notes[name] = f"n={len(rows)}, raw {raw[name]:.4g}"
    samples = {"setups": setups, "units": units, "implicit_steps_per_unit": steps}
    return metrics, notes, units, samples, {"raw_medians": raw}


def traced_run(workload, amplitude, spans_path, probe):
    import tracing

    steps = workload.steps()
    state = workload.setup(amplitude)
    warmup = Unit(workload, state, probe).check()  # a process's first unit runs slower
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("setup") as setup_root:
            traced_state = workload.setup(amplitude)
        with tracer.span("run") as run_root:
            traced = Unit(workload, traced_state, probe)
    finally:
        tracer.uninstall()
    traced.check()
    untraced = Unit(workload, state, probe).check()
    metrics, idle = tracing.layer_metrics(tracer, run_root, setup_root)
    traced_steps = metrics["bdf.implicit_step.calls"]
    if traced_steps is not None and traced_steps[0] != steps:
        traced.problems.append(f"planned {steps} implicit steps per unit, traced run made {traced_steps[0]}")
    units = [warmup.record(steps, probe), traced.record(steps, probe), untraced.record(steps, probe)]
    metrics["trace.wall_s"] = (units[1]["wall_s"], "s")
    metrics["trace.overhead_s"] = (units[1]["wall_s"] - units[2]["wall_s"], "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    tracer.write(spans_path)
    samples = {"units": units, "implicit_steps_per_unit": steps}
    notes = {name: "(not called)" for name in idle}
    return metrics, notes, units, samples, {"absent": tracer.absent, "not_called": idle}


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import numpy as np

    rng = np.random.default_rng(args.seed)
    amplitude = AMPLITUDE * (1.0 + AMPLITUDE_SPREAD * rng.uniform(-1.0, 1.0))
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = WORKLOADS[args.workload](OUT)
    with SpeedProbe() as probe:
        if args.trace:
            metrics, notes, units, samples, extra = traced_run(
                workload, amplitude, stem.with_suffix(".spans.jsonl"), probe
            )
        else:
            metrics, notes, units, samples, extra = timed_run(workload, amplitude, args.seconds, probe)

    failed = sum(not u["ok"] for u in units)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "manifest": manifest(args.seed, amplitude, probe),
        "metrics": {k: None if v is None else {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
        "error_rate": failed / len(units),
        "samples": samples,
        **extra,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=float) + "\n")

    for u in units:
        for p in u["problems"]:
            print(f"FAILED CHECK: {p}")
    width = max(len(k) for k in metrics)
    for name, v in metrics.items():
        text = "absent" if v is None else f"{v[0]:.6g} {v[1]}"
        print(f"{name:<{width}}  {text:<18} {notes.get(name, '')}".rstrip())
    print(f"{'error_rate':<{width}}  {failed / len(units):g} ({failed} of {len(units)} units failed)")
    print(f"record: {stem.with_suffix('.json').relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {
            k: {"value": v[0], "unit": v[1]}
            for k, v in metrics.items()
            if v is not None and k not in RECORD_ONLY
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    import_podrom()
    sys.exit(main())
