"""Repeat the benchmark over seeds and summarise the spread of each metric.

    python3 perfbench/collect.py --seeds 1-10 [--trace-seed 1] \
        [--output perfbench/results/BENCH_1.json]

Runs ``perfbench/run.py`` once per (workload, seed) for every workload in
BENCHMARK.json, one run at a time, with its ``run_seconds``. For each
end-to-end metric it prints the median, the quartiles and the spread (third
minus first quartile over the median, as ``statistics.quantiles(values,
n=4)`` gives them) next to the metric's bound, and keeps the median of the
runs' raw (not normalised) times beside the normalised one. With
``--trace-seed`` it adds one traced run per workload. With ``--output`` it
writes everything, per-run values included, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(lines[:-1]), file=sys.stderr)
    return result


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    report = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        raw = []
        fingerprints = {}
        for seed in args.seeds:
            res = run_once(workload, seed, seconds, 0)
            runs.append(res)
            print(f"{workload} seed {seed}: " + ", ".join(f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
            record = json.loads((ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
            report.setdefault("manifest", record["manifest"])
            raw.append(record["raw_medians"])
            fingerprints[seed] = record["samples"]["units"][0]["fingerprint"]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "fingerprints": fingerprints,
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            summary = summarise(values)
            summary.update(unit=runs[0]["metrics"][name]["unit"], bound=bound, values=values)
            if name in raw[0]:
                summary["raw_median"] = statistics.median(r[name] for r in raw)
            entry["end_to_end"][name] = summary
            flag = "" if name == "setup_s" or summary["spread"] <= bound / 3 else "  <-- above bound/3"
            print(
                f"  {name:<12} median {summary['median']:.4g} {summary['unit']}  "
                f"spread {summary['spread']:.3f} (bound {bound}){flag}"
                + (f", raw median {summary['raw_median']:.4g}" if "raw_median" in summary else "")
            )
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, seconds, 1)
            missing = layer_names - set(traced["metrics"])
            extra = set(traced["metrics"]) - layer_names
            if missing or extra:
                print(f"  per-layer names differ from BENCHMARK.json: missing {sorted(missing)}, extra {sorted(extra)}")
            record = json.loads((ROOT / "perfbench" / "out" / f"{workload}-seed{args.trace_seed}-trace1.json").read_text())
            entry["per_layer"] = {
                "seed": args.trace_seed,
                "correct": traced["correct"],
                "metrics": traced["metrics"],
                "not_called": record["not_called"],
                "trace_overhead_s": record["metrics"]["trace.overhead_s"]["value"],
            }
        report["workloads"][workload] = entry
    if args.output:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
