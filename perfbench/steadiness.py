"""Run every workload repeatedly, interleaved, and report the spreads.

    python3 perfbench/steadiness.py [--out FILE]

Seeds 1..RUNS; for each seed every workload of BENCHMARK.json runs once
(``--trace 0``), so slow drifts of machine speed hit all workloads alike.  Then one traced
run per workload (seed 1) gives the per-layer figures, including the
canon-call and class counts and per-operation times.  For each metric
the table shows unit, sample count, median, quartiles and the spread
(q3 - q1) / median that the bound in BENCHMARK.json must cover.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: runs of each workload, one seed each
RUNS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run of run.py: (final JSON result, details line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    details = json.loads(lines[-2].removeprefix("details: "))
    return json.loads(lines[-1]), details


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    chosen = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the results as JSON here")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    samples: dict[str, dict[str, list[float]]] = {w: {} for w in chosen}
    ops: dict[str, dict[str, list[float]]] = {w: {} for w in chosen}
    errors = {w: [0, 0] for w in chosen}
    for seed in range(1, RUNS + 1):
        for w in chosen:
            result, details = bench(w, seed, seconds, 0)
            errors[w][0] += result["failed"]
            errors[w][1] += result["attempted"]
            figures = {k: m["value"] for k, m in result["metrics"].items()}
            figures.update({k: v for k, v in details["figures"].items() if k not in figures})
            for k, v in figures.items():
                samples[w].setdefault(k, []).append(v)
            for k, v in details["op_wall_s"].items():
                ops[w].setdefault(k, []).append(v)
            print(f"seed {seed} {w}: " + " ".join(f"{k}={v:.4g}" for k, v in figures.items()),
                  file=sys.stderr)

    report = {"machine": {"python": platform.python_version(), "cpu": platform.processor()
                          or platform.machine(), "run_seconds": seconds}, "workloads": {}}
    print(f"{'workload':15s} {'metric':22s} {'unit':6s} {'n':>3s} {'median':>10s} "
          f"{'spread':>7s} {'bound':>6s}")
    for w in chosen:
        stats = {k: summary(v) for k, v in samples[w].items()}
        traced, traced_details = bench(w, 1, seconds, 1)
        report["workloads"][w] = {
            "error_rate": errors[w][0] / errors[w][1],
            "metrics": stats,
            "op_wall_s": {k: summary(v) for k, v in ops[w].items()},
            "layers": {k: m["value"] for k, m in traced["metrics"].items()},
            "op_layers": traced_details["op_layers"],
        }
        for k, s in stats.items():
            unit = units.get(k, "1/s" if k.endswith("_per_s") else "s")
            bound = f"{bounds[k]:.2f}" if k in bounds else "-"
            print(f"{w:15s} {k:22s} {unit:6s} {s['n']:3d} {s['median']:10.4f} "
                  f"{s['spread']:7.3f} {bound:>6s}")
        print(f"{w:15s} {'error_rate':22s} {'ratio':6s} {errors[w][1]:3d} "
              f"{report['workloads'][w]['error_rate']:10.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
