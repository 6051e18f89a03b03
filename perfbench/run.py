"""satlab benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload ks_search --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; it needs ``src/satlab``.  Every
operation runs in a fresh interpreter (``child.py``) in an empty working
directory under ``.bench_work/``, one at a time.  A round runs each of
the workload's operations once, with a reference computation before the
first and after each; rounds repeat while the next one fits in
``--seconds``.  Timings are medians over rounds, in units of the round's
median reference time (see ``round_figures``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the
traced rounds (see ``tracer.py``), with ``trace.overhead_frac``.

The last stdout line is the JSON result; the ``details:`` line before it
carries per-operation medians and the workload-specific figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: imports timed per run for setup_s (after one untimed warm-up import),
#: each next to its own reference computation
SETUP_REPS = 15
#: seconds the reference computation takes on the nominal machine that
#: setup_s is expressed in (about its time on a 2.1 GHz Xeon)
REF_NOMINAL_S = 0.1
#: an operation still running after this long is killed and fails
OP_TIMEOUT_S = 150


class Runner:
    """Spawns operations one at a time and measures each child."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.peak_rss_kb = 0

    def spawn(self, argv: list[str], stdout_path: Path, cwd: Path) -> tuple[int, float, float]:
        """Run ``argv``; return (exit code, wall seconds, cpu seconds)."""
        with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime

    def setup_time(self) -> tuple[float, float]:
        """Seconds a fresh interpreter takes to ``import satlab.cli``:
        (on the nominal machine, as measured).

        Each import's wall time is divided by a reference time taken right
        after it and multiplied by ``REF_NOMINAL_S``, so the machine's own
        speed changes cancel as in ``round_figures``.  Medians over
        ``SETUP_REPS`` such pairs.
        """
        cwd = Path(tempfile.mkdtemp(dir=self.work))
        argv = [sys.executable, "-c", "import satlab.cli"]
        walls, ratios = [], []
        for i in range(SETUP_REPS + 1):
            code, wall, _ = self.spawn(argv, self.work / f"setup{i}.out", cwd)
            if code != 0:
                raise RuntimeError("import satlab.cli failed: "
                                   + (self.work / f"setup{i}.err").read_text())
            if i:
                walls.append(wall)
                ratios.append(wall / self.reference())
        return statistics.median(ratios) * REF_NOMINAL_S, statistics.median(walls)

    def reference(self) -> float:
        """Seconds the fixed reference computation takes now, in a fresh
        interpreter scheduled like the operations (see ``child.py``)."""
        out = self.work / "reference.out"
        code, _, _ = self.spawn([sys.executable, str(HERE / "child.py"), "reference"], out,
                                self.work)
        if code != 0:
            raise RuntimeError("reference computation failed: "
                               + out.with_suffix(".err").read_text())
        return float(out.read_text())

    def operation(self, op, traced: bool) -> dict:
        cwd = Path(tempfile.mkdtemp(dir=self.work))
        out = Path(f"{cwd}.out")
        argv = [sys.executable, str(HERE / "child.py")]
        if traced:
            argv += ["--trace", f"{cwd}.trace.json"]
        code, wall, cpu = self.spawn(argv + list(op.argv), out, cwd)
        result = {
            "op": op, "code": code, "wall": wall, "cpu": cpu,
            "stdout": out.read_bytes(),
            "files": {name: (cwd / name).read_bytes() for name in op.files
                      if (cwd / name).is_file()},
        }
        trace = Path(f"{cwd}.trace.json")
        if traced and trace.is_file():
            result["trace"] = json.loads(trace.read_text())
        shutil.rmtree(cwd)
        return result


def round_figures(results: list[dict]) -> dict[str, float]:
    """End-to-end figures of one round of operations.

    ``*_ref`` figures are times in units of the round's reference time,
    which cancels most of the machine's own speed changes.
    """

    def wall(role):
        return sum(r["wall"] for r in results if r["op"].role == role)

    figures = {
        "wall_ref": sum(r["wall"] / r["ref"] for r in results),
        "cpu_ref": sum(r["cpu"] / r["ref"] for r in results),
        "wall_s": sum(r["wall"] for r in results),
        "cpu_s": sum(r["cpu"] for r in results),
        "ref_s": statistics.median(r["ref"] for r in results),
    }
    if wall("search"):
        figures["search_s"] = wall("search")
    if wall("verify"):
        figures["verify_s"] = wall("verify")
    if wall("process"):
        trials = sum(r["op"].trials for r in results)
        figures["process_trials_per_s"] = trials / wall("process")
    if wall("check"):
        graphs = sum(r["op"].graphs for r in results)
        figures["check_graphs_per_s"] = graphs / wall("check")
    return figures


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}


def layer_figures(traced_rounds: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics: counts from the first traced round (they repeat
    exactly), times as medians over the traced rounds."""
    per_round = [tracer.layer_metrics(tracer.merge([r["trace"] for r in rnd if "trace" in r]))
                 for rnd in traced_rounds]
    out = {}
    for name, value in per_round[0].items():
        if name.endswith("_s"):
            value = statistics.median(m[name] for m in per_round)
        out[name] = value
    return out


def run(args, work: Path) -> dict:
    inputs = Path(tempfile.mkdtemp(dir=work))
    workloads.prepare(args.workload, args.seed, inputs)
    ops = workloads.WORKLOADS[args.workload](args.seed, inputs)
    checker = workloads.Checker(args.seed, inputs)
    runner = Runner(work)
    setup_s, setup_wall_s = runner.setup_time()

    plain: list[list[dict]] = []
    traced: list[list[dict]] = []
    attempted = failed = 0
    measured = 0.0  # seconds spent in rounds; output checks are not counted
    last = {False: 0.0, True: 0.0}
    while True:
        trace_now = bool(args.trace) and len(traced) < len(plain)
        t0 = time.perf_counter()
        results = []
        refs = [runner.reference()]
        for op in ops:
            results.append(runner.operation(op, trace_now))
            refs.append(runner.reference())
        for r in results:
            # one reference time per round: the median damps its own jitter
            r["ref"] = statistics.median(refs)
        last[trace_now] = time.perf_counter() - t0
        measured += last[trace_now]
        (traced if trace_now else plain).append(results)
        for r in results:
            attempted += 1
            reason = checker.check(r["op"], r["code"], r["stdout"], r["files"])
            if reason:
                failed += 1
                print(f"FAIL {r['op'].id} (round {len(plain) + len(traced)}): {reason}",
                      file=sys.stderr)
        # stop once a round of the next kind would overrun --seconds
        enough = bool(plain) and (traced or not args.trace)
        next_traced = bool(args.trace) and len(traced) < len(plain)
        if enough and measured + (last[next_traced] or last[False]) > args.seconds:
            break

    figures = medians([round_figures(rnd) for rnd in plain])
    figures["setup_wall_s"] = setup_wall_s
    op_medians = {op.id: statistics.median(rnd[i]["wall"] for rnd in plain)
                  for i, op in enumerate(ops)}
    if args.trace:
        traced_wall = statistics.median(round_figures(rnd)["wall_ref"] for rnd in traced)
        metrics = layer_figures(traced)
        metrics["trace.overhead_frac"] = traced_wall / figures["wall_ref"] - 1
    else:
        metrics = {
            "wall_ref": figures["wall_ref"],
            "cpu_ref": figures["cpu_ref"],
            "setup_s": setup_s,
            "peak_rss_mb": runner.peak_rss_kb / 1024,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    details = {
        "workload": args.workload, "seed": args.seed, "rounds": len(plain),
        "traced_rounds": len(traced), "setup_s": setup_s,
        "error_rate": failed / attempted, "figures": figures, "op_wall_s": op_medians,
    }
    if args.trace:
        # per-operation counts (canon calls, classes, ...) of the first traced round
        details["op_layers"] = {
            r["op"].id: {k: v for k, v in tracer.layer_metrics(tracer.merge([r["trace"]])).items()
                         if v and units[k] == "count"}
            for r in traced[0] if "trace" in r}
    print(f"{args.workload}: {len(plain)} untraced + {len(traced)} traced rounds, "
          f"{failed}/{attempted} operations failed")
    for name, value in sorted({**figures, **metrics}.items()):
        print(f"  {name:32s} {value:.6g}")
    print("details: " + json.dumps(details, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ks_search", "pattern_search", "sampling"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "satlab" / "cli.py").is_file():
        print(f"error: no satlab sources under {SRC}; run from a satlab checkout",
              file=sys.stderr)
        return 2
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
