"""Tests of the benchmark itself (not collected by the repository suite).

    python3 -m pytest perfbench -q

About three minutes on two cores: every operation runs untraced once and
traced twice, and every workload runs briefly on two seeds.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

COUNTS = [m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
          if m["unit"] in ("count", "ratio") and m["name"] != "trace.overhead_frac"]


@pytest.fixture(scope="module")
def work():
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=run.ROOT / ".bench_work"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _layer_counts(results):
    m = tracer.layer_metrics(tracer.merge([r["trace"] for r in results]))
    return {k: m[k] for k in COUNTS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_output_identical_and_counts_repeat(name, work):
    inputs = Path(tempfile.mkdtemp(dir=work))
    workloads.prepare(name, workloads.DEFAULT_SEED, inputs)
    runner = run.Runner(work)
    ops = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, inputs)
    plain = [runner.operation(op, traced=False) for op in ops]
    traced = [[runner.operation(op, traced=True) for op in ops] for _ in range(2)]
    for i, op in enumerate(ops):
        for rnd in traced:
            assert rnd[i]["code"] == plain[i]["code"], op.id
            assert rnd[i]["stdout"] == plain[i]["stdout"], op.id
            assert rnd[i]["files"] == plain[i]["files"], op.id
    first, second = (_layer_counts(rnd) for rnd in traced)
    assert first == second
    assert any(v for v in first.values())


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 7])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_error_rate_is_zero(name, seed, capsys):
    assert run.main(["--workload", name, "--seed", str(seed), "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"wall_ref", "cpu_ref", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_checker_rejects_wrong_outputs(work):
    inputs = Path(tempfile.mkdtemp(dir=work))
    workloads.prepare("sampling", workloads.DEFAULT_SEED, inputs)
    ops = {op.id: op for op in workloads.sampling_ops(workloads.DEFAULT_SEED, inputs)}
    search = workloads.KS_SEARCH[0]
    checker = workloads.Checker(workloads.DEFAULT_SEED, inputs)
    stdout, files = checker.reference(search)
    assert checker.check(search, 1, stdout, files) is not None
    assert checker.check(search, 0, stdout.replace(b"21", b"20"), files) is not None
    assert checker.check(search, 0, stdout, files) is None
    # the independent oracles catch what the stored references would
    op = ops["count_k22"]
    text = checker.reference(op)[0].decode("ascii")
    assert workloads.properties(op, text, {}, inputs) is None
    bad = text.replace('"count": ', '"count": 1', 1)
    assert "count" in workloads.properties(op, bad, {}, inputs)
    op = ops["process_n60_dump"]
    stdout, files = checker.reference(op)
    assert workloads.properties(op, stdout.decode("ascii"), files, inputs) is None
    lines = files[workloads.TRACES_FILE].splitlines()
    files = {workloads.TRACES_FILE: b"\n".join(lines[1:] + lines[:1]) + b"\n"}
    assert "trace 0" in workloads.properties(op, stdout.decode("ascii"), files, inputs)


def test_tracer_restores_bindings():
    modules = {m: importlib.import_module(m) for m, *_ in tracer.BINDINGS}
    before = {(m, n): getattr(modules[m], n) for m, n, *_ in tracer.BINDINGS}
    with tracer.Tracer():
        assert all(getattr(modules[m], n) is not f for (m, n), f in before.items())
    assert all(getattr(modules[m], n) is f for (m, n), f in before.items())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sampling",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
