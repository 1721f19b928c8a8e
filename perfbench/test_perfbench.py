"""Tests of the benchmark harness itself; run with

    python3 -m pytest perfbench -q

from the root of a checkout. They use the tiny ``--smoke`` parameters.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import Span, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import falsified_clause, model_from_output  # noqa: E402
WORKLOADS = ("exact-d2r3", "ascent-d2r4", "dimacs-check")


def run(*args: str, cwd: Path = ROOT, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, **(env or {})),
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def benchmark_names(kind: str) -> list[str]:
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_emits_every_metric_for_every_workload(trace, kind):
    result = result_of(run("--workload", "all", "--smoke", "--seconds", "0.2",
                           "--trace", trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in WORKLOADS:
        for name in benchmark_names(kind):
            assert f"{workload}.{name}" in result["metrics"]


def test_layer_self_times_account_for_the_traced_answer():
    result = result_of(run("--workload", "all", "--smoke", "--seconds", "2", "--trace", "1"))
    m = {k: v["value"] for k, v in result["metrics"].items()}
    for workload in WORKLOADS:
        parts = [m[f"{workload}.{layer}.self_s"]
                 for layer in ("lattice", "encoder", "cdcl", "sat", "search", "witness")]
        total = sum(parts) + m[f"{workload}.trace.unattributed_s"]
        assert total == pytest.approx(m[f"{workload}.trace.answer_s"], rel=1e-6)


def test_exact_counts_repeat_across_hash_seeds():
    for hash_seed in ("1", "2"):
        proc = run("--workload", "exact-d2r3", "--smoke", "--seed", "7", "--seconds", "1",
                   "--trace", "1",
                   env={"PYTHONHASHSEED": hash_seed})
        assert result_of(proc)["correct"], proc.stderr


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "exact-d2r3", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layer_metrics_self_time_excludes_children():
    def span(i, parent, name, start, end, counts=None):
        s = Span(i, parent, name, start)
        s.end, s.counts = end, counts
        return s

    spans = [
        span(0, None, "bench.answer", 0.0, 10.0),
        span(1, 0, "search.probe", 1.0, 9.0),
        span(2, 1, "lattice.enumerate_tuples", 1.0, 3.0, {"tuples": 5}),
        span(3, 1, "cdcl.Engine.solve", 4.0, 8.0, {"conflicts": 7, "learnts_end": 2}),
        span(4, None, "bench.verify", 11.0, 12.0),
        span(5, 4, "lattice.enumerate_tuples", 11.0, 11.5, {"tuples": 5}),
    ]
    m = layer_metrics(spans, "bench.answer", "bench.verify")
    assert m["search.probe_self_s"] == 2.0
    assert m["lattice.enumerate_s"] == 2.0 and m["lattice.tuples"] == 5
    assert m["cdcl.solve_s"] == 4.0 and m["cdcl.conflicts"] == 7
    assert m["trace.unattributed_s"] == 2.0 and m["trace.coverage"] == 0.8
    assert m["verify.lattice_s"] == 0.5


def test_model_check_catches_a_falsified_negative_clause(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 3\n1 2 0\n-1 -2 0\n-3\n0\n")
    status, positive = model_from_output("s SATISFIABLE\nv 1 2 -3 0\n")
    assert status == "SATISFIABLE" and positive == {1, 2}
    assert falsified_clause(cnf, positive) == (-1, -2)
    assert falsified_clause(cnf, {1, 3}) == (-3,)
    assert falsified_clause(cnf, {2}) is None
    assert falsified_clause(cnf, set()) == (1, 2)
