"""Tests of the benchmark itself, at tiny sizes so they run with the suite."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from cayleyprop import cayley, cli, graphcore, nn, propagation, spectral  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_reported_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == workloads.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in spans.PER_LAYER.items()
    ]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_untraced(name, tmp_path):
    metrics, tally, _ = workloads.measure(
        workloads.make_workload(name, "tiny"), 3, 0, tmp_path
    )
    assert tally.correct and tally.attempted > 0
    assert list(metrics) == list(workloads.END_TO_END)
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_traced(name, tmp_path):
    metrics, tally, _ = workloads.measure_traced(
        workloads.make_workload(name, "tiny"), 3, tmp_path
    )
    assert tally.correct
    assert spans.wrapped_attributes() == []
    assert set(metrics) == set(spans.PER_LAYER)
    assert metrics["cayley.requests"] > 0 and metrics["graphcore.emit_s"] > 0
    if name == "train":
        assert metrics["nn.steps"] == 2 * 2  # 40 samples in batches of 32, 2 epochs
        assert metrics["nn.operator_builds"] == metrics["graphcore.adjacency_calls"]
        assert metrics["nn.gflop"] > 0 and metrics["spectral.eig_calls"] == 0
    else:
        assert metrics["spectral.eig_calls"] == 2 * 35  # two eigensolves per row
        assert metrics["nn.steps"] == 0 and metrics["cayley.builds"] == 3
        # The pass loads moduli 2..4 from the set-up's cache directory once
        # each; every other row is a memory hit.
        assert metrics["cayley.disk_hits"] == 3 and metrics["cayley.mem_hits"] == 35 - 3
        assert metrics["graphcore.parse_s"] > 0


def test_host_scaling(monkeypatch):
    # The host does the reference work twice as slowly as the reference
    # host, so every timing is reported at half its wall time.
    monkeypatch.setattr(workloads, "_reference_work", lambda: 2 * workloads.REFERENCE_WORK_S)
    scaled, wall, out = workloads._host_timed(lambda: time.sleep(0.01) or "done")
    assert out == "done" and wall >= 0.01
    assert scaled == pytest.approx(wall / 2)


def test_tracer_restores_every_attribute():
    modules = spans.library_modules()
    classes = (graphcore.UGraph, cayley.CayleyCache)
    before = [dict(vars(owner)) for owner in (*modules, *classes)]
    with spans.Tracer() as tracer:
        assert nn.build_plan is propagation.build_plan
        assert hasattr(nn.build_plan, "perfbench_span")
        propagation.build_plan(graphcore.UGraph(3, [(0, 1)]), "Base", 1)
    after = [dict(vars(owner)) for owner in (*modules, *classes)]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[key] is old[key] for key in old)
    assert spans.wrapped_attributes() == []
    assert [s[0] for s in tracer.spans] == ["graphcore.UGraph.__init__", "propagation.build_plan"]


def test_tracer_restores_after_an_error():
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            raise RuntimeError("boom")
    assert spans.wrapped_attributes() == []


def test_per_row_sweep_matches_the_cli(tmp_path):
    cache = cayley.CayleyCache(tmp_path / "rows")
    rows = [row for v in range(6, 41) for row in spectral.expansion_sweep(v, v, cache)]
    out = tmp_path / "sweep.csv"
    code = cli.main(
        ["sweep", "--v-min", "6", "--v-max", "40", "--out", str(out),
         "--cache-dir", str(tmp_path / "cli"), "--manifest", str(tmp_path / "m.json")]
    )
    assert code == 0
    assert spectral.sweep_to_csv(rows).encode() == out.read_bytes()


@pytest.mark.parametrize(
    "name, tamper",
    [
        ("sweep", lambda wl: wl.refs["rows"].update({"17": "0" * 16})),
        ("train", lambda wl: wl.refs.update({"3": [0.5, 0.5]})),
    ],
)
def test_output_mismatch_fails_the_run(name, tamper, tmp_path):
    wl = workloads.make_workload(name, "tiny")  # reads its own copy of the references
    tamper(wl)
    _, tally, _ = workloads.measure(wl, 3, 0, tmp_path)
    assert tally.failed == 1 and not tally.correct


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
