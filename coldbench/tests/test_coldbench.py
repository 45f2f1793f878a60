"""Toy-size smoke of every workload, the parity checks, seed purity
and the no-source exit of the benchmark's command.

Run from the repository root::

    python3 -m pytest coldbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro  # noqa: F401  (binds the default forest)
from coldbench import inputs
from coldbench.trace import PER_LAYER_UNITS, run_traced
from coldbench.workloads import TOY, UNITS, WORKLOADS, run_workload

ROOT = Path(__file__).resolve().parents[2]


def _bytes_of_tree(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def test_lake_generation_is_byte_identical_per_seed(tmp_path):
    first = inputs.lake_sources(7, scale=0.01)
    second = inputs.lake_sources(7, scale=0.01)
    assert [(s.name, s.data) for s in first] == [
        (s.name, s.data) for s in second
    ]
    inputs.materialize(first, tmp_path / "a")
    inputs.materialize(second, tmp_path / "b")
    assert _bytes_of_tree(tmp_path / "a") == _bytes_of_tree(tmp_path / "b")
    # Another seed places the same files elsewhere in the lake.
    other = inputs.lake_sources(8, scale=0.01)
    assert [s.name for s in other] != [s.name for s in first]
    assert sorted(s.data for s in other) == sorted(s.data for s in first)


def test_other_inputs_are_seed_pure():
    one = inputs.serve_schedule(3, rate=20.0, seconds=2.0)
    two = inputs.serve_schedule(3, rate=20.0, seconds=2.0)
    assert [(r.id, r.due, r.kind, r.source.data) for r in one] == [
        (r.id, r.due, r.kind, r.source.data) for r in two
    ]
    # Another seed keeps the request sequence and draws other gaps.
    other = inputs.serve_schedule(4, rate=20.0, seconds=2.0)
    assert [(r.kind, r.source.data) for r in other] == [
        (r.kind, r.source.data) for r in one
    ]
    assert [r.due for r in other] != [r.due for r in one]
    assert [inputs.csv_bytes(f) for f in inputs.cv_corpus(0.02).files] == [
        inputs.csv_bytes(f) for f in inputs.cv_corpus(0.02).files
    ]


def test_serve_schedule_mixes_repeats_and_repairable_damage():
    requests = inputs.serve_schedule(5, rate=30.0, seconds=10.0)
    kinds = {r.kind for r in requests}
    assert {"fresh", "repeat", "bom", "nul", "latin1"} <= kinds
    dues = [r.due for r in requests]
    assert dues == sorted(dues)


def _check_gated(report: dict) -> None:
    assert report["correct"], report["details"].get("mismatches")
    assert report["failed"] == 0
    assert report["attempted"] >= 1
    assert set(report["metrics"]) == set(UNITS)
    for name, metric in report["metrics"].items():
        assert metric["unit"] == UNITS[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gated_workload_toy_run(workload, tmp_path):
    report = run_workload(workload, seed=4, seconds=2.0,
                          workdir=tmp_path, root=ROOT, size=TOY)
    _check_gated(report)
    if workload == "serve_open":
        assert report["details"]["sustained"]


@pytest.mark.parametrize("workload", ("lake_sweep", "serve_open"))
def test_quality_is_identical_across_seeds(workload, tmp_path):
    runs = [
        run_workload(workload, seed=seed, seconds=1.0,
                     workdir=tmp_path / str(seed), root=ROOT, size=TOY)
        for seed in (9, 10)
    ]
    for name in ("line_macro_f1", "cell_macro_f1"):
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_recomposes_every_file(workload, tmp_path):
    out = tmp_path / "out"
    report = run_traced(workload, seed=4, seconds=2.0,
                        workdir=tmp_path / "work", root=ROOT,
                        out_dir=out, size=TOY)
    assert report["correct"], report["details"]["mismatches"]
    assert report["failed"] == 0
    assert set(report["metrics"]) == set(PER_LAYER_UNITS)
    metrics = {k: v["value"] for k, v in report["metrics"].items()}
    assert metrics["trace.coverage"] > 0
    assert metrics["dialect.self_ms"] > 0
    spans = (out / f"spans-{workload}-seed4.jsonl").read_text().splitlines()
    assert len(spans) == report["details"]["spans"]
    assert {"name", "start", "end", "parent", "file"} <= set(
        json.loads(spans[0])
    )
    if workload == "serve_open":
        assert metrics["dialect.memo_hit_ratio"] > 0
        assert metrics["perf.engine.cache_hit_ratio"] > 0
        assert metrics["io.ingest.repaired_share"] > 0
    if workload == "paper_cv":
        assert metrics["eval.runner.folds_per_s"] > 0
        assert metrics["perf.cache.feature_hit_ratio"] > 0


def test_command_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "coldbench", tmp_path / "coldbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "coldbench/run.py", "--workload", "lake_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_lake_sweep_leaves_no_process_behind():
    """Every child of a run (the lake writer) is waited for: no process
    of the run's session is left once the command exits."""
    proc = subprocess.Popen(
        [sys.executable, "coldbench/run.py", "--workload", "lake_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    _out, err = proc.communicate(timeout=170)
    assert proc.returncode == 0, err[-2000:]
    left = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == proc.pid:
            left.append(stat.parent.name)
    assert left == []
