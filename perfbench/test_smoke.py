"""Tests of the benchmark itself: the smoke mode runs every workload's code
path and the traced run on a tiny grid in seconds.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
from tracer import LAYERS, Totals

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def smoke_run(trace):
    proc = bench("--workload", "all", "--smoke", "--seconds", "1", "--seed", "5",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced():
    return smoke_run(0)


@pytest.fixture(scope="module")
def traced():
    return smoke_run(1)


@pytest.mark.parametrize("mode, kind", [("untraced", "end_to_end"),
                                        ("traced", "per_layer")])
def test_smoke_reports_every_metric_correctly(request, mode, kind):
    result = request.getfixturevalue(mode)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= len(run.WORKLOADS)
    names = {m["name"]: m["unit"] for m in SPEC[kind]}
    for workload in run.WORKLOADS + run.UNGATED:
        got = {key.split("/", 1)[1]: value for key, value in
               result["metrics"].items() if key.startswith(workload + "/")}
        assert {k: v["unit"] for k, v in got.items()} == names
        assert all(isinstance(v["value"], (int, float)) for v in got.values())


def test_traced_split_matches_the_workloads(traced):
    m = {key: value["value"] for key, value in traced["metrics"].items()}
    assert m["recover-batch/recovery.cache_hit_ratio"] == 1.0
    assert m["recover-batch/forward.measure_s"] == 0.0
    assert m["recover-batch/lifting.assemble_system_s"] == 0.0
    assert m["recover-batch/setup.factorization_s"] > 0.0
    for workload in ("paper-quadrature", "series-ladder"):
        assert m[f"{workload}/recovery.cache_hit_ratio"] == 0.0
        assert m[f"{workload}/forward.measurements"] > 0
        assert m[f"{workload}/cli.artifact_bytes"] > 0
        assert m[f"{workload}/kernels.power_iterations"] > 0
    for workload in run.WORKLOADS + run.UNGATED:
        layers = sum(m[f"{workload}/{layer}.self_s"] for layer in LAYERS)
        assert layers + m[f"{workload}/trace.unattributed_s"] == pytest.approx(
            m[f"{workload}/trace.pass_wall_s"], rel=1e-9)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", run.WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    values = list(range(40))
    value, percentile, beyond = run.tail(values)
    assert beyond == 10 and value == 29 and percentile == 75.0
    assert sum(v > value for v in values) == 10


def test_self_time_subtracts_children():
    spans = [["cli.main", 0.0, 10.0, -1, None],
             ["recovery.recover", 1.0, 9.0, 0, None],
             ["recovery.cached_system", 1.0, 2.0, 1, 7],
             ["kernels.leading_eigenvector", 3.0, 6.0, 1, None],
             ["kernels.matvec", 3.0, 4.0, 3, None],
             ["kernels.matvec", 4.0, 5.0, 3, None]]
    totals = Totals()
    totals.add(spans)
    assert totals.self_time["recovery.recover"] == 4.0
    assert totals.self_time["kernels.leading_eigenvector"] == 1.0
    assert totals.layer_self("kernels") == 3.0
    assert totals.power_iterations == 2 and totals.cache_hits == 1
    assert sum(totals.self_time.values()) == 10.0


def write_artifacts(out_dir, error):
    out_dir.mkdir(parents=True)
    for name in run.ARTIFACTS:
        (out_dir / name).write_text("x\n", encoding="utf-8")
    (out_dir / "metrics.json").write_text(
        json.dumps({"aligned_relative_error": error}), encoding="utf-8")


def test_a_failed_check_marks_the_operation_failed(tmp_path):
    ctx = SimpleNamespace(smoke=True,
                          digests=run.DigestStore(tmp_path / "digests.json"))
    op = run.CliOp("paper-1", ("experiment", "paper-1"), "gaussian", 5e-3)
    ok = SimpleNamespace(code=0, output="")
    write_artifacts(tmp_path / "a", 1e-6)
    assert run.check_cli(op, ctx, ok, tmp_path / "a")[0] is None

    crashed = SimpleNamespace(code=4, output="numerical failure: gap\n")
    assert "exit 4" in run.check_cli(op, ctx, crashed, tmp_path / "a")[0]

    write_artifacts(tmp_path / "b", 1e-2)
    assert "above" in run.check_cli(op, ctx, ok, tmp_path / "b")[0]

    write_artifacts(tmp_path / "c", 1e-6)
    (tmp_path / "c" / "spectrum.json").write_text("y\n", encoding="utf-8")
    assert "differ" in run.check_cli(op, ctx, ok, tmp_path / "c")[0]
