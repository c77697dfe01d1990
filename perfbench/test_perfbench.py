"""The benchmark's own tests, on the smoke sizes. Run: python -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    out = result(bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_trace_counts_repeat_for_a_seed():
    runs = [result(bench("--workload", "transport", "--seed", "5", "--seconds", "0.2", "--trace", "1", "--smoke"))
            for _ in range(2)]
    for key in ("optim.pivots", "optim.solve_calls", "ambiguity.distance_to_calls"):
        assert runs[0]["metrics"][key] == runs[1]["metrics"][key]
    assert runs[0]["metrics"]["optim.pivots"]["value"] > 0


def test_seed_fixes_the_inputs(tmp_path):
    a = workloads.transport(7, tmp_path, smoke=True)
    b = workloads.transport(7, tmp_path, smoke=True)
    c = workloads.transport(8, tmp_path, smoke=True)
    assert [op.id for op in a.ops] == [op.id for op in b.ops] != [op.id for op in c.ops]


def _first(wl, op_id):
    op = next(op for op in wl.ops if op.id == op_id)
    return op, op.observe(op.run())


def test_checks_reject_wrong_results(tmp_path):
    wl = workloads.paper(1, tmp_path, smoke=True)
    op, res = _first(wl, "guarantee:persuasion")
    assert op.check(res) == []
    report = json.loads(res["files"]["guarantee_report.json"])
    report["value"] += 1e-4
    bad = dict(res, files=dict(res["files"], **{"guarantee_report.json": json.dumps(report).encode()}))
    assert op.check(bad)
    assert op.check(dict(res, code=1))

    op, res = _first(wl, "check-robust:bs_ball")  # checked against HiGHS envelope LPs
    assert op.check(res) == []
    report = json.loads(res["files"]["robustness_report.json"])
    report["envelope_values"][2][1] -= 1e-3
    assert op.check(dict(res, files={"robustness_report.json": json.dumps(report).encode()}))

    tw = workloads.transport(1, tmp_path, smoke=True)
    op, value = _first(tw, "distance_to:two:0")
    assert op.check(value) == [] and op.check(value + 1e-5)
    op, proj = _first(tw, "rich_project_moment:two:1")
    weights, alpha, margin, residual = proj
    assert op.check(proj) == [] and op.check((weights, alpha, margin * 1.01, residual))


def test_repeats_must_match_their_first_result(tmp_path):
    wl = workloads.transport(1, tmp_path, smoke=True)
    op, value = _first(wl, "distance_to:one:0")
    records = [run.Record(op, 0, 0.1, value, None), run.Record(op, 1, 0.1, value + 1e-15, None)]
    failed, errors = run.check_records(records)
    assert failed == 1 and "differs" in errors[0]


def test_percentile_counts_samples_beyond():
    xs = list(range(1, 201))
    assert run.percentile(xs, 95.0) == (190, 10)
    assert run.percentile(xs, 100.0) == (200, 0)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
