"""The benchmark's tracer wraps functions by the names robustmd modules call them
by; a refactor that stops calling one of those names silently zeroes the
metrics built on it. These run traced smoke passes: one checks the window count
that rests on check_robust calling robustness.worst_case by name, the other
that every wrapped name records a span."""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RUN = PERFBENCH / "run.py"


def test_traced_paper_pass_counts_the_envelope_windows():
    argv = [sys.executable, str(RUN), "--workload", "paper", "--smoke", "--seed", "1", "--seconds", "0", "--trace", "1"]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=True)
    last = json.loads(out.stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    # five envelope windows per check, each at least one LP, warm or cold
    assert last["metrics"]["robustness.envelope_lps_per_check"]["value"] >= 5


def test_every_boundary_records_a_span(tmp_path):
    # one smoke pass of each workload at seed 1, in-process, under the tracer
    sys.path.insert(0, str(PERFBENCH))
    import tracing
    import workloads

    tracer = tracing.Tracer()
    for name, build in workloads.BY_NAME.items():
        work = tmp_path / name
        work.mkdir()
        wl = build(1, work, True)
        tracer.install()
        try:
            for op in wl.ops:
                op.run()
        finally:
            tracer.uninstall()
    missing = {span for _, _, span, _ in tracing.BOUNDARIES} - {s.name for s in tracer.spans}
    assert not missing, f"never recorded: {sorted(missing)}"
