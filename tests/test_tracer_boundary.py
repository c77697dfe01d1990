"""The benchmark's tracer wraps functions by the names robustmd modules call them
by; a refactor that stops calling one of those names silently zeroes the
metrics built on it. This runs a traced smoke pass and checks the window count
that rests on check_robust calling robustness.worst_case by name."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_traced_paper_pass_counts_the_envelope_windows():
    argv = [sys.executable, str(RUN), "--workload", "paper", "--smoke", "--seed", "1", "--seconds", "0", "--trace", "1"]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=True)
    last = json.loads(out.stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    # five envelope windows per check, each at least one LP, warm or cold
    assert last["metrics"]["robustness.envelope_lps_per_check"]["value"] >= 5
