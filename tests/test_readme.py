"""The README's library tour runs as written, and its comments state what it returns."""

import re
from pathlib import Path

import pytest

from robustmd import Verdict, verify_saddle

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs_and_its_comments_hold():
    tour = re.search(r"## Library tour\n+```python\n(.*?)```", README.read_text(), re.S).group(1)
    ns = {}
    exec(tour, ns)  # an import of a name robustmd no longer exports fails here
    rep, cert, sol = ns["rep"], ns["cert"], ns["sol"]
    saddle = verify_saddle(sol)
    stated = {
        "# guarantee = 0.2": rep.value == pytest.approx(0.2, abs=1e-12),
        "# Verdict.NON_ROBUST": cert.verdict is Verdict.NON_ROBUST,
        "# [0.0, 0.0, 0.0, 0.0]": cert.witness_payoffs == [0.0] * 4,
        "kappa ~ 0.446237": sol.kappa == pytest.approx(0.446237, abs=5e-7),
        "regret guarantee ~ 0.360071": sol.guarantee == pytest.approx(0.360071, abs=5e-7),
        "residuals < 1e-3": max(saddle.designer_slack, saddle.nature_slack, saddle.wasserstein_residual) < 1e-3,
    }
    for comment, holds in stated.items():
        assert comment in tour, f"the tour no longer states {comment!r}"
        assert holds, f"the tour states {comment!r}, which no longer holds"
