import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from robustmd.measures import DiscretePrior, Grid


@pytest.fixture
def tiny_grid():
    return Grid(np.array([0.0, 0.4, 1.0]))


def point_mass(grid, x):
    return DiscretePrior.point_mass(grid, x)


def random_prior(rng, grid, sparsity=0.0):
    w = rng.random(grid.n)
    if sparsity > 0:
        w *= rng.random(grid.n) > sparsity
    if w.sum() <= 0:
        w[rng.integers(grid.n)] = 1.0
    return DiscretePrior(grid, w / w.sum())


def stop_phase(monkeypatch, phase):
    """Make every simplex pass of the given phase (optim.PHASE_ONE, PHASE_TWO
    or TIEBREAK) stop after 0 pivots, so a solve reports the basis the pass
    started from as optimal unless the certificate objects."""
    from robustmd import optim

    run = optim._simplex

    def simplex(T, obj, basis, max_iter, pass_phase):
        return optim._NO_PIVOTS if pass_phase == phase else run(T, obj, basis, max_iter, pass_phase)

    monkeypatch.setattr(optim, "_simplex", simplex)
