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


def stop_phase_two(monkeypatch):
    """Make every simplex phase 2 stop after 0 pivots, so a solve reports its
    phase-1 basis (or a warm start) as optimal unless the certificate objects."""
    from robustmd import optim

    phase_one = optim._simplex

    def simplex(T, obj, basis, n_allowed, max_iter, dantzig=False):
        return phase_one(T, obj, basis, n_allowed, max_iter, dantzig) if dantzig else optim._NO_PIVOTS

    monkeypatch.setattr(optim, "_simplex", simplex)
