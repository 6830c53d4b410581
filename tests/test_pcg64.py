"""The negative control's noise is numpy's ``default_rng`` stream, bit for bit.

numpy is the oracle here only: the package draws the noise in plain
Python (``simsonpoly._pcg64``), so that ``verify --negative-control``
does not import numpy and an old ``--seed`` still perturbs the same
polygon.
"""

import random

import numpy as np
import pytest

from simsonpoly._pcg64 import uniform

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**200]
# Seeds of every bit length up to 256, so that the entropy spans one to
# eight 32-bit words and both sides of SeedSequence's 4-word pool.
_rng = random.Random(20120)
RANDOM_SEEDS = [_rng.getrandbits(_rng.randint(1, 256)) for _ in range(200)]


def _numpy_offsets(seed, eps, n):
    return np.random.default_rng(seed).uniform(-eps, eps,
                                               size=(n, 2)).ravel().tolist()


@pytest.mark.parametrize("eps", [1e-3, 0.5, 1e300])
@pytest.mark.parametrize("n", [3, 8, 256])
@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_edge_seeds_draw_numpys_stream(seed, n, eps):
    assert uniform(seed, -eps, eps, 2 * n) == _numpy_offsets(seed, eps, n)


@pytest.mark.parametrize("eps", [1e-3, 0.5, 1e300])
@pytest.mark.parametrize("n", [3, 8, 256])
def test_random_seeds_draw_numpys_stream(n, eps):
    for seed in RANDOM_SEEDS:
        assert uniform(seed, -eps, eps, 2 * n) == \
            _numpy_offsets(seed, eps, n), seed


def test_negative_seed_raises():
    with pytest.raises(ValueError, match="non-negative"):
        uniform(-1, -1.0, 1.0, 2)
