import numpy as np
import pytest

from homspace import gallery
from homspace.dyadic import build_cubes, build_nets, default_constants
from homspace.maximal import random_batch
from homspace.seqnorm import CoefSequence
from homspace.space import FiniteHomSpace

from helpers import unit_spaced_grid


def build_system(space, seed=0xD1AD1C):
    net = build_nets(space, *default_constants(space), seed=seed)
    return build_cubes(net, space)


def fresh_at(cubes, k):
    """Ids of the fresh cubes of level k, ascending (a slice of the
    homogeneous ``fresh_index``)."""
    level, alpha = cubes.fresh_index()
    return alpha[level == k]


def random_sequence(cubes, rng):
    """One ``maximal.random_batch`` draw as a sequence."""
    batch = random_batch(cubes, rng, 1)
    keys = zip(batch.level.tolist(), batch.alpha.tolist())
    return CoefSequence(cubes, dict(zip(keys, batch.value.tolist())))


@pytest.fixture(scope="session")
def grid64():
    return gallery.build(gallery.GallerySpec(kind="euclidean_grid", n=64, dim=1))


@pytest.fixture(scope="session")
def grid64_cubes(grid64):
    return build_system(grid64)


@pytest.fixture(scope="session")
def cantor6_cubes():
    return build_system(gallery.build(gallery.GallerySpec(kind="cantor", depth=6)))


@pytest.fixture(scope="session")
def weighted_grid65_cubes():
    # non-uniform weights: the density |x|^2 inside the unit ball
    return build_system(gallery.build(gallery.GallerySpec(kind="weighted_grid", n=65, alpha=2.0)))


@pytest.fixture(scope="session")
def grid16_spaced():
    return unit_spaced_grid(16)


@pytest.fixture(scope="session")
def grid16_cubes(grid16_spaced):
    return build_system(grid16_spaced)


@pytest.fixture(scope="session")
def four_point():
    # two far-apart pairs: at level 0 every point is its own cube, three of
    # them fresh; masses are 0.25 each
    coords = np.array([0.0, 1.0, 10.0, 11.0])[:, None]
    dist = np.abs(coords[:, None, 0] - coords[None, :, 0])
    return FiniteHomSpace(dist=dist, weight=np.full(4, 0.25), coords=coords)


@pytest.fixture(scope="session")
def four_point_cubes(four_point):
    return build_system(four_point)
