"""Shared random generators for tests. Callers pass a seeded Random so
every failure reproduces from the seed alone."""

import math

from equicut.measure import (
    PIECEWISE_CONSTANT,
    PIECEWISE_LINEAR,
    validate_and_normalize,
)
from equicut.solver import Instance


def random_density(rng, max_pieces=5, kind=None, low=0.0, high=4.0, zero_share=0.0):
    """``zero_share`` is the chance that each value is exactly zero, which
    makes zero-density plateaus."""
    if kind is None:
        kind = rng.choice((PIECEWISE_CONSTANT, PIECEWISE_LINEAR))
    pieces = rng.randint(1, max_pieces)
    interior = set()
    while len(interior) < pieces - 1:
        interior.add(round(rng.uniform(0.05, 0.95), 4))
    breakpoints = [0.0, *sorted(interior), 1.0]
    count = pieces if kind == PIECEWISE_CONSTANT else pieces + 1
    values = [
        0.0 if zero_share and rng.random() < zero_share else rng.uniform(low, high)
        for _ in range(count)
    ]
    if max(values) <= 0.0:
        values[rng.randrange(count)] = 1.0
    return validate_and_normalize(kind, breakpoints, values)


def random_instance(rng, n=None, max_pieces=5, kind=None, shuffle_sigma=False,
                    low=0.0, high=4.0):
    if n is None:
        n = rng.randint(2, 4)
    densities = tuple(
        random_density(rng, max_pieces, kind, low, high) for _ in range(n)
    )
    sigma = None
    if shuffle_sigma:
        order = list(range(n))
        rng.shuffle(order)
        sigma = tuple(order)
    return Instance(densities, sigma)


def random_sphere_point(rng, n):
    while True:
        coords = [rng.gauss(0.0, 1.0) for _ in range(n)]
        norm = math.sqrt(sum(c * c for c in coords))
        if norm > 1e-6:
            return tuple(c / norm for c in coords)
