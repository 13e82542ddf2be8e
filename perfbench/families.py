"""Seeded instance families for the benchmark.

Every generator draws from a ``random.Random`` seeded from the command
line, so the same seed always yields the same inputs; the library only
ever sees the generated densities and orders. Structural choices (player
count, density kind) cycle deterministically instead of being drawn, so
two seeds differ only in the random shapes and not in the mix of sizes,
which keeps throughput comparable from one seed to the next.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from equicut import measure
from equicut.measure import PIECEWISE_CONSTANT, PIECEWISE_LINEAR
from equicut.solver import Instance

KINDS = (PIECEWISE_CONSTANT, PIECEWISE_LINEAR)
MAX_PIECES = 8
#: Heights of dense pieces stay at or above this, so no zero plateau exists.
DENSE_FLOOR = 0.1
HEIGHT_CAP = 4.0
#: Chance that a sparse piece is drawn as exactly zero. Densities that come
#: out all zero get one piece back, so the realized share of zero pieces is
#: lower, about 2/3 as in the ROADMAP baseline (see ``zero_pieces``).
SPARSE_ZERO_DRAW = 0.78

DENSE_NS = (2, 3, 4, 6, 8, 12, 16, 24, 32)
SPARSE_NS = (2, 3, 4, 5, 6)
SWEEP_N = 6
CLI_N = 4


def _breakpoints(rng, pieces: int) -> list[float]:
    interior: set[float] = set()
    while len(interior) < pieces - 1:
        interior.add(round(rng.uniform(0.02, 0.98), 6))
    return [0.0, *sorted(interior), 1.0]


def dense_raw(rng, kind: str) -> tuple[str, list[float], list[float]]:
    """A density with 1-8 pieces and every height in [0.1, 4]."""
    pieces = rng.randint(1, MAX_PIECES)
    count = pieces if kind == PIECEWISE_CONSTANT else pieces + 1
    values = [rng.uniform(DENSE_FLOOR, HEIGHT_CAP) for _ in range(count)]
    return kind, _breakpoints(rng, pieces), values


def sparse_raw(rng, kind: str) -> tuple[str, list[float], list[float]]:
    """A density with 2-8 pieces, about two thirds of them exactly zero.

    Piecewise-constant pieces are zeroed independently with probability
    SPARSE_ZERO_DRAW. A piecewise-linear piece is zero only when both of its
    knots are, so knots are zeroed with the square root of that. If
    everything came out zero, one value is made positive so the density has
    mass.
    """
    pieces = rng.randint(2, MAX_PIECES)
    if kind == PIECEWISE_CONSTANT:
        count, p_zero = pieces, SPARSE_ZERO_DRAW
    else:
        count, p_zero = pieces + 1, math.sqrt(SPARSE_ZERO_DRAW)
    values = [
        0.0 if rng.random() < p_zero else rng.uniform(DENSE_FLOOR, HEIGHT_CAP)
        for _ in range(count)
    ]
    if not any(values):
        values[rng.randrange(count)] = rng.uniform(DENSE_FLOOR, HEIGHT_CAP)
    return kind, _breakpoints(rng, pieces), values


def _shuffled(rng, n: int) -> tuple[int, ...]:
    order = list(range(n))
    rng.shuffle(order)
    return tuple(order)


def instance(rng, i: int, ns, raw) -> Instance:
    """Instance i of a family, drawn from ``rng`` after instances 0..i-1.

    n cycles over ``ns`` with i, and the density kind alternates from one
    player to the next, so every instance mixes both kinds and no two
    instances differ in kind alone. Each density's cumulative masses are
    computed here, as part of validating it, so that work is not timed.
    """
    n = ns[i % len(ns)]
    densities = tuple(
        measure.validate_and_normalize(*raw(rng, KINDS[(i + j) % len(KINDS)])) for j in range(n)
    )
    for d in densities:
        d.cum_mass
    return Instance(densities, _shuffled(rng, n))


def write_instance_file(path: Path, inst: Instance) -> None:
    """Instance file for the CLI holding the already-normalized densities,
    so the CLI prints no normalization warnings and loads exactly the
    densities of ``inst``, up to rounding in its own normalization."""
    players = [
        {
            "name": f"p{i + 1}",
            "density": {"kind": d.kind, "breakpoints": list(d.breakpoints), "values": list(d.values)},
        }
        for i, d in enumerate(inst.densities)
    ]
    doc = {"players": players, "sigma": list(inst.sigma)}
    path.write_text(json.dumps(doc, indent=2) + "\n")


def zero_pieces(inst: Instance) -> tuple[int, int]:
    """Exactly-zero pieces and all pieces over an instance's densities."""
    zero = total = 0
    for d in inst.densities:
        for k in range(len(d.breakpoints) - 1):
            total += 1
            if d.kind == PIECEWISE_CONSTANT:
                zero += d.values[k] == 0.0
            else:
                zero += d.values[k] == 0.0 and d.values[k + 1] == 0.0
    return zero, total
