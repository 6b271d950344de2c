"""Small host builders shared by the tests, plus the per-pair reference
stream that the bulk random generators must reproduce."""

import random

import numpy as np

from localbalance import ColouredCompleteGraph


def graph_from(n: int, r: int, colour) -> ColouredCompleteGraph:
    """The graph with colour(u, v) on each pair u < v, asked in row-major order."""
    table = np.zeros((n, n), dtype=np.uint8)
    for u in range(n):
        for v in range(u + 1, n):
            table[u, v] = table[v, u] = colour(u, v)
    return ColouredCompleteGraph(n, r, table)


def make_random_reference(n: int, r: int, seed: int) -> ColouredCompleteGraph:
    """One rng.randrange(r) call per pair u < v: the stream make_random draws in bulk."""
    rng = random.Random(seed)
    return graph_from(n, r, lambda u, v: rng.randrange(r))
