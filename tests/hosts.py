"""Small host builders shared by the tests, plus the reference paths the
fast code must reproduce: the per-pair random stream and the set-based
smallest-unibalanced search."""

import itertools
import random

import numpy as np

from localbalance import BipartiteColouring, ColouredCompleteGraph, induced_unibalanced


def graph_from(n: int, r: int, colour) -> ColouredCompleteGraph:
    """The graph with colour(u, v) on each pair u < v, asked in row-major order."""
    table = np.zeros((n, n), dtype=np.uint8)
    for u in range(n):
        for v in range(u + 1, n):
            table[u, v] = table[v, u] = colour(u, v)
    return ColouredCompleteGraph(n, r, table)


def bipartite_from(nx: int, ny: int, colour) -> BipartiteColouring:
    """The bipartite colouring with colour(x, y) on each edge (0 red, 1 blue),
    asked in row-major order."""
    red = np.zeros((nx, ny), dtype=bool)
    for x in range(nx):
        for y in range(ny):
            c = colour(x, y)
            if c not in (0, 1):
                raise ValueError(f"bipartite colour must be 0 or 1, got {c}")
            red[x, y] = c == 0
    return BipartiteColouring(red)


def make_random_reference(n: int, r: int, seed: int) -> ColouredCompleteGraph:
    """One rng.randrange(r) call per pair u < v: the stream make_random draws in bulk."""
    rng = random.Random(seed)
    return graph_from(n, r, lambda u, v: rng.randrange(r))


def min_unibalanced_reference(G: ColouredCompleteGraph, cap: int = 12):
    """The set-based DFS min_unibalanced_subgraph replaced: per-vertex sets of
    missing colours, copied for every child.  Kept as the witness oracle."""
    n, r = G.n, G.r
    if n < 2:
        return None

    for k in range(2, min(cap, n) + 1):
        chosen: list[int] = []
        missing: list[set[int]] = []

        def feasible(start: int) -> bool:
            slots = k - len(chosen)
            pool = ((1 << n) - 1) & ~((1 << start) - 1)
            for v, miss in zip(chosen, missing):
                if len(miss) > slots:
                    return False
                for c in miss:
                    if not G.neighbours(c, v) & pool:
                        return False
            return True

        def dfs(start: int) -> bool:
            if len(chosen) == k:
                return all(not m for m in missing)
            if n - start < k - len(chosen):
                return False
            if not feasible(start):
                return False
            for v in range(start, n):
                new_missing = [miss - {G.colour(u, v)} for u, miss in zip(chosen, missing)]
                own = set(range(r)) - {G.colour(u, v) for u in chosen}
                saved = missing[:]
                chosen.append(v)
                missing[:] = new_missing + [own]
                if dfs(v + 1):
                    return True
                chosen.pop()
                missing[:] = saved
            return False

        if dfs(0):
            return tuple(chosen)
    return None


def naive_min_unibalanced(G: ColouredCompleteGraph, cap: int):
    """The first unibalanced k-subset, in lexicographic order, of the least
    k <= cap that has one, by plain enumeration; None if there is none."""
    for k in range(2, min(cap, G.n) + 1):
        for S in itertools.combinations(range(G.n), k):
            if induced_unibalanced(G, S):
                return S
    return None
