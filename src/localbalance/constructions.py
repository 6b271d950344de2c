"""Generators for the colourings of interest, plus split-closeness.

Everything is deterministic given its seed: a single random.Random drives
each generator and the JSON serialization of equal-seed outputs is
byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb

import numpy as np

from .census import BipartiteColouring
from .core import ColouredCompleteGraph, Rational, _as_fraction, _bits, _check_size, balance_profile
from .patterns import TotallyColouredPattern, blow_up, get_pattern

RED, BLUE, GREEN = 0, 1, 2


class ResamplingBudgetExceeded(RuntimeError):
    """Conditioned random generation failed within its retry budget."""


def make_Pk(k: int) -> ColouredCompleteGraph:
    """The locally 1/4-balanced 2-colouring of K_{4k}.

    The vertex set splits into four blocks V1..V4 of size k; edges inside
    V1 u V4 are red, edges inside V2 u V3 are blue, V1-V3 and V2-V4 are
    red, V1-V2 and V3-V4 are blue: the blow-up P3[k], vertex for vertex.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return blow_up(get_pattern("P3"), k)


def make_split(a: int, b: int, seed: int = 0, flips: int = 0) -> ColouredCompleteGraph:
    """A split colouring: red clique on a vertices, blue clique on b,
    cross edges by a seeded fair coin, then ``flips`` random edges toggled.
    The cross pairs u < a <= v are the a x b block in row-major order, so
    one draw_below draws the coins a per-pair randrange(2) loop would.
    """
    n = a + b
    if a < 0 or b < 0 or n < 2:
        raise ValueError(f"need a, b >= 0 and a + b >= 2, got ({a},{b})")
    if flips < 0 or flips > comb(n, 2):
        raise ValueError(f"flips must lie in [0, C(n,2)], got {flips}")
    _check_size(n, 2)
    rng = random.Random(seed)
    table = np.full((n, n), BLUE, dtype=np.uint8)
    table[:a, :a] = RED
    table[:a, a:] = draw_below(rng, 2, a * b).reshape(a, b)
    colours = table[~np.tri(n, dtype=bool)]
    colours[rng.sample(range(len(colours)), flips)] ^= 1
    return ColouredCompleteGraph.from_pair_colours(n, 2, colours)


def make_multicolour_cycle(l: int, part_size: int) -> ColouredCompleteGraph:
    """The 3-colouring with red/blue bipartite graphs alternating around an
    even cycle of l parts and green everywhere else.

    Consecutive parts i, i+1 (mod l, 0-indexed) are joined in red for even
    i and blue for odd i; all remaining edges, including those inside
    parts, are green.  With equal part sizes it is locally (1/l)-balanced.
    """
    if l % 2 != 0 or l < 4:
        raise ValueError(f"need an even l >= 4, got {l}")
    if part_size < 1:
        raise ValueError(f"need part_size >= 1, got {part_size}")
    cycle = {(i, (i + 1) % l): RED if i % 2 == 0 else BLUE for i in range(l)}
    quotient = TotallyColouredPattern.from_parts(3, (GREEN,) * l, cycle, default_edge_colour=GREEN)
    return blow_up(quotient, part_size)


# draw_below's bulk rounds stop once at most this many values are missing:
# a round's fixed cost (one big getrandbits, a buffer, a mask) then exceeds
# a scalar getrandbits per value
_SCALAR_TAIL = 32


def draw_below(rng: random.Random, r: int, count: int) -> np.ndarray:
    """The next ``count`` values of ``rng.randrange(r)``, drawn in bulk.

    CPython's randrange(r) keeps the top k = r.bit_length() bits of one
    32-bit Mersenne Twister word and redraws while the value is >= r, and
    getrandbits(32 * m) returns the next m words little-endian.  Each bulk
    round therefore asks for one word per value still missing and keeps
    the accepted ones in order; a value never takes fewer than one word,
    so no word is drawn that the per-call loop would not have drawn.  Once
    at most _SCALAR_TAIL values are missing, each is drawn as the loop
    draws it, by getrandbits(k) until below r: for k <= 32 that call takes
    exactly one word and returns its top k bits, so the tail is the loop
    itself.  The result and the state left in ``rng`` equal those of
    ``[rng.randrange(r) for _ in range(count)]``.  ``rng`` must draw
    through getrandbits (random.Random does).
    """
    if not 1 <= r <= 256:
        raise ValueError(f"need 1 <= r <= 256 for a uint8 draw, got {r}")
    out = np.empty(count, dtype=np.uint8)
    k = r.bit_length()
    filled = 0
    while count - filled > _SCALAR_TAIL:
        need = count - filled
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        values = np.frombuffer(words, dtype="<u4") >> (32 - k)
        kept = values[values < r]
        out[filled:filled + len(kept)] = kept
        filled += len(kept)
    getrandbits = rng.getrandbits
    for i in range(filled, count):
        value = getrandbits(k)
        while value >= r:
            value = getrandbits(k)
        out[i] = value
    return out


def make_random(n: int, r: int, seed: int) -> ColouredCompleteGraph:
    """I.i.d. uniform edge colours; deterministic per seed.

    The colour of pair u < v is the next ``random.Random(seed).randrange(r)``
    in row-major order, drawn in bulk by draw_below.
    """
    _check_size(n, r)
    colours = draw_below(random.Random(seed), r, comb(n, 2))
    return ColouredCompleteGraph.from_pair_colours(n, r, colours)


def make_bipartite_mindeg(
    n_side: int, eps: Rational, seed: int, max_retries: int = 1000
) -> BipartiteColouring:
    """Random bipartite colouring with min red degree on X and min blue
    degree on Y both at least ceil(eps * n_side).

    Each X-vertex receives a forced-red partner set and each Y-vertex a
    forced-blue partner set; draws that would force a pair both ways are
    resolved by resampling the whole attempt from the same seeded stream.
    The base colours are drawn first, row by row, one randrange(2) per
    pair (RED = 0), then the forced sets with rng.sample.
    """
    eps = _as_fraction(eps)
    if not 0 < eps <= Fraction(1, 2):
        raise ValueError(f"need 0 < eps <= 1/2, got {eps}")
    if n_side < 1:
        raise ValueError(f"need n_side >= 1, got {n_side}")
    _check_size(2 * n_side, 2)  # the host on X u Y whose cross pairs it colours
    need = ceil(eps * n_side)
    rng = random.Random(seed)
    side = range(n_side)
    col = np.arange(n_side)[:, None]
    for _ in range(max_retries):
        red = draw_below(rng, 2, n_side * n_side).reshape(n_side, n_side) == RED
        free = np.ones((n_side, n_side), dtype=bool)  # free[x, y]: x is not forced blue at y
        free[np.array([rng.sample(side, need) for _ in side]), col] = False
        red_of_x = []
        for x in side:
            avail = free[x].nonzero()[0].tolist()
            if len(avail) < need:
                break
            red_of_x.append(rng.sample(avail, need))
        else:
            red &= free
            red[col, np.array(red_of_x)] = True
            red_x = int(red.sum(axis=1).min())
            blue_y = n_side - int(red.sum(axis=0).max())
            if min(red_x, blue_y) < need:
                raise AssertionError(
                    f"min-degree draw below {need}: least red degree on X {red_x}, "
                    f"least blue degree on Y {blue_y}"
                )
            return BipartiteColouring(red)
    raise ResamplingBudgetExceeded(
        f"no conflict-free draw in {max_retries} attempts (n={n_side}, eps={eps})"
    )


# ---------------------------------------------------------------------------
# Closeness to a split colouring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitCloseness:
    """Distance of a labelled 2-colouring from a split colouring.

    delta = flips / n^2 where flips is the number of edges whose colour
    must change so that red_side induces a red clique and blue_side a blue
    clique; red_side is the least such side (as a bitmask) over all 2^n
    bipartitions.
    """

    delta: Fraction
    red_side: tuple[int, ...]
    blue_side: tuple[int, ...]
    flips: int

    @property
    def mode(self) -> str:
        """Always "exact": the closeness is exact at every n."""
        return "exact"


def _split_violations(G: ColouredCompleteGraph, red_mask: int) -> int:
    """The number of pairs the split with red side red_mask must recolour:
    each vertex counts its wrong-colour neighbours on its own side (blue
    ones on the red side, red ones on the blue side), and every such pair
    is counted at both ends."""
    blue_mask = ((1 << G.n) - 1) & ~red_mask
    red, blue = G.colour_bits(RED), G.colour_bits(BLUE)
    return sum(
        (blue[u] & red_mask if (red_mask >> u) & 1 else red[u] & blue_mask).bit_count()
        for u in range(G.n)
    ) // 2


def closeness_to_split(G: ColouredCompleteGraph) -> SplitCloseness:
    """Fewest edge flips taking G to a split colouring of its labelled
    vertex set, exactly, in O(n log n) time at any n.

    The split with red side S recolours the blue pairs inside S and the red
    pairs outside it.  With d_R(v) the red degree of v and e_R the number
    of red edges, that is

        cost(S) = C(|S|, 2) + e_R - sum of d_R(v) over v in S,

    so among the sides of size k the k vertices of largest red degree cost
    least.  Sorting by (-d_R, index) and taking prefix sums gives the best
    cost for every k at once.  The first optimal k, with ties in degree
    going to the lower index, gives the least optimal red-side mask: every
    optimal side of size k has the same degree sum, and the prefix sides
    are nested, so a larger k only adds bits.
    """
    if G.r != 2:
        raise ValueError(f"closeness_to_split needs r=2, got r={G.r}")
    n = G.n
    red = [d[RED] for d in balance_profile(G).degrees]
    order = sorted(range(n), key=lambda v: -red[v])  # stable: ties by index
    cost = best = sum(red) // 2  # k = 0: every red edge is recoloured
    best_k = 0
    for k, v in enumerate(order):
        cost += k - red[v]  # C(k + 1, 2) - C(k, 2) = k
        if cost < best:
            best, best_k = cost, k + 1
    red_mask = sum(1 << v for v in order[:best_k])
    flips = _split_violations(G, red_mask)
    if flips != best:
        raise AssertionError(f"split counts {flips} pairs to flip, closed form says {best}")
    return SplitCloseness(
        delta=Fraction(best, n * n),
        red_side=tuple(_bits(red_mask)),
        blue_side=tuple(_bits(((1 << n) - 1) & ~red_mask)),
        flips=flips,
    )
