"""The bulk random generators against the per-call random.Random loops
they replace: same values, same graphs and the same generator state left
behind.  A CPython whose randrange stream changes fails here."""

import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localbalance import (
    ResamplingBudgetExceeded,
    balance_profile,
    draw_below,
    make_bipartite_mindeg,
    make_random,
    make_split,
    sample_locally_balanced,
)
from localbalance.constructions import _SCALAR_TAIL
from localbalance.verify import _pair_cells
from hosts import bipartite_from, make_random_reference, make_split_reference, outcome

RED, BLUE = 0, 1


def sample_reference(n, r, eps, rng, max_attempts=10_000):
    """Rejection sampling that builds every draw and compares Fractions."""
    for _ in range(max_attempts):
        G = make_random_reference(n, r, rng.randrange(2**31))
        if balance_profile(G).min_degree_per_colour >= eps * n:
            return G
    return None


def bipartite_reference(n_side, eps, seed, max_retries=1000):
    """make_bipartite_mindeg with one randrange(2) per base pair and set lookups."""
    need = -(-eps.numerator * n_side // eps.denominator)
    rng = random.Random(seed)
    for _ in range(max_retries):
        base = [[rng.randrange(2) for _ in range(n_side)] for _ in range(n_side)]
        forced_blue = [set(rng.sample(range(n_side), need)) for _ in range(n_side)]
        forced_red = []
        for x in range(n_side):
            avail = [y for y in range(n_side) if x not in forced_blue[y]]
            if len(avail) < need:
                break
            forced_red.append(set(rng.sample(avail, need)))
        else:
            def colour(x, y):
                if y in forced_red[x]:
                    return RED
                if x in forced_blue[y]:
                    return BLUE
                return base[x][y]

            return bipartite_from(n_side, n_side, colour)
    return None


class TestDrawBelow:
    @pytest.mark.parametrize("r", [1, 2, 3, 5, 255])
    @pytest.mark.parametrize("count", [0, 1, 2, 1000, 33333])
    def test_matches_randrange_loop(self, r, count):
        loop, bulk = random.Random(r * 7 + count), random.Random(r * 7 + count)
        want = [loop.randrange(r) for _ in range(count)]
        got = draw_below(bulk, r, count)
        assert got.dtype == np.uint8 and got.tolist() == want
        assert bulk.getstate() == loop.getstate()

    @pytest.mark.parametrize("r", [1, 2, 3, 128, 129, 255, 256])
    @pytest.mark.parametrize("count", [_SCALAR_TAIL - 1, _SCALAR_TAIL, _SCALAR_TAIL + 1,
                                       2 * _SCALAR_TAIL])
    def test_matches_randrange_loop_across_the_scalar_tail(self, r, count):
        for seed in range(8):
            loop, bulk = random.Random(seed), random.Random(seed)
            want = [loop.randrange(r) for _ in range(count)]
            assert draw_below(bulk, r, count).tolist() == want
            assert bulk.getstate() == loop.getstate()

    def test_continues_a_used_stream(self):
        loop, bulk = random.Random(5), random.Random(5)
        loop.random(), bulk.random()
        want = [loop.randrange(3) for _ in range(500)] + [loop.randrange(7) for _ in range(9)]
        got = draw_below(bulk, 3, 500).tolist() + draw_below(bulk, 7, 9).tolist()
        assert got == want and bulk.getstate() == loop.getstate()

    def test_continues_a_stream_across_two_scalar_tails(self):
        class Recording(random.Random):
            def getrandbits(self, k):
                bits.append(k)
                return super().getrandbits(k)

        bits = []
        loop, bulk = random.Random(11), Recording(11)
        draws = [(3, 2 * _SCALAR_TAIL + 5), (129, _SCALAR_TAIL + 3)]
        for r, count in draws:
            want = [loop.randrange(r) for _ in range(count)] + [loop.random()]
            start = len(bits)
            assert draw_below(bulk, r, count).tolist() + [bulk.random()] == want
            # bulk rounds ask for 32 bits per missing value, the tail for k bits per value
            assert bits[start] > 32 * _SCALAR_TAIL and bits[-1] == r.bit_length()
        assert bulk.getstate() == loop.getstate()

    @pytest.mark.parametrize("r, count", [(0, 1), (257, 1), (2, -1)])
    def test_rejects_bad_arguments(self, r, count):
        with pytest.raises(ValueError):
            draw_below(random.Random(0), r, count)


class TestMakeRandomStream:
    @pytest.mark.parametrize("n", [1, 2, 3, 24, 512])
    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_equals_per_pair_loop(self, n, r):
        for seed in (0, 1, 2**31 - 1):
            G, H = make_random(n, r, seed), make_random_reference(n, r, seed)
            assert G == H
            assert G._bits == H._bits

    @pytest.mark.parametrize("n, r", [(0, 2), (-1, 2), (4, 1), (4, 256), (4, 300)])
    def test_rejects_bad_sizes(self, n, r):
        with pytest.raises(ValueError, match="need"):
            make_random(n, r, 0)


class TestMakeSplitStream:
    @pytest.mark.parametrize("a, b, flips", [
        (a, b, flips)
        for a in (0, 1, 5) for b in (0, 1, 7) if a + b >= 2
        for flips in sorted({0, 1, comb(a + b, 2)})
    ])
    def test_equals_per_pair_loop(self, a, b, flips):
        for seed in (0, 1, 7, 2**31 - 1):
            G, H = make_split(a, b, seed, flips), make_split_reference(a, b, seed, flips)
            assert G == H
            assert G._bits == H._bits

    @pytest.mark.parametrize("seed", [0, 3])
    def test_census_host(self, seed):
        G, H = make_split(192, 192, seed, 2000), make_split_reference(192, 192, seed, 2000)
        assert G == H and G._bits == H._bits

    @pytest.mark.parametrize("a, b, flips", [(1, 0, 0), (-1, 3, 0), (3, 3, 16), (3, 3, -1)])
    def test_same_errors(self, a, b, flips):
        got = outcome(lambda: make_split(a, b, 0, flips))
        assert got == outcome(lambda: make_split_reference(a, b, 0, flips))
        assert got[0] is ValueError


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 20), st.integers(2, 255), st.integers(0, 2**64))
def test_make_random_is_the_randrange_stream(n, r, seed):
    G, H = make_random(n, r, seed), make_random_reference(n, r, seed)
    assert G == H and G._bits == H._bits


class TestSamplerStream:
    @pytest.mark.parametrize("n, r, eps", [
        (16, 2, Fraction(3, 10)),
        (12, 2, Fraction(1, 4)),
        (9, 3, Fraction(1, 5)),
        (10, 2, 0),
        (32, 2, Fraction(3, 10)),  # the largest cell of the p3c4 suite
        (20, 5, Fraction(1, 20)),  # k = 3 bits per value, 3 of the 8 redrawn
    ])
    def test_equals_build_and_test_loop(self, n, r, eps):
        for seed in range(4):
            a, b = random.Random(seed), random.Random(seed)
            G = sample_locally_balanced(n, r, eps, a)
            assert G is not None and G == sample_reference(n, r, eps, b)
            assert a.getstate() == b.getstate()

    def test_shared_pair_cells_are_read_only(self):
        # the sampler keeps one cell index per size for every later call;
        # a caller that reaches it cannot change what later calls draw
        sample_locally_balanced(12, 2, Fraction(1, 4), random.Random(0))
        for cells in _pair_cells(12, 2):
            with pytest.raises(ValueError, match="read-only"):
                cells[0] = 5
        a, b = random.Random(1), random.Random(1)
        assert sample_locally_balanced(12, 2, Fraction(1, 4), a) == \
            sample_reference(12, 2, Fraction(1, 4), b)

    def test_exhausted_leaves_same_state(self):
        # 2 * 3 <= 6 edges per vertex, but balance needs a 3-regular red graph
        # on 7 vertices, which does not exist: every draw is spent
        a, b = random.Random(3), random.Random(3)
        assert sample_locally_balanced(7, 2, Fraction(3, 7), a, max_attempts=40) is None
        assert sample_reference(7, 2, Fraction(3, 7), b, max_attempts=40) is None
        assert a.getstate() == b.getstate()

    @pytest.mark.parametrize("n, r, eps", [
        (6, 2, Fraction(1, 2)), (8, 2, Fraction(1, 2)), (10, 3, Fraction(1, 3)), (2, 2, Fraction(1, 2)),
    ])
    def test_unreachable_eps_returns_none_without_drawing(self, n, r, eps):
        # r * ceil(eps * n) > n - 1: no colouring gives every vertex enough edges
        rng = random.Random(0)
        state = rng.getstate()
        assert sample_locally_balanced(n, r, eps, rng) is None
        assert rng.getstate() == state

    def test_boundary_degree_is_accepted(self):
        # n = 11, eps = 3/11: a vertex of colour degree exactly 3 is balanced
        for seed in range(6):
            a, b = random.Random(seed), random.Random(seed)
            assert sample_locally_balanced(11, 2, Fraction(3, 11), a) == \
                sample_reference(11, 2, Fraction(3, 11), b)

    @pytest.mark.parametrize("eps", [Fraction(-1, 5), Fraction(3, 2)])
    def test_rejects_eps_before_drawing(self, eps):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match="eps"):
            sample_locally_balanced(8, 2, eps, rng)
        assert rng.getstate() == state

    @pytest.mark.parametrize("n, r", [(0, 2), (8, 1), (8, 300)])
    def test_rejects_sizes_before_drawing(self, n, r):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match="need"):
            sample_locally_balanced(n, r, Fraction(1, 5), rng)
        assert rng.getstate() == state


class TestBipartiteStream:
    @pytest.mark.parametrize("n_side, eps", [
        (10, Fraction(1, 5)),
        (20, Fraction(1, 10)),
        (30, Fraction(1, 5)),
        (3, Fraction(1, 3)),
        (2, Fraction(1, 2)),  # conflicts force retries from the same stream
        (4, Fraction(1, 2)),  # ... and can exhaust the retry budget
        (1, Fraction(1, 2)),  # never conflict-free
    ])
    def test_equals_per_call_loop(self, n_side, eps):
        for seed in range(5):
            want = bipartite_reference(n_side, eps, seed, max_retries=12)
            if want is None:
                with pytest.raises(ResamplingBudgetExceeded):
                    make_bipartite_mindeg(n_side, eps, seed, max_retries=12)
            else:
                assert make_bipartite_mindeg(n_side, eps, seed, max_retries=12) == want

    def test_rejects_empty_side(self):
        with pytest.raises(ValueError, match="n_side"):
            make_bipartite_mindeg(0, Fraction(1, 4), seed=0)
