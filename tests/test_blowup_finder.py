import gc
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from localbalance import (
    BipartiteIncidence,
    CanonicalHypergraph,
    ColouredCompleteGraph,
    TotallyColouredPattern,
    blow_up,
    find_homogeneous_blowup,
    get_pattern,
    hypergraph_cover,
    induced_edge_pattern,
    kst_star,
    make_Pk,
    make_random,
    min_degree_cleanup,
    ramsey_bound,
    ramsey_clique,
    verify_witness,
)
from hosts import (
    canonical_hypergraph_record,
    canonical_hypergraph_reference,
    exact_mono_clique_reference,
    graph_from,
    min_degree_cleanup_reference,
    prefix_masks,
    ramsey_clique_reference,
)
from localbalance.blowup_finder import (
    CLEANUP_CAP,
    STAR_SEARCH_BUDGET,
    StarResult,
    _BUILD_CHUNK,
    _cover_threshold,
    _random_equitable_partition,
    _TopLevel,
    _top_level,
    asymptotic_target_size,
)
from localbalance.patterns import _blowup_search

RED, BLUE = 0, 1


def random_hypergraph(rng, l, part_size, density):
    parts = [
        tuple(range(i * part_size, (i + 1) * part_size)) for i in range(l)
    ]
    edges = [
        e
        for e in itertools.product(*parts)
        if rng.random() < density
    ]
    return CanonicalHypergraph.from_edges(parts, edges)


def canonical_copies_oracle(G, H, parts):
    """Every l-tuple of parts[0] x ... x parts[l-1] carrying H's edge
    colouring, in lexicographic order."""
    l = H.num_vertices
    pairs = list(itertools.combinations(range(l), 2))
    return [
        e
        for e in itertools.product(*(sorted(p) for p in parts))
        if all(G.colour(e[i], e[j]) == H.edge_colour(i, j) for i, j in pairs)
    ]


def naive_cleanup_fixpoint(Hg, threshold):
    """Repeat full rescans of the edge list until nothing changes."""
    edges = set(Hg.edges())
    cut = Fraction(threshold) * len(Hg.parts[-1])
    while True:
        degrees = {}
        for e in edges:
            degrees[e[:-1]] = degrees.get(e[:-1], 0) + 1
        bad = {p for p, d in degrees.items() if 0 < d < cut}
        if not bad:
            break
        edges = {e for e in edges if e[:-1] not in bad}
    return edges


def assert_record_invariants(Hg):
    """The invariants CanonicalHypergraph's constructor takes on trust."""
    assert all(p and list(p) == sorted(p) for p in Hg.parts)
    assert len(set().union(*Hg.parts)) == sum(map(len, Hg.parts))
    words = -(-len(Hg.parts[-1]) // 64)
    assert Hg.prefixes.dtype == np.int32 and Hg.prefixes.shape == (len(Hg.prefixes), Hg.ell - 1)
    assert Hg.masks.dtype == np.uint64 and Hg.masks.shape == (len(Hg.prefixes), words)
    # no bit past |V_l|, which prefix_masks would not see
    spare = np.unpackbits(Hg.masks.view(np.uint8), axis=1, bitorder="little")
    assert not spare[:, len(Hg.parts[-1]):].any()
    by_prefix = prefix_masks(Hg)
    keys = list(by_prefix)
    assert len(keys) == len(Hg.prefixes)  # no prefix twice
    assert keys == sorted(keys)
    last = sum(1 << v for v in Hg.parts[-1])
    assert all(m and not m & ~last for m in by_prefix.values())
    assert Hg.edge_count == sum(m.bit_count() for m in by_prefix.values())


class TestCanonicalHypergraph:
    def test_edge_accounting(self):
        parts = [(0, 1), (2, 3), (4, 5)]
        edges = [(0, 2, 4), (0, 2, 5), (1, 3, 4)]
        Hg = CanonicalHypergraph.from_edges(parts, edges)
        assert Hg.edge_count == 3
        assert list(Hg.edges()) == sorted(edges)
        assert prefix_masks(Hg) == {(0, 2): 0b110000, (1, 3): 0b10000}

    def test_rejects_duplicates_and_strays(self):
        parts = [(0, 1), (2, 3)]
        with pytest.raises(ValueError, match="duplicate"):
            CanonicalHypergraph.from_edges(parts, [(0, 2), (0, 2)])
        with pytest.raises(ValueError, match="not in part"):
            CanonicalHypergraph.from_edges(parts, [(0, 4)])
        with pytest.raises(ValueError, match="one vertex per part"):
            CanonicalHypergraph.from_edges(parts, [(0, 2, 3)])

    @pytest.mark.parametrize("parts, message", [
        ([(0, 1), ()], "empty part"),
        ([(0, 1), (1, 2)], "disjoint"),
        ([(0, 0), (2, 3)], "disjoint"),
    ])
    def test_rejects_malformed_parts(self, parts, message):
        with pytest.raises(ValueError, match=message):
            CanonicalHypergraph.from_edges(parts, [])

    @pytest.mark.parametrize("parts, edges", [
        ([(-1, 1), (2, 3)], [(-1, 2)]),            # negative vertex
        ([(0, 1), (2, 3)], [("0", 2)]),            # string vertex in an edge
        ([("a", "b"), (2, 3)], []),                # string vertices in a part
        ([(True,), (2,)], [(True, 2)]),            # a bool is no vertex
        ([(0, 1.5), (2, 3)], []),                  # nor is a float
        ([(0, 1), (2, 3)], [(0, 2.0)]),
        ([(0, 1), (2, 3)], [0]),                   # an edge that is no sequence
        ([(0, 2**31), (2, 3)], []),                # past the int32 prefix range
    ])
    def test_rejects_bad_vertices(self, parts, edges):
        with pytest.raises(ValueError):
            CanonicalHypergraph.from_edges(parts, edges)

    def test_numpy_integers_are_vertices(self):
        parts = [np.array([1, 0]), (np.int64(3), np.int32(2))]
        edges = [(np.int64(1), 3), (0, np.uint8(2))]
        Hg = CanonicalHypergraph.from_edges(parts, edges)
        assert Hg.parts == ((0, 1), (2, 3))
        assert all(type(v) is int for p in Hg.parts for v in p)
        assert list(Hg.edges()) == [(0, 2), (1, 3)]

    def test_unsorted_input_gives_sorted_record(self):
        parts = [(1, 0), (3, 2)]
        edges = [(1, 3), (0, 3), (1, 2), (0, 2)]
        Hg = CanonicalHypergraph.from_edges(parts, edges)
        assert Hg.parts == ((0, 1), (2, 3))
        assert list(prefix_masks(Hg)) == [(0,), (1,)]
        assert_record_invariants(Hg)

    def test_shadow(self):
        parts = [(0, 1), (2, 3), (4, 5)]
        Hg = CanonicalHypergraph.from_edges(parts, [(0, 2, 4), (0, 2, 5), (1, 2, 4)])
        sh = Hg.shadow()
        assert sh.parts == ((0, 1), (2, 3))
        assert list(sh.edges()) == [(0, 2), (1, 2)]


class TestMinDegreeCleanup:
    def test_identity_when_degrees_high(self):
        parts = [(0, 1), (2, 3)]
        Hg = CanonicalHypergraph.from_edges(
            parts, [(0, 2), (0, 3), (1, 2), (1, 3)]
        )
        out = min_degree_cleanup(Hg, Fraction(1, 2))
        assert set(out.edges()) == set(Hg.edges())

    def test_single_edge_below_threshold_emptied(self):
        parts = [(0, 1), (2, 3)]
        Hg = CanonicalHypergraph.from_edges(parts, [(0, 2)])
        assert min_degree_cleanup(Hg, Fraction(3, 4)).is_empty

    def test_matches_naive_fixpoint_oracle(self):
        rng = random.Random(5)
        for _ in range(100):
            l = rng.randrange(2, 5)
            size = rng.randrange(2, 7)
            Hg = random_hypergraph(rng, l, size, rng.random())
            # thresholds whose cut k lands exactly on an integer, and just beside one
            exact = [Fraction(k, size) for k in range(size + 1)]
            beside = [Fraction(2 * k + 1, 2 * size) for k in range(size + 1)]
            for thr in [Fraction(rng.randrange(0, 8), 8)] + exact + beside:
                got = set(min_degree_cleanup(Hg, thr).edges())
                assert got == naive_cleanup_fixpoint(Hg, thr)

    def test_idempotent(self):
        rng = random.Random(6)
        for _ in range(10):
            Hg = random_hypergraph(rng, 3, 4, 0.4)
            once = min_degree_cleanup(Hg, Fraction(1, 4))
            twice = min_degree_cleanup(once, Fraction(1, 4))
            assert set(once.edges()) == set(twice.edges())

    def test_shadow_degrees_meet_threshold_after_cleanup(self):
        rng = random.Random(7)
        for _ in range(20):
            Hg = random_hypergraph(rng, 3, 5, 0.3)
            thr = Fraction(2, 5)
            cleaned = min_degree_cleanup(Hg, thr)
            if cleaned.is_empty:
                continue
            cut = thr * len(cleaned.parts[-1])
            for prefix in cleaned.shadow().edges():
                assert prefix_masks(cleaned)[prefix].bit_count() >= cut


class TestCanonicalHypergraphBuilder:
    PATTERNS = ("C4", "P3o", "P3")

    @staticmethod
    def cases():
        rng = random.Random(21)
        for r in (2, 3):
            for _ in range(20):
                n = rng.randrange(5, 17)
                G = make_random(n, r, rng.randrange(10**6))
                for name in TestCanonicalHypergraphBuilder.PATTERNS:
                    H = get_pattern(name)
                    yield G, H, _random_equitable_partition(rng, n, H.num_vertices)
                # a 5-vertex induced pattern, with parts ordered so that its
                # i-th vertex lies in part i: at least one copy
                parts = _random_equitable_partition(rng, n, 5)
                picks = [rng.choice(p) for p in parts]
                order = sorted(range(5), key=picks.__getitem__)
                yield G, induced_edge_pattern(G, picks), [parts[i] for i in order]

    def test_matches_product_oracle(self):
        # the built top level, read through its shadow, rows and count, and
        # the tests' whole record
        for G, H, parts in self.cases():
            want = CanonicalHypergraph.from_edges(parts, canonical_copies_oracle(G, H, parts))
            top = _top_level(G, H, parts)
            assert top.parts == want.parts and top.edge_count == want.edge_count
            shadow = top.cleaned_shadow(0)
            assert list(prefix_masks(shadow).items()) == list(prefix_masks(want.shadow()).items())
            assert np.array_equal(top.rows(want.prefixes.tolist()), want.masks)
            # same prefixes, masks and lexicographic insertion order
            got = canonical_hypergraph_record(G, H, parts)
            assert list(prefix_masks(got).items()) == list(prefix_masks(want).items())
            assert got.parts == want.parts

    def test_one_vertex_build_is_one_row_of_every_vertex(self):
        H = TotallyColouredPattern.from_parts(2, (1,), {})
        for G, _, parts in self.cases():
            Hg = _top_level(G, H, [parts[0]])
            assert isinstance(Hg, CanonicalHypergraph)
            want = CanonicalHypergraph.from_edges([parts[0]], [(v,) for v in parts[0]])
            assert Hg.parts == want.parts and Hg.edge_count == len(parts[0])
            assert np.array_equal(Hg.prefixes, want.prefixes)
            assert np.array_equal(Hg.masks, want.masks)
            assert_record_invariants(Hg)

    def test_shadow_matches_from_edges_shadow(self):
        for G, H, parts in self.cases():
            Hg = canonical_hypergraph_record(G, H, parts)
            want = CanonicalHypergraph.from_edges(Hg.parts[:-1], sorted(prefix_masks(Hg)))
            got = Hg.shadow()
            assert list(prefix_masks(got).items()) == list(prefix_masks(want).items())
            assert got.parts == want.parts

    def test_records_keep_invariants(self):
        # every entry point and every derived record, down to l = 1; from_edges
        # gets its edges shuffled
        rng = random.Random(22)
        records = [canonical_hypergraph_record(G, H, parts) for G, H, parts in self.cases()]
        for _ in range(30):
            Hg = random_hypergraph(rng, rng.randrange(1, 5), rng.randrange(2, 6), rng.random())
            edges = list(Hg.edges())
            rng.shuffle(edges)
            shuffled = CanonicalHypergraph.from_edges(Hg.parts, edges)
            assert list(prefix_masks(shuffled).items()) == list(prefix_masks(Hg).items())
            records += [Hg, shuffled]
        for Hg in records:
            while True:
                assert_record_invariants(Hg)
                cleaned = min_degree_cleanup(Hg, Fraction(1, 3))
                assert_record_invariants(cleaned)
                if Hg.ell < 2:
                    break
                assert_record_invariants(Hg.shadow())
                Hg = cleaned.shadow()

    @pytest.mark.parametrize("parts, message", [
        ([(0, 1, 2), (3, 4, 5), (6, 7, 8)], "one part per pattern vertex"),
        ([(0, 1), (2, 3), (4, 5), (6, 20)], r"range\(12\)"),
        ([(-1, 1), (2, 3), (4, 5), (6, 7)], r"range\(12\)"),
        ([(0, 1), (2, 3), (), (6, 7)], "empty part"),
        ([(0, 1), (1, 3), (4, 5), (6, 7)], "disjoint"),
    ])
    def test_rejects_malformed_parts(self, parts, message):
        G = make_random(12, 2, 3)
        with pytest.raises(ValueError, match=message):
            _top_level(G, get_pattern("C4"), parts)

    @pytest.mark.parametrize("bad", [(True,), (0, 1.5), ("x",)])
    def test_rejects_parts_that_are_not_vertices(self, bad):
        G = make_random(12, 2, 3)
        with pytest.raises(ValueError, match="not an integer"):
            _top_level(G, get_pattern("C4"), [bad, (2, 3), (4, 5), (6, 7)])
        with pytest.raises(ValueError, match="not an integer"):
            _top_level(G, TotallyColouredPattern.from_parts(2, (0,), {}), [bad])

    def test_numpy_parts_give_the_tuple_record(self):
        # numpy int64 vertices, many past 63, read as Python integers
        G = make_random(200, 2, 3)
        parts = _random_equitable_partition(random.Random(0), 200, 4)
        want = _top_level(G, get_pattern("C4"), parts)
        got = _top_level(G, get_pattern("C4"), [np.array(p) for p in parts])
        assert got.parts == want.parts
        for name in ("heads", "last", "pair", "degrees"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.edge_count == want.edge_count > 0
        one = TotallyColouredPattern.from_parts(2, (0,), {})
        want, got = _top_level(G, one, [range(200)]), _top_level(G, one, [np.arange(200)])
        assert got.parts == want.parts and np.array_equal(got.masks, want.masks)

    def test_level_past_the_byte_limit_refused_before_allocation(self):
        # an all-red 8-vertex pattern in an all-red host: 75^7 prefixes
        G = ColouredCompleteGraph(600, 2, np.zeros((600, 600), dtype=np.uint8))
        H = TotallyColouredPattern.from_parts(2, (0,) * 8, {})
        parts = [tuple(range(75 * i, 75 * (i + 1))) for i in range(8)]
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^level 4 of the canonical hypergraph has {75**4} "
                                             "candidate prefixes"):
            _top_level(G, H, parts)
        with pytest.raises(ValueError, match="LEVEL_BYTES_LIMIT"):
            find_homogeneous_blowup(G, H)
        assert time.perf_counter() - start < 5

    def test_degree_grid_past_the_byte_limit_refused_before_allocation(self, monkeypatch):
        # an all-red 4-vertex pattern in an all-red host, on parts of 32, 32,
        # 2048 and 1 vertices: levels 1 and 2 (1024 prefixes) fit under 1 MiB,
        # the grid of 1024 x 2048 uint16 cells does not
        monkeypatch.setattr("localbalance.blowup_finder.LEVEL_BYTES_LIMIT", 1 << 20)
        G = ColouredCompleteGraph(2113, 2, np.zeros((2113, 2113), dtype=np.uint8))
        H = TotallyColouredPattern.from_parts(2, (0,) * 4, {})
        parts = [range(32), range(32, 64), range(64, 2112), (2112,)]
        message = f"^level 3 of the canonical hypergraph has {1024 * 2048} candidate prefixes "
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message + rf"\({4 << 20} bytes\)"):
                _top_level(G, H, parts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # the finder's partitions of a random host: levels 1 and 2 fit, the grid not
        monkeypatch.setattr("localbalance.blowup_finder.LEVEL_BYTES_LIMIT", 100_000)
        with pytest.raises(ValueError, match="^level 3 of the canonical hypergraph"):
            find_homogeneous_blowup(make_random(256, 2, 0), get_pattern("C4"), retries=1)

    def test_pattern_colour_beyond_host_gives_empty(self):
        G = make_random(12, 2, 3)
        H = TotallyColouredPattern.from_parts(3, (0, 0, 0), {(0, 1): 2, (0, 2): 1})
        parts = _random_equitable_partition(random.Random(0), 12, 3)
        top = _top_level(G, H, parts)
        assert not len(top.heads) and top.edge_count == 0
        assert top.parts == tuple(parts)
        res = find_homogeneous_blowup(G, H, retries=2)
        assert (res.mode, res.canonical_copies, res.achieved_t, res.attempts) == (
            "no-copies", 0, 0, 2)


class TestCanonicalPartition:
    def test_planted_c4_count_under_planted_partition(self):
        for t in (2, 3):
            pat = get_pattern("C4")
            G = blow_up(pat, t)
            parts = [tuple(range(i * t, (i + 1) * t)) for i in range(4)]
            assert len(canonical_copies_oracle(G, pat, parts)) == t**4
            assert _top_level(G, pat, parts).edge_count == t**4

    def test_copies_freed_without_cycle_collector(self):
        # a reference cycle would keep each attempt's DFS state alive until
        # the next collection, stacking attempts in peak memory
        pat = get_pattern("C4")
        G = blow_up(pat, 3)
        parts = [tuple(range(i * 3, (i + 1) * 3)) for i in range(4)]
        gc.collect()
        assert _top_level(G, pat, parts).edge_count == 81
        assert gc.collect() == 0

    def test_partition_equitable(self):
        rng = random.Random(3)
        for n, l in ((10, 4), (12, 3), (9, 2)):
            parts = _random_equitable_partition(rng, n, l)
            sizes = [len(p) for p in parts]
            assert min(sizes) >= n // l
            assert sum(sizes) == n
            assert sorted(v for p in parts for v in p) == list(range(n))


class TestDictReference:
    """The array records against the dict-of-masks DFS, cleanup and shadow
    they replaced, on seeded random hosts, down every level of the
    recursion: the built top level through its count, rows and cleaned
    shadow, then the records below it."""

    @staticmethod
    def cases():
        rng = random.Random(31)
        for r, n in ((2, 64), (2, 128), (3, rng.randrange(65, 256)), (3, 256)):
            G = make_random(n, r, rng.randrange(10**6))
            for name in ("C4", "P3o", "P3"):
                yield G, get_pattern(name), _random_equitable_partition(rng, n, 4)
            parts = _random_equitable_partition(rng, n, 5)
            picks = [rng.choice(p) for p in parts]
            order = sorted(range(5), key=picks.__getitem__)
            yield G, induced_edge_pattern(G, picks), [parts[i] for i in order]
        # numpy parts, each in shuffled order, on the densest host, where
        # the dict references are slowest
        G = make_random(256, 2, rng.randrange(10**6))
        parts = _random_equitable_partition(rng, 256, 4)
        yield G, get_pattern("C4"), [np.array(rng.sample(p, len(p))) for p in parts]

    @staticmethod
    def assert_same(Hg, ref):
        assert Hg.parts == ref.parts
        # same prefixes in the same order, same masks, same count
        assert list(prefix_masks(Hg).items()) == list(ref.by_prefix.items())
        assert Hg.edge_count == ref.edge_count

    def test_build_cleanup_and_shadow_match_at_every_level(self):
        for G, H, parts in self.cases():
            top = _top_level(G, H, parts)
            ref = canonical_hypergraph_reference(G, H, [tuple(map(int, p)) for p in parts])
            assert top.parts == ref.parts and top.edge_count == ref.edge_count > 0
            # every grid cell is the degree of its (l-1)-prefix
            heads = {R: h for h, R in enumerate(map(tuple, top.heads.tolist()))}
            xs = {x: k for k, x in enumerate(top.parts[-2])}
            degrees = np.zeros_like(top.degrees)
            for R, mask in ref.by_prefix.items():
                degrees[heads[R[:-1]], xs[R[-1]]] = mask.bit_count()
            assert np.array_equal(top.degrees, degrees)
            # rows at a spread of the prefixes (all of them against the
            # whole record in TestDegreeGrid)
            sample = list(ref.by_prefix)[::-(-len(ref.by_prefix) // 64)]
            prefixes = np.array(sample, dtype=np.int32)
            got = CanonicalHypergraph(top.parts, prefixes, top.rows(sample), 0)
            assert prefix_masks(got) == {R: ref.by_prefix[R] for R in sample}
            thr = _cover_threshold(top.edge_count, top.parts)
            for t in (thr, Fraction(1, 3)):
                want = min_degree_cleanup_reference(ref, t).shadow()
                self.assert_same(top.cleaned_shadow(t), want)
            Hg = top.cleaned_shadow(thr)
            ref = min_degree_cleanup_reference(ref, thr).shadow()
            while True:
                self.assert_same(Hg, ref)
                # the cover's threshold rule, and a fixed one
                adaptive = Fraction(Hg.edge_count, Hg.ell * math.prod(map(len, Hg.parts)))
                for thr in (min(Fraction(1, 8), adaptive), Fraction(1, 3)):
                    self.assert_same(min_degree_cleanup(Hg, thr),
                                     min_degree_cleanup_reference(ref, thr))
                if Hg.ell < 2:
                    break
                self.assert_same(Hg.shadow(), ref.shadow())
                thr = min(Fraction(1, 8), adaptive)
                Hg = min_degree_cleanup(Hg, thr).shadow()
                ref = min_degree_cleanup_reference(ref, thr).shadow()


class TestDegreeGrid:
    """The finder's top level, read from the degree grid, against the whole
    record (hosts.canonical_hypergraph_record): the fused cleanup and
    shadow, the copy count, the rebuilt rows, the cover and whole finder
    runs.  Both levels give hypergraph_cover cleaned_shadow and rows, so the
    whole record's own are checked too."""

    @staticmethod
    def cases():
        yield from TestCanonicalHypergraphBuilder.cases()
        rng = random.Random(23)
        for r in (2, 3):
            for _ in range(10):
                n = rng.randrange(2, 17)
                G = make_random(n, r, rng.randrange(10**6))
                yield G, get_pattern("P1"), _random_equitable_partition(rng, n, 2)

    def test_cleaned_shadow_is_the_cleaned_hypergraphs_shadow(self, monkeypatch):
        # a chunk of 7 cells packs a few grid rows at a time, with a ragged last chunk
        for chunk in (_BUILD_CHUNK, 7):
            monkeypatch.setattr("localbalance.blowup_finder._BUILD_CHUNK", chunk)
            for G, H, parts in self.cases():
                Hg = canonical_hypergraph_record(G, H, parts)
                top = _top_level(G, H, parts)
                assert top.edge_count == Hg.edge_count
                assert type(top.edge_count) is int
                width = len(Hg.parts[-1])
                # the cover's threshold, and cuts on each degree and just beside one
                thresholds = {min(CLEANUP_CAP, Fraction(Hg.edge_count, Hg.ell * math.prod(
                    map(len, Hg.parts))))} | {Fraction(k, 2 * width) for k in range(2 * width + 1)}
                for thr in sorted(thresholds):
                    want = min_degree_cleanup(Hg, thr).shadow()
                    for got in (top.cleaned_shadow(thr), Hg.cleaned_shadow(thr)):
                        assert got.parts == want.parts
                        assert np.array_equal(got.prefixes, want.prefixes)
                        assert np.array_equal(got.masks, want.masks)
                        assert got.edge_count == want.edge_count
                        assert_record_invariants(got)

    def test_cleaned_shadow_packs_the_grid_chunk_by_chunk(self):
        # the whole grid compared at once held a bool array of half its bytes
        rng = random.Random(25)
        parts = _random_equitable_partition(rng, 768, 4)
        top = _top_level(make_random(768, 2, 0), get_pattern("C4"), parts)
        width = top.degrees.shape[1]
        assert len(top.heads) >= 4 * (_BUILD_CHUNK // width)
        thr = _cover_threshold(top.edge_count, top.parts)
        tracemalloc.start()
        try:
            shadow = top.cleaned_shadow(thr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not shadow.is_empty
        assert peak < top.degrees.nbytes // 4

    def test_rebuilt_rows_are_the_masks(self):
        for G, H, parts in self.cases():
            Hg = canonical_hypergraph_record(G, H, parts)
            for rows in (_top_level(G, H, parts).rows(Hg.prefixes.tolist()),
                         Hg.rows(Hg.prefixes.tolist())):
                assert rows.dtype == np.uint64 and np.array_equal(rows, Hg.masks)

    def test_cover_of_the_grid_is_the_cover_of_the_built_record(self):
        covered = 0
        for G, H, parts in self.cases():
            Hg = canonical_hypergraph_record(G, H, parts)
            top = _top_level(G, H, parts)
            if Hg.is_empty:
                for level in (Hg, top):
                    with pytest.raises(ValueError, match="needs a nonempty hypergraph"):
                        hypergraph_cover(level, G)
                continue
            assert hypergraph_cover(top, G) == hypergraph_cover(Hg, G)
            covered += 1
        assert covered > 50

    def test_finder_matches_the_built_top_level(self, monkeypatch):
        # the reference attempts hand hypergraph_cover the whole hypergraph
        rng = random.Random(24)
        runs = []
        for r in (2, 3):
            for _ in range(16):
                G = make_random(rng.randrange(4, 49), r, rng.randrange(10**6))
                H = get_pattern(rng.choice(("C4", "P3o", "P3", "P1")))
                runs.append((G, H, rng.randrange(100)))
        got = [find_homogeneous_blowup(G, H, seed=seed, retries=4) for G, H, seed in runs]
        monkeypatch.setattr("localbalance.blowup_finder._top_level", canonical_hypergraph_record)
        want = [find_homogeneous_blowup(G, H, seed=seed, retries=4) for G, H, seed in runs]
        assert got == want
        assert sum(res.achieved_t >= 1 for res in got) > len(runs) // 2


class TestFinderConfig:
    """The finder's settings: the seed, retries and target_t arguments, and
    the paper's constant c as CLEANUP_CAP."""

    def test_cleanup_cap_is_the_threshold_of_every_p1_cleanup_on_pk8(self, monkeypatch):
        # P1 has two vertices, so its one cleanup is the degree grid's
        thresholds = []
        cleaned_shadow = _TopLevel.cleaned_shadow

        def spy(top, threshold):
            thresholds.append(threshold)
            return cleaned_shadow(top, threshold)

        monkeypatch.setattr(_TopLevel, "cleaned_shadow", spy)
        find_homogeneous_blowup(make_Pk(8), get_pattern("P1"), retries=4)
        assert CLEANUP_CAP == Fraction(1, 8)
        assert thresholds == [CLEANUP_CAP] * 4

    @pytest.mark.parametrize("retries", [2.5, True, "4", None])
    def test_retry_count_must_be_an_int(self, retries):
        with pytest.raises(ValueError, match=f"^retries must be an integer, got {retries!r}$"):
            find_homogeneous_blowup(make_Pk(2), get_pattern("P3o"), retries=retries)

    @pytest.mark.parametrize("retries", [0, -1])
    def test_retry_count_must_be_positive(self, retries):
        with pytest.raises(ValueError, match="^budgets must be >= 1$"):
            find_homogeneous_blowup(make_Pk(2), get_pattern("P3o"), retries=retries)

    @pytest.mark.parametrize("target_t", [0, -3])
    def test_target_below_one_is_refused_before_any_partition(self, monkeypatch, target_t):
        # -3 returned t = 0 with metTarget = True after one partition
        def no_partition(*args):
            raise AssertionError("drew a partition before checking target_t")

        monkeypatch.setattr("localbalance.blowup_finder._random_equitable_partition",
                            no_partition)
        with pytest.raises(ValueError, match=f"^target_t must be >= 1, got {target_t}$"):
            find_homogeneous_blowup(make_random(8, 2, 0), get_pattern("C4"), retries=4,
                                    target_t=target_t)

    @pytest.mark.parametrize("name, value", [
        ("seed", 1.5), ("seed", True), ("seed", "1"), ("target_t", 2.0), ("target_t", False),
    ])
    def test_seed_and_target_must_be_ints(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            find_homogeneous_blowup(make_Pk(2), get_pattern("P3o"), **{name: value})

    def test_numpy_integers_are_read_as_ints(self):
        G, H = make_Pk(4), get_pattern("P3o")
        want = find_homogeneous_blowup(G, H, seed=5, retries=16, target_t=2)
        got = find_homogeneous_blowup(G, H, seed=np.int64(5), retries=np.uint8(16),
                                      target_t=np.int32(2))
        assert got == want


class TestKstStar:
    @pytest.mark.parametrize("s", [True, 2.0, "2", None])
    def test_star_size_must_be_an_int(self, s):
        # True gave a 1-star, 2.0 and "2" a TypeError from comb and <
        F = BipartiteIncidence(("a", "b", "c"), (0b111,) * 3, 0b111)
        with pytest.raises(ValueError, match=f"^s must be an integer, got {s!r}$"):
            kst_star(F, s)

    @pytest.mark.parametrize("s", [0, -1])
    def test_star_size_must_be_positive(self, s):
        F = BipartiteIncidence(("a", "b", "c"), (0b111,) * 3, 0b111)
        with pytest.raises(ValueError, match=f"^need s >= 1, got {s}$"):
            kst_star(F, s)

    def test_numpy_star_size_is_read_as_an_int(self):
        F = BipartiteIncidence(("a", "b", "c"), (0b111, 0b011, 0b110), 0b111)
        for s in (np.int64(2), np.uint8(2)):
            assert kst_star(F, s) == kst_star(F, 2) == StarResult(("a", "b"), 0b011, "exact")

    def test_complete_bipartite_gives_whole_b(self):
        F = BipartiteIncidence(("a", "b", "c"), (0b111,) * 3, 0b111)
        for s in (1, 2, 3):
            star = kst_star(F, s)
            assert star is not None
            assert star.common == 0b111
            assert len(star.members) == s

    def test_planted_block_recovered_exactly(self):
        # A = 6 items; items 0..2 share neighbourhood {0..4}; others sparse
        planted = 0b11111
        nbrs = (planted, planted, planted, 0b1, 0b10, 0b100)
        F = BipartiteIncidence(tuple(range(6)), nbrs, (1 << 5) - 1)
        star = kst_star(F, 3)
        assert star.mode == "exact"
        assert set(star.members) == {0, 1, 2}
        assert star.common == planted

    def test_empty_graph_none(self):
        F = BipartiteIncidence((0, 1), (0, 0), 0b11)
        assert kst_star(F, 1) is None

    def test_greedy_mode_on_large_a(self):
        # over the exact-search budget, kst_star takes the first s items of
        # the greedy order and their common neighbourhood
        rng = random.Random(2)
        n_a, n_b, s = 30, 20, 15
        nbrs = tuple(rng.getrandbits(n_b) | 1 for _ in range(n_a))
        # the whole greedy order, computed eagerly
        remaining, common, eager = list(range(n_a)), (1 << n_b) - 1, []
        while remaining:
            best_i, best_sz = None, -1
            for i in remaining:
                sz = (nbrs[i] & common).bit_count()
                if sz > best_sz:
                    best_i, best_sz = i, sz
            common &= nbrs[best_i]
            eager.append((best_i, common))
            remaining.remove(best_i)
        F = BipartiteIncidence(tuple(range(n_a)), nbrs, (1 << n_b) - 1)
        assert comb(n_a, s) > STAR_SEARCH_BUDGET
        star = kst_star(F, s)
        assert star.mode == "greedy" and star.common == eager[s - 1][1] != 0
        assert star.members == tuple(i for i, _ in eager[:s])

    def test_result_is_complete_bipartite(self):
        rng = random.Random(9)
        for _ in range(10):
            n_a, n_b = 8, 10
            nbrs = tuple(rng.getrandbits(n_b) for _ in range(n_a))
            F = BipartiteIncidence(tuple(range(n_a)), nbrs, (1 << n_b) - 1)
            star = kst_star(F, 3)
            if star is None:
                continue
            for item in star.members:
                assert star.common & ~nbrs[item] == 0

    def test_nonempty_under_density_hypothesis(self):
        # e(F) >= c m n and s <= (c/2) m + 1 guarantee a nonempty result in
        # exact mode (the double-counting bound behind the star lemma)
        rng = random.Random(13)
        for _ in range(20):
            m, n_b = 10, 12
            c = Fraction(1, 2)
            while True:
                nbrs = tuple(rng.getrandbits(n_b) for _ in range(m))
                if sum(x.bit_count() for x in nbrs) >= c * m * n_b:
                    break
            s = int((c / 2) * m) + 1
            F = BipartiteIncidence(tuple(range(m)), nbrs, (1 << n_b) - 1)
            star = kst_star(F, s)
            assert star is not None
            assert star.common != 0


class TestRamseyClique:
    def test_monochromatic_input_returns_everything(self):
        verts = list(range(10))
        G = graph_from(10, 2, lambda u, v: RED)
        clique, colour = ramsey_clique(verts, G)
        assert clique == tuple(verts)
        assert colour == RED

    def test_seeded_k16(self):
        rng = random.Random(4)
        G = graph_from(16, 2, lambda u, v: rng.randrange(2))
        clique, colour = ramsey_clique(range(16), G)
        assert len(clique) >= 2
        for u, v in itertools.combinations(clique, 2):
            assert G.colour(u, v) == colour

    def test_split_with_red_cross(self):
        def phi(u, v):
            same = (u < 8) == (v < 8)
            if not same:
                return RED
            return RED if u < 8 else BLUE

        G = graph_from(16, 2, phi)
        clique, colour = ramsey_clique(range(16), G)
        assert len(clique) >= 4
        for u, v in itertools.combinations(clique, 2):
            assert G.colour(u, v) == colour

    def test_greedy_bound_two_colours(self):
        rng = random.Random(8)
        for n in (4, 16, 64, 100):
            G = graph_from(n, 2, lambda u, v: rng.randrange(2))
            clique, colour = ramsey_clique(range(n), G)
            assert len(clique) >= ramsey_bound(n, 2)

    def test_greedy_bound_three_colours(self):
        rng = random.Random(3)
        for n in (36, 100, 216):
            G = graph_from(n, 3, lambda u, v: rng.randrange(3))
            clique, colour = ramsey_clique(range(n), G)
            assert len(clique) >= ramsey_bound(n, 3)
            for u, v in itertools.combinations(clique, 2):
                assert G.colour(u, v) == colour

    def test_bound_values(self):
        assert ramsey_bound(16, 2) == 2
        assert ramsey_bound(63, 2) == 2
        assert ramsey_bound(64, 2) == 3
        assert ramsey_bound(1, 2) == 0
        assert ramsey_bound(216, 3) == 3

    def test_bound_of_no_vertices_is_zero(self):
        assert ramsey_bound(0, 2) == ramsey_bound(-5, 3) == 0

    @pytest.mark.parametrize("r", [1, 0, -2])
    def test_bound_refuses_fewer_than_two_colours(self, r):
        # (2r)^k stayed <= n for every k, so the loop never ended
        with pytest.raises(ValueError, match=f"^need r >= 2, got r={r}$"):
            ramsey_bound(10, r)

    def test_bound_refuses_an_infinite_n(self):
        with pytest.raises(ValueError, match="^n must be an integer, got inf$"):
            ramsey_bound(float("inf"), 2)

    def test_bound_reads_numpy_integers(self):
        assert ramsey_bound(np.int64(64), np.uint8(2)) == ramsey_bound(64, 2) == 3

    def test_single_vertex(self):
        clique, colour = ramsey_clique([7], graph_from(8, 2, lambda u, v: RED))
        assert clique == (7,)
        assert colour == 0

    @pytest.mark.parametrize("vertices", [[-1, 0, 1, 2], [0, 1, 9], [True, 2]])
    def test_vertex_outside_the_host_rejected(self, vertices):
        # -1 would otherwise be read as vertex 5, 9 as an IndexError and True as 1
        with pytest.raises(ValueError, match=r"range\(6\)"):
            ramsey_clique(vertices, make_random(6, 2, 0))

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match="repeat"):
            ramsey_clique([0, 1, 1, 2], make_random(6, 2, 0))

    def test_numpy_vertices_past_63_read_as_integers(self):
        # int64 shifts past bit 63 would overflow; a float is no vertex
        G = make_random(100, 2, 0)
        assert ramsey_clique(np.arange(100), G) == ramsey_clique(range(100), G)
        with pytest.raises(ValueError):
            ramsey_clique([0.5, 1], G)

    def test_matches_pair_colouring_reference(self):
        # the bitmask step against the phi-based step it replaced, on whole
        # hosts and on random vertex subsets of every size down to 1
        rng = random.Random(21)
        for r in (2, 3, 4):
            for seed in range(4):
                n = rng.randrange(2, 91)
                G = make_random(n, r, seed)
                sizes = {1, 2, n} | {rng.randrange(1, n + 1) for _ in range(7)}
                for size in sorted(sizes):
                    verts = rng.sample(range(n), size)
                    assert ramsey_clique(verts, G) == ramsey_clique_reference(verts, G.colour, r)

    def test_exact_search_matches_reference(self):
        # the fallback's search, one colour at a time: colour c alone is the
        # reference's colour 0 under the recolouring "c or not c", and the
        # smallest colour with a clique gives the reference's answer
        rng = random.Random(5)
        for r in (2, 3, 4):
            for seed in range(6):
                n = rng.randrange(1, 13)
                G = make_random(n, r, seed)
                verts = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
                mask = sum(1 << v for v in verts)
                for k in range(1, 5):
                    first = None
                    for c in range(r):
                        got = _blowup_search(G, (mask,), (c,), ((0,),), k)
                        only_c = exact_mono_clique_reference(
                            verts, lambda u, v: int(G.colour(u, v) != c), 1, k)
                        assert got == (None if only_c is None else (only_c[0],))
                        if first is None and got is not None:
                            first = got[0], c
                    assert first == exact_mono_clique_reference(verts, G.colour, r, k)

    def test_exact_fallback_fires_on_a_forced_chain(self, monkeypatch):
        # r = 5, n = 1000, so the bound is floor(log_10 1000) = 3.  Each chain
        # vertex is the least live vertex; it gets chain colours 1, 2, 3, 4, 0
        # towards strict-majority buckets of 201, 41, 9, 3 and 1 vertices, its
        # other colours spread evenly, so the greedy ends at the 2-clique
        # (4, 5) and the exact search runs
        n, r = 1000, 5
        rng = np.random.default_rng(0)
        table = np.triu(rng.integers(0, r, size=(n, n), dtype=np.uint8), 1)
        table = table | table.T
        live = list(range(n))
        for colour, size in zip((1, 2, 3, 4, 0), (201, 41, 9, 3, 1)):
            v, rest = live[0], live[1:]
            others = [c for c in range(r) if c != colour]
            for i, u in enumerate(rest):
                table[v, u] = table[u, v] = colour if i < size else others[(i - size) % (r - 1)]
            live = rest[:size]
        G = ColouredCompleteGraph(n, r, table)
        calls = []

        def spy(*args):
            calls.append(args[4])
            return _blowup_search(*args)

        monkeypatch.setattr("localbalance.blowup_finder._blowup_search", spy)
        got = ramsey_clique(range(n), G)
        assert calls == [3]
        assert got == ((0, 202, 214), 0)
        assert got == ramsey_clique_reference(range(n), G.colour, r)


def cover_contract_holds(Hg, cover, G):
    """The three covering conditions, checked directly."""
    # (a) G's colouring constant on each set
    for S in cover.sets:
        for u, v in itertools.combinations(S, 2):
            if G.colour(u, v) != G.colour(S[0], S[1]):
                return False
    # (b) every cross pair lies in a hypergraph edge
    pair_sets = set()
    for e in Hg.edges():
        for u, v in itertools.combinations(e, 2):
            pair_sets.add((min(u, v), max(u, v)))
    for i in range(len(cover.sets)):
        for j in range(i + 1, len(cover.sets)):
            for u in cover.sets[i]:
                for v in cover.sets[j]:
                    if (min(u, v), max(u, v)) not in pair_sets:
                        return False
    # (c) an explicit matching of |S1| disjoint edges of Hg on the union
    if len(cover.matching) != len(cover.sets[0]):
        return False
    union = set().union(*map(set, cover.sets))
    seen = set()
    all_edges = set(Hg.edges())
    for e in cover.matching:
        if e not in all_edges or set(e) & seen or not set(e) <= union:
            return False
        seen.update(e)
    return True


class TestHypergraphCover:
    def test_base_case_all_singletons_mono(self):
        Hg = CanonicalHypergraph.from_edges([(0, 1, 2, 3)], [(v,) for v in range(4)])
        cover = hypergraph_cover(Hg, graph_from(4, 2, lambda u, v: RED))
        assert cover.sets == ((0, 1, 2, 3),)
        assert cover.colours == (RED,)
        assert len(cover.matching) == 4

    def test_planted_product_recovers_parts(self):
        t = 3
        pat = get_pattern("C4")
        G = blow_up(pat, t)
        parts = [tuple(range(i * t, (i + 1) * t)) for i in range(4)]
        Hg = CanonicalHypergraph.from_edges(parts, canonical_copies_oracle(G, pat, parts))
        cover = hypergraph_cover(Hg, G)
        assert cover.sets == tuple(parts)
        assert cover_contract_holds(Hg, cover, G)

    def test_single_edge(self):
        parts = [(0, 1), (2, 3), (4, 5)]
        Hg = CanonicalHypergraph.from_edges(parts, [(1, 2, 5)])
        cover = hypergraph_cover(Hg, graph_from(6, 2, lambda u, v: RED))
        assert cover.sets == ((1,), (2,), (5,))
        assert cover.matching == ((1, 2, 5),)

    def test_contract_on_random_hypergraphs(self):
        rng = random.Random(10)
        for _ in range(25):
            l = rng.randrange(1, 5)
            part_size = rng.randrange(2, 6)
            Hg = random_hypergraph(rng, l, part_size, 0.5)
            if Hg.is_empty:
                continue
            G = graph_from(l * part_size, 2, lambda u, v: rng.randrange(2))
            cover = hypergraph_cover(Hg, G)
            assert cover.min_size >= 1
            assert cover_contract_holds(Hg, cover, G)

    def test_empty_rejected(self):
        Hg = CanonicalHypergraph.from_edges([(0, 1)], [])
        with pytest.raises(ValueError):
            hypergraph_cover(Hg, graph_from(2, 2, lambda u, v: RED))

    def test_parts_outside_the_host_rejected(self):
        # from_edges cannot know the host's n
        Hg = CanonicalHypergraph.from_edges([(0, 1), (2, 7)], [(0, 2), (1, 7)])
        with pytest.raises(ValueError, match=r"range\(6\)"):
            hypergraph_cover(Hg, make_random(6, 2, 0))


# find_homogeneous_blowup(...).to_dict() pinned per case, apart from the float
# paperTargetT: (pattern, host, seed, retries, target_t) -> result.  Any change
# to the partition draw, the copy DFS, cleanup, the shadow recursion, the star
# or the Ramsey step moves them.
FINDER_GOLDEN = {
    ("C4", "random64", 0, 4, 2): {
        "attempts": 4, "canonicalCopies": 1200, "metTarget": False, "mode": "base+exact+exact+exact",
        "partColours": [0, 0, 0, 0], "parts": [[7], [1], [21], [32]], "t": 1},
    ("C4", "random64", 1, 4, 2): {
        "attempts": 4, "canonicalCopies": 1055, "metTarget": False, "mode": "base+exact+exact+exact",
        "partColours": [0, 0, 0, 0], "parts": [[3], [49], [34], [24]], "t": 1},
    ("C4", "random64", 2, 4, 2): {
        "attempts": 4, "canonicalCopies": 1073, "metTarget": True, "mode": "base+exact+exact+exact",
        "partColours": [0, 0, 0, 0], "parts": [[9, 19], [26, 38], [47, 55], [16, 40]], "t": 2},
    ("P3o", "random64", 0, 4, 2): {
        "attempts": 4, "canonicalCopies": 914, "metTarget": False, "mode": "base+exact+exact+exact",
        "partColours": [0, 0, 0, 1], "parts": [[5], [44], [34], [26]], "t": 1},
    ("P3o", "random64", 1, 4, 2): {
        "attempts": 4, "canonicalCopies": 928, "metTarget": False, "mode": "base+exact+exact+exact",
        "partColours": [0, 0, 0, 1], "parts": [[2], [15], [14], [7]], "t": 1},
    ("P3o", "random64", 2, 4, 2): {
        "attempts": 4, "canonicalCopies": 931, "metTarget": False, "mode": "base+exact+exact+exact",
        "partColours": [0, 0, 0, 0], "parts": [[22], [44], [28], [13]], "t": 1},
    ("P3o", "pk8", 2, 128, 2): {
        "attempts": 13, "canonicalCopies": 112, "metTarget": True, "mode": "base+exact+exact+exact",
        "partColours": [0, 1, 1, 0], "parts": [[0, 1], [9, 11], [16, 19], [24, 30]], "t": 2},
}


class TestFindHomogeneousBlowup:
    @pytest.mark.parametrize("case", sorted(FINDER_GOLDEN))
    def test_golden_results(self, case):
        name, host, seed, retries, target_t = case
        G = make_random(64, 2, seed) if host == "random64" else make_Pk(8)
        res = find_homogeneous_blowup(
            G, get_pattern(name), seed=seed, retries=retries, target_t=target_t
        ).to_dict()
        paper_t = 2.478887488460345e-07 if host == "random64" else 2.0657395737169543e-07
        assert res.pop("paperTargetT") == pytest.approx(paper_t, rel=1e-12)
        assert res == FINDER_GOLDEN[case]

    def test_planted_p3o_has_copies_every_seed(self):
        pat = get_pattern("P3o")
        G = blow_up(pat, 5)
        for seed in range(5):
            res = find_homogeneous_blowup(G, pat, seed=seed, target_t=1)
            assert res.canonical_copies >= 1 and res.met_target

    def test_planted_hosts_reach_two(self):
        for name in ("C4", "P3o"):
            pat = get_pattern(name)
            G = blow_up(pat, 6)
            res = find_homogeneous_blowup(G, pat, seed=0, target_t=2)
            assert res.achieved_t >= 2
            assert res.witness is not None
            assert verify_witness(G, res.witness)

    def test_mono_host_no_copies(self):
        mono = graph_from(10, 2, lambda u, v: RED)
        res = find_homogeneous_blowup(mono, get_pattern("P3o"), seed=0, retries=4)
        assert res.achieved_t == 0
        assert res.witness is None

    def test_pk8_p3o(self):
        G = make_Pk(8)
        res = find_homogeneous_blowup(G, get_pattern("P3o"), seed=2, retries=128, target_t=2)
        assert res.achieved_t >= 2
        assert verify_witness(G, res.witness)

    def test_deterministic_per_seed(self):
        G = make_Pk(4)
        a = find_homogeneous_blowup(G, get_pattern("P3o"), seed=5, retries=16, target_t=2)
        b = find_homogeneous_blowup(G, get_pattern("P3o"), seed=5, retries=16, target_t=2)
        assert a == b

    def test_witnesses_always_verify_on_random_hosts(self):
        for seed in range(6):
            G = make_random(16, 2, seed)
            res = find_homogeneous_blowup(G, get_pattern("C4"), seed=seed, retries=8)
            if res.witness is not None:
                assert verify_witness(G, res.witness)

    def test_asymptotic_target_reported(self):
        G = make_Pk(4)
        res = find_homogeneous_blowup(G, get_pattern("P3o"), seed=1)
        assert res.asymptotic_target_t >= 0.0

    @pytest.mark.parametrize("l, r", [(2, 1), (0, 2), (2, 0)])
    def test_asymptotic_target_refuses_degenerate_sizes(self, l, r):
        # r = 1 divided by log(1) = 0, and l = 0 by 2l
        with pytest.raises(ValueError, match=f"^need l >= 1 and r >= 2, got l={l}, r={r}$"):
            asymptotic_target_size(10, l, r)

    def test_asymptotic_target_reads_numpy_integers(self):
        got = asymptotic_target_size(np.int64(100), np.int32(4), np.uint8(2))
        assert type(got) is float and got == asymptotic_target_size(100, 4, 2) > 0.0
        assert asymptotic_target_size(1, 4, 2) == asymptotic_target_size(0, 4, 2) == 0.0
