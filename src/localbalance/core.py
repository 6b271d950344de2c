"""Edge-coloured complete graphs and balancedness measures.

Vertices are the integers 0..n-1 and colours the integers 0..r-1
(red = 0, blue = 1, green = 2 by convention).  The colour table is dense
and symmetric, one row-major byte buffer; per-colour neighbourhoods are
also int bitmasks, which the searches AND and balance_profile popcounts
(census codegrees come from BLAS); all vertex-set bit packing is here.
Hosts given as row-major pair colours (random, split, compact JSON) are
built by from_pair_colours; degrees and class sizes come from balance_profile.

All epsilon thresholds are compared in exact rational arithmetic: the
constructions of interest sit exactly on boundaries like 1/4, where float
comparison would be wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import ceil, comb
from typing import Iterable, Iterator, NoReturn, Sequence

import numpy as np

Rational = Fraction | int | str | float


class GraphFormatError(ValueError):
    """A serialized graph or pattern failed validation."""


def _as_fraction(x: Rational) -> Fraction:
    """Exact conversion; strings like "1/4" and "0.25" are parsed exactly.

    A float is read as the decimal it prints as, so 0.3 becomes 3/10, not
    the binary fraction just below it; NaN and infinities raise ValueError.
    """
    if isinstance(x, float):
        return Fraction(repr(float(x)))
    return Fraction(x)


def _edge_triple(e: object, n: int, r: int) -> tuple[int, int, int]:
    """One [u, v, c] edge entry, rejecting malformed entries, fields that
    are not ints (floats, strings and bools included), self-loops and
    out-of-range vertices or colours."""
    if not isinstance(e, (list, tuple)) or len(e) != 3:
        raise GraphFormatError(f"edge entry {e!r} is not a [u, v, c] triple")
    u, v, c = e
    if type(u) is not int or type(v) is not int or type(c) is not int:
        raise GraphFormatError(f"edge entry {e!r} has a non-integer field")
    if u == v:
        raise GraphFormatError(f"self-loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise GraphFormatError(f"vertex out of range in edge ({u},{v})")
    if not 0 <= c < r:
        raise GraphFormatError(f"colour {c} out of range in edge ({u},{v})")
    return u, v, c


def _valid_triples(edges: Sequence[object]) -> np.ndarray | None:
    """The entries as an (m, 3) int64 array when each is a list or tuple of
    three ints (bools excluded) that fit in int64; else None.  The checks
    run at C speed: map and set over the entries and fields, then one
    np.fromiter, whose OverflowError marks a field past int64."""
    if not all(map(isinstance, edges, repeat((list, tuple)))) or set(map(len, edges)) - {3}:
        return None
    if set(map(type, chain.from_iterable(edges))) - {int}:
        return None
    try:
        flat = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=3 * len(edges))
    except OverflowError:
        return None
    return flat.reshape(-1, 3)


def _edge_table(triples: np.ndarray, n: int, r: int) -> np.ndarray | None:
    """The n x n colour table of an (m, 3) integer array of [u, v, c] rows
    when n and r are valid and the rows name each of the C(n, 2) pairs
    u != v in range(n) once, with a colour in range(r); else None.  The
    count is checked before the table is allocated, and repeated pairs by
    scattering the colours into it: C(n, 2) in-range pairs were written,
    so an unset pair means a duplicate."""
    if not (n >= 1 and 2 <= r <= 255 and len(triples) == comb(n, 2)):
        return None
    u, v, c = triples.T
    if ((u == v) | (u < 0) | (v < 0) | (c < 0) | (u >= n) | (v >= n) | (c >= r)).any():
        return None
    unset = 0xFF  # never a colour, since r <= 255
    table = np.full((n, n), unset, dtype=np.uint8)
    table[u, v] = c
    table[v, u] = c
    np.fill_diagonal(table, 0)
    return None if table.max() == unset else table


def _raise_edge_list_error(edges: Sequence[object], n: int, r: int) -> NoReturn:
    """The error path of from_edges: raise the error of the first bad entry
    in list order (malformed, out of range, or a pair already listed), else
    the wrong entry count, else the bad n or r."""
    seen = set()
    for e in edges:
        u, v, _ = _edge_triple(e, n, r)
        pair = (u, v) if u < v else (v, u)
        if pair in seen:
            raise GraphFormatError(f"duplicate edge ({u},{v})")
        seen.add(pair)
    if n >= 1 and len(edges) != comb(n, 2):
        raise GraphFormatError(f"expected {comb(n, 2)} edges, got {len(edges)}")
    _check_size(n, r)
    raise AssertionError("the bulk edge-list checks rejected a valid list")


# the largest host a constructor builds: n vertices, and r * n^2 bits in the
# per-colour neighbourhood masks, sized by the declared r
MAX_HOST_N = 4096
MAX_MASK_BITS = 2**30


def _check_size(n: object, r: object) -> tuple[int, int]:
    """The one host-size rule, the constructor's first step: n and r as Python
    ints (_integer), with n >= 1, 2 <= r <= 255 and n, r * n^2 within the limits above."""
    n, r = _integer(n, "n"), _integer(r, "r")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 2 <= r <= 255:
        raise ValueError(f"need 2 <= r <= 255, got r={r}")
    if n > MAX_HOST_N or r * n * n > MAX_MASK_BITS:
        raise ValueError(f"host too large: n={n}, r={r} "
                         f"(limits: n <= {MAX_HOST_N}, r*n^2 <= {MAX_MASK_BITS})")
    return n, r


def _integer(x: object, name: str, limit: int | None = None) -> int:
    """The one integer rule: the argument x, a Python or numpy integer but not a
    bool, as a Python int (1 << np.int64(70) overflows).  With a limit, x must
    lie in range(limit), and name is the kind of number ("vertex", "colour")."""
    integer = isinstance(x, (int, np.integer)) and not isinstance(x, bool)
    if limit is None and not integer:
        raise ValueError(f"{name} must be an integer, got {x!r}")
    if limit is not None and not (integer and 0 <= x < limit):
        raise ValueError(f"{name} {x!r} is not an integer in range({limit})")
    return int(x)


# ---------------------------------------------------------------------------
# Host vertex sets: every public function that takes a vertex set reads it here
# ---------------------------------------------------------------------------

def _row_bytes(rows: list) -> list[bytes]:
    """The rows as bytes.  bytes() reads the common case at C speed; only
    when it fails, or a list or tuple row holds a bool, are the entries read
    one by one: then an integer diagonal entry of any value reads as 0 (the
    diagonal is stored as 0), and a bool anywhere, or an off-diagonal entry
    that is not a byte, raises a ValueError naming it as a colour at its edge."""
    try:
        if not any(isinstance(row, (list, tuple)) and bool in map(type, row) for row in rows):
            return [bytes(row) for row in rows]
    except (TypeError, ValueError):
        pass
    out = []
    for u, row in enumerate(rows):
        if isinstance(row, (list, tuple)):
            for v, c in enumerate(row):
                if isinstance(c, bool) or not isinstance(c, (int, np.integer)) or (
                        v != u and not 0 <= c < 256):
                    raise ValueError(f"colour {c!r} out of range at edge ({u},{v})")
            row = [0 if v == u else c for v, c in enumerate(row)]
        out.append(bytes(row))
    return out


def _vertex_set(verts: Iterable[object], limit: int) -> tuple[int, ...]:
    """verts as a sorted tuple of distinct vertex numbers below limit;
    ValueError for a non-iterable input, a bad vertex or a repeat.  Python
    ints, the common case, are range-checked after the sort, at the ends."""
    try:
        out = sorted(v if type(v) is int else _integer(v, "vertex", limit) for v in verts)
    except TypeError:
        raise ValueError(f"{verts!r} is not a collection of vertices") from None
    for v in out[:1] + out[-1:]:  # sorted Python ints: the ends bound the rest
        _integer(v, "vertex", limit)
    if len(set(out)) != len(out):
        v = next(a for a, b in zip(out, out[1:]) if a == b)
        raise ValueError(f"vertex {v} repeats; vertices must be distinct and parts disjoint")
    return tuple(out)


def _checked_parts(parts: Iterable[Iterable[object]], limit: int) -> tuple[tuple[int, ...], ...]:
    """parts as nonempty, disjoint vertex sets below limit."""
    try:
        out = tuple(_vertex_set(p, limit) for p in parts)
    except TypeError:
        raise ValueError(f"{parts!r} is not a collection of vertex sets") from None
    if not all(out):
        raise ValueError("empty part")
    _vertex_set(chain.from_iterable(out), limit)
    return out


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pack(bits: np.ndarray) -> np.ndarray:
    """Boolean rows as uint64 words: bit k of a row's words is its column k."""
    rows, width = bits.shape
    words = np.zeros((rows, -(-width // 64)), dtype=np.uint64)
    words.view(np.uint8)[:, :-(-width // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return words


def _unpack(masks: np.ndarray, width: int) -> np.ndarray:
    """The first width bits of each row of uint64 words, as 0/1 uint8."""
    return np.unpackbits(masks.view(np.uint8), axis=-1, count=width, bitorder="little")


def _row_masks(words: np.ndarray) -> tuple[int, ...]:
    """Rows of uint64 words as Python int masks: bit k of a mask is column k."""
    data, w = words.tobytes(), 8 * words.shape[1]
    return tuple(int.from_bytes(data[i:i + w], "little") for i in range(0, len(data), w))


class ColouredCompleteGraph:
    """An n-vertex complete graph with an r-colouring of its edges.

    Immutable after construction and safe to share across threads; every
    operation on it in this package is a pure function.
    """

    __slots__ = ("n", "r", "_table", "_bits")

    def __init__(self, n: int, r: int, rows: Sequence[Sequence[int]] | np.ndarray):
        """Build from n rows of n colours each: bytes-like rows, lists or
        tuples of integers (not bools), or an n x n numpy array of any
        integer dtype, read by value.  The table must be symmetric with
        colours below r off the diagonal; the diagonal is stored as 0,
        whatever integer either form held there."""
        n, r = _check_size(n, r)
        if isinstance(rows, np.ndarray):
            if rows.dtype.kind not in "iu":
                raise ValueError(f"colour table must have an integer dtype, got {rows.dtype}")
            table = rows.copy()
        else:
            data = _row_bytes(list(rows))
            if any(len(row) != n for row in data):
                raise ValueError("colour table must be n x n")
            table = np.frombuffer(b"".join(data), dtype=np.uint8).reshape(-1, n).copy()
        if table.shape != (n, n):
            raise ValueError("colour table must be n x n")
        np.fill_diagonal(table, 0)
        # symmetric, so its first entry in row-major order is the first bad pair u < v;
        # a wider table is range-checked before its cast, so that 256 is not read as 0
        bad = (table >= r) | (table != table.T)
        if table.dtype.kind == "i":
            bad |= table < 0
        if bad.any():
            u, v = divmod(int(bad.argmax()), n)
            c = table[u, v]
            if not 0 <= c < r:
                raise ValueError(f"colour {c} out of range at edge ({u},{v})")
            raise ValueError(f"colour table not symmetric at ({u},{v})")
        del bad  # freed before the masks are packed, to bound the peak
        table = table.astype(np.uint8, copy=False)
        self.n = n
        self.r = r
        self._table = table.tobytes()
        np.fill_diagonal(table, r)  # no colour: no vertex is in its own masks
        self._bits = tuple(_row_masks(_pack(table == c)) for c in range(r))

    @classmethod
    def from_edges(cls, n: int, r: int, edges: Iterable[Sequence[int]]) -> "ColouredCompleteGraph":
        """Build from an explicit [u, v, c] list covering all C(n,2) pairs.

        Rejects a non-integer n or r first (_integer), then malformed
        entries, self-loops, out-of-range vertices or colours, duplicate
        pairs and missing pairs, naming the first bad entry in list order,
        and last a host that fails the size rule.  A valid list is checked
        in bulk: the entry and field types at C speed, then the values as
        one integer array (_edge_table).  An (m, 3) integer array, as the
        host file reader gives, goes to _edge_table as it is.  Only a bad
        list is scanned entry by entry, to name its first error.
        """
        n, r = _integer(n, "n"), _integer(r, "r")
        array = (isinstance(edges, np.ndarray) and edges.dtype.kind in "iu"
                 and edges.shape[1:] == (3,))
        if not array and not isinstance(edges, (list, tuple)):
            edges = list(edges)
        triples = edges if array else _valid_triples(edges)
        table = None if triples is None else _edge_table(triples, n, r)
        if table is None:
            _raise_edge_list_error(edges.tolist() if array else edges, n, r)
        return cls(n, r, table)

    @classmethod
    def from_pair_colours(cls, n: int, r: int, colours: np.ndarray) -> "ColouredCompleteGraph":
        """The graph whose pairs u < v, in row-major order, take ``colours``;
        n and r pass the size rule, and there are C(n, 2) colours, before
        the table is allocated."""
        n, r = _check_size(n, r)
        if len(colours) != comb(n, 2):
            raise ValueError(f"expected {comb(n, 2)} pair colours, got {len(colours)}")
        table = np.zeros((n, n), dtype=np.uint8)
        upper = np.tri(n, dtype=bool)
        np.logical_not(upper, out=upper)
        table[upper] = colours  # boolean masks fill in row-major order
        table.T[upper] = colours
        del upper  # freed before the constructor's checks, to bound the peak
        return cls(n, r, table)

    def colour(self, u: int, v: int) -> int:
        """The colour of the edge u v; ValueError unless u and v are two
        distinct vertices (_integer)."""
        n = self.n
        if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
            u, v = _integer(u, "vertex", n), _integer(v, "vertex", n)
        if u == v:
            raise ValueError("no self-loops in a complete graph")
        return self._table[u * n + v]

    def table(self) -> np.ndarray:
        """The n x n colour table as a read-only uint8 view, diagonal 0."""
        return np.frombuffer(self._table, dtype=np.uint8).reshape(self.n, self.n)

    def colour_bits(self, c: int) -> tuple[int, ...]:
        """Per-vertex neighbourhood bitmasks of colour class c; ValueError
        unless c is a colour (_integer)."""
        return self._bits[_integer(c, "colour", self.r)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColouredCompleteGraph):
            return NotImplemented
        return self.n == other.n and self.r == other.r and self._table == other._table

    def __hash__(self) -> int:
        return hash((self.n, self.r, self._table))

    def __repr__(self) -> str:
        return f"ColouredCompleteGraph(n={self.n}, r={self.r})"


@dataclass(frozen=True)
class BalanceProfile:
    """Per-vertex per-colour degrees plus the derived balance numbers.

    epsilon_local is the largest eps for which the graph is locally
    eps-balanced; epsilon_global the analogue for colour-class sizes.
    Both are exact rationals.
    """

    degrees: tuple[tuple[int, ...], ...]  # degrees[v][c]
    min_degree_per_colour: int
    epsilon_local: Fraction
    epsilon_global: Fraction


def balance_profile(G: ColouredCompleteGraph) -> BalanceProfile:
    """Exact balance profile of G from one popcount per (vertex, colour)."""
    n = G.n
    per_colour = [[mask.bit_count() for mask in G.colour_bits(c)] for c in range(G.r)]
    min_deg = min(map(min, per_colour))
    eps_local = Fraction(min_deg, n)
    if n < 2:
        eps_global = Fraction(0)
    else:
        eps_global = Fraction(min(map(sum, per_colour)) // 2, comb(n, 2))
    return BalanceProfile(tuple(zip(*per_colour)), min_deg, eps_local, eps_global)


def least_balanced_degree(eps: Rational, n: int) -> int:
    """ceil(eps * n): the least per-colour degree a locally eps-balanced
    n-vertex colouring allows, since degrees are integers."""
    eps = _as_fraction(eps)
    if not 0 <= eps <= 1:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    return ceil(eps * n)


def is_locally_balanced(G: ColouredCompleteGraph, eps: Rational) -> bool:
    """True iff every (vertex, colour) degree is >= eps * n, exactly."""
    need = least_balanced_degree(eps, G.n)
    return balance_profile(G).min_degree_per_colour >= need


def colour_swap(G: ColouredCompleteGraph) -> ColouredCompleteGraph:
    """The same graph with the two colours interchanged (r = 2 only)."""
    if G.r != 2:
        raise ValueError(f"colour_swap needs a 2-colouring, got r={G.r}")
    return ColouredCompleteGraph(G.n, 2, 1 - G.table())


# ---------------------------------------------------------------------------
# JSON formats
#
# Full:    {"n": int, "r": int, "edges": [[u, v, c], ...]} with every pair
#          listed exactly once.
# Compact: {"n": int, "r": int, "rows": [digits of colour(u, v) for v > u]}
#          (requires r <= 10).
#
# graph_from_json validates either format as a dict.  A host file's bytes
# go through _read_graph_json first: a plain "edges" array of integer
# triples comes back as one (m, 3) int64 array, parsed without building a
# Python list per edge, and anything else as json.loads reads it.
# ---------------------------------------------------------------------------

def _plain_edge_array(text: str, start: int) -> tuple[np.ndarray, int] | None:
    """The JSON array at text[start] as an (m, 3) int64 array, with the
    index just past it, when it is a plain array of [u, v, c] triples of
    non-negative decimal integers of at most 18 digits (so they fit int64);
    else None.

    Such an array holds only digits, "[", "]", "," and JSON whitespace, so
    it ends before the first '"' or '}'.  Without whitespace and digits it
    is "[" + ",".join(["[,,]"] * m) + "]", and it holds 3m digit runs, one
    in each of the three slots of each entry, that whitespace does not
    split and that have no leading zeros (RFC 8259)."""
    if not text.startswith("[", start):
        return None
    stop = len(text)
    for ch in '"}':
        found = text.find(ch, start, stop)
        stop = stop if found < 0 else found
    try:
        chunk = text[start:stop].encode("ascii")
    except UnicodeEncodeError:
        return None
    solid = chunk.translate(None, b" \t\n\r")
    skeleton = solid.translate(None, b"0123456789")
    m = 0 if skeleton[1:2] == b"]" else (skeleton.find(b"]]") + 1) // 5
    want = b"[" + (b",[,,]" * m)[1:] + b"]"
    # after the array only whitespace and commas, which the caller's walk checks
    if not skeleton.startswith(want) or skeleton[len(want):].strip(b","):
        return None
    del skeleton, want
    digit = (np.frombuffer(chunk, dtype=np.uint8) - ord("0")) < 10
    if np.count_nonzero(digit[1:] > digit[:-1]) != 3 * m:  # the runs; chunk[0] is "["
        return None
    end = start + len(chunk.rstrip(b" \t\n\r,"))
    del chunk, digit  # the per-byte arrays go before the per-run ones, to bound the peak
    if len(solid) >= 2**31:  # positions in solid are int32 below
        return None
    # without whitespace each run ends at a mark, and 3m runs there mean that
    # whitespace split none
    solid = np.frombuffer(solid, dtype=np.uint8)
    digit = (solid - ord("0")) < 10
    closes = digit[:-1] > digit[1:]
    del digit
    ends = np.flatnonzero(closes).astype(np.int32)
    del closes
    ends += 1
    if len(ends) != 3 * m:
        return None
    values = np.zeros(3 * m, dtype=np.int64)
    lengths = np.zeros(3 * m, dtype=np.uint8)
    alive = np.ones(3 * m, dtype=bool)
    for j in range(19):  # Horner from each run's end, while the run lasts
        ends -= 1  # walks back one digit a step, and is restored below
        d = solid[ends] - ord("0")
        alive &= d < 10
        if not alive.any():
            break
        # the digits times 10**j in the least signed type that holds 9 * 10**j,
        # not an int64 temporary (an unsigned one would make the sum float64)
        values += d * alive * np.min_scalar_type(-9 * 10**j).type(10**j)
        lengths += alive
    else:
        return None  # a run of 19 digits
    ends += j + 1 - lengths  # each run's first digit: no leading zero
    if ((solid[ends] == ord("0")) & (lengths > 1)).any():
        return None
    ends += lengths
    del solid, alive
    # run r must close slot r % 3 of entry r // 3: mark 2 + 5 (r // 3) + r % 3
    # of solid, which has the digits of runs 0..r before it
    digits = lengths.astype(np.int32)
    marks = ends.reshape(m, 3)
    marks -= np.cumsum(digits, out=digits).reshape(m, 3)
    marks -= 5 * np.arange(m, dtype=np.int32)[:, None]
    if not (marks == (2, 3, 4)).all():
        return None
    return values.reshape(m, 3), end


def _graph_object(text: str) -> dict | None:
    """The JSON object that is the whole of text, walked member by member
    as json does (keys by scanstring, values by raw_decode, JSON
    whitespace between tokens, the last of a repeated key winning), but
    with a plain "edges" array read by _plain_edge_array; None where the
    walk does not get through, or ValueError from json's parts."""
    skip = json.decoder.WHITESPACE.match
    value_at = json.JSONDecoder().raw_decode
    i = skip(text, 0).end()
    if not text.startswith("{", i):
        return None
    data = {}
    sep = ","
    while sep == ",":
        i = skip(text, i + 1).end()
        if not text.startswith('"', i):
            return None
        key, i = json.decoder.scanstring(text, i + 1)
        i = skip(text, i).end()
        if not text.startswith(":", i):
            return None
        i = skip(text, i + 1).end()
        plain = _plain_edge_array(text, i) if key == "edges" else None
        data[key], i = plain or value_at(text, i)
        i = skip(text, i).end()
        sep = text[i:i + 1]
    if sep != "}" or skip(text, i + 1).end() != len(text):
        return None
    return data


def _read_graph_json(raw: bytes) -> dict:
    """The graph JSON document in raw, decoded as json.loads decodes bytes
    (UTF-8, -16 or -32; a UTF-8 BOM is dropped).  A plain "edges" array
    comes back as an (m, 3) int64 array, without a Python list per edge;
    every other value, and every document the object walk does not get
    through, is what json.loads(raw) returns, and every error is the one
    it raises."""
    try:
        data = _graph_object(raw.decode(json.detect_encoding(raw), "surrogatepass"))
    except (ValueError, RecursionError):  # UnicodeDecodeError and JSONDecodeError included
        data = None
    return json.loads(raw) if data is None else data


def graph_to_json(G: ColouredCompleteGraph, compact: bool = False) -> dict:
    n = G.n
    if compact:
        if G.r > 10:
            raise GraphFormatError("compact format supports at most 10 colours")
        digits = (G.table() + ord("0")).tobytes()  # the colour digit of each pair
        rows = [digits[u * n + u + 1:(u + 1) * n].decode("ascii") for u in range(n)]
        return {"n": n, "r": G.r, "rows": rows}
    us, vs = np.triu_indices(n, 1)  # the pairs u < v in row-major order
    edges = np.stack((us, vs, G.table()[us, vs]), axis=1).tolist()
    return {"n": n, "r": G.r, "edges": edges}


def graph_from_json(data: dict) -> ColouredCompleteGraph:
    try:
        n, r = data["n"], data["r"]
    except (KeyError, TypeError) as exc:
        raise GraphFormatError(f"missing n/r field: {exc}") from exc
    if type(n) is not int or type(r) is not int:
        raise GraphFormatError(f"n and r must be integers, got n={n!r}, r={r!r}")
    if n < 1:
        raise GraphFormatError(f"need n >= 1, got {n}")
    if "rows" in data:
        rows = data["rows"]
        if not isinstance(rows, list) or not all(isinstance(row, str) for row in rows):
            raise GraphFormatError("'rows' must be a list of digit strings")
        if len(rows) != n:
            raise GraphFormatError(f"expected {n} rows, got {len(rows)}")
        for u, row in enumerate(rows):
            if len(row) != n - u - 1:
                raise GraphFormatError(f"row {u} has length {len(row)}, expected {n - u - 1}")
            if row and not (row.isascii() and row.isdigit()):
                ch = next(ch for ch in row if ch not in "0123456789")
                raise GraphFormatError(f"bad colour digit {ch!r} in row {u}")
        # the rows, joined, are the pair colours in row-major order
        colours = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8) - ord("0")
        if (colours >= r).any():
            k, u = int((colours >= r).argmax()), 0  # the first bad pair, the k-th of row u
            while k >= len(rows[u]):
                k -= len(rows[u])
                u += 1
            raise GraphFormatError(f"colour {rows[u][k]} out of range in edge ({u},{u + 1 + k})")
        return ColouredCompleteGraph.from_pair_colours(n, r, colours)
    if "edges" in data:
        edges = data["edges"]  # a list, or the (m, 3) array _read_graph_json gives
        if not isinstance(edges, (list, np.ndarray)):
            raise GraphFormatError("'edges' must be a list of [u, v, c] triples")
        return ColouredCompleteGraph.from_edges(n, r, edges)
    raise GraphFormatError("graph JSON needs an 'edges' or 'rows' field")
