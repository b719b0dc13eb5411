"""Simple undirected graphs, BFS distances, and distance-regularity oracles.

Vertices are 0..n-1.  Hypercube vertices are bitmasks: bit b set means
coordinate b is -1, and two vertices are adjacent iff their xor is a power of
two.  Distances are always realized by breadth-first search, so the closed
formulas elsewhere can be checked against an independent oracle.  The search
runs from all sources at once, level by level: the pairs at distance l + 1
are the unreached pairs with a neighbour at distance l.  A large level is
taken on whole tables, with the same neighbour gather that counts the
intersection array, and a small one pair by pair (see _distances).

The intersection numbers counted here, from the intersection array the
graph itself shows, are the ground truth that the closed-form hypercube
parameters are tested against.  A graph that is not distance-regular is
named by the first count p^h_1i of that array that is not constant, with i
ascending and then h = i-1, i, i+1, and two pairs at distance h whose
counts differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

MAX_VERTICES = 1 << 12  # all-pairs distance table is the memory bound

# A level of the distance search with fewer than n S / SPARSE_LEVEL pairs is
# taken pair by pair, a larger one on whole tables (see _distances).  All
# pairs of Q_10, in-process with numpy 2.4 (best of 2): every level pair by
# pair 187 ms, every level on whole tables 57 ms, this rule 46 ms (R = 8:
# 93 ms, R = 64: 46 ms).  The 4096-vertex path takes about 1 s pair by pair
# and 125 s on whole tables.
SPARSE_LEVEL = 32


class Graph:
    """Immutable connected simple graph with sorted adjacency lists."""

    __slots__ = ("n", "neighbors")

    def __init__(self, n: int, neighbors: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "neighbors", neighbors)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def m(self) -> int:
        return sum(len(nb) for nb in self.neighbors) // 2

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Validated construction: simple, loop-free, connected.

        Raises:
            ValueError: on any malformed edge or a disconnected graph.
        """
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        if n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} exceeds cap {MAX_VERTICES}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u}, {v})")
            adj[u].add(v)
            adj[v].add(u)
        g = cls(n, tuple(tuple(sorted(s)) for s in adj))
        reach = _distances(g.neighbors, [0])[:, 0]
        if -1 in reach:
            missing = int(np.argmax(reach == -1))
            raise ValueError(f"graph is not connected: vertex {missing} unreachable from 0")
        return g


def hypercube(d: int) -> Graph:
    """The d-dimensional hypercube on bitmask vertices 0..2^d - 1."""
    if not 0 <= d <= 12:
        raise ValueError(f"hypercube dimension must be in 0..12, got {d}")
    n = 1 << d
    edges = [
        (v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)
    ]
    return Graph.from_edges(n, edges)


def parse_graph_file(text: str) -> Graph:
    """Parse the plain edge-list format.

    First meaningful line is "n m", then m lines "u v" with 0-based vertex
    ids.  Anything after '#' on a line is a comment; blank lines are skipped.

    Raises:
        ValueError: with a precise message on any malformed input.
    """
    tokens: list[list[str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        tokens.append([str(lineno)] + body.split())
    if not tokens:
        raise ValueError("empty graph file")
    header = tokens[0]
    if len(header) != 3:
        raise ValueError(f"line {header[0]}: expected 'n m' header")
    try:
        n, m = int(header[1]), int(header[2])
    except ValueError:
        raise ValueError(f"line {header[0]}: expected integer 'n m' header") from None
    body_lines = tokens[1:]
    if len(body_lines) != m:
        raise ValueError(f"expected {m} edge lines, found {len(body_lines)}")
    edges = []
    for item in body_lines:
        if len(item) != 3:
            raise ValueError(f"line {item[0]}: expected 'u v' edge")
        try:
            u, v = int(item[1]), int(item[2])
        except ValueError:
            raise ValueError(f"line {item[0]}: expected integer 'u v' edge") from None
        edges.append((u, v))
    return Graph.from_edges(n, edges)


def _neighbour_table(neighbors: Sequence[Sequence[int]]) -> np.ndarray:
    """n x k table whose row v lists v's neighbours, k the largest degree.

    A row with fewer than k neighbours is padded with v itself.
    """
    n = len(neighbors)
    deg = np.fromiter(map(len, neighbors), dtype=np.intp, count=n)
    k = int(deg.max())
    table = np.repeat(np.arange(n, dtype=np.intp), k).reshape(n, k)
    flat = chain.from_iterable(neighbors)
    table[np.arange(k) < deg[:, None]] = np.fromiter(flat, dtype=np.intp)
    return table


def _distances(
    neighbors: Sequence[Sequence[int]], sources: Sequence[int]
) -> np.ndarray:
    """Breadth-first distances from every source at once; -1 if unreachable.

    Column r of the n x S result (S = len(sources)) holds the distances
    from sources[r], so the all-pairs table, which is symmetric, is read
    either way.  The search runs level by level for all sources together,
    and F_l[v, r] = [dist(sources[r], v) = l] is the level set.  A vertex is
    at distance l + 1 from a source exactly when it is still unreached and
    has a neighbour at distance l.  A level is taken in one of two ways,
    chosen by the size of F_l:

    - dense, on whole n x S boolean tables:

          F_(l+1) = [counts != 0] & ~seen,   counts[y, r] = |{w ~ y : F_l[w, r]}|,

      with counts the _neighbour_counts gather of F_l and seen the union of
      F_0, ..., F_l.  A padded slot of y holds y itself and adds F_l[y, r],
      which is set only where seen[y, r] is, so ~seen clears whatever it
      adds and no slot is masked.  A level costs k whole-table gathers (k
      the largest degree), O(k n S) whatever the size of F_l.
    - sparse, on the flat indices of the pairs in F_l (_frontier_step),
      O(k |F_l|) with a per-pair cost about SPARSE_LEVEL times that of a
      table entry.

    Dense is taken when SPARSE_LEVEL |F_l| >= n S, so a level costs about
    the cheaper of the two.  The levels partition the n S pairs, so at
    most SPARSE_LEVEL levels are dense; the sparse levels together cost
    O(k n S), and a long diameter (a path, a long cycle) costs no more than
    the sparse search alone.
    """
    n = len(neighbors)
    table = _neighbour_table(neighbors)
    width = len(sources)
    dist = np.full((n, width), -1, dtype=np.int64)
    flat = dist.reshape(-1)  # pair (v, r) at v S + r
    front = np.zeros(dist.shape, dtype=bool)
    seen = np.zeros(dist.shape, dtype=bool)
    counts = np.empty(dist.shape, dtype=np.min_scalar_type(table.shape[1]))
    rows = np.empty(dist.shape, dtype=bool)
    unpadded = [np.empty(0, dtype=np.intp)] * table.shape[1]
    pairs = np.asarray(sources, dtype=np.intp) * width + np.arange(width)
    flat[pairs] = 0
    size = width
    level = 0
    while size:
        level += 1
        if SPARSE_LEVEL * size < dist.size:
            if pairs is None:
                pairs = np.flatnonzero(front)
            pairs = _frontier_step(table, flat, pairs, level, width)
            size = pairs.size
            continue
        if pairs is not None:
            front.fill(False)
            front.reshape(-1)[pairs] = True
            np.greater_equal(dist, 0, out=seen)
            pairs = None
        _neighbour_counts(table, unpadded, front, counts, rows)
        np.not_equal(counts, 0, out=front)
        np.greater(front, seen, out=front)  # front & ~seen
        size = np.count_nonzero(front)
        np.copyto(dist, level, where=front)
        seen |= front
    return dist


def _frontier_step(table, flat, pairs, level, width) -> np.ndarray:
    """Mark and return the pairs at distance level, from those at level - 1.

    pairs holds the flat indices v S + r of the pairs (v, r) at distance
    level - 1 (S = width), and flat is the flattened distance table.  For
    each neighbour slot s the candidates are the pairs (table[v, s], r),
    kept when still unreached; a padded slot gives (v, r), which is reached,
    so it is always dropped.  A pair two frontier pairs reach in the same
    slot is deduplicated by writing a distinct negative tag per candidate
    and keeping the candidates whose tag survived.
    """
    v = pairs // width
    found = [pairs[:0]]  # a vertex of degree 0 has no slot
    for slot in table.T:
        cand = pairs + (slot[v] - v) * width
        cand = cand[flat[cand] < 0]
        tag = -2 - np.arange(cand.size)
        flat[cand] = tag
        cand = cand[flat[cand] == tag]
        flat[cand] = level
        found.append(cand)
    return np.concatenate(found)


@dataclass(frozen=True)
class DistanceData:
    """All-pairs BFS distances plus the diameter."""

    dist: np.ndarray
    diameter: int

    @classmethod
    def compute(cls, g: Graph) -> "DistanceData":
        # Column r holds the distances from r; the table is symmetric, so
        # row r holds them too.
        table = _distances(g.neighbors, range(g.n))
        table.flags.writeable = False
        return cls(table, int(table.max()))


def _neighbour_counts(table, padded, mask, out, rows) -> None:
    """out[y, z] = |{w ~ y : mask[w, z]}|, one gathered mask row per slot.

    padded[s] lists the vertices whose slot s is padding; rows is a
    boolean buffer of mask's shape.
    """
    out.fill(0)
    for s, skip in enumerate(padded):
        # Every index is in range; mode="clip" spares the buffered copy
        # np.take makes for out= under mode="raise".
        np.take(mask, table[:, s], axis=0, out=rows, mode="clip")
        rows[skip] = False
        out += rows


def is_distance_regular(g: Graph, dd: DistanceData):
    """Distance-regularity from the counted intersection array.

    counts[y, z] = |{w ~ y : dist(w, z) = i}| is the sum, over the neighbour
    slots s of y, of row table[y, s] of the boolean mask dist == i, so the
    counts for one i are k gathered mask rows added into a small-int array
    (a count is at most the largest degree k).  The graph is
    distance-regular exactly when, on every class dist(y, z) = h, the counts
    for i = h-1, h, h+1 are constants c_h, a_h, b_h (Brouwer, Cohen and
    Neumaier, Distance-Regular Graphs, 1989, section 4.1); every other count
    there is 0 by the triangle inequality.  So for each i the counts are
    compared once, as a whole table, with ref[dist], where ref[h] is the
    count at the first pair of class h for h = i-1, i, i+1 and 0 for every
    other h: the tables are equal exactly when every class is constant.
    The first pair (row by row) of class h lies in the first row whose
    largest entry is at least h, since a row reaching h passes through it.
    Then p^h_ij = (B_i)[h, j], where B_1 is the tridiagonal intersection
    matrix and A A_j = b_(j-1) A_(j-1) + a_j A_j + c_(j+1) A_(j+1) gives
    B_(j+1) = (B_1 B_j - a_j B_j - b_(j-1) B_(j-1)) / c_(j+1).

    Returns:
        (True, table) with table[h][i][j] the intersection numbers, or
        (False, witness) where witness = (h, 1, i, pair_a, count_a, pair_b,
        count_b) for the first count p^h_1i found not constant, with i
        ascending and then h = i-1, i, i+1: pair_a is the first pair (row
        by row) at distance h, and pair_b the first whose count differs.
        The differing pairs all lie in those three classes, so h is the
        least class of a differing pair.
    """
    dist = dd.dist
    diam = dd.diameter
    size = diam + 1
    table = _neighbour_table(g.neighbors)
    deg = np.fromiter(map(len, g.neighbors), dtype=np.intp, count=g.n)
    # A slot past a vertex's degree holds the vertex itself: masked out.
    padded = [np.flatnonzero(deg <= s) for s in range(table.shape[1])]
    counts = np.empty(dist.shape, dtype=np.min_scalar_type(table.shape[1]))
    mask = np.empty(dist.shape, dtype=bool)
    rows = np.empty(dist.shape, dtype=bool)
    ecc = dist.max(axis=1)
    first = []  # first[h]: the first pair at distance h, found when needed
    b1 = np.zeros((size, size), dtype=np.int64)  # b1[h, i] = p^h_1i
    for i in range(size):
        for h in range(len(first), min(i + 1, diam) + 1):
            y = int(np.argmax(ecc >= h))
            first.append((y, int(np.argmax(dist[y] == h))))
        np.equal(dist, i, out=mask)
        _neighbour_counts(table, padded, mask, counts, rows)
        window = slice(max(i - 1, 0), min(i + 1, diam) + 1)
        ref = np.zeros(size, dtype=counts.dtype)
        ref[window] = [counts[p] for p in first[window]]
        np.not_equal(counts, ref[dist], out=rows)
        if rows.any():
            h = int(dist[rows].min())
            np.equal(dist, h, out=mask)
            mask &= rows
            y, z = divmod(int(np.argmax(mask)), g.n)  # row by row
            return False, (h, 1, i, first[h], int(ref[h]), (y, z), int(counts[y, z]))
        b1[window, i] = ref[window]
    # Every p^h_ij is at most n <= MAX_VERTICES, so int64 holds k n exactly.
    # B_1 is tridiagonal, so B_1 B_j is three row-scaled shifts of B_j: the
    # whole table costs O(d^3), not d dense (d+1)^2 products.
    lower, mid, upper = (b1.diagonal(s)[:, None] for s in (-1, 0, 1))
    mats = [np.eye(size, dtype=np.int64), b1]
    for j in range(1, diam):
        step = (mid - b1[j, j]) * mats[j] - b1[j - 1, j] * mats[j - 1]
        step[1:] += lower * mats[j][:-1]
        step[:-1] += upper * mats[j][1:]
        mats.append(step // b1[j + 1, j])
    table = np.stack(mats[:size], axis=1)
    table.flags.writeable = False
    return True, table
