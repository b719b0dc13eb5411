"""Simple undirected graphs, BFS distances, and distance-regularity oracles.

Vertices are 0..n-1.  Hypercube vertices are bitmasks: bit b set means
coordinate b is -1, and two vertices are adjacent iff their xor is a power of
two.  Distances are always realized by breadth-first search, run from all
sources at once, so the closed formulas elsewhere can be checked against an
independent oracle.

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
        seen = _distances(g.neighbors, [0])[0]
        if -1 in seen:
            missing = int(np.argmax(seen == -1))
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

    Row r of the result holds the distances from sources[r].  The BFS runs
    level by level for all sources together.  The frontier is the flat
    indices r n + v of the pairs (r, v) first reached at the current level,
    so a level costs O(frontier size · k), whatever the diameter, and all
    levels together cost O(len(sources) · n · k).  For each neighbour slot
    s the candidates are the pairs (r, table[v, s]), kept when still
    unreached; a padded slot gives (r, v), which is reached, so it is
    always dropped.  A pair two frontier pairs reach in the same slot is
    deduplicated by writing a distinct negative tag per candidate and
    keeping the candidates whose tag survived.
    """
    n = len(neighbors)
    table = _neighbour_table(neighbors).T.copy()  # row s: slot s of every v
    dist = np.full(len(sources) * n, -1, dtype=np.int64)
    rows = np.arange(len(sources), dtype=np.intp)
    frontier = rows * n + np.asarray(sources, dtype=np.intp)
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        v = frontier % n
        found = [frontier[:0]]  # a vertex of degree 0 has no slot
        for slot in table:
            cand = frontier + (slot[v] - v)
            cand = cand[dist[cand] < 0]
            tag = -2 - np.arange(cand.size)
            dist[cand] = tag
            cand = cand[dist[cand] == tag]
            dist[cand] = level
            found.append(cand)
        frontier = np.concatenate(found)
    return dist.reshape(len(sources), n)


@dataclass(frozen=True)
class DistanceData:
    """All-pairs BFS distances plus the diameter."""

    dist: np.ndarray
    diameter: int

    @classmethod
    def compute(cls, g: Graph) -> "DistanceData":
        table = _distances(g.neighbors, range(g.n))
        table.flags.writeable = False
        return cls(table, int(table.max()))


def _neighbour_counts(table, padded, mask, out, rows) -> None:
    """out[y, z] = |{w ~ y : mask[w, z]}|, one gathered mask row per slot.

    padded[s] lists the vertices whose slot s is padding; rows is an
    n x n boolean buffer.
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
    there is 0 by the triangle inequality.  Then p^h_ij = (B_i)[h, j], where
    B_1 is the tridiagonal intersection matrix and
    A A_j = b_(j-1) A_(j-1) + a_j A_j + c_(j+1) A_(j+1) gives
    B_(j+1) = (B_1 B_j - a_j B_j - b_(j-1) B_(j-1)) / c_(j+1).

    Returns:
        (True, table) with table[h][i][j] the intersection numbers, or
        (False, witness) where witness = (h, 1, i, pair_a, count_a, pair_b,
        count_b) for the first count p^h_1i found not constant, with i
        ascending and then h = i-1, i, i+1: pair_a is the first pair (row
        by row) at distance h, and pair_b the first whose count differs.
    """
    diam = dd.diameter
    size = diam + 1
    table = _neighbour_table(g.neighbors)
    deg = np.fromiter(map(len, g.neighbors), dtype=np.intp, count=g.n)
    # A slot past a vertex's degree holds the vertex itself: masked out.
    padded = [np.flatnonzero(deg <= s) for s in range(table.shape[1])]
    counts = np.empty(dd.dist.shape, dtype=np.min_scalar_type(table.shape[1]))
    rows = np.empty(dd.dist.shape, dtype=bool)
    masks = {}  # the distance-h masks for h = i-1, i, i+1 only
    b1 = np.zeros((size, size), dtype=np.int64)  # b1[h, i] = p^h_1i
    for i in range(size):
        masks.pop(i - 2, None)
        for h in range(max(i - 1, 0), min(i + 1, diam) + 1):
            if h not in masks:
                masks[h] = dd.dist == h
        _neighbour_counts(table, padded, masks[i], counts, rows)
        for h in range(max(i - 1, 0), min(i + 1, diam) + 1):
            vals = counts[masks[h]]
            bad = np.flatnonzero(vals != vals[0])
            if bad.size:
                pairs = np.argwhere(masks[h])
                k = int(bad[0])
                return False, (
                    h, 1, i, tuple(int(t) for t in pairs[0]), int(vals[0]),
                    tuple(int(t) for t in pairs[k]), int(vals[k]),
                )
            b1[h, i] = vals[0]
    # Every p^h_ij is at most n <= MAX_VERTICES, so int64 holds k n exactly.
    mats = [np.eye(size, dtype=np.int64), b1]
    for j in range(1, diam):
        step = b1 @ mats[j] - b1[j, j] * mats[j] - b1[j - 1, j] * mats[j - 1]
        mats.append(step // b1[j + 1, j])
    table = np.stack(mats[:size], axis=1)
    table.flags.writeable = False
    return True, table
