"""Simple undirected graphs, BFS distances, and distance-regularity oracles.

Vertices are 0..n-1.  Hypercube vertices are bitmasks: bit b set means
coordinate b is -1, and two vertices are adjacent iff their xor is a power of
two.  Distances are realized by breadth-first search over the graph's own
edges, so the closed formulas elsewhere can be checked against an
independent oracle: a search from every vertex, or from vertex 0 alone when
the translation certificate below holds.

The translation certificate (_translations).  Let n = 2^d and S = N(0), and
suppose N(y) = {y xor s : s in S} for every vertex y.  Then the translation
t_g: y -> y xor g maps N(y) onto y xor g xor S = N(y xor g), so every t_g is
an automorphism, and dist(y, z) = dist(t_y(y), t_y(z)) = dist(0, y xor z)
= w[y xor z] with w = dist(0, .).  The two consequences used here follow:

- the distance array is one search from vertex 0, w, written as
  dist[y, z] = w[y xor z] (DistanceData.compute);
- the count |{u ~ y : dist(u, z) = i}| = |{s in S : w[y xor z xor s] = i}|
  depends on y xor z only, so the intersection array is counted on row 0
  alone (is_distance_regular).

The certificate is checked on the neighbour lists, in O(n k), and not
assumed from the labels: the bitmask cube (S the unit vectors) and the
bitmask folded cube pass it, and a relabelled cube fails it.  A graph that
fails it takes the all-pairs search, which runs from all sources at once,
level by level: the pairs at distance l + 1 are the unreached pairs with a
neighbour at distance l.  A large level is taken on whole tables, with the
same neighbour gather that counts the intersection array, and a small one
pair by pair (see _distances).

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

from ._intops import narrow

MAX_VERTICES = 1 << 12  # all-pairs distance table is the memory bound

# is_distance_regular refuses a diameter d whose (d+1)^3 p-table has more
# entries than this, before it allocates anything.  The table is int64 and
# is built beside the list of d+1 matrices it stacks, so 2^25 entries cost
# up to about 0.5 GB; the 512-cycle (d = 256, 257^3 entries) is admitted and
# the 1024-cycle (513^3) is not.
MAX_P_TABLE = 1 << 25

# The translation path copies, and checks, the distance array this many
# entries at a time (_translation_blocks): a comparison's boolean temporary
# is one block, 64 KB.
TRANSLATION_BLOCK = 1 << 16

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
    def from_edges(cls, n: int, edges: np.ndarray | Iterable[tuple[int, int]]) -> "Graph":
        """Validated construction: simple, loop-free, connected.

        edges is an m x 2 integer array or an iterable of pairs.  They are
        validated as whole arrays: the first offending edge, in the given
        order, is named, and for it a vertex out of range comes before a
        loop and a loop before a duplicate (an edge equal, as a set, to an
        earlier one).  The sorted adjacency is one argsort of the arcs.

        Raises:
            ValueError: on any malformed edge or a disconnected graph.
        """
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        if n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} exceeds cap {MAX_VERTICES}")
        # A Python int past int64 makes the array object, which the checks
        # below read as well.
        edges = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        edges = edges.reshape(-1, 2) if edges.size else np.empty((0, 2), dtype=np.int64)
        u, v = edges[:, 0], edges[:, 1]
        out = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        loop = u == v
        # An edge is a duplicate when an earlier one has its key; a stable
        # sort puts the earliest first among equal keys.
        key = np.minimum(u, v) * n + np.maximum(u, v)
        order = np.argsort(key, kind="stable")
        dup = np.zeros(len(key), dtype=bool)
        dup[order[1:]] = key[order[1:]] == key[order[:-1]]
        bad = np.flatnonzero(out | loop | dup)
        if bad.size:
            i = bad[0]
            a, b = int(u[i]), int(v[i])
            if out[i]:
                raise ValueError(f"edge ({a}, {b}) out of range for {n} vertices")
            if loop[i]:
                raise ValueError(f"loop at vertex {a}")
            raise ValueError(f"duplicate edge ({a}, {b})")
        src = np.concatenate((u, v)).astype(np.intp)
        dst = np.concatenate((v, u)).astype(np.intp)
        dst = dst[np.argsort(src * n + dst, kind="stable")]
        deg = np.bincount(src, minlength=n)
        ends = np.cumsum(deg)
        # Connectivity: a breadth-first frontier from vertex 0 over the
        # sorted arcs, each level gathered at once.  A vertex reached twice
        # in a level joins the next frontier once: of its copies, the one
        # whose write to claim stood.
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        claim = np.empty(n, dtype=np.intp)
        front = np.zeros(1, dtype=np.intp)
        while front.size:
            counts = deg[front]
            first = np.repeat(ends[front] - counts - (np.cumsum(counts) - counts), counts)
            reached = dst[first + np.arange(first.size)]
            fresh = reached[~seen[reached]]
            order = np.arange(fresh.size)
            claim[fresh] = order
            front = fresh[claim[fresh] == order]
            seen[front] = True
        if not seen.all():
            missing = int(np.argmin(seen))
            raise ValueError(f"graph is not connected: vertex {missing} unreachable from 0")
        dst, ends = dst.tolist(), ends.tolist()
        return cls(n, tuple(tuple(dst[a:b]) for a, b in zip([0] + ends, ends)))


def hypercube(d: int) -> Graph:
    """The d-dimensional hypercube on bitmask vertices 0..2^d - 1."""
    top = MAX_VERTICES.bit_length() - 1  # the largest d with 2^d <= MAX_VERTICES
    if not 0 <= d <= top:
        raise ValueError(f"hypercube dimension must be in 0..{top}, got {d}")
    n = 1 << d
    u = np.repeat(np.arange(n), d)
    v = u ^ np.tile(1 << np.arange(d), n)
    keep = u < v
    return Graph.from_edges(n, np.stack((u[keep], v[keep]), axis=1))


def _edge_line_error(lines: list[str]) -> ValueError:
    """The error for the first malformed edge line of a file's lines, comments
    removed: one that is not two tokens, or whose tokens are not integers."""
    numbered = [(i, t) for i, t in enumerate(map(str.split, lines), start=1) if t]
    for lineno, tokens in numbered[1:]:
        if len(tokens) != 2:
            return ValueError(f"line {lineno}: expected 'u v' edge")
        try:
            int(tokens[0]), int(tokens[1])
        except ValueError:
            return ValueError(f"line {lineno}: expected integer 'u v' edge")
    raise AssertionError("no malformed edge line")


def parse_graph_file(text: str) -> Graph:
    """Parse the plain edge-list format.

    First meaningful line is "n m", then m lines "u v" with 0-based vertex
    ids.  Anything after '#' on a line is a comment; blank lines are skipped.
    The text is tokenized once and the edge tokens are converted together;
    only a malformed file is walked line by line, to name its first bad
    line (_edge_line_error).

    Raises:
        ValueError: with a precise message on any malformed input.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    tokens = list(filter(None, map(str.split, lines)))  # the nonblank lines
    if not tokens:
        raise ValueError("empty graph file")
    header = tokens[0]
    lineno = next(i for i, line in enumerate(lines, start=1) if line.split())
    if len(header) != 2:
        raise ValueError(f"line {lineno}: expected 'n m' header")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"line {lineno}: expected integer 'n m' header") from None
    if len(tokens) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(tokens) - 1}")
    values = None
    if all(len(t) == 2 for t in tokens[1:]):
        try:
            values = list(map(int, chain.from_iterable(tokens[1:])))
        except ValueError:
            pass
    if values is None:
        raise _edge_line_error(lines)
    return Graph.from_edges(n, np.array(values).reshape(m, 2))


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


def _translations(g: Graph) -> np.ndarray | None:
    """S = N(0) when every translation y -> y xor g is an automorphism of g,
    else None (the certificate of the module docstring).

    It holds when n is a power of two, so that y xor g is a vertex, and
    every vertex's sorted neighbour row is sort(y xor S).  A vertex of
    degree less than k = |S| would have its row padded with itself
    (_neighbour_table), and y is never in y xor S, as 0 is not in S; one of
    degree more than k widens the table past the shape of sort(y xor S).
    So one whole-table comparison decides it, in O(n k).
    """
    n = g.n
    if n & (n - 1):
        return None
    s = np.array(g.neighbors[0], dtype=np.intp)
    want = np.sort(np.arange(n)[:, None] ^ s, axis=1)
    table = _neighbour_table(g.neighbors)
    return s if np.array_equal(table, want) else None


def _translation_blocks(dist: np.ndarray):
    """Pairs (upper, lower) of equal-shaped views that tile the rows of the
    n x n array dist past row 0, n = 2^d.

    For m = 1, 2, ..., n/2, upper runs over rows y + m and lower over rows
    y, for y < m, with lower's column z read at z xor m (the middle axis of
    (rows, n / 2m, 2, m) reversed), each TRANSLATION_BLOCK entries at most.
    Row y + m equals row y at z xor m for every such y exactly when
    dist[y, z] = dist[0, y xor z] on all of dist, by induction on m: given
    rows below m, dist[y + m, z] = dist[y, z xor m] = dist[0, y xor m xor z].
    """
    n = len(dist)
    step = max(1, TRANSLATION_BLOCK // n)
    m = 1
    while m < n:
        shape = (-1, n // (2 * m), 2, m)
        for lo in range(0, m, step):
            hi = min(m, lo + step)
            upper = dist[m + lo : m + hi].reshape(shape)
            yield upper, dist[lo:hi].reshape(shape)[:, :, ::-1]
        m *= 2


@dataclass(frozen=True)
class DistanceData:
    """All-pairs distances plus the diameter.

    When g passes the translation certificate (_translations), one search
    from vertex 0 gives w, and dist[y, z] = w[y xor z] is written block by
    block of rows (_translation_blocks), with no table wider than dist.
    Otherwise every source is searched at once (_distances).

    dist is held narrow, in the narrowest signed dtype that holds the
    diameter (_intops.narrow): int8, or int16 past diameter 127 (a graph
    has at most MAX_VERTICES vertices).  The search itself fills an int64
    table, whose negative tags need the width (_frontier_step), and the
    table is narrowed once it is done.  dist is read by indexing and
    comparison, which are exact on any dtype; a consumer that does
    arithmetic on it widens first (subconstituent.count_triples).
    """

    dist: np.ndarray
    diameter: int

    @classmethod
    def compute(cls, g: Graph) -> "DistanceData":
        if _translations(g) is None:
            # Column r holds the distances from r; the table is symmetric,
            # so row r holds them too.
            table = _distances(g.neighbors, range(g.n))
            diameter = int(table.max())
            table = narrow(table, diameter)
        else:
            w = _distances(g.neighbors, [0])[:, 0]
            diameter = int(w.max())
            w = narrow(w, diameter)
            table = np.empty((g.n, g.n), dtype=w.dtype)
            table[0] = w
            for upper, lower in _translation_blocks(table):
                upper[...] = lower
        table.flags.writeable = False
        return cls(table, diameter)


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

    The graph is distance-regular exactly when, on every class
    dist(y, z) = h, the counts |{u ~ y : dist(u, z) = i}| for i = h-1, h,
    h+1 are constants c_h, a_h, b_h (Brouwer, Cohen and Neumaier,
    Distance-Regular Graphs, 1989, section 4.1); every other count there
    is 0 by the triangle inequality, so it needs no check.  The counts are
    taken on one of two sets of rows y (_count_b1):

    - Row 0 alone, when g passes the translation certificate
      (_translations) and dd.dist is checked, not assumed, to be a function
      of y xor z: each block of rows must equal row 0 read at y xor z
      (_translation_blocks).  Then the count at (y, z) is
      c(y xor z, i) = |{s in S : dist[0, y xor z xor s] = i}| (module
      docstring), so a count is constant on a class exactly when it is on
      the class's part of row 0, and the first pair row by row with a
      given count lies in row 0, which holds every value of y xor z.  The
      verdict and the witness are those of all the rows.
    - All n rows otherwise.  counts[y, z] is the sum, over the neighbour
      slots s of y, of row table[y, s] of the boolean mask dist == i, so
      the counts for one i are k gathered mask rows added into a small-int
      array (a count is at most the largest degree k).

    Then p^h_ij = (B_i)[h, j], where B_1 is the tridiagonal intersection
    matrix (_p_table).

    Raises:
        ValueError: if the p-table of dd.diameter would hold more than
            MAX_P_TABLE entries; this is checked before any count.

    Returns:
        (True, table) with table[h][i][j] the intersection numbers, or
        (False, witness) where witness = (h, 1, i, pair_a, count_a, pair_b,
        count_b) for the first count p^h_1i found not constant, with i
        ascending and then h = i-1, i, i+1: pair_a is the first pair (row
        by row) at distance h, and pair_b the first whose count differs.
        The classes are tried in ascending order, so h is the least class
        of a differing pair.
    """
    dist = dd.dist
    diam = dd.diameter
    size = diam + 1
    if size**3 > MAX_P_TABLE:
        raise ValueError(
            f"diameter {diam} needs a p-table of {size}^3 = {size**3} entries, "
            f"past the cap of {MAX_P_TABLE}"
        )
    s = _translations(g)
    if s is not None and all(
        np.array_equal(upper, lower) for upper, lower in _translation_blocks(dist)
    ):
        # near[z, j] = dist[0, z xor s_j] = dist(s_j, z), the distance to z
        # from vertex 0's neighbour s_j: a count at (0, z) is one compare
        # and one row sum.
        near = dist[0][np.arange(g.n)[:, None] ^ s]
        rows = dist[:1]

        def count(i, mask, buffer):
            return np.count_nonzero(near == i, axis=1)[None]

    else:
        table = _neighbour_table(g.neighbors)
        deg = np.fromiter(map(len, g.neighbors), dtype=np.intp, count=g.n)
        # A slot past a vertex's degree holds the vertex itself: masked out.
        padded = [np.flatnonzero(deg <= slot) for slot in range(table.shape[1])]
        counts = np.empty(dist.shape, dtype=np.min_scalar_type(table.shape[1]))
        rows = dist

        def count(i, mask, buffer):
            np.equal(dist, i, out=mask)
            _neighbour_counts(table, padded, mask, counts, buffer)
            return counts

    found = _count_b1(rows, diam, count)
    if isinstance(found, tuple):
        return False, found
    return True, _p_table(found)


def _count_b1(rows: np.ndarray, diam: int, count):
    """b1[h, i] = p^h_1i counted on the rows y of the distance array that
    rows holds (all of them, or row 0 alone), or the witness of
    is_distance_regular.

    count(i, mask, buffer) returns counts[y, z] = |{u ~ y : dist(u, z) = i}|
    over those rows; mask and buffer are boolean arrays of rows' shape that
    it may overwrite.  For each i and each class h = i-1, i, i+1 the counts
    on the class are compared at once with the count at its first pair,
    through the boolean mask rows == h: a whole-table compare on the narrow
    dist and the small-int counts, with no gather through dist.  The first
    pair (row by row) of class h lies in the first row whose largest entry
    is at least h, since a row reaching h passes through it.
    """
    size = diam + 1
    mask = np.empty(rows.shape, dtype=bool)
    buffer = np.empty(rows.shape, dtype=bool)
    ecc = rows.max(axis=1)
    first = []  # first[h]: the first pair at distance h, found when needed
    b1 = np.zeros((size, size), dtype=np.int64)  # b1[h, i] = p^h_1i
    for i in range(size):
        for h in range(len(first), min(i + 1, diam) + 1):
            y = int(np.argmax(ecc >= h))
            first.append((y, int(np.argmax(rows[y] == h))))
        counts = count(i, mask, buffer)
        for h in range(max(i - 1, 0), min(i + 1, diam) + 1):
            ref = counts[first[h]]
            np.equal(rows, h, out=mask)
            np.not_equal(counts, ref, out=buffer)
            buffer &= mask
            if buffer.any():
                y, z = divmod(int(np.argmax(buffer)), rows.shape[1])  # row by row
                return (h, 1, i, first[h], int(ref), (y, z), int(counts[y, z]))
            b1[h, i] = ref
    return b1


def _p_table(b1: np.ndarray) -> np.ndarray:
    """The read-only table p^h_ij = (B_i)[h, j] from B_1 = b1.

    A A_j = b_(j-1) A_(j-1) + a_j A_j + c_(j+1) A_(j+1) gives
    B_(j+1) = (B_1 B_j - a_j B_j - b_(j-1) B_(j-1)) / c_(j+1).  Every p^h_ij
    is at most n <= MAX_VERTICES, so int64 holds k n exactly.  B_1 is
    tridiagonal, so B_1 B_j is three row-scaled shifts of B_j: the whole
    table costs O(d^3), not d dense (d+1)^2 products.
    """
    size = len(b1)
    lower, mid, upper = (b1.diagonal(s)[:, None] for s in (-1, 0, 1))
    mats = [np.eye(size, dtype=np.int64), b1]
    for j in range(1, size - 1):
        step = (mid - b1[j, j]) * mats[j] - b1[j - 1, j] * mats[j - 1]
        step[1:] += lower * mats[j][:-1]
        step[:-1] += upper * mats[j][1:]
        mats.append(step // b1[j + 1, j])
    table = np.stack(mats[:size], axis=1)
    table.flags.writeable = False
    return table
