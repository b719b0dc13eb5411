"""Tests for graph construction, distances, and distance-regularity."""

import importlib.util
import sys
from collections import deque
from itertools import combinations, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terwalg import graphs
from terwalg.graphs import (
    DistanceData,
    Graph,
    hypercube,
    is_distance_regular,
    parse_graph_file,
)
from terwalg.hypercube import intersection_table

from dense_views import distance_matrix


def test_package_exports_the_hypercube_constructor():
    import terwalg

    assert terwalg.hypercube is hypercube
    namespace = {}
    exec("from terwalg import *", namespace)
    assert namespace["hypercube"] is hypercube
    assert namespace["hypercube"](3).n == 8
    assert terwalg.hypercube(3).n == 8


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_hypercube_structure():
    g = hypercube(3)
    assert g.n == 8
    assert g.m == 12  # d * 2^(d-1)
    for u in range(g.n):
        assert sorted(g.neighbors[u]) == sorted(u ^ (1 << b) for b in range(3))


def test_hypercube_bounds():
    assert hypercube(0).n == 1
    with pytest.raises(ValueError):
        hypercube(13)
    with pytest.raises(ValueError):
        hypercube(-1)


def test_distances_match_popcount():
    for d in range(0, 7):
        g = hypercube(d)
        dd = DistanceData.compute(g)
        u = np.arange(g.n)
        xor = u[:, None] ^ u[None, :]
        pop = np.array([[bin(v).count("1") for v in row] for row in xor])
        assert (dd.dist == pop).all()
        assert dd.diameter == d


def test_from_edges_validation():
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError, match="loop"):
        Graph.from_edges(2, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="not connected"):
        Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="positive"):
        Graph.from_edges(0, [])


def test_parse_graph_file():
    text = "# triangle\n\n3 3\n0 1\n1 2\n\n2 0\n"
    g = parse_graph_file(text)
    assert g.n == 3 and g.m == 3


def test_parse_graph_file_errors():
    with pytest.raises(ValueError, match="empty graph file"):
        parse_graph_file("# nothing here\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_graph_file("3\n0 1\n")
    with pytest.raises(ValueError, match="expected 2 edge lines"):
        parse_graph_file("3 2\n0 1\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_graph_file("2 1\n0 x\n")


def test_parse_matches_builtin_hypercube():
    g = hypercube(3)
    lines = [f"{g.n} {g.m}"]
    for u in range(g.n):
        for v in g.neighbors[u]:
            if u < v:
                lines.append(f"{u} {v}")
    parsed = parse_graph_file("\n".join(lines))
    assert parsed.neighbors == g.neighbors


def test_distance_matrix_entries():
    g = hypercube(2)
    dd = DistanceData.compute(g)
    a1 = distance_matrix(g, dd, 1)
    assert a1[0, 1] == 1 and a1[0, 3] == 0
    assert distance_matrix(g, dd, 5).is_zero()


def test_is_distance_regular_hypercube():
    for d in range(0, 9):
        g = hypercube(d)
        dd = DistanceData.compute(g)
        ok, table = is_distance_regular(g, dd)
        assert ok
        assert table.shape == (d + 1,) * 3
        assert (table == intersection_table(d)).all(), d
        assert not table.flags.writeable


def test_is_distance_regular_cycle():
    g = cycle(6)
    dd = DistanceData.compute(g)
    ok, table = is_distance_regular(g, dd)
    assert ok
    assert table[1, 1, 2] == 1


def test_path_is_not_distance_regular():
    g = path(4)
    dd = DistanceData.compute(g)
    ok, witness = is_distance_regular(g, dd)
    assert not ok
    h, i, j, pair_a, count_a, pair_b, count_b = witness
    # The degrees p^0_11 are the first count of the array that fails.
    assert (h, i, j) == (0, 1, 1)
    assert count_a != count_b
    bi = (dd.dist == i).astype(int)
    bj = (dd.dist == j).astype(int)
    counts = bi @ bj.T
    assert counts[pair_a] == count_a and counts[pair_b] == count_b


def _all_pairs_distance_regular(dd):
    """Reference: every (h, i, j) from its own product M_i M_j^T.

    Returns:
        (True, table), or (False, None) if some count is not constant.
    """
    diam = dd.diameter
    masks = [dd.dist == h for h in range(diam + 1)]
    table = np.zeros((diam + 1,) * 3, dtype=np.int64)
    for h in range(diam + 1):
        for i in range(diam + 1):
            for j in range(diam + 1):
                counts = masks[i].astype(np.int64) @ masks[j].astype(np.int64).T
                vals = counts[masks[h]]
                if (vals != vals[0]).any():
                    return False, None
                table[h, i, j] = vals[0]
    return True, table


def _assert_witness_holds(dd, witness):
    """Both pairs lie at distance h, and |{w : d(y, w) = 1, d(z, w) = i}|
    is the reported count for each pair, counted over every w, and the
    counts differ."""
    h, one, i, pair_a, count_a, pair_b, count_b = witness
    assert one == 1
    dist = dd.dist
    for (y, z), count in ((pair_a, count_a), (pair_b, count_b)):
        assert dist[y, z] == h
        assert sum(dist[y, w] == 1 and dist[z, w] == i for w in range(len(dist))) == count
    assert count_a != count_b


def circulant(n, jumps):
    edges = {(min(v, (v + s) % n), max(v, (v + s) % n)) for v in range(n) for s in jumps}
    return Graph.from_edges(n, sorted(edges))


def torus(a, b):
    edges = []
    for r, c in product(range(a), range(b)):
        edges.append((r * b + c, r * b + (c + 1) % b))
        edges.append((r * b + c, ((r + 1) % a) * b + c))
    return Graph.from_edges(a * b, edges)


def kneser(v, k):
    subsets = list(combinations(range(v), k))
    edges = [
        (a, b)
        for a, b in combinations(range(len(subsets)), 2)
        if not set(subsets[a]) & set(subsets[b])
    ]
    return Graph.from_edges(len(subsets), edges)


def johnson(v, k):
    verts = list(combinations(range(v), k))
    edges = [
        (a, b)
        for a, b in combinations(range(len(verts)), 2)
        if len(set(verts[a]) & set(verts[b])) == k - 1
    ]
    return Graph.from_edges(len(verts), edges)


def hamming(d, q):
    verts = list(product(range(q), repeat=d))
    edges = [
        (a, b)
        for a, b in combinations(range(len(verts)), 2)
        if sum(s != t for s, t in zip(verts[a], verts[b])) == 1
    ]
    return Graph.from_edges(len(verts), edges)


def test_distance_regularity_matches_all_pairs_oracle():
    # The verdict and table from the counted intersection array must be
    # those of the product M_i M_j^T taken for every (i, j), and a witness
    # must hold when its counts are taken vertex by vertex.
    prism = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )
    house = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])
    graphs = {
        "Q_3": hypercube(3),
        "Q_4": hypercube(4),
        "C_6": cycle(6),
        "C_7": cycle(7),
        "petersen": kneser(5, 2),
        "J(6,3)": johnson(6, 3),
        "H(3,3)": hamming(3, 3),
        "P_4": path(4),
        "P_5": path(5),
        "prism": prism,
        "house": house,
    }
    verdicts = {}
    for name, g in graphs.items():
        dd = DistanceData.compute(g)
        ok, result = is_distance_regular(g, dd)
        want_ok, want = _all_pairs_distance_regular(dd)
        assert ok == want_ok, name
        if ok:
            assert np.array_equal(result, want), name
        else:
            _assert_witness_holds(dd, result)
        verdicts[name] = ok
    failing = [name for name, ok in verdicts.items() if not ok]
    assert failing == ["P_4", "P_5", "prism", "house"]


def test_distance_regularity_matches_intersection_arrays_of_benchmark_families():
    # The families' tables come from their intersection arrays alone.
    for fam in _benchmark_families():
        g = Graph.from_edges(fam.n, fam.edges)
        ok, table = is_distance_regular(g, DistanceData.compute(g))
        assert ok, fam.name
        assert table.tolist() == fam.p_table(), fam.name


def test_non_distance_regular_graph_takes_at_most_d_plus_one_products(monkeypatch):
    # The witness is the first failing count of the array, so the count
    # arrays stop at the one that found it: the i of the witness is the last.
    calls = []
    original = graphs._neighbour_counts

    def counted(table, padded, mask, out, rows):
        calls.append(mask.shape)
        return original(table, padded, mask, out, rows)

    monkeypatch.setattr(graphs, "_neighbour_counts", counted)
    rejected = (
        path(4),
        path(5),
        circulant(10, (2, 5)),
        circulant(12, (1, 5)),
        torus(6, 6),
        torus(5, 7),
    )
    for g in rejected:
        dd = DistanceData.compute(g)
        calls.clear()
        ok, witness = is_distance_regular(g, dd)
        assert not ok
        assert len(calls) <= dd.diameter + 1
        assert len(calls) == witness[2] + 1, witness
        _assert_witness_holds(dd, witness)
    for g in (hypercube(6), kneser(5, 2), johnson(6, 3)):
        dd = DistanceData.compute(g)
        calls.clear()
        assert is_distance_regular(g, dd)[0]
        assert len(calls) == dd.diameter + 1


def test_circulant_witness_pin():
    g = circulant(10, (2, 5))
    ok, witness = is_distance_regular(g, DistanceData.compute(g))
    assert not ok
    assert witness == (2, 1, 1, (0, 3), 2, (0, 4), 1)


def _bfs(neighbors, src):
    """Reference: one single-source BFS with a queue."""
    dist = np.full(len(neighbors), -1, dtype=np.int64)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in neighbors[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _per_source_table(g):
    return np.stack([_bfs(g.neighbors, src) for src in range(g.n)])


def _frontier_distances(neighbors, sources):
    """Reference: the frontier BFS from every source at once.

    Row r holds the distances from sources[r], -1 if unreachable.  The
    frontier is the flat indices r n + v of the pairs first reached at the
    current level; for each neighbour slot s the candidates are the pairs
    (r, table[v, s]), kept when still unreached (a padded slot gives (r, v),
    which is reached).  A pair that two frontier pairs reach in the same
    slot is deduplicated by writing a distinct negative tag per candidate
    and keeping the candidates whose tag survived.
    """
    n = len(neighbors)
    table = graphs._neighbour_table(neighbors).T.copy()  # row s: slot s of every v
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


def _assert_level_sets_match_frontier(neighbors):
    """The distance search against the frontier oracle, from every source
    and from vertex 0 alone, with every level sparse, with the size rule,
    and with every level dense."""
    for sources in (range(len(neighbors)), [0]):
        want = _frontier_distances(neighbors, sources)
        for rule in (0, graphs.SPARSE_LEVEL, 1 << 40):
            with mock.patch.object(graphs, "SPARSE_LEVEL", rule):
                got = graphs._distances(neighbors, sources)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want.T)


def _assert_table_matches_oracle(g):
    dd = DistanceData.compute(g)
    want = _per_source_table(g)
    assert dd.dist.dtype == want.dtype
    assert np.array_equal(dd.dist, want)
    assert dd.diameter == int(want.max())
    assert not dd.dist.flags.writeable
    _assert_level_sets_match_frontier(g.neighbors)


def _per_class_distance_regular(g, dd):
    """Reference: the counted intersection array read class by class.

    For each i, the counts on each class dist = h, h = i-1, i, i+1, are
    compacted and compared with the class's first count; the first class
    that is not constant names the witness.
    """
    diam = dd.diameter
    size = diam + 1
    table = graphs._neighbour_table(g.neighbors)
    deg = np.fromiter(map(len, g.neighbors), dtype=np.intp, count=g.n)
    padded = [np.flatnonzero(deg <= s) for s in range(table.shape[1])]
    counts = np.empty(dd.dist.shape, dtype=np.min_scalar_type(table.shape[1]))
    rows = np.empty(dd.dist.shape, dtype=bool)
    masks = {}  # the distance-h masks for h = i-1, i, i+1 only
    b1 = np.zeros((size, size), dtype=np.int64)
    for i in range(size):
        masks.pop(i - 2, None)
        for h in range(max(i - 1, 0), min(i + 1, diam) + 1):
            if h not in masks:
                masks[h] = dd.dist == h
        graphs._neighbour_counts(table, padded, masks[i], counts, rows)
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
    mats = [np.eye(size, dtype=np.int64), b1]
    for j in range(1, diam):
        step = b1 @ mats[j] - b1[j, j] * mats[j] - b1[j - 1, j] * mats[j - 1]
        mats.append(step // b1[j + 1, j])
    return True, np.stack(mats[:size], axis=1)


def _assert_distance_regularity_matches_oracle(g):
    dd = DistanceData.compute(g)
    ok, result = is_distance_regular(g, dd)
    want_ok, want = _per_class_distance_regular(g, dd)
    assert ok == want_ok
    if ok:
        assert result.dtype == want.dtype
        assert np.array_equal(result, want)
    else:
        assert result == want
    return ok


def _benchmark_families():
    # The distance-regular graphs of the benchmark, built from their
    # combinatorial definitions without terwalg.
    path_ = Path(__file__).resolve().parents[1] / "perfbench" / "families.py"
    spec = importlib.util.spec_from_file_location("_perfbench_families", path_)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up
    spec.loader.exec_module(mod)
    return [
        mod.hypercube_family(7),
        mod.folded_cube_family(4),
        mod.johnson_family(9, 4),
        mod.hamming_family(3, 5),
        mod.hamming_family(4, 3),
        mod.petersen_family(),
    ]


def test_distances_match_per_source_bfs_on_benchmark_families():
    for fam in _benchmark_families():
        g = Graph.from_edges(fam.n, fam.edges)
        _assert_table_matches_oracle(g)
        assert DistanceData.compute(g).diameter == fam.diameter, fam.name


def test_distances_match_per_source_bfs_on_cubes():
    for d in range(0, 9):
        _assert_table_matches_oracle(hypercube(d))


def test_distances_match_per_source_bfs_on_paths_and_cycles():
    for n in (1, 2, 3, 10, 33):
        _assert_table_matches_oracle(path(n))
    for n in (3, 4, 9, 20):
        _assert_table_matches_oracle(cycle(n))


@st.composite
def connected_graphs(draw):
    """A random spanning tree plus random chords, so degrees are uneven."""
    n = draw(st.integers(min_value=1, max_value=40))
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((u, v))
    if n >= 2:
        pairs = st.tuples(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=n - 1),
        )
        for u, v in draw(st.lists(pairs, max_size=3 * n)):
            if u != v:
                edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges))


@settings(max_examples=150, deadline=None)
@given(connected_graphs())
def test_distances_match_per_source_bfs_on_irregular_graphs(g):
    _assert_table_matches_oracle(g)


def _non_distance_regular_circulants_and_tori():
    return [circulant(10, (2, 5)), circulant(12, (1, 5)), torus(6, 6), torus(5, 7)]


def test_distances_match_the_oracles_on_circulants_and_tori():
    for g in _non_distance_regular_circulants_and_tori():
        _assert_table_matches_oracle(g)


def test_distance_regularity_matches_the_per_class_oracle():
    # One whole-table compare per count names the same verdict, table and
    # witness as the class-by-class reading, on every graph of this file.
    # The oracle forms the p-table by dense products, the code by row-scaled
    # shifts of the tridiagonal B_1; C_64 and C_200 take that to diameters
    # 32 and 100.
    prism = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )
    house = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])
    accepted = [hypercube(d) for d in range(0, 9)]
    accepted += [cycle(n) for n in (3, 4, 6, 7, 9, 20, 64, 200)]
    accepted += [path(1), path(2), kneser(5, 2), johnson(6, 3), hamming(3, 3)]
    accepted += [Graph.from_edges(f.n, f.edges) for f in _benchmark_families()]
    rejected = [path(n) for n in (3, 4, 5, 10, 33)] + [prism, house]
    rejected += _non_distance_regular_circulants_and_tori()
    for g in accepted:
        assert _assert_distance_regularity_matches_oracle(g)
    for g in rejected:
        assert not _assert_distance_regularity_matches_oracle(g)


@settings(max_examples=150, deadline=None)
@given(connected_graphs())
def test_distance_regularity_matches_the_per_class_oracle_on_irregular_graphs(g):
    _assert_distance_regularity_matches_oracle(g)


def _level_kinds(monkeypatch, g):
    """The kind of each level step of the all-pairs search on g, in order."""
    kinds = []
    step, counts = graphs._frontier_step, graphs._neighbour_counts
    monkeypatch.setattr(graphs, "_frontier_step", lambda *a: kinds.append("sparse") or step(*a))
    monkeypatch.setattr(graphs, "_neighbour_counts", lambda *a: kinds.append("dense") or counts(*a))
    graphs._distances(g.neighbors, range(g.n))
    return kinds


def test_long_paths_take_only_sparse_levels(monkeypatch):
    # A path's levels hold at most 2 pairs per source, so a whole-table
    # level would cost O(n^2) for O(n) pairs: none is taken.
    assert _level_kinds(monkeypatch, path(256)) == ["sparse"] * 256


def test_cube_levels_are_dense_where_they_are_large(monkeypatch):
    # Q_8 holds 256 C(8, l) pairs at level l, so levels 1..7 reach n^2 / 32.
    assert _level_kinds(monkeypatch, hypercube(8)) == ["sparse"] + ["dense"] * 7 + ["sparse"]


def test_level_sets_on_a_disconnected_graph():
    # Vertices 1, 3 and 5 lie outside 0's component, and 5 is isolated.
    edges = [(0, 2), (2, 4), (1, 3)]
    neighbors = ((2,), (3,), (0, 4), (1,), (2,), ())
    _assert_level_sets_match_frontier(neighbors)
    assert graphs._distances(neighbors, [0])[:, 0].tolist() == [0, -1, 1, -1, 2, -1]
    assert graphs._distances(neighbors, range(6))[1].tolist() == [-1, 0, -1, 1, -1, -1]
    with pytest.raises(ValueError, match="vertex 1 unreachable from 0"):
        Graph.from_edges(6, edges)


def test_disconnected_graph_names_first_unreachable_vertex():
    with pytest.raises(ValueError, match="vertex 3 unreachable"):
        Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    with pytest.raises(ValueError, match="vertex 1 unreachable"):
        Graph.from_edges(2, [])
