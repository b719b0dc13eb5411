"""Tests for graph construction, distances, and distance-regularity."""

from itertools import combinations

import numpy as np
import pytest

from terwalg.graphs import (
    DistanceData,
    Graph,
    distance_matrix,
    hypercube,
    is_distance_regular,
    parse_graph_file,
)
from terwalg.hypercube import intersection_table


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
    g = hypercube(3)
    dd = DistanceData.compute(g)
    ok, table = is_distance_regular(g, dd)
    assert ok
    assert (table == intersection_table(3)).all()


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
    # Lexicographically first failing triple, with differing counts.
    assert (h, i, j) == (0, 1, 1)
    assert count_a != count_b
    bi = (dd.dist == i).astype(int)
    bj = (dd.dist == j).astype(int)
    counts = bi @ bj.T
    assert counts[pair_a] == count_a and counts[pair_b] == count_b


def _all_pairs_distance_regular(dd):
    """Reference: every (h, i, j) from its own product M_i M_j^T."""
    diam = dd.diameter
    masks = [dd.dist == h for h in range(diam + 1)]
    table = np.zeros((diam + 1,) * 3, dtype=np.int64)
    for h in range(diam + 1):
        pairs = np.argwhere(masks[h])
        for i in range(diam + 1):
            for j in range(diam + 1):
                counts = masks[i].astype(np.int64) @ masks[j].astype(np.int64).T
                vals = counts[masks[h]]
                bad = np.flatnonzero(vals != vals[0])
                if bad.size:
                    k = int(bad[0])
                    return False, (
                        h, i, j, tuple(int(t) for t in pairs[0]), int(vals[0]),
                        tuple(int(t) for t in pairs[k]), int(vals[k]),
                    )
                table[h, i, j] = vals[0]
    return True, table


def kneser(v, k):
    subsets = list(combinations(range(v), k))
    edges = [
        (a, b)
        for a, b in combinations(range(len(subsets)), 2)
        if not set(subsets[a]) & set(subsets[b])
    ]
    return Graph.from_edges(len(subsets), edges)


def test_distance_regularity_matches_all_pairs_oracle():
    # Only i <= j is multiplied; the table and the witness must be those of
    # the product taken for every (i, j).
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
            assert result == want, name
        verdicts[name] = ok
    failing = [name for name, ok in verdicts.items() if not ok]
    assert failing == ["P_4", "P_5", "prism", "house"]
