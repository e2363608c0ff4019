import random

import pytest

from conftest import random_hypergraph
from seqext.coloring import (
    EdgeColoring,
    Hypergraph,
    greedy_edge_coloring,
    validate_coloring,
    within_color_budget,
)
from seqext.construct import level_coloring, level_hypergraph


def H(n, k, *edges):
    return Hypergraph(n, k, tuple(frozenset(e) for e in edges))


# All-pairs references for the indexed functions.


def reference_greedy_colors(g, y):
    colors = []
    for i, edge in enumerate(g.edges):
        forbidden = set()
        for k in range(i):
            inter = len(edge & g.edges[k])
            if inter > y:
                raise ValueError(
                    f"edges {sorted(g.edges[k])} and {sorted(edge)} intersect "
                    f"in {inter} > {y} vertices"
                )
            if inter == y:
                forbidden.add(colors[k])
        c = 1
        while c in forbidden:
            c += 1
        colors.append(c)
    return tuple(colors)


def reference_validate(g, coloring):
    return not any(
        len(g.edges[i] & g.edges[k]) == coloring.y
        and coloring.colors[i] == coloring.colors[k]
        for i in range(len(g.edges))
        for k in range(i + 1, len(g.edges))
    )


def reference_max_intersection(g):
    return max(
        (len(g.edges[i] & g.edges[k]) for i in range(len(g.edges)) for k in range(i)),
        default=0,
    )


def with_one_overlap(rng):
    """A random hypergraph plus one edge that meets an earlier one in more
    than y vertices (possibly a repeat of it), with that y."""
    g, y = random_hypergraph(rng)
    k = g.uniformity
    base = rng.choice(g.edges)
    rest = [v for v in range(1, g.vertex_count + 1) if v not in base]
    keep = rng.sample(sorted(base), rng.randint(max(y + 1, k - len(rest)), k))
    extra = frozenset(keep + rng.sample(rest, k - len(keep)))
    edges = list(g.edges)
    edges.insert(rng.randint(edges.index(base) + 1, len(edges)), extra)
    return Hypergraph(g.vertex_count, k, tuple(edges)), y


def assert_matches_references(g, y, coloring=None):
    try:
        expect = reference_greedy_colors(g, y)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            greedy_edge_coloring(g, y)
        assert str(got.value) == str(exc)
    else:
        assert greedy_edge_coloring(g, y).colors == expect
    assert g.max_pairwise_intersection() == reference_max_intersection(g)
    if coloring is not None:
        assert validate_coloring(g, coloring) == reference_validate(g, coloring)


class TestGreedyColoring:
    def test_triangle_needs_three_colors(self):
        tri = H(3, 2, {1, 2}, {1, 3}, {2, 3})
        col = greedy_edge_coloring(tri, 1)
        assert col.colors == (1, 2, 3)
        assert col.color_count == 3
        assert within_color_budget(col.color_count, 2, 1, 3)  # budget 2*3/1 = 6

    def test_disjoint_edges_share_a_color(self):
        col = greedy_edge_coloring(H(4, 2, {1, 2}, {3, 4}), 1)
        assert col.colors == (1, 1)

    def test_constraint_only_binds_at_exact_y(self):
        # pairwise intersections of size 1 never conflict at y = 2
        col = greedy_edge_coloring(H(6, 3, {1, 2, 3}, {1, 4, 5}, {2, 4, 6}), 2)
        assert col.colors == (1, 1, 1)

    def test_oversized_intersection_rejected(self):
        with pytest.raises(ValueError):
            greedy_edge_coloring(H(4, 3, {1, 2, 3}, {1, 2, 4}), 1)

    def test_y_range_validation(self):
        g = H(4, 2, {1, 2})
        with pytest.raises(ValueError):
            greedy_edge_coloring(g, 0)
        with pytest.raises(ValueError):
            greedy_edge_coloring(g, 2)

    def test_random_hypergraphs_valid_and_within_budget(self):
        rng = random.Random(20260809)
        for _ in range(200):
            g, y = random_hypergraph(rng)
            col = greedy_edge_coloring(g, y)
            assert validate_coloring(g, col)
            assert within_color_budget(col.color_count, g.uniformity, y, g.vertex_count)

    def test_validate_detects_conflicts(self):
        tri = H(3, 2, {1, 2}, {1, 3}, {2, 3})
        col = greedy_edge_coloring(tri, 1)
        bad = EdgeColoring(1, (1, 1, 2), 2)
        assert not validate_coloring(tri, bad)


class TestHypergraphValidation:
    def test_edge_size(self):
        with pytest.raises(ValueError):
            H(4, 3, {1, 2})

    def test_vertex_range(self):
        with pytest.raises(ValueError):
            H(3, 2, {1, 4})

    def test_max_pairwise_intersection(self):
        assert H(4, 3, {1, 2, 3}, {1, 2, 4}).max_pairwise_intersection() == 2
        assert H(4, 2, {1, 2}, {3, 4}).max_pairwise_intersection() == 0


class TestIndexedAgainstAllPairs:
    def test_construction_levels(self, grid_builds):
        for (r, q, _x, _t), _seq, trace in grid_builds:
            for level in range(r, q + 1):
                g = level_hypergraph(trace, level)
                col = level_coloring(trace, level) if level < q else None
                assert_matches_references(g, r - 1, col)

    def test_random_hypergraphs(self):
        rng = random.Random(43)
        for _ in range(300):
            g, y = random_hypergraph(rng)
            colors = tuple(rng.randint(1, 3) for _ in g.edges)
            assert_matches_references(g, y, EdgeColoring(y, colors, len(set(colors))))

    def test_one_pair_over_y(self):
        rng = random.Random(47)
        for _ in range(300):
            g, y = with_one_overlap(rng)
            assert reference_max_intersection(g) > y
            colors = tuple(rng.randint(1, 3) for _ in g.edges)
            assert_matches_references(g, y, EdgeColoring(y, colors, len(set(colors))))
            with pytest.raises(ValueError, match="intersect in"):
                greedy_edge_coloring(g, y)
