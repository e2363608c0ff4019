import random
from itertools import combinations

import pytest

from conftest import random_hypergraph
from seqext._commands import _verify_formation_witness
from seqext.cli import Report
from seqext.coloring import (
    EdgeColoring,
    Hypergraph,
    greedy_edge_coloring,
    validate_coloring,
    within_color_budget,
)
from seqext.construct import (
    ConstructionTrace,
    Troop,
    level_coloring,
    level_hypergraph,
    sequence_from_trace,
)


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

    def test_oversized_intersection_names_the_earliest_edge(self):
        # the new edge meets the later edge {1,2,3,4,5} in 3 vertices, and
        # through its first 2-subsets; the earlier edge in 2
        g = H(10, 5, {6, 7, 8, 9, 10}, {1, 2, 3, 4, 5}, {1, 2, 3, 6, 7})
        with pytest.raises(ValueError) as exc:
            greedy_edge_coloring(g, 1)
        assert str(exc.value) == (
            "edges [6, 7, 8, 9, 10] and [1, 2, 3, 6, 7] intersect in 2 > 1 vertices")
        assert_matches_references(g, 1)

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


def with_coloring_conflict(g, coloring, rng):
    """The coloring with one pair of edges that meet in exactly y vertices
    recolored alike; None when no pair meets in y."""
    pairs = [
        (i, k) for i, k in combinations(range(len(g.edges)), 2)
        if len(g.edges[i] & g.edges[k]) == coloring.y
    ]
    if not pairs:
        return None
    i, k = rng.choice(pairs)
    colors = list(coloring.colors)
    colors[k] = colors[i]
    return EdgeColoring(coloring.y, tuple(colors), len(set(colors)))


def merged_over_y(g, y):
    """A valid coloring that gives edges meeting in more than y vertices one
    color wherever the all-pairs reference allows it."""
    colors = list(range(1, len(g.edges) + 1))
    for i, k in combinations(range(len(g.edges)), 2):
        if len(g.edges[i] & g.edges[k]) > y:
            trial = colors[:k] + [colors[i]] + colors[k + 1:]
            if reference_validate(g, EdgeColoring(y, tuple(trial), len(set(trial)))):
                colors = trial
    return EdgeColoring(y, tuple(colors), len(set(colors)))


class TestWitnessCheckersAgainstAllPairs:
    def test_validate_on_three_kinds_of_coloring(self):
        rng = random.Random(53)
        conflicts = shared_over_y = 0
        for _ in range(300):
            g, y = random_hypergraph(rng, max_n=10, max_y=3)
            valid = greedy_edge_coloring(g, y)
            assert validate_coloring(g, valid) and reference_validate(g, valid)
            bad = with_coloring_conflict(g, valid, rng)
            if bad is not None:
                assert not validate_coloring(g, bad) and not reference_validate(g, bad)
                conflicts += 1
            g, y = random_hypergraph(rng, max_n=10, max_y=3, bounded=False)
            merged = merged_over_y(g, y)
            assert validate_coloring(g, merged) and reference_validate(g, merged)
            shared_over_y += any(
                merged.colors[i] == merged.colors[k] and len(g.edges[i] & g.edges[k]) > y
                for i, k in combinations(range(len(g.edges)), 2)
            )
        assert conflicts > 100 and shared_over_y > 100

    def test_subset_predicate(self):
        rng = random.Random(59)
        for _ in range(300):
            g, _y = random_hypergraph(rng, max_n=10, bounded=rng.random() < 0.5)
            top = reference_max_intersection(g)
            for r in range(1, g.uniformity + 2):
                assert g.meets_in(r) == (top >= r)


def troop_checks(trace):
    """The troop-intersections and level-colorings results of the CLI's witness check."""
    report = Report("construct formation", {})
    _verify_formation_witness(report, sequence_from_trace(trace), trace)
    passed = {c["name"]: c["pass"] for c in report.checks}
    return passed["troop-intersections"], passed["level-colorings"]


def reference_troop_checks(trace):
    r, q = trace.r, trace.q
    graphs = {level: level_hypergraph(trace, level) for level in range(r, q + 1)}
    inter = all(reference_max_intersection(g) <= r - 1 for g in graphs.values())
    colorings = True
    for level in range(r, q):
        g, col = graphs[level], level_coloring(trace, level)
        colorings &= reference_validate(g, col) and within_color_budget(
            col.color_count, level, r - 1, g.vertex_count
        )
    return inter, colorings


class TestFormationWitnessCheck:
    def test_r3_witnesses_pass(self, grid_builds):
        for (r, _q, _x, _t), _seq, trace in grid_builds:
            if r == 3:
                assert troop_checks(trace) == reference_troop_checks(trace) == (True, True)

    def test_corrupted_traces(self):
        overlapping = ConstructionTrace(  # two troops on the letters 1 2
            r=2, q=3, x=3, t=1,
            troops=(Troop((1, 2, 3), 1), Troop((1, 2, 4), 1)),
            letter_count=4, color_letters_per_level={3: (4,)},
        )
        # troops (1,2) and (1,3) meet in r-1 = 1 letter yet both got color letter 5
        miscolored = ConstructionTrace(
            r=2, q=3, x=3, t=1,
            troops=(Troop((1, 2, 5), 1), Troop((1, 3, 5), 1), Troop((2, 3, 4), 1)),
            letter_count=5, color_letters_per_level={3: (4, 5)},
        )
        # a color per troop: 15 colors on 6 letters, over the budget 2^1 6 / 1! = 12
        pairs = list(combinations(range(1, 7), 2))
        over_budget = ConstructionTrace(
            r=2, q=3, x=6, t=1,
            troops=tuple(Troop(p + (7 + i,), 1) for i, p in enumerate(pairs)),
            letter_count=21, color_letters_per_level={3: tuple(range(7, 22))},
        )
        for trace, expect in (
            (overlapping, (False, True)),
            (miscolored, (False, False)),
            (over_budget, (True, False)),
        ):
            assert troop_checks(trace) == reference_troop_checks(trace) == expect
