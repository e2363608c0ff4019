"""k-uniform hypergraphs with bounded pairwise edge intersections, and the
greedy edge coloring that separates edges meeting in exactly y vertices.

With n vertices the greedy coloring needs at most k^y n / y! colors: each
edge meets at most floor((n-k)/(k-y)) earlier edges at each of its C(k, y)
y-subsets, and C(k, y) (n-k)/(k-y) < k^y n / y! for all 1 <= y < k.

Two edges that meet in y or more vertices share C(|e & f|, y) y-subsets,
which is 1 exactly when they meet in y vertices. So one index that lists
every edge under each of its y-subsets finds, for each edge, every earlier
edge it could conflict with or over-intersect, and the pairwise-intersection
maximum looks only at those pairs (with y = 1 that is every pair that meets
at all).

The greedy coloring lists no pairs. Two edges meet in more than y vertices
exactly when they share a (y+1)-subset, so an index of each (y+1)-subset's
first edge names, for each edge, the earliest edge that over-intersects it.
Once no pair over-intersects, two edges that share a y-subset meet in exactly
y vertices, and every such pair shares one. So the colors of the earlier
edges that meet edge e in y vertices are the union of the color masks kept
under e's y-subsets, and the smallest free color is the lowest zero bit of
that union. Each edge costs C(k, y) + C(k, y+1) dictionary steps, however
many earlier edges it meets.

The witness checkers ask less. `validate_coloring` keys its index by
(color, y-subset), so it meets only the same-colored pairs that share a
y-subset: every pair that could break the coloring, and in a valid witness
almost no other. `Hypergraph.meets_in(r)` asks only whether two edges meet in
r or more vertices. Two edges do exactly when some r-subset lies in both, so
an index of r-subsets answers at its first repeated key and lists no pair.
The tests check all of these against all-pairs references.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterator
from itertools import chain, combinations
from math import factorial

from .sequences import Frozen

__all__ = [
    "Hypergraph",
    "EdgeColoring",
    "greedy_edge_coloring",
    "validate_coloring",
    "within_color_budget",
]


class Hypergraph(Frozen):
    """k-uniform hypergraph on vertices 1..vertex_count."""

    _fields = ("vertex_count", "uniformity", "edges")

    def __init__(
        self, vertex_count: int, uniformity: int, edges: tuple[frozenset[int], ...]
    ) -> None:
        if vertex_count < 1:
            raise ValueError("vertex count must be >= 1")
        if not 1 <= uniformity <= vertex_count:
            raise ValueError("uniformity must be between 1 and the vertex count")
        edges = tuple(frozenset(e) for e in edges)
        for e in edges:
            if len(e) != uniformity:
                raise ValueError(f"edge {sorted(e)} is not {uniformity}-uniform")
            for v in e:
                if not 1 <= v <= vertex_count:
                    raise ValueError(f"vertex {v} out of range")
        self._init(vertex_count, uniformity, edges)

    def max_pairwise_intersection(self) -> int:
        """Largest intersection of two edges; 0 if no two edges meet."""
        best = 0
        for _i, shared in _earlier_neighbours(self.edges, 1):
            if shared:
                best = max(best, max(shared.values()))
        return best

    def meets_in(self, r: int) -> bool:
        """True iff two edges meet in r or more vertices."""
        seen: set[tuple[int, ...]] = set()
        for edge in self.edges:
            for key in combinations(sorted(edge), r):
                if key in seen:
                    return True
                seen.add(key)
        return False


def _earlier_neighbours(
    edges: tuple[frozenset[int], ...], y: int
) -> Iterator[tuple[int, Counter]]:
    """Each edge index i, in order, with a Counter of the earlier edges that
    share a y-subset with edge i: every earlier edge f meeting edge i in y or
    more vertices, mapped to the C(|e_i & f|, y) y-subsets they share. With
    y >= 1 that count is 1 exactly when they meet in y vertices."""
    index: dict[tuple[int, ...], list[int]] = {}
    for i, edge in enumerate(edges):
        keys = list(combinations(sorted(edge), y))
        yield i, Counter(chain.from_iterable(index.get(key, ()) for key in keys))
        for key in keys:
            index.setdefault(key, []).append(i)


class EdgeColoring(Frozen):
    """Color per edge index; colors are 1..color_count."""

    _fields = ("y", "colors", "color_count")

    def __init__(self, y: int, colors: tuple[int, ...], color_count: int) -> None:
        self._init(y, colors, color_count)


def within_color_budget(count: int, k: int, y: int, n: int) -> bool:
    """Exact integer comparison count <= k^y n / y!."""
    return count * factorial(y) <= k**y * n


def greedy_edge_coloring(H: Hypergraph, y: int) -> EdgeColoring:
    """Color edges in input order, giving each the smallest color unused by
    earlier edges that meet it in exactly y vertices.

    Raises ValueError if some pair of edges intersects in more than y
    vertices (the coloring's promise assumes intersections <= y).
    """
    if not 1 <= y < H.uniformity:
        raise ValueError("need 1 <= y < uniformity")
    used: dict[tuple[int, ...], int] = {}  # bit c-1 set: color c meets this y-subset
    owner: dict[tuple[int, ...], int] = {}  # each (y+1)-subset's first edge
    colors: list[int] = []
    for i, edge in enumerate(H.edges):
        vertices = sorted(edge)
        wider = list(combinations(vertices, y + 1))
        clash = [owner[key] for key in wider if key in owner]
        if clash:
            first = H.edges[min(clash)]
            raise ValueError(
                f"edges {sorted(first)} and {vertices} intersect "
                f"in {len(edge & first)} > {y} vertices"
            )
        for key in wider:
            owner[key] = i
        keys = list(combinations(vertices, y))
        taken = 0
        for key in keys:
            taken |= used.get(key, 0)
        free = ~taken & (taken + 1)
        for key in keys:
            used[key] = used.get(key, 0) | free
        colors.append(free.bit_length())
    count = len(set(colors)) if colors else 0
    coloring = EdgeColoring(y, tuple(colors), count)
    if not within_color_budget(count, H.uniformity, y, H.vertex_count):
        raise AssertionError("greedy coloring exceeded its color budget")
    return coloring


def validate_coloring(H: Hypergraph, coloring: EdgeColoring) -> bool:
    """True iff no two edges with intersection exactly y share a color."""
    y = coloring.y
    index: dict[int, dict[tuple[int, ...], list[frozenset[int]]]] = defaultdict(dict)
    for i, edge in enumerate(H.edges):
        same_color = index[coloring.colors[i]]
        for key in combinations(sorted(edge), y):
            earlier = same_color.setdefault(key, [])
            for f in earlier:
                if len(edge & f) == y:
                    return False
            earlier.append(edge)
    return True
