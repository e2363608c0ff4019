"""k-uniform hypergraphs with bounded pairwise edge intersections, and the
greedy edge coloring that separates edges meeting in exactly y vertices.

With n vertices the greedy coloring needs at most k^y n / y! colors: each
edge meets at most floor((n-k)/(k-y)) earlier edges at each of its C(k, y)
y-subsets, and C(k, y) (n-k)/(k-y) < k^y n / y! for all 1 <= y < k.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

__all__ = [
    "Hypergraph",
    "EdgeColoring",
    "greedy_edge_coloring",
    "validate_coloring",
    "within_color_budget",
]


@dataclass(frozen=True)
class Hypergraph:
    """k-uniform hypergraph on vertices 1..vertex_count."""

    vertex_count: int
    uniformity: int
    edges: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ValueError("vertex count must be >= 1")
        if not 1 <= self.uniformity <= self.vertex_count:
            raise ValueError("uniformity must be between 1 and the vertex count")
        edges = tuple(frozenset(e) for e in self.edges)
        for e in edges:
            if len(e) != self.uniformity:
                raise ValueError(f"edge {sorted(e)} is not {self.uniformity}-uniform")
            for v in e:
                if not 1 <= v <= self.vertex_count:
                    raise ValueError(f"vertex {v} out of range")
        object.__setattr__(self, "edges", edges)

    def max_pairwise_intersection(self) -> int:
        best = 0
        for i in range(len(self.edges)):
            for k in range(i + 1, len(self.edges)):
                size = len(self.edges[i] & self.edges[k])
                if size > best:
                    best = size
        return best


@dataclass(frozen=True)
class EdgeColoring:
    """Color per edge index; colors are 1..color_count."""

    y: int
    colors: tuple[int, ...]
    color_count: int


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
    colors: list[int] = []
    for i, edge in enumerate(H.edges):
        forbidden = set()
        for k in range(i):
            inter = len(edge & H.edges[k])
            if inter > y:
                raise ValueError(
                    f"edges {sorted(H.edges[k])} and {sorted(edge)} intersect "
                    f"in {inter} > {y} vertices"
                )
            if inter == y:
                forbidden.add(colors[k])
        c = 1
        while c in forbidden:
            c += 1
        colors.append(c)
    count = len(set(colors)) if colors else 0
    coloring = EdgeColoring(y, tuple(colors), count)
    if not within_color_budget(count, H.uniformity, y, H.vertex_count):
        raise AssertionError("greedy coloring exceeded its color budget")
    return coloring


def validate_coloring(H: Hypergraph, coloring: EdgeColoring) -> bool:
    """True iff no two edges with intersection exactly y share a color."""
    y = coloring.y
    for i in range(len(H.edges)):
        for k in range(i + 1, len(H.edges)):
            if (
                len(H.edges[i] & H.edges[k]) == y
                and coloring.colors[i] == coloring.colors[k]
            ):
                return False
    return True
