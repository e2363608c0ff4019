"""0-1 matrices, pattern containment, the Kovari-Sos-Turan bound, and the
incidence bridge between blocked sequences and matrices.

Rows are stored as integer bitmasks (bit j = column j) so containment scans
stay cheap inside search loops. Text format: one line per row of `0`/`1`
characters, all lines equal length.
"""

from __future__ import annotations

from itertools import combinations

from .sequences import BlockedSequence, Frozen

__all__ = [
    "ZeroOneMatrix",
    "MatrixPattern",
    "all_ones",
    "matrix_contains",
    "matrix_contains_brute",
    "kst_bound",
    "blocked_to_matrix",
    "matrix_to_blocked",
    "max_pair_cooccurrence",
    "parse_matrix",
    "render_matrix",
]


class ZeroOneMatrix(Frozen):
    """n x m 0-1 matrix; rows[i] is the bitmask of row i."""

    _fields = ("n", "m", "rows")

    def __init__(self, n: int, m: int, rows: tuple[int, ...]) -> None:
        if n < 1 or m < 1:
            raise ValueError("matrix dimensions must be >= 1")
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        for mask in rows:
            if not isinstance(mask, int) or mask < 0 or mask >> m:
                raise ValueError(f"row mask {mask!r} out of range for {m} columns")
        self._init(n, m, rows)

    @property
    def ones_count(self) -> int:
        return sum(mask.bit_count() for mask in self.rows)

    def __str__(self) -> str:
        return render_matrix(self)


class MatrixPattern(ZeroOneMatrix):
    """Forbidden 0-1 pattern; must have at least one 1-entry."""

    def __init__(self, n: int, m: int, rows: tuple[int, ...]) -> None:
        super().__init__(n, m, rows)
        if all(mask == 0 for mask in self.rows):
            raise ValueError("pattern needs at least one 1-entry")


def all_ones(a: int, b: int) -> MatrixPattern:
    """The a x b all-ones pattern."""
    if a < 1 or b < 1:
        raise ValueError("pattern dimensions must be >= 1")
    return MatrixPattern(a, b, tuple([(1 << b) - 1] * a))


def _cols_embed(row_masks: tuple[int, ...], p_rows: tuple[int, ...], pm: int, m: int) -> bool:
    """Greedy left-to-right column matching for a fixed row selection."""
    j = 0
    for v in range(pm):
        need = [u for u in range(len(p_rows)) if (p_rows[u] >> v) & 1]
        while j < m:
            if all((row_masks[u] >> j) & 1 for u in need):
                break
            j += 1
        if j == m:
            return False
        j += 1
    return True


def matrix_contains(A: ZeroOneMatrix, P: ZeroOneMatrix) -> bool:
    """True iff some submatrix of A can be turned into P by changing ones to zeroes.

    Equivalently: rows i_1<...<i_a and columns j_1<...<j_b exist with
    P[u][v]=1 implying A[i_u][j_v]=1. A host row with fewer ones than the
    lightest row of P holds no row of P, so the rows are chosen from the
    others only (from all of them when P has an empty row).
    """
    if P.n > A.n or P.m > A.m:
        return False
    least = min(mask.bit_count() for mask in P.rows)
    rows = [mask for mask in A.rows if mask.bit_count() >= least]
    for rowsel in combinations(rows, P.n):
        if _cols_embed(rowsel, P.rows, P.m, A.m):
            return True
    return False


def matrix_contains_brute(A: ZeroOneMatrix, P: ZeroOneMatrix) -> bool:
    """Containment by full enumeration of row and column selections (validation twin)."""
    if P.n > A.n or P.m > A.m:
        return False
    for rowsel in combinations(range(A.n), P.n):
        for colsel in combinations(range(A.m), P.m):
            if all(
                not ((P.rows[u] >> v) & 1) or ((A.rows[rowsel[u]] >> colsel[v]) & 1)
                for u in range(P.n)
                for v in range(P.m)
            ):
                return True
    return False


def kst_bound(n: int, m: int, a: int, b: int) -> float:
    """Upper bound (b-1)^(1/a) (n-a+1) m^(1-1/a) + (a-1) m on ones avoiding the a x b all-ones."""
    if a < 1 or b < 1 or m < 1:
        raise ValueError("parameters must be >= 1")
    if n < a:
        raise ValueError("bound requires n >= a")
    return (b - 1) ** (1.0 / a) * (n - a + 1) * m ** (1.0 - 1.0 / a) + (a - 1) * m


def blocked_to_matrix(bseq: BlockedSequence, rows: int | None = None) -> ZeroOneMatrix:
    """Incidence matrix: entry (i, j) = 1 iff letter i occurs in block j.

    Row count defaults to the largest letter id; pass `rows` explicitly to
    keep trailing all-zero rows through a round trip.
    """
    if bseq.block_count < 1:
        raise ValueError("need at least one block")
    max_letter = max(bseq.alphabet, default=0)
    if rows is None:
        rows = max_letter
    if rows < max(1, max_letter):
        raise ValueError(f"row count {rows} cannot hold letter {max_letter}")
    masks = [0] * rows
    for j, block in enumerate(bseq.blocks):
        for letter in block:
            masks[letter - 1] |= 1 << j
    return ZeroOneMatrix(rows, bseq.block_count, tuple(masks))


def matrix_to_blocked(M: ZeroOneMatrix) -> BlockedSequence:
    """Block j lists the letters i with M[i][j] = 1 in increasing id order."""
    blocks = []
    for j in range(M.m):
        blocks.append(tuple(i + 1 for i in range(M.n) if (M.rows[i] >> j) & 1))
    return BlockedSequence(tuple(blocks))


def max_pair_cooccurrence(bseq: BlockedSequence) -> int:
    """Max over letter pairs of the number of blocks containing both; 0 if < 2 letters."""
    counts: dict[tuple[int, int], int] = {}
    best = 0
    for block in bseq.blocks:
        for a, b in combinations(sorted(block), 2):
            counts[(a, b)] = counts.get((a, b), 0) + 1
            if counts[(a, b)] > best:
                best = counts[(a, b)]
    return best


def parse_matrix(text: str) -> ZeroOneMatrix:
    """Parse the 0/1-lines text format."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty input where a matrix is required")
    m = len(lines[0])
    masks = []
    for line in lines:
        if len(line) != m:
            raise ValueError("all matrix rows must have equal length")
        mask = 0
        for j, ch in enumerate(line):
            if ch == "1":
                mask |= 1 << j
            elif ch != "0":
                raise ValueError(f"matrix entries must be 0 or 1, got {ch!r}")
        masks.append(mask)
    return ZeroOneMatrix(len(masks), m, tuple(masks))


def render_matrix(M: ZeroOneMatrix) -> str:
    return "\n".join(
        "".join("1" if (M.rows[i] >> j) & 1 else "0" for j in range(M.m))
        for i in range(M.n)
    )
