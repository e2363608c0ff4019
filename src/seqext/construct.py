"""Lower-bound witness constructions.

The base sequence T_r(x, t) appends, for every r-subset of {1..x} in
lexicographic order, t copies of that subset written in ascending order
(one such repeated group is a *troop*). T_r(x, t) is r-sparse and every
r-subset of letters has formation length below 2 C(x-1, r-1) + t + 1.

The lift turns each troop's support into a hyperedge, colors the troop
hypergraph greedily so that supports meeting in exactly r-1 letters get
different colors, and appends one fresh letter per color to each troop
repetition. Each lift raises the sparsity guarantee by one while the
formation ceiling and troop count stay put. The troops record every lift's
coloring in their appended letters, so `level_coloring` reads it back
instead of coloring again, and a verifier checks what was applied.

The reversed-block construction gives long blocked sequences of small
alternation: min(s, n) full blocks that alternate ascending/descending
order, one letter dropped at each colliding boundary, padded with empty
blocks.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, factorial

from .coloring import EdgeColoring, Hypergraph, greedy_edge_coloring
from .errors import InfeasibleError
from .sequences import BlockedSequence, Frozen, Sequence

__all__ = [
    "Troop",
    "ConstructionTrace",
    "build_base",
    "lift",
    "build_formation_witness",
    "sequence_from_trace",
    "level_supports",
    "level_hypergraph",
    "level_coloring",
    "pad_to_alphabet",
    "choose_params",
    "ds_sparse_params",
    "build_ds_sparse_witness",
    "build_block_witness",
    "trace_report",
]


class Troop(Frozen):
    """One repeated group: `repetitions` copies of the letters in `support` order."""

    _fields = ("support", "repetitions")

    def __init__(self, support: tuple[int, ...], repetitions: int) -> None:
        if len(set(support)) != len(support):
            raise ValueError("troop support letters must be distinct")
        if repetitions < 1:
            raise ValueError("troop repetitions must be >= 1")
        self._init(support, repetitions)


class ConstructionTrace(Frozen):
    """Troop-level structure of a built witness, enough to verify and lift it.

    Letters are always 1..letter_count; level q introduced the letters in
    color_letters_per_level[q] (base letters 1..x live at level r).
    """

    _fields = ("r", "q", "x", "t", "troops", "letter_count", "color_letters_per_level")

    def __init__(
        self,
        r: int,
        q: int,
        x: int,
        t: int,
        troops: tuple[Troop, ...],
        letter_count: int,
        color_letters_per_level: dict[int, tuple[int, ...]],
    ) -> None:
        self._init(r, q, x, t, troops, letter_count, color_letters_per_level)

    @property
    def troop_count(self) -> int:
        return len(self.troops)


def build_base(r: int, x: int, t: int) -> tuple[Sequence, ConstructionTrace]:
    """The base sequence T_r(x, t); length r t C(x, r) over letters 1..x."""
    if r < 2:
        raise InfeasibleError("need r >= 2")
    if x < r:
        raise InfeasibleError(f"need x >= r, got x={x} r={r}")
    if t < 1:
        raise InfeasibleError("need t >= 1")
    trace = ConstructionTrace(
        r=r, q=r, x=x, t=t,
        troops=tuple(Troop(support, t) for support in combinations(range(1, x + 1), r)),
        letter_count=x,
        color_letters_per_level={},
    )
    return sequence_from_trace(trace), trace


def sequence_from_trace(trace: ConstructionTrace) -> Sequence:
    toks: list[int] = []
    for troop in trace.troops:
        toks.extend(troop.support * troop.repetitions)
    return Sequence(tuple(toks))


def lift(trace: ConstructionTrace) -> tuple[Sequence, ConstructionTrace]:
    """One induction step: color the troop hypergraph at y = r-1 and append
    the color letter (fresh per color) to every repetition of each troop.

    Raises ValueError if two troop supports intersect in r or more letters,
    which would break the induction.
    """
    coloring = greedy_edge_coloring(level_hypergraph(trace, trace.q), y=trace.r - 1)
    base_id = trace.letter_count
    q_new = trace.q + 1
    new_troops = tuple(
        Troop(tr.support + (base_id + coloring.colors[i],), tr.repetitions)
        for i, tr in enumerate(trace.troops)
    )
    fresh = tuple(range(base_id + 1, base_id + coloring.color_count + 1))
    per_level = dict(trace.color_letters_per_level)
    per_level[q_new] = fresh
    new_trace = ConstructionTrace(
        r=trace.r, q=q_new, x=trace.x, t=trace.t,
        troops=new_troops,
        letter_count=base_id + coloring.color_count,
        color_letters_per_level=per_level,
    )
    return sequence_from_trace(new_trace), new_trace


def build_formation_witness(
    r: int, q: int, x: int, t: int
) -> tuple[Sequence, ConstructionTrace]:
    """T_{r,q}(x, t): the base construction lifted q-r times.

    Guarantees (checker-verified, never assumed): length q t C(x, r),
    q-sparse (not (q+1)-sparse once t >= 2), at most (q!)^(r-1) x distinct
    letters, and formation length below 2 C(x-1, r-1) + t + 1 on every
    r-subset.
    """
    if q < r:
        raise InfeasibleError(f"need q >= r, got q={q} r={r}")
    seq, trace = build_base(r, x, t)
    for _ in range(q - r):
        seq, trace = lift(trace)
    return seq, trace


def level_supports(trace: ConstructionTrace, level: int) -> tuple[tuple[int, ...], ...]:
    """Troop supports as they were at the given level (r <= level <= q)."""
    if not trace.r <= level <= trace.q:
        raise ValueError(f"level must be in [{trace.r}, {trace.q}]")
    return tuple(tr.support[:level] for tr in trace.troops)


def _letters_at_level(trace: ConstructionTrace, level: int) -> int:
    count = trace.x
    for lvl in sorted(trace.color_letters_per_level):
        if lvl <= level:
            count += len(trace.color_letters_per_level[lvl])
    return count


def level_hypergraph(trace: ConstructionTrace, level: int) -> Hypergraph:
    """The troop hypergraph whose coloring produced level `level + 1`."""
    return Hypergraph(
        vertex_count=_letters_at_level(trace, level),
        uniformity=level,
        edges=tuple(frozenset(s) for s in level_supports(trace, level)),
    )


def level_coloring(trace: ConstructionTrace, level: int) -> EdgeColoring:
    """The coloring the lift from `level` applied (r <= level < q), read off
    the troops: troop i got color c when that lift appended letter
    `_letters_at_level(trace, level) + c` to its support."""
    if not trace.r <= level < trace.q:
        raise ValueError(f"no lift left level {level}: need {trace.r} <= level < {trace.q}")
    base = _letters_at_level(trace, level)
    colors = tuple(tr.support[level] - base for tr in trace.troops)
    return EdgeColoring(trace.r - 1, colors, len(set(colors)))


def pad_to_alphabet(seq: Sequence, n: int) -> Sequence:
    """Append fresh letters, one occurrence each, until exactly n letters occur.

    Leaves sparsity and all formation lengths on pre-existing letters
    unchanged; each new letter occurs once, so formation queries through it
    yield at most 1.
    """
    alphabet = seq.alphabet
    if len(alphabet) > n:
        raise InfeasibleError(f"sequence already has {len(alphabet)} > {n} letters")
    start = max(alphabet, default=0)
    extra = tuple(range(start + 1, start + 1 + (n - len(alphabet))))
    return Sequence(seq.tokens + extra)


def choose_params(n: int, s: int, r: int, q: int) -> tuple[int, int]:
    """Pick (x, t) with x ~ n / (4 (q!)^(r-1)) and t = floor(s/2) - 1, then
    enforce the two witness requirements by adjusting x:

      2 C(x-1, r-1) + t + 1 <= s   (the witness avoids all (r, s)-formations)
      (q!)^(r-1) x <= n            (letter budget fits the target alphabet)

    x starts at a quarter of what the letter budget allows, but at most s/2:
    an x > r has C(x-1, r-1) >= x-1, so above s/2 it fails the first
    requirement. It is raised to r when below it, and lowered while the
    requirements fail. Raises InfeasibleError when no x in [r, ...] works.
    """
    if q < r or r < 2:
        raise ValueError("need q >= r >= 2")
    budget = factorial(q) ** (r - 1)
    x = max(min(n // (4 * budget), s // 2), r)
    t = s // 2 - 1
    if t < 1:
        raise InfeasibleError(f"t = floor({s}/2) - 1 < 1")
    while x >= r and not (
        2 * comb(x - 1, r - 1) + t + 1 <= s and budget * x <= n
    ):
        x -= 1
    if x < r:
        raise InfeasibleError(f"no feasible x >= {r} for n={n} s={s} r={r} q={q}")
    return x, t


def ds_sparse_params(n: int, s: int, j: int) -> tuple[int, int]:
    """Parameters for a j-sparse order-s witness.

    An alternation of length s+2 contains floor((s+2)/2) full permutations of
    its two letters, so avoiding all (2, floor(s/2)+1)-formations caps the
    alternation at s+1; the formation target is floor(s/2)+1, not s.
    """
    return choose_params(n, s // 2 + 1, 2, j)


def build_ds_sparse_witness(n: int, s: int, j: int) -> Sequence:
    """A j-sparse order-s Davenport-Schinzel sequence on exactly n letters."""
    if j < 2:
        raise ValueError("need j >= 2")
    x, t = ds_sparse_params(n, s, j)
    seq, _trace = build_formation_witness(2, j, x, t)
    return pad_to_alphabet(seq, n)


def build_block_witness(n: int, s: int) -> BlockedSequence:
    """min(s, n) full blocks in alternating ascending/descending letter order,
    dropping a block's first letter when it repeats the previous block's last,
    plus n - min(s, n) empty blocks. Length >= n s - n for s <= n."""
    if n < 2:
        raise ValueError("need n >= 2")
    if s < 1:
        raise ValueError("need s >= 1")
    full = min(s, n)
    ascending = tuple(range(1, n + 1))
    blocks: list[tuple[int, ...]] = []
    prev_last = None
    for i in range(full):
        block = ascending if i % 2 == 0 else ascending[::-1]
        if prev_last is not None and block[0] == prev_last:
            block = block[1:]
        blocks.append(block)
        prev_last = block[-1]
    blocks.extend(() for _ in range(n - full))
    return BlockedSequence(tuple(blocks))


def trace_report(trace: ConstructionTrace) -> str:
    """Deterministic text report: parameters, troop list, per-level fresh letters."""
    lines = [
        f"construction r={trace.r} q={trace.q} x={trace.x} t={trace.t}",
        f"length {trace.q * trace.t * comb(trace.x, trace.r)}",
        f"letters {trace.letter_count}",
        f"troops {trace.troop_count}",
    ]
    width = len(str(trace.troop_count))
    for i, troop in enumerate(trace.troops, 1):
        lines.append(f"troop {i:0{width}d}: " + " ".join(map(str, troop.support)))
    for level in sorted(trace.color_letters_per_level):
        fresh = " ".join(map(str, trace.color_letters_per_level[level]))
        lines.append(f"level {level} fresh: {fresh}")
    return "\n".join(lines) + "\n"
