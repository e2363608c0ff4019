"""Predicates on sequences: sparsity, alternations, formations, pattern containment.

The single-query functions favor an obviously-correct implementation and are
the references for the maxima built on them: `formation_length` scans the
whole sequence for one letter set (and is itself checked against
`brute_formation_length`), and `alternation_length` scans it for one pair.
The fast incremental twins inside the oracle search kernels are validated
against these too.

The maxima cost about the size of their answer, not one whole scan per
subset or pair, and miss nothing:

* `max_formation_length` lists each letter's positions once. The greedy scan
  for one r-subset completes a permutation exactly at the latest of its
  letters' first occurrences after the previous completion, and it ends when
  some letter has none left. So one `bisect_right` per letter finds each
  completion, and the scan never walks the tokens between two of them. The
  subsets come grouped by their rarest letter, in falling order of its
  count, and the enumeration stops at the first rarest letter that occurs
  no more often than the best value so far: a permutation uses each of its
  letters once, so no later subset can beat it.
* `max_alternation` counts switches. Restricted to a pair {a, b}, the runs
  alternate between the two letters, and every a-run but the first opens at
  a repeated a with some b since the previous a. With into[a][b] the number
  of such repeats, the pair has 2 + into[a][b] + into[b][a] runs. Two exact
  scans find the largest sum; `max_alternation` picks one by the work each
  would do (its docstring has the rule).

  - The recency scan keeps the letters in order of last occurrence. The
    letters after a in that order are those seen since the previous a, so
    each repeat of a credits into[a][b] for each of them, and a final pass
    over the rows adds each pair's two counts.
  - The packed scan gives each letter that occurs twice or more a w-bit
    field of one int, with 2^(w-1) above every letter's count. `counts`
    holds every such letter's count so far, and since[k] its value just
    after the previous k. Each field of counts - since[k] lies in
    [0, 2^(w-1)), so adding 2^(w-1) - 1 to every field sets a field's top
    bit exactly when the difference is positive and carries nothing into
    the next field: the top bits are X, exactly the letters b that into[k][b]
    credits. Row k also gets X & alive, the letters of X that occur again.
    The last b inside such a stretch between two k's starts a stretch
    between two b's that holds the later k; every stretch between two b's
    that holds a k arises so, except the one holding k's first occurrence.
    So row k's field b is into[k][b] + into[b][k], less 1 when b occurs
    both before and after k's first occurrence. In the row of whichever of
    k and b occurs first the field is exact, in the other it is no larger,
    and a row's largest field (read with `to_bytes`) is final at its
    letter's last occurrence. Fields never carry: each is at most twice a
    count, below 2^w.
  - A letter that occurs once forms two runs with any letter, and three
    exactly when it lies between two occurrences of the other. The packed
    scan gives such letters no field, and looks for that case only when no
    pair of repeated letters has more than two runs.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from collections.abc import Iterable
from itertools import combinations
from math import comb
from operator import ne

from .errors import MAX_SUBSETS, CapExceededError
from .sequences import Sequence, normalize

__all__ = [
    "is_sparse",
    "alternation_length",
    "max_alternation",
    "is_ds",
    "formation_length",
    "brute_formation_length",
    "max_formation_length",
    "avoids_all_formations",
    "contains_pattern",
]


def is_sparse(seq: Sequence, j: int) -> bool:
    """True iff every two equal letters sit at distance >= j (windows of j tokens are rainbow)."""
    if j < 1:
        raise ValueError("sparsity parameter must be >= 1")
    last: dict[int, int] = {}
    for i, tok in enumerate(seq.tokens):
        prev = last.get(tok)
        if prev is not None and i - prev < j:
            return False
        last[tok] = i
    return True


def alternation_length(seq: Sequence, a: int, b: int) -> int:
    """Length of the longest strict alternation a b a b ... (either letter first).

    Equals the number of runs in the restriction of seq to {a, b}; 0 if
    neither letter occurs.
    """
    if a == b:
        raise ValueError("alternation requires two distinct letters")
    runs = 0
    last = 0
    for tok in seq.tokens:
        if tok == a or tok == b:
            if tok != last:
                runs += 1
                last = tok
    return runs


def max_alternation(seq: Sequence) -> int:
    """Max of alternation_length over all pairs of distinct letters occurring in seq.

    With L tokens, m letters that occur more than once and S the sum of
    their spans (last position minus first), the recency scan takes at most
    S dictionary steps and the packed scan L bit-field steps, each an
    integer operation on m fields. The packed scan runs only when
    S >= L * m / _PACKED_RATIO.
    """
    toks = seq.tokens
    last = dict(zip(toks, range(len(toks))))
    if len(last) < 2:
        return 0
    first = dict(zip(reversed(toks), range(len(toks) - 1, -1, -1)))
    repeated = sum(map(ne, last.values(), map(first.__getitem__, last)))
    if not repeated:  # every pair has two runs
        return 2
    spans = sum(last.values()) - sum(first.values())
    if spans * _PACKED_RATIO < len(toks) * repeated:
        return _recency_alternation(toks)
    return _packed_alternation(toks, first, last)


# Measured on m letters in consecutive blocks, each block written 2 or 8
# times (CPython 3.11, 2 vCPUs). At S = L m / 16 the packed scan took from
# 1.5x the recency scan's time (m = 64, both under 0.2 ms) to 0.4x of it
# (m = 8,192); at S = L m / 32 it was no faster than the recency scan up to
# m = 2,048. The local pairs 1 2 1 2 3 4 3 4 ... have S = L, so they get
# the packed scan only with m <= 16 letters.
_PACKED_RATIO = 16


def _recency_alternation(toks: tuple[int, ...]) -> int:
    """max_alternation by one recency scan.

    `rows` holds the letters by last occurrence, oldest first; the letters
    after tok in it are those seen since tok's previous occurrence.
    `rows[a][b]` counts the runs of {a, b} that a opened after the first two.
    """
    rows: dict[int, dict[int, int]] = {}
    for tok in toks:
        row = rows.get(tok)
        if row is None:
            rows[tok] = {}
            continue
        for b in reversed(rows):
            if b == tok:
                break
            row[b] = row.get(b, 0) + 1
        del rows[tok]
        rows[tok] = row
    best = 0
    for a, row in rows.items():
        for b, count in row.items():
            count += rows[b].get(a, 0)
            if count > best:
                best = count
    return 2 + best


def _packed_alternation(
    toks: tuple[int, ...], first: dict[int, int], last: dict[int, int]
) -> int:
    """max_alternation by bit-parallel counting, given each letter's first
    and last position (at least two letters occur).

    Each repeated letter owns a w-bit field of one int; `counts` holds every
    such letter's count so far, and `since[k]` the counts just after letter
    k's latest occurrence. `rows[k]` is k's row of credits, freed with its
    maximum at k's last occurrence.
    """
    repeated = [tok for tok, i in last.items() if first[tok] != i]
    field = {tok: k for k, tok in enumerate(repeated)}
    top = max(Counter(toks).values())
    w = 8
    while top >> (w - 1):  # 2^(w-1) > every count
        w *= 2
    fmt = {8: "B", 16: "H", 32: "I", 64: "Q"}[w]
    step = w // 8
    shift = w - 1
    ones = int.from_bytes(b"\x01".ljust(step, b"\x00") * len(repeated), "little")
    half = ones * ((1 << shift) - 1)
    alive = ones
    counts = 0
    since: list[int | None] = [None] * len(repeated)
    rows = [0] * len(repeated)
    best = 0
    for i, tok in enumerate(toks):
        k = field.get(tok)
        if k is None:
            continue
        bit = 1 << w * k
        prev = since[k]
        if prev is not None:
            seen = (counts - prev + half) >> shift & ones
            rows[k] += seen + (seen & alive)
        counts += bit
        if last[tok] != i:
            since[k] = counts
            continue
        alive ^= bit
        since[k] = None
        row, rows[k] = rows[k], 0
        if row:
            size = -(-row.bit_length() // w) * step
            high = max(memoryview(row.to_bytes(size, sys.byteorder)).cast(fmt))
            if high > best:
                best = high
    if not best:  # does a letter that occurs once lie inside a repeated letter's span?
        singles = sorted(i for tok, i in last.items() if first[tok] == i)
        for tok in repeated:
            k = bisect_right(singles, first[tok])
            if k < len(singles) and singles[k] < last[tok]:
                return 3
    return 2 + best


def is_ds(seq: Sequence, s: int) -> bool:
    """Davenport-Schinzel of order s: no adjacent equal letters, no alternation of length s+2."""
    if s < 1:
        raise ValueError("order must be >= 1")
    toks = seq.tokens
    if any(toks[i] == toks[i + 1] for i in range(len(toks) - 1)):
        return False
    return max_alternation(seq) <= s + 1


def _letter_set(letters: Iterable[int]) -> frozenset[int]:
    out = tuple(letters)
    lset = frozenset(out)
    if not lset:
        raise ValueError("formation query needs at least one letter")
    if len(lset) != len(out):
        raise ValueError("formation query letters must be pairwise distinct")
    return lset


def formation_length(seq: Sequence, letters: Iterable[int]) -> int:
    """Largest s such that seq contains s concatenated permutations of exactly these letters.

    Greedy left-to-right scan: collect distinct query letters, count a
    permutation and reset whenever all r have been seen. Letters absent from
    seq simply prevent permutations from completing (result 0).
    """
    lset = _letter_set(letters)
    need = len(lset)
    seen: set[int] = set()
    count = 0
    for tok in seq.tokens:
        if tok in lset and tok not in seen:
            seen.add(tok)
            if len(seen) == need:
                count += 1
                seen.clear()
    return count


def brute_formation_length(seq: Sequence, letters: Iterable[int], cap: int = 24) -> int:
    """Exact maximum formation length by exhaustive subsequence search.

    Considers every way of assembling consecutive permutations from the
    restriction (memoized on scan position and partially collected letters);
    independent of the greedy scan it validates. Restrictions longer than
    `cap` are refused.
    """
    lset = _letter_set(letters)
    restriction = [tok for tok in seq.tokens if tok in lset]
    if len(restriction) > cap:
        raise CapExceededError(
            f"restriction length {len(restriction)} exceeds cap {cap}"
        )
    need = len(lset)
    memo: dict[tuple[int, frozenset[int]], int] = {}

    def best_from(i: int, have: frozenset[int]) -> int:
        if i == len(restriction):
            return 0
        key = (i, have)
        hit = memo.get(key)
        if hit is not None:
            return hit
        tok = restriction[i]
        best = best_from(i + 1, have)  # skip this token
        if tok not in have:
            grown = have | {tok}
            if len(grown) == need:
                cand = 1 + best_from(i + 1, frozenset())
            else:
                cand = best_from(i + 1, grown)
            if cand > best:
                best = cand
        memo[key] = best
        return best

    return best_from(0, frozenset())


def max_formation_length(seq: Sequence, r: int) -> int:
    """Max of formation_length over all r-subsets of the alphabet (0 if alphabet < r).

    Letters are ordered by (-count, id), and the r-subsets are enumerated by
    their rarest letter: for k = r-1, r, ..., letters[k] with every
    (r-1)-subset of letters[:k]. Each subset has exactly one rarest index, so
    it is scanned at most once. A subset's value is at most its rarest
    letter's count, since each permutation uses every letter once, and the
    counts only fall with k; so the loop stops at the first k whose letter
    occurs no more often than the best value so far. Each scanned subset
    jumps from one completed permutation to the next through its letters'
    positions. More than MAX_SUBSETS r-subsets raise CapExceededError
    before any scan.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    positions: dict[int, list[int]] = defaultdict(list)
    for i, tok in enumerate(seq.tokens):
        positions[tok].append(i)
    letters = sorted(positions, key=lambda tok: (-len(positions[tok]), tok))
    if len(letters) < r:
        return 0
    if comb(len(letters), r) > MAX_SUBSETS:
        raise CapExceededError(
            f"C({len(letters)},{r}) subsets exceed cap {MAX_SUBSETS}"
        )
    best = 0
    for k in range(r - 1, len(letters)):
        rare = positions[letters[k]]
        if len(rare) <= best:  # so does every later letter
            break
        for head in combinations(letters[:k], r - 1):
            val = _greedy_formations([positions[tok] for tok in head] + [rare])
            if val > best:
                best = val
    return best


def _greedy_formations(lists: list[list[int]]) -> int:
    """formation_length's greedy count, from each letter's sorted positions:
    the next permutation completes at the latest first occurrence after the
    previous completion, and none does once some letter has no such
    occurrence."""
    val, end = 0, -1
    while True:
        nxt = end
        for lst in lists:
            k = bisect_right(lst, end)
            if k == len(lst):
                return val
            if lst[k] > nxt:
                nxt = lst[k]
        val += 1
        end = nxt


def avoids_all_formations(seq: Sequence, r: int, s: int) -> bool:
    """True iff seq contains no concatenation of s permutations of any r distinct letters.

    Each of those r letters occurs s times in it, so when fewer than r
    letters occur s times the answer is True without a subset scan."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if sum(count >= s for count in Counter(seq.tokens).values()) < r:
        return True
    return max_formation_length(seq, r) < s


def contains_pattern(seq: Sequence, u: Sequence) -> bool:
    """True iff some injective relabeling of u's letters embeds u as a subsequence of seq.

    Backtracks over partial letter assignments with a left-to-right scan on
    an explicit stack (one frame per matched pattern token, so pattern length
    is not bounded by the recursion limit); candidate letters are tried in
    increasing id order, and each chosen occurrence is the earliest available
    one.
    """
    utoks = normalize(u).tokens
    if not utoks:
        raise ValueError("pattern must be nonempty")
    positions: dict[int, list[int]] = defaultdict(list)
    for i, tok in enumerate(seq.tokens):
        positions[tok].append(i)
    letters = sorted(positions)
    if len(set(utoks)) > len(letters):
        return False
    # an embedding takes u's most frequent letter to one occurring as often
    if max(map(utoks.count, utoks)) > max(map(len, positions.values())):
        return False

    def first_at_or_after(letter: int, i: int) -> int | None:
        lst = positions[letter]
        k = bisect_left(lst, i)
        return lst[k] if k < len(lst) else None

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def options(k: int, i: int):
        """Positions for pattern token k at or after i; while one is out, the
        letter it took stays assigned."""
        a = utoks[k]
        if a in mapping:
            p = first_at_or_after(mapping[a], i)
            if p is not None:
                yield p
            return
        for cand in letters:
            if cand in used:
                continue
            p = first_at_or_after(cand, i)
            if p is not None:
                mapping[a] = cand
                used.add(cand)
                yield p
                del mapping[a]
                used.discard(cand)

    stack = [options(0, 0)]
    while stack:
        for p in stack[-1]:
            if len(stack) == len(utoks):
                return True
            stack.append(options(len(stack), p + 1))
            break
        else:
            stack.pop()
    return False
