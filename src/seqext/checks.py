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
* `max_alternation` counts switches in one recency scan. A repeated token a
  opens a new run of the pair {a, b} exactly when b occurred since the
  previous a, so it credits into[a][b] for each b after a in recency order.
  The first occurrences of a and b open the pair's first two runs, and every
  later run is opened by such a repeat, of a or of b. So a pair of letters
  that both occur has 2 + into[a][b] + into[b][a] runs, and only the final
  pass over the rows looks at pairs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from collections.abc import Iterable
from itertools import combinations
from math import comb

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

    `recent` holds the letters by last occurrence, oldest first; the letters
    after tok in it are those seen since tok's previous occurrence.
    `into[a][b]` counts the runs of {a, b} that a opened after the first two.
    """
    recent: dict[int, None] = {}
    into: dict[int, dict[int, int]] = {}
    for tok in seq.tokens:
        if tok in recent:
            row = into[tok]
            for b in reversed(recent):
                if b == tok:
                    break
                row[b] = row.get(b, 0) + 1
            del recent[tok]
        else:
            into[tok] = {}
        recent[tok] = None
    if len(recent) < 2:
        return 0
    best = 0
    for a, row in into.items():
        for b, count in row.items():
            count += into[b].get(a, 0)
            if count > best:
                best = count
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
