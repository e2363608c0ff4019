"""Pure-Python search kernels: exhaustive branch-and-bound engines behind the oracles.

The compiled extension `_ckernels` mirrors `seq_search` and `matrix_search`
exactly: same arguments, same candidate order, same pruning, same node
accounting, so both twins return identical (value, witness, nodes,
truncated) tuples; `backends` picks one at import time. The kernel
specification is written once, here: each kernel of either twin passes
its own arguments once to `check_seq_search` or `check_matrix_search` (here
through the state it builds) and searches what that returns, the checked
arguments and every value derived from them, so both twins raise the same
errors and read the same values, and the compiled twin reads only values
that fit its buffers.

Each search state takes its kernel's arguments and offers the checked
`prefix`, `initial_best` and `node_budget`, and `depth`, `value`, `limit`,
`slack`, `candidates()`, `try_push(c)` (True if move c was admissible and
made), `pop()`, `leave()` (a pop once every move below was tried, where a
DS state stores what it learned in its table of relabeled states) and
`snapshot()` (a copy of the witness). A move adds at least as much depth as
value, so value + (limit - depth) bounds every extension; after the first
move, value + slack bounds it too. `_run`
forces the prefix and `_dfs` searches below it on an explicit stack;
`frontier` splits a state into such prefixes for the parallel search. A
node is one accepted move: a letter or a cell. The compiled twin has the
same shape: two states with these operations, one entry, its `run`, and
one loop, its `dfs`.

Sequence searches walk canonical sequences only (letter k+1 may appear only
after letters 1..k), which collapses letter-relabeling symmetry without
changing the extremal value. All admissibility predicates are hereditary
under prefix extension, so infeasible prefixes are cut immediately.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from operator import index, itemgetter

MODE_DS = 0
MODE_FORMATION = 1
MODE_PATTERN = 2

MAX_LETTERS = 60
MAX_CEILING = 50_000
MAX_SUBSETS = 1_000_000  # r-subsets: formation searches and `checks.max_formation_length`
MAX_COLUMNS = 62  # a row is one 64-bit word in the compiled twin
MAX_CELLS = 50_000
MAX_STATES = 1 << 22  # relabeled DS states a sequence search keeps (see `SeqState`)


def _c_ints(values, node_budget):
    """`values`, then `node_budget`, as ints, as the compiled twin parses them:
    TypeError for a non-int, then ValueError for a value beyond a C int or a
    budget beyond a C long long."""
    *values, node_budget = map(index, (*values, node_budget))
    if min(values) < -(2**31) or max(values) >= 2**31 or not -(2**63) <= node_budget < 2**63:
        raise ValueError("argument out of range")
    return (*values, node_budget)


def _int_tuple(items):
    """`items` as a tuple of ints: its length first, so that a one-shot
    iterable raises TypeError instead of being used up, then item by item,
    each an int (else TypeError)."""
    len(items)
    return tuple(map(index, items))


def check_seq_search(mode, n, j, ceiling, s=0, r=0, pattern=(), max_blocks=0, node_budget=0,
                     prefix=(), initial_best=-1):
    """Raise every error of `seq_search` but a refused prefix, in this order:
    non-int scalars, scalars beyond a C int (a C long long for the node
    budget), letters, ceiling, block budget, mode data (formation: r, then at
    most MAX_SUBSETS r-subsets; pattern: non-int letters, emptiness, the
    first letter outside 1..64, then the state encoding), forced prefix
    (non-int moves, then length and letter range). Only pattern mode reads
    `pattern`. Returns the arguments as both twins search them: ints, and
    tuples of ints for `pattern` (() outside pattern mode) and `prefix`;
    then the values derived once for both: the sparsity searched (max(j, 2)
    in DS mode, else j), the runs each letter pair may take (s + 1 in DS
    mode, else None), the starting slack and the most entries of the table
    of relabeled states: MAX_STATES in DS mode with s >= 0 when every state
    key fits the compiled twin's 64-bit code, else 0, no table (see
    `SeqState`)."""
    mode, n, j, ceiling, s, r, max_blocks, initial_best, node_budget = _c_ints(
        (mode, n, j, ceiling, s, r, max_blocks, initial_best), node_budget)
    if not 1 <= n <= MAX_LETTERS:
        raise ValueError(f"letter count must be in 1..{MAX_LETTERS}")
    if not 0 <= ceiling <= MAX_CEILING:
        raise ValueError(f"ceiling must be in 0..{MAX_CEILING}")
    if max_blocks and mode != MODE_DS:
        raise ValueError("block budgets only apply to DS searches")
    if mode == MODE_FORMATION:
        if r < 0:
            raise ValueError("r must be non-negative")
        if comb(n, r) > MAX_SUBSETS:
            raise ValueError(f"r-subset count exceeds the {MAX_SUBSETS} search limit")
    elif mode == MODE_PATTERN:
        pattern = _int_tuple(pattern)
        if not pattern:
            raise ValueError("pattern must be nonempty")
        bad = next((a for a in pattern if not 1 <= a <= 64), 1)  # the first one decides
        if bad < 1:
            raise ValueError("pattern letters must be positive")
        # mappings are packed into 64-bit codes in the compiled twin
        if bad > 64 or (n + 1) ** max(pattern) * (len(pattern) + 1) >= 2**63:
            raise ValueError("pattern alphabet too large for the state encoding")
    elif mode != MODE_DS:
        raise ValueError(f"unknown mode {mode}")
    prefix = _int_tuple(prefix)
    if len(prefix) > ceiling or not all(1 <= c <= n for c in prefix):
        raise ValueError("forced prefix must fit the ceiling and letter range")
    pattern = pattern if mode == MODE_PATTERN else ()
    if mode == MODE_DS:
        # the key's digits: the used letters, a run count per pair of them and,
        # under a block budget, the blocks left (or none) and the block size
        codes = (n + 1) * (s + 1) ** comb(n, 2) * ((max_blocks + 2) * (n + 1) if max_blocks else 1)
        states = MAX_STATES if s >= 0 and codes < 2**64 else 0
        derived = (max(j, 2), s + 1, (s + 1) * comb(n, 2), states)
    else:
        derived = (j, None, MAX_CEILING, 0)
    return (mode, n, j, ceiling, s, r, pattern, max_blocks, node_budget, prefix, initial_best,
            *derived)


def check_matrix_search(n, m, p_rows, pn, pm, node_budget=0, prefix=(), initial_best=-1,
                        row_bounds=()):
    """Raise every error of `matrix_search` but a refused prefix, in this
    order: non-int scalars, scalars beyond a C int (a C long long for the
    node budget), rows and columns, cells, pattern dimensions, pattern rows
    (non-int rows, then pn of them), the row-bound table (non-int bounds,
    then at most n, bound k in 0..k*m), forced prefix (non-int moves, then
    length and 0/1 bits). Returns the arguments as both twins search them:
    ints, and tuples of ints for `p_rows`, `prefix` and `row_bounds`; then
    the values derived once for both (see `MatrixState`): P's rows as
    searched (masked to pm columns; all 0 if P does not fit the host),
    `last`, `equal_rows`, `equal_cols` and the row table padded to n + 1."""
    n, m, pn, pm, initial_best, node_budget = _c_ints((n, m, pn, pm, initial_best), node_budget)
    if n < 1 or m < 1 or m > MAX_COLUMNS:
        raise ValueError(f"need 1 <= n and 1 <= m <= {MAX_COLUMNS}")
    if n * m > MAX_CELLS:
        raise ValueError(f"cell count exceeds the {MAX_CELLS} search limit")
    if pn < 0 or pm < 0:
        raise ValueError("pattern dimensions must be non-negative")
    p_rows = _int_tuple(p_rows)
    if len(p_rows) != pn:
        raise ValueError("p_rows must hold pn row masks")
    row_bounds = _int_tuple(row_bounds)
    if len(row_bounds) > n or not all(0 <= b <= k * m for k, b in enumerate(row_bounds)):
        raise ValueError("row_bounds must hold at most n bounds, bound k in 0..k*m")
    prefix = _int_tuple(prefix)
    if len(prefix) > n * m or not all(0 <= c <= 1 for c in prefix):
        raise ValueError("forced prefix must be 0/1 bits within the cell count")
    fits = pn <= n and pm <= m
    rows = tuple(r & ((1 << pm) - 1) for r in p_rows) if fits else (0,) * pn
    last = max((u for u, r in enumerate(rows) if r), default=-1)
    equal_cols = fits and all(r in (0, (1 << pm) - 1) for r in rows)
    bounds = row_bounds + tuple(k * m for k in range(len(row_bounds), n + 1))
    return (n, m, p_rows, pn, pm, node_budget, prefix, initial_best, row_bounds, rows, last,
            all(r == rows[0] for r in rows), equal_cols, bounds)


class SeqState:
    """Incremental admissibility state for canonical sequence search.

    Tracks, per appended token: last occurrence positions (sparsity), run
    counts per letter pair (alternations), greedy formation progress per
    r-subset (formation mode), and the partial pattern embeddings (pattern
    mode). DS mode optionally tracks the greedy minimal block partition for
    block-budgeted searches.

    Alternation budget (DS mode): `alt` counts the runs of each letter
    pair's restriction (the sequence with every other letter deleted), and
    a push that would give some pair more than cap = s + 1 runs is refused,
    the definition of order s. `runs_left` is cap C(n,2) minus the sum of
    `alt` over all letter pairs, so it is what the pairs can still take
    before each reaches its cap. It bounds the tokens still to come once the
    sequence is nonempty: since jeff >= 2, every token after the first
    differs from its predecessor p, and the pair {p, c} last saw p, so the
    token starts a new run of {p, c} and raises its `alt` by one. Block
    budgets only refuse more tokens, so the bound holds with them too.
    After a push, `slack` is `runs_left`, tightened by the table below.
    Formation and pattern searches have no such budget; their slack is
    MAX_CEILING, which no search can exceed.

    Table of relabeled states (DS mode, when `states` > 0). Rank the u used
    letters by last occurrence, the most recent 0. The key of a nonempty
    state is u, the `alt` of each pair of used letters in rank order and,
    with a block budget whose blocks left are fewer than `runs_left`, the
    blocks left and the size of the current block. Two states with one key
    have the same extensions, up to the relabeling that maps equal ranks to
    each other and new letters to new letters:
    - sparsity: the last jeff - 1 tokens of a jeff-sparse sequence are
      distinct, so they are its jeff - 1 most recent letters (all of them
      while it is shorter): a used letter may come next iff its rank is at
      least min(u, jeff - 1), and a new letter always may;
    - pair runs: c raises the runs of {b, c} iff b occurred after c, which
      the ranks say; a pair with an unused letter holds 1 run (0 if both
      are unused), which u says, so the pairs never need a key digit;
    - new letters: every unused letter is alike, and the canonical next one
      (u + 1; the smallest unused one after a forced prefix with gaps) is
      among the candidates, so the longest extension is searched;
    - blocks: the current block is the suffix of distinct letters, so its
      letters are ranks 0..size - 1, and a push starts a block iff its
      letter is in it. Once the blocks left are at least `runs_left`, no
      push below can be refused by the budget (each token to come takes a
      pair run and starts at most one block), so the plain key applies.
    So `table[key]` bounds the tokens still to come below every state with
    that key. After a push, slack = min(runs_left, table[key]), and `_dfs`
    cuts on value + min(limit - depth, slack) <= best as before. When `_dfs`
    backs out of a node whose moves were all tried (`leave`), the node's
    bound is the largest 1 + bound over its accepted children: for a child
    it expanded, what that child stored, and for a child it cut, the
    child's slack; a refused move adds nothing. The node stores min(old
    entry, that bound), when it is below `runs_left` (an entry no tighter
    cuts nothing). No entry uses limit - depth, and a child cut by the
    ceiling or by the best gives its slack, not 0, so every entry bounds
    the untruncated subtree and holds under any ceiling, best or
    `initial_best`. A cut removes only states that cannot beat the best,
    and `_dfs` keeps only strict improvements, so the first state of the
    final value in DFS order is still met: values, witnesses and
    `truncated` are those of the search without the table, and only node
    counts fall. The table keeps at most `states` keys; once full it takes
    no new key, but stored entries still tighten. Both twins store the same
    keys in the same order, so their tables and node counts agree whatever
    hash each uses. The compiled twin codes a key in 64 bits (u, then
    alt - 1 per pair in base s + 1, then the block digits), so
    `check_seq_search` gives `states` = 0 when a code may not fit.

    Pattern embeddings (pattern mode): `reach` maps each partial mapping mp
    (mp[a-1] the image of pattern letter a, 0 if unmapped) to the greatest
    k such that the sequence embeds pattern[:k] under mp. One k per mapping
    is exact: if pattern[:k] and pattern[:k'] with k < k' both embed under
    mp, every letter of pattern[:k'] is already mapped, so the state at k
    can only advance along the letters mp fixes, which the state at k' can
    match no later; whatever the smaller state embeds in a continuation,
    the larger one embeds on the same push or earlier. The sequence
    contains the pattern exactly when some state reaches len(pattern).
    `waiting[x]` holds the mappings whose next pattern letter,
    pattern[reach[mp]], has image x (0: unmapped), so a push of c visits
    only waiting[c], which advance, and waiting[0], which may map a letter
    to c.
    """

    def __init__(self, mode, n, j, ceiling=MAX_CEILING, s=0, r=0, pattern=(), max_blocks=0,
                 node_budget=0, prefix=(), initial_best=-1):
        (mode, n, j, ceiling, s, r, pattern, max_blocks, self.node_budget, self.prefix,
         self.initial_best, self.jeff, self.cap, self.slack, self.states) = check_seq_search(
            mode, n, j, ceiling, s, r, pattern, max_blocks, node_budget, prefix, initial_best)
        self.runs_left = self.slack
        self.mode = mode
        self.n = n
        self.limit = ceiling
        self.s = s
        self.tokens = []
        self.depth = self.value = 0
        self.last_pos = [0] * (n + 1)
        self.used_max = 0
        self.undo = []
        self.max_blocks = max_blocks
        self.block_mask = 0
        self.blocks_used = 0
        if mode == MODE_DS:
            size = (n + 1) * (n + 1)
            self.alt = [0] * size
            self.alt_last = [0] * size
            # pair_slots[c]: the slot min(b, c) * (n+1) + max(b, c) of each pair {b, c}
            self.pair_slots = [
                [min(b, c) * (n + 1) + max(b, c) for b in range(1, n + 1) if b != c]
                for c in range(n + 1)
            ]
        # the table of relabeled states; without one, backing out is a pop
        self.table = {} if self.states else None
        if self.table is None:
            self.leave = self.pop
        else:
            # per depth: the used letters, most recent first, the key, and the
            # largest 1 + bound of the node's children so far
            self.orders = [()] * (ceiling + 1)
            self.keys = [None] * (ceiling + 1)
            self.acc = [0] * (ceiling + 1)
            self.readers = {}  # per order: its pairs' `alt` in rank order
        if mode == MODE_FORMATION:
            subs = list(combinations(range(1, n + 1), r))
            self.sub_full = [sum(1 << v for v in sub) for sub in subs]
            self.sub_partial = [0] * len(subs)
            self.sub_count = [0] * len(subs)
            self.letter_subs = [[] for _ in range(n + 1)]
            for idx, sub in enumerate(subs):
                for v in sub:
                    self.letter_subs[v].append(idx)
        elif mode == MODE_PATTERN:
            self.pattern = tuple(pattern)
            self.slot = tuple(a - 1 for a in self.pattern)  # mapping index per position
            empty = (0,) * max(self.pattern)
            self.reach = {empty: 0}
            self.waiting = [set() for _ in range(n + 1)]
            self.waiting[0].add(empty)

    def candidates(self):
        u = self.used_max  # canonical letters 1..min(u + 1, n); min() is slow here
        return range(1, u + 2 if u < self.n else u + 1)

    def try_push(self, c):
        """Append letter c if the extension stays admissible; True on success."""
        pos = len(self.tokens) + 1
        lp = self.last_pos[c]
        if lp and pos - lp < self.jeff:
            return False
        mode = self.mode
        extra = bumps = None
        prev_mask = self.block_mask
        prev_used = self.blocks_used
        if self.max_blocks:
            if prev_mask == 0 or (prev_mask >> c) & 1:
                if prev_used + 1 > self.max_blocks:
                    return False
        if self.cap is not None:
            alt, alt_last, cap = self.alt, self.alt_last, self.cap
            bumps = []
            for idx in self.pair_slots[c]:
                last = alt_last[idx]
                if last != c:
                    if alt[idx] >= cap:  # the run would be pair idx's (cap+1)-th
                        return False
                    bumps.append((idx, last))
        if mode == MODE_FORMATION:
            bit = 1 << c
            extra = []
            for si in self.letter_subs[c]:
                pm = self.sub_partial[si]
                if pm & bit:
                    continue
                if (pm | bit) == self.sub_full[si]:
                    if self.sub_count[si] + 1 >= self.s:
                        return False
                    extra.append((si, pm, True))
                else:
                    extra.append((si, pm, False))
            for si, pm, completed in extra:
                if completed:
                    self.sub_count[si] += 1
                    self.sub_partial[si] = 0
                else:
                    self.sub_partial[si] = pm | bit
        elif mode == MODE_PATTERN:
            reach, slot, waiting = self.reach, self.slot, self.waiting
            last = len(slot) - 1
            fresh = []
            for mp in waiting[c]:
                k = reach[mp]
                if k == last:
                    return False
                fresh.append((mp, k + 1))
            for mp in waiting[0]:
                if c not in mp:
                    k = reach[mp]
                    if k == last:
                        return False
                    a = slot[k]
                    fresh.append((mp[:a] + (c,) + mp[a + 1:], k + 1))
            extra = []  # (mapping, its k before the push or -1 if new)
            for mp, k in fresh:
                old = reach.get(mp, -1)
                if old < k:
                    extra.append((mp, old))
                    if old >= 0:
                        waiting[mp[slot[old]]].remove(mp)
                    reach[mp] = k
                    waiting[mp[slot[k]]].add(mp)
        if bumps is not None:
            for idx, _old in bumps:
                alt[idx] += 1
                alt_last[idx] = c
            self.runs_left -= len(bumps)
        if self.max_blocks:
            if prev_mask == 0 or (prev_mask >> c) & 1:
                self.blocks_used = prev_used + 1
                self.block_mask = 1 << c
            else:
                self.block_mask = prev_mask | (1 << c)
        self.undo.append((c, lp, self.used_max, prev_mask, prev_used, bumps, extra, self.slack))
        self.last_pos[c] = pos
        if c > self.used_max:
            self.used_max = c
        self.tokens.append(c)
        self.depth = self.value = pos
        if bumps is not None:
            if self.table is None:
                self.slack = self.runs_left
            else:  # an entry is below runs_left
                self.slack = self.table.get(self._key(c, lp, pos), self.runs_left)
        return True

    def _key(self, c, lp, pos):
        """The key of the state just made by pushing c at `pos` (`lp`: c's
        last position before), kept with the order of its used letters: the
        tuple of the used pairs' `alt` in rank order, whose length C(u, 2)
        gives u >= 1, then with a block part, (that tuple, blocks left, block
        size)."""
        order = self.orders[pos - 1]
        if lp:
            i = order.index(c)
            order = (c,) + order[:i] + order[i + 1:]
        else:
            order = (c,) + order
        self.orders[pos] = order
        read = self.readers.get(order)
        if read is None:
            n1 = self.n + 1
            slots = [min(a, b) * n1 + max(a, b) for i, a in enumerate(order) for b in order[i + 1:]]
            # itemgetter gives a tuple for two items or more
            read = itemgetter(*slots) if len(slots) > 1 else lambda alt: tuple(alt[i] for i in slots)
            self.readers[order] = read
        key = read(self.alt)
        if self.max_blocks:
            left = self.max_blocks - self.blocks_used
            if left < self.runs_left:
                key = (key, left, self.block_mask.bit_count())
        self.keys[pos] = key
        self.acc[pos] = 0
        return key

    def pop(self):
        """Undo the newest move; with a table, the node gives 1 + its slack
        to its parent's bound."""
        c, lp, prev_umax, prev_mask, prev_used, bumps, extra, slack = self.undo.pop()
        self.tokens.pop()
        d = self.depth = self.value = len(self.tokens)
        self.last_pos[c] = lp
        self.used_max = prev_umax
        self.block_mask = prev_mask
        self.blocks_used = prev_used
        if bumps is not None:
            for idx, old in bumps:
                self.alt[idx] -= 1
                self.alt_last[idx] = old
            self.runs_left += len(bumps)
            if self.table is not None:
                bound = self.slack + 1
                if bound > self.acc[d]:
                    self.acc[d] = bound
            self.slack = slack
        mode = self.mode
        if mode == MODE_FORMATION:
            for si, pm, completed in extra:
                if completed:
                    self.sub_count[si] -= 1
                self.sub_partial[si] = pm
        elif mode == MODE_PATTERN:
            reach, slot, waiting = self.reach, self.slot, self.waiting
            for mp, old in reversed(extra):  # a mapping may be raised twice
                waiting[mp[slot[reach[mp]]]].remove(mp)
                if old < 0:
                    del reach[mp]
                else:
                    reach[mp] = old
                    waiting[mp[slot[old]]].add(mp)

    def leave(self):
        """Back out of the newest move after all moves below it were tried:
        store its bound, the smaller of its slack and its children's, in
        the table, then pop. Without a table this is `pop`."""
        d = self.depth
        bound = self.acc[d]
        if bound < self.slack:
            # an entry is below runs_left, so a smaller slack is the key's entry
            if self.slack < self.runs_left or len(self.table) < self.states:
                self.table[self.keys[d]] = bound
            self.slack = bound
        self.pop()

    def snapshot(self):
        return list(self.tokens)


class MatrixState:
    """Row-major 0-1 fill of an n x m matrix avoiding the pattern P (rows
    `p_rows`, pn x pm): each move sets the next cell, 1 before 0, and a 1
    that makes the matrix contain P is refused. `row_bounds[k]`, for k < n,
    bounds the ones of a P-free k x m matrix; a missing entry counts as k m.
    P's rows as searched, `last`, the rule flags and the padded table are
    `check_matrix_search`'s, which both twins read.

    Containment through the new cell: the matrix was P-free before the
    push, so an occurrence after it uses the new 1 at (i, c), which an entry
    of P then covers. Rows below i are still 0, so the P rows mapped below i
    are empty, and row i takes P's last nonempty row, `last`; the P rows
    above it take `last` rows above i. Only those row selections are
    checked, with enough rows left below i for P's trailing empty rows. For
    each, a P column's candidates are the AND of the host rows whose P rows
    have a 1 in it, and P's columns are matched greedily, left to right, each
    to the first candidate after the previous one.

    Russian-doll slack (Verfaillie, Lemaitre & Schiex, AAAI 1996): deleting
    rows keeps a matrix P-free, so with the next cell at (i, c), rows below
    i hold at most row_bounds[n-i-1] ones and rows i.. hold at most
    row_bounds[n-i]. The ones still to come are therefore at most
    min((m - c) + row_bounds[n-i-1], row_bounds[n-i] - ones in row i), the
    `slack` after the move. It bounds every P-free completion, whatever the
    order rules below refuse. With no table it is the cells left.

    Row-order rule: when every row of P is equal as searched (on its pm
    columns; all 0 when P does not fit, so no host contains it), a 1 at
    cell (i, c) is also refused if row i-1 has a 0 at column c and row i
    equals row i-1 on the columns before c, so the rows stay non-increasing
    in the row-major, 1-before-0 order.

    Column rule: when every column of P is equal (each P row is empty or
    full), a 1 at (i, c) is refused if cell (i, c-1) is 0 and columns c-1 and
    c agree above row i, so the columns stay non-increasing read top-down,
    1 before 0. `tie[i]` has bit c set when columns c-1 and c agree on
    rows 0..i-1; it is set on the first move into row i. With both rules
    the order is double-lex (Flener et al., CP 2002).

    The order rules change no value or witness:
    - with equal P rows (columns), whether some host rows and columns
      contain P does not depend on the order of those rows (columns), so
      permuting host rows (columns) keeps the host P-free;
    - swapping two adjacent rows (columns) that are out of order makes a
      matrix lexicographically larger (row-major, 1 before 0), so the
      lexicographically largest matrix of a set closed under those
      permutations is sorted in them;
    - `_dfs` tries 1 before 0 and keeps only strict improvements, so it
      returns the lexicographically largest optimal matrix, which is
      therefore already sorted and never refused; the slack, an admissible
      bound, never cuts the path to it.
    Only node counts fall; the split frontier uses this state, so its
    prefixes obey the rules too."""

    def __init__(self, n, m, p_rows, pn, pm, node_budget=0, prefix=(), initial_best=-1,
                 row_bounds=()):
        (n, m, _, pn, pm, self.node_budget, self.prefix, self.initial_best, _, rows, self.last,
         self.equal_rows, self.equal_cols, rd) = check_matrix_search(
            n, m, p_rows, pn, pm, node_budget, prefix, initial_best, row_bounds)
        self.n, self.m = n, m
        self.limit = n * m
        # row i can take P's last nonempty row when i >= last and the rows below suffice
        self.checked = [0 <= self.last <= i <= n - pn + self.last for i in range(n)]
        # per P column: the P rows up to `last` with a 1 in it; none unless P fits
        self.col_rows = [tuple(u for u in range(self.last + 1) if (rows[u] >> v) & 1)
                         for v in range(pm if self.last >= 0 else 0)]
        self.full = (1 << m) - 1
        self.rows = [0] * (n + 1)  # row n stays 0: the row of the cell past the last
        self.tie = [self.full] * n
        self.bits = []
        self.depth = self.value = 0
        # after a move to depth d, the next cell is (i, c) = divmod(d, m)
        self.cell = [divmod(d, m) for d in range(n * m + 1)]
        self.cap_cells = [(m - c) + rd[n - i - 1] if i < n else 0 for i, c in self.cell]
        self.cap_rows = [rd[n - i] if i < n else 0 for i, _ in self.cell]
        self.slack = self.limit

    def candidates(self):
        return (1, 0)

    def completes(self, i, row):
        """Does row i, set to `row` by a 1, complete an occurrence of P with
        the rows above it? The rows above and the fill line must be P-free."""
        if not self.checked[i]:
            return False
        full, col_rows = self.full, self.col_rows
        for sel in combinations(self.rows[:i], self.last):
            h = sel + (row,)
            pos = 0  # the first column not yet matched
            for need in col_rows:
                c = full
                for w in need:
                    c &= h[w]
                c >>= pos
                if not c:
                    break
                pos += (c & -c).bit_length()
            else:
                return True
        return False

    def try_push(self, bit):
        d = self.depth
        i, c = self.cell[d]
        rows = self.rows
        if c == 0 and i and self.equal_cols:
            above = rows[i - 1]
            self.tie[i] = self.tie[i - 1] & ~(above ^ (above << 1))
        if bit:
            row = rows[i]
            if self.equal_rows and i:
                above = rows[i - 1]
                if not (above >> c) & 1 and row == above & ((1 << c) - 1):
                    return False
            if self.equal_cols and c and not (row >> (c - 1)) & 1 and (self.tie[i] >> c) & 1:
                return False
            row |= 1 << c
            if self.completes(i, row):
                return False
            rows[i] = row
            self.value += 1
        self.bits.append(bit)
        d += 1
        self.depth = d
        slack = self.cap_rows[d] - rows[self.cell[d][0]].bit_count()
        cells = self.cap_cells[d]
        self.slack = cells if cells < slack else slack
        return True

    def pop(self):
        self.depth -= 1
        if self.bits.pop():
            i, c = self.cell[self.depth]
            self.rows[i] ^= 1 << c
            self.value -= 1

    leave = pop

    def snapshot(self):
        return self.rows[:self.n]


def _dfs(st, best, witness, node_budget):
    """Depth-first branch-and-bound below state `st`, up to `st.limit`, on
    an explicit stack. Returns (best, witness, nodes, truncated).

    Subtrees where value + (limit - depth) <= best are skipped, and so are
    those below a move where value + slack <= best (the state's own bound,
    which holds once a move is made). It backs out of a cut move by `pop`
    and out of a searched one by `leave`; the search stops once best reaches
    `limit` and sets `truncated` only when `node_budget` (0: none) runs out,
    checked before every candidate.

    A new best is copied only when the search first backs out of it or stops
    on it: until then every move raises the value again or leaves the
    witness as it is (a 0 cell), so the current state is the witness, and a
    straight path of any depth costs one copy.
    """
    nodes, limit = 0, st.limit
    push, pop, leave, candidates = st.try_push, st.pop, st.leave, st.candidates
    stack = [iter(candidates())] if st.value + (limit - st.depth) > best else []
    while stack:  # witness None: the current state is a best not yet copied
        for c in stack[-1]:
            if node_budget and nodes >= node_budget:
                return best, st.snapshot() if witness is None else witness, nodes, True
            if not push(c):
                continue
            nodes += 1
            value = st.value
            if value > best:
                best = value
                if best >= limit:
                    return best, st.snapshot(), nodes, False
                witness = None
            if value + (limit - st.depth) > best and value + st.slack > best:
                stack.append(iter(candidates()))
                break
            if witness is None:
                witness = st.snapshot()
            pop()
        else:
            stack.pop()
            if stack:
                if witness is None:
                    witness = st.snapshot()
                leave()
    return best, witness, nodes, False


def frontier(st, depth):
    """The admissible move tuples of length min(`depth`, `st.limit`) from
    `st`, each the `prefix` that forces its state, with the best value met
    on the way, its witness and the nodes: (prefixes, best, witness, nodes).
    A length of 0 gives no prefix."""
    depth = min(depth, st.limit)
    prefixes, path = [], []  # path: the moves down to the current state
    best, witness, nodes = st.value, st.snapshot(), 0
    stack = [iter(st.candidates())] if depth > 0 else []
    while stack:
        for c in stack[-1]:
            if not st.try_push(c):
                continue
            nodes += 1
            path[len(stack) - 1:] = (c,)
            if st.value > best:
                best, witness = st.value, st.snapshot()
            if st.depth < depth:
                stack.append(iter(st.candidates()))
                break
            prefixes.append(tuple(path))
            st.pop()
        else:
            stack.pop()
            if stack:
                st.pop()
    return prefixes, best, witness, nodes


def _run(st, refused):
    """Force the state's `prefix`, then search below it from a best of at
    least its `initial_best` under its `node_budget`, as the compiled twin's
    `run` does; `refused` may show the prefix as {!r}."""
    for c in st.prefix:
        if not st.try_push(c):
            raise ValueError(refused.format(st.prefix))
    return _dfs(st, max(st.initial_best, st.value), st.snapshot(), st.node_budget)


def seq_search(mode, n, j, ceiling, s=0, r=0, pattern=(), max_blocks=0, node_budget=0,
               prefix=(), initial_best=-1):
    """Depth-first maximum-length search over canonical admissible sequences.

    `s` is the DS order in DS mode and the formation length in formation
    mode; pattern mode ignores it, as every mode but formation ignores `r`.
    Returns (best, witness_tokens, nodes, truncated). `truncated` is set
    only when the node budget ran out; the search also stops once best
    reaches `ceiling`, which is exact whenever the ceiling is a valid upper
    bound.
    """
    return _run(SeqState(mode, n, j, ceiling, s, r, pattern, max_blocks, node_budget, prefix,
                         initial_best), "forced prefix {!r} is not admissible")


def matrix_search(n, m, p_rows, pn, pm, node_budget=0, prefix=(), initial_best=-1,
                  row_bounds=()):
    """Fill cells row-major, 1 before 0, pruning on containment and on
    ones-so-far + slack <= best (`MatrixState`, with `row_bounds` its
    Russian-doll table); `prefix` forces the first cells (0/1 bits). Returns
    (best, rows, nodes, truncated)."""
    return _run(MatrixState(n, m, p_rows, pn, pm, node_budget, prefix, initial_best, row_bounds),
                "forced prefix contains the pattern or breaks the row or column order")
