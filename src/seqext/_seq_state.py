"""The pure twin's sequence search state, `SeqState`: DS, formation and
pattern searches over canonical sequences, with the table of relabeled DS
states. It offers the operations `_kernels_py` describes and reads its
arguments from `_kernels_py.check_seq_search`.

`_kernels_py.seq_search` and the split frontier of a sequence oracle import
this module when they first build a state, so a matrix search or a search
on the compiled twin never compiles it.
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter

from . import _kernels_py
from ._kernels_py import MAX_CEILING, MODE_DS, MODE_FORMATION, MODE_PATTERN


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
        checked = _kernels_py.check_seq_search(  # the one check, which the C twin calls too
            mode, n, j, ceiling, s, r, pattern, max_blocks, node_budget, prefix, initial_best)
        (mode, n, j, ceiling, s, r, pattern, max_blocks, self.node_budget, self.prefix,
         self.initial_best, self.jeff, self.cap, self.slack, self.states) = checked
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
