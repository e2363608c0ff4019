"""Pure-Python search kernels: exhaustive branch-and-bound engines behind the oracles.

The compiled extension `_ckernels` mirrors this module exactly: same
candidate order, same pruning, same node accounting, so both backends
return identical (value, witness, nodes, truncated) tuples. `backends`
picks one at import time.

Sequence searches walk canonical sequences only (letter k+1 may appear only
after letters 1..k), which collapses letter-relabeling symmetry without
changing the extremal value. All admissibility predicates are hereditary
under prefix extension, so infeasible prefixes are cut immediately. A node
is one accepted token (or cell) placement.
"""

from __future__ import annotations

import sys
from itertools import combinations

MODE_DS = 0
MODE_FORMATION = 1
MODE_PATTERN = 2

MAX_LETTERS = 60
MAX_CEILING = 50_000


class SeqState:
    """Incremental admissibility state for canonical sequence search.

    Tracks, per appended token: last occurrence positions (sparsity), run
    counts per letter pair (alternations, DS mode), greedy formation
    progress per r-subset (formation mode), and the antichain of partial
    pattern embeddings (pattern mode). DS mode optionally tracks the greedy
    minimal block partition for block-budgeted searches.
    """

    def __init__(self, mode, n, j, s=0, r=0, pattern=(), max_blocks=0):
        if not 1 <= n <= MAX_LETTERS:
            raise ValueError(f"letter count must be in 1..{MAX_LETTERS}")
        self.mode = mode
        self.n = n
        self.jeff = max(j, 2) if mode == MODE_DS else j
        self.s = s
        self.tokens = []
        self.last_pos = [0] * (n + 1)
        self.used_max = 0
        self.undo = []
        self.max_blocks = max_blocks
        self.block_mask = 0
        self.blocks_used = 0
        if max_blocks and mode != MODE_DS:
            raise ValueError("block budgets only apply to DS searches")
        if mode == MODE_DS:
            size = (n + 1) * (n + 1)
            self.alt = [0] * size
            self.alt_last = [0] * size
        elif mode == MODE_FORMATION:
            subs = list(combinations(range(1, n + 1), r)) if r <= n else []
            self.sub_full = [sum(1 << v for v in sub) for sub in subs]
            self.sub_partial = [0] * len(subs)
            self.sub_count = [0] * len(subs)
            self.letter_subs = [[] for _ in range(n + 1)]
            for idx, sub in enumerate(subs):
                for v in sub:
                    self.letter_subs[v].append(idx)
        elif mode == MODE_PATTERN:
            self.pattern = tuple(pattern)
            if not self.pattern:
                raise ValueError("pattern must be nonempty")
            if min(self.pattern) < 1:
                raise ValueError("pattern letters must be positive")
            self.ru = max(self.pattern)
            # embedding states are packed into 64-bit codes in the compiled twin
            if (n + 1) ** self.ru * (len(self.pattern) + 1) >= 2**63:
                raise ValueError("pattern alphabet too large for the state encoding")
            self.state_stack = [frozenset({(0, (0,) * self.ru)})]
        else:
            raise ValueError(f"unknown mode {mode}")

    def try_push(self, c):
        """Append letter c if the extension stays admissible; True on success."""
        pos = len(self.tokens) + 1
        lp = self.last_pos[c]
        if lp and pos - lp < self.jeff:
            return False
        mode = self.mode
        n = self.n
        extra = None
        prev_mask = self.block_mask
        prev_used = self.blocks_used
        if mode == MODE_DS:
            if self.max_blocks:
                if prev_mask == 0 or (prev_mask >> c) & 1:
                    if prev_used + 1 > self.max_blocks:
                        return False
            limit = self.s + 1
            bumps = []
            for b in range(1, n + 1):
                if b == c:
                    continue
                idx = c * (n + 1) + b if c < b else b * (n + 1) + c
                if self.alt_last[idx] != c:
                    if self.alt[idx] + 1 > limit:
                        return False
                    bumps.append((idx, self.alt_last[idx]))
            for idx, _old in bumps:
                self.alt[idx] += 1
                self.alt_last[idx] = c
            extra = bumps
            if self.max_blocks:
                if prev_mask == 0 or (prev_mask >> c) & 1:
                    self.blocks_used = prev_used + 1
                    self.block_mask = 1 << c
                else:
                    self.block_mask = prev_mask | (1 << c)
        elif mode == MODE_FORMATION:
            bit = 1 << c
            changes = []
            for si in self.letter_subs[c]:
                pm = self.sub_partial[si]
                if pm & bit:
                    continue
                if (pm | bit) == self.sub_full[si]:
                    if self.sub_count[si] + 1 >= self.s:
                        return False
                    changes.append((si, pm, True))
                else:
                    changes.append((si, pm, False))
            for si, pm, completed in changes:
                if completed:
                    self.sub_count[si] += 1
                    self.sub_partial[si] = 0
                else:
                    self.sub_partial[si] = pm | bit
            extra = changes
        else:  # MODE_PATTERN
            cur = self.state_stack[-1]
            plen = len(self.pattern)
            fresh = []
            for k, mp in cur:
                a = self.pattern[k]
                tgt = mp[a - 1]
                if tgt == c:
                    if k + 1 == plen:
                        return False
                    fresh.append((k + 1, mp))
                elif tgt == 0 and c not in mp:
                    if k + 1 == plen:
                        return False
                    fresh.append((k + 1, mp[: a - 1] + (c,) + mp[a:]))
            self.state_stack.append(cur | frozenset(fresh))
        self.undo.append((c, lp, self.used_max, prev_mask, prev_used, extra))
        self.last_pos[c] = pos
        if c > self.used_max:
            self.used_max = c
        self.tokens.append(c)
        return True

    def pop(self):
        c, lp, prev_umax, prev_mask, prev_used, extra = self.undo.pop()
        self.tokens.pop()
        self.last_pos[c] = lp
        self.used_max = prev_umax
        self.block_mask = prev_mask
        self.blocks_used = prev_used
        mode = self.mode
        if mode == MODE_DS:
            for idx, old in extra:
                self.alt[idx] -= 1
                self.alt_last[idx] = old
        elif mode == MODE_FORMATION:
            for si, pm, completed in extra:
                if completed:
                    self.sub_count[si] -= 1
                self.sub_partial[si] = pm
        else:
            self.state_stack.pop()


def seq_search(
    mode,
    n,
    j,
    ceiling,
    s=0,
    r=0,
    pattern=(),
    max_blocks=0,
    node_budget=0,
    prefix=(),
    initial_best=-1,
):
    """Depth-first maximum-length search over canonical admissible sequences.

    Returns (best, witness_tokens, nodes, truncated). `truncated` is set only
    when the node budget ran out; the search also stops once best reaches
    `ceiling`, which is exact whenever the ceiling is a valid upper bound.
    """
    if not 0 <= ceiling <= MAX_CEILING:
        raise ValueError(f"ceiling must be in 0..{MAX_CEILING}")
    if len(prefix) > ceiling or any(not 1 <= tok <= n for tok in prefix):
        raise ValueError("forced prefix must fit the ceiling and letter range")
    st = SeqState(mode, n, j, s=s, r=r, pattern=pattern, max_blocks=max_blocks)
    for tok in prefix:
        if not st.try_push(tok):
            raise ValueError(f"forced prefix {prefix!r} is not admissible")
    best = max(initial_best, len(prefix))
    witness = list(prefix)
    nodes = 0
    truncated = False
    done = best >= ceiling
    if ceiling + 100 > sys.getrecursionlimit():
        sys.setrecursionlimit(ceiling + 200)

    def rec():
        nonlocal best, witness, nodes, truncated, done
        if len(st.tokens) >= ceiling:
            return
        cmax = st.used_max + 1
        if cmax > n:
            cmax = n
        for c in range(1, cmax + 1):
            if node_budget and nodes >= node_budget:
                truncated = True
                return
            if st.try_push(c):
                nodes += 1
                ln = len(st.tokens)
                if ln > best:
                    best = ln
                    witness = list(st.tokens)
                    if best >= ceiling:
                        done = True
                if not done:
                    rec()
                st.pop()
                if done or truncated:
                    return

    if not done:
        rec()
    return best, witness, nodes, truncated


def cols_embed(row_masks, p_rows, pm, m):
    """Greedy left-to-right column matching for a fixed row selection."""
    j = 0
    for v in range(pm):
        while j < m:
            ok = True
            for u in range(len(p_rows)):
                if (p_rows[u] >> v) & 1 and not ((row_masks[u] >> j) & 1):
                    ok = False
                    break
            if ok:
                break
            j += 1
        if j == m:
            return False
        j += 1
    return True


def masks_contain(rows, n, m, p_rows, pn, pm):
    """Pattern containment on raw row bitmasks (rows below the fill line are 0)."""
    if pn > n or pm > m:
        return False
    sel = [0] * pn

    def choose(u, start):
        if u == pn:
            return cols_embed([rows[i] for i in sel], p_rows, pm, m)
        for i in range(start, n - (pn - u) + 1):
            sel[u] = i
            if choose(u + 1, i + 1):
                return True
        return False

    return choose(0, 0)


def matrix_search(
    n,
    m,
    p_rows,
    pn,
    pm,
    node_budget=0,
    prefix_bits=(),
    initial_best=-1,
):
    """Fill cells row-major, 1 before 0, pruning on containment and on
    ones-so-far + cells-remaining <= best. Returns (best, rows, nodes, truncated)."""
    if n < 1 or m < 1 or m > 62:
        raise ValueError("need 1 <= n and 1 <= m <= 62")
    if n * m > 50_000:
        raise ValueError("cell count exceeds the 50000 search limit")
    if len(prefix_bits) > n * m or any(bit not in (0, 1) for bit in prefix_bits):
        raise ValueError("forced prefix must be 0/1 bits within the cell count")
    rows = [0] * n
    total = n * m
    ones0 = 0
    for idx, bit in enumerate(prefix_bits):
        if bit:
            i, jc = divmod(idx, m)
            rows[i] |= 1 << jc
            ones0 += 1
            if masks_contain(rows, n, m, p_rows, pn, pm):
                raise ValueError("forced prefix already contains the pattern")
    best = max(initial_best, ones0)
    witness = list(rows)
    nodes = 0
    truncated = False
    done = best >= total
    if total + 100 > sys.getrecursionlimit():
        sys.setrecursionlimit(total + 200)

    def rec(idx, ones):
        nonlocal best, witness, nodes, truncated, done
        if idx == total:
            return
        if ones + (total - idx) <= best:
            return
        if node_budget and nodes >= node_budget:
            truncated = True
            return
        i, jc = divmod(idx, m)
        bit = 1 << jc
        rows[i] |= bit
        if not masks_contain(rows, n, m, p_rows, pn, pm):
            nodes += 1
            if ones + 1 > best:
                best = ones + 1
                witness = list(rows)
                if best >= total:
                    done = True
            if not done:
                rec(idx + 1, ones + 1)
        rows[i] ^= bit
        if done or truncated:
            return
        nodes += 1
        rec(idx + 1, ones)

    if not done:
        rec(len(prefix_bits), ones0)
    return best, witness, nodes, truncated
