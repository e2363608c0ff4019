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

The search states live in modules of their own, `_seq_state.SeqState` and
`_matrix_state.MatrixState`, which this module's entries import when they
first build one. So a matrix search never compiles the sequence state, a
sequence search never compiles the matrix state, and the compiled twin,
which reads only the checks and constants here, compiles neither. Each
state takes its kernel's arguments and offers the checked
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

from math import comb
from operator import index

from .errors import MAX_SUBSETS  # shared with `checks.max_formation_length`

MODE_DS = 0
MODE_FORMATION = 1
MODE_PATTERN = 2

MAX_LETTERS = 60
MAX_CEILING = 50_000
MAX_COLUMNS = 62  # a row is one 64-bit word in the compiled twin
MAX_CELLS = 50_000
MAX_STATES = 1 << 22  # relabeled DS states a sequence search keeps (see `_seq_state`)


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
    `_seq_state.SeqState`)."""
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
    the values derived once for both (see `_matrix_state.MatrixState`):
    P's rows as searched (masked to pm columns; all 0 if P does not fit the
    host), `last`, `equal_rows`, `equal_cols` and the row table padded to
    n + 1."""
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
    from ._seq_state import SeqState

    return _run(SeqState(mode, n, j, ceiling, s, r, pattern, max_blocks, node_budget, prefix,
                         initial_best), "forced prefix {!r} is not admissible")


def matrix_search(n, m, p_rows, pn, pm, node_budget=0, prefix=(), initial_best=-1,
                  row_bounds=()):
    """Fill cells row-major, 1 before 0, pruning on containment and on
    ones-so-far + slack <= best (`MatrixState`, with `row_bounds` its
    Russian-doll table); `prefix` forces the first cells (0/1 bits). Returns
    (best, rows, nodes, truncated)."""
    from ._matrix_state import MatrixState

    return _run(MatrixState(n, m, p_rows, pn, pm, node_budget, prefix, initial_best, row_bounds),
                "forced prefix contains the pattern or breaks the row or column order")
