"""Exact brute-force computation of the extremal functions on small instances.

Every oracle runs a complete branch-and-bound search under a proven search
ceiling, re-checks its own witness through the independent predicates in
`checks`/`matrices`, and reports the node count plus an `exhausted` flag
(true iff the search space was fully explored, making the value exact).

Search ceilings: DS sequences never exceed s C(n,2) + 1; a j-sparse
sequence avoiding all (r, s)-formations never exceeds s n^r when j >= r,
and (s-1) n when r = 1, since a (1, s)-formation is one letter s times;
avoiding a pattern u with r_u letters and length s_u implies avoiding all
(r_u, s_u)-formations, since each of the s_u permutation groups supplies
one token of u. A query with n >= j and j < r has no finite answer (the
cycle 1..j repeated is j-sparse with fewer than r letters, so it avoids
both at every length) and is refused before any search.

On n < j letters no search runs: a letter occurring twice, j or more tokens
apart, would start j pairwise-distinct tokens, so every token is distinct.
An (r, s)-formation with s >= 2, or a pattern that repeats a letter, then
never occurs, and otherwise r (or r_u) distinct tokens are one; the value
is n or r - 1 (r_u - 1) letters at most, and 1..value attains it.

Every search bound is derived here only and passed to the kernels: each
result carries the ceiling its search ran under as `ExtremalResult.ceiling`,
which every CLI `oracle` report prints. Below the ceiling, the DS searches
(lambda, lambda-blocks) cap the runs of every letter pair at s + 1, the
alternation budget that the kernels track, and bound each state by a table
of relabeled states that each kernel call keeps (`_kernels_py.SeqState`);
`oracle_pattern` runs an alternation as the DS search it is.

Every kernel search runs through `_search`, which takes the kernel its
caller looked up on `backends`: serially on one kernel call, or, with
threads > 1, serial first. A probe of `_SPLIT_PROBE_NODES` nodes that
finishes is the answer, and no process is forked: each kernel call keeps
its own table of relabeled states, so a split walks more nodes than the
serial search and pays only on a long one. A search past the probe is
split at a shallow frontier (`_kernels_py.frontier`, on the state of the
very call it splits) into prefixes, searched on a fork pool (`_forkpool`)
with the eldest first, in this process; value and witness are the serial
ones whatever the schedule (the argument is in `_search`), and
`ExtremalResult.threads_used` says how many processes searched. A node
budget is a total: a budgeted search always runs in one process, with no
probe. A node is one accepted move of the kernel: a letter or a matrix
cell. Lambda-prime is ex(n, m, R_{2,s+1}) and runs as that matrix search.

`oracle_ex_matrix` solves ex(k, m, P) for k = 1..n in one loop, each
search on the table of the answers before it, so the last answer is the
value; the searches below n run serially, and the table goes whole to every
kernel call of the last one, pool tasks included. All of them are counted
in `nodes_explored` and draw on `node_budget`, so the budget stays a total;
a budget that runs out below n leaves the result not exhausted.

Default size caps keep casual calls off exponential cliffs, and
`_check_caps` raises every cap error; pass override_caps=True to lift them.
No cap bounds j: a sparser search is only smaller.
"""

from __future__ import annotations

import os
from math import comb

from . import backends, _kernels_py, matrices
from .errors import CapExceededError
from .matrices import MatrixPattern, ZeroOneMatrix
from .sequences import BlockedSequence, Frozen, PatternSequence, Sequence, flatten

__all__ = [
    "ExtremalResult",
    "oracle_lambda",
    "oracle_formation",
    "oracle_pattern",
    "oracle_lambda_blocks",
    "oracle_lambda_prime",
    "oracle_ex_matrix",
    "lambda_ceiling",
    "formation_ceiling",
]

LAMBDA_CAPS = {"n": 5, "s": 4}
FORMATION_CAPS = {"n": 4, "r": 3, "s": 3}
PATTERN_CAPS = {"n": 4, "pattern length": 6}
LAMBDA_BLOCKS_CAPS = {"n": 4, "s": 4, "m": 4}
EX_MATRIX_CAPS = {"n*m": 30}

# a ceiling of 10,000 bits (3,011 decimal digits) still prints under Python's
# default 4,300-digit limit; every search stops far below it
FORMATION_CEILING_BITS = 10_000

_SEQ_SPLIT_DEPTH = 4
_MATRIX_SPLIT_DEPTH = 6
# the nodes a threads > 1 search walks serially before it splits: about
# 0.1 s on the pure twin and a few ms compiled; 0 would mean no budget
_SPLIT_PROBE_NODES = 2**15


class ExtremalResult(Frozen):
    """Outcome of an extremal search: the value, a witness achieving it, the
    number of explored nodes, whether the search space was exhausted (the
    node budget held, so the value is exact), the proven ceiling (longest
    sequence or most ones) the search ran under, and the processes that
    searched (1 unless a threads > 1 search ran past its serial probe and
    split). The ceiling is `lambda_ceiling` for lambda (capped at n m for
    lambda-blocks), `formation_ceiling` for formation and pattern, the n m
    cells for ex-matrix and lambda-prime, and n for an answer on n < j
    letters; a CLI `oracle` report prints it beside `nodes_explored`."""

    _fields = ("value", "witness", "nodes_explored", "exhausted", "ceiling", "threads_used")

    def __init__(
        self,
        value: int,
        witness: Sequence | BlockedSequence | ZeroOneMatrix,
        nodes_explored: int,
        exhausted: bool,
        ceiling: int,
        threads_used: int = 1,
    ) -> None:
        self._init(value, witness, nodes_explored, exhausted, ceiling, threads_used)


def lambda_ceiling(n: int, s: int) -> int:
    """Every order-s DS sequence on n letters has length at most s C(n,2) + 1."""
    if n < 1 or s < 1:
        raise ValueError("need n, s >= 1")
    return s * comb(n, 2) + 1


def formation_ceiling(n: int, r: int, s: int) -> int:
    """Every r-sparse sequence on n >= r letters avoiding all (r, s)-formations
    has length at most s n^r. For r = 1 the exact value is (s-1) n: a
    (1, s)-formation is one letter s times, so each letter occurs at most
    s-1 times, and (1..n)^(s-1) attains it. An s n^r of more than
    FORMATION_CEILING_BITS bits raises ValueError, unbuilt when n^r alone is
    that long."""
    if n < 1 or r < 1 or s < 1:
        raise ValueError("need n, r, s >= 1")
    if r == 1:
        return (s - 1) * n
    # n^r >= 2^(r (b - 1)) for b = n.bit_length()
    if r * (n.bit_length() - 1) < FORMATION_CEILING_BITS:
        ceiling = s * n**r
        if ceiling.bit_length() <= FORMATION_CEILING_BITS:
            return ceiling
    raise ValueError(f"formation ceiling s n^r exceeds {FORMATION_CEILING_BITS} bits")


def _refuse_unbounded(j: int, r: int) -> None:
    """Refuse a query on n >= j letters with no finite answer, before the caps."""
    if j < r:
        raise ValueError(f"unbounded for j < r (j={j}, r={r}): the cycle 1..j repeated "
                         "is j-sparse with fewer than r letters")


def _distinct_answer(n: int, value: int, valid, threads: int) -> ExtremalResult:
    """The answer on n < j letters, where every token is distinct: the
    letters 1..value, re-checked by `valid`, with no node explored and the
    ceiling n. An n beyond the kernels' letter range raises as they do."""
    _check_threads(threads)
    if n > _kernels_py.MAX_LETTERS:
        raise ValueError(f"letter count must be in 1..{_kernels_py.MAX_LETTERS}")
    witness = Sequence(tuple(range(1, value + 1)))
    if not valid(witness):
        raise RuntimeError("internal error: witness failed independent re-check")
    return ExtremalResult(value, witness, 0, True, n)


def _check_caps(caps: dict[str, int], values: dict[str, int], override: bool) -> None:
    if override:
        return
    for name, cap in caps.items():
        if values[name] > cap:
            raise CapExceededError(
                f"{name}={values[name]} exceeds default cap {cap}", "override_caps=True"
            )


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if threads > 1 and not hasattr(os, "fork"):
        raise ValueError("threads > 1 needs os.fork, which this platform lacks")


def _pool_size(threads: int, tasks: list) -> int:
    """Processes for a split search, this one included: no more than the
    tasks or the CPUs this process may run on (the split and the values do
    not depend on it)."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(threads, len(tasks), cpus))


def ProcessPoolExecutor(max_workers: int):
    """The pool of a split search: a `_forkpool.ForkPool`, whose module
    loads on the first split search, so a serial run never compiles it."""
    from ._forkpool import ForkPool

    return ForkPool(max_workers)


def _search(search, kw: dict, threads: int, frontier):
    """Run `search(**kw)`, a kernel the caller looked up on `backends`, and
    return (best, witness, nodes, truncated, processes).

    With threads > 1 the call first runs as a probe under a budget of
    `_SPLIT_PROBE_NODES` nodes; a probe that finishes is returned as the
    serial answer on one process. Otherwise `frontier(kw)` builds the state
    of that very call and enumerates its admissible prefixes of the split
    depth (no deeper than the state's limit), each a move tuple for the
    kernel's `prefix`, in DFS order. The running best starts at the larger
    of the probe's and the frontier's; on a tie the probe's witness wins,
    as it is the first state of its value in serial DFS order (before it,
    the probe cut only subtrees bounded below that value). The eldest
    prefix is searched here first, seeded with that best; every other
    prefix becomes a pool task seeded with the larger of that and the
    eldest's best, so it prunes from the start what the eldest would have
    let it prune serially. The merge keeps the first result that beats the running best. That is
    the serial witness: a search returns the first state, in DFS order, of
    the largest value it meets above its seed, and a seed below the final
    value hides no state of that value, so the first task to reach it holds
    its first state; a sibling seeded at the final value reports nothing,
    as the probe, the eldest or the frontier met that value first. Seeds,
    and so node counts, do not depend on the schedule; the nodes are the
    probe's, the frontier's and the prefixes'. A search with a node budget
    runs serially with no probe, so the budget bounds the total node count.
    The probe budget, frontiers and `ProcessPoolExecutor` are looked up at
    call time, so they can be patched on this module."""
    _check_threads(threads)
    if threads == 1 or kw["node_budget"]:
        return (*search(**kw), 1)
    probe_best, probe_witness, probe_nodes, truncated = search(
        **dict(kw, node_budget=_SPLIT_PROBE_NODES))
    if not truncated:
        return probe_best, probe_witness, probe_nodes, False, 1
    prefixes, best, witness, nodes = frontier(kw)
    if probe_best >= best:
        best, witness = probe_best, probe_witness
    nodes += probe_nodes
    results, processes = [], 1
    if prefixes:
        results.append(search(**kw, initial_best=best, prefix=prefixes[0]))
        seed = max(best, results[0][0])
        siblings = prefixes[1:]
        if siblings:
            processes = _pool_size(threads, siblings)
            with ProcessPoolExecutor(max_workers=processes) as pool:
                results += pool.map(lambda p: search(**kw, initial_best=seed, prefix=p), siblings)
    truncated = False
    for b, w, nd, tr in results:
        nodes += nd
        truncated = truncated or tr
        if b > best:
            best = b
            witness = w
    return best, witness, nodes, truncated, processes


def _seq_frontier(kw: dict, depth: int = _SEQ_SPLIT_DEPTH):
    """Admissible canonical prefixes of a `seq_search(**kw)` call, as letter tuples."""
    return _kernels_py.frontier(_kernels_py.SeqState(**kw), depth)


def _seq_oracle(
    kw: dict, ceiling: int, threads: int, node_budget: int, valid, witness_of=Sequence,
) -> ExtremalResult:
    """Run a sequence search under `ceiling`. Its witness is
    `witness_of(tokens)`, re-checked by its length and `valid(witness)`; the
    value is exact when the budget did not run out."""
    kw = dict(kw, ceiling=ceiling, node_budget=node_budget)
    best, toks, nodes, truncated, used = _search(backends.seq_search, kw, threads, _seq_frontier)
    witness = witness_of(tuple(toks))
    if not (len(witness) == best and valid(witness)):
        raise RuntimeError("internal error: witness failed independent re-check")
    return ExtremalResult(best, witness, nodes, not truncated, ceiling, used)


def oracle_lambda(
    n: int,
    s: int,
    j: int = 2,
    *,
    override_caps: bool = False,
    threads: int = 1,
    node_budget: int = 0,
) -> ExtremalResult:
    """Maximum length of a j-sparse order-s DS sequence on at most n letters."""
    if n < 1 or s < 1 or j < 1:
        raise ValueError("need n, s, j >= 1")
    _check_caps(LAMBDA_CAPS, {"n": n, "s": s}, override_caps)
    from . import checks  # loaded here, so that a matrix search never compiles it
    ceiling = lambda_ceiling(n, s)
    kw = dict(mode=_kernels_py.MODE_DS, n=n, j=j, s=s)
    return _seq_oracle(
        kw, ceiling, threads, node_budget,
        lambda w: checks.is_ds(w, s) and checks.is_sparse(w, j),
    )


def oracle_formation(
    n: int,
    r: int,
    s: int,
    j: int,
    *,
    override_caps: bool = False,
    threads: int = 1,
    node_budget: int = 0,
) -> ExtremalResult:
    """Maximum length of a j-sparse sequence on at most n letters avoiding all
    (r, s)-formations. With n < j it is n for s >= 2 and min(n, r - 1) for
    s = 1, answered before the caps without a search; with j < r it is
    infinite, and the query raises ValueError before the caps."""
    if n < 1 or r < 1 or s < 1 or j < 1:
        raise ValueError("need n, r, s, j >= 1")
    from . import checks

    valid = lambda w: checks.is_sparse(w, j) and checks.avoids_all_formations(w, r, s)
    if n < j:
        return _distinct_answer(n, n if s >= 2 else min(n, r - 1), valid, threads)
    _refuse_unbounded(j, r)
    _check_caps(FORMATION_CAPS, {"n": n, "r": r, "s": s}, override_caps)
    kw = dict(mode=_kernels_py.MODE_FORMATION, n=n, j=j, s=s, r=r)
    return _seq_oracle(kw, formation_ceiling(n, r, s), threads, node_budget, valid)


def oracle_pattern(
    u: Sequence | PatternSequence,
    j: int,
    n: int,
    *,
    override_caps: bool = False,
    threads: int = 1,
    node_budget: int = 0,
) -> ExtremalResult:
    """Maximum length of a j-sparse sequence on at most n letters avoiding u.

    A sequence avoiding u avoids every (r_u, s_u)-formation (r_u = distinct
    letters of u, s_u = length of u), which yields the search ceiling for
    j >= r_u. With n < j the value is n when u repeats a letter and
    min(n, r_u - 1) otherwise; with j < r_u the function is infinite. Both
    are settled as in oracle_formation.

    An alternation 1 2 1 2 ... of ell tokens is avoided exactly when no
    letter pair has ell runs, so the search runs in DS mode of order
    ell - 2: the same tree, without tracking pattern states."""
    if n < 1 or j < 1:
        raise ValueError("need n, j >= 1")
    u = PatternSequence.from_sequence(u)
    if len(u) == 0:
        raise ValueError("pattern must be nonempty")
    ru = len(u.alphabet)
    su = len(u)
    from . import checks

    valid = lambda w: checks.is_sparse(w, j) and not checks.contains_pattern(w, u)
    if n < j:
        return _distinct_answer(n, n if su > ru else min(n, ru - 1), valid, threads)
    _refuse_unbounded(j, ru)
    _check_caps(PATTERN_CAPS, {"n": n, "pattern length": su}, override_caps)
    kw = dict(mode=_kernels_py.MODE_PATTERN, n=n, j=j, pattern=u.tokens)
    if ru == 2 and all(a != b for a, b in zip(u.tokens, u.tokens[1:])):
        kw = dict(mode=_kernels_py.MODE_DS, n=n, j=j, s=su - 2)
    return _seq_oracle(kw, formation_ceiling(n, ru, su), threads, node_budget, valid)


def _greedy_blocks(tokens: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Minimal partition into blocks of distinct letters (greedy cut is optimal)."""
    blocks: list[tuple[int, ...]] = []
    cur: list[int] = []
    seen: set[int] = set()
    for tok in tokens:
        if tok in seen:
            blocks.append(tuple(cur))
            cur = []
            seen = set()
        cur.append(tok)
        seen.add(tok)
    if cur:
        blocks.append(tuple(cur))
    return tuple(blocks)


def oracle_lambda_blocks(
    n: int,
    s: int,
    m: int,
    *,
    override_caps: bool = False,
    threads: int = 1,
    node_budget: int = 0,
) -> ExtremalResult:
    """Maximum length of an order-s DS sequence on at most n letters that can
    be partitioned into at most m blocks.

    Searches flat DS sequences while tracking the greedy minimal block
    partition: a sequence fits m blocks iff its greedy partition does, so
    block arrangements never multiply the search tree."""
    if n < 1 or s < 1 or m < 1:
        raise ValueError("need n, s, m >= 1")
    _check_caps(LAMBDA_BLOCKS_CAPS, {"n": n, "s": s, "m": m}, override_caps)
    from . import checks
    ceiling = min(n * m, lambda_ceiling(n, s))
    kw = dict(mode=_kernels_py.MODE_DS, n=n, j=1, s=s, max_blocks=m)
    return _seq_oracle(
        kw, ceiling, threads, node_budget,
        lambda w: w.block_count <= m and checks.is_ds(flatten(w), s),
        witness_of=lambda toks: BlockedSequence(_greedy_blocks(toks)),
    )


def _matrix_frontier(kw: dict, depth: int = _MATRIX_SPLIT_DEPTH):
    """Admissible fillings of the first cells of a `matrix_search(**kw)` call, as 0/1 tuples."""
    return _kernels_py.frontier(_kernels_py.MatrixState(**kw), depth)


def oracle_ex_matrix(
    n: int,
    m: int,
    P: MatrixPattern,
    *,
    override_caps: bool = False,
    threads: int = 1,
    node_budget: int = 0,
) -> ExtremalResult:
    """Maximum number of ones in an n x m 0-1 matrix avoiding P: the last
    of ex(k, m, P) for k = 1..n, each searched on the Russian-doll table of
    the ones before it (k m, unsearched, when k < n and P does not fit k
    rows or m columns). When the node budget runs out before k = n, the
    result is the stopped search's matrix, padded with zero rows."""
    if n < 1 or m < 1:
        raise ValueError("need n, m >= 1")
    if not isinstance(P, ZeroOneMatrix):
        raise ValueError("P must be a matrix pattern")
    if all(mask == 0 for mask in P.rows):
        raise ValueError("pattern needs at least one 1-entry")
    _check_caps(EX_MATRIX_CAPS, {"n*m": n * m}, override_caps)
    _check_threads(threads)
    table, nodes = [0], 0  # table[k] = ex(k, m, P)
    for k in range(1, n + 1):
        if k < n and (k < P.n or P.m > m):
            table.append(k * m)
            continue
        kw = dict(n=k, m=m, p_rows=P.rows, pn=P.n, pm=P.m, row_bounds=tuple(table),
                  node_budget=node_budget - nodes if node_budget else 0)
        best, wit_rows, nd, truncated, used = _search(
            backends.matrix_search, kw, threads if k == n else 1, _matrix_frontier
        )
        nodes += nd
        if truncated or (k < n and node_budget and nodes >= node_budget):
            truncated = True
            break
        table.append(best)
    witness = ZeroOneMatrix(n, m, tuple(wit_rows) + (0,) * (n - k))
    if not (witness.ones_count == best and not matrices.matrix_contains(witness, P)):
        raise RuntimeError("internal error: witness failed independent re-check")
    return ExtremalResult(best, witness, nodes, not truncated, n * m, used)


def oracle_lambda_prime(
    n: int,
    s: int,
    m: int,
    *,
    override_caps: bool = False,
    threads: int = 1,
    node_budget: int = 0,
) -> ExtremalResult:
    """Maximum length of a sequence on at most n letters in at most m blocks
    with every letter pair together in at most s blocks. No adjacency or
    alternation constraint applies; block content alone matters, so this is
    ex(n, m, R_{2,s+1}) with letters as rows and blocks as columns: a pair
    sharing s+1 blocks is a 2 x (s+1) all-ones submatrix. A pattern wider
    than the host never occurs, so its width is clamped to m + 1. Capped,
    searched and split like `oracle_ex_matrix`; empty blocks are dropped
    from the witness."""
    if n < 1 or s < 1 or m < 1:
        raise ValueError("need n, s, m >= 1")
    res = oracle_ex_matrix(
        n, m, matrices.all_ones(2, min(s + 1, m + 1)),
        override_caps=override_caps, threads=threads, node_budget=node_budget,
    )
    bw = BlockedSequence(tuple(b for b in matrices.matrix_to_blocked(res.witness).blocks if b))
    if not (len(bw) == res.value and matrices.max_pair_cooccurrence(bw) <= s):
        raise RuntimeError("internal error: witness failed independent re-check")
    return ExtremalResult(res.value, bw, res.nodes_explored, res.exhausted, res.ceiling,
                          res.threads_used)
