"""Oracle values: frozen regressions, known identities, and cross-validation
against plain product-enumeration (a second, dumber exhaustive path)."""

import hashlib
import os
import signal
import time
from itertools import product
from math import comb

import pytest

from conftest import brute_ex_matrix
from seqext import _kernels_py, backends, checks, matrices, oracles
from seqext.construct import build_block_witness
from seqext.errors import CapExceededError
from seqext.matrices import all_ones
from seqext.oracles import (
    FORMATION_CEILING_BITS,
    ExtremalResult,
    formation_ceiling,
    lambda_ceiling,
    oracle_ex_matrix,
    oracle_formation,
    oracle_lambda,
    oracle_lambda_blocks,
    oracle_lambda_prime,
    oracle_pattern,
)
from seqext.sequences import BlockedSequence, PatternSequence, Sequence, flatten, parse_pattern


def enum_max_length(n, max_len, admissible):
    """Largest L <= max_len with an admissible length-L sequence on letters 1..n,
    by plain product enumeration (admissibility must be prefix-hereditary)."""
    best = 0
    for L in range(1, max_len + 1):
        if not any(admissible(Sequence(t)) for t in product(range(1, n + 1), repeat=L)):
            return best
        best = L
    return best


def assert_enum_confirms(value, n, admissible):
    """Check by full enumeration that `value` is achievable and value+1 is not."""
    assert enum_max_length(n, value + 1, admissible) == value


class TestLambda:
    def test_calibration(self):
        for n in (2, 3, 4):
            assert oracle_lambda(n, 1, 2).value == n
            assert oracle_lambda(n, 2, 2).value == 2 * n - 1

    def test_small_order3(self):
        assert oracle_lambda(2, 3, 2).value == 4
        assert oracle_lambda(3, 3, 2).value == 8  # regression, exhaustive
        assert oracle_lambda(4, 3, 2).value == 12  # regression, exhaustive

    def test_enumeration_cross_check(self):
        for (n, s) in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]:
            value = oracle_lambda(n, s, 2).value
            assert_enum_confirms(
                value, n, lambda q: checks.is_sparse(q, 2) and checks.is_ds(q, s)
            )

    def test_ceiling_compliance(self):
        for (n, s) in [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2), (3, 3), (4, 3)]:
            assert oracle_lambda(n, s, 2).value <= lambda_ceiling(n, s)

    def test_witness_is_admissible_and_exhausted(self):
        res = oracle_lambda(3, 2, 2)
        assert res.exhausted
        assert len(res.witness) == res.value
        assert checks.is_ds(res.witness, 2) and checks.is_sparse(res.witness, 2)

    def test_sparser_never_longer(self):
        for n in (3, 4):
            assert oracle_lambda(n, 2, 3).value <= oracle_lambda(n, 2, 2).value

    def test_single_letter_alphabet(self):
        res = oracle_lambda(1, 3, 2)
        assert res.value == 1 and res.exhausted

    def test_caps(self):
        with pytest.raises(CapExceededError):
            oracle_lambda(6, 1, 2)
        assert oracle_lambda(6, 1, 2, override_caps=True).value == 6

    def test_caps_leave_sparsity_free(self):
        # a larger j only shrinks the search: 4,238 nodes at j=3, 250 at j=4
        res = oracle_lambda(5, 4, 4)
        assert (res.value, res.nodes_explored, res.exhausted) == (13, 250, True)
        assert oracle_formation(4, 3, 3, 5).exhausted
        assert oracle_pattern(Sequence((1, 2) * 3), 5, 4).exhausted

    def test_node_budget_flags_nonexhausted(self):
        res = oracle_lambda(4, 2, 2, node_budget=5)
        assert not res.exhausted
        assert res.value <= 7


class TestFormation:
    def test_frozen_values(self):
        # witness "1 2 1"; every length-4 candidate on two letters completes
        # two permutations or repeats adjacently
        assert oracle_formation(2, 2, 2, 2).value == 3
        assert oracle_formation(3, 2, 2, 2).value == 5

    def test_enumeration_cross_check(self):
        for (n, r, s, j) in [(2, 2, 2, 2), (3, 2, 2, 2), (3, 3, 2, 3), (3, 2, 3, 2)]:
            value = oracle_formation(n, r, s, j).value
            assert_enum_confirms(
                value, n,
                lambda q: checks.is_sparse(q, j) and checks.max_formation_length(q, r) < s,
            )

    def test_ceiling_compliance(self):
        res = oracle_formation(3, 2, 2, 2)
        assert res.value <= formation_ceiling(3, 2, 2)
        assert res.exhausted

    def test_unbounded_below_r_sparsity_is_refused(self):
        for n in (2, 3):
            with pytest.raises(ValueError, match=r"^unbounded for j < r \(j=2, r=3\)"):
                oracle_formation(n, 3, 1, 2)

    def test_sparser_than_alphabet(self):
        # j > n forces all-distinct letters
        res = oracle_formation(2, 3, 1, 3)
        assert res.value == 2 and res.exhausted

    def test_unary_tuples_bound_occurrences(self):
        # avoiding all (1, 2)-formations means no letter appears twice
        res = oracle_formation(3, 1, 2, 2)
        assert res.value == 3 and res.exhausted
        assert_enum_confirms(
            3, 3,
            lambda q: checks.is_sparse(q, 2) and checks.max_formation_length(q, 1) < 2,
        )
        # (1, 1)-formations forbid every letter outright
        assert oracle_formation(3, 1, 1, 2).value == 0

    def test_witness_recheck(self):
        res = oracle_formation(3, 2, 2, 2)
        assert checks.max_formation_length(res.witness, 2) < 2
        assert checks.is_sparse(res.witness, 2)


class TestPattern:
    def test_frozen_values(self):
        assert oracle_pattern(parse_pattern("a b a b"), 2, 3).value == 5
        assert oracle_pattern(parse_pattern("a a"), 2, 3).value == 3
        assert oracle_pattern(parse_pattern("a b a"), 2, 2).value == 2

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    def test_matches_lambda_for_alternations(self, request, backend):
        # avoiding the alternation of length s+2 with no adjacent repeats is
        # DS order s; both cap every letter pair at s+1 runs, so the two
        # searches walk one tree
        request.getfixturevalue(f"{backend}_backend")
        grid = [(n, s) for n in range(1, 5) for s in range(1, 5)] + [(5, s) for s in (1, 2, 3)]
        for (n, s), j in product(grid, (2, 3)):
            alt = parse_pattern(" ".join("ab"[i % 2] for i in range(s + 2)))
            pat = oracle_pattern(alt, j, n, override_caps=True)
            ds = oracle_lambda(n, s, j)
            assert (pat.value, pat.witness) == (ds.value, ds.witness), (n, s, j)
            # below j letters the pattern oracle answers without a search
            assert pat.nodes_explored == (0 if n < j else ds.nodes_explored), (n, s, j)

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    def test_alternations_run_as_ds_searches(self, request, monkeypatch, backend):
        # with j >= 2 the oracle runs an alternation of ell tokens in DS
        # mode of order ell - 2; a direct DS call under the same ceiling and
        # budget must agree on the value, witness, node count and truncation
        request.getfixturevalue(f"{backend}_backend")
        kernel = backends.seq_search
        modes = []
        monkeypatch.setattr(backends, "seq_search",
                            lambda **kw: modes.append(kw["mode"]) or kernel(**kw))

        def agree(n, j, ell, budget=0):
            u = parse_pattern(" ".join("ab"[i % 2] for i in range(ell)))
            res = oracle_pattern(u, j, n, override_caps=True, node_budget=budget)
            best, toks, nodes, truncated = kernel(
                mode=_kernels_py.MODE_DS, n=n, j=j, ceiling=res.ceiling, s=ell - 2,
                node_budget=budget,
            )
            if n < j:  # answered without a search
                nodes, truncated = 0, False
            elif ell == 2 and not budget:  # (ab)^1 as order 0: the pattern search's value
                assert best == kernel(mode=_kernels_py.MODE_PATTERN, n=n, j=j,
                                      ceiling=res.ceiling, pattern=(1, 2))[0] == 1
            assert (res.value, res.witness.tokens, res.nodes_explored, res.exhausted) == (
                best, tuple(toks), nodes, not truncated), (n, j, ell, budget)
            return nodes

        for n, j, ell in product(range(1, 5), (2, 3), range(2, 9)):
            if n < 4 or ell < 8:
                agree(n, j, ell)
        for n, j, ell in ((3, 2, 5), (4, 2, 4), (4, 3, 6)):
            for budget in range(1, agree(n, j, ell) + 2):
                agree(n, j, ell, budget)
        assert set(modes) == {_kernels_py.MODE_DS}
        # a 1-sparse alternation is refused unsearched; other two-letter
        # patterns keep pattern mode
        modes.clear()
        with pytest.raises(ValueError, match="unbounded"):
            oracle_pattern(parse_pattern("a b a"), 1, 3)
        oracle_pattern(parse_pattern("a b b a"), 2, 3)
        assert modes == [_kernels_py.MODE_PATTERN]

    def test_enumeration_cross_check(self):
        for (text, j, n) in [("a b a", 2, 2), ("a a", 2, 3), ("a b a b", 2, 3), ("a b b a", 2, 3)]:
            u = parse_pattern(text)
            value = oracle_pattern(u, j, n).value
            assert_enum_confirms(
                value, n,
                lambda q: checks.is_sparse(q, j) and not checks.contains_pattern(q, u),
            )

    def test_single_letter_pattern(self):
        assert oracle_pattern(parse_pattern("a"), 2, 3).value == 0

    def test_unembeddable_pattern_is_refused(self):
        with pytest.raises(ValueError, match=r"^unbounded for j < r \(j=2, r=5\)"):
            oracle_pattern(parse_pattern("a b c d e"), 2, 3)


class TestNodeCounts:
    """Exact node counts: the alternation budget and the table of relabeled
    states prune the DS searches (lambda, lambda-blocks) and the searches
    for alternation patterns."""

    def test_ds_searches(self):
        for res, value, nodes in (
            (oracle_lambda(4, 5, override_caps=True), 23, 5_799),
            (oracle_lambda(5, 3), 17, 2_126),
            (oracle_lambda_blocks(4, 4, 4), 14, 2_543),
        ):
            assert (res.value, res.nodes_explored, res.exhausted) == (value, nodes, True)

    def test_alternation_pattern(self, compiled_backend):
        # the tree of lambda_5(4): both cap each letter pair at 6 runs
        res = oracle_pattern(parse_pattern("a b a b a b a"), 2, 4, override_caps=True)
        assert (res.value, res.nodes_explored, res.exhausted) == (23, 5_799, True)


def test_greedy_partition_is_minimal():
    """The greedy cut must match the brute-force minimum over all partitions
    into distinct-letter blocks (this is what lets the block oracle search
    flat sequences only)."""
    import random

    from seqext.oracles import _greedy_blocks

    def brute_min_blocks(tokens):
        L = len(tokens)
        if L == 0:
            return 0
        best = L
        for mask in range(1 << (L - 1)):
            blocks = [[tokens[0]]]
            for i in range(1, L):
                if (mask >> (i - 1)) & 1:
                    blocks.append([])
                blocks[-1].append(tokens[i])
            if all(len(set(b)) == len(b) for b in blocks):
                best = min(best, len(blocks))
        return best

    rng = random.Random(61)
    for _ in range(200):
        tokens = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 10)))
        assert len(_greedy_blocks(tokens)) == brute_min_blocks(tokens)


@pytest.mark.parametrize(
    "oracle, args, value, tokens",
    [
        (oracle_lambda, (2, 1), 3, (1, 2, 1)),  # three runs of {1, 2}: not DS of order 1
        (oracle_lambda, (2, 1), 1, (1, 2)),  # value 1 but two tokens
        (oracle_formation, (2, 2, 2, 2), 4, (1, 2, 1, 2)),  # a (2, 2)-formation
        (oracle_pattern, (Sequence((1, 2, 1)), 2, 2), 3, (1, 2, 1)),  # contains the pattern
        (oracle_lambda_blocks, (2, 1, 1), 3, (1, 2, 1)),  # needs two blocks
    ],
)
def test_sequence_oracles_recheck_the_kernel_witness(monkeypatch, oracle, args, value, tokens):
    monkeypatch.setattr(backends, "seq_search", lambda **kw: (value, list(tokens), 1, False))
    with pytest.raises(RuntimeError, match="witness failed independent re-check"):
        oracle(*args)


class TestLambdaBlocks:
    def test_frozen_values(self):
        # the one-block case packs all letters; two blocks of two letters max out at 3
        assert oracle_lambda_blocks(3, 2, 1).value == 3
        assert oracle_lambda_blocks(2, 2, 2).value == 3
        assert oracle_lambda_blocks(4, 3, 4).value == 11  # regression, exhaustive

    def test_beats_block_construction(self):
        for (n, s) in [(3, 2), (3, 3), (4, 3), (4, 4)]:
            witness = build_block_witness(n, s)
            assert oracle_lambda_blocks(n, s, n).value >= witness.length

    def test_enumeration_cross_check(self):
        from seqext.oracles import _greedy_blocks

        for (n, s, m) in [(2, 2, 2), (2, 1, 2), (3, 1, 3), (3, 2, 2), (3, 2, 3)]:
            value = oracle_lambda_blocks(n, s, m).value
            assert_enum_confirms(
                value, n,
                lambda q: checks.is_ds(q, s) and len(_greedy_blocks(q.tokens)) <= m,
            )

    def test_witness_shape(self):
        res = oracle_lambda_blocks(4, 3, 4)
        assert isinstance(res.witness, BlockedSequence)
        assert res.witness.block_count <= 4
        assert checks.is_ds(flatten(res.witness), 3)
        assert flatten(res.witness).length == res.value


def brute_lambda_prime(n, s, m):
    """Independent full enumeration over block subsets."""
    best = 0
    for combo in product(range(1 << n), repeat=m):
        blocks = tuple(
            tuple(i + 1 for i in range(n) if (mask >> i) & 1) for mask in combo
        )
        bs = BlockedSequence(blocks)
        if matrices.max_pair_cooccurrence(bs) <= s:
            best = max(best, bs.length)
    return best


class TestLambdaPrime:
    def test_slack_cases(self):
        assert oracle_lambda_prime(2, 2, 2).value == 4
        assert oracle_lambda_prime(3, 3, 3).value == 9

    def test_frozen_bridge_values(self):
        expected = {(2, 1): 3, (3, 1): 6, (4, 1): 9, (2, 2): 4, (3, 2): 7, (4, 2): 12}
        for (n, s), val in expected.items():
            assert oracle_lambda_prime(n, s, n).value == val

    def test_enumeration_cross_check(self):
        for (n, s, m) in [(2, 1, 2), (3, 1, 3), (3, 2, 3), (4, 1, 4), (4, 2, 4), (3, 1, 2)]:
            assert oracle_lambda_prime(n, s, m).value == brute_lambda_prime(n, s, m)

    def test_witness_admissible(self):
        res = oracle_lambda_prime(4, 2, 4)
        assert matrices.max_pair_cooccurrence(res.witness) <= 2
        assert res.witness.length == res.value
        assert res.exhausted

    def test_node_count_pinned(self):
        """Lambda-prime is the matrix search for R_{2,s+1}: a node is one cell,
        in the row-bound table's searches too."""
        res = oracle_lambda_prime(4, 3, 4)
        assert (res.value, res.nodes_explored, res.exhausted) == (13, 81, True)

    def test_compiled_matches_pure(self, compiled_backend):
        res = oracle_lambda_prime(4, 3, 4)
        assert (res.value, res.nodes_explored, res.exhausted) == (13, 81, True)
        assert str(res.witness) == "1 2 3 4 | 1 2 3 4 | 1 2 3 4 | 1"

    def test_parallel_matches_serial(self):
        serial = oracle_lambda_prime(4, 2, 4)
        par = oracle_lambda_prime(4, 2, 4, threads=2)
        assert (par.value, par.witness, par.exhausted) == (serial.value, serial.witness, True)

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    def test_wide_pattern_is_clamped(self, request, backend):
        # s + 1 = 101 columns would overflow a 64-bit row mask; clamped to m + 1
        request.getfixturevalue(f"{backend}_backend")
        res = oracle_lambda_prime(3, 100, 3)
        assert (res.value, res.exhausted) == (9, True)

    def test_cell_cap(self):
        assert oracle_lambda_prime(5, 1, 6).value == 14  # n*m = 30: no override needed
        with pytest.raises(CapExceededError):
            oracle_lambda_prime(1, 1, 31)

    def test_node_budget_is_exact(self):
        res = oracle_lambda_prime(5, 1, 5, override_caps=True, node_budget=1000)
        assert (res.nodes_explored, res.exhausted) == (1000, False)

    def test_dominates_lambda_blocks(self):
        for n in (2, 3, 4):
            for s in (1, 2):
                assert (
                    oracle_lambda_blocks(n, s, n).value
                    <= oracle_lambda_prime(n, s, n).value
                )


class TestExMatrix:
    def test_zarankiewicz_desk_values(self):
        assert oracle_ex_matrix(3, 3, all_ones(2, 2)).value == 6
        assert oracle_ex_matrix(4, 4, all_ones(2, 2)).value == 9
        assert oracle_ex_matrix(4, 4, all_ones(2, 3)).value == 12

    def test_r11_forces_zero(self):
        assert oracle_ex_matrix(3, 4, all_ones(1, 1)).value == 0

    def test_oversized_pattern_allows_all_ones(self):
        assert oracle_ex_matrix(2, 2, all_ones(3, 3)).value == 4

    def test_enumeration_cross_check(self):
        for (n, m, P) in [
            (2, 2, all_ones(2, 2)),
            (3, 3, all_ones(2, 2)),
            (3, 3, all_ones(2, 3)),
            (2, 4, all_ones(1, 2)),
        ]:
            assert oracle_ex_matrix(n, m, P).value == brute_ex_matrix(n, m, P)

    def test_kst_compliance(self):
        cases = [
            (3, 3, 2, 2), (4, 4, 2, 2), (4, 4, 2, 3), (3, 4, 2, 2), (4, 3, 2, 2),
            (4, 4, 3, 2), (4, 4, 3, 3), (3, 5, 2, 2), (5, 3, 2, 3), (5, 5, 3, 3),
        ]
        for (n, m, a, b) in cases:
            res = oracle_ex_matrix(n, m, all_ones(a, b))
            assert res.value <= matrices.kst_bound(n, m, a, b)

    def test_witness_avoids(self):
        res = oracle_ex_matrix(4, 4, all_ones(2, 2))
        assert not matrices.matrix_contains(res.witness, all_ones(2, 2))
        assert res.witness.ones_count == 9

    def test_cell_cap(self):
        assert oracle_ex_matrix(5, 6, all_ones(2, 2)).value == 14  # Guy's z(5,6;2)
        with pytest.raises(CapExceededError, match=r"^n\*m=31 exceeds default cap 30; "):
            oracle_ex_matrix(1, 31, all_ones(2, 2))

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    def test_guy_values_exhausted(self, request, backend):
        # Guy's z(6;2) = 16 and z(7;2) = 21, row-bound table nodes included
        request.getfixturevalue(f"{backend}_backend")
        for n, value, nodes in ((6, 16, 8_967), (7, 21, 107_427)):
            res = oracle_ex_matrix(n, n, all_ones(2, 2), override_caps=True)
            assert (res.value, res.nodes_explored, res.exhausted) == (value, nodes, True)

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    def test_node_budget_is_a_total_with_the_table(self, request, backend):
        """The table's searches draw on the budget too: every budget below
        the total stops at it, not exhausted, in the table or after it, with
        a witness that passes the re-check. The digest of every budget's
        (value, rows, nodes, exhausted) pins the witnesses as well."""
        request.getfixturevalue(f"{backend}_backend")
        P = all_ones(2, 2)
        for n, value, total, digest in (
            (4, 9, 180, "087f5ccb232a8a2ddc7b8a14bd546d9d87ad8f8be22ccd00c350641ac90f2109"),
            (5, 12, 1_099, "8d2b8620da5c992b5f9c03eb4c83ae2f2d3070fcbfa04345e2240de5991f900f"),
        ):
            full = oracle_ex_matrix(n, n, P)
            assert (full.value, full.nodes_explored) == (value, total)
            sweep = hashlib.sha256()
            for budget in range(1, total + 2):
                res = oracle_ex_matrix(n, n, P, node_budget=budget)
                sweep.update(repr(
                    (res.value, res.witness.rows, res.nodes_explored, res.exhausted)
                ).encode())
                if res.exhausted:
                    assert budget >= total and res == full
                else:
                    assert res.nodes_explored == budget and res.value <= value
                    assert not matrices.matrix_contains(res.witness, P)
            assert sweep.hexdigest() == digest, n

    def test_5x5_values(self, compiled_backend):
        assert oracle_ex_matrix(5, 5, all_ones(2, 2)).value == 12
        res = oracle_ex_matrix(5, 5, all_ones(2, 3)).value
        assert res == 16 <= matrices.kst_bound(5, 5, 2, 3)


class TestBridgeIdentity:
    def test_lambda_prime_equals_ex(self):
        for n in (2, 3, 4):
            for s in (1, 2):
                lhs = oracle_lambda_prime(n, s, n).value
                rhs = oracle_ex_matrix(n, n, all_ones(2, s + 1)).value
                assert lhs == rhs


class TestThreads:
    def test_lambda_parallel_matches_serial(self):
        serial = oracle_lambda(4, 2, 2)
        par = oracle_lambda(4, 2, 2, threads=2)
        assert (par.value, par.witness) == (serial.value, serial.witness)

    def test_ex_matrix_parallel_matches_serial(self):
        serial = oracle_ex_matrix(4, 4, all_ones(2, 2))
        par = oracle_ex_matrix(4, 4, all_ones(2, 2), threads=2)
        assert (par.value, par.witness) == (serial.value, serial.witness)

    def test_lambda_blocks_parallel_matches_serial(self):
        serial = oracle_lambda_blocks(4, 3, 4)
        par = oracle_lambda_blocks(4, 3, 4, threads=2)
        assert (par.value, par.witness) == (serial.value, serial.witness)

    def test_node_budget_is_a_total(self):
        # a budgeted search runs in one process, so threads change nothing
        serial = oracle_lambda(5, 4, node_budget=1000)
        par = oracle_lambda(5, 4, threads=2, node_budget=1000)
        assert par == serial
        assert par.nodes_explored == 1000 and not par.exhausted

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        for call in (
            lambda: oracle_lambda(3, 2, threads=threads),
            lambda: oracle_formation(3, 2, 2, 2, threads=threads),
            lambda: oracle_pattern(Sequence((1, 2, 1)), 2, 3, threads=threads),
            lambda: oracle_lambda_blocks(3, 2, 3, threads=threads),
            lambda: oracle_ex_matrix(3, 3, all_ones(2, 2), threads=threads),
        ):
            with pytest.raises(ValueError, match="threads"):
                call()


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool with a serial stand-in that records max_workers."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(oracles, "ProcessPoolExecutor", SerialPool)
    return sizes


@pytest.fixture
def split_always(monkeypatch):
    """A serial probe of one node, so that every threads > 1 search of more
    than one node splits, however small."""
    monkeypatch.setattr(oracles, "_SPLIT_PROBE_NODES", 1)


def answer(res):
    """A result's fields but for the processes that searched."""
    return res.value, res.witness, res.nodes_explored, res.exhausted, res.ceiling


def patch_cpus(monkeypatch, cpus):
    """Let this process run on `cpus` of the machine's 64 CPUs; with None,
    neither count is known."""
    if cpus is None:
        monkeypatch.delattr(oracles.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(oracles.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(oracles.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(oracles.os, "cpu_count", lambda: 64)


@pytest.mark.usefixtures("split_always")
class TestPoolSize:
    """The pool never exceeds the task count or the CPUs this process may
    run on; the split, and so the value, witness and node count, do not
    depend on its size, and `threads_used` is its size. The eldest prefix
    runs before the pool, so it is no task."""

    @pytest.mark.parametrize("cpus", [None, 1, 2, 64])
    def test_lambda(self, pool_sizes, monkeypatch, cpus):
        kw = dict(mode=_kernels_py.MODE_DS, n=4, j=2, s=2, r=0, pattern=(), max_blocks=0)
        tasks = len(oracles._seq_frontier(kw, oracles._SEQ_SPLIT_DEPTH)[0]) - 1
        patch_cpus(monkeypatch, cpus)
        reference = oracle_lambda(4, 2, threads=2)
        res = oracle_lambda(4, 2, threads=10**6)
        assert pool_sizes == [min(2, tasks, cpus or 1), min(tasks, cpus or 1)]
        assert [reference.threads_used, res.threads_used] == pool_sizes
        assert answer(res) == answer(reference)

    @pytest.mark.parametrize("cpus", [1, 64])
    def test_ex_matrix(self, pool_sizes, monkeypatch, cpus):
        P = all_ones(2, 2)
        kw = dict(n=4, m=4, p_rows=P.rows, pn=2, pm=2)
        tasks = len(oracles._matrix_frontier(kw, oracles._MATRIX_SPLIT_DEPTH)[0]) - 1
        patch_cpus(monkeypatch, cpus)
        reference = oracle_ex_matrix(4, 4, P, threads=2)
        res = oracle_ex_matrix(4, 4, P, threads=10**6)
        assert pool_sizes == [min(2, cpus), min(tasks, cpus)]
        assert [reference.threads_used, res.threads_used] == pool_sizes
        assert answer(res) == answer(reference)

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(oracles.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(oracles.os, "cpu_count", lambda: 3)
        assert oracles._pool_size(8, [()] * 5) == 3

    def test_empty_frontier(self, pool_sizes):
        # the ceiling is 1 * 2^2 = 4, and any two distinct letters make a
        # (2, 1)-formation, so no 2-sparse prefix reaches the depth of 4:
        # no tasks at all, and no pool. The one-node probe stops before its
        # second candidate, and the frontier walks the whole tree again
        serial = oracle_formation(2, 2, 1, 2)
        res = oracle_formation(2, 2, 1, 2, threads=4)
        assert res == ExtremalResult(serial.value, serial.witness, serial.nodes_explored + 1,
                                     True, serial.ceiling)
        assert pool_sizes == []

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    @pytest.mark.parametrize("oracle, args", [
        (oracle_pattern, (PatternSequence((1,)), 1, 3)),  # ceiling 0
        (oracle_lambda, (1, 1)),  # ceiling 1
        (oracle_ex_matrix, (1, 1, all_ones(1, 1))),  # one cell
    ])
    def test_search_no_deeper_than_the_split_depth(self, request, pool_sizes, backend,
                                                   oracle, args):
        """The frontier stops at a ceiling or cell count below the split
        depth: threads=2 gives the serial result, nodes included, and with
        no sibling prefix no pool."""
        request.getfixturevalue(f"{backend}_backend")
        assert oracle(*args, threads=2) == oracle(*args)
        assert pool_sizes == []

    def test_frontier_stops_at_the_limit(self, pool_sizes):
        """The trees above end inside the probe; lambda_1(2) with j = 1 has
        the ceiling 2, so its frontier stops at depth 2 with one prefix."""
        kw = dict(mode=_kernels_py.MODE_DS, n=2, j=1, s=1, ceiling=2)
        assert oracles._seq_frontier(kw)[0] == [(1, 2)]
        res = oracle_lambda(2, 1, 1, threads=2)
        assert (res.value, res.witness, res.threads_used) == (2, Sequence((1, 2)), 1)
        assert res.nodes_explored > oracle_lambda(2, 1, 1).nodes_explored and pool_sizes == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_search_calls_through_module_attributes(self, pool_sizes, monkeypatch, threads):
        """Frontiers and kernels are looked up on their modules at call time,
        so wrappers patched onto them (as by an external tracer) see every
        call: with threads > 1 the probe, then the split."""
        calls = []

        def counting(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in ((oracles, "_seq_frontier"), (oracles, "_matrix_frontier"),
                            (backends, "seq_search"), (backends, "matrix_search")):
            counting(owner, name)
        oracle_lambda(4, 2, threads=threads)
        # the row-bound table of a 3 x 3 search for R22 searches 2 rows first
        oracle_ex_matrix(3, 3, all_ones(2, 2), threads=threads)
        if threads == 1:
            assert calls == ["seq_search", "matrix_search", "matrix_search"] and pool_sizes == []
        else:
            k = calls.index("_matrix_frontier")
            assert calls[:2] == ["seq_search", "_seq_frontier"]
            assert set(calls[2:k - 2]) == {"seq_search"}
            assert calls[k - 2:k] == ["matrix_search"] * 2  # the table, serially, then the probe
            assert set(calls[k + 1:]) == {"matrix_search"} and len(pool_sizes) == 2


# the instances of the benchmark's oracle-parallel workload, its tiny list
# first, and one lambda-prime search
SPLIT_INSTANCES = {
    "lambda-3-3": (oracle_lambda, (3, 3)),
    "ex-3x3-R22": (oracle_ex_matrix, (3, 3, all_ones(2, 2))),
    "lambda-4-5": (oracle_lambda, (4, 5)),
    "lambda-5-3": (oracle_lambda, (5, 3)),
    "pattern-alt6-4": (oracle_pattern, (PatternSequence((1, 2) * 3), 2, 4)),
    "formation-4-2-3-2": (oracle_formation, (4, 2, 3, 2)),
    "blocks-4-4-4": (oracle_lambda_blocks, (4, 4, 4)),
    "ex-4x5-R22": (oracle_ex_matrix, (4, 5, all_ones(2, 2))),
    "ex-5x4-R22": (oracle_ex_matrix, (5, 4, all_ones(2, 2))),
    "lambda-prime-5-1-5": (oracle_lambda_prime, (5, 1, 5)),
}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def in_a_child(monkeypatch, tmp_path):
    """Make the first pool child to take a task run `act()` in its kernel
    call; the parent's first pool task waits for that child to start."""

    def install(act):
        parent, real, calls = os.getpid(), backends.seq_search, []
        started = tmp_path / "child-started"

        def kernel(**kw):
            if os.getpid() != parent:
                started.touch()
                act()
            else:
                calls.append(kw)
                if len(calls) == 3:  # the probe and the eldest prefix ran before the pool
                    deadline = time.monotonic() + 60
                    while not started.exists() and time.monotonic() < deadline:
                        time.sleep(0.01)
            return real(**kw)

        monkeypatch.setattr(backends, "seq_search", kernel)
        return calls

    return install


def raise_zero_division():
    raise ZeroDivisionError("raised in a pool process")


@pytest.mark.usefixtures("split_always")
class TestForkPool:
    """A split search runs the eldest prefix first, then the others on K - 1
    forked children and this process; no process outlives the call. The
    probe budget is one node, so that these instances split."""

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    @pytest.mark.parametrize("name", list(SPLIT_INSTANCES))
    def test_threads_give_the_serial_answer(self, request, backend, name):
        request.getfixturevalue(f"{backend}_backend")
        oracle, args = SPLIT_INSTANCES[name]
        serial = oracle(*args, override_caps=True)
        for threads in (2, 3):
            res = oracle(*args, override_caps=True, threads=threads)
            assert (res.value, res.witness, res.exhausted) == (
                serial.value, serial.witness, serial.exhausted), threads
        assert_no_child_left()

    @pytest.mark.parametrize("budget", [7, 64, 1000])
    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    @pytest.mark.parametrize("name", list(SPLIT_INSTANCES))
    def test_every_probe_budget_gives_the_serial_answer(self, request, monkeypatch, backend,
                                                        name, budget):
        """The probe seeds the split with the first state of its value; the
        budget of one node is the class's own, in the test above."""
        request.getfixturevalue(f"{backend}_backend")
        monkeypatch.setattr(oracles, "_SPLIT_PROBE_NODES", budget)
        oracle, args = SPLIT_INSTANCES[name]
        serial = oracle(*args, override_caps=True)
        for threads in (2, 3):
            res = oracle(*args, override_caps=True, threads=threads)
            assert (res.value, res.witness, res.exhausted) == (
                serial.value, serial.witness, serial.exhausted), threads
        assert_no_child_left()

    def test_eldest_prefix_seeds_its_siblings(self):
        # each kernel call keeps its own table of relabeled states, so the
        # split walks more than the serial 5,799: the one-node probe, then
        # the 11,276 nodes of the frontier and the prefixes
        res = oracle_lambda(4, 5, override_caps=True, threads=2)
        assert (res.nodes_explored, res.threads_used) == (11_277, 2)

    def test_map_keeps_task_order(self):
        from seqext._forkpool import ForkPool

        with ForkPool(3) as pool:
            assert pool.map(lambda k: (k, k * k), range(256)) == [(k, k * k) for k in range(256)]
        assert_no_child_left()

    def test_failed_fork_closes_its_pipe(self, monkeypatch):
        from seqext._forkpool import ForkPool

        real_fork, forks = os.fork, []

        def fork():
            forks.append(None)
            if len(forks) == 2:
                raise OSError(11, "Resource temporarily unavailable")
            return real_fork()

        def fds():  # nothing to compare where /proc is missing
            return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []

        before = fds()
        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(OSError) as raised:
            ForkPool(3).map(abs, range(-5, 0))
        assert raised.value.errno == 11 and len(forks) == 2
        assert fds() == before
        assert_no_child_left()

    def test_child_error_is_raised_in_the_parent(self, in_a_child):
        in_a_child(raise_zero_division)
        with pytest.raises(ZeroDivisionError, match="^raised in a pool process$"):
            oracle_lambda(4, 2, threads=2)
        assert_no_child_left()

    def test_killed_child_raises_runtime_error(self, in_a_child):
        in_a_child(lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(RuntimeError, match="ended without sending its results"):
            oracle_lambda(4, 2, threads=2)
        assert_no_child_left()

    @pytest.mark.parametrize("exc", [ZeroDivisionError, KeyboardInterrupt])
    def test_parent_error_kills_the_children(self, in_a_child, monkeypatch, exc):
        """The child sleeps longer than the test allows: only a kill ends it in time."""
        calls = in_a_child(lambda: time.sleep(120))
        waiting = backends.seq_search

        def kernel(**kw):
            result = waiting(**kw)
            if len(calls) == 3:
                raise exc("raised in the parent")
            return result

        monkeypatch.setattr(backends, "seq_search", kernel)
        t0 = time.monotonic()
        with pytest.raises(exc, match="raised in the parent"):
            oracle_lambda(4, 2, threads=2)
        assert time.monotonic() - t0 < 60
        assert_no_child_left()

    def test_threads_need_fork(self, monkeypatch):
        monkeypatch.delattr(oracles.os, "fork")
        with pytest.raises(ValueError, match="os.fork"):
            oracle_lambda(3, 2, threads=2)
        assert oracle_lambda(3, 2).value == 5


class TestSerialFirst:
    """At the default probe budget a threads > 1 search that finishes in
    its probe is the serial search, node for node, on one process."""

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    @pytest.mark.parametrize("name", list(SPLIT_INSTANCES))
    def test_split_instances_run_serially(self, request, pool_sizes, backend, name):
        request.getfixturevalue(f"{backend}_backend")
        oracle, args = SPLIT_INSTANCES[name]
        serial = oracle(*args, override_caps=True)
        res = oracle(*args, override_caps=True, threads=2)
        assert res == serial and res.threads_used == 1 and pool_sizes == []

    @pytest.mark.parametrize("oracle, args, kernel", [
        (oracle_lambda, (5, 4), "seq_search"),
        (oracle_ex_matrix, (2, 12, all_ones(2, 2)), "matrix_search"),  # one row count searched
    ])
    def test_a_node_budget_makes_one_kernel_call(self, monkeypatch, pool_sizes, oracle, args,
                                                 kernel):
        calls, real = [], getattr(backends, kernel)
        monkeypatch.setattr(backends, kernel, lambda **kw: calls.append(kw) or real(**kw))
        monkeypatch.setattr(oracles, "_SPLIT_PROBE_NODES", 1)
        res = oracle(*args, override_caps=True, threads=2, node_budget=100)
        assert [kw["node_budget"] for kw in calls] == [100] and "prefix" not in calls[0]
        assert (res.nodes_explored, res.exhausted, res.threads_used) == (100, False, 1)
        assert pool_sizes == []

    def test_a_search_past_the_probe_splits(self, compiled_backend):
        """Past 2^15 nodes the split runs, probe included in the node count."""
        M = matrices.parse_matrix("10\n11")
        args = (5, 5, matrices.MatrixPattern(M.n, M.m, M.rows))
        serial = oracle_ex_matrix(*args, override_caps=True)
        res = oracle_ex_matrix(*args, override_caps=True, threads=2)
        assert (res.value, res.witness, res.exhausted) == (
            serial.value, serial.witness, serial.exhausted)
        assert serial.nodes_explored > oracles._SPLIT_PROBE_NODES
        assert res.nodes_explored > serial.nodes_explored
        assert res.threads_used == oracles._pool_size(2, [(), ()])
        assert_no_child_left()


class TestCeiling:
    """Each result carries the ceiling its search ran under."""

    def test_sequence_oracles(self):
        assert oracle_lambda(4, 2).ceiling == lambda_ceiling(4, 2)
        assert oracle_lambda_blocks(3, 3, 2).ceiling == min(3 * 2, lambda_ceiling(3, 3))
        assert oracle_lambda_blocks(3, 1, 4).ceiling == lambda_ceiling(3, 1)
        assert oracle_lambda_prime(3, 2, 3).ceiling == 3 * 3

    def test_sparse_oracles(self):
        assert oracle_formation(3, 2, 2, 2).ceiling == formation_ceiling(3, 2, 2)
        assert oracle_formation(2, 2, 2, 3).ceiling == 2  # n < j
        with pytest.raises(ValueError, match="unbounded"):  # j < r: no ceiling
            oracle_formation(2, 3, 2, 2)
        u = Sequence((1, 2, 1))
        assert oracle_pattern(u, 2, 3).ceiling == formation_ceiling(3, 2, 3)
        assert oracle_pattern(u, 3, 2).ceiling == 2  # n < j
        with pytest.raises(ValueError, match="unbounded"):  # j < r_u
            oracle_pattern(u, 1, 3)

    def test_one_letter_ceiling_is_exact(self):
        # a (1, s)-formation is one letter s times, and (1..n)^(s-1) is
        # j-sparse for n >= j, so the ceiling (s-1) n is the value
        for n, s, j in product((2, 3, 4), (1, 2, 3), (1, 2)):
            res = oracle_formation(n, 1, s, j)
            assert (res.value, res.ceiling, res.exhausted) == ((s - 1) * n, (s - 1) * n, True)
        res = oracle_pattern(parse_pattern("a a a a a a"), 2, 4)
        assert (res.value, res.ceiling, res.nodes_explored, res.exhausted) == (20, 20, 20, True)

    def test_ex_matrix(self):
        assert oracle_ex_matrix(3, 4, all_ones(2, 2)).ceiling == 12


class TestFormationCeilingLimit:
    """s n^r of more than FORMATION_CEILING_BITS bits is refused, before the
    power is computed when n^r alone has that many."""

    BITS = FORMATION_CEILING_BITS

    def refused(self, n, r, s):
        message = f"^formation ceiling s n\\^r exceeds {self.BITS} bits$"
        with pytest.raises(ValueError, match=message):
            formation_ceiling(n, r, s)

    def test_powers_of_two_at_the_edge(self):
        assert formation_ceiling(2, self.BITS - 1, 1) == 2 ** (self.BITS - 1)
        self.refused(2, self.BITS, 1)
        assert formation_ceiling(2, 2, 2 ** (self.BITS - 3)) == 2 ** (self.BITS - 1)
        assert formation_ceiling(2, 2, 2 ** (self.BITS - 2) - 1).bit_length() == self.BITS
        self.refused(2, 2, 2 ** (self.BITS - 2))

    def test_edge_found_after_the_power(self):
        # 3^r passes the test before the power for every r < BITS, so the
        # edge near r = BITS / log2(3) is found on the computed value
        r = max(k for k in range(1, self.BITS) if (3**k).bit_length() <= self.BITS)
        assert formation_ceiling(3, r, 1) == 3**r
        self.refused(3, r + 1, 1)
        assert formation_ceiling(1, 10**12, 5) == 5  # 1^r needs no bits

    def test_one_letter_ceiling_has_no_limit(self):
        assert formation_ceiling(2**self.BITS, 1, 3) == 2 ** (self.BITS + 1)

    def test_huge_powers_are_refused_unbuilt(self):
        t0 = time.perf_counter()
        for e in (10**6, 10**7, 10**100):
            self.refused(e, e, 2)
        assert time.perf_counter() - t0 < 1.0

    def test_oracle_formation_at_the_edge(self):
        # n = r = j: the ceiling n^n fits for n = 1002 and not for 1003;
        # below the limit the kernels refuse it (it is no C int)
        assert (1002**1002).bit_length() <= self.BITS < (1003**1003).bit_length()
        with pytest.raises(ValueError, match="^argument out of range$"):
            oracle_formation(1002, 1002, 1, 1002, override_caps=True)
        with pytest.raises(ValueError, match="bits$"):
            oracle_formation(1003, 1003, 1, 1003, override_caps=True)


def canonical_patterns(max_len):
    """Every pattern of at most `max_len` tokens with letters in order of
    first occurrence (1 first, each new letter one above the largest so far)."""
    out = [(1,)]
    for u in out:
        if len(u) < max_len:
            out.extend(u + (c,) for c in range(1, max(u) + 2))
    return out


class TestUnbounded:
    """With n >= j and j < r the cycle 1..j repeated is j-sparse with fewer
    than r letters, so it avoids every (r, s)-formation and every pattern on
    r letters at every length: the query is refused before any search."""

    @pytest.fixture
    def no_search(self, monkeypatch):
        def fail(*args, **kw):
            raise AssertionError("a refused query reached a kernel or the pool")

        monkeypatch.setattr(backends, "seq_search", fail)
        monkeypatch.setattr(oracles, "ProcessPoolExecutor", fail)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_refused_unsearched(self, no_search, threads):
        queries = [
            (oracle_formation, (n, r, s, j), j, r)
            for n, r, s in product(range(1, 5), range(2, 5), range(1, 4))
            for j in range(1, min(r - 1, n) + 1)
        ]
        queries += [
            (oracle_pattern, (PatternSequence(u), j, n), j, max(u))
            for u in canonical_patterns(5) for n in range(1, 5)
            for j in range(1, min(max(u) - 1, n) + 1)
        ]
        assert len(queries) == 60 + 437
        for oracle, args, j, r in queries:
            with pytest.raises(ValueError) as info:
                oracle(*args, threads=threads)
            assert str(info.value) == (
                f"unbounded for j < r (j={j}, r={r}): the cycle 1..j repeated is j-sparse "
                "with fewer than r letters"
            ), args

    def test_refused_before_the_caps(self, no_search):
        # over every cap, without override: the refusal, not CapExceededError
        with pytest.raises(ValueError, match="unbounded"):
            oracle_formation(9, 5, 9, 2)
        with pytest.raises(ValueError, match="unbounded"):
            oracle_pattern(parse_pattern("a b c a b c a b c"), 2, 9)


class TestFewerLettersThanJ:
    """With n < j every token is distinct, so the value is known: n, or
    r - 1 (r_u - 1) letters when one permutation (u itself) is forbidden. It
    is answered before the caps without a search, with the letters 1..value."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(backends, "seq_search", lambda **kw: calls.append(kw))
        monkeypatch.setattr(oracles, "ProcessPoolExecutor", lambda **kw: calls.append(kw))
        return calls

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    def test_matches_the_kernel_search(self, request, monkeypatch, backend):
        request.getfixturevalue(f"{backend}_backend")
        kernel = backends.seq_search
        calls = []
        monkeypatch.setattr(backends, "seq_search", lambda **kw: calls.append(kw))
        queries = [
            (oracle_formation, (n, r, s, j),
             dict(mode=_kernels_py.MODE_FORMATION, n=n, j=j, ceiling=n, s=s, r=r))
            for j in range(2, 6) for n in range(1, j) for r in range(1, 5) for s in range(1, 4)
        ]
        queries += [
            (oracle_pattern, (PatternSequence(u), j, n),
             dict(mode=_kernels_py.MODE_PATTERN, n=n, j=j, ceiling=n, pattern=u))
            for u in canonical_patterns(5) for j in range(2, 6) for n in range(1, j)
        ]
        assert len(queries) == 120 + 750
        for oracle, args, search in queries:
            res = oracle(*args, override_caps=True, threads=2)
            best, toks, _nodes, truncated = kernel(**search)
            assert (res.value, res.witness.tokens, res.nodes_explored, res.exhausted,
                    res.ceiling) == (best, tuple(toks), 0, True, search["n"]), args
            assert not truncated
        assert calls == []

    def test_values(self, kernel_calls):
        # without override_caps: n < j is answered before the caps
        assert oracle_formation(40, 20, 2, 41).witness == Sequence(tuple(range(1, 41)))
        assert oracle_formation(40, 20, 1, 41).value == 19
        assert oracle_formation(5, 6, 1, 9).value == 5
        res = oracle_pattern(parse_pattern("1 2 3 4 5 6 7 1"), 61, 60)
        assert (res.value, res.nodes_explored, res.exhausted, res.ceiling) == (60, 0, True, 60)
        assert oracle_pattern(parse_pattern("1 2 3 4 5 6 7"), 61, 60).value == 6
        assert kernel_calls == []

    def test_budget_and_threads(self, kernel_calls):
        expected = oracle_formation(3, 2, 2, 4)
        assert oracle_formation(3, 2, 2, 4, node_budget=1, threads=3) == expected
        with pytest.raises(ValueError, match="threads must be >= 1"):
            oracle_formation(3, 2, 2, 4, threads=0)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            oracle_pattern(parse_pattern("a b a"), 4, 3, threads=0)
        assert kernel_calls == []

    def test_letter_range_is_the_kernels(self, kernel_calls):
        assert oracle_formation(_kernels_py.MAX_LETTERS, 2, 2, 99).value == _kernels_py.MAX_LETTERS
        for n in (_kernels_py.MAX_LETTERS + 1, 10**9):
            with pytest.raises(ValueError, match=r"^letter count must be in 1\.\.60$"):
                oracle_formation(n, 2, 2, n + 1)
            with pytest.raises(ValueError, match=r"^letter count must be in 1\.\.60$"):
                oracle_pattern(parse_pattern("a b a"), n + 1, n, override_caps=True)
        assert kernel_calls == []

    def test_witness_is_rechecked(self, kernel_calls, monkeypatch):
        monkeypatch.setattr(checks, "is_sparse", lambda seq, j: False)
        for call in (lambda: oracle_formation(3, 2, 2, 4),
                     lambda: oracle_pattern(parse_pattern("a b a"), 4, 3)):
            with pytest.raises(RuntimeError, match="witness failed independent re-check"):
                call()
