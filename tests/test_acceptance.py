"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(visible with `pytest -s`). Criteria with a stated runtime budget assert it.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations
from math import comb, factorial

from conftest import GRID_PARAMS, random_hypergraph
from seqext.checks import (
    _greedy_formations,
    brute_formation_length,
    formation_length,
    is_ds,
    is_sparse,
    max_formation_length,
)
from seqext.coloring import greedy_edge_coloring, validate_coloring, within_color_budget
from seqext.construct import (
    build_block_witness,
    build_formation_witness,
    choose_params,
    level_coloring,
    level_hypergraph,
    pad_to_alphabet,
)
from seqext.matrices import all_ones, kst_bound
from seqext.oracles import (
    lambda_ceiling,
    oracle_ex_matrix,
    oracle_lambda,
    oracle_lambda_blocks,
    oracle_lambda_prime,
    oracle_pattern,
)
from seqext.sequences import Sequence, flatten, parse_pattern


@contextmanager
def criterion(num, name):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({time.monotonic() - start:.1f}s)")


def test_criterion_01_oracle_calibration():
    with criterion(1, "oracle calibration"):
        start = time.monotonic()
        for n in (2, 3, 4):
            assert oracle_lambda(n, 1, 2).value == n
            assert oracle_lambda(n, 2, 2).value == 2 * n - 1
        assert time.monotonic() - start < 60


def test_criterion_02_ds_ceiling():
    with criterion(2, "DS length ceiling"):
        instances = [(n, s) for n in (2, 3, 4) for s in (1, 2)] + [(3, 3), (4, 3)]
        for n, s in instances:
            assert oracle_lambda(n, s, 2).value <= s * comb(n, 2) + 1


def test_criterion_03_construction_grid():
    with criterion(3, "construction invariant grid"):
        start = time.monotonic()
        for (r, q, x, t) in GRID_PARAMS:
            seq, trace = build_formation_witness(r, q, x, t)
            assert len(seq) == q * t * comb(x, r)
            assert is_sparse(seq, q)
            assert not is_sparse(seq, q + 1)
            assert trace.letter_count <= factorial(q) ** (r - 1) * x
            assert max_formation_length(seq, r) < 2 * comb(x - 1, r - 1) + t + 1
            for level in range(r, q + 1):
                H = level_hypergraph(trace, level)
                assert H.max_pairwise_intersection() <= r - 1
        assert time.monotonic() - start < 120


def test_criterion_04_greedy_formation_exact(grid_builds):
    with criterion(4, "greedy formation = brute force"):
        rng = random.Random(20260404)
        for _ in range(500):
            alpha = rng.randint(1, 5)
            length = rng.randint(0, 20)
            seq = Sequence(tuple(rng.randint(1, alpha) for _ in range(length)))
            letters = sorted(seq.alphabet)
            if not letters:
                continue
            query = tuple(rng.sample(letters, rng.randint(1, len(letters))))
            assert formation_length(seq, query) == brute_formation_length(seq, query)
        # the checker's jump scan on every r-subset of every grid witness
        # whose restriction brute force can take, scanned by the checker or not
        for (r, _q, _x, _t), seq, _trace in grid_builds:
            positions = {}
            for i, tok in enumerate(seq.tokens):
                positions.setdefault(tok, []).append(i)
            for combo in combinations(sorted(positions), r):
                lists = [positions[tok] for tok in combo]
                if sum(map(len, lists)) <= 24:
                    assert _greedy_formations(lists) == brute_formation_length(seq, combo)


def test_criterion_05_coloring_validity_and_budget(grid_builds):
    with criterion(5, "greedy coloring validity and budget"):
        rng = random.Random(20260809)
        for _ in range(200):
            H, y = random_hypergraph(rng)
            col = greedy_edge_coloring(H, y)
            assert validate_coloring(H, col)
            assert within_color_budget(col.color_count, H.uniformity, y, H.vertex_count)
        for (r, q, _x, _t), _seq, trace in grid_builds:
            for level in range(r, q):
                H = level_hypergraph(trace, level)
                col = level_coloring(trace, level)
                assert validate_coloring(H, col)
                assert within_color_budget(
                    col.color_count, H.uniformity, r - 1, H.vertex_count
                )


def test_criterion_06_bridge_identity():
    with criterion(6, "lambda' = Zarankiewicz bridge"):
        start = time.monotonic()
        for n in (2, 3, 4):
            for s in (1, 2):
                lhs = oracle_lambda_prime(n, s, n).value
                rhs = oracle_ex_matrix(n, n, all_ones(2, s + 1)).value
                assert lhs == rhs
        assert time.monotonic() - start < 600


def test_criterion_07_zarankiewicz_desk_values():
    with criterion(7, "Zarankiewicz desk values"):
        r33 = oracle_ex_matrix(3, 3, all_ones(2, 2)).value
        r44 = oracle_ex_matrix(4, 4, all_ones(2, 2)).value
        assert r33 == 6 <= kst_bound(3, 3, 2, 2)
        assert r44 == 9 <= kst_bound(4, 4, 2, 2)


def test_criterion_08_block_construction():
    with criterion(8, "reversed-block construction"):
        for n in range(3, 7):
            for s in range(1, 7):
                bs = build_block_witness(n, s)
                flat = flatten(bs)
                full = min(s, n)
                assert bs.block_count == n
                assert all(len(b) >= n - 1 for b in bs.blocks[:full])
                if s <= n:
                    assert flat.length >= n * s - n
                assert is_ds(flat, s)


def test_criterion_09_cross_oracle_consistency():
    with criterion(9, "cross-oracle consistency"):
        alt4 = parse_pattern("a b a b")
        assert oracle_pattern(alt4, 2, 3).value == 5 == oracle_lambda(3, 2, 2).value
        for n in (2, 3, 4):
            for s in (1, 2):
                assert (
                    oracle_lambda_blocks(n, s, n).value
                    <= oracle_lambda_prime(n, s, n).value
                )


def test_criterion_10_choose_params_soundness():
    with criterion(10, "parameter selection soundness"):
        for n in (24, 48):
            s = n
            for q in (2, 3):
                x, t = choose_params(n, s, 2, q)
                assert 2 * comb(x - 1, 1) + t + 1 <= s
                assert factorial(q) * x <= n
                seq, trace = build_formation_witness(2, q, x, t)
                assert len(seq) == q * t * comb(x, 2)
                assert is_sparse(seq, q)
                assert not is_sparse(seq, q + 1)
                assert trace.letter_count <= factorial(q) * x
                assert max_formation_length(seq, 2) < 2 * comb(x - 1, 1) + t + 1
                for level in range(2, q + 1):
                    assert level_hypergraph(trace, level).max_pairwise_intersection() <= 1
                padded = pad_to_alphabet(seq, n)
                assert len(padded.alphabet) == n
                old = sorted(seq.alphabet)
                for i in range(len(old)):
                    for k in range(i + 1, len(old)):
                        combo = (old[i], old[k])
                        assert formation_length(padded, combo) == formation_length(seq, combo)
