import random
from itertools import combinations

import pytest

from seqext.matrices import (
    MatrixPattern,
    ZeroOneMatrix,
    all_ones,
    blocked_to_matrix,
    kst_bound,
    matrix_contains,
    matrix_contains_brute,
    matrix_to_blocked,
    max_pair_cooccurrence,
    parse_matrix,
    render_matrix,
)
from seqext.sequences import BlockedSequence, parse_sequence


def mat(text):
    return parse_matrix(text)


def random_matrix(rng, max_n=5, max_m=5):
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    return ZeroOneMatrix(n, m, tuple(rng.randrange(1 << m) for _ in range(n)))


class TestBasics:
    def test_all_ones(self):
        assert render_matrix(all_ones(1, 1)) == "1"
        assert render_matrix(all_ones(2, 2)) == "11\n11"
        assert all_ones(2, 3).ones_count == 6

    def test_pattern_needs_a_one(self):
        with pytest.raises(ValueError):
            MatrixPattern(2, 2, (0, 0))

    def test_parse_render_round_trip(self):
        for text in ("1", "10\n01", "110\n011\n101"):
            assert render_matrix(mat(text)) == text

    def test_parse_validation(self):
        with pytest.raises(ValueError):
            mat("10\n1")
        with pytest.raises(ValueError):
            mat("12")
        with pytest.raises(ValueError):
            mat("  ")


class TestContainment:
    def test_self_containment(self):
        assert matrix_contains(all_ones(2, 2), all_ones(2, 2))

    def test_identity_avoids_r22(self):
        assert not matrix_contains(mat("100\n010\n001"), all_ones(2, 2))

    def test_incidence_of_blocked(self):
        M = blocked_to_matrix(parse_sequence("1 2 | 2 1 | 1 2"))
        assert matrix_contains(M, all_ones(2, 3))

    def test_pattern_larger_than_matrix(self):
        assert not matrix_contains(all_ones(2, 2), all_ones(3, 2))

    def test_reflexive_and_monotone(self):
        rng = random.Random(41)
        for _ in range(150):
            A = random_matrix(rng)
            if any(A.rows):
                P = MatrixPattern(A.n, A.m, A.rows)
                assert matrix_contains(A, P)
                # adding ones never destroys containment
                i = rng.randrange(A.n)
                j = rng.randrange(A.m)
                bigger = ZeroOneMatrix(
                    A.n, A.m,
                    tuple(r | (1 << j) if k == i else r for k, r in enumerate(A.rows)),
                )
                assert matrix_contains(bigger, P)

    def test_greedy_matches_brute(self):
        rng = random.Random(43)
        for _ in range(300):
            A = random_matrix(rng)
            pn = rng.randint(1, min(3, A.n))
            pm = rng.randint(1, min(3, A.m))
            rows = tuple(rng.randrange(1 << pm) for _ in range(pn))
            if not any(rows):
                continue
            P = MatrixPattern(pn, pm, rows)
            assert matrix_contains(A, P) == matrix_contains_brute(A, P)

    @pytest.mark.parametrize("empty_row", [False, True])
    def test_light_rows_skipped_match_brute(self, empty_row):
        """Host rows lighter than the pattern's lightest row are skipped; hosts
        with many zero and one-entry rows still agree with the brute force,
        for patterns with and without an empty row."""
        rng = random.Random(47 + empty_row)
        tried = found = 0
        while tried < 300:
            n, m = rng.randint(2, 7), rng.randint(2, 5)
            light = [0] + [1 << j for j in range(m)]
            A = ZeroOneMatrix(n, m, tuple(
                rng.choice(light) if rng.random() < 0.6 else rng.randrange(1 << m)
                for _ in range(n)))
            pn, pm = rng.randint(2, min(3, n)), rng.randint(1, min(3, m))
            rows = [rng.randrange(1, 1 << pm) for _ in range(pn)]
            if empty_row:
                rows[rng.randrange(pn)] = 0
            P = MatrixPattern(pn, pm, tuple(rows))
            tried += 1
            found += matrix_contains_brute(A, P)
            assert matrix_contains(A, P) == matrix_contains_brute(A, P), (A.rows, P.rows)
        assert 30 < found < 270  # both answers occur often

    def test_zero_rows_of_a_large_host_cost_nothing(self):
        """C(400, 3) row choices would take minutes; the three nonzero rows are one."""
        A = ZeroOneMatrix(400, 10, (1023, 1023, 1) + (0,) * 397)
        assert not matrix_contains(A, mat("11\n10\n01"))
        assert matrix_contains(A, mat("11\n10\n10"))


class TestKst:
    def test_examples(self):
        assert kst_bound(4, 4, 2, 2) == pytest.approx(10.0)
        assert kst_bound(4, 4, 1, 1) == pytest.approx(0.0)
        assert kst_bound(5, 5, 2, 3) == pytest.approx(17.649110640673518)
        assert kst_bound(3, 3, 2, 2) == pytest.approx(2 * 3**0.5 + 3)

    def test_requires_n_at_least_a(self):
        with pytest.raises(ValueError):
            kst_bound(1, 4, 2, 2)


class TestBridge:
    def test_blocked_to_matrix_examples(self):
        assert blocked_to_matrix(parse_sequence("1 2 | 2 1")).rows == (3, 3)
        M = blocked_to_matrix(parse_sequence("1 | | 1"))
        assert (M.n, M.m) == (1, 3) and render_matrix(M) == "101"
        M3 = blocked_to_matrix(parse_sequence("1 2 3 4 | 3 2 1 | 2 3 4"))
        assert (M3.n, M3.m) == (4, 3)
        col_sums = [
            sum((row >> j) & 1 for row in M3.rows) for j in range(3)
        ]
        assert col_sums == [4, 3, 3]

    def test_ones_count_equals_length(self):
        bs = parse_sequence("1 2 3 4 | 3 2 1 | 2 3 4")
        assert blocked_to_matrix(bs).ones_count == bs.length

    def test_matrix_to_blocked_examples(self):
        assert matrix_to_blocked(mat("11\n11")).blocks == ((1, 2), (1, 2))
        assert matrix_to_blocked(ZeroOneMatrix(2, 2, (0, 0))).blocks == ((), ())

    def test_round_trip_matrix(self):
        rng = random.Random(47)
        for _ in range(200):
            M = random_matrix(rng)
            assert blocked_to_matrix(matrix_to_blocked(M), rows=M.n) == M

    def test_round_trip_blocked_up_to_block_order(self):
        bs = parse_sequence("2 1 | 3 | 1 3")
        back = matrix_to_blocked(blocked_to_matrix(bs))
        assert [sorted(b) for b in back.blocks] == [sorted(b) for b in bs.blocks]

    def test_row_count_inference_needs_letters(self):
        with pytest.raises(ValueError):
            blocked_to_matrix(BlockedSequence(((), ())))
        assert blocked_to_matrix(BlockedSequence(((), ())), rows=2).rows == (0, 0)


class TestCooccurrence:
    def test_lambda_prime_bridge(self):
        # pairwise cooccurrence <= s  <=>  incidence matrix avoids the 2 x (s+1) all-ones
        rng = random.Random(53)
        for _ in range(200):
            n = rng.randint(2, 4)
            m = rng.randint(1, 4)
            blocks = []
            for _ in range(m):
                size = rng.randint(0, n)
                blocks.append(tuple(sorted(rng.sample(range(1, n + 1), size))))
            bs = BlockedSequence(tuple(blocks))
            M = blocked_to_matrix(bs, rows=n)
            for s in (1, 2, 3):
                assert (max_pair_cooccurrence(bs) <= s) == (
                    not matrix_contains(M, all_ones(2, s + 1))
                )

    def test_max_matches_pairwise(self):
        bs = parse_sequence("1 2 3 | 2 3 | 3 1")
        letters = sorted(bs.alphabet)
        expect = max(
            sum(a in block and b in block for block in bs.blocks)
            for a, b in combinations(letters, 2)
        )
        assert max_pair_cooccurrence(bs) == expect
