import pytest

from math import comb, factorial

from seqext.checks import is_ds, is_sparse, max_alternation, max_formation_length
from seqext.coloring import greedy_edge_coloring, validate_coloring, within_color_budget
from seqext.construct import (
    build_base,
    build_block_witness,
    build_ds_sparse_witness,
    build_formation_witness,
    choose_params,
    ds_sparse_params,
    level_coloring,
    level_hypergraph,
    level_supports,
    lift,
    pad_to_alphabet,
    trace_report,
)
from seqext.errors import InfeasibleError
from seqext.sequences import flatten, parse_sequence, render


class TestBase:
    def test_t2_3_2(self):
        seq, trace = build_base(2, 3, 2)
        assert render(seq) == "1 2 1 2 1 3 1 3 2 3 2 3"
        assert trace.troop_count == comb(3, 2)

    def test_troops_3_4_1(self):
        seq, trace = build_base(3, 4, 1)
        assert len(seq) == 3 * 1 * comb(4, 3)
        assert [t.support for t in trace.troops] == [
            (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),
        ]

    def test_formation_bound_instance(self):
        seq, _ = build_base(2, 3, 2)
        assert max_formation_length(seq, 2) == 3 < 2 * comb(2, 1) + 2 + 1

    def test_validation(self):
        with pytest.raises(InfeasibleError):
            build_base(2, 1, 1)
        with pytest.raises(InfeasibleError):
            build_base(1, 3, 1)
        with pytest.raises(InfeasibleError):
            build_base(2, 3, 0)

    def test_position_monotonicity_in_adjacent_troops(self):
        # a letter shared by adjacent troops never moves to an earlier position
        for (r, x, t) in [(2, 5, 1), (3, 6, 2), (4, 6, 1)]:
            _, trace = build_base(r, x, t)
            for left, right in zip(trace.troops, trace.troops[1:]):
                for letter in set(left.support) & set(right.support):
                    assert right.support.index(letter) >= left.support.index(letter)

    def test_length_and_sparsity_grid(self):
        # r <= 4, x <= 9, t <= 5
        for r in (2, 3, 4):
            for x in range(r, 10):
                for t in (1, 2, 3, 4, 5):
                    seq, trace = build_base(r, x, t)
                    assert len(seq) == r * t * comb(x, r)
                    assert is_sparse(seq, r)
                    assert trace.letter_count == x


class TestLift:
    def test_lift_of_t2_3_2(self):
        _, trace = build_base(2, 3, 2)
        seq, lifted = lift(trace)
        assert render(seq) == "1 2 4 1 2 4 1 3 5 1 3 5 2 3 6 2 3 6"
        assert lifted.letter_count == 6 <= factorial(3) ** 1 * 3
        assert len(seq) == 3 * 2 * comb(3, 2)
        assert is_sparse(seq, 3) and not is_sparse(seq, 4)

    def test_lift_rejects_broken_induction(self):
        from seqext.construct import ConstructionTrace, Troop

        bad = ConstructionTrace(
            r=2, q=3, x=3, t=1,
            troops=(Troop((1, 2, 3), 1), Troop((1, 2, 4), 1)),
            letter_count=4, color_letters_per_level={3: (4,)},
        )
        with pytest.raises(ValueError, match="intersect"):
            lift(bad)


class TestFormationWitness:
    def test_base_case_is_base(self):
        direct, _ = build_base(2, 3, 2)
        via, trace = build_formation_witness(2, 2, 3, 2)
        assert direct == via and trace.q == 2

    def test_second_lift(self):
        seq, trace = build_formation_witness(2, 4, 3, 2)
        assert len(seq) == 4 * 2 * comb(3, 2) == 24
        assert is_sparse(seq, 4) and not is_sparse(seq, 5)

    def test_level_views(self):
        _, trace = build_formation_witness(2, 4, 3, 2)
        assert level_supports(trace, 2) == ((1, 2), (1, 3), (2, 3))
        for level in range(2, 5):
            H = level_hypergraph(trace, level)
            assert H.max_pairwise_intersection() <= 1
            if level < 4:
                col = level_coloring(trace, level)
                assert validate_coloring(H, col)
                assert within_color_budget(
                    col.color_count, H.uniformity, 1, H.vertex_count
                )

    def test_color_letters_match_supports(self):
        _, trace = build_formation_witness(2, 4, 3, 2)
        for level, fresh in trace.color_letters_per_level.items():
            appended = {t.support[level - 1] for t in trace.troops}
            assert appended == set(fresh)

    def test_invalid_q(self):
        with pytest.raises(InfeasibleError):
            build_formation_witness(3, 2, 4, 1)


class TestLevelColoring:
    def test_read_coloring_is_the_greedy_one(self, grid_builds):
        for (r, q, _x, _t), _seq, trace in grid_builds:
            for level in range(r, q):
                assert level_coloring(trace, level) == greedy_edge_coloring(
                    level_hypergraph(trace, level), r - 1
                )

    def test_catches_a_lift_that_applied_a_bad_coloring(self):
        from seqext.construct import ConstructionTrace, Troop

        # troops (1,2) and (1,3) meet in r-1 = 1 letter yet both got color letter 5
        bad = ConstructionTrace(
            r=2, q=3, x=3, t=1,
            troops=(Troop((1, 2, 5), 1), Troop((1, 3, 5), 1), Troop((2, 3, 4), 1)),
            letter_count=5, color_letters_per_level={3: (4, 5)},
        )
        col = level_coloring(bad, 2)
        assert col.colors == (2, 2, 1) and col.color_count == 2
        assert not validate_coloring(level_hypergraph(bad, 2), col)

    def test_only_lifted_levels(self):
        _, trace = build_formation_witness(2, 4, 3, 2)
        for level in (1, trace.q, trace.q + 1):
            with pytest.raises(ValueError):
                level_coloring(trace, level)


class TestGridInvariants:
    def test_construction_grid(self, grid_builds):
        for (r, q, x, t), seq, trace in grid_builds:
            assert len(seq) == q * t * comb(x, r)
            assert is_sparse(seq, q)
            assert not is_sparse(seq, q + 1)
            assert trace.letter_count <= factorial(q) ** (r - 1) * x
            assert max_formation_length(seq, r) < 2 * comb(x - 1, r - 1) + t + 1
            for level in range(r, q + 1):
                H = level_hypergraph(trace, level)
                assert H.max_pairwise_intersection() <= r - 1


class TestPad:
    def test_examples(self):
        assert render(pad_to_alphabet(parse_sequence("1 2 1 2"), 3)) == "1 2 1 2 3"
        one = parse_sequence("1")
        assert pad_to_alphabet(one, 1) == one

    def test_witness_padding_preserves_formations(self):
        seq, _ = build_formation_witness(2, 3, 3, 2)
        padded = pad_to_alphabet(seq, 8)
        assert len(padded) == 20 and len(padded.alphabet) == 8
        assert max_formation_length(padded, 2) == max_formation_length(seq, 2)
        assert is_sparse(padded, 3)

    def test_too_many_letters(self):
        with pytest.raises(InfeasibleError):
            pad_to_alphabet(parse_sequence("1 2 3"), 2)


class TestChooseParams:
    def test_examples(self):
        assert choose_params(48, 24, 2, 2) == (6, 11)
        assert choose_params(48, 24, 2, 3) == (2, 11)
        with pytest.raises(InfeasibleError):
            choose_params(4, 4, 2, 3)

    def test_rounded_x_is_raised_to_r_when_viable(self):
        x, t = choose_params(24, 24, 2, 3)
        assert (x, t) == (2, 11)
        assert 2 * comb(x - 1, 1) + t + 1 <= 24
        assert factorial(3) * x <= 24

    def test_guarantees_hold(self):
        for (n, s, r, q) in [(48, 24, 2, 2), (40, 30, 2, 3), (120, 40, 3, 3)]:
            x, t = choose_params(n, s, r, q)
            assert x >= r and t >= 1
            assert 2 * comb(x - 1, r - 1) + t + 1 <= s
            assert factorial(q) ** (r - 1) * x <= n

    def test_x_starts_at_the_exact_quarter(self):
        # (2^60 - 1) // 8 = 2^57 - 1, where the float quotient rounds up to
        # 2^57, which would also meet both requirements
        n, s = 2**60 - 1, 2**59 + 8
        assert choose_params(n, s, 2, 2) == (2**57 - 1, 2**58 + 3)
        assert 2 * (2**57 - 1) + (2**58 + 3) + 1 <= s and 2 * 2**57 <= n

    def test_x_starts_at_most_at_half_s(self):
        # a huge alphabet with a small order: the start is s/2, not n/4
        assert choose_params(10**400, 8, 2, 2) == (3, 3)
        assert choose_params(10**400, 200, 3, 3) == (11, 99)


class TestDsSparseWitness:
    def test_infeasible_small(self):
        with pytest.raises(InfeasibleError):
            build_ds_sparse_witness(4, 4, 2)

    def test_witness_properties(self):
        for (n, s, j) in [(48, 24, 2), (48, 24, 3), (24, 24, 2), (32, 16, 2)]:
            w = build_ds_sparse_witness(n, s, j)
            assert len(w.alphabet) == n
            assert is_sparse(w, j)
            assert is_ds(w, s)

    def test_feasibility_sweep(self):
        built = 0
        for n in (12, 16, 24, 32, 48, 64):
            for s in (8, 12, 16, 24, 32, 48):
                for j in (2, 3, 4):
                    try:
                        w = build_ds_sparse_witness(n, s, j)
                    except InfeasibleError:
                        continue
                    built += 1
                    assert len(w.alphabet) == n
                    assert is_sparse(w, j)
                    assert is_ds(w, s)
        assert built >= 40  # the regime s ~ n must mostly be feasible

    def test_formation_target_halves_order(self):
        # the internal formation target must cap alternations at s+1
        x, t = ds_sparse_params(48, 24, 2)
        assert 2 * comb(x - 1, 1) + t + 1 <= 24 // 2 + 1


class TestBlockWitness:
    def test_example_4_3(self):
        bs = build_block_witness(4, 3)
        assert render(bs) == "1 2 3 4 | 3 2 1 | 2 3 4 |"
        assert bs.length == 10 >= 4 * 3 - 4
        assert max_alternation(flatten(bs)) == 4

    def test_degenerate_2_1(self):
        bs = build_block_witness(2, 1)
        assert render(bs) == "1 2 |"
        assert bs.length == 2 >= 2 * 1 - 2

    def test_grid(self):
        for n in range(3, 7):
            for s in range(1, 7):
                bs = build_block_witness(n, s)
                assert bs.block_count == n
                full = min(s, n)
                assert all(len(b) >= n - 1 for b in bs.blocks[:full])
                assert all(len(b) == 0 for b in bs.blocks[full:])
                if s <= n:
                    assert bs.length >= n * s - n
                assert is_ds(flatten(bs), s)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_block_witness(1, 3)
        with pytest.raises(ValueError):
            build_block_witness(4, 0)


GOLDEN_TRACE_2_3_3_2 = """\
construction r=2 q=3 x=3 t=2
length 18
letters 6
troops 3
troop 1: 1 2 4
troop 2: 1 3 5
troop 3: 2 3 6
level 3 fresh: 4 5 6
"""


def test_trace_report_golden():
    _, trace = build_formation_witness(2, 3, 3, 2)
    assert trace_report(trace) == GOLDEN_TRACE_2_3_3_2
