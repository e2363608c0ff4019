import inspect
import random
from collections import Counter
from itertools import combinations, permutations, product

import pytest

from conftest import random_sequence
from seqext.construct import build_block_witness, build_formation_witness, pad_to_alphabet
from seqext import checks
from seqext.checks import (
    alternation_length,
    avoids_all_formations,
    brute_formation_length,
    contains_pattern,
    formation_length,
    is_ds,
    is_sparse,
    max_alternation,
    max_formation_length,
)
from seqext.errors import CapExceededError
from seqext.sequences import (
    PatternSequence,
    Sequence,
    flatten,
    normalize,
    parse_pattern,
    parse_sequence,
)

T232 = parse_sequence("1 2 1 2 1 3 1 3 2 3 2 3")  # the r=2, x=3, t=2 base witness


def seq(text):
    return parse_sequence(text)


def reference_max_alternation(s):
    """alternation_length over every pair of letters: the pairwise reference.
    A pair whose spans do not overlap restricts to a...a b...b, two runs, so
    only overlapping pairs are scanned."""
    first, last = {}, {}
    for i, tok in enumerate(s.tokens):
        first.setdefault(tok, i)
        last[tok] = i
    pairs = list(combinations(sorted(s.alphabet), 2))
    return max(
        (alternation_length(s, a, b) if first[a] < last[b] and first[b] < last[a] else 2
         for a, b in pairs),
        default=0,
    )


def local_pairs(letters, repeats):
    """1 2 1 2 ... 3 4 3 4 ...: each pair of letters alternates `repeats`
    times, and no two pairs overlap."""
    return Sequence(tuple(
        tok for a in range(1, letters + 1, 2) for _ in range(repeats) for tok in (a, a + 1)
    ))


def reference_max_formation(s, r):
    """formation_length over every r-subset, each a whole-sequence scan."""
    return max(
        (formation_length(s, combo) for combo in combinations(sorted(s.alphabet), r)),
        default=0,
    )


def scanned_subsets(monkeypatch, s, r):
    """max_formation_length(s, r) and the (letters, value) of every subset it
    scanned, in scan order: `_greedy_formations` gets one position list per
    letter of the subset, and each list's first position names its letter."""
    scanned = []
    greedy = checks._greedy_formations

    def record(lists):
        val = greedy(lists)
        scanned.append((tuple(s.tokens[lst[0]] for lst in lists), val))
        return val

    with monkeypatch.context() as patch:
        patch.setattr(checks, "_greedy_formations", record)
        return max_formation_length(s, r), scanned


def reference_contains(s, u):
    """Containment by trying every injective map of u's letters into s's."""
    letters = sorted(set(u.tokens))
    for image in permutations(sorted(s.alphabet), len(letters)):
        relabel = dict(zip(letters, image))
        it = iter(s.tokens)
        if all(relabel[a] in it for a in u.tokens):
            return True
    return False


def padded_sequences(rng, count):
    """Random sequences padded with letters that occur once, as ds-sparse pads."""
    for _ in range(count):
        s = random_sequence(rng, max_alpha=5, max_len=20)
        yield pad_to_alphabet(s, len(s.alphabet) + rng.randint(1, 12))


def differential_inputs(grid_builds, rng):
    """(sequence, r) pairs: every grid witness, random and padded sequences."""
    for (r, _q, _x, _t), s, _trace in grid_builds:
        yield s, r
    for _ in range(200):
        s = random_sequence(rng, max_alpha=5, max_len=14)
        yield s, rng.randint(1, 3)
    for s in padded_sequences(rng, 100):
        yield s, rng.randint(1, 3)


class TestSparse:
    def test_examples(self):
        assert is_sparse(seq("1 2 1 2"), 2)
        assert not is_sparse(seq("1 1"), 2)
        assert is_sparse(T232, 2)

    def test_monotone_in_j(self):
        rng = random.Random(11)
        for _ in range(100):
            s = random_sequence(rng)
            for j in range(5, 1, -1):
                if is_sparse(s, j):
                    assert is_sparse(s, j - 1)

    def test_j_validation(self):
        with pytest.raises(ValueError):
            is_sparse(seq("1"), 0)


class TestAlternation:
    def test_examples(self):
        assert alternation_length(seq("1 2 1 2 1"), 1, 2) == 5
        assert alternation_length(seq("1 1 2 2"), 1, 2) == 2
        assert alternation_length(seq("1 2 3 4 3 2 1 2 3 4"), 1, 4) == 4

    def test_absent_letters(self):
        assert alternation_length(seq("3 3"), 1, 2) == 0
        assert alternation_length(seq("1 3"), 1, 2) == 1

    def test_equal_letters_rejected(self):
        with pytest.raises(ValueError):
            alternation_length(seq("1 2"), 1, 1)

    def test_max_alternation_examples(self):
        assert max_alternation(seq("1 2 1 2")) == 4
        assert max_alternation(seq("1")) == 0
        assert max_alternation(seq("1 2 1 3 1")) == 3

    def test_max_matches_pairwise_scan(self, grid_builds):
        rng = random.Random(13)
        for s, _r in differential_inputs(grid_builds, rng):
            assert max_alternation(s) == reference_max_alternation(s)

    def test_padding_adds_no_runs(self):
        base = seq("1 2 1 3 1 2")
        padded = pad_to_alphabet(base, 600)
        assert max_alternation(padded) == max_alternation(base) == 4
        assert max_alternation(pad_to_alphabet(seq("1"), 600)) == 2


def reference_is_ds(s, order):
    """The definition: no two equal adjacent letters, no alternation of length order + 2."""
    toks = s.tokens
    no_repeat = all(a != b for a, b in zip(toks, toks[1:]))
    return no_repeat and reference_max_alternation(s) < order + 2


def one_way_switches(rng, count):
    """Random sequences cut so that one letter occurs only once: each pair with
    it switches in one direction only."""
    for _ in range(count):
        s = random_sequence(rng, max_alpha=6, max_len=30)
        if len(s.alphabet) < 2:
            continue
        lone = rng.choice(sorted(s.alphabet))
        toks = list(s.tokens)
        keep = toks.index(lone) if rng.random() < 0.5 else len(toks) - 1 - toks[::-1].index(lone)
        yield Sequence(tuple(t for i, t in enumerate(toks) if t != lone or i == keep))


def wide_inputs(rng):
    """Inputs outside `differential_inputs`' small alphabets, on both sides
    of `max_alternation`'s choice of scan: block witnesses take the packed
    scan, local pairs of 64 letters or more the recency scan."""
    for n in range(2, 41):
        for s in sorted({1, 2, n}):
            yield flatten(build_block_witness(n, s))
    for letters in (64, 130, 512, 1024):
        for repeats in (1, 2, 3):
            yield local_pairs(letters, repeats)
        toks = list(local_pairs(letters, 2).tokens)
        for i in sorted(rng.sample(range(len(toks)), 20), reverse=True):  # repeats add no run
            toks.insert(i, toks[i])
        yield Sequence(tuple(toks))
    for _ in range(12):
        ids = rng.sample(range(1, 10**9 + 1), rng.randint(20, 60))
        yield Sequence(tuple(rng.choice(ids) for _ in range(rng.randint(20, 200))))
    for length in (1999, 2000, 3001):
        a, b = rng.sample(range(1, 10**9 + 1), 2)
        yield Sequence(((a, b) * length)[:length])
        toks = [a, b] * (length // 2)
        for i in sorted(rng.sample(range(len(toks)), 20), reverse=True):  # repeats add no run
            toks.insert(i, toks[i])
        yield Sequence(tuple(toks) + (7,))
    for _ in range(40):
        s = random_sequence(rng, max_alpha=8, max_len=40)
        yield pad_to_alphabet(s, len(s.alphabet) + rng.randint(20, 50))
    yield from one_way_switches(rng, 100)


class TestAlternationBeyondTheFuzz:
    def test_one_way_examples(self):
        assert max_alternation(seq("1 2 1")) == 3
        assert max_alternation(seq("1 2 2 2 1 1")) == 3
        assert max_alternation(seq("2 1 3 1 3 1")) == 5

    def test_against_the_pairwise_scan_and_the_definition(self):
        rng = random.Random(2025)
        for s in wide_inputs(rng):
            expect = reference_max_alternation(s)
            assert max_alternation(s) == expect
            for order in {1, 2, 3, max(1, expect - 2), max(1, expect - 1)}:
                assert is_ds(s, order) == reference_is_ds(s, order)


class TestAlternationScanChoice:
    def scans(self, monkeypatch, s):
        """max_alternation(s) and the names of the scans it ran."""
        ran = []
        for name in ("_recency_alternation", "_packed_alternation"):
            def record(*args, _name=name, _scan=getattr(checks, name)):
                ran.append(_name)
                return _scan(*args)
            monkeypatch.setattr(checks, name, record)
        return max_alternation(s), ran

    def test_block_witness_takes_the_packed_scan(self, monkeypatch):
        # S / (L m) is about 0.99 here
        assert self.scans(monkeypatch, flatten(build_block_witness(100, 100))) == (
            101, ["_packed_alternation"])

    @pytest.mark.parametrize("letters", [64, 1024, 4096])
    def test_local_pairs_take_the_recency_scan(self, monkeypatch, letters):
        # S = L, so the packed scan would need m <= 16 letters
        assert self.scans(monkeypatch, local_pairs(letters, 2)) == (4, ["_recency_alternation"])

    def test_no_repeated_letter_takes_no_scan(self, monkeypatch):
        assert self.scans(monkeypatch, Sequence(tuple(range(1, 20001)))) == (2, [])

    def test_both_scans_agree(self):
        rng = random.Random(31)
        for s in wide_inputs(rng):
            toks = s.tokens
            last = {tok: i for i, tok in enumerate(toks)}
            first = {tok: i for i, tok in reversed(list(enumerate(toks)))}
            if len(last) >= 2:
                assert checks._recency_alternation(toks) == checks._packed_alternation(
                    toks, first, last)


class TestDs:
    def test_examples(self):
        assert is_ds(seq("1 2 1 3 1"), 2)
        assert not is_ds(seq("1 1"), 3)
        assert not is_ds(seq("1 2 1 2 1"), 2)

    def test_pattern_characterization(self):
        # DS of order s <=> no adjacent equals and no alternation pattern of length s+2
        rng = random.Random(17)
        for _ in range(150):
            s = random_sequence(rng, max_alpha=4, max_len=12)
            toks = s.tokens
            adjacent_ok = all(toks[i] != toks[i + 1] for i in range(len(toks) - 1))
            for order in (1, 2, 3):
                alt = PatternSequence(tuple((i % 2) + 1 for i in range(order + 2)))
                expect = adjacent_ok and not contains_pattern(s, alt)
                assert is_ds(s, order) == expect


class TestFormationLength:
    def test_examples(self):
        assert formation_length(seq("1 2 1 2 1 2"), (1, 2)) == 3
        assert formation_length(seq("1 2 3"), (1, 2)) == 1
        assert formation_length(seq("1 2 1 2 1 1 2 2"), (1, 2)) == 3

    def test_absent_letter_gives_zero(self):
        assert formation_length(seq("1 2 1 2"), (1, 3)) == 0

    def test_single_letter_counts_occurrences(self):
        assert formation_length(seq("1 2 1 1"), (1,)) == 3

    def test_distinctness_validation(self):
        with pytest.raises(ValueError):
            formation_length(seq("1 2"), (1, 1))
        with pytest.raises(ValueError):
            formation_length(seq("1 2"), ())

    def test_brute_examples(self):
        assert brute_formation_length(seq("1 2 1 2 1 2"), (1, 2)) == 3
        assert brute_formation_length(seq("1 2 2 1"), (1, 2)) == 2

    def test_brute_cap(self):
        long = Sequence(tuple([1, 2] * 13))
        with pytest.raises(CapExceededError):
            brute_formation_length(long, (1, 2), cap=24)

    def test_greedy_equals_brute_on_random(self):
        rng = random.Random(500)
        for _ in range(500):
            s = random_sequence(rng)
            letters = sorted(s.alphabet)
            if not letters:
                continue
            r = rng.randint(1, len(letters))
            query = tuple(rng.sample(letters, r))
            assert formation_length(s, query) == brute_formation_length(s, query)

    def test_monotone_under_append(self):
        rng = random.Random(23)
        for _ in range(100):
            s = random_sequence(rng, max_alpha=4, max_len=12)
            query = (1, 2)
            prev = -1
            for L in range(len(s) + 1):
                cur = formation_length(Sequence(s.tokens[:L]), query)
                assert cur >= prev
                prev = cur


class TestMaxFormation:
    def test_base_witness(self):
        assert max_formation_length(T232, 2) == 3
        assert max_formation_length(T232, 2) < 2 * 2 + 2 + 1

    def test_small_alphabets(self):
        assert max_formation_length(seq("1 2 3"), 3) == 1
        assert max_formation_length(seq("1 2"), 3) == 0

    def test_subset_cap(self, monkeypatch):
        # the cap is read at call time, and refuses before any scan
        s = Sequence(tuple(range(1, 30)))
        monkeypatch.setattr(checks, "MAX_SUBSETS", 10)
        monkeypatch.setattr(checks, "_greedy_formations", None)
        with pytest.raises(CapExceededError, match="exceed cap 10$"):
            max_formation_length(s, 3)

    def test_signature(self):
        # no hook for tests: they patch MAX_SUBSETS and _greedy_formations
        assert list(inspect.signature(max_formation_length).parameters) == ["seq", "r"]

    def test_avoids_all_formations(self):
        assert avoids_all_formations(T232, 2, 7)
        assert not avoids_all_formations(T232, 2, 3)

    def test_avoids_all_formations_matches_the_maximum(self, grid_builds):
        rng = random.Random(43)
        for s, r in differential_inputs(grid_builds, rng):
            best = reference_max_formation(s, r)
            for k in (1, 2, 3, 4, best, best + 1):
                if k >= 1:
                    assert avoids_all_formations(s, r, k) == (best < k), (s, r, k)

    def test_too_few_repeated_letters_need_no_scan(self):
        # an (r, s)-formation takes s occurrences of each of its r letters;
        # the maximum itself still refuses C(40, 20) subsets
        distinct = Sequence(tuple(range(1, 41)))
        assert avoids_all_formations(distinct, 20, 2)
        with pytest.raises(CapExceededError):
            max_formation_length(distinct, 20)

    def test_prune_matches_full_scan(self, grid_builds):
        rng = random.Random(29)
        for s, r in differential_inputs(grid_builds, rng):
            assert max_formation_length(s, r) == reference_max_formation(s, r)

    def test_scan_stops_at_the_first_letter_too_rare_to_win(self, monkeypatch, grid_builds):
        # the scanned subsets are all r-subsets of the m most frequent letters,
        # and the next letter occurs too rarely to beat the best value
        t2_4_40_3 = build_formation_witness(2, 4, 40, 3)[0]
        cases = [(s, r) for (r, *_), s, _trace in grid_builds] + [(t2_4_40_3, 2)]
        for s, r in cases:
            best, scanned = scanned_subsets(monkeypatch, s, r)
            counts = Counter(s.tokens)
            order = sorted(counts, key=lambda tok: (-counts[tok], tok))
            m = 1 + max(order.index(tok) for combo, _val in scanned for tok in combo)
            assert m >= r
            assert sorted(combo for combo, _val in scanned) == sorted(combinations(order[:m], r))
            assert m == len(order) or counts[order[m]] <= best
            assert all(formation_length(s, combo) == val for combo, val in scanned)
        assert (len(scanned), best) == (780, 78)  # T_{2,4}(40, 3)

    def test_recorded_values_match_whole_sequence_scans(self, monkeypatch, grid_builds):
        rng = random.Random(41)
        for s, r in differential_inputs(grid_builds, rng):
            best, scanned = scanned_subsets(monkeypatch, s, r)
            assert all(formation_length(s, combo) == val for combo, val in scanned)
            assert best == max((val for _combo, val in scanned), default=0)


class TestContainsPattern:
    def test_examples(self):
        assert contains_pattern(seq("1 2 1 2"), parse_pattern("a b a b"))
        assert not contains_pattern(seq("1 2 3"), parse_pattern("a a"))

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            contains_pattern(seq("1"), Sequence())

    @pytest.mark.parametrize("length,contains", [(1400, True), (1398, False)])
    def test_long_alternation_pattern(self, length, contains):
        # one stack frame per pattern token, far beyond the recursion limit
        s = Sequence(tuple(i % 2 + 1 for i in range(length)))
        pattern = PatternSequence(tuple(i % 2 + 1 for i in range(1400)))
        assert contains_pattern(s, pattern) is contains

    def test_every_24_formation_contains_abab(self):
        abab = parse_pattern("a b a b")
        for blocks in product(list(permutations((1, 2))), repeat=4):
            formation = Sequence(tuple(tok for block in blocks for tok in block))
            assert contains_pattern(formation, abab)

    def test_matches_every_injective_relabeling(self):
        rng = random.Random(37)
        for _ in range(300):
            s = random_sequence(rng, max_alpha=4, max_len=9)
            u = normalize(random_sequence(rng, max_alpha=3, max_len=5))
            if not u.tokens:
                continue
            assert contains_pattern(s, u) == reference_contains(s, u), (s, u)

    def test_a_repeat_absent_from_the_sequence_needs_no_search(self):
        # u's most frequent letter must map to a letter occurring as often
        distinct = Sequence(tuple(range(1, 61)))
        assert not contains_pattern(distinct, parse_pattern("1 2 3 4 5 6 7 8 1"))
        assert contains_pattern(distinct, parse_pattern("1 2 3 4 5 6 7 8"))

    def test_alternation_pattern_iff_max_alternation(self):
        rng = random.Random(31)
        for _ in range(150):
            s = random_sequence(rng, max_alpha=4, max_len=12)
            for L in (2, 3, 4, 5):
                alt = PatternSequence(tuple((i % 2) + 1 for i in range(L)))
                assert contains_pattern(s, alt) == (max_alternation(s) >= L)


def _formations(r, s):
    """All (r, s)-formations over letters 1..r."""
    for blocks in product(list(permutations(range(1, r + 1))), repeat=s):
        yield Sequence(tuple(tok for block in blocks for tok in block))


def _canonical_formations(r, s):
    """Formations with the first permutation fixed to identity; containment of a
    normalized pattern is invariant under relabeling, so this loses nothing."""
    ident = (tuple(range(1, r + 1)),)
    for rest in product(list(permutations(range(1, r + 1))), repeat=s - 1):
        yield Sequence(tuple(tok for block in ident + rest for tok in block))


class TestFormationContainsFormation:
    """Every (r, r*s)-formation contains every (r, s)-formation pattern."""

    @pytest.mark.parametrize("r,s", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_exhaustive(self, r, s):
        patterns = [PatternSequence.from_sequence(u) for u in _canonical_formations(r, s)]
        for big in _canonical_formations(r, r * s):
            for u in patterns:
                assert contains_pattern(big, u)

    def test_sampled_r3_s3(self):
        rng = random.Random(37)
        patterns = [
            PatternSequence.from_sequence(u) for u in _canonical_formations(3, 3)
        ]
        perms = list(permutations((1, 2, 3)))
        for _ in range(200):
            blocks = [rng.choice(perms) for _ in range(9)]
            big = Sequence(tuple(tok for block in blocks for tok in block))
            for u in patterns:
                assert contains_pattern(big, u)
