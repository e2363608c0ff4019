"""Backend fidelity: the pure and compiled kernels must traverse identically,
and the incremental admissibility state must agree with the plain checkers."""

import inspect
import random
import sys
from itertools import product
from math import comb

import pytest

from conftest import brute_ex_matrix, ds_longest, random_sequence
from seqext import _kernels_py as pure
from seqext import _seq_state, backends, checks, matrices, oracles
from seqext._matrix_state import MatrixState
from seqext._seq_state import SeqState
from seqext.backends import backend_name
from seqext.oracles import _greedy_blocks
from seqext.sequences import PatternSequence, Sequence

SEQ_CASES = [
    dict(mode=pure.MODE_DS, n=2, j=2, ceiling=4, s=1),
    dict(mode=pure.MODE_DS, n=4, j=2, ceiling=13, s=2),
    dict(mode=pure.MODE_DS, n=3, j=2, ceiling=10, s=3),
    dict(mode=pure.MODE_DS, n=4, j=2, ceiling=19, s=3),
    dict(mode=pure.MODE_DS, n=4, j=3, ceiling=19, s=3),
    dict(mode=pure.MODE_DS, n=4, j=1, ceiling=16, s=3, max_blocks=4),
    dict(mode=pure.MODE_DS, n=3, j=1, ceiling=9, s=2, max_blocks=2),
    dict(mode=pure.MODE_FORMATION, n=3, j=2, ceiling=18, s=2, r=2),
    dict(mode=pure.MODE_FORMATION, n=4, j=2, ceiling=24, s=1, r=1),
    dict(mode=pure.MODE_FORMATION, n=4, j=3, ceiling=192, s=2, r=3),
    dict(mode=pure.MODE_FORMATION, n=2, j=2, ceiling=24, s=1, r=3),
    dict(mode=pure.MODE_PATTERN, n=3, j=2, ceiling=54, pattern=(1, 2, 1, 2)),
    dict(mode=pure.MODE_PATTERN, n=4, j=2, ceiling=96, pattern=(1, 2, 2, 1)),
    dict(mode=pure.MODE_PATTERN, n=3, j=2, ceiling=9, pattern=(1, 1, 1)),
    dict(mode=pure.MODE_PATTERN, n=4, j=2, ceiling=40, pattern=(1, 2, 3, 1, 2)),
    dict(mode=pure.MODE_DS, n=5, j=2, ceiling=31, s=3),
    dict(mode=pure.MODE_DS, n=4, j=2, ceiling=31, s=5),
    dict(mode=pure.MODE_DS, n=4, j=1, ceiling=16, s=4, max_blocks=4),
    dict(mode=pure.MODE_FORMATION, n=4, j=2, ceiling=48, s=3, r=2),
    dict(mode=pure.MODE_PATTERN, n=5, j=2, ceiling=54, pattern=(1, 2, 1, 2)),
    dict(mode=pure.MODE_PATTERN, n=6, j=3, ceiling=1296, pattern=(1, 2, 3, 1, 2, 3)),
    # patterns need not be canonical
    dict(mode=pure.MODE_PATTERN, n=4, j=2, ceiling=80, pattern=(1, 3, 1, 3, 1)),
    dict(mode=pure.MODE_PATTERN, n=3, j=2, ceiling=27, pattern=(2, 1, 2)),
]

# the capacity of the table of relabeled states, before any test patches it
STATES = pure.MAX_STATES

MATRIX_CASES = [
    (2, 2, (3, 3), 2, 2),
    (3, 3, (3, 3), 2, 2),
    (4, 4, (3, 3), 2, 2),
    (4, 4, (7, 7), 2, 3),
    (2, 4, (1, 1), 2, 1),
    (3, 4, (1, 2, 2), 3, 2),
    (4, 3, (2, 5), 2, 3),
    (4, 5, (5, 5), 2, 3),
    (5, 5, (7, 7), 2, 3),
    # rows wider than 64 bits: P is wider than the host, so it never occurs
    (2, 2, ((1 << 65) - 1,) * 2, 2, 65),
    # rows equal only on the pm = 2 searched columns
    (3, 4, (3, 7), 2, 2),
]


class TestBackendEquality:
    @pytest.mark.parametrize("kw", SEQ_CASES)
    def test_seq_search_identical(self, compiled, kw):
        assert pure.seq_search(**kw) == tuple(compiled.seq_search(**kw))

    @pytest.mark.parametrize("case", MATRIX_CASES)
    def test_matrix_search_identical(self, compiled, case):
        n, m, p_rows, pn, pm = case
        assert pure.matrix_search(n, m, p_rows, pn, pm) == tuple(
            compiled.matrix_search(n, m, p_rows, pn, pm)
        )

    @pytest.mark.parametrize("states", [0, 1, 5, 50, STATES])
    def test_table_capacities_identical(self, compiled, monkeypatch, states):
        # a table that fills stores its first keys only, in both twins alike
        monkeypatch.setattr(pure, "MAX_STATES", states)
        for kw in SEQ_CASES:
            if kw["mode"] == pure.MODE_DS:
                assert pure.seq_search(**kw) == tuple(compiled.seq_search(**kw)), kw

    def test_prefix_and_budget_identical(self, compiled):
        kw = dict(mode=pure.MODE_DS, n=4, j=2, ceiling=19, s=3)
        for extra in (
            dict(prefix=(1, 2, 1)),
            dict(node_budget=50),
            dict(prefix=(1, 2), initial_best=6),
        ):
            assert pure.seq_search(**kw, **extra) == tuple(
                compiled.seq_search(**kw, **extra)
            )
        for search, args, budget in (
            ("seq_search", (pure.MODE_DS, 5, 2, 31), dict(s=3, node_budget=1000)),
            ("matrix_search", (4, 4, (3, 3), 2, 2), dict(node_budget=100)),
        ):
            res = getattr(pure, search)(*args, **budget)
            assert res == tuple(getattr(compiled, search)(*args, **budget))
            assert res[3], f"the node budget of {search}{args} did not run out"
        for budget in range(1, 301):
            res = pure.matrix_search(3, 3, (3, 3), 2, 2, node_budget=budget)
            assert res == tuple(compiled.matrix_search(3, 3, (3, 3), 2, 2, node_budget=budget))
            assert res[2] <= budget
        for kw in (
            dict(mode=pure.MODE_DS, n=4, j=2, ceiling=19, s=3),
            dict(mode=pure.MODE_PATTERN, n=4, j=2, ceiling=64, pattern=(1, 2, 1, 2)),
        ):
            for budget in range(1, 301):
                res = pure.seq_search(**kw, node_budget=budget)
                assert res == tuple(compiled.seq_search(**kw, node_budget=budget))
                assert res[2] <= budget
        # a prefix that fills every cell leaves nothing to search
        for bits, initial_best, expect in (
            ((1, 1, 0, 1, 0, 1, 0, 1, 1), -1, (6, [3, 5, 6], 0, False)),
            ((1, 0, 0, 0, 1, 0, 0, 0, 0), 7, (7, [1, 2, 0], 0, False)),
        ):
            kw = dict(prefix=bits, initial_best=initial_best)
            assert pure.matrix_search(3, 3, (3, 3), 2, 2, **kw) == expect
            assert tuple(compiled.matrix_search(3, 3, (3, 3), 2, 2, **kw)) == expect

    def test_infeasible_prefix_raises_everywhere(self, compiled):
        kw = dict(mode=pure.MODE_DS, n=3, j=2, ceiling=9, s=2, prefix=(1, 1))
        message = "forced prefix (1, 1) is not admissible"
        assert _error(pure.seq_search, **kw) == _error(compiled.seq_search, **kw) == message

    @pytest.mark.parametrize("kernel", ["seq_search", "matrix_search"])
    def test_twins_share_one_signature(self, compiled, kernel):
        pure_sig = inspect.signature(getattr(pure, kernel))
        assert pure_sig == inspect.signature(getattr(compiled, kernel))
        assert "prefix" in pure_sig.parameters

    def test_compiled_exports_only_the_kernels(self, compiled):
        names = [name for name in vars(compiled) if not name.startswith("__")]
        assert sorted(names) == ["matrix_search", "seq_search"]

    @pytest.mark.parametrize(
        "kw",
        [
            dict(mode=pure.MODE_DS, n=0, j=2, ceiling=5, s=1),
            dict(mode=pure.MODE_DS, n=pure.MAX_LETTERS + 1, j=2, ceiling=5, s=1),
            dict(mode=pure.MODE_DS, n=3, j=2, ceiling=-1, s=1),
            dict(mode=pure.MODE_DS, n=3, j=2, ceiling=pure.MAX_CEILING + 1, s=1),
            dict(mode=pure.MODE_DS, n=3, j=2, ceiling=10**12, s=1),
            dict(mode=pure.MODE_FORMATION, n=3, j=2, ceiling=5, s=1, r=2, max_blocks=2),
            dict(mode=pure.MODE_PATTERN, n=60, j=2, ceiling=5, pattern=tuple(range(1, 12))),
            dict(mode=pure.MODE_DS, n=3, j=2, ceiling=2, s=1, prefix=(1, 2, 3)),
            dict(mode=pure.MODE_DS, n=3, j=2, ceiling=9, s=1, prefix=(4,)),
            dict(mode=7, n=3, j=2, ceiling=5),
            dict(mode=pure.MODE_PATTERN, n=3, j=2, ceiling=5, pattern=()),
            dict(mode=pure.MODE_PATTERN, n=2, j=3, ceiling=5, pattern=(0, 1)),
            # the letters come before the prefix and the ceiling
            dict(mode=pure.MODE_DS, n=0, j=2, ceiling=5, s=1, prefix=(9,)),
            dict(mode=pure.MODE_DS, n=0, j=2, ceiling=-1, s=1),
            # the mode data comes before the prefix, item by item
            dict(mode=pure.MODE_PATTERN, n=3, j=2, ceiling=5, pattern=(), prefix=(9,)),
            dict(mode=pure.MODE_PATTERN, n=3, j=2, ceiling=5, pattern=(70, 0)),
            dict(mode=pure.MODE_PATTERN, n=3, j=2, ceiling=5, pattern=(2**70, 0)),
            dict(mode=pure.MODE_PATTERN, n=3, j=2, ceiling=5),
            # the block budget comes before the mode
            dict(mode=7, n=3, j=2, ceiling=5, max_blocks=2),
            # an integer beyond a C int comes first of all
            dict(mode=pure.MODE_DS, n=0, j=2, ceiling=10**12, s=1),
            dict(mode=pure.MODE_DS, n=3, j=2, ceiling=5, s=1, node_budget=2**63),
            # C(60, 10) r-subsets exceed the limit; the mode data comes before the prefix
            dict(mode=pure.MODE_FORMATION, n=60, j=2, ceiling=5, s=2, r=10),
            dict(mode=pure.MODE_FORMATION, n=60, j=2, ceiling=5, s=2, r=10, prefix=(99,)),
        ],
    )
    def test_seq_limits_raise_everywhere(self, compiled, kw):
        assert _error(pure.seq_search, **kw) == _error(compiled.seq_search, **kw)

    @pytest.mark.parametrize(
        "args, extra",
        [
            ((0, 3, (1,), 1, 1), {}),
            ((3, 0, (1,), 1, 1), {}),
            ((3, 63, (1,), 1, 1), {}),
            ((50_001, 1, (1,), 1, 1), {}),
            ((807, 62, (1,), 1, 1), {}),
            ((2, 2, (3, 3), 2, 2), dict(prefix=(1, 1, 1, 1, 0))),
            ((2, 2, (3, 3), 2, 2), dict(prefix=(1, 2))),
            ((2, 2, (3, 3), 2, 2), dict(prefix=(1, 1, 1, 1))),
            ((2, 2, (3, 3), 2, 2), dict(prefix=(0, 0, 1))),
            # the pattern's dimensions and rows come after the cells
            ((3, 3, (3,), 2, 2), {}),
            ((3, 3, (3, 3, 3), 2, 2), {}),
            ((3, 3, (), -1, 2), {}),
            ((3, 3, (3,), 1, -1), {}),
            ((0, 3, (3,), 2, 2), dict(prefix=(2,))),
            ((3, 3, (3,), 2, 2), dict(prefix=(2,))),
            # the row-bound table comes after the pattern, before the prefix
            ((3, 3, (3, 3), 2, 2), dict(row_bounds=(0, 3, 7))),
            ((3, 3, (3, 3), 2, 2), dict(row_bounds=(0,) * 4)),
            ((3, 3, (3, 3), 2, 2), dict(row_bounds=(-1,), prefix=(2,))),
            ((3, 3, (3, 3), 2, 2), dict(row_bounds=(2**70,))),
            ((3, 3, (3,), 2, 2), dict(row_bounds=(9,))),
            # an integer beyond a C int comes first of all
            ((0, 2**40, (1,), 1, 1), {}),
            ((3, 3, (3, 3), 2, 2), dict(node_budget=-(2**63) - 1)),
        ],
    )
    def test_matrix_limits_raise_everywhere(self, compiled, args, extra):
        assert _error(pure.matrix_search, *args, **extra) == _error(
            compiled.matrix_search, *args, **extra
        )

    @pytest.mark.parametrize(
        "kernel, make",
        [
            ("matrix_search", lambda: ((3, 3, (3, 3), 2, 2), dict(row_bounds=(0, 1.5)))),
            ("matrix_search", lambda: ((3, 3, (3, 3), 2, 2), dict(prefix=(1.0,)))),
            ("seq_search", lambda: ((pure.MODE_DS, 3, 2, 5), dict(s=1, prefix=_once(1, 2)))),
            ("matrix_search", lambda: ((3, 3, _once(3, 3), 2, 2), {})),
            ("matrix_search", lambda: ((3, 3, (3, 3), 2, 2), dict(row_bounds=_once(0, 3)))),
            ("seq_search", lambda: ((pure.MODE_PATTERN, 3, 2, 9), dict(pattern=_once(1, 1, 1)))),
        ],
        ids=["float-bound", "float-move", "one-shot-prefix", "one-shot-rows",
             "one-shot-bounds", "one-shot-pattern"],
    )
    def test_sequence_arguments_raise_alike(self, compiled, kernel, make):
        """A float item or a one-shot iterable raises the same TypeError on
        both twins: the check reads a sequence's length before its items,
        and each item as an int, and the kernels search what it read."""
        raised = []
        for twin in (pure, compiled):
            args, kw = make()
            with pytest.raises(TypeError) as info:
                getattr(twin, kernel)(*args, **kw)
            raised.append((info.type, str(info.value)))
        assert raised[0] == raised[1]

    def test_both_twins_run_the_pure_checks(self, compiled, monkeypatch):
        """`_kernels_py` holds the only argument checks: each kernel of both
        twins calls its check first, the compiled one with its own arguments."""

        class Refused(Exception):
            pass

        def refuse(*args, **kw):
            raise Refused(args, kw)

        monkeypatch.setattr(pure, "check_seq_search", refuse)
        monkeypatch.setattr(pure, "check_matrix_search", refuse)
        for twin in (pure, compiled):
            with pytest.raises(Refused):
                twin.seq_search(pure.MODE_DS, 3, 2, 9, s=2)
            with pytest.raises(Refused):
                twin.matrix_search(2, 2, (3, 3), 2, 2)
        with pytest.raises(Refused) as info:
            compiled.matrix_search(2, 2, (3, 3), 2, 2, node_budget=7)
        assert info.value.args == ((2, 2, (3, 3), 2, 2), dict(node_budget=7))

    def test_both_twins_search_what_the_check_read(self, compiled):
        """Each kernel reads a sequence argument once, in its check, and
        searches the tuple the check returns: a prefix that yields other
        moves when it is read again reaches neither twin's search."""

        class Drifting:
            reads = 0

            def __len__(self):
                return 2

            def __iter__(self):
                self.reads += 1
                return iter((1, 2) if self.reads == 1 else (3, 99))

        kw = dict(mode=pure.MODE_DS, n=3, j=2, ceiling=9, s=2)
        expect = pure.seq_search(**kw, prefix=(1, 2))
        for twin in (pure, compiled):
            assert tuple(twin.seq_search(**kw, prefix=Drifting())) == expect

    def test_limits_are_accepted(self, compiled):
        for kw in (
            dict(mode=pure.MODE_DS, n=pure.MAX_LETTERS, j=2, ceiling=3, s=1),
            dict(mode=pure.MODE_DS, n=3, j=2, ceiling=0, s=1),
        ):
            assert pure.seq_search(**kw) == tuple(compiled.seq_search(**kw))
        assert pure.matrix_search(1, 62, (1,), 1, 1) == tuple(
            compiled.matrix_search(1, 62, (1,), 1, 1)
        )


def test_letter_limit_fits_a_u64_mask():
    """The compiled twin keeps a letter as a bit of a 64-bit mask, and sizes
    its r-subset buffer (`comb[64]` in `formation_init`) by that width; it
    reads the one letter limit, through the shared check, from here. Letters
    are 1..n, so n must stay below 64."""
    assert pure.MAX_LETTERS <= 63


def test_compiled_seq_search_at_ceiling_limit(compiled):
    """No r-subset exists on 2 letters for r=3, so every 2-sparse sequence is
    admissible: the search walks straight down to depth 50,000."""
    best, witness, nodes, truncated = compiled.seq_search(
        pure.MODE_FORMATION, 2, 2, pure.MAX_CEILING, s=2, r=3
    )
    assert (best, nodes, truncated) == (50_000, 50_000, False)
    assert witness == [1, 2] * 25_000


def test_compiled_matrix_search_at_cell_limit(compiled):
    """A pattern wider than the matrix is never contained, so the all-ones
    fill of 1000 x 50 = 50,000 cells is found on the first path."""
    best, rows, nodes, truncated = compiled.matrix_search(1000, 50, (1 << 50,), 1, 51)
    assert (best, nodes, truncated) == (50_000, 50_000, False)
    assert rows == [(1 << 50) - 1] * 1000


def test_pure_kernels_at_documented_limits(monkeypatch):
    """The pure twin searches on an explicit stack: at depth 50,000 it neither
    recurses nor raises the interpreter's recursion limit."""

    def refuse(limit):
        raise AssertionError(f"recursion limit raised to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    best, witness, nodes, truncated = pure.seq_search(
        pure.MODE_FORMATION, 2, 2, pure.MAX_CEILING, s=2, r=3
    )
    assert (best, nodes, truncated) == (50_000, 50_000, False)
    assert witness == [1, 2] * 25_000
    best, rows, nodes, truncated = pure.matrix_search(40, 50, (1,) * 41, 41, 1)
    assert (best, nodes, truncated) == (2000, 2000, False)
    assert rows == [(1 << 50) - 1] * 40


def test_checks_return_the_derived_inputs():
    """Each check returns its arguments as searched, then the values both
    twins derive from them; fed its own arguments it returns the same tuple."""
    # rows 3 and 7 are equal on the pm = 2 searched columns, and equal rows
    # are decided on the rows as searched; the table is padded with k m
    checked = pure.check_matrix_search(3, 4, (3, 7), 2, 2, row_bounds=(0, 3))
    assert checked[9:] == ((3, 3), 1, True, True, (0, 3, 8, 12))
    assert pure.check_matrix_search(*checked[:9]) == checked
    # P taller than the host: no row of it is searched, so no 1 is refused
    checked = pure.check_matrix_search(2, 4, (1, 1, 1), 3, 1)
    assert checked[9:] == ((0, 0, 0), -1, True, False, (0, 4, 8))
    # DS mode: 2-sparse, s + 1 runs per letter pair, slack (s + 1) C(n, 2),
    # a table of MAX_STATES relabeled states
    checked = pure.check_seq_search(pure.MODE_DS, 4, 1, 9, s=2)
    assert checked[11:] == (2, 3, 18, pure.MAX_STATES)
    assert pure.check_seq_search(*checked[:11]) == checked
    checked = pure.check_seq_search(pure.MODE_PATTERN, 4, 1, 9, pattern=(1, 2, 1))
    assert checked[11:] == (1, None, pure.MAX_CEILING, 0)
    assert pure.check_seq_search(pure.MODE_FORMATION, 4, 2, 9, s=2, r=2)[14] == 0
    # no table when a state key may not fit 64 bits: (n + 1) (s + 1)^C(n, 2),
    # times (m + 2) (n + 1) with a block budget m, must stay below 2^64
    for n, s, m, fits in ((11, 1, 0, True), (12, 1, 0, False), (8, 3, 0, True),
                          (9, 3, 0, False), (7, 3, 2**31 - 1, False), (7, 3, 64, True),
                          (60, 0, 0, True), (3, -1, 0, False)):
        states = pure.check_seq_search(pure.MODE_DS, n, 2, 9, s=s, max_blocks=m)[14]
        assert states == (pure.MAX_STATES if fits else 0), (n, s, m)


def test_one_argument_check_per_pure_kernel_call(monkeypatch):
    """A pure kernel call checks its arguments once: its state makes the
    check, with every argument, and the search reads what it returned."""
    counts = {"check_seq_search": 0, "check_matrix_search": 0}
    for name in counts:

        def counting(*args, name=name, real=getattr(pure, name), **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(pure, name, counting)
    assert pure.seq_search(pure.MODE_DS, 3, 2, 7, s=2, prefix=(1, 2), initial_best=4)[0] == 5
    assert counts == {"check_seq_search": 1, "check_matrix_search": 0}
    assert pure.matrix_search(3, 3, (3, 3), 2, 2, prefix=(1, 1), row_bounds=(0, 3))[0] == 6
    assert counts == {"check_seq_search": 1, "check_matrix_search": 1}


def test_backend_name_known():
    assert backend_name() in ("pure", "compiled")


def test_backend_differential_fuzz(compiled, monkeypatch):
    """Both twins return the same tuple, node count included, on random
    searches; DS searches draw the table's capacity: whole, a few entries
    (full), or none. Both twins read it through `check_seq_search`."""
    rng = random.Random(987654)
    for _ in range(150):
        mode = rng.choice([pure.MODE_DS, pure.MODE_DS, pure.MODE_FORMATION, pure.MODE_PATTERN])
        n = rng.randint(1, 5)
        kw = dict(mode=mode, n=n, j=rng.randint(1, 4))
        if mode == pure.MODE_DS:
            kw["s"] = rng.randint(1, 4)
            kw["ceiling"] = rng.randint(0, 18)
            if rng.random() < 0.4:
                kw["max_blocks"] = rng.randint(1, 4)
            monkeypatch.setattr(pure, "MAX_STATES", rng.choice((STATES, rng.randint(1, 6), 0)))
        elif mode == pure.MODE_FORMATION:
            kw["r"] = rng.randint(1, 4)
            kw["s"] = rng.randint(1, 3)
            kw["ceiling"] = rng.randint(0, 22)
        else:
            ru = rng.randint(1, min(3, n + 1))
            raw = list(range(1, ru + 1)) + [rng.randint(1, ru) for _ in range(rng.randint(0, 4))]
            seen = {}
            kw["pattern"] = tuple(seen.setdefault(t, len(seen) + 1) for t in raw)
            kw["ceiling"] = rng.randint(0, 20)
        if rng.random() < 0.3:
            kw["node_budget"] = rng.randint(1, rng.choice((20, 400)))
        if rng.random() < 0.4:
            kw["prefix"] = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 3)))
        if rng.random() < 0.2:
            kw["initial_best"] = rng.randint(-1, 12)
        assert _outcome(pure.seq_search, kw) == _outcome(compiled.seq_search, kw), kw
    for draw in range(150):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        pn, pm = rng.randint(1, 3), rng.randint(1, 3)
        if draw % 2:  # equal rows: the row-order rule applies
            pn = rng.randint(2, 3)
            p_rows = (rng.randrange(1, 1 << pm),) * pn
        else:
            p_rows = tuple(
                rng.randrange(1, 1 << pm) if i == 0 else rng.randrange(1 << pm)
                for i in range(pn)
            )
        kw = dict(n=n, m=m, p_rows=p_rows, pn=pn, pm=pm)
        if rng.random() < 0.3:
            kw["node_budget"] = rng.randint(1, rng.choice((20, 1500)))
        if rng.random() < 0.4:
            kw["prefix"] = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 6)))
        if rng.random() < 0.2:
            kw["initial_best"] = rng.randint(-1, 12)
        assert _outcome(pure.matrix_search, kw) == _outcome(compiled.matrix_search, kw), kw


def _lex_largest_optimum(n, m, P):
    """The most ones in an n x m matrix avoiding P and the lexicographically
    largest matrix (row-major, 1 before 0) that has them, by enumerating
    every matrix in decreasing lexicographic order."""
    best, best_rows = -1, None
    for bits in product((1, 0), repeat=n * m):
        rows = [sum(bits[i * m + j] << j for j in range(m)) for i in range(n)]
        M = matrices.ZeroOneMatrix(n, m, tuple(rows))
        if M.ones_count > best and not matrices.matrix_contains_brute(M, P):
            best, best_rows = M.ones_count, rows
    return best, best_rows


def _against_enumeration(compiled, monkeypatch, patterns):
    """Both twins, bare and through `oracle_ex_matrix` with its row-bound
    table, return the most ones and the lexicographically largest matrix
    with them, on every host with n * m <= 9."""
    hosts = [(n, m) for n in range(1, 10) for m in range(1, 10) if n * m <= 9]
    for P in patterns:
        for n, m in hosts:
            value, rows = _lex_largest_optimum(n, m, P)
            for twin in (pure, compiled):
                res = tuple(twin.matrix_search(n, m, P.rows, P.n, P.m))
                assert res[:2] == (value, rows), (n, m, P, twin)
                monkeypatch.setattr(backends, "matrix_search", twin.matrix_search)
                res = oracles.oracle_ex_matrix(n, m, P, override_caps=True)
                assert (res.value, list(res.witness.rows), res.exhausted) == (value, rows, True)


class TestRowOrderRule:
    """With equal pattern rows both twins refuse a 1 that would make a row
    larger than the row above it, and with equal pattern columns a 1 that
    would make a column larger than the column to its left; values and
    witnesses stay those of the unrestricted search."""

    def test_equal_rows_against_enumeration(self, compiled):
        hosts = [(n, m) for n in range(1, 10) for m in range(1, 10) if n * m <= 9]
        for pn, pm in product((1, 2), repeat=2):
            for mask in range(1, 1 << pm):
                P = matrices.MatrixPattern(pn, pm, (mask,) * pn)
                for n, m in hosts:
                    value, rows = _lex_largest_optimum(n, m, P)
                    assert value == brute_ex_matrix(n, m, P)
                    res = pure.matrix_search(n, m, P.rows, pn, pm)
                    assert res[:2] == (value, rows), (n, m, P)
                    assert tuple(compiled.matrix_search(n, m, P.rows, pn, pm)) == res

    def test_equal_columns_against_enumeration(self, compiled, monkeypatch):
        # every row empty or full: 11/00, 00/11, 1/0/1, 111/000/111, ...
        patterns = [
            matrices.MatrixPattern(pn, pm, tuple(((1 << pm) - 1) * f for f in full))
            for pn in (1, 2, 3) for pm in (1, 2, 3)
            for full in product((0, 1), repeat=pn) if any(full)
        ]
        assert matrices.MatrixPattern(2, 2, (3, 0)) in patterns
        _against_enumeration(compiled, monkeypatch, patterns)

    def test_unequal_columns_against_enumeration(self, compiled, monkeypatch):
        # empty rows and columns included: 01, 10/00, 01/01, 10/01, ...
        patterns = [
            matrices.MatrixPattern(pn, pm, rows)
            for pn, pm in ((1, 2), (2, 2), (1, 3))
            for rows in product(range(1 << pm), repeat=pn)
            if any(rows) and not all(r in (0, (1 << pm) - 1) for r in rows)
        ]
        _against_enumeration(compiled, monkeypatch, patterns)

    def test_unequal_rows_node_count_unchanged(self, compiled):
        # the 2x2 identity has unequal rows and columns, so neither rule fires
        res = pure.matrix_search(4, 4, (1, 2), 2, 2)
        assert res == (7, [15, 1, 1, 1], 1796, False)
        assert tuple(compiled.matrix_search(4, 4, (1, 2), 2, 2)) == res

    def test_rows_equal_on_the_searched_columns(self, compiled):
        # 3 and 7 agree on the pm = 2 columns searched, so the row rule fires
        # and the search is the one of (3, 3), node count included
        res = pure.matrix_search(4, 4, (3, 7), 2, 2)
        assert res == pure.matrix_search(4, 4, (3, 3), 2, 2)
        assert res[0] == 9 and res[2] == 235
        assert tuple(compiled.matrix_search(4, 4, (3, 7), 2, 2)) == res

    def test_r22_5x5_node_count_pinned(self, compiled):
        # both rules: 2,059 nodes (25,222 with the row rule alone); with the
        # row-bound table ex(k, 5, R22), k < 5, as oracle_ex_matrix builds it
        for kw, nodes in ((dict(), 2_059), (dict(row_bounds=(0, 5, 6, 8, 10)), 650)):
            res = pure.matrix_search(5, 5, (3, 3), 2, 2, **kw)
            assert res == (12, [15, 17, 18, 20, 24], nodes, False)
            assert tuple(compiled.matrix_search(5, 5, (3, 3), 2, 2, **kw)) == res

    def test_prefix_refusal_message(self, compiled):
        # (1, 1, 1, 1) contains R22; (0, 0, 1) puts a 1 under a 0 in equal
        # rows; (0, 1) puts a 1 right of a 0 in equal columns
        for bits in ((1, 1, 1, 1), (0, 0, 1), (0, 1)):
            for search in (pure.matrix_search, compiled.matrix_search):
                with pytest.raises(ValueError, match="^forced prefix contains the pattern "
                                   "or breaks the row or column order$"):
                    search(2, 2, (3, 3), 2, 2, prefix=bits)


def _error(search, *args, **kw):
    """The text of the ValueError that a kernel call raises."""
    with pytest.raises(ValueError) as info:
        search(*args, **kw)
    return str(info.value)


def _once(*items):
    """A one-shot iterable of `items`."""
    return (item for item in items)


def _outcome(search, kw):
    """The result tuple, or "ValueError" for a rejected draw (an inadmissible prefix)."""
    try:
        return tuple(search(**kw))
    except ValueError:
        return "ValueError"


def _admissible_by_checkers(kw, tokens):
    s = Sequence(tuple(tokens))
    if not checks.is_sparse(s, kw["j"]):
        return False
    mode = kw["mode"]
    if mode == pure.MODE_DS:
        if not checks.is_ds(s, kw["s"]):
            return False
        if kw.get("max_blocks"):
            return len(_greedy_blocks(s.tokens)) <= kw["max_blocks"]
        return True
    if mode == pure.MODE_FORMATION:
        return checks.max_formation_length(s, kw["r"]) < kw["s"]
    return not checks.contains_pattern(s, PatternSequence(kw["pattern"]))


class TestStateMatchesCheckers:
    """Every try_push decision must agree with the plain checker predicates."""

    @pytest.mark.parametrize(
        "kw",
        [
            dict(mode=pure.MODE_DS, n=4, j=2, s=2),
            dict(mode=pure.MODE_DS, n=4, j=3, s=3),
            dict(mode=pure.MODE_DS, n=3, j=1, s=2, max_blocks=2),
            dict(mode=pure.MODE_FORMATION, n=4, j=2, s=2, r=2),
            dict(mode=pure.MODE_FORMATION, n=4, j=2, s=2, r=3),
            dict(mode=pure.MODE_PATTERN, n=4, j=2, pattern=(1, 2, 1)),
            dict(mode=pure.MODE_PATTERN, n=3, j=2, pattern=(1, 2, 2, 1)),
            # long walks with pops: mappings whose embedding is raised, and
            # the undo of the raise, on patterns that take many tokens to embed
            dict(mode=pure.MODE_PATTERN, n=4, j=2, pattern=(1, 2, 3, 1, 2, 3), steps=30),
            dict(mode=pure.MODE_PATTERN, n=4, j=2, pattern=(1, 2, 1, 2, 1, 2, 1), steps=30),
            dict(mode=pure.MODE_PATTERN, n=4, j=2, pattern=(1, 2, 3, 2, 1), steps=30),
        ],
    )
    def test_random_walks(self, kw):
        rng = random.Random(sum(kw.get("pattern", (kw.get("s", 0),))) + kw["n"] * 31)
        for _ in range(60):
            st = SeqState(
                kw["mode"], kw["n"], kw["j"], s=kw.get("s", 0), r=kw.get("r", 0),
                pattern=kw.get("pattern", ()), max_blocks=kw.get("max_blocks", 0),
            )
            tokens = []
            for _step in range(kw.get("steps", 14)):
                c = rng.randint(1, min(st.used_max + 1, kw["n"]))
                accepted = st.try_push(c)
                expected = _admissible_by_checkers(kw, tokens + [c])
                assert accepted == expected, (tokens, c, kw)
                if accepted:
                    tokens.append(c)
                    if rng.random() < 0.2:
                        st.pop()
                        tokens.pop()


class _NoBudget(SeqState):
    """A sequence state whose alternation budget never prunes: its slack is
    MAX_CEILING. Run with the table off, it is the search without either."""

    slack = property(lambda self: pure.MAX_CEILING, lambda self, value: None)


# lambda_4(5) = 22 and the witness every search of it finds
LAMBDA_4_5 = (22, [1, 2, 1, 2, 3, 2, 4, 2, 4, 3, 4, 1, 4, 5, 4, 5, 1, 5, 3, 5, 3, 1])
# (n, s, j, blocks): DS searches on every n <= 5, s <= 4, j in {2, 3}, up to 3 blocks
BUDGET_GRID = list(product(range(1, 6), range(1, 5), (2, 3), range(4)))


def _grid_kw(n, s, j, blocks):
    """The DS search of a `BUDGET_GRID` case under the oracles' ceiling."""
    ceiling = s * comb(n, 2) + 1
    if blocks:
        ceiling = min(ceiling, n * blocks)
    return dict(mode=pure.MODE_DS, n=n, j=j, ceiling=ceiling, s=s, max_blocks=blocks)


def test_alternation_budget_against_unbudgeted_search(monkeypatch):
    """The budget and the table of relabeled states change no value,
    witness or truncation flag of a DS search, with or without a block
    budget, and never add a node."""
    # DS searches are at least 2-sparse, so j = 1 is the j = 2 search
    assert SeqState(pure.MODE_DS, 3, 1).jeff == SeqState(pure.MODE_DS, 3, 2).jeff
    budgeted = [pure.seq_search(**_grid_kw(*case)) for case in BUDGET_GRID]
    monkeypatch.setattr(pure, "MAX_STATES", 0)
    monkeypatch.setattr(_seq_state, "SeqState", _NoBudget)
    for case, res in zip(BUDGET_GRID, budgeted):
        if case == (5, 4, 2, 0):
            # lambda_4(5) without the budget or the table: 1,633,625 nodes,
            # about 10 s on the pure twin, so that search's result is pinned
            ref = (*LAMBDA_4_5, 1_633_625, False)
        else:
            ref = pure.seq_search(**_grid_kw(*case))
        assert (res[0], res[1], res[3]) == (ref[0], ref[1], ref[3]), case
        assert res[2] <= ref[2], case
    assert budgeted[BUDGET_GRID.index((5, 4, 2, 0))] == (*LAMBDA_4_5, 33_988, False)


def _table_sizes(monkeypatch, kw, sizes=(STATES, 4, 0)):
    """The pure search of `kw` with the table of relabeled states at each
    capacity of `sizes`: whole, full after a few entries, and off."""
    outcomes = []
    for states in sizes:
        monkeypatch.setattr(pure, "MAX_STATES", states)
        outcomes.append(_outcome(pure.seq_search, kw))
    return outcomes


def _same_search(on, off, what):
    """`on` finds the value, witness and truncation flag of `off`, in no more nodes."""
    assert on == off == "ValueError" or (on[:2], on[3]) == (off[:2], off[3]), what
    assert on == "ValueError" or on[2] <= off[2], what


def test_table_against_no_table(monkeypatch):
    """The table of relabeled states, whole or full, changes no value,
    witness or truncation flag of a DS search and never adds a node: on the
    budget grid and on random searches with ceilings below the maximum,
    block budgets, forced prefixes and seeds."""
    for case in BUDGET_GRID:
        kw = _grid_kw(*case)
        if case == (5, 4, 2, 0):
            # without the table: 1,443,083 nodes, about 8 s, so pinned
            on, = _table_sizes(monkeypatch, kw, (STATES,))
            _same_search(on, (*LAMBDA_4_5, 1_443_083, False), case)
            continue
        on, full, off = _table_sizes(monkeypatch, kw)
        _same_search(on, off, case)
        _same_search(full, off, case)
    rng = random.Random(2024)
    for _ in range(300):
        n, s = rng.choice([(n, s) for n in range(1, 6) for s in range(1, 5) if (n, s) != (5, 4)])
        kw = dict(mode=pure.MODE_DS, n=n, j=rng.randint(1, 3), s=s,
                  ceiling=rng.randint(0, s * comb(n, 2) + 1))
        if rng.random() < 0.4:
            kw["max_blocks"] = rng.randint(1, 6)
        if rng.random() < 0.4:
            kw["prefix"] = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 4)))
        if rng.random() < 0.3:
            kw["initial_best"] = rng.randint(-1, 15)
        on, full, off = _table_sizes(monkeypatch, kw)
        _same_search(on, off, kw)
        _same_search(full, off, kw)


@pytest.mark.parametrize("n", range(1, 6))
def test_twins_match_the_relabeled_state_dp(compiled, n):
    """Both twins find the exact DP's value for every s <= 4 and j <= 3."""
    for s, j in product(range(1, 5), (1, 2, 3)):
        kw = dict(mode=pure.MODE_DS, n=n, j=j, ceiling=s * comb(n, 2) + 1, s=s)
        res = pure.seq_search(**kw)
        assert (res[0], res[3]) == (ds_longest(n, s, j), False), (s, j)
        assert tuple(compiled.seq_search(**kw)) == res, (s, j)


def test_relabeled_state_dp_matches_oeis():
    # OEIS A002004: lambda_3(n), the longest DS sequence of order 3
    assert [ds_longest(n, 3, 2) for n in range(1, 7)] == [1, 4, 8, 12, 17, 22]


def test_pattern_mode_ignores_s(compiled):
    """Pattern mode has no pair-run cap: `s` changes neither the result nor
    the node count, on either twin."""
    kw = dict(mode=pure.MODE_PATTERN, n=3, j=2, ceiling=54, pattern=(1, 2, 1, 1, 2, 1))
    res = pure.seq_search(**kw)
    assert res == tuple(compiled.seq_search(**kw)) == (14, res[1], 234, False)
    for s in (1, 3, 5):
        assert pure.seq_search(**kw, s=s) == tuple(compiled.seq_search(**kw, s=s)) == res, s


def test_pattern_oracle_routes_each_pattern_to_one_kernel_call(compiled_backend, monkeypatch):
    """`oracle_pattern` makes one kernel call per two-letter pattern with
    j >= 2: DS mode of order ell - 2 for an alternation of ell tokens, pattern
    mode for every other one, its keywords naming only what differs from the
    kernel's defaults. Its value, witness, node count and exhaustion are
    that call's. An alternation's pattern-mode search, the search it stands
    for, finds the same value and witness. With j = 1 the query has no
    finite answer, and with n < j it is answered without a search: neither
    makes a call, and the second finds that call's value and witness."""
    kernel = backends.seq_search
    calls = []
    monkeypatch.setattr(backends, "seq_search", lambda **kw: calls.append(kw) or kernel(**kw))
    # every canonical pattern on exactly the letters 1 and 2, up to length 6
    patterns = [(1,) + rest for k in range(2, 7) for rest in product((1, 2), repeat=k - 1)
                if 2 in rest]
    for pattern, n, j in product(patterns, range(1, 5), (1, 2, 3)):
        calls.clear()
        if j == 1:
            with pytest.raises(ValueError, match="unbounded"):
                oracles.oracle_pattern(PatternSequence(pattern), j, n, override_caps=True)
            assert calls == [], (pattern, n)
            continue
        res = oracles.oracle_pattern(PatternSequence(pattern), j, n, override_caps=True)
        alternation = all(a != b for a, b in zip(pattern, pattern[1:]))
        route = (dict(mode=pure.MODE_DS, s=len(pattern) - 2) if alternation
                 else dict(mode=pure.MODE_PATTERN, pattern=pattern))
        direct = dict(n=n, j=j, ceiling=res.ceiling, node_budget=0, **route)
        assert calls == ([] if n < j else [direct]), (pattern, n, j)
        best, toks, nodes, truncated = kernel(**direct)
        if n < j:
            nodes = 0
        assert (res.value, res.witness.tokens, res.nodes_explored, res.exhausted) == (
            best, tuple(toks), nodes, not truncated), (pattern, n, j)
        if alternation:
            ref = kernel(**dict(direct, mode=pure.MODE_PATTERN, s=0, pattern=pattern))
            assert (ref[0], ref[1]) == (best, toks), (pattern, n, j)


def test_containment_through_the_new_cell_matches_public_checker():
    """Fill random matrices cell by cell, skipping each 1 that would make
    them contain P: `MatrixState.completes` must say exactly when it would."""
    rng = random.Random(97)
    for _ in range(300):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        pn, pm = rng.randint(1, 3), rng.randint(1, 3)
        p_rows = tuple(rng.randrange(1 << pm) for _ in range(pn))  # empty rows and columns too
        if not any(p_rows):
            continue
        P = matrices.MatrixPattern(pn, pm, p_rows)
        st = MatrixState(n, m, p_rows, pn, pm)
        rows = [0] * n
        for i, c in product(range(n), range(m)):
            if rng.random() < 0.6:
                trial = rows[:i] + [rows[i] | 1 << c] + rows[i + 1:]
                contains = matrices.matrix_contains(matrices.ZeroOneMatrix(n, m, tuple(trial)), P)
                st.rows[:n] = rows
                assert st.completes(i, trial[i]) == contains, (P, rows, i, c)
                if not contains:
                    rows = trial


def test_node_budget_truncates():
    best, _, nodes, truncated = pure.matrix_search(4, 4, (3, 3), 2, 2, node_budget=100)
    assert truncated and nodes <= 100
    full_best = pure.matrix_search(4, 4, (3, 3), 2, 2)[0]
    assert best <= full_best
