"""Shared fixtures: the construction grid, random-instance generators, the
brute-force matrix oracle, the exact DP over relabeled DS states, the
compiled kernel twin built from this checkout, and fixtures that route the
oracles through either twin."""

import importlib.util
import os
import random
import shlex
import subprocess
import sys
import sysconfig
from itertools import combinations, product
from pathlib import Path

import pytest

from seqext import _kernels_py, backends
from seqext.coloring import Hypergraph
from seqext.construct import build_formation_witness
from seqext.matrices import ZeroOneMatrix, matrix_contains_brute
from seqext.sequences import Sequence

# r in {2,3}, q in {r..r+2}, x in {r+1..7}, t in {2,3,4}
GRID_PARAMS = [
    (r, q, x, t)
    for r in (2, 3)
    for q in (r, r + 1, r + 2)
    for x in range(r + 1, 8)
    for t in (2, 3, 4)
]


@pytest.fixture(scope="session")
def grid_builds():
    """All construction-grid witnesses with their traces."""
    out = []
    for params in GRID_PARAMS:
        seq, trace = build_formation_witness(*params)
        out.append((params, seq, trace))
    return out


def random_sequence(rng: random.Random, max_alpha: int = 5, max_len: int = 20) -> Sequence:
    alpha = rng.randint(1, max_alpha)
    length = rng.randint(0, max_len)
    return Sequence(tuple(rng.randint(1, alpha) for _ in range(length)))


def random_hypergraph(
    rng: random.Random, max_k: int = 5, max_n: int = 12, max_y: int | None = None,
    bounded: bool = True,
):
    """A k-uniform hypergraph plus a y < k (at most max_y); when bounded, its
    pairwise intersections are <= y."""
    k = rng.randint(2, max_k)
    y = rng.randint(1, k - 1 if max_y is None else min(max_y, k - 1))
    n = rng.randint(k, max_n)
    edges: list[frozenset] = []
    for _ in range(rng.randint(1, 3 * n)):
        e = frozenset(rng.sample(range(1, n + 1), k))
        if not bounded or all(len(e & f) <= y for f in edges):
            edges.append(e)
    return Hypergraph(n, k, tuple(edges)), y


def brute_ex_matrix(n, m, P):
    """ex(n, m, P) by enumerating every n x m 0-1 matrix."""
    best = 0
    for bits in product((0, 1), repeat=n * m):
        rows = tuple(
            sum(bits[i * m + j] << j for j in range(m)) for i in range(n)
        )
        M = ZeroOneMatrix(n, m, rows)
        if not matrix_contains_brute(M, P):
            best = max(best, M.ones_count)
    return best


def ds_longest(n, s, j):
    """The longest j-sparse DS sequence of order s >= 1 on n letters, by a
    DP over relabeled states with no bound: the search kernels' table key
    (`_seq_state.SeqState`), computed here on its own. A state is the used
    count u and the runs of each pair of used letters by recency rank (0 the
    most recent), pairs in the order (0, 1), (0, 2), ..., (u-2, u-1). A used
    letter of rank r may come next iff r >= min(u, j - 1), with j at least 2;
    it starts a run with each more recent letter, and a new letter has 2
    runs with each used one. The pushed letter takes rank 0."""
    jeff, memo = max(j, 2), {}

    def longest(u, runs):
        if (u, runs) not in memo:
            pairs = dict(zip(combinations(range(u), 2), runs))
            best = 0
            for r in range(min(u, jeff - 1), u + (u < n)):  # rank u: a new letter
                moved = lambda a: 0 if a == r else a + (a < r)  # the rank after the push
                after = {}
                for (a, b), k in pairs.items():
                    after[tuple(sorted((moved(a), moved(b))))] = k + (b == r)
                for a in range(u) if r == u else ():
                    after[0, moved(a)] = 2
                if all(k <= s + 1 for k in after.values()):
                    size = u + (r == u)
                    child = tuple(after[p] for p in combinations(range(size), 2))
                    best = max(best, 1 + longest(size, child))
            memo[u, runs] = best
        return memo[u, runs]

    return longest(0, ())


ROOT = Path(__file__).resolve().parents[1]


def _compiler_works(workdir: Path) -> bool:
    """Can the C compiler that setuptools would use compile a trivial file?"""
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    probe = workdir / "probe.c"
    probe.write_text("int probe(void) { return 0; }\n")
    try:
        proc = subprocess.run(
            [*shlex.split(cc), "-c", str(probe), "-o", str(workdir / "probe.o")],
            capture_output=True,
        )
    except OSError:
        return False
    return proc.returncode == 0


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled kernel module, built once per session by setup.py into a
    temporary directory (nothing is written to src/). Skips without a C
    compiler; a kernel that fails to build fails the tests."""
    out = tmp_path_factory.mktemp("ckernels")
    if not _compiler_works(out):
        pytest.skip("no C compiler")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=ROOT, capture_output=True, text=True,
    )
    built = sorted((out / "lib" / "seqext").glob("_ckernels*"))
    if proc.returncode or not built:
        pytest.fail("building seqext._ckernels failed:\n" + proc.stdout + proc.stderr)
    spec = importlib.util.spec_from_file_location("seqext._ckernels", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def compiled_backend(compiled, monkeypatch):
    """Route the oracles through the compiled kernels for one test."""
    monkeypatch.setattr(backends, "seq_search", compiled.seq_search)
    monkeypatch.setattr(backends, "matrix_search", compiled.matrix_search)


@pytest.fixture
def pure_backend(monkeypatch):
    """Route the oracles through the pure kernels for one test, even where
    `backends` picked the compiled twin."""
    monkeypatch.setattr(backends, "seq_search", _kernels_py.seq_search)
    monkeypatch.setattr(backends, "matrix_search", _kernels_py.matrix_search)
