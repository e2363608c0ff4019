"""Workload definitions: the CLI invocations each workload runs, the value
each must produce, and where that value comes from.

An instance's expected value has one of these sources, named in `source`:

* a published table: OEIS A002004 (lambda_3(n)) or Guy's table of the
  Zarankiewicz numbers z(m, n; 2);
* an identity that ties the instance to a table value or to another
  instance of the same pass (`same_as`);
* a brute-force route the benchmark computes itself (seeded instances);
* the construction's own length formula from the paper;
* "regression-pinned": only the current code's output backs the value.

The seed fixes the order of the instance groups and draws the seeded
matrix pattern. The program sees only CLI arguments and files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from math import comb
from pathlib import Path

WORKLOADS = ("oracle-seq", "oracle-matrix", "construct-verify", "oracle-parallel")
SIZES = ("full", "tiny")

# OEIS A002004: longest Davenport-Schinzel sequence of order 3 on n letters.
A002004 = {1: 1, 2: 4, 3: 8, 4: 12, 5: 17, 6: 22, 7: 27}
# Guy's table of z(m, n; 2): most ones in an m x n 0-1 matrix without a 2x2
# all-ones submatrix. The table is symmetric in m and n.
GUY_Z2 = {(3, 3): 6, (3, 6): 9, (4, 4): 9, (4, 5): 10, (5, 5): 12, (6, 6): 16}

PINNED = "regression-pinned"
ALT7_IDENTITY = (
    "identity: with j=2, avoiding the alternation (ab)^{7/2} is DS order 5, "
    "so the value is lambda_5(n)"
)
BRIDGE_IDENTITY = (
    "identity: lambda'(n,s,m) = ex(n,m,R_{2,s+1}) (letter/block incidence matrix)"
)


@dataclass(frozen=True)
class Instance:
    """One CLI invocation (`seqext <args> --json`) and what it must report."""

    name: str
    args: tuple[str, ...]
    source: str
    value: int | None = None        # results.value of an oracle (exhausted must be true)
    length: int | None = None       # token count of the rendered witness
    letters: int | None = None      # distinct letters of the rendered witness
    blocks: int | None = None       # block count of a rendered blocked witness
    exit_code: int = 0
    failing_check: str | None = None  # the one check that must fail when exit_code == 1
    same_as: str | None = None      # instance of the same pass that must report the same value
    group: str | None = None        # instances of a group keep their listed order

    @property
    def threads(self) -> int:
        return int(self.args[self.args.index("--threads") + 1]) if "--threads" in self.args else 1

    def serial_args(self) -> tuple[str, ...]:
        """The same invocation without --threads."""
        if "--threads" not in self.args:
            return self.args
        i = self.args.index("--threads")
        return self.args[:i] + self.args[i + 2:]


def _oracle(name, fn, *args, **kw) -> Instance:
    return Instance(name=name, args=("oracle", fn) + tuple(args), **kw)


def _threads(inst: Instance) -> Instance:
    return replace(inst, name=inst.name + "-t2", args=inst.args + ("--threads", "2"))


# ---------------------------------------------------------------------------
# oracle-seq: the five sequence oracles, run serially


def _oracle_seq(size: str) -> list[Instance]:
    if size == "tiny":
        return [
            _oracle("lambda-3-3", "lambda", "--n", "3", "--s", "3",
                    value=A002004[3], source="OEIS A002004"),
            _oracle("pattern-alt5-3", "pattern", "--pattern", "1 2 1 2 1", "--n", "3", "--j", "2",
                    value=A002004[3], source="identity: (ab)^{5/2} with j=2 is lambda_3; OEIS A002004"),
            _oracle("lambda-prime-3-1-3", "lambda-prime", "--n", "3", "--s", "1", "--m", "3",
                    value=GUY_Z2[3, 3], source=BRIDGE_IDENTITY + "; Guy z(3,3;2)"),
        ]
    return [
        _oracle("lambda-5-3", "lambda", "--n", "5", "--s", "3",
                value=A002004[5], source="OEIS A002004"),
        _oracle("lambda-4-4", "lambda", "--n", "4", "--s", "4", value=16, source=PINNED),
        # Same 243,326-node tree walked twice: the gap between the two is the
        # cost of tracking pattern states.
        _oracle("lambda-4-5", "lambda", "--n", "4", "--s", "5", "--override-caps",
                value=23, source=PINNED),
        _oracle("pattern-alt7-4", "pattern", "--pattern", "1 2 1 2 1 2 1", "--n", "4", "--j", "2",
                "--override-caps", value=23, same_as="lambda-4-5", source=ALT7_IDENTITY),
        _oracle("formation-4-2-3-2", "formation", "--n", "4", "--r", "2", "--s", "3", "--j", "2",
                value=13, source=PINNED),
        _oracle("blocks-4-4-4", "lambda-blocks", "--n", "4", "--s", "4", "--m", "4",
                value=14, source=PINNED),
        _oracle("blocks-5-3-17", "lambda-blocks", "--n", "5", "--s", "3", "--m", "17",
                "--override-caps", value=A002004[5],
                source="identity: m >= lambda_3(5) blocks never bind; OEIS A002004"),
        _oracle("lambda-prime-5-1-5", "lambda-prime", "--n", "5", "--s", "1", "--m", "5",
                "--override-caps", value=GUY_Z2[5, 5], source=BRIDGE_IDENTITY + "; Guy z(5,5;2)"),
    ]


# ---------------------------------------------------------------------------
# oracle-matrix: ex-matrix run serially, plus one seeded pattern


def _ex(name, n, m, pattern, **kw) -> Instance:
    return _oracle(name, "ex-matrix", "--n", str(n), "--m", str(m), "--pattern", pattern, **kw)


def seeded_pattern(rng: random.Random) -> tuple[int, int, tuple[int, ...]]:
    """A 2x2..3x3 pattern that is not all ones and has no empty row or column."""
    while True:
        pn, pm = rng.choice(((2, 2), (2, 3), (3, 2), (3, 3)))
        rows = tuple(rng.getrandbits(pm) for _ in range(pn))
        full = (1 << pm) - 1
        cols = 0
        for r in rows:
            cols |= r
        if all(rows) and cols == full and any(r != full for r in rows):
            return pn, pm, rows


def pattern_text(pm: int, rows: tuple[int, ...]) -> str:
    return "\n".join("".join("1" if (r >> v) & 1 else "0" for v in range(pm)) for r in rows)


def brute_ex_matrix(n: int, m: int, pn: int, pm: int, p_rows: tuple[int, ...]) -> int:
    """ex(n, m, P) by row-wise branch and bound over the brute-force
    containment twin. Deleting rows or ones keeps a matrix P-free, so a
    partial matrix that contains P can be cut."""
    from seqext.matrices import MatrixPattern, ZeroOneMatrix, matrix_contains_brute

    P = MatrixPattern(pn, pm, p_rows)
    masks = sorted(range(1 << m), key=lambda x: -bin(x).count("1"))
    rows: list[int] = []
    best = 0

    def rec(ones: int) -> None:
        nonlocal best
        if len(rows) == n:
            best = max(best, ones)
            return
        if ones + m * (n - len(rows)) <= best:
            return
        for mask in masks:
            rows.append(mask)
            if not matrix_contains_brute(ZeroOneMatrix(len(rows), m, tuple(rows)), P):
                rec(ones + bin(mask).count("1"))
            rows.pop()

    rec(0)
    return best


def _oracle_matrix(size: str, rng: random.Random) -> list[Instance]:
    host = 3 if size == "tiny" else 4
    pn, pm, p_rows = seeded_pattern(rng)
    seeded = _ex(f"ex-{host}x{host}-seeded", host, host, pattern_text(pm, p_rows),
                 value=brute_ex_matrix(host, host, pn, pm, p_rows),
                 source="brute force: row-wise search over matrices.matrix_contains_brute")
    if size == "tiny":
        return [_ex("ex-3x3-R22", 3, 3, "R2,2", value=GUY_Z2[3, 3], source="Guy z(3,3;2)"), seeded]
    return [
        _ex("ex-4x4-R22", 4, 4, "R2,2", value=GUY_Z2[4, 4], source="Guy z(4,4;2)"),
        _ex("ex-4x5-R22", 4, 5, "R2,2", value=GUY_Z2[4, 5], source="Guy z(4,5;2)"),
        _ex("ex-5x4-R22", 5, 4, "R2,2", value=GUY_Z2[4, 5], same_as="ex-4x5-R22",
            source="identity: transpose of ex(4,5,R22); Guy z(4,5;2)"),
        _ex("ex-3x6-R22", 3, 6, "R2,2", value=GUY_Z2[3, 6], source="Guy z(3,6;2)"),
        _ex("ex-4x5-R23", 4, 5, "R2,3", value=13, source=PINNED),
        _ex("ex-5x4-R32", 5, 4, "R3,2", value=13, same_as="ex-4x5-R23",
            source="identity: transpose of ex(4,5,R23); " + PINNED),
        seeded,
    ]


# ---------------------------------------------------------------------------
# construct-verify: constructions, their checks, and a verify of the written file


def _construct_verify(size: str, out_dir: Path) -> list[Instance]:
    r, q, t = 2, 4, 3
    x, nb, nd = (6, 5, 20) if size == "tiny" else (40, 100, 600)
    prefix = str(out_dir / "formation")
    fbound = 2 * comb(x - 1, r - 1) + t + 1
    group = "formation"
    return [
        Instance("construct-formation",
                 ("construct", "formation", "--r", str(r), "--q", str(q), "--x", str(x),
                  "--t", str(t), "--out", prefix),
                 length=q * t * comb(x, r), group=group,
                 source="paper: T_{r,q}(x,t) has length q t C(x,r)"),
        Instance("verify-formation",
                 ("verify", prefix + ".seq", f"sparse:{q}", f"formation:{r}:{fbound}"),
                 group=group,
                 source="paper: q-sparse, formation length below 2 C(x-1,r-1) + t + 1"),
        Instance("verify-not-sparser",
                 ("verify", prefix + ".seq", f"sparse:{q + 1}"),
                 exit_code=1, failing_check=f"sparse:{q + 1}", group=group,
                 source="paper: not (q+1)-sparse once t >= 2"),
        Instance("construct-block", ("construct", "block", "--n", str(nb), "--s", str(nb)),
                 length=nb + (nb - 1) * (nb - 1), blocks=nb,
                 source="construction: n full blocks, one letter dropped at each boundary"),
        Instance("construct-ds-sparse", ("construct", "ds-sparse", "--n", str(nd), "--s", "8", "--j", "3"),
                 letters=nd, source="construction: padded to exactly n letters"),
    ]


# ---------------------------------------------------------------------------
# oracle-parallel: --threads 2 on a subset of the serial instances


def _oracle_parallel(size: str) -> list[Instance]:
    if size == "tiny":
        return [
            _threads(_oracle("lambda-3-3", "lambda", "--n", "3", "--s", "3",
                             value=A002004[3], source="OEIS A002004")),
            _threads(_ex("ex-3x3-R22", 3, 3, "R2,2", value=GUY_Z2[3, 3], source="Guy z(3,3;2)")),
        ]
    return [
        _threads(_oracle("lambda-4-5", "lambda", "--n", "4", "--s", "5", "--override-caps",
                         value=23, source=PINNED)),
        _threads(_oracle("lambda-5-3", "lambda", "--n", "5", "--s", "3",
                         value=A002004[5], source="OEIS A002004")),
        _threads(_oracle("pattern-alt6-4", "pattern", "--pattern", "(ab)^3", "--n", "4", "--j", "2",
                         value=16, source="identity: (ab)^3 with j=2 is lambda_4; " + PINNED)),
        _threads(_oracle("formation-4-2-3-2", "formation", "--n", "4", "--r", "2", "--s", "3",
                         "--j", "2", value=13, source=PINNED)),
        _threads(_oracle("blocks-4-4-4", "lambda-blocks", "--n", "4", "--s", "4", "--m", "4",
                         value=14, source=PINNED)),
        _threads(_ex("ex-4x5-R22", 4, 5, "R2,2", value=GUY_Z2[4, 5], source="Guy z(4,5;2)")),
        _threads(_ex("ex-5x4-R22", 5, 4, "R2,2", value=GUY_Z2[4, 5],
                     source="identity: transpose of ex(4,5,R22); Guy z(4,5;2)")),
    ]


def build(workload: str, seed: int, size: str, out_dir: Path) -> list[Instance]:
    """The workload's instances in the order the seed gives their groups."""
    rng = random.Random(seed)
    if workload == "oracle-seq":
        insts = _oracle_seq(size)
    elif workload == "oracle-matrix":
        insts = _oracle_matrix(size, rng)
    elif workload == "construct-verify":
        out_dir.mkdir(parents=True, exist_ok=True)
        insts = _construct_verify(size, out_dir)
    elif workload == "oracle-parallel":
        insts = _oracle_parallel(size)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    groups: dict[str, list[Instance]] = {}
    for inst in insts:
        groups.setdefault(inst.group or inst.name, []).append(inst)
    order = list(groups)
    rng.shuffle(order)
    return [inst for key in order for inst in groups[key]]


def with_wrong_expectation(insts: list[Instance]) -> list[Instance]:
    """Shift the first expected value by one, so that a correct program fails
    the gate (the benchmark's self-test uses this to prove the gate can fail)."""
    out = list(insts)
    for i, inst in enumerate(out):
        for attr in ("value", "length", "letters"):
            if getattr(inst, attr) is not None:
                out[i] = replace(inst, **{attr: getattr(inst, attr) + 1})
                return out
    raise ValueError("no instance has an expected value")


# ---------------------------------------------------------------------------
# the correctness gate


def _witness_tokens(text: str) -> list[str]:
    return [tok for tok in text.split() if tok != "|"]


def check(inst: Instance, code: int, report: dict | None) -> list[str]:
    """Problems with one run of `inst`; empty when it is correct."""
    problems = []
    if code != inst.exit_code:
        problems.append(f"exit code {code}, expected {inst.exit_code}")
    if report is None:
        return problems + ["no JSON report"]
    failing = sorted(c["name"] for c in report.get("checks", []) if not c["pass"])
    expected_failing = [inst.failing_check] if inst.failing_check else []
    if failing != expected_failing:
        problems.append(f"failing checks {failing}, expected {expected_failing}")
    results = report.get("results", {})
    if inst.value is not None:
        if results.get("value") != inst.value:
            problems.append(f"value {results.get('value')}, expected {inst.value}")
        if results.get("exhausted") is not True:
            problems.append(f"exhausted {results.get('exhausted')}, expected true")
    witness = results.get("witness", "")
    if inst.length is not None and len(_witness_tokens(witness)) != inst.length:
        problems.append(f"witness length {len(_witness_tokens(witness))}, expected {inst.length}")
    if inst.letters is not None and len(set(_witness_tokens(witness))) != inst.letters:
        problems.append(f"witness letters {len(set(_witness_tokens(witness)))}, expected {inst.letters}")
    if inst.blocks is not None and witness.count("|") + 1 != inst.blocks:
        problems.append(f"witness blocks {witness.count('|') + 1}, expected {inst.blocks}")
    return problems

