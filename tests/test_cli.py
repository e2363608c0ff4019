"""CLI surface: subcommands, exit-status contract, file IO, JSON stability."""

import hashlib
import json
import random
import re
import sys

import pytest

from conftest import random_sequence
from seqext import checks, cli, oracles
from seqext.cli import main
from seqext.errors import CapExceededError
from seqext.matrices import all_ones
from seqext.sequences import parse_pattern, render


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestConstruct:
    def test_formation_with_files(self, capsys, tmp_path):
        out = tmp_path / "w"
        code, payload, _ = run_json(
            capsys, "construct", "formation",
            "--r", "2", "--q", "3", "--x", "3", "--t", "2", "--out", str(out),
        )
        assert code == 0
        assert payload["results"]["witness"] == "1 2 4 1 2 4 1 3 5 1 3 5 2 3 6 2 3 6"
        assert all(c["pass"] for c in payload["checks"])
        assert (tmp_path / "w.seq").read_text().strip() == payload["results"]["witness"]
        assert "troop 1: 1 2 4" in (tmp_path / "w.trace").read_text()

    def test_block(self, capsys):
        code, payload, _ = run_json(capsys, "construct", "block", "--n", "4", "--s", "3")
        assert code == 0
        assert payload["results"]["witness"] == "1 2 3 4 | 3 2 1 | 2 3 4 |"
        length_check = next(c for c in payload["checks"] if c["name"] == "length")
        assert length_check["measured"] == 10

    def test_ds_sparse_infeasible_exits_2(self, capsys):
        code, _, err = run(
            capsys, "construct", "ds-sparse", "--n", "4", "--s", "4", "--j", "2"
        )
        assert code == 2 and "error" in err

    def test_ds_sparse(self, capsys):
        code, payload, _ = run_json(
            capsys, "construct", "ds-sparse", "--n", "48", "--s", "24", "--j", "2"
        )
        assert code == 0
        assert all(c["pass"] for c in payload["checks"])
        assert payload["params"] == {"n": 48, "s": 24, "j": 2}

    # sha256 of the rendered witness, first 16 hex digits
    @pytest.mark.parametrize("n, s, j, tokens, digest", [
        (48, 24, 2, 104, "a56a9eab89c19f27"),
        (600, 8, 3, 600, "d3f579513eb8dba6"),
        (100, 1000, 3, 4575, "77a4a11bbc4be80e"),
        (5, 6, 2, 5, "2deb4db564eb7bf6"),
    ])
    def test_ds_sparse_witness_pinned(self, capsys, n, s, j, tokens, digest):
        code, payload, _ = run_json(
            capsys, "construct", "ds-sparse", "--n", str(n), "--s", str(s), "--j", str(j)
        )
        witness = payload["results"]["witness"]
        assert (code, len(witness.split())) == (0, tokens)
        assert hashlib.sha256(witness.encode()).hexdigest()[:16] == digest

    def test_ds_sparse_takes_no_c(self, capsys):
        assert run(capsys, "construct", "ds-sparse", "--n", "48", "--s", "24", "--j", "2",
                   "--c", "1.0") == (2, "", "error: construct takes no option --c\n")

    def test_missing_params_exit_2(self, capsys):
        code, _, err = run(capsys, "construct", "formation", "--r", "2")
        assert code == 2 and "missing" in err


class TestVerify:
    def test_formation_witness_passes(self, capsys, tmp_path):
        f = tmp_path / "t232.seq"
        f.write_text("1 2 1 2 1 3 1 3 2 3 2 3\n")
        code, out, _ = run(capsys, "verify", str(f), "sparse:2", "formation:2:7")
        assert code == 0 and "pass" in out

    def test_adjacent_repeat_fails_ds(self, capsys, tmp_path):
        f = tmp_path / "bad.seq"
        f.write_text("1 1\n")
        code, out, _ = run(capsys, "verify", str(f), "ds:2")
        assert code == 1 and "FAIL" in out

    def test_block_witness_ds(self, capsys, tmp_path):
        f = tmp_path / "blocks.seq"
        f.write_text("1 2 3 4 | 3 2 1 | 2 3 4 |\n")
        code, _, _ = run(capsys, "verify", str(f), "ds:3", "lambda-prime:3")
        assert code == 0

    def test_lambda_prime_on_an_unblocked_file(self, capsys, tmp_path):
        f = tmp_path / "flat.seq"
        f.write_text("1 2 1 3 2\n")
        code, out, err = run(capsys, "verify", str(f), "lambda-prime:2")
        assert (code, out) == (2, "")
        assert err == (
            "error: lambda-prime:2 needs a blocked file ('|' between blocks): "
            "this file has no blocks and repeats a letter\n"
        )
        f.write_text(" ".join(["1 2"] * 50_000) + "\n")  # no tokens are echoed
        code, _, err = run(capsys, "verify", str(f), "lambda-prime:2")
        assert code == 2 and len(err) < 120
        f.write_text("1 2 3\n")  # without a repeat it is one block, as before
        code, payload, _ = run_json(capsys, "verify", str(f), "lambda-prime:2")
        assert code == 0
        assert payload["checks"] == [
            {"name": "lambda-prime:2", "pass": True, "measured": 1, "bound": 2}
        ]

    def test_pattern_check(self, capsys, tmp_path):
        f = tmp_path / "s.seq"
        f.write_text("1 2 1 3 1\n")  # max alternation 3: avoids (ab)^2
        code, _, _ = run(capsys, "verify", str(f), "pattern:(ab)^2")
        assert code == 0
        f2 = tmp_path / "s2.seq"
        f2.write_text("1 2 1 2\n")  # is (ab)^2: avoidance check fails
        code2, _, _ = run(capsys, "verify", str(f2), "pattern:(ab)^2")
        assert code2 == 1

    def test_ds_order_zero_exits_2(self, capsys, tmp_path):
        f = tmp_path / "s.seq"
        f.write_text("1 2 1\n")
        code, _, err = run(capsys, "verify", str(f), "ds:0")
        assert code == 2 and "order must be >= 1" in err

    @pytest.mark.parametrize("spec,message", [
        ("formation:2:0", "s must be >= 1"),
        ("formation:0:2", "r must be >= 1"),
        ("sparse:0", "sparsity parameter must be >= 1"),
        ("lambda-prime:0", "s must be >= 1"),
    ])
    def test_zero_parameter_exits_2(self, capsys, tmp_path, spec, message):
        f = tmp_path / "s.seq"
        f.write_text("1 2 1\n")
        code, _, err = run(capsys, "verify", str(f), spec)
        assert code == 2 and message in err

    def test_long_pattern_avoided(self, capsys, tmp_path):
        f = tmp_path / "alt.seq"
        f.write_text(" ".join(["1 2"] * 699) + "\n")  # 1,398 tokens
        code, out, err = run(capsys, "verify", str(f), "pattern:(ab)^700")
        assert (code, err) == (0, "") and "pass" in out

    def test_ds_check_is_is_ds_from_one_scan(self, capsys, tmp_path, monkeypatch):
        real = checks.max_alternation
        calls = []
        monkeypatch.setattr(checks, "max_alternation", lambda seq: calls.append(1) or real(seq))
        rng = random.Random(31)
        f = tmp_path / "s.seq"
        for _ in range(30):
            seq = random_sequence(rng, max_alpha=4, max_len=12)
            if not seq.tokens:
                continue
            f.write_text(render(seq) + "\n")
            for order in (1, 2, 3):
                before = len(calls)
                code, payload, _ = run_json(capsys, "verify", str(f), f"ds:{order}")
                assert len(calls) - before == 1
                (check,) = payload["checks"]
                assert check["pass"] == checks.is_ds(seq, order) == (code == 0)
                assert (check["measured"], check["bound"]) == (real(seq), order + 1)

    def test_unknown_check_exits_2(self, capsys, tmp_path):
        f = tmp_path / "s.seq"
        f.write_text("1 2\n")
        code, _, _ = run(capsys, "verify", str(f), "nonsense:1")
        assert code == 2

    def test_parse_error_exits_2(self, capsys, tmp_path):
        f = tmp_path / "bad.seq"
        f.write_text("1 1 | 2\n")
        code, _, _ = run(capsys, "verify", str(f), "ds:2")
        assert code == 2


class TestOracle:
    def test_lambda(self, capsys):
        code, payload, _ = run_json(
            capsys, "oracle", "lambda", "--n", "3", "--s", "2", "--j", "2"
        )
        assert code == 0
        assert payload["results"]["value"] == 5
        assert payload["results"]["exhausted"] is True

    def test_ex_matrix_shorthand(self, capsys):
        code, payload, _ = run_json(
            capsys, "oracle", "ex-matrix", "--n", "4", "--m", "4", "--pattern", "R2,2"
        )
        assert code == 0 and payload["results"]["value"] == 9

    def test_lambda_prime(self, capsys):
        code, payload, _ = run_json(
            capsys, "oracle", "lambda-prime", "--n", "3", "--s", "1", "--m", "3"
        )
        assert code == 0 and payload["results"]["value"] == 6

    def test_lambda_prime_threads_match_serial(self, capsys):
        argv = ("oracle", "lambda-prime", "--n", "4", "--s", "2", "--m", "4")
        _, serial, _ = run_json(capsys, *argv)
        _, par, _ = run_json(capsys, *argv, "--threads", "2")
        assert par["results"]["value"] == serial["results"]["value"] == 12
        assert par["results"]["witness"] == serial["results"]["witness"]

    def test_lambda_prime_column_limit_exits_2(self, capsys):
        code, _, err = run(
            capsys, "oracle", "lambda-prime", "--n", "1", "--s", "1", "--m", "63",
            "--override-caps",
        )
        assert code == 2 and "m <= 62" in err

    def test_lambda_blocks(self, capsys):
        code, payload, _ = run_json(
            capsys, "oracle", "lambda-blocks", "--n", "2", "--s", "2", "--m", "2"
        )
        assert code == 0 and payload["results"]["value"] == 3

    def test_pattern_shorthand(self, capsys):
        code, payload, _ = run_json(
            capsys, "oracle", "pattern", "--pattern", "(ab)^2", "--j", "2", "--n", "3"
        )
        assert code == 0 and payload["results"]["value"] == 5

    def test_pattern_inline(self, capsys):
        code, payload, _ = run_json(
            capsys, "oracle", "pattern", "--pattern", "a a", "--j", "2", "--n", "3"
        )
        assert code == 0 and payload["results"]["value"] == 3

    def test_pattern_from_file(self, capsys, tmp_path):
        f = tmp_path / "u.seq"
        f.write_text("a b a b\n")
        code, payload, _ = run_json(
            capsys, "oracle", "pattern", "--pattern", str(f), "--j", "2", "--n", "3"
        )
        assert code == 0 and payload["results"]["value"] == 5

    def test_matrix_pattern_from_file(self, capsys, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("11\n11\n")
        code, payload, _ = run_json(
            capsys, "oracle", "ex-matrix", "--n", "3", "--m", "3", "--pattern", str(f)
        )
        assert code == 0 and payload["results"]["value"] == 6

    def test_matrix_pattern_rows_joined_by_slash(self, capsys):
        # the report prints a pattern as rows joined by "/"; it can be passed back
        argv = ("oracle", "ex-matrix", "--n", "4", "--m", "5", "--pattern")
        _, shorthand, _ = run_json(capsys, *argv, "R2,2")
        assert shorthand["params"]["pattern"] == "11/11"
        code, inline, _ = run_json(capsys, *argv, "11/11")
        assert code == 0 and inline["params"] == shorthand["params"]
        assert inline["results"] == shorthand["results"]

    @pytest.mark.parametrize("backend", ["pure", "compiled"])
    def test_pattern_wider_than_a_row_mask(self, capsys, request, backend):
        # 65 columns do not fit a 64-bit mask; wider than the host, P never occurs
        request.getfixturevalue(f"{backend}_backend")
        code, payload, err = run_json(
            capsys, "oracle", "ex-matrix", "--n", "2", "--m", "2", "--pattern", "R2,65"
        )
        assert (code, payload["results"]["value"], err) == (0, 4, "")

    def test_formation(self, capsys):
        code, payload, _ = run_json(
            capsys, "oracle", "formation",
            "--n", "3", "--r", "2", "--s", "2", "--j", "2",
        )
        assert code == 0 and payload["results"]["value"] == 5

    @pytest.mark.parametrize("argv", [
        ("formation", "--n", "3", "--r", "3", "--s", "2", "--j", "2"),
        ("pattern", "--pattern", "a b c", "--n", "3", "--j", "2"),
    ], ids=["formation", "pattern"])
    def test_unbounded_query_exits_2(self, capsys, argv):
        # j < r: no finite answer, so no cap to lift
        code, out, err = run(capsys, "oracle", *argv)
        assert (code, out) == (2, "")
        assert err == ("error: unbounded for j < r (j=2, r=3): the cycle 1..j repeated is "
                       "j-sparse with fewer than r letters\n")

    def test_cap_exceeded_exits_2(self, capsys):
        code, _, err = run(
            capsys, "oracle", "lambda", "--n", "6", "--s", "1", "--j", "2"
        )
        assert code == 2 and "cap" in err

    def test_cap_message_names_the_flag(self, capsys):
        code, _, err = run(
            capsys, "oracle", "lambda", "--n", "6", "--s", "1", "--j", "2"
        )
        assert code == 2
        assert err == "error: n=6 exceeds default cap 5; pass --override-caps to force the search\n"

    def test_override_caps_reports_the_ceiling(self, capsys):
        code, payload, _ = run_json(
            capsys, "oracle", "lambda",
            "--n", "6", "--s", "1", "--j", "2", "--override-caps",
        )
        assert code == 0
        assert payload["results"]["value"] == 6
        # s C(n, 2) + 1, as without the flag
        assert payload["results"]["ceiling"] == 16 == oracles.lambda_ceiling(6, 1)

    def test_threads_match_serial(self, capsys):
        _, serial, _ = run_json(
            capsys, "oracle", "lambda", "--n", "4", "--s", "2", "--j", "2"
        )
        _, par, _ = run_json(
            capsys, "oracle", "lambda", "--n", "4", "--s", "2", "--j", "2",
            "--threads", "2",
        )
        assert serial["results"]["value"] == par["results"]["value"]
        assert serial["results"]["witness"] == par["results"]["witness"]

    @pytest.mark.parametrize("kind, options, args, ceiling", [
        ("lambda", {"n": "3", "s": "2"}, (3, 2), 7),
        ("formation", {"n": "3", "r": "2", "s": "2", "j": "2"}, (3, 2, 2, 2), 18),
        # n < j: the answer 2 needs no search, and its ceiling is n
        ("formation", {"n": "2", "r": "2", "s": "2", "j": "3"}, (2, 2, 2, 3), 2),
        ("pattern", {"pattern": "1 2 1", "n": "3", "j": "2"}, (parse_pattern("1 2 1"), 2, 3), 27),
        ("lambda-blocks", {"n": "3", "s": "2", "m": "2"}, (3, 2, 2), 6),
        # lambda-prime searches the n x m matrix
        ("lambda-prime", {"n": "3", "s": "1", "m": "3"}, (3, 1, 3), 9),
        ("ex-matrix", {"n": "3", "m": "3", "pattern": "R2,2"}, (3, 3, all_ones(2, 2)), 9),
    ], ids=["lambda", "formation", "formation-n-below-j", "pattern", "lambda-blocks",
            "lambda-prime", "ex-matrix"])
    def test_report_carries_the_search_ceiling(self, capsys, kind, options, args, ceiling):
        """Every oracle report has the same keys with and without
        --override-caps, and its ceiling and node count are the library's."""
        flags = [word for name, value in options.items() for word in (f"--{name}", value)]
        code, plain, _ = run_json(capsys, "oracle", kind, *flags)
        lifted_code, lifted, _ = run_json(capsys, "oracle", kind, *flags, "--override-caps")
        assert (code, lifted_code) == (0, 0)
        assert sorted(plain["results"]) == sorted(lifted["results"]) == [
            "ceiling", "exhausted", "nodes_explored", "threads_used", "value", "witness"]
        res = getattr(oracles, "oracle_" + kind.replace("-", "_"))(*args)
        assert plain["results"]["ceiling"] == lifted["results"]["ceiling"] == res.ceiling == ceiling
        assert plain["results"]["nodes_explored"] == res.nodes_explored
        if args == (2, 2, 2, 3):  # n < j: answered without a search
            assert res.nodes_explored == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("oracle", "lambda", "--n", "3", "--s", "2", "--threads", "0"),
            ("oracle", "lambda-prime", "--n", "3", "--s", "1", "--m", "3", "--threads", "0"),
            ("bound", "kst", "--n", "3", "--m", "3", "--a", "2", "--b", "2", "--threads", "-5",
             "--compare-oracle"),
        ],
        ids=["oracle-lambda", "oracle-lambda-prime", "bound-kst"],
    )
    def test_threads_below_one_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "threads must be >= 1" in err

    def test_threads_without_fork_exit_2(self, capsys, monkeypatch):
        monkeypatch.delattr(oracles.os, "fork")
        assert run(capsys, "oracle", "lambda", "--n", "3", "--s", "2", "--threads", "2") == (
            2, "", "error: threads > 1 needs os.fork, which this platform lacks\n")

    @pytest.mark.parametrize(
        "exc, code, message",
        [
            (RuntimeError("internal error: witness failed independent re-check"), 1,
             "error: internal error"),
            (CapExceededError("n=9 exceeds default cap 5"), 2, "error: n=9"),
            (KeyboardInterrupt(), 2, "interrupted"),
            (MemoryError(), 2, "error: MemoryError\n"),
        ],
    )
    def test_oracle_failures_keep_exit_contract(self, capsys, monkeypatch, exc, code, message):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(oracles, "oracle_lambda", fail)
        got, out, err = run(capsys, "oracle", "lambda", "--n", "3", "--s", "2")
        assert (got, out) == (code, "") and err.startswith(message)


BIG = str(10**400)


@pytest.mark.parametrize("backend", ["pure", "compiled"])
@pytest.mark.parametrize(
    "argv",
    [
        # integers too large for a float or an index
        ("bound", "kst", "--n", "2", "--m", BIG, "--a", "2", "--b", "2"),
        ("bound", "kst", "--n", BIG, "--m", "2", "--a", "2", "--b", "2"),
        ("construct", "block", "--n", BIG, "--s", "1"),
        ("construct", "formation", "--r", "2", "--q", "2", "--x", BIG, "--t", "1"),
        ("construct", "ds-sparse", "--n", BIG, "--s", "8", "--j", "3"),
        # past 2^53 but within a float's range: x starts at most at s/2
        ("construct", "ds-sparse", "--n", str(10**300), "--s", "8", "--j", "3"),
        ("oracle", "ex-matrix", "--n", "2", "--m", "2", "--pattern", f"R{BIG},2"),
        # no finite answer (j < r), refused before the caps; more letters
        # than any sequence oracle holds (n < j); a ceiling s n^r of more
        # than FORMATION_CEILING_BITS bits, refused before it is computed
        ("oracle", "formation", "--n", "60", "--r", "10", "--s", "2", "--j", "2",
         "--override-caps"),
        ("oracle", "formation", "--n", "61", "--r", "20", "--s", "2", "--j", "62",
         "--override-caps"),
        ("oracle", "formation", "--n", "1000000", "--r", "1000000", "--s", "2",
         "--j", "1000000", "--override-caps"),
        ("bound", "formation-ceiling", "--n", "1000000", "--r", "1000000", "--s", "2"),
    ],
    ids=["kst-m", "kst-n", "block", "formation", "ds-sparse", "ds-sparse-float-range", "ex-matrix",
         "oracle-formation", "oracle-formation-n-below-j", "oracle-formation-ceiling-bits",
         "bound-formation-ceiling-bits"],
)
def test_sizes_beyond_reach_exit_2(capsys, request, backend, argv):
    request.getfixturevalue(f"{backend}_backend")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


class TestBound:
    def test_kst(self, capsys):
        code, payload, _ = run_json(
            capsys, "bound", "kst", "--n", "4", "--m", "4", "--a", "2", "--b", "2"
        )
        assert code == 0 and payload["results"]["bound"] == 10.0

    def test_ds_ceiling(self, capsys):
        code, payload, _ = run_json(capsys, "bound", "ds-ceiling", "--n", "4", "--s", "2")
        assert code == 0 and payload["params"] == {"n": 4, "s": 2}
        assert payload["results"] == {"bound": 13} and payload["checks"] == []

    @pytest.mark.parametrize("argv, oracle", [
        (("ds-ceiling", "--n", "3", "--s", "2"), "lambda"),
        (("formation-ceiling", "--n", "3", "--r", "2", "--s", "2"), "formation"),
        # refused before anything is computed, a bad parameter included
        (("ds-ceiling", "--n", "3", "--s", "0"), "lambda"),
        (("formation-ceiling", "--r", "2", "--s", "2"), "formation"),
    ])
    def test_ceiling_compare_oracle_exits_2(self, capsys, monkeypatch, argv, oracle):
        # the oracle searches under this very ceiling, so the check could not
        # fail; `oracle lambda|formation` reports the ceiling beside the value
        monkeypatch.setattr(oracles, f"oracle_{oracle}", None)
        code, out, err = run(capsys, "bound", *argv, "--compare-oracle")
        assert (code, out) == (2, "")
        assert err == (
            f"error: bound {argv[0]} takes no --compare-oracle: its oracle searches under "
            f"this very ceiling; `seqext oracle {oracle}` reports it as `ceiling` beside the "
            "exact value\n"
        )

    @pytest.mark.parametrize("argv", [
        ("ds-ceiling", "--n", "4", "--s", "2", "--j", "3"),
        ("ds-ceiling", "--n", "3", "--s", "2", "--j", "0"),
        ("formation-ceiling", "--n", "2", "--r", "2", "--s", "1", "--j", "1"),
        ("formation-ceiling", "--n", "3", "--r", "2", "--s", "2", "--j"),
    ])
    @pytest.mark.parametrize("extra", [(), ("--compare-oracle",)])
    def test_ceilings_take_no_j(self, capsys, argv, extra):
        # neither formula reads j; the j < r rule lives in the oracles
        assert run(capsys, "bound", *argv, *extra) == (2, "", "error: bound takes no option --j\n")

    @pytest.mark.parametrize("argv, flag", [
        (("ds-ceiling", "--n", "3", "--s", "2", "--threads", "2"), "threads"),
        (("ds-ceiling", "--n", "3", "--s", "2", "--threads", "0"), "threads"),
        (("ds-ceiling", "--n", "3", "--s", "2", "--override-caps"), "override-caps"),
        (("ds-ceiling", "--n", "3", "--s", "2", "--threads", "2", "--override-caps"),
         "override-caps"),
        (("formation-ceiling", "--n", "3", "--r", "2", "--s", "2", "--threads", "1"), "threads"),
        (("formation-ceiling", "--n", "3", "--r", "2", "--s", "2", "--override-caps"),
         "override-caps"),
        (("kst", "--n", "3", "--m", "3", "--a", "2", "--b", "2", "--threads", "0"), "threads"),
        (("kst", "--n", "3", "--m", "3", "--a", "2", "--b", "2", "--override-caps"),
         "override-caps"),
    ])
    def test_search_flags_without_an_oracle_exit_2(self, capsys, monkeypatch, argv, flag):
        # no oracle runs to read them, so they are refused before any work
        monkeypatch.setattr(oracles, "oracle_ex_matrix", None)
        code, out, err = run(capsys, "bound", *argv)
        runs = " without --compare-oracle" if argv[0] == "kst" else ""
        assert (code, out, err) == (2, "", f"error: bound {argv[0]} does not take --{flag}{runs}\n")

    def test_kst_compare_oracle_reads_the_search_flags(self, capsys):
        argv = ("bound", "kst", "--n", "3", "--m", "3", "--a", "2", "--b", "2", "--compare-oracle")
        _, plain, _ = run_json(capsys, *argv)
        code, flagged, _ = run_json(capsys, *argv, "--threads", "2", "--override-caps")
        assert code == 0 and flagged["results"] == plain["results"]
        assert flagged["results"]["oracle_value"] == 6

    def test_formation_ceiling(self, capsys):
        code, payload, _ = run_json(
            capsys, "bound", "formation-ceiling", "--n", "3", "--r", "2", "--s", "2"
        )
        assert code == 0 and payload["results"]["bound"] == 18

    def test_formation_ceiling_one_letter(self, capsys):
        # a (1, s)-formation is one letter s times: (s-1) n
        code, payload, _ = run_json(
            capsys, "bound", "formation-ceiling", "--n", "4", "--r", "1", "--s", "3",
        )
        assert code == 0 and payload["results"] == {"bound": 8}
        assert payload["params"] == {"n": 4, "r": 1, "s": 3}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("ds-ceiling", "--n", "3", "--s", "0"), "need n, s >= 1"),
            (("ds-ceiling", "--n", "0", "--s", "2"), "need n, s >= 1"),
            (("ds-ceiling", "--n", "-3", "--s", "2"), "need n, s >= 1"),
            (("formation-ceiling", "--n", "-2", "--r", "2", "--s", "3"), "need n, r, s >= 1"),
            (("formation-ceiling", "--n", "3", "--r", "0", "--s", "2"), "need n, r, s >= 1"),
            (("formation-ceiling", "--n", "3", "--r", "2", "--s", "0"), "need n, r, s >= 1"),
        ],
    )
    def test_ceiling_parameters_below_one_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, "bound", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_unprintable_result_prints_no_report(self, capsys, monkeypatch):
        # as a too-long int does: the text report is built whole before it is
        # printed, so stdout stays empty, as with --json
        class Unprintable:
            def __format__(self, spec):
                raise ValueError("cannot print this bound")

        monkeypatch.setattr(oracles, "lambda_ceiling", lambda n, s: Unprintable())
        code, out, err = run(capsys, "bound", "ds-ceiling", "--n", "3", "--s", "1")
        assert (code, out, err) == (2, "", "error: cannot print this bound\n")

    def test_formation_ceiling_bit_limit(self, capsys):
        bits = oracles.FORMATION_CEILING_BITS
        code, payload, _ = run_json(
            capsys, "bound", "formation-ceiling", "--n", "2", "--r", str(bits - 1), "--s", "1")
        assert code == 0 and payload["results"]["bound"] == 2 ** (bits - 1)
        code, out, err = run(
            capsys, "bound", "formation-ceiling", "--n", "2", "--r", str(bits), "--s", "1")
        assert (code, out, err) == (2, "", f"error: formation ceiling s n^r exceeds {bits} bits\n")

    def test_kst_compare(self, capsys):
        code, payload, _ = run_json(
            capsys, "bound", "kst", "--n", "4", "--m", "4", "--a", "2", "--b", "2",
            "--compare-oracle",
        )
        assert code == 0
        assert payload["results"]["oracle_value"] == 9
        assert all(c["pass"] for c in payload["checks"])


class TestConvert:
    def test_blocks_to_matrix(self, capsys, tmp_path):
        f = tmp_path / "b.seq"
        f.write_text("1 2 | 2 1\n")
        code, payload, _ = run_json(capsys, "convert", "blocks-to-matrix", str(f))
        assert code == 0 and payload["results"]["output"] == "11\n11"

    def test_matrix_to_blocks(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("11\n11\n")
        code, payload, _ = run_json(capsys, "convert", "matrix-to-blocks", str(f))
        assert code == 0 and payload["results"]["output"] == "1 2 | 1 2"

    def test_round_trip_with_zero_rows(self, capsys, tmp_path):
        matrix_text = "101\n000\n011"
        f = tmp_path / "m.txt"
        f.write_text(matrix_text + "\n")
        code, payload, _ = run_json(capsys, "convert", "matrix-to-blocks", str(f))
        blocks_file = tmp_path / "b.seq"
        blocks_file.write_text(payload["results"]["output"] + "\n")
        code2, payload2, _ = run_json(
            capsys, "convert", "blocks-to-matrix", str(blocks_file), "--n", "3"
        )
        assert code2 == 0 and payload2["results"]["output"] == matrix_text

    def test_section3_witness_incidence(self, capsys, tmp_path):
        f = tmp_path / "b.seq"
        f.write_text("1 2 3 4 | 3 2 1 | 2 3 4\n")
        code, payload, _ = run_json(capsys, "convert", "blocks-to-matrix", str(f))
        assert code == 0
        rows = payload["results"]["output"].split("\n")
        assert len(rows) == 4 and all(len(r) == 3 for r in rows)

    def test_output_file(self, capsys, tmp_path):
        f = tmp_path / "b.seq"
        f.write_text("1 2 | 2 1\n")
        out = tmp_path / "m.txt"
        code, _, _ = run(capsys, "convert", "blocks-to-matrix", str(f), "--out", str(out))
        assert code == 0 and out.read_text() == "11\n11\n"


# one complete command line per kind: (command, kind, required options, the
# first line of its text report)
FULL_LINES = [
    ("construct", "formation", {"r": "2", "q": "3", "x": "3", "t": "2"},
     "construct formation  r=2 q=3 x=3 t=2"),
    ("construct", "ds-sparse", {"n": "48", "s": "24", "j": "2"},
     "construct ds-sparse  n=48 s=24 j=2"),
    ("construct", "block", {"n": "4", "s": "3"},
     "construct block  n=4 s=3"),
    ("oracle", "lambda", {"n": "3", "s": "2"},
     "oracle lambda  n=3 s=2 j=2"),
    ("oracle", "formation", {"n": "3", "r": "2", "s": "2", "j": "2"},
     "oracle formation  n=3 r=2 s=2 j=2"),
    ("oracle", "pattern", {"pattern": "1 2 1", "n": "3", "j": "2"},
     "oracle pattern  pattern=1 2 1 j=2 n=3"),
    ("oracle", "lambda-blocks", {"n": "3", "s": "2", "m": "2"},
     "oracle lambda-blocks  n=3 s=2 m=2"),
    ("oracle", "lambda-prime", {"n": "3", "s": "1", "m": "3"},
     "oracle lambda-prime  n=3 s=1 m=3"),
    ("oracle", "ex-matrix", {"n": "3", "m": "3", "pattern": "R2,2"},
     "oracle ex-matrix  n=3 m=3 pattern=11/11"),
    ("bound", "kst", {"n": "3", "m": "3", "a": "2", "b": "2"},
     "bound kst  n=3 m=3 a=2 b=2"),
    ("bound", "ds-ceiling", {"n": "3", "s": "2"},
     "bound ds-ceiling  n=3 s=2"),
    ("bound", "formation-ceiling", {"n": "3", "r": "2", "s": "2"},
     "bound formation-ceiling  n=3 r=2 s=2"),
]


@pytest.mark.parametrize(
    "command, kind, options, left_out",
    [(c, k, opts, name) for c, k, opts, _ in FULL_LINES for name in opts],
    ids=[f"{c}-{k}-{name}" for c, k, opts, _ in FULL_LINES for name in opts],
)
def test_missing_required_option_exits_2(capsys, command, kind, options, left_out):
    argv = [command, kind]
    for name, value in options.items():
        if name != left_out:
            argv += [f"--{name}", value]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: missing required option --{left_out}\n"


@pytest.mark.parametrize("command, kind, options, header", FULL_LINES,
                         ids=[f"{c}-{k}" for c, k, *_ in FULL_LINES])
def test_report_header(capsys, command, kind, options, header):
    flags = [word for name, value in options.items() for word in (f"--{name}", value)]
    code, out, _ = run(capsys, command, kind, *flags)
    assert (code, out.splitlines()[0]) == (0, header)


@pytest.mark.parametrize("argv, message", [
    (("oracle", "lambda", "--n", "4", "--s", "3", "--m", "2", "--r", "9", "--pattern", "1 2 1"),
     "oracle lambda does not take --m"),
    (("oracle", "ex-matrix", "--n", "3", "--m", "3", "--pattern", "R2,2", "--j", "2"),
     "oracle ex-matrix does not take --j"),
    (("construct", "block", "--n", "4", "--s", "3", "--x", "99"),
     "construct block does not take --x"),
    (("construct", "formation", "--r", "2", "--q", "3", "--x", "3", "--t", "2", "--j", "2"),
     "construct formation does not take --j"),
    (("bound", "kst", "--n", "3", "--m", "3", "--a", "2", "--b", "2", "--s", "5", "--r", "9"),
     "bound kst does not take --s"),
    (("bound", "ds-ceiling", "--n", "3", "--s", "2", "--r", "2"),
     "bound ds-ceiling does not take --r"),
    (("convert", "matrix-to-blocks", "m.txt", "--n", "3"),
     "convert matrix-to-blocks does not take --n"),
])
def test_option_the_kind_does_not_read_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


class TestJsonStability:
    def test_byte_identical_modulo_wall_time(self, capsys):
        def scrub(text):
            return re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', text)

        outs = []
        for _ in range(2):
            code = main(["oracle", "lambda", "--n", "3", "--s", "2", "--j", "2", "--json"])
            assert code == 0
            outs.append(scrub(capsys.readouterr().out))
        assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ("convert", "blocks-to-matrix", "{file}", "--j"),  # not --json
    ("oracle", "lambda", "--n", "3", "--s", "2", "--thr", "1", "--over", "--js"),
    ("bound", "ds-ceiling", "--n", "3", "--s", "2", "--j", "3"),
    ("construct", "block", "--n", "2", "--s", "2", "--o", "w"),
    ("verify", "{file}", "sparse:2", "--js"),
])
def test_option_prefixes_exit_2(capsys, tmp_path, argv):
    # options are matched by their full spelling only, never by a prefix
    f = tmp_path / "b.seq"
    f.write_text("1 2 | 2 1\n")
    code, out, err = run(capsys, *[str(f) if arg == "{file}" else arg for arg in argv])
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert err.startswith(f"error: {argv[0]} takes no option --"), err


# the options no kind reads, by the commands that take them, and their types
EXTRA_OPTIONS = {
    "construct": {"out": str, "json": bool},
    "verify": {"json": bool},
    "oracle": {"json": bool, "override-caps": bool, "threads": int},
    "bound": {"compare-oracle": bool, "json": bool, "override-caps": bool, "threads": int},
    "convert": {"out": str, "json": bool},
}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_every_full_option_spelling_parses(command):
    """A command takes the options its kinds read (`_READS`), of the types
    `_FLAGS` gives, and those of EXTRA_OPTIONS; each parses as `--name
    VALUE` and as `--name=VALUE`. Every other option of `_FLAGS` is refused."""
    head = {"verify": ["w.seq", "sparse:2"], "convert": ["blocks-to-matrix", "F"]}.get(
        command) or [next(iter(cli._READS[command]))]
    read = {spec.rstrip("?") for kind in cli._READS.get(command, {}).values()
            for spec in kind.split()}
    options = {name: cli._FLAGS[name][0] for name in read} | EXTRA_OPTIONS[command]
    assert options
    for name, type_ in options.items():
        if type_ is bool:
            assert cli._parse([command, *head])[name] is False
            assert cli._parse([command, *head, f"--{name}"])[name] is True, name
            continue
        for words in ([f"--{name}", "7"], [f"--{name}=7"]):
            assert cli._parse([command, *head, *words])[name] == type_("7"), words
    for name in set(cli._FLAGS) - read:
        with pytest.raises(ValueError, match=f"^{command} takes no option --{name}$"):
            cli._parse([command, *head, f"--{name}", "7"])


@pytest.mark.parametrize("argv", [
    ("construct", "block", "--n", "2", "--s", "2"),
    ("verify", "w.seq", "sparse:2"),
    ("convert", "matrix-to-blocks", "m.txt"),
])
def test_search_options_only_on_searches(capsys, argv):
    for option in ("--override-caps", "--threads=2"):
        name = option.partition("=")[0]
        assert run(capsys, *argv, option) == (2, "", f"error: {argv[0]} takes no option {name}\n")


@pytest.mark.parametrize("argv", [
    ("oracle", "ex-matrix", "--n=3", "--m=3", "--pattern=R2,2"),
    ("oracle", "--n", "3", "--m=3", "ex-matrix", "--pattern", "R2,2"),
    ("oracle", "--pattern", "R2,2", "--n", "3", "--m", "3", "ex-matrix"),
], ids=["equals", "kind-between-options", "kind-last"])
def test_option_spellings_and_order(capsys, argv):
    """`--name=VALUE` is `--name VALUE`, and the kind may stand anywhere
    after the command."""
    code, expected, _ = run_json(
        capsys, "oracle", "ex-matrix", "--n", "3", "--m", "3", "--pattern", "R2,2")
    assert code == 0 and expected["results"]["value"] == 6
    code, payload, _ = run_json(capsys, *argv)
    assert code == 0
    assert [payload[k] for k in ("command", "params", "results", "checks")] == [
        expected[k] for k in ("command", "params", "results", "checks")]


def test_double_dash_ends_the_options(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-w.seq").write_text("1 2 1 2\n")
    code, out, _ = run(capsys, "verify", "--json", "--", "-w.seq", "sparse:2")
    assert code == 0 and json.loads(out)["params"] == {"file": "-w.seq"}
    assert run(capsys, "verify", "-w.seq", "sparse:2") == (
        2, "", "error: verify takes no option -w.seq\n")
    assert run(capsys, "verify", "--", "-w.seq", "--json") == (
        2, "", "error: unknown check '--json'\n")


@pytest.mark.parametrize("argv", [("--n", "-1"), ("--n=-1",)])
def test_negative_numbers_are_values(capsys, argv):
    # they reach the oracle's own check
    assert run(capsys, "oracle", "lambda", *argv, "--s", "2") == (
        2, "", "error: need n, s, j >= 1\n")


@pytest.mark.parametrize("argv, message", [
    ((), "missing command; choose from construct, verify, oracle, bound, convert"),
    (("orcale", "lambda"), "unknown command 'orcale'; choose from construct, verify, oracle, "
                           "bound, convert"),
    (("oracle", "--n", "3", "--s", "2"), "oracle needs a kind: lambda, formation, pattern, "
                                         "lambda-blocks, lambda-prime, ex-matrix"),
    (("bound", "ds", "--n", "3"), "bound has no kind 'ds'; choose from kst, ds-ceiling, "
                                  "formation-ceiling"),
    (("oracle", "lambda", "--s", "2", "--n"), "--n needs a value"),
    (("oracle", "lambda", "--n", "--s", "2"), "--n needs a value"),
    (("oracle", "lambda", "--n", "x", "--s", "2"), "--n needs an integer, not 'x'"),
    (("oracle", "lambda", "--n=", "--s", "2"), "--n needs an integer, not ''"),
    (("oracle", "lambda", "--n", "3", "--s", "2", "--json=yes"), "--json takes no value"),
    (("oracle", "lambda", "--n", "3", "--s", "2", "-t", "2"), "oracle takes no option -t"),
    (("oracle", "lambda", "extra", "--n", "3", "--s", "2"), "unexpected argument 'extra'"),
    (("verify", "w.seq"), "verify needs a FILE and at least one CHECK"),
    (("convert", "matrix-to-blocks"), "convert matrix-to-blocks needs a FILE"),
], ids=["no-arguments", "unknown-command", "no-kind", "unknown-kind", "value-missing-at-end",
        "value-missing-before-option", "not-an-int", "empty-int", "switch-with-value",
        "short-option", "extra-positional", "verify-without-check", "convert-without-file"])
def test_usage_error_exits_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command, shown", [
    ("construct", ["{formation,ds-sparse,block}", "--j J", "--out OUT"]),
    ("verify", ["file", "CHECK [CHECK ...]", "sparse:J ds:S"]),
    ("oracle", ["--pattern PATTERN", "--override-caps", "--threads THREADS"]),
    ("bound", ["{kst,ds-ceiling,formation-ceiling}", "--compare-oracle", "--threads THREADS"]),
    ("convert", ["{blocks-to-matrix,matrix-to-blocks} file", "row count override"]),
])
def test_help_of_each_command(capsys, command, shown):
    """Each command's help shows its kinds and options, and `seqext --help`
    lists every command with its help line."""
    assert main(["--help"]) == 0
    top = capsys.readouterr().out
    code, out, err = run(capsys, command, "--help")
    assert (code, err) == (0, "") and out.startswith(f"usage: seqext {command} [-h]")
    assert all(text in out for text in shown + ["--json"]), out
    assert re.search(rf"^  {command} +\w", top, re.M)
    assert "{construct,verify,oracle,bound,convert}" in top
    for kind, reads in cli._READS.get(command, {}).items():  # each kind with what it reads
        spelled = [f"[--{spec[:-1]} {spec[:-1].upper()}]" if spec.endswith("?")
                   else f"--{spec} {spec.upper()}" for spec in reads.split()]
        assert re.search(rf"^  {kind} *{re.escape(' '.join(spelled))}$", out, re.M), kind


@pytest.mark.parametrize("argv, command", [
    (("-h",), None),
    (("oracle", "lambda", "--n", "3", "-h"), "oracle"),
    (("oracle", "lambda", "--n", "x", "--bogus", "--help"), "oracle"),
    (("verify", "--help", "w.seq"), "verify"),
    (("orcale", "--help"), None),
], ids=["top", "after-options", "after-bad-options", "before-positionals", "unknown-command"])
def test_help_anywhere(capsys, argv, command):
    """-h or --help anywhere prints help, that of the command when the first
    word names one, and returns 0, whatever else the line holds."""
    code, out, err = run(capsys, *argv)
    usage = f"usage: seqext {command} [-h]" if command else "usage: seqext [-h]"
    assert (code, err) == (0, "") and out.startswith(usage), out


def test_unwritable_report_reaches_the_error_handler(capsys, monkeypatch):
    """`Report.emit` flushes, so a report that cannot be written exits 2
    with one error line, and its stream is left for `entry` not to flush."""
    import io

    class Full(io.StringIO):
        def flush(self):
            raise OSError(28, "No space left on device")

    full = Full()
    monkeypatch.setattr(sys, "stdout", full)
    monkeypatch.setattr(cli, "_UNWRITABLE", [])
    assert main(["oracle", "lambda", "--n", "3", "--s", "2", "--json"]) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert cli._UNWRITABLE == [full]
