"""The package surface: what `import seqext` loads, what a CLI run loads,
the exported names, the README's library quick tour as a doctest, and the
README's CLI examples."""

import ast
import doctest
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import seqext
from seqext import cli

ROOT = Path(__file__).resolve().parents[1]

# modules an oracle or verify run never needs; they load on first use
ON_FIRST_USE = ("seqext._forkpool", "seqext.construct", "seqext.coloring")
# modules no seqext process needs
NEVER = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect", "typing")

# `from seqext import *` before the package had an __all__
OLD_EXPORTS = {
    "BlockedSequence", "CapExceededError", "ConstructionTrace", "EdgeColoring", "ExtremalResult",
    "Hypergraph", "InfeasibleError", "MatrixPattern", "PatternSequence", "Sequence", "Troop",
    "ZeroOneMatrix", "all_ones", "alternation_length", "avoids_all_formations", "backend_name",
    "backends", "blocked_to_matrix", "brute_formation_length", "build_base",
    "build_block_witness", "build_ds_sparse_witness", "build_formation_witness", "checks",
    "choose_params", "coloring", "construct", "contains_pattern", "errors", "flatten",
    "formation_length", "greedy_edge_coloring", "is_ds", "is_sparse", "kst_bound", "lift",
    "matrices", "matrix_contains", "matrix_to_blocked", "max_alternation",
    "max_formation_length", "normalize", "oracle_ex_matrix", "oracle_formation",
    "oracle_lambda", "oracle_lambda_blocks", "oracle_lambda_prime", "oracle_pattern", "oracles",
    "pad_to_alphabet", "pair_block_cooccurrence", "parse_matrix", "parse_pattern",
    "parse_sequence", "render", "render_matrix", "sequences", "trace_report",
    "validate_coloring",
}


def fresh(code: str) -> list:
    """Run `code` in a new interpreter on this checkout's sources and return
    the Python literal its last output line prints. The interpreter runs
    with -S, so that no site hook preloads modules (`typing`, say)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def loaded(names) -> str:
    """An expression, for `fresh`, listing which of `names` are loaded."""
    return f"sorted(m for m in {tuple(names)!r} if m in sys.modules)"


class TestImports:
    def test_import_seqext(self):
        names = ON_FIRST_USE + NEVER + ("seqext.checks", "seqext.oracles")
        got = fresh(f"import sys, seqext; print({loaded(names)})")
        assert got == ["seqext.oracles"]

    @pytest.mark.parametrize("argv", [
        ["oracle", "ex-matrix", "--n", "4", "--m", "4", "--pattern", "R2,2"],
        ["oracle", "lambda", "--n", "4", "--s", "2"],
        ["verify", "WITNESS", "ds:2", "sparse:2", "formation:2:4", "pattern:(ab)^3",
         "lambda-prime:4"],
        ["construct", "block", "--n", "4", "--s", "3"],
    ])
    def test_cli_run(self, tmp_path, argv):
        """No run loads NEVER, an oracle or verify run none of ON_FIRST_USE,
        and a matrix oracle run no `checks`."""
        unloaded = NEVER
        if argv[0] != "construct":
            unloaded += ON_FIRST_USE
        if argv[1] == "ex-matrix":
            unloaded += ("seqext.checks",)
        witness = tmp_path / "w.seq"
        witness.write_text("1 2 | 1 3 | 1\n")
        argv = [str(witness) if a == "WITNESS" else a for a in argv]
        code = (f"import sys; from seqext import cli; code = cli.main({argv!r}); "
                f"print((code, {loaded(unloaded)}))")
        assert fresh(code) == (0, [])

    def test_checks_names_load_on_first_use(self):
        code = ("import sys, seqext; before = 'seqext.checks' in sys.modules; "
                "f = seqext.is_ds; print((before, f is sys.modules['seqext.checks'].is_ds))")
        assert fresh(code) == (False, True)

    def test_threads_load_the_pool(self):
        """A split search loads the fork pool, and neither `concurrent.futures`
        nor `multiprocessing`; a threads=2 search that finishes in its serial
        probe loads none of them. A one-node probe makes this one split."""
        code = ("import sys; from seqext import oracles; P = oracles.matrices.all_ones(2, 2); "
                "a = oracles.oracle_ex_matrix(4, 4, P); "
                "b = oracles.oracle_ex_matrix(4, 4, P, threads=2); "
                "before = 'seqext._forkpool' in sys.modules; "
                "oracles._SPLIT_PROBE_NODES = 1; "
                "c = oracles.oracle_ex_matrix(4, 4, P, threads=2); "
                "print(([(r.value, r.witness.rows) for r in (a, b, c)], b == a, before, "
                "'seqext._forkpool' in sys.modules, "
                f"{loaded(('concurrent.futures', 'multiprocessing'))}))")
        answers, probe_is_serial, before, after, pool_modules = fresh(code)
        assert answers[0] == answers[1] == answers[2] and answers[0][0] == 9
        assert (probe_is_serial, before, after, pool_modules) == (True, False, True, [])


def run_readme_doctest(pattern: str, adjust=lambda example: None) -> None:
    """Run the README `pycon` block that `pattern` captures as a doctest,
    each example first passed to `adjust`."""
    block = re.search(pattern, (ROOT / "README.md").read_text(), re.S)
    assert block, f"README has no block matching {pattern!r}"
    test = doctest.DocTestParser().get_doctest(block.group(1), {}, "README", "README.md", 0)
    for example in test.examples:
        adjust(example)
    out: list[str] = []
    result = doctest.DocTestRunner().run(test, out=out.append)
    assert result.attempted > 0 and result.failed == 0, "".join(out)


class TestExports:
    def test_every_name_resolves(self):
        assert len(set(seqext.__all__)) == len(seqext.__all__)
        for name in seqext.__all__:
            assert getattr(seqext, name) is not None, name

    def test_star_import_keeps_the_old_set(self):
        namespace: dict = {}
        exec("from seqext import *", namespace)
        assert set(namespace) - {"__builtins__"} == OLD_EXPORTS

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            seqext.no_such_name

    def test_readme_quick_tour(self):
        run_readme_doctest(r"## Library quick tour\n\n```pycon\n(.*?)```")

    def test_readme_install_block(self):
        """The install block's `backend_name()` may print either twin's name."""

        def either_twin(example):
            if example.source == "seqext.backend_name()\n":
                assert example.want in ("'pure'\n", "'compiled'\n")
                example.want = repr(seqext.backend_name()) + "\n"

        run_readme_doctest(r"## Install\n.*?```pycon\n(.*?)```", either_twin)

    def test_readme_cli_examples(self, capsys):
        text = (ROOT / "README.md").read_text()
        block = re.search(r"## CLI\n\n```text\n(.*?)```", text, re.S)
        assert block, "README has no CLI examples"
        examples = re.findall(r"^\$ seqext (.*)\n((?:.+\n)*)", block.group(1), re.M)
        assert examples
        for argv, expected in examples:
            assert cli.main(shlex.split(argv)) == 0
            out = capsys.readouterr().out
            assert re.sub(r"(?m)^wall_time_ms: \d+$", "wall_time_ms: 0", out) == expected, argv
