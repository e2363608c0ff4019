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

# modules that load on first use, each only in the runs whose command needs it
ON_FIRST_USE = ("seqext.backends", "seqext._kernels_py", "seqext.matrices", "seqext.checks",
                "seqext.construct", "seqext.coloring", "seqext._forkpool")
# modules no seqext process needs
NEVER = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect", "typing")
KERNELS = ("seqext._kernels_py", "seqext.backends")
CONSTRUCTIONS = ("seqext.checks", "seqext.coloring", "seqext.construct")

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
        """`import seqext` loads `oracles` but none of what its searches use."""
        names = ON_FIRST_USE + NEVER + ("seqext.oracles",)
        assert fresh(f"import sys, seqext; print({loaded(names)})") == ["seqext.oracles"]

    @pytest.mark.parametrize("argv, loads", [
        (["construct", "formation", "--r", "2", "--q", "2", "--x", "3", "--t", "1"],
         CONSTRUCTIONS),
        (["construct", "ds-sparse", "--n", "48", "--s", "24", "--j", "2"], CONSTRUCTIONS),
        (["construct", "block", "--n", "4", "--s", "3"], CONSTRUCTIONS),
        (["verify", "WITNESS", "ds:2", "sparse:2", "formation:2:4", "pattern:(ab)^3"],
         ("seqext.checks",)),
        (["verify", "WITNESS", "lambda-prime:4"], ("seqext.checks", "seqext.matrices")),
        (["convert", "blocks-to-matrix", "WITNESS"], ("seqext.matrices",)),
        (["oracle", "lambda", "--n", "4", "--s", "2"], KERNELS + ("seqext.checks",)),
        (["oracle", "ex-matrix", "--n", "4", "--m", "4", "--pattern", "R2,2"],
         KERNELS + ("seqext.matrices",)),
    ])
    def test_cli_run(self, tmp_path, argv, loads):
        """A run loads, of the modules that load on first use, exactly those
        its command needs: no construct or verify run a kernel twin, only
        lambda-prime checks and conversions `matrices`, no sequence oracle
        `matrices`, no matrix oracle `checks`; and no run any of NEVER."""
        witness = tmp_path / "w.seq"
        witness.write_text("1 2 | 1 3 | 1\n")
        argv = [str(witness) if a == "WITNESS" else a for a in argv]
        code = (f"import sys; from seqext import cli; code = cli.main({argv!r}); "
                f"print((code, {loaded(ON_FIRST_USE + NEVER)}))")
        assert fresh(code) == (0, sorted(loads))

    @pytest.mark.parametrize("argv, loads", [
        (["construct", "block", "--n", "4", "--s", "3"], CONSTRUCTIONS),
        (["verify", "WITNESS", "ds:2", "sparse:2", "formation:2:4"], ("seqext.checks",)),
    ])
    def test_entry_point_run(self, tmp_path, argv, loads):
        """`python -S -m seqext`, as users and the benchmark run it, loads
        the package surface, `cli` and what the command needs. `-X
        importtime` cannot show this, as it omits a submodule loaded by
        `from . import name`, so `-i` keeps the process alive past
        `sys.exit` and reads `sys.modules` from standard input."""
        witness = tmp_path / "w.seq"
        witness.write_text("1 2 1 3 1\n")
        argv = [str(witness) if a == "WITNESS" else a for a in argv]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        ask = f"import sys; print({loaded(ON_FIRST_USE + NEVER + ('seqext.cli',))})\n"
        proc = subprocess.run([sys.executable, "-S", "-i", "-m", "seqext", *argv], input=ask,
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert "SystemExit: 0" in proc.stderr, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0].startswith(f"{argv[0]} ") and lines[-2].startswith("wall_time_ms: ")
        assert ast.literal_eval(lines[-1]) == sorted(loads + ("seqext.cli",))

    @pytest.mark.parametrize("name, module", [
        ("is_ds", "checks"), ("all_ones", "matrices"), ("backend_name", "backends"),
        ("matrices", "matrices"),
    ])
    def test_names_load_on_first_use(self, name, module):
        code = (f"import sys, seqext; before = 'seqext.{module}' in sys.modules; "
                f"f = seqext.{name}; m = sys.modules['seqext.{module}']; "
                f"print((before, f is getattr(m, {name!r}, m)))")
        assert fresh(code) == (False, True)

    def test_threads_load_the_pool(self):
        """A split search loads the fork pool, and neither `concurrent.futures`
        nor `multiprocessing`; a threads=2 search that finishes in its serial
        probe loads none of them. A one-node probe makes this one split."""
        code = ("import sys; from seqext import matrices, oracles; P = matrices.all_ones(2, 2); "
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
