"""The package surface: what `import seqext` loads, what a CLI run loads,
the exported names, the README's library quick tour as a doctest, and the
README's CLI examples."""

import ast
import doctest
import json
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
ON_FIRST_USE = ("seqext.backends", "seqext._kernels_py", "seqext._seq_state",
                "seqext._matrix_state", "seqext.matrices", "seqext.checks", "seqext.construct",
                "seqext.coloring", "seqext._forkpool", "seqext._commands")
# modules no seqext process needs: `cli` parses its command line itself
NEVER = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect", "typing", "shutil",
         "bz2", "lzma", "argparse", "gettext", "locale")
KERNELS = ("seqext._kernels_py", "seqext.backends")
# the pure twin's search states, which a run loads only when that twin searches
PURE = seqext.backend_name() == "pure"
SEQ_STATE = ("seqext._seq_state",) if PURE else ()
MATRIX_STATE = ("seqext._matrix_state",) if PURE else ()
CONSTRUCTIONS = ("seqext.checks", "seqext.coloring", "seqext.construct")
# the handlers of every command but `oracle`
HANDLERS = ("seqext._commands",)

# `from seqext import *` before the package had an __all__, less the names
# since deleted because nothing read them (see REMOVED)
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
    "pad_to_alphabet", "parse_matrix", "parse_pattern",
    "parse_sequence", "render", "render_matrix", "sequences", "trace_report",
    "validate_coloring",
}

# names deleted because no module, perfbench script or README read them
REMOVED = {
    "construct": ("troop_rows", "TroopRow"),
    "matrices": ("pair_block_cooccurrence",),
    "matrices.ZeroOneMatrix": ("from_lists", "entry"),
}
# where an exported name may be read: the package, the benchmark and README
READERS = (sorted((ROOT / "src" / "seqext").glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "README.md"])


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
         HANDLERS + CONSTRUCTIONS),
        (["construct", "ds-sparse", "--n", "48", "--s", "24", "--j", "2"],
         HANDLERS + CONSTRUCTIONS),
        (["construct", "block", "--n", "4", "--s", "3"], HANDLERS + CONSTRUCTIONS),
        (["verify", "WITNESS", "ds:2", "sparse:2", "formation:2:4", "pattern:(ab)^3"],
         HANDLERS + ("seqext.checks",)),
        (["verify", "WITNESS", "lambda-prime:4"], HANDLERS + ("seqext.checks", "seqext.matrices")),
        (["convert", "blocks-to-matrix", "WITNESS"], HANDLERS + ("seqext.matrices",)),
        (["bound", "ds-ceiling", "--n", "4", "--s", "2"], HANDLERS),
        (["bound", "kst", "--n", "4", "--m", "4", "--a", "2", "--b", "2"],
         HANDLERS + ("seqext.matrices",)),
        (["oracle", "lambda", "--n", "4", "--s", "2"], KERNELS + SEQ_STATE + ("seqext.checks",)),
        (["oracle", "ex-matrix", "--n", "4", "--m", "4", "--pattern", "R2,2"],
         KERNELS + MATRIX_STATE + ("seqext.matrices",)),
    ])
    def test_cli_run(self, tmp_path, argv, loads):
        """A run loads, of the modules that load on first use, exactly those
        its command needs: only a run of a command other than `oracle` the
        handlers in `_commands`, no construct, verify or bound formula a
        kernel twin or a search state, only lambda-prime checks, conversions
        and `bound kst` `matrices`, no sequence oracle `matrices` or the
        matrix state, no matrix oracle `checks` or the sequence state (and a
        search on the compiled twin neither state); and no run any of NEVER."""
        witness = tmp_path / "w.seq"
        witness.write_text("1 2 | 1 3 | 1\n")
        argv = [str(witness) if a == "WITNESS" else a for a in argv]
        code = (f"import sys; from seqext import cli; code = cli.main({argv!r}); "
                f"print((code, {loaded(ON_FIRST_USE + NEVER)}))")
        assert fresh(code) == (0, sorted(loads))

    @pytest.mark.parametrize("argv, loads", [
        (["construct", "block", "--n", "4", "--s", "3"], HANDLERS + CONSTRUCTIONS),
        (["verify", "WITNESS", "ds:2", "sparse:2", "formation:2:4"],
         HANDLERS + ("seqext.checks",)),
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

    @pytest.mark.parametrize("argv", [
        ["oracle", "lambda", "--n", "4", "--s", "2"],
        ["oracle", "ex-matrix", "--n", "4", "--m", "4", "--pattern", "R2,2"],
    ])
    def test_compiled_run_loads_no_state(self, compiled, argv):
        """A search on the compiled twin compiles neither of the pure twin's
        search states: the C kernels read only `_kernels_py`'s checks."""
        lib = str(Path(compiled.__file__).parent)
        code = (f"import sys, seqext; seqext.__path__.append({lib!r}); "
                "from seqext import backends, cli; "
                f"code = cli.main({argv!r}); "
                f"print((code, backends.backend_name(), {loaded(ON_FIRST_USE)}))")
        extra = "seqext.checks" if argv[1] == "lambda" else "seqext.matrices"
        assert fresh(code) == (0, "compiled", sorted(KERNELS + (extra,)))


def seqext_process(argv, buffered=True, stdout=subprocess.PIPE):
    """Run `python -m seqext argv` on this checkout's sources to its end,
    with stdout block-buffered (no PYTHONUNBUFFERED) unless `buffered` is
    False; stdout and stderr are captured as text."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "seqext", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True, timeout=120)


def scrub(report: str) -> str:
    return re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', report)


class TestEntry:
    """`python -m seqext` (and the installed `seqext`) ends the process by
    `cli.entry`, without the interpreter's teardown."""

    @pytest.mark.parametrize("argv, code", [
        (["verify", "WITNESS", "sparse:4", "--json"], 0),
        (["verify", "WITNESS", "sparse:5", "--json"], 1),
        (["verify", "WITNESS", "sparse:4", "--bogus"], 2),  # a usage error
        (["oracle", "lambda", "--n", "0", "--s", "2"], 2),  # main's error handler
    ])
    def test_exit_codes(self, tmp_path, argv, code):
        witness = tmp_path / "w.seq"
        witness.write_text("1 2 3 4 1 2 3 4\n")  # 4-sparse, not 5-sparse
        proc = seqext_process([str(witness) if a == "WITNESS" else a for a in argv])
        assert proc.returncode == code, proc.stderr
        if code < 2:
            (check,) = json.loads(proc.stdout)["checks"]
            assert check["pass"] == (code == 0) and proc.stderr == ""
        else:
            assert proc.stdout == "" and proc.stderr.count("error: ") == 1, proc.stderr

    def test_report_equals_main(self, capsys):
        """A 30 KB report reaches a pipe whole: what `cli.main` prints, apart
        from its wall time."""
        argv = ["construct", "block", "--n", "100", "--s", "100", "--json"]
        proc = seqext_process(argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert cli.main(argv) == 0
        expected = capsys.readouterr().out
        assert len(proc.stdout) > 25_000 and scrub(proc.stdout) == scrub(expected)

    def test_atexit_handlers_run_once(self):
        """Handlers registered before the package runs as `__main__` run
        once, after the report, and what they print reaches both streams."""
        code = ("import atexit, runpy, sys; "
                "atexit.register(print, 'to stdout'); "
                "atexit.register(print, 'to stderr', file=sys.stderr); "
                "sys.argv = ['seqext', 'oracle', 'lambda', '--n', '3', '--s', '2']; "
                "runpy.run_module('seqext', run_name='__main__')")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        lines = proc.stdout.splitlines()
        assert (proc.returncode, proc.stderr) == (0, "to stderr\n")
        assert lines[0] == "oracle lambda  n=3 s=2 j=2" and lines[-2].startswith("wall_time_ms: ")
        assert lines[-1] == "to stdout" and lines.count("to stdout") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("buffered", [True, False])
    def test_unwritable_report_exits_2(self, buffered):
        """A report that cannot be written is an error of main's, not of the
        interpreter's teardown (which exited 120)."""
        with open("/dev/full", "w") as full:
            proc = seqext_process(["oracle", "lambda", "--n", "3", "--s", "2", "--json"],
                                  buffered, stdout=full)
        assert (proc.returncode, proc.stderr) == (2, "error: [Errno 28] No space left on device\n")

    def test_failed_stream_is_not_flushed_again(self):
        """The stream a report failed to reach is not flushed again on the
        way out; its flush says so on fd 2 each time it is called."""
        code = ("import io, os, runpy, sys\n"
                "class Full(io.StringIO):\n"
                "    def flush(self):\n"
                "        os.write(2, b'flush\\n')\n"
                "        raise OSError(28, 'No space left on device')\n"
                "sys.stdout = Full()\n"
                "sys.argv = ['seqext', 'oracle', 'lambda', '--n', '3', '--s', '2']\n"
                "runpy.run_module('seqext', run_name='__main__')\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (
            2, "flush\nerror: [Errno 28] No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("way", ["PYTHONINSPECT", "live-thread"])
    def test_unwritable_report_exits_2_on_the_normal_exit(self, way):
        """Where `entry` ends by `sys.exit` (a thread still alive), the
        teardown does not flush again the stream a report failed to reach:
        its descriptor points at os.devnull by then. PYTHONINSPECT with no
        terminal on stdin starts no prompt, so it ends by `os._exit`. Each
        way exits 2 with one error line, where the teardown's flush printed
        `Exception ignored` and exited 120."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        argv = ["oracle", "lambda", "--n", "3", "--s", "2", "--json"]
        if way == "PYTHONINSPECT":
            env["PYTHONINSPECT"] = "1"
            command = [sys.executable, "-m", "seqext", *argv]
        else:
            command = [sys.executable, "-c", (
                "import runpy, sys, threading\n"
                "stop = threading.Event()\n"
                "threading.Thread(target=stop.wait, args=(5,)).start()\n"
                f"sys.argv = ['seqext', *{argv!r}]\n"
                "try:\n"
                "    runpy.run_module('seqext', run_name='__main__')\n"
                "finally:\n"
                "    stop.set()\n")]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(command, stdin=subprocess.DEVNULL, stdout=full,
                                  stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                                  timeout=120)
        assert (proc.returncode, proc.stderr) == (2, "error: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("buffered", [True, False])
    def test_broken_pipe_exits_2(self, buffered):
        """A reader that stops early, as `| head -c 10` does, leaves one error
        line and status 2. The 140 KB report outgrows the pipe's buffer, so
        the writer is still writing when the reader closes it."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = [sys.executable, "-m", "seqext", "construct", "block", "--n", "200", "--s", "200",
                "--json"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                              cwd=ROOT) as proc:
            head = proc.stdout.read(10)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert (head, code, err) == (b'{\n  "check', 2, b"error: [Errno 32] Broken pipe\n")


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

    def test_removed_names_are_gone(self):
        for owner, names in REMOVED.items():
            obj = seqext
            for part in owner.split("."):
                obj = getattr(obj, part)
            for name in names:
                assert not hasattr(obj, name), f"{owner}.{name}"
                assert name not in getattr(obj, "__all__", ()) and name not in seqext.__all__
                assert not hasattr(seqext, name), name

    def test_every_export_has_a_reader(self):
        """Each name in a module's `__all__` is read somewhere other than its
        own `def`/`class` line, an `__all__` or `_LAZY` entry, or the
        package's re-export: in the package, in a perfbench script (the
        tracer wraps some names by attribute, which keeps them read) or in
        README.md. ROADMAP aim 2 asks to delete what nothing uses; tests do
        not count as readers, since a name only they read is dead code they
        pin. Needs no allow-list."""
        kept, exported = {}, {}  # per file: lines outside those entries; its __all__
        for path in READERS:
            text = path.read_text()
            skip = set()
            for node in ast.parse(text).body if path.suffix == ".py" else ():
                targets = {t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)}
                if "__all__" in targets:  # the package's `*_LAZY` is checked in each module
                    exported[path] = [e.value for e in node.value.elts
                                      if isinstance(e, ast.Constant)]
                if targets & {"__all__", "_LAZY"} or (
                        path.name == "__init__.py" and isinstance(node, ast.ImportFrom)):
                    skip.update(range(node.lineno, node.end_lineno + 1))
            kept[path] = [line for i, line in enumerate(text.splitlines(), 1) if i not in skip]
        assert len(exported) >= 6
        unread = []
        for path, names in exported.items():
            for name in names:
                word = re.compile(rf"\b{re.escape(name)}\b")
                own = re.compile(rf"\s*(def|class) {re.escape(name)}\b")
                if not any(word.search(line) and not (where == path and own.match(line))
                           for where, lines in kept.items() for line in lines):
                    unread.append(f"{path.name}: {name}")
        assert unread == []

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
