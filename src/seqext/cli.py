"""Command-line front door: build constructions, verify properties, run
oracles, evaluate bounds, and convert between sequence and matrix forms.

Exit status contract: 0 = all checks pass, 1 = a mathematical check failed
(including an oracle witness that fails its independent re-check), 2 =
usage/parse/infeasible-parameter/cap errors, a report that cannot be
written, or an interrupt. Reports are line-oriented text by default and
stable JSON with --json (byte-identical for identical inputs modulo the
wall_time_ms field).

The command line is parsed from three tables: `_READS` declares each
command's kinds and the options each kind reads, `_FLAGS` the type and help
of those options, and `_EXTRA_FLAGS` the options no kind reads. The `oracle`
handler is here; the other commands' handlers, and the help, which is built
from the same tables, are in `_commands`, which `main` imports on first
use. The handlers import `matrices`, `checks` and the constructions
themselves, so a run compiles only what its command uses.

`main` is the in-process API and returns the exit status. `entry` is the
process entry of both `seqext` and `python -m seqext`: it runs `main` and
ends the process without the interpreter's teardown.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time

from . import oracles
from .errors import CapExceededError
from .sequences import (  # the handlers in `_commands` read `parse_sequence` from here
    BlockedSequence,
    PatternSequence,
    Sequence,
    parse_pattern,
    parse_sequence,
    render,
)

# Each command's help text, in the order `seqext --help` lists them.
_COMMANDS = {
    "construct": "build a lower-bound witness and re-verify it",
    "verify": "run predicates against a sequence file",
    "oracle": "exact extremal value by exhaustive search",
    "bound": "evaluate an upper-bound formula",
    "convert": "blocked sequence <-> incidence matrix",
}

# Each command's kinds and the options each reads, in the order of its report
# header and of the arguments of the function it calls; "?" marks an optional
# one. The parser, the help, the option checks, the report params and the
# oracle calls all read this table.
_READS = {
    "construct": {"formation": "r q x t", "ds-sparse": "n s j", "block": "n s"},
    "oracle": {"lambda": "n s j?", "formation": "n r s j", "pattern": "pattern j n",
               "lambda-blocks": "n s m", "lambda-prime": "n s m", "ex-matrix": "n m pattern"},
    "bound": {"kst": "n m a b", "ds-ceiling": "n s", "formation-ceiling": "n r s"},
    "convert": {"blocks-to-matrix": "n?", "matrix-to-blocks": ""},
}

# Each option's type and its help text by the command that shows one; every
# command takes the options its kinds read, and help lists them in this order.
_FLAGS = {
    "n": (int, {"convert": "row count override for blocks-to-matrix"}),
    **{name: (int, {}) for name in "m a b s r q x t j".split()},
    "pattern": (str, {"oracle": "pattern: Ra,b | (ab)^s | file | inline text"}),
}

# The options no kind reads: each one's type (bool for a switch) and its help
# text by the commands that take it, in the order help lists them.
_EXTRA_FLAGS = {
    "out": (str, {"construct": "file prefix for the witness (and trace)",
                  "convert": "output file"}),
    "compare-oracle": (bool, {"bound": "kst only: also run oracle ex-matrix and check "
                                       "value <= bound"}),
    "json": (bool, dict.fromkeys(_COMMANDS, "emit a stable JSON report")),
    "override-caps": (bool, dict.fromkeys(("oracle", "bound"),
                                          "lift the default search-size caps")),
    "threads": (int, dict.fromkeys(("oracle", "bound"), (
        "processes for oracle search (default 1), this one included; a search splits only "
        "when it outruns a serial probe (results are the serial ones; threads_used reports "
        "the processes used)"))),
}

# the streams a report failed to reach; `entry` does not flush them again
_UNWRITABLE: list = []


def _print(text: str) -> None:
    """Print `text` to stdout and flush it, so that an error in writing it
    reaches `main`'s OSError handler; `entry` leaves a stream that failed
    here unflushed."""
    out = sys.stdout
    try:
        print(text, file=out)
        out.flush()
    except OSError:
        _UNWRITABLE.append(out)
        raise


class Report:
    """Accumulates parameters, results, and named pass/fail checks."""

    def __init__(self, command: str, params: dict):
        self.command = command
        self.params = params
        self.results: dict = {}
        self.checks: list[dict] = []
        self.t0 = time.monotonic()

    def check(self, name: str, passed: bool, measured=None, bound=None) -> None:
        entry = {"name": name, "pass": bool(passed)}
        if measured is not None:
            entry["measured"] = measured
        if bound is not None:
            entry["bound"] = bound
        self.checks.append(entry)

    @property
    def failed(self) -> bool:
        return any(not c["pass"] for c in self.checks)

    def emit(self, as_json: bool) -> int:
        """Print the report through `_print`: whole, or nothing when some
        value cannot be printed."""
        wall_ms = int((time.monotonic() - self.t0) * 1000)
        if as_json:
            payload = {
                "command": self.command,
                "params": self.params,
                "results": self.results,
                "checks": self.checks,
                "wall_time_ms": wall_ms,
            }
            text = json.dumps(payload, sort_keys=True, indent=2)
        else:
            args = " ".join(f"{k}={v}" for k, v in self.params.items() if v is not None)
            lines = [f"{self.command}  {args}".rstrip()]
            for key, val in self.results.items():
                text = val
                if isinstance(val, str) and "\n" in val:
                    text = "\n" + val
                lines.append(f"{key}: {text}")
            for c in self.checks:
                verdict = "pass" if c["pass"] else "FAIL"
                parts = [f"{k} {c[k]}" for k in ("measured", "bound") if k in c]
                detail = f" ({', '.join(parts)})" if parts else ""
                lines.append(f"check {c['name']}: {verdict}{detail}")
            lines.append(f"wall_time_ms: {wall_ms}")
            text = "\n".join(lines)
        _print(text)
        return 1 if self.failed else 0


def _reads(command: str, kind: str) -> dict:
    """The options `kind` reads, in order, each mapped to whether it is optional."""
    return {spec.rstrip("?"): spec.endswith("?") for spec in _READS[command][kind].split()}


def _options(args: dict, command: str, kind: str) -> dict:
    """The options `kind` reads mapped to their values, in order, None for an
    optional one not passed. Raises for the first passed option, in
    `_FLAGS`' order, that `kind` does not read, then for the first required
    one missing (or empty)."""
    reads = _reads(command, kind)
    for name in _FLAGS:
        if args.get(name) is not None and name not in reads:
            raise ValueError(f"{command} {kind} does not take --{name}")
    values = {name: args[name] for name in reads}
    for name, optional in reads.items():
        if values[name] in (None, "") and not optional:
            raise ValueError(f"missing required option --{name}")
    return values


def _resolve_seq_pattern(spec: str) -> PatternSequence:
    m = re.match(r"^\(ab\)\^(\d+)$", spec)  # compiled on first use, by `re`
    if m:
        s = int(m.group(1))
        if s < 1:
            raise ValueError("(ab)^s needs s >= 1")
        return PatternSequence((1, 2) * s)
    if os.path.exists(spec):
        with open(spec) as fh:
            return parse_pattern(fh.read())
    return parse_pattern(spec)


def _resolve_matrix_pattern(spec: str) -> MatrixPattern:
    from .matrices import MatrixPattern, all_ones, parse_matrix

    m = re.match(r"^R(\d+),(\d+)$", spec)
    if m:
        return all_ones(int(m.group(1)), int(m.group(2)))
    if os.path.exists(spec):
        with open(spec) as fh:
            spec = fh.read()
    else:  # inline rows may be joined by "/", as a report prints them
        spec = spec.replace("/", "\n")
    M = parse_matrix(spec)
    return MatrixPattern(M.n, M.m, M.rows)


def _threads(args: dict) -> int:
    """The --threads count (1 when not passed), checked before any work."""
    threads = 1 if args["threads"] is None else args["threads"]
    oracles._check_threads(threads)
    return threads


def _cmd_oracle(args: dict) -> int:
    threads = _threads(args)
    fn = args["kind"]
    report = Report(f"oracle {fn}", _options(args, "oracle", fn))
    params = report.params
    if fn == "lambda" and params["j"] is None:
        params["j"] = 2
    values = dict(params)  # the report shows a pattern as it renders
    if fn == "pattern":
        values["pattern"] = u = _resolve_seq_pattern(params["pattern"])
        params["pattern"] = render(u)
    elif fn == "ex-matrix":  # a matrix prints as `matrices.render_matrix` renders it
        values["pattern"] = P = _resolve_matrix_pattern(params["pattern"])
        params["pattern"] = str(P).replace("\n", "/")
    oracle = getattr(oracles, "oracle_" + fn.replace("-", "_"))
    res = oracle(*values.values(), override_caps=args["override-caps"], threads=threads)
    report.results["value"] = res.value
    if isinstance(res.witness, (Sequence, BlockedSequence)):
        report.results["witness"] = render(res.witness)
    else:
        report.results["witness"] = str(res.witness)
    report.results["nodes_explored"] = res.nodes_explored
    report.results["ceiling"] = res.ceiling
    report.results["exhausted"] = res.exhausted
    report.results["threads_used"] = res.threads_used
    return report.emit(args["json"])


def _takes(command: str) -> dict:
    """Each option `command` takes mapped to its type and its help text (None
    for none), in the order help lists them: those its kinds read, then the
    rest."""
    names = {name for kind in _READS.get(command, ()) for name in _reads(command, kind)}
    takes = {name: (type_, helps.get(command))
             for name, (type_, helps) in _FLAGS.items() if name in names}
    takes.update((name, (type_, helps[command]))
                 for name, (type_, helps) in _EXTRA_FLAGS.items() if command in helps)
    return takes


def _is_option(word: str) -> bool:
    """Whether `word` is an option: it starts with "-" and is neither "-"
    nor a negative integer, which are values."""
    return word.startswith("-") and word != "-" and not word[1:].isdigit()


def _parse(argv: list) -> dict:
    """The command line `argv` as a dict: "command"; "kind", and "file" for
    convert, or "file" and "checks" for verify; and every option the command
    takes, by name, mapped to the value passed last, else to None (False for
    a switch). The command comes first; its positionals and options may
    follow in any order, up to a `--`, after which come positionals only.
    An option is spelled in full, as `--name VALUE` or `--name=VALUE`. With `-h` or `--help` anywhere, it is the command
    "help" and the "topic" whose help to print: the command that `argv`
    names first, else None. Raises ValueError for a usage error."""
    if "-h" in argv or "--help" in argv:
        return {"command": "help", "topic": argv[0] if argv and argv[0] in _COMMANDS else None}
    if not argv or argv[0] not in _COMMANDS:
        what = f"unknown command {argv[0]!r}" if argv else "missing command"
        raise ValueError(f"{what}; choose from {', '.join(_COMMANDS)}")
    command, words = argv[0], iter(argv[1:])
    takes = _takes(command)
    args = {name: False if type_ is bool else None for name, (type_, _help) in takes.items()}
    args["command"] = command
    positionals = []
    for word in words:
        if word == "--":  # the rest are positionals, such as a file named "-w.seq"
            positionals += words
            break
        if not _is_option(word):
            positionals.append(word)
            continue
        name, eq, value = word[2:].partition("=")
        if not word.startswith("--") or name not in takes:
            raise ValueError(f"{command} takes no option {word.partition('=')[0]}")
        type_ = takes[name][0]
        if type_ is bool:
            if eq:
                raise ValueError(f"--{name} takes no value")
            value = True
        elif not eq:
            value = next(words, None)
            if value is None or _is_option(value):
                raise ValueError(f"--{name} needs a value")
        if type_ is int:
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"--{name} needs an integer, not {value!r}") from None
        args[name] = value
    if command == "verify":
        if len(positionals) < 2:
            raise ValueError("verify needs a FILE and at least one CHECK")
        args["file"], args["checks"] = positionals[0], positionals[1:]
        return args
    kinds = _READS[command]
    if not positionals:
        raise ValueError(f"{command} needs a kind: {', '.join(kinds)}")
    if positionals[0] not in kinds:
        raise ValueError(f"{command} has no kind {positionals[0]!r}; "
                         f"choose from {', '.join(kinds)}")
    names = ("kind", "file") if command == "convert" else ("kind",)
    if len(positionals) > len(names):
        raise ValueError(f"unexpected argument {positionals[len(names)]!r}")
    if len(positionals) < len(names):
        raise ValueError(f"{command} {positionals[0]} needs a FILE")
    args.update(zip(names, positionals))
    return args


def main(argv=None) -> int:
    """Run the command line `argv` (by default `sys.argv[1:]`) and return its
    exit status. `-h` or `--help` anywhere prints help and returns 0; a usage
    error prints one `error:` line, as every other error does, and returns
    2. It never ends the process."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        if args["command"] == "oracle":
            return _cmd_oracle(args)
        # the other handlers and the help load on first use, so that an
        # oracle run compiles none of them
        from . import _commands

        return getattr(_commands, "cmd_" + args["command"])(args)
    except CapExceededError as exc:
        print(f"error: {exc.text('--override-caps')}", file=sys.stderr)
        return 2
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        # a parameter too large to hold is a usage error, not a failed check
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # after CapExceededError, which subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 2


def entry() -> None:
    """Run `main` on the command line and end the process with its status,
    without the interpreter's teardown: every atexit handler runs once,
    stdout and stderr are flushed, unless a report failed to reach that
    stream, and `os._exit` ends the process, which then frees no module or
    object one by one. Where an interactive prompt is to start after `main`
    (`python -i`, or PYTHONINSPECT with a terminal on stdin), or while
    another thread is alive, the process ends the normal way, by
    `sys.exit`, so that the prompt starts and the threads are joined. The
    descriptor of each stream a report failed to reach then points at
    `os.devnull`, so that the teardown's flush of it succeeds and the status
    stays main's."""
    code = main()
    threading = sys.modules.get("threading")  # None: no thread was started through it
    prompt = (sys.flags.inspect or os.environ.get("PYTHONINSPECT")) and (
        sys.flags.interactive or os.isatty(0))
    if prompt or threading is not None and threading.active_count() > 1:
        for stream in _UNWRITABLE:
            try:
                fd = stream.fileno()
            except (OSError, ValueError):  # no descriptor: nothing to point elsewhere
                continue
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        sys.exit(code)
    import atexit

    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None and stream not in _UNWRITABLE:
            try:
                stream.flush()
            except (OSError, ValueError):  # the status stays main's
                pass
    os._exit(code)


if __name__ == "__main__":
    entry()
