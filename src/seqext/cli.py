"""Command-line front door: build constructions, verify properties, run
oracles, evaluate bounds, and convert between sequence and matrix forms.

Exit status contract: 0 = all checks pass, 1 = a mathematical check failed
(including an oracle witness that fails its independent re-check), 2 =
usage/parse/infeasible-parameter/cap errors or an interrupt. Reports are
line-oriented text by default and stable JSON with --json (byte-identical for
identical inputs modulo the wall_time_ms field). `_READS` is the one
declaration of each command's kinds and of the options each kind reads.
The handlers import `matrices`, `checks` and the constructions themselves,
so a run compiles only what its command uses.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from math import comb, factorial

from . import oracles
from .errors import CapExceededError
from .sequences import (
    BlockedSequence,
    PatternSequence,
    Sequence,
    flatten,
    parse_pattern,
    parse_sequence,
    render,
)

_ALTERNATION_RE = re.compile(r"^\(ab\)\^(\d+)$")
_ALLONES_RE = re.compile(r"^R(\d+),(\d+)$")

# Each command's kinds and the options each reads, in the order of its report
# header and of the arguments of the function it calls; "?" marks an optional
# one. The parser, the option checks, the report params and the oracle calls
# all read this table.
_READS = {
    "construct": {"formation": "r q x t", "ds-sparse": "n s j", "block": "n s"},
    "oracle": {"lambda": "n s j?", "formation": "n r s j", "pattern": "pattern j n",
               "lambda-blocks": "n s m", "lambda-prime": "n s m", "ex-matrix": "n m pattern"},
    "bound": {"kst": "n m a b", "ds-ceiling": "n s", "formation-ceiling": "n r s"},
    "convert": {"blocks-to-matrix": "n?", "matrix-to-blocks": ""},
}

# Each option's type and its help text by the command that shows one; every
# command adds the options its kinds read in this order.
_FLAGS = {
    "n": (int, {"convert": "row count override for blocks-to-matrix"}),
    **{name: (int, {}) for name in "m a b s r q x t j".split()},
    "pattern": (str, {"oracle": "pattern: Ra,b | (ab)^s | file | inline text"}),
}


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
        """Print the report whole, or nothing when some value cannot be printed."""
        wall_ms = int((time.monotonic() - self.t0) * 1000)
        if as_json:
            payload = {
                "command": self.command,
                "params": self.params,
                "results": self.results,
                "checks": self.checks,
                "wall_time_ms": wall_ms,
            }
            print(json.dumps(payload, sort_keys=True, indent=2))
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
            print("\n".join(lines))
        return 1 if self.failed else 0


def _reads(command: str, kind: str) -> dict:
    """The options `kind` reads, in order, each mapped to whether it is optional."""
    return {spec.rstrip("?"): spec.endswith("?") for spec in _READS[command][kind].split()}


def _options(args, command: str, kind: str) -> dict:
    """The options `kind` reads mapped to their values, in order, None for an
    optional one not passed. Raises for the first passed option that `kind`
    does not read, then for the first required one missing (or empty)."""
    reads = _reads(command, kind)
    for name, val in vars(args).items():  # in the parser's order
        if val is not None and name in _FLAGS and name not in reads:
            raise ValueError(f"{command} {kind} does not take --{name}")
    values = {name: getattr(args, name) for name in reads}
    for name, optional in reads.items():
        if values[name] in (None, "") and not optional:
            raise ValueError(f"missing required option --{name}")
    return values


def _resolve_seq_pattern(spec: str) -> PatternSequence:
    m = _ALTERNATION_RE.match(spec)
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

    m = _ALLONES_RE.match(spec)
    if m:
        return all_ones(int(m.group(1)), int(m.group(2)))
    if os.path.exists(spec):
        with open(spec) as fh:
            spec = fh.read()
    else:  # inline rows may be joined by "/", as a report prints them
        spec = spec.replace("/", "\n")
    M = parse_matrix(spec)
    return MatrixPattern(M.n, M.m, M.rows)


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def _cmd_construct(args) -> int:
    from . import checks, construct  # imported here, so that other commands never load them

    kind = args.kind
    report = Report(f"construct {kind}", _options(args, "construct", kind))
    params = report.params
    if kind == "formation":
        seq, trace = construct.build_formation_witness(*params.values())
        _verify_formation_witness(report, seq, trace)
        report.results["witness"] = render(seq)
        if args.out:
            _write(args.out + ".seq", render(seq))
            _write(args.out + ".trace", construct.trace_report(trace))
            report.results["files"] = f"{args.out}.seq {args.out}.trace"
    elif kind == "ds-sparse":
        n, s, j = params.values()
        seq = construct.build_ds_sparse_witness(n, s, j)
        report.check("letters", len(seq.alphabet) == n, len(seq.alphabet), n)
        report.check(f"sparse:{j}", checks.is_sparse(seq, j))
        _check_ds(report, seq, s)
        report.results["witness"] = render(seq)
        if args.out:
            _write(args.out + ".seq", render(seq))
            report.results["files"] = f"{args.out}.seq"
    else:  # block
        n, s = params.values()
        bseq = construct.build_block_witness(n, s)
        flat = flatten(bseq)
        full = min(s, n)
        report.check("block-count", bseq.block_count == n, bseq.block_count, n)
        report.check(
            "deletions-per-block",
            all(len(b) >= n - 1 for b in bseq.blocks[:full]),
            min((len(b) for b in bseq.blocks[:full]), default=0),
            n - 1,
        )
        if s <= n:
            report.check("length", flat.length >= n * s - n, flat.length, n * s - n)
        _check_ds(report, flat, s)
        report.results["witness"] = render(bseq)
        if args.out:
            _write(args.out + ".blocks", render(bseq))
            report.results["files"] = f"{args.out}.blocks"
    return report.emit(args.json)


def _check_ds(report: Report, seq: Sequence, s: int) -> None:
    """The ds:S check, passing iff `checks.is_ds(seq, s)`, from one alternation scan."""
    from . import checks

    if s < 1:
        raise ValueError("order must be >= 1")
    alt = checks.max_alternation(seq)
    report.check(f"ds:{s}", checks.is_sparse(seq, 2) and alt <= s + 1, alt, s + 1)


def _verify_formation_witness(report: Report, seq: Sequence, trace) -> None:
    """Re-verify every construction postcondition through the checkers."""
    from . import checks, coloring, construct

    r, q, x, t = trace.r, trace.q, trace.x, trace.t
    report.check("length", len(seq) == q * t * comb(x, r), len(seq), q * t * comb(x, r))
    report.check(f"sparse:{q}", checks.is_sparse(seq, q))
    if t >= 2:
        report.check(f"not-sparse:{q + 1}", not checks.is_sparse(seq, q + 1))
    budget = factorial(q) ** (r - 1) * x
    report.check("letter-budget", trace.letter_count <= budget, trace.letter_count, budget)
    fbound = 2 * comb(x - 1, r - 1) + t + 1
    fmax = checks.max_formation_length(seq, r)
    report.check("formation-ceiling", fmax < fbound, fmax, fbound)
    ok_inter = True
    ok_color = True
    for level in range(r, q + 1):
        H = construct.level_hypergraph(trace, level)
        if H.meets_in(r):
            ok_inter = False
        if level < q:
            col = construct.level_coloring(trace, level)
            if not coloring.validate_coloring(H, col) or not coloring.within_color_budget(
                col.color_count, H.uniformity, r - 1, H.vertex_count
            ):
                ok_color = False
    report.check("troop-intersections", ok_inter, bound=r - 1)
    report.check("level-colorings", ok_color)


def _cmd_verify(args) -> int:
    from . import checks

    with open(args.file) as fh:
        obj = parse_sequence(fh.read())
    if isinstance(obj, BlockedSequence):
        blocked, flat = obj, flatten(obj)
    else:
        blocked, flat = None, obj
    report = Report("verify", {"file": args.file})
    for spec in args.checks:
        name, _, rest = spec.partition(":")
        if name == "sparse":
            j = int(rest)
            report.check(f"sparse:{j}", checks.is_sparse(flat, j))
        elif name == "ds":
            _check_ds(report, flat, int(rest))
        elif name == "formation":
            rtxt, _, stxt = rest.partition(":")
            r, s = int(rtxt), int(stxt)
            if s < 1:
                raise ValueError("s must be >= 1")
            fmax = checks.max_formation_length(flat, r)
            report.check(f"formation:{r}:{s}", fmax < s, fmax, s)
        elif name == "pattern":
            u = _resolve_seq_pattern(rest)
            report.check(f"pattern:{rest}", not checks.contains_pattern(flat, u))
        elif name == "lambda-prime":
            from . import matrices

            s = int(rest)
            if s < 1:
                raise ValueError("s must be >= 1")
            if blocked is None and len(flat.alphabet) < len(flat):
                raise ValueError(
                    f"{spec} needs a blocked file ('|' between blocks): "
                    "this file has no blocks and repeats a letter"
                )
            target = blocked if blocked is not None else BlockedSequence((flat.tokens,))
            cooc = matrices.max_pair_cooccurrence(target)
            report.check(f"lambda-prime:{s}", cooc <= s, cooc, s)
        else:
            raise ValueError(f"unknown check {spec!r}")
    return report.emit(args.json)


def _threads(args) -> int:
    """The --threads count (1 when not passed), checked before any work."""
    threads = 1 if args.threads is None else args.threads
    oracles._check_threads(threads)
    return threads


def _cmd_oracle(args) -> int:
    threads = _threads(args)
    fn = args.function
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
    res = oracle(*values.values(), override_caps=args.override_caps, threads=threads)
    report.results["value"] = res.value
    if isinstance(res.witness, (Sequence, BlockedSequence)):
        report.results["witness"] = render(res.witness)
    else:
        report.results["witness"] = str(res.witness)
    report.results["nodes_explored"] = res.nodes_explored
    report.results["ceiling"] = res.ceiling
    report.results["exhausted"] = res.exhausted
    report.results["threads_used"] = res.threads_used
    return report.emit(args.json)


def _cmd_bound(args) -> int:
    kind = args.kind
    if args.compare_oracle and kind != "kst":
        fn = {"ds-ceiling": "lambda", "formation-ceiling": "formation"}[kind]
        raise ValueError(f"bound {kind} takes no --compare-oracle: its oracle searches under "
                         f"this very ceiling; `seqext oracle {fn}` reports it as `ceiling` "
                         "beside the exact value")
    if not args.compare_oracle:  # then no oracle runs to read them
        for flag, passed in (("override-caps", args.override_caps),
                             ("threads", args.threads is not None)):
            if passed:
                runs = " without --compare-oracle" if kind == "kst" else ""
                raise ValueError(f"bound {kind} does not take --{flag}{runs}")
    threads = _threads(args)
    report = Report(f"bound {kind}", _options(args, "bound", kind))
    params = report.params
    if kind == "kst":
        from . import matrices

        n, m, a, b = params.values()
        report.results["bound"] = bound = matrices.kst_bound(n, m, a, b)
        if args.compare_oracle:
            P = matrices.all_ones(a, b)
            value = oracles.oracle_ex_matrix(n, m, P, override_caps=args.override_caps,
                                             threads=threads).value
            report.results["oracle_value"] = value
            report.check("oracle<=bound", value <= bound, value, bound)
    elif kind == "ds-ceiling":
        report.results["bound"] = oracles.lambda_ceiling(*params.values())
    else:  # formation-ceiling
        report.results["bound"] = oracles.formation_ceiling(*params.values())
    return report.emit(args.json)


def _cmd_convert(args) -> int:
    from . import matrices

    _options(args, "convert", args.direction)
    with open(args.file) as fh:
        text = fh.read()
    report = Report(f"convert {args.direction}", {"file": args.file})
    if args.direction == "blocks-to-matrix":
        obj = parse_sequence(text)
        if isinstance(obj, Sequence):
            obj = BlockedSequence((obj.tokens,))
        M = matrices.blocked_to_matrix(obj, rows=args.n)
        out = matrices.render_matrix(M)
    else:
        M = matrices.parse_matrix(text)
        out = render(matrices.matrix_to_blocked(M))
    report.results["output"] = out
    if args.out:
        _write(args.out, out)
        report.results["files"] = args.out
    return report.emit(args.json)


# Each command's handler and help text, in the order `seqext --help` lists them.
_COMMANDS = {
    "construct": (_cmd_construct, "build a lower-bound witness and re-verify it"),
    "verify": (_cmd_verify, "run predicates against a sequence file"),
    "oracle": (_cmd_oracle, "exact extremal value by exhaustive search"),
    "bound": (_cmd_bound, "evaluate an upper-bound formula"),
    "convert": (_cmd_convert, "blocked sequence <-> incidence matrix"),
}


def _add_arguments(sp: argparse.ArgumentParser, command: str) -> None:
    """The arguments of `command`'s parser: its kind and the options its
    kinds read (its file and checks, for verify), then the rest."""
    if command == "verify":
        sp.add_argument("file")
        sp.add_argument("checks", nargs="+", metavar="CHECK",
                        help="sparse:J ds:S formation:R:S pattern:SPEC lambda-prime:S")
    else:
        sp.add_argument({"oracle": "function", "convert": "direction"}.get(command, "kind"),
                        choices=list(_READS[command]))
        names = {name for kind in _READS[command] for name in _reads(command, kind)}
        for name, (type_, helps) in _FLAGS.items():
            if name in names:
                sp.add_argument(f"--{name}", type=type_, help=helps.get(command))
    if command == "construct":
        sp.add_argument("--out", help="file prefix for the witness (and trace)")
    elif command == "bound":
        sp.add_argument("--compare-oracle", action="store_true",
                        help="kst only: also run oracle ex-matrix and check value <= bound")
    elif command == "convert":
        sp.add_argument("file")
        sp.add_argument("--out", help="output file")
    sp.add_argument("--json", action="store_true", help="emit a stable JSON report")
    if command in ("oracle", "bound"):
        sp.add_argument("--override-caps", action="store_true",
                        help="lift the default search-size caps")
        sp.add_argument("--threads", type=int,
                        help="processes for oracle search (default 1), this one included; a search "
                             "splits only when it outruns a serial probe (results are "
                             "the serial ones; threads_used reports the processes used)")


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of `argv`. Only the command that argv names (its first
    argument that is no option) gets its arguments; the others keep their
    names and help texts, which is all `seqext --help` and a top-level usage
    error print."""
    named = next((arg for arg in argv if not arg.startswith("-")), None)
    p = argparse.ArgumentParser(
        prog="seqext",
        allow_abbrev=False,
        description="Extremal sequence/matrix constructions, checkers, bounds, and exact oracles.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for command, (_handler, text) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text, allow_abbrev=False)
        if command == named:
            _add_arguments(sp, command)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
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


if __name__ == "__main__":
    sys.exit(main())
