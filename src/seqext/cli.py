"""Command-line front door: build constructions, verify properties, run
oracles, evaluate bounds, and convert between sequence and matrix forms.

Exit status contract: 0 = all checks pass, 1 = a mathematical check failed
(including an oracle witness that fails its independent re-check), 2 =
usage/parse/infeasible-parameter/cap errors or an interrupt. Reports are
line-oriented text by default and stable JSON with --json (byte-identical for
identical inputs modulo the wall_time_ms field).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from math import comb, factorial

from . import matrices, oracles
from .errors import CapExceededError, InfeasibleError
from .matrices import MatrixPattern, all_ones, parse_matrix, render_matrix
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

# The options each kind of a command reads, in order; "?" marks an optional one.
_READS = {
    "construct": {"formation": "r q x t", "ds-sparse": "n s j c?", "block": "n s"},
    "oracle": {"lambda": "n s j?", "formation": "n r s j", "pattern": "pattern n j",
               "lambda-blocks": "n s m", "lambda-prime": "n s m", "ex-matrix": "pattern n m"},
    "bound": {"kst": "n m a b", "ds-ceiling": "n s j?", "formation-ceiling": "n r s j?"},
    "convert": {"blocks-to-matrix": "n?", "matrix-to-blocks": ""},
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


def _options(args, command: str, kind: str) -> list:
    """The values of the options `kind` reads, None for an optional one not
    passed. Raises for the first passed option of `command` that `kind`
    does not read, then for the first required one missing (or empty)."""
    reads = {spec.rstrip("?"): spec.endswith("?") for spec in _READS[command][kind].split()}
    options = {spec.rstrip("?") for specs in _READS[command].values() for spec in specs.split()}
    for name, val in vars(args).items():  # in the parser's order
        if val is not None and name in options and name not in reads:
            raise ValueError(f"{command} {kind} does not take --{name}")
    for name, optional in reads.items():
        if getattr(args, name) in (None, "") and not optional:
            raise ValueError(f"missing required option --{name}")
    return [getattr(args, name) for name in reads]


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
    report = Report(f"construct {kind}", {})
    if kind == "formation":
        r, q, x, t = _options(args, "construct", kind)
        report.params = {"r": r, "q": q, "x": x, "t": t}
        seq, trace = construct.build_formation_witness(r, q, x, t)
        _verify_formation_witness(report, seq, trace)
        report.results["witness"] = render(seq)
        if args.out:
            _write(args.out + ".seq", render(seq))
            _write(args.out + ".trace", construct.trace_report(trace))
            report.results["files"] = f"{args.out}.seq {args.out}.trace"
    elif kind == "ds-sparse":
        n, s, j, c = _options(args, "construct", kind)
        c = c if c is not None else 1.0
        report.params = {"n": n, "s": s, "j": j, "c": c}
        seq = construct.build_ds_sparse_witness(n, s, j, c)
        report.check("letters", len(seq.alphabet) == n, len(seq.alphabet), n)
        report.check(f"sparse:{j}", checks.is_sparse(seq, j))
        _check_ds(report, seq, s)
        report.results["witness"] = render(seq)
        if args.out:
            _write(args.out + ".seq", render(seq))
            report.results["files"] = f"{args.out}.seq"
    else:  # block
        n, s = _options(args, "construct", kind)
        report.params = {"n": n, "s": s}
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
        if H.max_pairwise_intersection() > r - 1:
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
            s = int(rest)
            if s < 1:
                raise ValueError("s must be >= 1")
            target = blocked if blocked is not None else BlockedSequence((flat.tokens,))
            cooc = matrices.max_pair_cooccurrence(target)
            report.check(f"lambda-prime:{s}", cooc <= s, cooc, s)
        else:
            raise ValueError(f"unknown check {spec!r}")
    return report.emit(args.json)


def _cmd_oracle(args) -> int:
    fn = args.function
    threads = args.threads
    over = args.override_caps
    report = Report(f"oracle {fn}", {})
    if fn == "lambda":
        n, s, j = _options(args, "oracle", fn)
        j = j if j is not None else 2
        report.params = {"n": n, "s": s, "j": j}
        res = oracles.oracle_lambda(n, s, j, override_caps=over, threads=threads)
    elif fn == "formation":
        n, r, s, j = _options(args, "oracle", fn)
        report.params = {"n": n, "r": r, "s": s, "j": j}
        res = oracles.oracle_formation(n, r, s, j, override_caps=over, threads=threads)
    elif fn == "pattern":
        spec, n, j = _options(args, "oracle", fn)
        u = _resolve_seq_pattern(spec)
        report.params = {"pattern": render(u), "j": j, "n": n}
        res = oracles.oracle_pattern(u, j, n, override_caps=over, threads=threads)
    elif fn == "lambda-blocks":
        n, s, m = _options(args, "oracle", fn)
        report.params = {"n": n, "s": s, "m": m}
        res = oracles.oracle_lambda_blocks(n, s, m, override_caps=over, threads=threads)
    elif fn == "lambda-prime":
        n, s, m = _options(args, "oracle", fn)
        report.params = {"n": n, "s": s, "m": m}
        res = oracles.oracle_lambda_prime(n, s, m, override_caps=over, threads=threads)
    else:  # ex-matrix
        spec, n, m = _options(args, "oracle", fn)
        P = _resolve_matrix_pattern(spec)
        report.params = {"n": n, "m": m, "pattern": render_matrix(P).replace("\n", "/")}
        res = oracles.oracle_ex_matrix(n, m, P, override_caps=over, threads=threads)
    if over:  # an answer that explored no node, n < j say, searched no tree
        kind = "matrix" if fn in ("ex-matrix", "lambda-prime") else "seq"
        estimate = oracles.estimate_nodes(kind, n, res.ceiling) if res.nodes_explored else 0.0
        report.results["estimated_nodes"] = estimate
    report.results["value"] = res.value
    if isinstance(res.witness, (Sequence, BlockedSequence)):
        report.results["witness"] = render(res.witness)
    else:
        report.results["witness"] = render_matrix(res.witness)
    report.results["nodes_explored"] = res.nodes_explored
    report.results["exhausted"] = res.exhausted
    return report.emit(args.json)


def _cmd_bound(args) -> int:
    kind = args.kind
    report = Report(f"bound {kind}", {})
    limits = dict(override_caps=args.override_caps, threads=args.threads)
    if kind == "kst":
        n, m, a, b = _options(args, "bound", kind)
        report.params = {"n": n, "m": m, "a": a, "b": b}
        bound = matrices.kst_bound(n, m, a, b)
        oracle = lambda: oracles.oracle_ex_matrix(n, m, all_ones(a, b), **limits)
    elif kind == "ds-ceiling":
        n, s, j = _options(args, "bound", kind)
        j = j if j is not None else 2
        report.params = {"n": n, "s": s, "j": j}
        bound = oracles.lambda_ceiling(n, s)
        if j < 1:
            raise ValueError("need n, s, j >= 1")
        oracle = lambda: oracles.oracle_lambda(n, s, j, **limits)
    else:  # formation-ceiling
        n, r, s, j = _options(args, "bound", kind)
        j = j if j is not None else r
        if j < r:  # below r-sparsity no ceiling exists
            raise ValueError("formation ceiling needs j >= r")
        report.params = {"n": n, "r": r, "s": s, "j": j}
        bound = oracles.formation_ceiling(n, r, s)
        oracle = lambda: oracles.oracle_formation(n, r, s, j, **limits)
    report.results["bound"] = bound
    if args.compare_oracle:
        value = oracle().value
        report.results["oracle_value"] = value
        report.check("oracle<=bound", value <= bound, value, bound)
    return report.emit(args.json)


def _cmd_convert(args) -> int:
    _options(args, "convert", args.direction)
    with open(args.file) as fh:
        text = fh.read()
    report = Report(f"convert {args.direction}", {"file": args.file})
    if args.direction == "blocks-to-matrix":
        obj = parse_sequence(text)
        if isinstance(obj, Sequence):
            obj = BlockedSequence((obj.tokens,))
        M = matrices.blocked_to_matrix(obj, rows=args.n)
        out = render_matrix(M)
    else:
        M = parse_matrix(text)
        out = render(matrices.matrix_to_blocked(M))
    report.results["output"] = out
    if args.out:
        _write(args.out, out)
        report.results["files"] = args.out
    return report.emit(args.json)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="seqext",
        description="Extremal sequence/matrix constructions, checkers, bounds, and exact oracles.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *, search=False):
        sp.add_argument("--json", action="store_true", help="emit a stable JSON report")
        if search:
            sp.add_argument("--override-caps", action="store_true",
                            help="lift the default search-size caps")
            sp.add_argument("--threads", type=int, default=1,
                            help="worker processes for oracle search (results are schedule-independent)")

    pc = sub.add_parser("construct", help="build a lower-bound witness and re-verify it")
    pc.add_argument("kind", choices=["formation", "ds-sparse", "block"])
    for flag in ("n", "s", "r", "q", "x", "t", "j"):
        pc.add_argument(f"--{flag}", type=int)
    pc.add_argument("--c", type=float, help="ds-sparse constant (default 1.0)")
    pc.add_argument("--out", help="file prefix for the witness (and trace)")
    common(pc)

    pv = sub.add_parser("verify", help="run predicates against a sequence file")
    pv.add_argument("file")
    pv.add_argument("checks", nargs="+", metavar="CHECK",
                    help="sparse:J ds:S formation:R:S pattern:SPEC lambda-prime:S")
    common(pv)

    po = sub.add_parser("oracle", help="exact extremal value by exhaustive search")
    po.add_argument("function", choices=[
        "lambda", "formation", "pattern", "lambda-blocks", "lambda-prime", "ex-matrix",
    ])
    for flag in ("n", "m", "s", "r", "j"):
        po.add_argument(f"--{flag}", type=int)
    po.add_argument("--pattern", help="pattern: Ra,b | (ab)^s | file | inline text")
    common(po, search=True)

    pb = sub.add_parser("bound", help="evaluate an upper-bound formula")
    pb.add_argument("kind", choices=["kst", "ds-ceiling", "formation-ceiling"])
    for flag in ("n", "m", "a", "b", "s", "r", "j"):
        pb.add_argument(f"--{flag}", type=int)
    pb.add_argument("--compare-oracle", action="store_true",
                    help="also run the oracle and check value <= bound")
    common(pb, search=True)

    pcv = sub.add_parser("convert", help="blocked sequence <-> incidence matrix")
    pcv.add_argument("direction", choices=["blocks-to-matrix", "matrix-to-blocks"])
    pcv.add_argument("file")
    pcv.add_argument("--n", type=int, help="row count override for blocks-to-matrix")
    pcv.add_argument("--out", help="output file")
    common(pcv)
    return p


_DISPATCH = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "bound": _cmd_bound,
    "convert": _cmd_convert,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        oracles._check_threads(getattr(args, "threads", 1))
        return _DISPATCH[args.command](args)
    except CapExceededError as exc:
        print(f"error: {exc.text('--override-caps')}", file=sys.stderr)
        return 2
    except (ValueError, InfeasibleError, OSError, OverflowError, MemoryError) as exc:
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
