"""The handlers of `seqext construct`, `verify`, `bound`, `convert` and of
`--help`.

`cli.main` imports this module on the first run of one of these, so that an
`oracle` run compiles none of it. Each handler takes the dict `cli._parse`
makes of its command line and returns the exit status. The handlers look
up `Report`, `render`, `parse_sequence` and the other helpers on `cli` when
they run, so that they call what stands there then (a tracer may wrap
those names).
"""

from __future__ import annotations

from math import comb, factorial

from . import cli, oracles
from .sequences import BlockedSequence, Sequence, flatten


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def cmd_construct(args: dict) -> int:
    from . import checks, construct  # imported here, so that other commands never load them

    kind, out = args["kind"], args["out"]
    report = cli.Report(f"construct {kind}", cli._options(args, "construct", kind))
    params = report.params
    if kind == "formation":
        seq, trace = construct.build_formation_witness(*params.values())
        _verify_formation_witness(report, seq, trace)
        report.results["witness"] = cli.render(seq)
        if out:
            _write(out + ".seq", cli.render(seq))
            _write(out + ".trace", construct.trace_report(trace))
            report.results["files"] = f"{out}.seq {out}.trace"
    elif kind == "ds-sparse":
        n, s, j = params.values()
        seq = construct.build_ds_sparse_witness(n, s, j)
        report.check("letters", len(seq.alphabet) == n, len(seq.alphabet), n)
        report.check(f"sparse:{j}", checks.is_sparse(seq, j))
        _check_ds(report, seq, s)
        report.results["witness"] = cli.render(seq)
        if out:
            _write(out + ".seq", cli.render(seq))
            report.results["files"] = f"{out}.seq"
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
        report.results["witness"] = cli.render(bseq)
        if out:
            _write(out + ".blocks", cli.render(bseq))
            report.results["files"] = f"{out}.blocks"
    return report.emit(args["json"])


def _check_ds(report: cli.Report, seq: Sequence, s: int) -> None:
    """The ds:S check, passing iff `checks.is_ds(seq, s)`, from one alternation scan."""
    from . import checks

    if s < 1:
        raise ValueError("order must be >= 1")
    alt = checks.max_alternation(seq)
    report.check(f"ds:{s}", checks.is_sparse(seq, 2) and alt <= s + 1, alt, s + 1)


def _verify_formation_witness(report: cli.Report, seq: Sequence, trace) -> None:
    """Re-verify every construction postcondition through the checkers."""
    from . import checks, coloring, construct

    r, q, x, t = trace.r, trace.q, trace.x, trace.t
    report.check("length", len(seq) == q * t * comb(x, r), len(seq), q * t * comb(x, r))
    report.check(f"sparse:{q}", checks.is_sparse(seq, q))
    if t >= 2:
        report.check(f"not-sparse:{q + 1}", not checks.is_sparse(seq, q + 1))
    budget = factorial(q) ** (r - 1) * x
    shown = budget
    try:
        str(budget)
    except ValueError:  # more digits than str() prints; the check stays exact
        shown = None
    report.check("letter-budget", trace.letter_count <= budget, trace.letter_count, shown)
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


def cmd_verify(args: dict) -> int:
    from . import checks

    forms = {"sparse": "J", "ds": "S", "formation": "R:S", "lambda-prime": "S"}
    specs = []  # each check as (spec, name, its integers or [the pattern's text])
    for spec in args["checks"]:
        name, _, rest = spec.partition(":")
        if name == "pattern":
            specs.append((spec, name, [rest]))
            continue
        if name not in forms:
            raise ValueError(f"unknown check {spec!r}")
        letters = forms[name].split(":")
        try:
            values = [int(word) for word in rest.split(":")]
        except ValueError:
            values = []
        if len(values) != len(letters):
            what = (f"integers {' and '.join(letters)}" if len(letters) > 1
                    else f"an integer {letters[0]}")
            raise ValueError(f"check {spec!r} needs the form {name}:{forms[name]} with {what}")
        specs.append((spec, name, values))
    path = args["file"]
    with open(path) as fh:
        obj = cli.parse_sequence(fh.read())
    if isinstance(obj, BlockedSequence):
        blocked, flat = obj, flatten(obj)
    else:
        blocked, flat = None, obj
    report = cli.Report("verify", {"file": path})
    for spec, name, values in specs:
        if name == "sparse":
            (j,) = values
            report.check(f"sparse:{j}", checks.is_sparse(flat, j))
        elif name == "ds":
            _check_ds(report, flat, *values)
        elif name == "formation":
            r, s = values
            if s < 1:
                raise ValueError("s must be >= 1")
            fmax = checks.max_formation_length(flat, r)
            report.check(f"formation:{r}:{s}", fmax < s, fmax, s)
        elif name == "pattern":
            (text,) = values
            u = cli._resolve_seq_pattern(text)
            report.check(f"pattern:{text}", not checks.contains_pattern(flat, u))
        else:  # lambda-prime
            from . import matrices

            (s,) = values
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
    return report.emit(args["json"])


def cmd_bound(args: dict) -> int:
    """Evaluate the formula of `bound KIND`; it runs no search. The exact
    values these formulas bound come from `oracle`, whose reports carry the
    ceiling each search ran under."""
    kind = args["kind"]
    report = cli.Report(f"bound {kind}", cli._options(args, "bound", kind))
    params = report.params
    if kind == "kst":
        from . import matrices

        report.results["bound"] = matrices.kst_bound(*params.values())
    elif kind == "ds-ceiling":
        report.results["bound"] = oracles.lambda_ceiling(*params.values())
    else:  # formation-ceiling
        report.results["bound"] = oracles.formation_ceiling(*params.values())
    return report.emit(args["json"])


def cmd_convert(args: dict) -> int:
    from . import matrices

    direction, path, out = args["kind"], args["file"], args["out"]
    cli._options(args, "convert", direction)
    with open(path) as fh:
        text = fh.read()
    report = cli.Report(f"convert {direction}", {"file": path})
    if direction == "blocks-to-matrix":
        obj = cli.parse_sequence(text)
        if isinstance(obj, Sequence):
            obj = BlockedSequence((obj.tokens,))
        M = matrices.blocked_to_matrix(obj, rows=args["n"])
        output = matrices.render_matrix(M)
    else:
        M = matrices.parse_matrix(text)
        output = cli.render(matrices.matrix_to_blocked(M))
    report.results["output"] = output
    if out:
        _write(out, output)
        report.results["files"] = out
    return report.emit(args["json"])


def cmd_help(args: dict) -> int:
    """Print the help of `seqext` (the command list) or of the command
    `args["topic"]` (its usage, its kinds with the options each reads, and
    its options), built from `cli`'s tables."""
    import textwrap

    def fill(text: str, indent: int) -> str:
        return textwrap.fill(text, 79, subsequent_indent=" " * indent,
                             break_long_words=False, break_on_hyphens=False)

    def table(title: str, rows: dict) -> list:
        width = max(map(len, rows)) + 2
        return ["", title] + [fill(f"  {left:<{width}}{text or ''}".rstrip(), width + 2)
                              for left, text in rows.items()]

    def spell(name: str, type_: type) -> str:
        return f"--{name}" if type_ is bool else f"--{name} {name.upper()}"

    command = args["topic"]
    if command is None:
        lines = [f"usage: seqext [-h] {{{','.join(cli._COMMANDS)}}} ...", "",
                 "Extremal sequence/matrix constructions, checkers, bounds, and exact oracles."]
        lines += table("commands:", cli._COMMANDS)
        lines += ["", "`seqext COMMAND --help` shows a command's kinds and options."]
    else:
        kinds = cli._READS.get(command, {})
        choice = "{" + ",".join(kinds) + "}"
        head = {"verify": "file CHECK [CHECK ...]",
                "convert": f"{choice} file"}.get(command, choice)
        usage = f"usage: seqext {command} [-h] {head} [options]"
        lines = [fill(usage, len(f"usage: seqext {command} ")), "", cli._COMMANDS[command]]
        if kinds:
            lines += table("kinds, each with the options it reads ([...]: optional):", {
                kind: " ".join(f"[{spell(name, int)}]" if optional else spell(name, int)
                               for name, optional in cli._reads(command, kind).items())
                for kind in kinds})
        else:
            lines += table("positional arguments:", {
                "file": "a sequence file",
                "CHECK": "sparse:J ds:S formation:R:S pattern:SPEC lambda-prime:S"})
        lines += table("options:", {spell(name, type_): text
                                    for name, (type_, text) in cli._takes(command).items()})
    cli._print("\n".join(lines))
    return 0
