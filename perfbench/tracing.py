"""In-process tracing of the seqext layers from outside the package.

`Tracer.install()` replaces module attributes of seqext with wrappers that
record a span per call: (name, start, end, parent span, instance, info).
The package itself is not changed. Spans stay in memory; `layer_metrics`
turns the spans of one pass into the per-layer metrics. A layer's self time
is its span's duration minus the time of its child spans.

Per-node functions (`_kernels_py.masks_contain`, `SeqState.try_push`,
`cols_embed`) are not wrapped. With --threads the kernel calls run in worker
processes, whose spans are lost: the parent records only the frontier split
and the time it waits on the pool.
"""

from __future__ import annotations

import functools
import time

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("import.seqext_s", "s"),
    ("import.oracles_s", "s"),
    ("cli.main_s", "s"),
    ("cli.emit_s", "s"),
    ("oracles.self_s", "s"),
    ("oracles.frontier_s", "s"),
    ("oracles.pool_wait_s", "s"),
    ("oracles.tasks", "count"),
    ("oracles.parallel_node_ratio", "ratio"),
    ("backends.seq_search.calls", "count"),
    ("backends.seq_search.busy_s", "s"),
    ("backends.seq_search.nodes", "count"),
    ("backends.seq_search.nodes_per_s", "1/s"),
    ("backends.matrix_search.calls", "count"),
    ("backends.matrix_search.busy_s", "s"),
    ("backends.matrix_search.nodes", "count"),
    ("backends.matrix_search.nodes_per_s", "1/s"),
    ("backends.truncated", "count"),
    ("checks.busy_s", "s"),
    ("checks.max_formation_length_s", "s"),
    ("checks.formation_scans", "count"),
    ("checks.max_alternation_s", "s"),
    ("checks.max_alternation_calls", "count"),
    ("matrices.matrix_contains_s", "s"),
    ("matrices.max_pair_cooccurrence_s", "s"),
    ("construct.build_s", "s"),
    ("construct.lift_s", "s"),
    ("construct.level_coloring_s", "s"),
    ("coloring.greedy_calls", "count"),
    ("coloring.greedy_s", "s"),
    ("coloring.validate_s", "s"),
    ("coloring.intersection_s", "s"),
    ("sequences.render_s", "s"),
    ("sequences.parse_s", "s"),
    ("trace.traced_pass_s", "s"),
    ("trace.untraced_pass_s", "s"),
]

_ORACLES = ("oracle_lambda", "oracle_formation", "oracle_pattern",
            "oracle_lambda_blocks", "oracle_lambda_prime", "oracle_ex_matrix")
_CHECKS = ("is_sparse", "alternation_length", "max_alternation", "is_ds", "formation_length",
           "brute_formation_length", "max_formation_length", "avoids_all_formations",
           "contains_pattern")
_BUILDS = ("build_formation_witness", "build_ds_sparse_witness", "build_block_witness")


def _kernel_info(result):
    _best, _witness, nodes, truncated = result
    return (nodes, bool(truncated))


class Tracer:
    """Span recorder plus the set of attribute patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, instance, info]
        self.stack: list[int] = []
        self.instance: str | None = None
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.instance, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, info=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if info is not None:
                self.spans[idx][5] = info(result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, name: str, info=None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, info))

    def install(self) -> None:
        from seqext import backends, checks, cli, coloring, construct, matrices, oracles

        self._patch(cli.Report, "emit", "cli.emit")
        for fn in _ORACLES:
            self._patch(oracles, fn, "oracles.oracle")
        self._patch(oracles, "_seq_frontier", "oracles.frontier")
        self._patch(oracles, "_matrix_frontier", "oracles.frontier")
        self._saved.append((oracles, "ProcessPoolExecutor", oracles.ProcessPoolExecutor))
        oracles.ProcessPoolExecutor = self._pool_class(oracles.ProcessPoolExecutor)
        self._patch(backends, "seq_search", "backends.seq_search", _kernel_info)
        self._patch(backends, "matrix_search", "backends.matrix_search", _kernel_info)
        for fn in _CHECKS:
            self._patch(checks, fn, "checks." + fn)
        self._patch(matrices, "matrix_contains", "matrices.matrix_contains")
        self._patch(matrices, "max_pair_cooccurrence", "matrices.max_pair_cooccurrence")
        for fn in _BUILDS:
            self._patch(construct, fn, "construct.build")
        self._patch(construct, "lift", "construct.lift")
        self._patch(construct, "level_coloring", "construct.level_coloring")
        # construct imported the coloring function by name; patch both bindings
        self._patch(construct, "greedy_edge_coloring", "coloring.greedy")
        self._patch(coloring, "greedy_edge_coloring", "coloring.greedy")
        self._patch(coloring, "validate_coloring", "coloring.validate")
        self._patch(coloring.Hypergraph, "max_pairwise_intersection", "coloring.intersection")
        self._patch(cli, "render", "sequences.render")
        self._patch(cli, "parse_sequence", "sequences.parse")
        self._patch(cli, "parse_pattern", "sequences.parse")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _pool_class(self, real):
        tracer = self

        class TracedPool:
            """Times the pool from creation to shutdown and counts its tasks."""

            def __init__(self, *args, **kwargs):
                self._span = tracer.open("oracles.pool")
                self._pool = real(*args, **kwargs)

            def __enter__(self):
                self._pool.__enter__()
                return self

            def map(self, fn, tasks):
                tasks = list(tasks)
                tracer.spans[self._span][5] = len(tasks)
                return self._pool.map(fn, tasks)

            def __exit__(self, *exc):
                try:
                    return self._pool.__exit__(*exc)
                finally:
                    tracer.close(self._span)

        return TracedPool


def layer_metrics(spans: list[list], offset: int = 0) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans. `offset` is the index of
    the pass's first span in the tracer's list, which parent indices refer to."""
    dur = [end - start for _name, start, end, _parent, _inst, _info in spans]
    parent = [p - offset if p >= offset else -1 for _n, _s, _e, p, _i, _f in spans]
    name = [span[0] for span in spans]
    child = [0.0] * len(spans)
    for k, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[k]

    def total(n: str, outermost: bool = False) -> float:
        return sum(d for k, d in enumerate(dur) if name[k] == n
                   and not (outermost and parent[k] >= 0 and name[parent[k]] == n))

    def count(n: str) -> int:
        return sum(1 for m in name if m == n)

    m: dict[str, float] = {
        "cli.main_s": total("cli.main"),
        "cli.emit_s": total("cli.emit"),
        "oracles.self_s": sum(dur[k] - child[k] for k in range(len(spans))
                              if name[k] == "oracles.oracle"),
        "oracles.frontier_s": total("oracles.frontier"),
        "oracles.pool_wait_s": total("oracles.pool"),
        "oracles.tasks": sum(spans[k][5] or 0 for k in range(len(spans))
                             if name[k] == "oracles.pool"),
    }
    truncated = 0
    for kernel in ("seq_search", "matrix_search"):
        ks = [k for k in range(len(spans)) if name[k] == "backends." + kernel]
        busy = sum(dur[k] for k in ks)
        nodes = sum(spans[k][5][0] for k in ks)
        truncated += sum(1 for k in ks if spans[k][5][1])
        m[f"backends.{kernel}.calls"] = len(ks)
        m[f"backends.{kernel}.busy_s"] = busy
        m[f"backends.{kernel}.nodes"] = nodes
        m[f"backends.{kernel}.nodes_per_s"] = nodes / busy if busy > 0 else 0.0
    m["backends.truncated"] = truncated
    m["checks.busy_s"] = sum(
        dur[k] for k in range(len(spans)) if name[k].startswith("checks.")
        and not (parent[k] >= 0 and name[parent[k]].startswith("checks."))
    )
    m["checks.max_formation_length_s"] = total("checks.max_formation_length")
    m["checks.formation_scans"] = count("checks.formation_length")
    m["checks.max_alternation_s"] = total("checks.max_alternation")
    m["checks.max_alternation_calls"] = count("checks.max_alternation")
    m["matrices.matrix_contains_s"] = total("matrices.matrix_contains")
    m["matrices.max_pair_cooccurrence_s"] = total("matrices.max_pair_cooccurrence")
    m["construct.build_s"] = total("construct.build", outermost=True)
    m["construct.lift_s"] = total("construct.lift")
    m["construct.level_coloring_s"] = total("construct.level_coloring")
    m["coloring.greedy_calls"] = count("coloring.greedy")
    m["coloring.greedy_s"] = total("coloring.greedy")
    m["coloring.validate_s"] = total("coloring.validate")
    m["coloring.intersection_s"] = total("coloring.intersection")
    m["sequences.render_s"] = total("sequences.render")
    m["sequences.parse_s"] = total("sequences.parse")
    return m
