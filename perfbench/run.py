#!/usr/bin/env python3
"""End-to-end benchmark of the seqext CLI, with a traced split by module.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload oracle-seq --seed 1 --seconds 30 --trace 0

Workloads are listed in `workloads.py` and in BENCHMARK.json.

--trace 0 runs the workload's instance list as fresh `python -m seqext ...
--json` processes, one at a time (a closed loop with one client), pass after
pass until --seconds is spent. It reports end-to-end metrics:

  wall_s       median wall time of one pass over the instance list (the sum
               of its instances' wall times)
  setup_s      median wall time of a fresh `python -c "import seqext"`
  peak_rss_mb  median over passes of the largest max-RSS of a CLI process
               in the pass, pool workers included

wall_s and setup_s are scaled to a reference host speed by a fixed Python
loop timed before every instance; the summary prints the unscaled medians
as raw_wall_s and raw_setup_s.

--trace 1 calls `seqext.cli.main(argv)` in this process instead, alternating
untraced passes and passes traced through `tracing.py`, and reports the
per-layer metrics (median over traced passes), the `-X importtime` split of
`import seqext`, and the node ratio of --threads 2 runs over serial runs.

Every run checks every answer against `workloads.check`; failed runs count
in `failed` (failed_frac = failed / attempted). Node counts must repeat
exactly across passes, traced or not. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. A full
record, spans included, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
MIN_PASSES = 3
SETUP_SAMPLES_BEFORE = 4
IMPORTTIME_SAMPLES = 5
CLI_TIMEOUT_S = 150
# The host's speed drifts by about 30% over minutes, for the CLI and for this
# loop alike, so wall_s and setup_s are scaled by REFERENCE_LOOP_S over the
# loop's median time in the run: they read as seconds at the host speed at
# which the loop takes REFERENCE_LOOP_S.
REFERENCE_LOOP_ITERATIONS = 250_000
REFERENCE_LOOP_S = 0.025

# Small kernel calls run on both backends when the compiled one imports.
PARITY_CASES = [
    ("seq_search", (0, 4, 2, 19), {"s": 3}),
    ("seq_search", (0, 4, 1, 16), {"s": 4, "max_blocks": 4}),
    ("seq_search", (1, 4, 2, 48), {"s": 3, "r": 2}),
    ("seq_search", (2, 5, 2, 54), {"pattern": (1, 2, 1, 2)}),
    ("matrix_search", (4, 4, (3, 3), 2, 2), {}),
    ("matrix_search", (4, 4, (7, 7), 2, 3), {}),
]


def run_process(argv: list[str], env: dict) -> tuple[int, str, str, float, float]:
    """Run one process to completion: (exit code, stdout, stderr, wall s, max-RSS MB).

    The max-RSS comes from wait4, which covers the process and every child
    it waited for (the CLI joins its pool workers)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    timer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out.decode(), err[0].decode(), wall, usage.ru_maxrss / 1024


def parse_report(text: str) -> dict | None:
    try:
        report = json.loads(text)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


class Run:
    """Records of one benchmark run: per-instance results and the failure count."""

    def __init__(self, insts: list[workloads.Instance]):
        self.insts = insts
        self.records = {
            inst.name: {"args": list(inst.args), "source": inst.source, "values": [],
                        "nodes": [], "wall_s": [], "problems": []}
            for inst in insts
        }
        self.attempted = 0
        self.failed = 0

    def finish_pass(self, results: dict[str, tuple[int, dict | None, float, str]]) -> None:
        """Check every instance of one pass; `results` maps name to
        (exit code, report, wall s, stderr)."""
        values = {name: (rep or {}).get("results", {}).get("value")
                  for name, (_c, rep, _w, _e) in results.items()}
        for inst in self.insts:
            code, report, wall, err = results[inst.name]
            problems = workloads.check(inst, code, report)
            if inst.same_as is not None and values[inst.name] != values[inst.same_as]:
                problems.append(f"value {values[inst.name]} differs from {inst.same_as}: "
                                f"{values[inst.same_as]}")
            if problems and err.strip():
                problems.append("stderr: " + err.strip()[-300:])
            rec = self.records[inst.name]
            res = (report or {}).get("results", {})
            rec["values"].append(res.get("value"))
            rec["nodes"].append(res.get("nodes_explored"))
            rec["wall_s"].append(wall)
            rec["problems"].extend(problems)
            self.attempted += 1
            self.failed += bool(problems)

    def check_exact_counts(self) -> None:
        """Node counts are deterministic: any difference between passes is a failure."""
        for name, rec in self.records.items():
            if len(set(rec["nodes"])) > 1:
                rec["problems"].append(f"nodes_explored differs between passes: {rec['nodes']}")
                self.failed += 1

    @property
    def correct(self) -> bool:
        return self.failed == 0


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop that does not touch seqext."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP_ITERATIONS):
        acc += i * i
    return time.perf_counter() - t0


def cli_pass(run: Run, env: dict, loops: list[float]) -> tuple[float, float]:
    """One pass of fresh CLI processes: (wall s, largest max-RSS MB). The
    reference loop runs before each instance; its times go to `loops`."""
    results = {}
    peak = 0.0
    for inst in run.insts:
        loops.append(reference_loop())
        argv = [sys.executable, "-m", "seqext", *inst.args, "--json"]
        code, out, err, wall, rss = run_process(argv, env)
        results[inst.name] = (code, parse_report(out), wall, err)
        peak = max(peak, rss)
    run.finish_pass(results)
    return sum(wall for _c, _r, wall, _e in results.values()), peak


def call_cli(args: tuple[str, ...]) -> tuple[int, str, str]:
    """`seqext.cli.main(args + --json)` in this process: (exit code, stdout, stderr)."""
    from seqext import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main([*args, "--json"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # reported as a failed run, not a crash of the benchmark
            code = -1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def inprocess_pass(run: Run, tracer: tracing.Tracer | None = None) -> float:
    """One pass through `cli.main` in this process, traced when `tracer` is given."""
    results = {}
    t0 = time.perf_counter()
    for inst in run.insts:
        t = time.perf_counter()
        if tracer is not None:
            tracer.instance = inst.name
            span = tracer.open("cli.main")
        try:
            code, out, err = call_cli(inst.args)
        finally:
            if tracer is not None:
                tracer.close(span)
        results[inst.name] = (code, parse_report(out), time.perf_counter() - t, err)
    wall = time.perf_counter() - t0
    run.finish_pass(results)
    return wall


def measure_setup(env: dict) -> float:
    code, _out, err, wall, _rss = run_process([sys.executable, "-c", "import seqext"], env)
    if code != 0:
        raise RuntimeError(f"import seqext failed: {err.strip()[-300:]}")
    return wall


def import_split(env: dict) -> dict[str, float]:
    """Cumulative import time of seqext and seqext.oracles from -X importtime (median)."""
    samples: dict[str, list[float]] = {"seqext": [], "seqext.oracles": []}
    for _ in range(IMPORTTIME_SAMPLES):
        code, _out, err, _wall, _rss = run_process(
            [sys.executable, "-X", "importtime", "-c", "import seqext"], env)
        if code != 0:
            raise RuntimeError(f"import seqext failed: {err.strip()[-300:]}")
        for line in err.splitlines():
            # "import time: self [us] | cumulative | imported package"
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {"import.seqext_s": statistics.median(samples["seqext"]),
            "import.oracles_s": statistics.median(samples["seqext.oracles"])}


def parity() -> tuple[str, bool]:
    """Pure vs compiled kernels on small cases; 'unavailable' without the compiled one."""
    from seqext import _kernels_py, backends

    try:
        compiled = backends.get_backend("compiled")
    except ImportError:
        return "unavailable", True
    for fn, args, kwargs in PARITY_CASES:
        pure_res = tuple(getattr(_kernels_py, fn)(*args, **kwargs))
        comp_res = tuple(getattr(compiled, fn)(*args, **kwargs))
        if pure_res != comp_res:
            return f"mismatch on {fn}{args}: {pure_res} vs {comp_res}", False
    return "parity ok", True


def keep_going(samples: list[float], t0: float, seconds: float, minimum: int) -> bool:
    """Run another pass while it is expected to end within the time budget."""
    if len(samples) < minimum:
        return True
    return time.perf_counter() - t0 + statistics.median(samples) <= seconds


def measure_end_to_end(run: Run, env: dict, seconds: float) -> tuple[dict, dict]:
    measure_setup(env)  # warm-up: byte-compile the package, fill the page cache
    t0 = time.perf_counter()
    setups = [measure_setup(env) for _ in range(SETUP_SAMPLES_BEFORE)]
    walls: list[float] = []
    peaks: list[float] = []
    loops: list[float] = []
    while keep_going(walls, t0, seconds, MIN_PASSES):
        setups.append(measure_setup(env))
        wall, peak = cli_pass(run, env, loops)
        walls.append(wall)
        peaks.append(peak)
    speed = REFERENCE_LOOP_S / statistics.median(loops)
    metrics = {"wall_s": statistics.median(walls) * speed,
               "setup_s": statistics.median(setups) * speed,
               "peak_rss_mb": statistics.median(peaks)}
    return metrics, {"raw_wall_s": walls, "raw_setup_s": setups, "peak_rss_mb": peaks,
                     "reference_loop_s": loops}


def serial_nodes(run: Run) -> dict[str, int]:
    """Nodes of each --threads instance when run serially, in this process."""
    nodes = {}
    for inst in run.insts:
        if inst.threads > 1:
            code, out, _err = call_cli(inst.serial_args())
            report = parse_report(out)
            problems = workloads.check(inst, code, report)
            run.attempted += 1
            if problems:
                run.failed += 1
                run.records[inst.name]["problems"].extend("serial run: " + p for p in problems)
            else:
                nodes[inst.name] = report["results"]["nodes_explored"]
    return nodes


def measure_layers(run: Run, env: dict, seconds: float) -> tuple[dict, dict, list]:
    t0 = time.perf_counter()
    metrics = import_split(env)
    serial = serial_nodes(run)
    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    per_pass: list[dict] = []
    while keep_going([u + t for u, t in zip(untraced, traced)], t0, seconds, 1):
        untraced.append(inprocess_pass(run))
        start = len(tracer.spans)
        tracer.install()
        try:
            traced.append(inprocess_pass(run, tracer))
        finally:
            tracer.uninstall()
        per_pass.append(tracing.layer_metrics(tracer.spans[start:], start))
    for name in per_pass[0]:
        metrics[name] = statistics.median(p[name] for p in per_pass)
    # nodes with --threads 2 over nodes of the same instances run serially;
    # 0 when the workload has no threaded instance
    parallel = sum(run.records[name]["nodes"][0] or 0 for name in serial)
    metrics["oracles.parallel_node_ratio"] = parallel / sum(serial.values()) if serial else 0.0
    metrics["trace.traced_pass_s"] = statistics.median(traced)
    metrics["trace.untraced_pass_s"] = statistics.median(untraced)
    return metrics, {"trace.traced_pass_s": traced, "trace.untraced_pass_s": untraced}, tracer.spans


def environment_tags() -> dict:
    import seqext

    return {
        "backend": seqext.backend_name(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "SEQEXT_KERNELS": os.environ.get("SEQEXT_KERNELS", "unset"),
    }


def print_summary(opts, tags: dict, run: Run, metrics: dict, units: dict, samples: dict) -> None:
    print(f"perfbench workload={opts.workload} seed={opts.seed} trace={opts.trace} size={opts.size}")
    print("tags: " + " ".join(f"{k}={v}" for k, v in tags.items()))
    print(f"{'instance':24} {'value':>6} {'nodes':>9} {'median_s':>9}  source")
    for name, rec in run.records.items():
        print(f"{name:24} {str(rec['values'][0]):>6} {str(rec['nodes'][0]):>9} "
              f"{statistics.median(rec['wall_s']):9.3f}  {rec['source']}")
        for problem in rec["problems"]:
            print(f"  FAIL {name}: {problem}")
    for name, value in metrics.items():
        note = f"  ({len(samples[name])} samples)" if name in samples else ""
        print(f"{name:40} {value:.6g} {units[name]}{note}")
    if "reference_loop_s" in samples:
        for name in ("raw_wall_s", "raw_setup_s"):
            print(f"{name:40} {statistics.median(samples[name]):.6g} s  ({len(samples[name])} samples)")
        print(f"{'reference_loop_s':40} {statistics.median(samples['reference_loop_s']):.6g} s"
              f"  ({len(samples['reference_loop_s'])} samples; wall_s and setup_s are scaled by "
              f"{REFERENCE_LOOP_S} s over this median)")
    print(f"{'failed_frac':40} {run.failed / max(run.attempted, 1):.6g} ratio"
          f"  ({run.failed} failed of {run.attempted} runs)")
    if opts.trace:
        main = metrics["cli.main_s"] or 1.0
        kernel = metrics["backends.seq_search.busy_s"] + metrics["backends.matrix_search.busy_s"]
        checks_coloring = metrics["checks.busy_s"] + sum(
            metrics[f"coloring.{k}_s"] for k in ("greedy", "validate", "intersection"))
        print(f"share of cli.main_s: backends busy {kernel / main:.1%}, "
              f"checks + coloring self {checks_coloring / main:.1%}, "
              f"tracing overhead {metrics['trace.traced_pass_s'] / metrics['trace.untraced_pass_s'] - 1:+.1%}")


def main() -> int:
    ap = argparse.ArgumentParser(description="End-to-end benchmark of the seqext CLI.")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="time budget of the measurement")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics from a traced pass")
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="tiny: instance sizes of the benchmark's self-test")
    ap.add_argument("--wrong-expected", action="store_true",
                    help="shift one expected value (self-test: proves the gate can fail)")
    opts = ap.parse_args()

    if not (SRC / "seqext" / "__init__.py").is_file():
        print(f"error: no seqext package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    out_dir = OUT / f"{opts.workload}-{opts.size}"
    insts = workloads.build(opts.workload, opts.seed, opts.size, out_dir)
    if opts.wrong_expected:
        insts = workloads.with_wrong_expectation(insts)
    tags = environment_tags()
    tags["compiled"], parity_ok = parity()
    run = Run(insts)

    if opts.trace:
        metrics, samples, spans = measure_layers(run, env, opts.seconds)
        units = dict(tracing.PER_LAYER)
    else:
        metrics, samples = measure_end_to_end(run, env, opts.seconds)
        spans = []
        units = dict(END_TO_END)
    run.check_exact_counts()
    metrics = {name: metrics[name] for name in units}
    correct = run.correct and parity_ok

    print_summary(opts, tags, run, metrics, units, samples)
    record = {"workload": opts.workload, "seed": opts.seed, "trace": opts.trace, "size": opts.size,
              "tags": tags, "correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics, "samples": samples, "instances": run.records,
              "spans": spans}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{opts.workload}-{opts.size}-seed{opts.seed}-trace{opts.trace}.json"
    path.write_text(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
