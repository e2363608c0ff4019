#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of the repository:

    python3 perfbench/selftest.py

For every workload of BENCHMARK.json, at the tiny size, it checks that
--trace 0 prints every end-to-end metric and --trace 1 every per-layer
metric, each with its unit, that the run is correct, and that a
deliberately wrong expected value is counted as failed. It also checks that
the benchmark exits non-zero without a result when the program is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(proc: subprocess.CompletedProcess, spec: list[dict], what: str) -> None:
    result = last_json(proc)
    assert proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr}"
    assert result["correct"] is True and result["failed"] == 0, f"{what}: {proc.stdout}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, what
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in spec), f"{what}: {sorted(metrics)}"
    for m in spec:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{what}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{what}: {m['name']}"
        assert f"{m['name']} " in proc.stdout, f"{what}: {m['name']} not in the summary"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tiny = ("--seed", "7", "--seconds", "1", "--size", "tiny")
    for wl in spec["workloads"]:
        name = wl["name"]
        proc = bench("--workload", name, "--trace", "0", *tiny)
        check_metrics(proc, spec["end_to_end"], f"{name} trace 0")
        for m in spec["end_to_end"]:
            assert last_json(proc)["metrics"][m["name"]]["value"] > 0, f"{name}: {m['name']} is 0"
        assert "failed_frac                              0 ratio" in proc.stdout, proc.stdout
        check_metrics(bench("--workload", name, "--trace", "1", *tiny),
                      spec["per_layer"], f"{name} trace 1")

        wrong = bench("--workload", name, "--trace", "0", "--wrong-expected", *tiny)
        result = last_json(wrong)
        assert wrong.returncode == 1 and result["correct"] is False, f"{name}: gate did not fail"
        assert 1 <= result["failed"] <= result["attempted"], result
        frac = result["failed"] / result["attempted"]
        assert f"failed_frac                              {frac:.6g} ratio" in wrong.stdout, wrong.stdout
        print(f"selftest {name}: ok")

    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = bench("--workload", "oracle-seq", "--trace", "0", "--seed", "1", "--seconds", "1", cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    shutil.rmtree(bare)
    print("selftest without the program: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
