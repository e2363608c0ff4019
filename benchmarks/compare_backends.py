#!/usr/bin/env python3
"""Time the pure-Python and compiled search kernels on the same oracle
workloads and check that they return identical results.

Usage: python benchmarks/compare_backends.py [--heavy] [--repeat N]
"""

import argparse
import time

from seqext import _kernels_py as pure
from seqext.backends import get_backend

CASES = [
    ("lambda  n=4 s=3", "seq_search", (0, 4, 2, 19), dict(s=3)),
    ("lambda  n=5 s=3", "seq_search", (0, 5, 2, 31), dict(s=3)),
    ("lambda  n=4 s=5", "seq_search", (0, 4, 2, 31), dict(s=5)),
    ("blocks  n=4 s=4 m=4", "seq_search", (0, 4, 1, 16), dict(s=4, max_blocks=4)),
    ("formation n=4 r=2 s=3", "seq_search", (1, 4, 2, 48), dict(s=3, r=2)),
    ("pattern abab n=5", "seq_search", (2, 5, 2, 54), dict(pattern=(1, 2, 1, 2))),
    ("pattern abcabc n=6 j=3", "seq_search", (2, 6, 3, 1296), dict(pattern=(1, 2, 3, 1, 2, 3))),
    ("ex(4,4,R22)", "matrix_search", (4, 4, (3, 3), 2, 2), {}),
    ("ex(4,4,R23)", "matrix_search", (4, 4, (7, 7), 2, 3), {}),
    # equal rows, not all ones: the row-order rule applies; unequal rows: it does not
    ("ex(4,5,101/101)", "matrix_search", (4, 5, (5, 5), 2, 3), {}),
    ("ex(4,4,I2)", "matrix_search", (4, 4, (1, 2), 2, 2), {}),
    # node budgets that run out (checked): the truncation path must match too
    ("lambda  n=5 s=3 b=5000", "seq_search", (0, 5, 2, 31), dict(s=3, node_budget=5000)),
    ("ex(4,4,R22) b=500", "matrix_search", (4, 4, (3, 3), 2, 2), dict(node_budget=500)),
]

HEAVY_CASES = [
    ("lambda  n=5 s=4", "seq_search", (0, 5, 2, 41), dict(s=4)),
    ("pattern (ab)^7/2 n=4", "seq_search", (2, 4, 2, 112), dict(pattern=(1, 2, 1, 2, 1, 2, 1))),
    ("ex(5,5,R22)", "matrix_search", (5, 5, (3, 3), 2, 2), {}),
    ("ex(5,5,R23)", "matrix_search", (5, 5, (7, 7), 2, 3), {}),
]


def run_case(module, fn, args, kwargs, repeat):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = getattr(module, fn)(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, tuple(result)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--heavy", action="store_true", help="include the slow cases")
    ap.add_argument("--repeat", type=int, default=1, help="take the best of N runs")
    opts = ap.parse_args()

    try:
        compiled = get_backend("compiled")
    except ImportError:
        raise SystemExit(
            "compiled backend unavailable; build it with `python setup.py build_ext --inplace`"
        )

    cases = CASES + (HEAVY_CASES if opts.heavy else [])
    header = f"{'case':24} {'value':>6} {'nodes':>10} {'pure[s]':>9} {'compiled[s]':>12} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for name, fn, args, kwargs in cases:
        t_pure, r_pure = run_case(pure, fn, args, kwargs, opts.repeat)
        t_comp, r_comp = run_case(compiled, fn, args, kwargs, opts.repeat)
        if r_pure != r_comp:
            raise SystemExit(f"backend mismatch on {name}: {r_pure} vs {r_comp}")
        if kwargs.get("node_budget") and not r_pure[3]:
            raise SystemExit(f"{name}: the node budget did not run out")
        speedup = t_pure / t_comp if t_comp > 0 else float("inf")
        print(
            f"{name:24} {r_pure[0]:>6} {r_pure[2]:>10} {t_pure:>9.3f} "
            f"{t_comp:>12.4f} {speedup:>7.0f}x"
        )
    print("all results identical across backends")


if __name__ == "__main__":
    main()
