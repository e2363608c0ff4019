"""seqext: exact extremal functions for sparse sequences, forbidden
(r, s)-formations, blocked sequences, and 0-1 matrix patterns, with
constructions that realize the matching lower bounds and brute-force
oracles that certify them on small instances.

`import seqext` loads `sequences`, `errors` and `oracles` only, and no
`dataclasses` or `typing`; `oracles` imports the kernels (`backends`) and
`matrices` inside the functions that use them. Every other submodule loads
on first use: when the package attribute of its name, or a name `_LAZY`
takes from it, is first looked up, or when a function that needs it first
runs. So each CLI process compiles only the modules its command runs: a
`construct` or `verify` run no kernel twin and no `matrices` (unless it
checks lambda-prime), a sequence oracle run no `matrices`, a matrix oracle
run no `checks`, and an oracle or verify run no construction code. Where
`PYTHONDONTWRITEBYTECODE` is set, as in the benchmark, every process
compiles each module it imports from source, which is why imports count.
"""

from importlib import import_module as _import_module

from .sequences import (
    BlockedSequence,
    PatternSequence,
    Sequence,
    flatten,
    normalize,
    parse_pattern,
    parse_sequence,
    render,
)
from .oracles import (
    ExtremalResult,
    oracle_ex_matrix,
    oracle_formation,
    oracle_lambda,
    oracle_lambda_blocks,
    oracle_lambda_prime,
    oracle_pattern,
)
from .errors import CapExceededError, InfeasibleError

__version__ = "0.1.0"

# name -> the submodule that defines it, imported by __getattr__ on first use
_LAZY = {
    "MatrixPattern": "matrices",
    "ZeroOneMatrix": "matrices",
    "all_ones": "matrices",
    "blocked_to_matrix": "matrices",
    "kst_bound": "matrices",
    "matrix_contains": "matrices",
    "matrix_to_blocked": "matrices",
    "parse_matrix": "matrices",
    "render_matrix": "matrices",
    "backend_name": "backends",
    "alternation_length": "checks",
    "avoids_all_formations": "checks",
    "brute_formation_length": "checks",
    "contains_pattern": "checks",
    "formation_length": "checks",
    "is_ds": "checks",
    "is_sparse": "checks",
    "max_alternation": "checks",
    "max_formation_length": "checks",
    "EdgeColoring": "coloring",
    "Hypergraph": "coloring",
    "greedy_edge_coloring": "coloring",
    "validate_coloring": "coloring",
    "ConstructionTrace": "construct",
    "Troop": "construct",
    "build_base": "construct",
    "build_block_witness": "construct",
    "build_ds_sparse_witness": "construct",
    "build_formation_witness": "construct",
    "choose_params": "construct",
    "lift": "construct",
    "pad_to_alphabet": "construct",
    "trace_report": "construct",
}

__all__ = [
    # submodules
    "backends", "checks", "coloring", "construct", "errors", "matrices", "oracles", "sequences",
    # sequences
    "BlockedSequence", "PatternSequence", "Sequence", "flatten", "normalize", "parse_pattern",
    "parse_sequence", "render",
    # oracles
    "ExtremalResult", "oracle_ex_matrix", "oracle_formation", "oracle_lambda",
    "oracle_lambda_blocks", "oracle_lambda_prime", "oracle_pattern",
    # errors
    "CapExceededError", "InfeasibleError",
    # matrices, backends, checks, coloring and construct, loaded on first use
    *_LAZY,
]


def __getattr__(name: str):
    """Import a submodule that `_LAZY` names (PEP 562) when it, or a name
    taken from it, is first looked up on the package."""
    if name in _LAZY.values():
        return _import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
