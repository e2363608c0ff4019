"""seqext: exact extremal functions for sparse sequences, forbidden
(r, s)-formations, blocked sequences, and 0-1 matrix patterns, with
constructions that realize the matching lower bounds and brute-force
oracles that certify them on small instances.

`import seqext` loads the sequences, matrices, oracles, errors and backends
modules, and no `dataclasses` or `typing`. The predicates (`checks`) and the
constructions (`construct`, `coloring`) load on first use, as do the names
below taken from them: a matrix oracle run never compiles `checks`, and an
oracle or verify run never compiles the constructions.
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
from .matrices import (
    MatrixPattern,
    ZeroOneMatrix,
    all_ones,
    blocked_to_matrix,
    kst_bound,
    matrix_contains,
    matrix_to_blocked,
    pair_block_cooccurrence,
    parse_matrix,
    render_matrix,
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
from .backends import backend_name

__version__ = "0.1.0"

# name -> the submodule that defines it, imported by __getattr__ on first use
_LAZY = {
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
    # matrices
    "MatrixPattern", "ZeroOneMatrix", "all_ones", "blocked_to_matrix", "kst_bound",
    "matrix_contains", "matrix_to_blocked", "pair_block_cooccurrence", "parse_matrix",
    "render_matrix",
    # oracles
    "ExtremalResult", "oracle_ex_matrix", "oracle_formation", "oracle_lambda",
    "oracle_lambda_blocks", "oracle_lambda_prime", "oracle_pattern",
    # errors and backends
    "CapExceededError", "InfeasibleError", "backend_name",
    # checks, coloring and construct, loaded on first use
    *_LAZY,
]


def __getattr__(name: str):
    """Import `checks`, `coloring` or `construct` (PEP 562) when one of them,
    or a name taken from it, is first looked up on the package."""
    if name in ("checks", "coloring", "construct"):
        return _import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
