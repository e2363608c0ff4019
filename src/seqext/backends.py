"""Selects the search-kernel backend: the compiled twin `_ckernels` when it
imports, the pure twin `_kernels_py` otherwise. Both take the same arguments,
raise the same `ValueError` texts and return the same results, so which one
runs shows only in `backend_name()` and in the time taken.
"""

from __future__ import annotations

from . import _kernels_py

try:
    from . import _ckernels as _impl

    BACKEND = "compiled"
except ImportError:
    _impl = _kernels_py
    BACKEND = "pure"

seq_search = _impl.seq_search
matrix_search = _impl.matrix_search


def backend_name() -> str:
    return BACKEND


def get_backend(name: str):
    """Fetch a specific backend module ("pure" or "compiled"); ImportError if absent."""
    if name == "pure":
        return _kernels_py
    if name == "compiled":
        from . import _ckernels

        return _ckernels
    raise ValueError(f"unknown backend {name!r}")
