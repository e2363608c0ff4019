"""Selects the search-kernel backend: compiled extension when available,
pure Python otherwise. Override with SEQEXT_KERNELS=pure or SEQEXT_KERNELS=compiled.
"""

from __future__ import annotations

import os

from . import _kernels_py

_choice = os.environ.get("SEQEXT_KERNELS", "auto").strip().lower()

if _choice in ("auto", ""):
    try:
        from . import _ckernels as _impl

        BACKEND = "compiled"
    except ImportError:
        _impl = _kernels_py
        BACKEND = "pure"
elif _choice == "pure":
    _impl = _kernels_py
    BACKEND = "pure"
elif _choice == "compiled":
    from . import _ckernels as _impl

    BACKEND = "compiled"
else:
    raise RuntimeError(f"unknown SEQEXT_KERNELS value {_choice!r}")

seq_search = _impl.seq_search
matrix_search = _impl.matrix_search

MODE_DS = _kernels_py.MODE_DS
MODE_FORMATION = _kernels_py.MODE_FORMATION
MODE_PATTERN = _kernels_py.MODE_PATTERN


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
