"""Kernel backend selection.

The compiled backend (``_fastcore``, Cython) is preferred when present; the
pure-Python twin is the fallback. Set ``QIPSIM_KERNELS=pure`` or ``fast`` to
force a choice (``fast`` raises if the extension was not built). Both backends
expose the same hot-kernel functions and are parity-tested against each other;
field construction helpers always come from the pure module, and so does the
verifier's round rule ``combine``, run on the multiply of whatever backend is
``active`` when it is called.
"""

from __future__ import annotations

import os

from . import purepy
from .purepy import (  # noqa: F401  (re-exported constants and cold helpers)
    K_EXISTS,
    K_FORALL,
    K_REDUCE,
    OP_AND,
    OP_NOT,
    OP_OR,
    OP_VAR,
    find_modulus,
    is_irreducible,
)

try:
    from . import _fastcore
except ImportError:  # extension not built
    _fastcore = None


def _select():
    choice = os.environ.get("QIPSIM_KERNELS", "auto")
    if choice == "pure":
        return purepy
    if choice == "fast":
        if _fastcore is None:
            raise ImportError(
                "QIPSIM_KERNELS=fast but qipsim._kernels._fastcore is not built"
            )
        return _fastcore
    if choice != "auto":
        raise ValueError(f"QIPSIM_KERNELS must be auto, fast, or pure, not {choice!r}")
    return _fastcore if _fastcore is not None else purepy


active = _select()
backend_name: str = active.NAME


def combine(kind: int, rho: int, f0: int, f1: int, g: int, k: int) -> int:
    """``purepy.combine_on`` with ``active.gf_mul``, looked up per call so a
    backend set as ``active`` later (such as a counting proxy) sees it."""
    return purepy.combine_on(active.gf_mul, kind, rho, f0, f1, g, k)


def backends() -> dict[str, object]:
    """Importable backends by name (for parity tests and benchmarks)."""
    out: dict[str, object] = {"pure": purepy}
    if _fastcore is not None:
        out["fast"] = _fastcore
    return out
