"""Field and formula kernels.

The kernels live in ``purepy``. ``active`` names the module the rest of the
package calls them through: every ``Field`` takes it as its ``ops`` when it is
built, and ``combine`` reads ``active.gf_mul`` per call. That indirection is
the hook a tracer uses to count kernel calls, by setting a counting proxy as
``active`` before any ``Field`` is built.

``honest_message`` is called as ``_kernels.honest_message``, never through
``active`` or a ``Field``'s ``ops``: a proxy set as ``active`` carries only
the functions its tracer counts.
"""

from __future__ import annotations

import operator

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
    honest_message,
    is_irreducible,
)

active = purepy
backend_name: str = active.NAME


def combine(kind: int, rho: int, f0: int, f1: int, g: int, k: int) -> int:
    """``purepy.combine_on`` with ``active.gf_mul`` and XOR; the multiply
    is looked up per call so a module set as ``active`` later (such as a
    counting proxy) sees it."""
    return purepy.combine_on(active.gf_mul, operator.xor, kind, rho, f0, f1, g, k)
