"""Slow reference for the honest completeness sweep.

This is the recursive walk that ``qipsim._kernels.purepy.honest_sweep`` ran
before it checked messages against tables of suffix values. It replays the
verifier round by round over every challenge prefix, with its own combine
check, claim threading and final matrix check, and it computes every suffix
value by a walk at a point, not from a table, so it stays independent
enough to check the table sweep against. ``sweep_size`` guards its size.
"""

from __future__ import annotations

from collections.abc import Sequence

from qipsim._kernels import combine
from qipsim._kernels.purepy import (
    eval_formula,
    interpolate,
    poly_eval,
    quantified_value,
)
from qipsim.qbf import compile_matrix
from qipsim.sumcheck import build_schedule, sweep_size


def oracle_always_accepts(q, field, schedule=None):
    """``honest_always_accepts`` on the prefix walk."""
    schedule = schedule or build_schedule(q)
    sweep_size(field, schedule)
    return honest_sweep(
        schedule.kinds,
        schedule.tvars,
        schedule.degree_bounds,
        compile_matrix(q.matrix),
        q.n,
        field.g,
        field.k,
    )


def honest_sweep(
    kinds: Sequence[int],
    tvars: Sequence[int],
    dbounds: Sequence[int],
    prog: Sequence[int],
    nvars: int,
    g: int,
    k: int,
) -> bool:
    """Exhaustive completeness check: replay the verifier over every possible
    challenge string with honest prover messages (interpolated from the true
    round values) and report whether every branch accepts. Shared challenge
    prefixes are walked once, so the tree has sum_j |F|^j nodes rather than
    N * |F|^N."""
    size = 1 << k
    nops = len(kinds)
    assign = [0] * nvars

    def walk(j: int, v: int) -> bool:
        if j == nops:
            return v == eval_formula(prog, assign, g, k)
        t = tvars[j]
        old = assign[t]
        npts = min(dbounds[j] + 1, size)
        ys = []
        for z in range(npts):
            assign[t] = z
            ys.append(quantified_value(kinds, tvars, j + 1, prog, assign, g, k, {}))
        assign[t] = old
        cs = interpolate(range(npts), ys, g, k)
        # with a degree cap of 0 the message is the constant ys[0]
        f1 = ys[1] if npts > 1 else poly_eval(cs, 1, g, k)
        if combine(kinds[j], old, ys[0], f1, g, k) != v:
            return False
        for r in range(size):
            assign[t] = r
            vr = ys[r] if r < npts else poly_eval(cs, r, g, k)
            if not walk(j + 1, vr):
                assign[t] = old
                return False
        assign[t] = old
        return True

    return walk(0, 1)
