"""Slow reference solvers for the cheater DP and the row search.

These are the memoized top-down recursion and the depth-first search that
``qipsim.sumcheck`` used before its bottom-up tables. They try one candidate
polynomial at a time with ``Fraction`` arithmetic and explore only states
reachable from the root, so they stay small enough to read and independent
enough to check the fast path against: they carry their own copy of the
verifier's round rule. No cutoff guard: callers keep sizes small.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from qipsim._kernels import K_EXISTS, K_FORALL
from qipsim.qbf import compile_matrix
from qipsim.sumcheck import build_schedule


def combine(kind, rho, f0, f1, field):
    """The round rule, written out independently of ``qipsim._kernels``;
    ``kind`` is a ``K_*`` code."""
    if kind == K_FORALL:
        return field.mul(f0, f1)
    if kind == K_EXISTS:
        return f0 ^ f1 ^ field.mul(f0, f1)
    return field.mul(rho ^ 1, f0) ^ field.mul(rho, f1)


def oracle_cheater(q, field, schedule=None):
    """(value, choice): the optimal acceptance probability and the chosen
    coefficient tuple of every state (round, assignment, claim) visited."""
    schedule = schedule or build_schedule(q)
    order = field.order
    n_rounds = schedule.n_rounds
    prog = compile_matrix(q.matrix)
    g, k = field.g, field.k
    ops_mod = field.ops
    memo: dict[tuple, Fraction] = {}
    choice: dict[tuple, tuple[int, ...]] = {}

    def solve(j, assign, v):
        if j > n_rounds:
            final = ops_mod.eval_formula(prog, assign, g, k)
            return Fraction(1) if v == final else Fraction(0)
        key = (j, assign, v)
        hit = memo.get(key)
        if hit is not None:
            return hit
        kind, t = schedule.kinds[j - 1], schedule.tvars[j - 1]
        rho = assign[t]
        best = Fraction(0)
        best_f = None
        for coeffs in itertools.product(range(order), repeat=schedule.degree_bounds[j - 1] + 1):
            f0 = coeffs[0]
            f1 = ops_mod.poly_eval(coeffs, 1, g, k)
            if combine(kind, rho, f0, f1, field) != v:
                continue
            total = Fraction(0)
            for r in range(order):
                child = assign[:t] + (r,) + assign[t + 1:]
                total += solve(j + 1, child, ops_mod.poly_eval(coeffs, r, g, k))
            p = total / order
            if best_f is None or p > best:
                best, best_f = p, coeffs
            if best == 1:
                break
        memo[key] = best
        choice[key] = best_f
        return best

    value = solve(1, (0,) * q.n, 1)
    return value, choice


def oracle_row_messages(q, field, r_row, schedule=None):
    """First accepted message vector for a known challenge row, by
    depth-first search in coefficient-tuple order; None if there is none."""
    schedule = schedule or build_schedule(q)
    order = field.order
    n_rounds = schedule.n_rounds
    prog = compile_matrix(q.matrix)
    g, k = field.g, field.k
    ops_mod = field.ops
    dead: set[tuple] = set()

    def go(j, assign, v):
        if j > n_rounds:
            return [] if v == ops_mod.eval_formula(prog, assign, g, k) else None
        key = (j, assign, v)
        if key in dead:
            return None
        kind, t = schedule.kinds[j - 1], schedule.tvars[j - 1]
        rho = assign[t]
        r = r_row[j - 1]
        for coeffs in itertools.product(range(order), repeat=schedule.degree_bounds[j - 1] + 1):
            f0 = coeffs[0]
            f1 = ops_mod.poly_eval(coeffs, 1, g, k)
            if combine(kind, rho, f0, f1, field) != v:
                continue
            child = assign[:t] + (r,) + assign[t + 1:]
            rest = go(j + 1, child, ops_mod.poly_eval(coeffs, r, g, k))
            if rest is not None:
                return [coeffs] + rest
        dead.add(key)
        return None

    out = go(1, (0,) * q.n, 1)
    return tuple(out) if out is not None else None
