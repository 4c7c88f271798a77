"""Slow reference solvers for the cheater DP and the row search.

``oracle_cheater`` and ``oracle_row_messages`` are the memoized top-down
recursion and the depth-first search that ``qipsim.sumcheck`` used before
its bottom-up tables. They try one candidate polynomial at a time with
``Fraction`` arithmetic and explore only states reachable from the root, so
they stay small enough to read and independent enough to check the fast
path against: they carry their own copy of the verifier's round rule.
``grouped_cheater`` is the bottom-up DP that ``optimal_cheater`` ran before
it selected by (f(0), f(1)) pair: it scores every candidate and takes, per
claim, the first maximum over the candidates with that combine value. It
reaches k = 4, where the recursion needs minutes. No cutoff guard: callers
keep sizes small.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

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


def grouped_cheater(q, field, schedule=None):
    """(value, choice) as ``optimal_cheater`` gives them, for every state
    (round, reachable assignment, claim), by scoring every coefficient tuple
    c of the round: score[c] = sum_r V[a with x_t = r, c(r)], with counts
    as Python ints. The best message for claim v is the first maximum of
    score over the tuples, in product order, whose f(0) and f(1) combine to
    v."""
    schedule = schedule or build_schedule(q)
    order, n = field.order, q.n
    g, k = field.g, field.k
    elems = np.arange(order)
    mul = np.array([[field.mul(a, b) for b in range(order)] for a in range(order)])
    rules = {kind: np.array([[[combine(kind, rho, f0, f1, field) for f1 in range(order)]
                              for f0 in range(order)] for rho in range(order)])
             for kind in set(schedule.kinds)}

    def code(assign):
        return sum(x * order ** (n - 1 - i) for i, x in enumerate(assign))

    counts = np.zeros((order ** n, order), dtype=object)  # V[code(a), v]
    for assign in itertools.product(range(order), repeat=n):
        counts[code(assign), field.ops.eval_formula(schedule.prog, assign, g, k)] = 1
    choice = {}
    for j in range(schedule.n_rounds, 0, -1):
        kind, t = schedule.kinds[j - 1], schedule.tvars[j - 1]
        coeffs = np.array(list(itertools.product(range(order),
                                                 repeat=schedule.degree_bounds[j - 1] + 1)))
        evals = np.zeros((len(coeffs), order), dtype=int)  # Horner: c_0 + r (c_1 + ...)
        for col in coeffs.T[::-1]:
            evals = col[:, None] ^ mul[evals, elems]
        keys = rules[kind][:, evals[:, 0], evals[:, 1]]
        bound_vars = set(schedule.tvars[: j - 1])
        rhos = range(order) if t in bound_vars else (0,)
        free = sorted(bound_vars - {t})
        below, counts = counts, np.zeros_like(counts)
        for values in itertools.product(range(order), repeat=len(free)):
            assign = [0] * n
            for i, x in zip(free, values):
                assign[i] = x
            kids = below[[code(assign[:t] + [r] + assign[t + 1:]) for r in range(order)]]
            score = sum(kids[r, evals[:, r]] for r in range(order))
            for rho in rhos:
                state = tuple(assign[:t] + [rho] + assign[t + 1:])
                for v in range(order):
                    members = np.flatnonzero(keys[rho] == v)
                    best = members[np.argmax(score[members])]
                    counts[code(state), v] = score[best]
                    choice[j, state, v] = tuple(coeffs[best].tolist())
    return Fraction(counts[0, 1], order ** schedule.n_rounds), choice
