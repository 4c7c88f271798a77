"""The bottom-up cheater DP and row search against the slow oracles, on
generated formulas, plus frozen values beyond the oracles' reach."""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from cheater_oracle import combine, grouped_cheater, oracle_cheater, oracle_row_messages
from strategies import formulas
from test_kernels import ref_mul
from qipsim import sumcheck
from qipsim._kernels import purepy
from qipsim.gf2k import Field
from qipsim.qbf import parse_qbf
from qipsim.quantum import full_lookahead
from qipsim.sumcheck import (
    FieldTables,
    TranscriptOracle,
    build_schedule,
    optimal_cheater,
    run_with_randomness,
    winnable_rows,
)

# The oracles cost about order^(n + dmax + 1) candidate scorings; 4096 keeps
# one example near a tenth of a second. The grouped DP scores them with
# array operations, and at 2^20 one example takes about 0.2 s.
ORACLE_WORK = 4096
GROUPED_WORK = 1 << 20


def vectors(sent) -> list:
    """The search's per-round message arrays as one tuple of messages per
    won row, each message as long as its round's degree cap + 1."""
    return [tuple(map(tuple, vec)) for vec in zip(*(msgs.tolist() for msgs in sent))]


@st.composite
def instances(draw, ks, work=ORACLE_WORK):
    """(q, field, schedule) for a random prenex formula with n <= 2."""
    q = draw(formulas())
    field = Field(draw(st.sampled_from(ks)))
    schedule = build_schedule(q)
    assume(field.order ** (q.n + max(schedule.degree_bounds) + 1) <= work)
    event(f"n={q.n} k={field.k}")
    return q, field, schedule


@settings(max_examples=40)
@given(instances(ks=(1, 2, 3)))
def test_dp_matches_oracle(inst):
    q, field, schedule = inst
    policy, value = optimal_cheater(q, field, schedule)
    want, want_choice = oracle_cheater(q, field, schedule)
    assert value == want
    for state, coeffs in want_choice.items():
        assert policy.choice[state] == coeffs, state
    assert all(type(c) is int for poly in policy.choice.values() for c in poly)


@settings(max_examples=30, deadline=None)
@given(instances(ks=(4, 3, 2, 1), work=GROUPED_WORK))
def test_dp_matches_grouped_oracle(inst):
    # every candidate scored, and each claim's best taken over its own
    # candidates: the same value and message in every state up to k = 4;
    # the larger fields come first, since Hypothesis leans to the first
    q, field, schedule = inst
    policy, value = optimal_cheater(q, field, schedule)
    want, want_choice = grouped_cheater(q, field, schedule)
    assert value == want
    assert policy.choice == want_choice


@settings(max_examples=25)
@given(instances(ks=(1, 2)))
def test_policy_realizes_value(inst):
    # the replayed policy reads each claim off its last message; at n = 2
    # that message was answered at a challenge other than the first
    q, field, schedule = inst
    policy, value = optimal_cheater(q, field, schedule)
    rows = list(itertools.product(field.elements(), repeat=schedule.n_rounds))
    hits = sum(run_with_randomness(q, field, policy, row, schedule).accepted for row in rows)
    assert Fraction(hits, len(rows)) == value


@settings(max_examples=25)
@given(instances(ks=(1, 2)))
def test_row_search_matches_oracle(inst):
    # one row at a time, every row in one block, the CLI count and the
    # lookahead prover's rows
    q, field, schedule = inst
    rows = list(itertools.product(field.elements(), repeat=schedule.n_rounds))
    want = [oracle_row_messages(q, field, row, schedule) for row in rows]
    tables = FieldTables(q, field, schedule)
    for row, w in zip(rows, want):
        # a whole row as the prefix: the block lookahead_rows searches once
        # a block holds one row
        _, won, sent = sumcheck._lookahead_search(tables, row, True)
        assert won.tolist() == [w is not None], row
        assert vectors(sent) == ([w] if w is not None else []), row
    block, won, sent = sumcheck._lookahead_search(tables, (), True)
    assert block.tolist() == [list(row) for row in rows]
    assert won.tolist() == [w is not None for w in want]
    assert all(msgs.dtype == tables.elems.dtype for msgs in sent)
    assert vectors(sent) == [w for w in want if w is not None]
    assert winnable_rows(q, field, schedule) == sum(won)
    # the prover's row_phi and its array form hold the same messages,
    # zero-padded, with the honest ones on lost rows
    spec = full_lookahead(q, field, schedule)
    honest = TranscriptOracle(q, field, schedule)
    phis = [spec.row_phi(row) for row in rows]
    _, arr_rows, msgs = spec.arrays(q, field)
    assert arr_rows.tolist() == [list(row) for row in rows]
    width = schedule.degree_bound + 1
    for row, w, phi, vec in zip(rows, want, phis, msgs.tolist()):
        padded = tuple(tuple(p) + (0,) * (width - len(p))
                       for p in (w if w is not None else honest.correct_row(row)))
        assert phi == padded == tuple(map(tuple, vec)), row


@pytest.mark.parametrize("text", ["A x1 : x1", "E x1 A x2 : x1 & x2", "A x1 : x1 & x1 & x1"])
def test_row_search_with_linear_reduce_rounds(text):
    # a reduce round capped at degree 1 reads every challenge r_j, not only
    # whether it is 0, 1 or neither: with rho = r_j its claims are the next
    # win set, with any other rho they are all of F
    q, field = parse_qbf(text), Field(2)
    schedule = build_schedule(q)
    linear = dataclasses.replace(schedule, degree_bounds=(1,) * schedule.n_rounds)
    rows = list(itertools.product(field.elements(), repeat=schedule.n_rounds))
    want = [oracle_row_messages(q, field, row, linear) for row in rows]
    _, won, sent = sumcheck._lookahead_search(FieldTables(q, field, linear), (), True)
    assert won.tolist() == [w is not None for w in want]
    assert vectors(sent) == [w for w in want if w is not None]


@pytest.mark.parametrize("text, k", [
    ("A x1 A x2 : x1 & x2", 2),
    ("E x1 A x2 : (x1 | ~x2) & (~x1 | x2)", 1),
    ("A x1 : x1 & x1 & x1", 3),
])
@pytest.mark.parametrize("block", [32, 1 << 9])
def test_blocked_search_matches_one_block(monkeypatch, text, k, block):
    # a block holds |F|^w rows of |F|^2 pairs each: 32 entries hold eight
    # rows at k = 1 and less than two at k >= 2, so there every row is its
    # own block; 2^9 entries hold 16 rows at k = 2 and eight at k = 3; the
    # default holds every row of these instances in one block
    q, field = parse_qbf(text), Field(k)
    schedule = build_schedule(q)
    rows = list(itertools.product(field.elements(), repeat=schedule.n_rounds))
    count = winnable_rows(q, field, schedule)
    phi = full_lookahead(q, field, schedule).row_phi
    want = [phi(row) for row in reversed(rows)]
    monkeypatch.setattr(sumcheck, "_SCORE_BLOCK", block)
    assert winnable_rows(q, field, schedule) == count
    phi = full_lookahead(q, field, schedule).row_phi
    assert [phi(row) for row in reversed(rows)] == want


def _first_by_values(field, bound):
    """(r, f(0), f(1), f(r)) -> the first coefficient tuple of length
    bound + 1 in product order with those values, by enumeration."""
    first = {}
    for c in itertools.product(field.elements(), repeat=bound + 1):
        ys = [field.poly_eval(c, r) for r in field.elements()]
        for r in field.elements():
            first.setdefault((r, ys[0], ys[1], ys[r]), c)
    return first


@pytest.mark.parametrize("k", [1, 2, 3])
def test_first_messages_match_enumeration(k):
    # the lookahead search's closed form against every candidate: the first
    # message with each (r, f(0), f(1), f(r)), and which pairs reach a win set
    field = Field(k)
    order = field.order
    q = parse_qbf("A x1 : x1 & x1 & x1")
    tables = FieldTables(q, field, build_schedule(q))
    assert all(field.mul(a, int(tables.inv[a])) == 1 for a in range(1, order))
    r, a, b, e = np.indices((order,) * 4, dtype=np.intp)
    singles = np.eye(order, dtype=bool)
    wins = [np.zeros(order, dtype=bool), *singles, np.ones(order, dtype=bool)]
    if k <= 2:
        wins += [np.array(w, dtype=bool)
                 for w in itertools.product((False, True), repeat=order)]
    for bound in (1, 2, 3):
        first = _first_by_values(field, bound)
        found, p, tail = sumcheck._first_tails(tables, bound, r, a, b, e)
        found, p, tail = np.broadcast_arrays(found, p, tail)
        for key in itertools.product(range(order), repeat=4):
            want = first.get(key)
            assert bool(found[key]) == (want is not None), (bound, key)
            if want is not None:
                head = (key[1], *[0] * (bound - 2), int(p[key])) if bound > 1 else (key[1],)
                assert (*head, int(tail[key])) == want, (bound, key)
        for win in wins:
            rs = np.arange(order)
            reach = sumcheck._reach(tables, bound, rs, np.tile(win, (order, 1)))
            for rr, aa, bb in itertools.product(range(order), repeat=3):
                want = any((rr, aa, bb, ee) in first for ee in np.flatnonzero(win).tolist())
                assert reach[rr, aa, bb] == want, (bound, win.tolist(), rr, aa, bb)


def test_pair_groups_match_brute_force():
    # the cheater's tables against every candidate: each tuple's values, the
    # round rules for every rho (the quantifier rules ignore rho, and every
    # rho slice must still be the rule), and each (f(0), f(1)) pair group,
    # which must hold exactly its candidates, in product order
    q = parse_qbf("E x1 A x2 : x1 & x2")
    schedule = build_schedule(q)
    for k in (1, 2, 3):
        field = Field(k)
        order = field.order
        tables = FieldTables(q, field, schedule)
        assert set(tables.combine) == set(schedule.kinds)
        for kind, rule in tables.combine.items():
            assert rule.tolist() == [[[combine(kind, rho, f0, f1, field) for f1 in range(order)]
                                      for f0 in range(order)] for rho in range(order)]
        for bound in (1, 2, 3):
            cands = list(itertools.product(range(order), repeat=bound + 1))
            values = sumcheck._candidate_values(tables, bound)
            assert values.T.tolist() == [
                [field.poly_eval(c, r) for r in range(order)] for c in cands]
            groups = {}
            for c, poly in enumerate(cands):
                groups.setdefault((poly[0], field.poly_eval(poly, 1)), []).append(c)
            idx = sumcheck._pair_index(order, bound)
            assert idx.shape == (order, order ** (bound - 1))
            for a, x in itertools.product(range(order), repeat=2):
                assert (a * order ** bound + idx[x]).tolist() == groups[a, a ^ x], (k, bound, a, x)


@pytest.mark.parametrize("text, k", [
    ("A x1 A x2 : x1 & x2", 2),
    ("E x1 A x2 : (x1 | ~x2) & (~x1 | x2)", 2),
    ("A x1 : x1 & x1 & x1", 3),
])
def test_blocked_scores_match_one_block(monkeypatch, text, k):
    q, field = parse_qbf(text), Field(k)
    policy, value = optimal_cheater(q, field)
    # 32 entries hold two assignments of a linear round's 16 candidates at
    # k = 2, and less than one assignment of every other round's candidates,
    # which then go one assignment per block; at n = 2 a round has up to
    # four assignments, so it spans two to four blocks
    monkeypatch.setattr(sumcheck, "_SCORE_BLOCK", 32)
    blocked, blocked_value = optimal_cheater(q, field)
    assert blocked_value == value
    assert blocked.choice == policy.choice


@pytest.mark.parametrize("text, k", [
    ("A x1 A x2 : x1 & x2", 3),
    ("A x1 : x1 & x1 & x1", 3),
])
def test_selection_chunks_match_grouped_oracle(monkeypatch, text, k):
    # 192 entries hold three rhos of one assignment's 64 pairs at k = 3, so
    # an n = 1 reduce round runs its eight rhos in chunks of 3, 3 and 2, and
    # an n = 2 round, eight assignments to a block, one rho at a time
    q, field = parse_qbf(text), Field(k)
    want, want_choice = grouped_cheater(q, field)
    monkeypatch.setattr(sumcheck, "_SELECT_BLOCK", 192)
    policy, value = optimal_cheater(q, field)
    assert value == want
    assert policy.choice == want_choice


def test_cubic_k4_frozen_and_realized():
    q = parse_qbf("A x1 : x1 & x1 & x1")
    f = Field(4)
    s = build_schedule(q)
    policy, value = optimal_cheater(q, f, s)
    assert value == Fraction(61, 256)
    hits = sum(
        run_with_randomness(q, f, policy, row, s).accepted
        for row in itertools.product(f.elements(), repeat=s.n_rounds)
    )
    assert Fraction(hits, f.order ** s.n_rounds) == value


def test_two_variables_k4_frozen():
    # the slow oracle agrees but needs minutes, so the value is frozen
    _, value = optimal_cheater(parse_qbf("A x1 A x2 : x1 & x2"), Field(4))
    assert value == Fraction(53897, 131072)


def test_python_int_counts_past_int64():
    n = 10
    q = parse_qbf(" ".join(f"A x{i}" for i in range(1, n + 1)) + " : "
                  + " & ".join(f"x{i}" for i in range(1, n + 1)))
    s = build_schedule(q)
    assert s.n_rounds == 65  # k*N = 65 > 62: counts leave int64
    policy, value = optimal_cheater(q, Field(1), s)
    assert value == Fraction(36893488147419102209, 36893488147419103232)
    assert policy.value == value


def test_field_tables_mul_matches_reference(monkeypatch):
    """``mul`` is the field's product table for k = 1..6. The search cutoff
    refuses k = 6, so that table is built with the cutoff raised; past
    ``_TABLE_MAX_K`` there is no table to read."""
    q = parse_qbf("A x1 : x1")
    schedule = build_schedule(q)
    with pytest.raises(sumcheck.ProtocolSizeError):
        FieldTables(q, Field(6), schedule)
    monkeypatch.setattr(sumcheck, "MAX_SEARCH_WORK", 1 << 64)
    for k in range(1, 7):
        field = Field(k)
        tables = FieldTables(q, field, schedule)
        want = [[ref_mul(a, b, field.g) for b in range(field.order)]
                for a in range(field.order)]
        assert tables.mul.tolist() == want, k
        assert tables.mul.dtype == tables.elems.dtype
    with pytest.raises(ValueError, match="no product table"):
        FieldTables(q, Field(purepy._TABLE_MAX_K + 1), schedule)
