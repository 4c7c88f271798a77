"""The bottom-up cheater DP and row search against the slow oracles, on
generated formulas, plus frozen values beyond the oracles' reach."""

import itertools
from fractions import Fraction

from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from cheater_oracle import oracle_cheater, oracle_row_messages
from strategies import formulas
from qipsim.gf2k import Field
from qipsim.qbf import parse_qbf
from qipsim.sumcheck import (
    SearchTables,
    _combine,
    accepting_row_messages,
    build_schedule,
    optimal_cheater,
    run_with_randomness,
)

# The oracles cost about order^(n + dmax + 1) candidate scorings; 4096 keeps
# one example near a tenth of a second.
ORACLE_WORK = 4096


@st.composite
def instances(draw, ks):
    """(q, field, schedule) for a random prenex formula with n <= 2."""
    q = draw(formulas())
    field = Field(draw(st.sampled_from(ks)))
    schedule = build_schedule(q)
    assume(field.order ** (q.n + max(schedule.degree_bounds) + 1) <= ORACLE_WORK)
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


@settings(max_examples=25)
@given(instances(ks=(1, 2)))
def test_row_search_matches_oracle(inst):
    q, field, schedule = inst
    tables = SearchTables(q, field, schedule)
    for row in itertools.product(field.elements(), repeat=schedule.n_rounds):
        got = accepting_row_messages(q, field, row, schedule, tables=tables)
        assert got == oracle_row_messages(q, field, row, schedule), row


def test_combine_keys_match_brute_force():
    # quantifier rounds fill one rho slice and broadcast it; every slice must
    # still be the combine rule itself
    for text in ("E x1 A x2 : x1 & x2", "A x1 : x1 & x1 & x1"):
        q = parse_qbf(text)
        schedule = build_schedule(q)
        for k in (1, 2, 3):
            field = Field(k)
            tables = SearchTables(q, field, schedule)
            assert {kind for kind, _ in tables.keys} == {op.kind for op in schedule.ops}
            for (kind, bound), keys in tables.keys.items():
                f01 = tables.evals[bound][:, :2].tolist()
                want = [[_combine(kind, rho, f0, f1, field) for f0, f1 in f01]
                        for rho in field.elements()]
                assert keys.tolist() == want, (text, k, kind, bound)
                for rho, groups in enumerate(tables.groups[kind, bound]):
                    for v, members in enumerate(groups):
                        assert members.tolist() == [
                            c for c, key in enumerate(want[rho]) if key == v]


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
