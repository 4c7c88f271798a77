import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import formulas
from qipsim.gf2k import Field, poly_degree, poly_trim
from qipsim.qbf import eval_qbf, parse_qbf
from qipsim.sumcheck import (
    ProtocolSizeError,
    Transcript,
    TranscriptOracle,
    accepting_row_messages,
    build_schedule,
    check_transcript,
    correct_polynomial,
    honest_always_accepts,
    honest_policy,
    optimal_cheater,
    partial_value,
    run_protocol,
    run_with_randomness,
    transcript_from_dict,
    transcript_valid,
)

TRUE_SMALL = [
    "E x1 : x1",
    "E x1 : ~x1",
    "A x1 : x1 | ~x1",
    "A x1 E x2 : (x1 | ~x2) & (~x1 | x2)",
    "E x1 A x2 : x1 | x2",
    "E x1 E x2 : x1 & x2",
]

FALSE_SMALL = [
    "A x1 : x1",
    "A x1 : ~x1",
    "E x1 : x1 & ~x1",
    "A x1 E x2 : x1 & x2",
    "A x1 A x2 : x1 | x2",
]


def test_schedule_n1():
    q = parse_qbf("E x1 : x1")
    s = build_schedule(q)
    assert s.n_rounds == 2
    assert [(op.kind, op.var) for op in s.ops] == [("exists", 1), ("reduce", 1)]
    assert s.degree_bounds == (1, 2)
    assert s.degree_bound == 2


def test_schedule_n2():
    q = parse_qbf("A x1 E x2 : (x1 | ~x2) & (~x1 | x2)")
    s = build_schedule(q)
    assert s.n_rounds == 5
    assert [(op.kind, op.var) for op in s.ops] == [
        ("forall", 1),
        ("reduce", 1),
        ("exists", 2),
        ("reduce", 1),
        ("reduce", 2),
    ]
    assert s.degree_bounds == (1, 2, 1, 2, 2)


def test_schedule_lengths():
    # N = n(n+1)/2 + n
    mats = {1: "x1", 2: "x1 & x2", 3: "x1 & x2 & x3",
            4: "x1 & x2 & x3 & x4", 5: "x1 & x2 & x3 & x4 & x5",
            6: "x1 & x2 & x3 & x4 & x5 & x6"}
    for n in range(1, 7):
        prefix = " ".join(f"E x{i}" for i in range(1, n + 1))
        s = build_schedule(parse_qbf(f"{prefix} : {mats[n]}"))
        assert s.n_rounds == n * (n + 1) // 2 + n


def test_schedule_innermost_degree():
    s = build_schedule(parse_qbf("E x1 : (x1 & x1) & x1"))
    assert s.degree_bounds == (1, 3)
    assert s.degree_bound == 3


def test_partial_value_endpoints():
    f = Field(2)
    q = parse_qbf("E x1 : x1")
    s = build_schedule(q)
    assert partial_value(q, s, f, 0, [0]) == 1  # exists combine: 0+1+0*1
    qf = parse_qbf("A x1 : x1")
    sf = build_schedule(qf)
    assert partial_value(qf, sf, f, 0, [0]) == 0
    # j = N is the bare matrix
    assert partial_value(q, s, f, 2, [3]) == 3


def test_partial_value_validation():
    f = Field(2)
    q = parse_qbf("E x1 : x1")
    s = build_schedule(q)
    with pytest.raises(ValueError):
        partial_value(q, s, f, 3, [0])
    with pytest.raises(ValueError):
        partial_value(q, s, f, 0, [])
    with pytest.raises(ProtocolSizeError):
        partial_value(q, s, f, 0, [0], max_leaves=1)


def test_correct_polynomial_linear_example():
    # both rounds of (A x1 : x1) have honest message z
    f = Field(2)
    q = parse_qbf("A x1 : x1")
    s = build_schedule(q)
    assert poly_trim(correct_polynomial(q, s, f, 1, ())) == (0, 1)
    for r1 in f.elements():
        assert poly_trim(correct_polynomial(q, s, f, 2, (r1,))) == (0, 1)
    q2 = parse_qbf("E x1 : x1")
    s2 = build_schedule(q2)
    assert poly_trim(correct_polynomial(q2, s2, f, 1, ())) == (0, 1)


def test_round_consistency_identity_exhaustive():
    # combining the honest round-j message reproduces the previous round's
    # value, and evaluating it at r_j gives the next partial value
    combine = {
        "forall": lambda f0, f1, rho, fld: fld.mul(f0, f1),
        "exists": lambda f0, f1, rho, fld: f0 ^ f1 ^ fld.mul(f0, f1),
        "reduce": lambda f0, f1, rho, fld: fld.mul(rho ^ 1, f0) ^ fld.mul(rho, f1),
    }
    fld = Field(2)
    for text in TRUE_SMALL + FALSE_SMALL:
        q = parse_qbf(text)
        s = build_schedule(q)
        if s.n_rounds > 2:
            continue  # n=1 here; n=2 handled in the sweep test below
        for r in itertools.product(fld.elements(), repeat=s.n_rounds):
            assign = [0] * q.n
            prev = partial_value(q, s, fld, 0, assign)
            for j in range(1, s.n_rounds + 1):
                op = s.ops[j - 1]
                c = correct_polynomial(q, s, fld, j, r[: j - 1])
                f0 = fld.poly_eval(c, 0)
                f1 = fld.poly_eval(c, 1)
                rho = assign[op.var - 1]
                assert combine[op.kind](f0, f1, rho, fld) == prev
                assign[op.var - 1] = r[j - 1]
                prev = fld.poly_eval(c, r[j - 1])
                assert prev == partial_value(q, s, fld, j, assign)


def test_honest_degrees_within_bounds():
    # interpolate through one point more than the cap allows: the honest
    # message must still have degree within the round bound
    for k in (2, 3):
        fld = Field(k)
        q = parse_qbf("A x1 E x2 : (x1 | ~x2) & (~x1 | x2)")
        s = build_schedule(q)
        rng = random.Random(k)
        for _ in range(25):
            j = rng.randrange(1, s.n_rounds + 1)
            prefix = tuple(rng.randrange(fld.order) for _ in range(j - 1))
            dj = s.degree_bounds[j - 1]
            npts = min(dj + 2, fld.order)
            assign = [0] * q.n
            for jj in range(1, j):
                assign[s.ops[jj - 1].var - 1] = prefix[jj - 1]
            t = s.ops[j - 1].var - 1
            pts = []
            for z in range(npts):
                assign[t] = z
                pts.append((z, partial_value(q, s, fld, j, assign)))
            assert poly_degree(fld.poly_interpolate(pts)) <= dj


def test_honest_sweeps():
    for text in TRUE_SMALL:
        q = parse_qbf(text)
        for k in (2, 3):
            assert honest_always_accepts(q, Field(k)), (text, k)
    for text in FALSE_SMALL:
        q = parse_qbf(text)
        assert not honest_always_accepts(q, Field(2)), text


@settings(max_examples=60)
@given(formulas(), st.sampled_from((1, 2)))
def test_honest_sweep_matches_eval_qbf(q, k):
    assert honest_always_accepts(q, Field(k)) == eval_qbf(q)


def test_honest_sweep_cutoff():
    q = parse_qbf("E x1 : x1")
    with pytest.raises(ProtocolSizeError):
        honest_always_accepts(q, Field(16), max_draws=100)


def test_run_protocol_honest():
    for text in TRUE_SMALL:
        q = parse_qbf(text)
        f = Field(3)
        pol = honest_policy(q, f)
        for seed in range(5):
            tr = run_protocol(q, f, pol, rng=seed)
            assert tr.accepted and tr.reject_round is None
    # false formula: the honest chain starts from claim 1 but combines to 0
    q = parse_qbf("A x1 : x1")
    tr = run_protocol(q, Field(3), honest_policy(q, Field(3)), rng=0)
    assert not tr.accepted and tr.reject_round == 1


def test_run_with_randomness_notes():
    q = parse_qbf("E x1 : x1")
    f = Field(2)

    class Boom:
        def next_poly(self, j, r_prefix, sent):
            raise RuntimeError("nope")

    tr = run_with_randomness(q, f, Boom(), [0, 0])
    assert not tr.accepted and "prover error" in tr.note

    class TooWide:
        def next_poly(self, j, r_prefix, sent):
            return (1, 1, 1, 1, 1)

    tr = run_with_randomness(q, f, TooWide(), [0, 0])
    assert not tr.accepted and tr.reject_round == 1


def test_check_transcript_rounds():
    f = Field(2)
    q = parse_qbf("A x1 : x1")
    s = build_schedule(q)
    oracle = TranscriptOracle(q, f)
    good = oracle.correct_row((0, 2))
    # honest messages on a false formula die at round 1
    assert check_transcript(q, s, f, (0, 2), good) == 1
    cheat1 = (1, 0)  # constant 1 satisfies the forall combine: 1*1 = v0
    # with r1 = 0 the reduce combine needs f2(0) = 1, honest f2 = z gives 0
    assert check_transcript(q, s, f, (0, 2), (cheat1, (0, 1))) == 2
    # constant 1 again passes the combine but the final matrix check bites
    assert check_transcript(q, s, f, (0, 2), (cheat1, (1, 0))) == 2
    # with r1 = 1 the honest completion of the cheat is accepted: the final
    # value f2(r2) = r2 equals the matrix at x1 = r2
    assert check_transcript(q, s, f, (1, 2), (cheat1, (0, 1))) is None
    # degree cap: z^2 in a degree-1 round
    assert check_transcript(q, s, f, (0, 2), ((0, 0, 1), (0, 1))) == 1
    with pytest.raises(ValueError):
        check_transcript(q, s, f, (0,), good)


def test_transcript_accept_on_true():
    f = Field(2)
    q = parse_qbf("E x1 : x1")
    s = build_schedule(q)
    oracle = TranscriptOracle(q, f)
    for row in itertools.product(f.elements(), repeat=2):
        assert transcript_valid(q, s, f, row, oracle.correct_row(row))


def test_transcript_json_roundtrip():
    q = parse_qbf("E x1 : x1")
    f = Field(4)
    tr = run_protocol(q, f, honest_policy(q, f), rng=9)
    doc = tr.to_dict()
    assert doc["verdict"] == "accept"
    assert doc["k"] == 4 and doc["N"] == 2
    text = json.dumps(doc)
    back = transcript_from_dict(json.loads(text))
    assert back == tr


@settings(max_examples=60)
@given(formulas(), st.sampled_from((1, 2, 3, 8)), st.booleans(),
       st.integers(0, (1 << 64) - 1))
def test_transcript_dict_roundtrip_generated(q, k, cheat, seed):
    # cheating at k <= 2 adds rejections with notes to the honest ones
    f = Field(k)
    policy = optimal_cheater(q, f)[0] if cheat and k <= 2 else honest_policy(q, f)
    tr = run_protocol(q, f, policy, rng=seed)
    assert transcript_from_dict(json.loads(json.dumps(tr.to_dict()))) == tr


def test_optimal_cheater_frozen_value():
    q = parse_qbf("A x1 : x1")
    pol, value = optimal_cheater(q, Field(4))
    assert value == Fraction(23, 128)
    # the policy must realize exactly that acceptance rate
    f = Field(4)
    s = build_schedule(q)
    hits = 0
    for row in itertools.product(f.elements(), repeat=2):
        tr = run_with_randomness(q, f, pol, row, s)
        hits += tr.accepted
    assert Fraction(hits, f.order ** 2) == Fraction(23, 128)


def test_optimal_cheater_bounds():
    for text in ("A x1 : x1", "E x1 : x1 & ~x1"):
        q = parse_qbf(text)
        for k in (2, 3):
            f = Field(k)
            s = build_schedule(q)
            _, value = optimal_cheater(q, f, s)
            assert 0 < value <= Fraction(s.degree_bound * s.n_rounds, f.order)


def test_optimal_cheater_true_formula():
    q = parse_qbf("E x1 : x1")
    _, value = optimal_cheater(q, Field(2))
    assert value == 1


def test_optimal_cheater_cutoff():
    with pytest.raises(ProtocolSizeError):
        optimal_cheater(parse_qbf("A x1 : x1"), Field(16))


def test_accepting_row_messages():
    q = parse_qbf("A x1 : x1")
    f = Field(2)
    s = build_schedule(q)
    oracle = TranscriptOracle(q, f)
    assert accepting_row_messages(q, f, (0, 0), s) is None
    winnable = 0
    for row in itertools.product(f.elements(), repeat=2):
        msgs = accepting_row_messages(q, f, row, s)
        if msgs is not None:
            winnable += 1
            assert oracle.valid(row, tuple(tuple(m) for m in msgs))
    assert winnable == 15


def test_accepting_rows_true_formula_all_win():
    q = parse_qbf("E x1 : x1")
    f = Field(2)
    for row in itertools.product(f.elements(), repeat=2):
        assert accepting_row_messages(q, f, row) is not None
