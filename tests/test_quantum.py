import itertools
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from strategies import formulas
from qipsim import quantum, sumcheck
from qipsim.bounds import check_mixture_bound, enumerate_coordinate_hits
from qipsim.gf2k import Field
from qipsim.qbf import parse_qbf
from qipsim.quantum import (
    BiasedSupportProver,
    EventQuery,
    HonestProver,
    LookaheadProver,
    QuantumProtocol,
    RegisterLayout,
    RowProver,
    SparseState,
    build_layout,
    dense_oracle,
    full_lookahead,
)
from qipsim.sumcheck import ProtocolSizeError, build_schedule, transcript_valid, verify_rows


def test_layout_partition_example():
    lay = RegisterLayout(copies=5, n_rounds=8, field_bits=3, degree_bound=3)
    u = (6, 4, 7, 2, 5)
    assert lay.hadamard_count(u) == 21
    assert lay.hadamard_count((8,) * 5) == 5  # u = (N,...,N) leaves one per row


def test_layout_offsets():
    lay = RegisterLayout(copies=2, n_rounds=3, field_bits=2, degree_bound=2)
    assert lay.poly_bits == 6
    assert lay.total_qubits == 2 * 3 * (4 + 6)
    assert lay.r_offset(1, 1) == 0
    assert lay.r_offset(1, 2) == 2
    assert lay.r_offset(2, 1) == 3 * 2
    assert lay.f_offset(1, 1) == 2 * 3 * 2
    assert lay.s_offset(1, 1) == 2 * 3 * (2 + 6)
    # offsets tile the index space without overlap
    spans = []
    for i in (1, 2):
        for j in (1, 2, 3):
            spans.append((lay.r_offset(i, j), lay.field_bits))
            spans.append((lay.f_offset(i, j), lay.poly_bits))
            spans.append((lay.s_offset(i, j), lay.field_bits))
    bits = sorted(itertools.chain.from_iterable(
        range(o, o + w) for o, w in spans))
    assert bits == list(range(lay.total_qubits))


def test_layout_validation():
    with pytest.raises(ValueError):
        RegisterLayout(0, 2, 2, 2)
    lay = RegisterLayout(2, 2, 2, 2)
    with pytest.raises(ValueError):
        lay.check_u((1,))
    with pytest.raises(ValueError):
        lay.check_u((1, 3))
    with pytest.raises(ValueError):
        lay.r_offset(3, 1)
    lay2 = build_layout(parse_qbf("E x1 : x1"), 2, 1)
    assert (lay2.n_rounds, lay2.degree_bound, lay2.copies) == (2, 2, 1)


def test_prepare_honest_uniform():
    q = parse_qbf("E x1 : x1")
    proto = QuantumProtocol(q, Field(2), 1)
    state = proto.prepare_round1(HonestProver())
    assert state.n_branches == 16 and state.scale == 16
    assert state.norm_sq() == 1
    for b, c in state.branches.items():
        assert c == 1
        correct = tuple(proto._pad_poly(p) for p in proto.oracle.correct_row(b.r[0]))
        assert b.f[0] == correct


def test_prepare_lookahead_identity_is_honest():
    q = parse_qbf("E x1 : x1")
    proto = QuantumProtocol(q, Field(2), 1)
    honest = proto.prepare_round1(HonestProver())
    spec = LookaheadProver(lambda R: tuple(proto.oracle.correct_row(r) for r in R))
    assert proto.prepare_round1(spec).branches == honest.branches


def test_prepare_biased():
    q = parse_qbf("E x1 : x1")
    proto = QuantumProtocol(q, Field(2), 1)
    single = proto.prepare_round1(BiasedSupportProver([((0, 0),)]))
    assert single.n_branches == 1 and single.scale == 1
    assert single.norm_sq() == 1
    weighted = proto.prepare_round1(BiasedSupportProver(
        [((0, 0),), ((0, 1),)], weights=[Fraction(3, 5), Fraction(4, 5)]))
    assert weighted.norm_sq() == 1 and weighted.scale == 25
    # each branch's numerator c over sqrt(scale) is its weight w, sign
    # included: the dense oracle reads these numerators and does not
    # recompute them
    two, four = [((0, 0),), ((0, 1),)], [((0, 0),), ((0, 1),), ((1, 2),), ((3, 3),)]
    for support, weights in (
        (two, (Fraction(3, 5), Fraction(4, 5))),
        (two, (Fraction(5, 13), Fraction(12, 13))),
        (two, (Fraction(119, 169), Fraction(120, 169))),
        (four, (Fraction(1, 3), Fraction(-2, 3), Fraction(2, 5), Fraction(8, 15))),
        (two, _pythagorean(1 << 20)),
        (two, _pythagorean(1 << 32)),
    ):
        state = proto.prepare_round1(BiasedSupportProver(support, weights=list(weights)))
        coeffs = {b.r: c for b, c in state.branches.items()}
        for R, w in zip(support, weights):
            c = coeffs[R]
            assert Fraction(c * abs(c), state.scale) == w * abs(w), (R, w, c)


def test_prepare_biased_validation():
    # the sparse engine and the dense oracle refuse the same supports
    q = parse_qbf("E x1 : x1")
    proto = QuantumProtocol(q, Field(2), 1)
    with pytest.raises(ValueError):
        BiasedSupportProver([])
    two = [((0, 0),), ((0, 1),)]
    bad = [
        BiasedSupportProver([((0, 0),), ((0, 0),)]),  # duplicate matrices
        BiasedSupportProver(two, weights=[Fraction(1, 2), Fraction(1, 2)]),  # squares sum to 1/2
        BiasedSupportProver(two, weights=[Fraction(1)]),  # one weight short
        BiasedSupportProver(two, weights=[Fraction(0), Fraction(1)]),  # a zero weight
        BiasedSupportProver([((0, 9),)]),  # not a field element
    ]
    for spec in bad:
        with pytest.raises(ValueError):
            proto.prepare_round1(spec)
        with pytest.raises(ValueError):
            dense_oracle(q, 2, 1, spec, (1,))


def test_prepare_size_cutoff():
    q = parse_qbf("E x1 : x1")
    proto = QuantumProtocol(q, Field(4), 3)
    with pytest.raises(ProtocolSizeError, match=r"^16\^6 branches exceed the sparse cutoff 65536$"):
        proto.prepare_round1(HonestProver())


def test_step1_filter():
    f = Field(2)
    qt = parse_qbf("E x1 : x1")
    proto = QuantumProtocol(qt, f, 1)
    p, kept = proto.step1_filter(proto.prepare_round1(HonestProver()))
    assert p == 1 and kept.n_branches == 16
    qf = parse_qbf("A x1 : x1")
    protof = QuantumProtocol(qf, f, 1)
    p, kept = protof.step1_filter(protof.prepare_round1(HonestProver()))
    assert p == 0 and kept.n_branches == 0
    p, kept = protof.step1_filter(protof.prepare_round1(full_lookahead(qf, f)))
    assert p == Fraction(15, 16) and kept.n_branches == 15


def test_honest_true_kept_messages_follow_kept_challenges():
    # disentanglement: for the honest prover the kept message columns are a
    # function of the kept challenge columns, so step 4 accepts exactly
    f = Field(2)
    q = parse_qbf("A x1 : x1 | ~x1")
    proto = QuantumProtocol(q, f, 2)
    spec = HonestProver()
    p, kept = proto.step1_filter(proto.prepare_round1(spec))
    assert p == 1
    for u in proto.all_u():
        seen: dict[tuple, tuple] = {}
        for b in kept.branches:
            kr = tuple(b.r[i][: u[i] - 1] for i in range(2))
            kf = tuple(b.f[i][: u[i]] for i in range(2))
            assert seen.setdefault(kr, kf) == kf
        assert proto.step4_accept_prob(kept, u) == 1


def test_step4_single_branch():
    f = Field(2)
    q = parse_qbf("E x1 : x1")
    proto = QuantumProtocol(q, f, 1)
    spec = BiasedSupportProver([((0, 0),)])
    p, kept = proto.step1_filter(proto.prepare_round1(spec))
    assert p == 1
    for u, l in (((1,), 2), ((2,), 1)):
        assert proto.step4_accept_prob(kept, u) == Fraction(1, 1 << (l * f.k))


def test_step4_two_branch_interference():
    # two branches sharing the kept registers add amplitudes; branches with
    # injectively tagged kept messages stay in separate groups
    f = Field(2)
    q = parse_qbf("E x1 : x1")
    proto = QuantumProtocol(q, f, 1)
    support = [((0, 0),), ((0, 1),)]
    same = BiasedSupportProver(support)  # honest messages depend on r1 only
    p, kept = proto.step1_filter(proto.prepare_round1(same))
    assert p == 1
    assert proto.step4_accept_prob(kept, (2,)) == Fraction(2, 1 << f.k)

    def tagged(R):
        if R[0][1] == 0:
            return (proto.oracle.correct_row(R[0]),)
        return (((0, 1), (0, 3, 2)),)  # also accepted on row (0, 1)

    split = BiasedSupportProver(support, phi=tagged)
    p, kept = proto.step1_filter(proto.prepare_round1(split))
    assert p == 1
    assert proto.step4_accept_prob(kept, (2,)) == Fraction(1, 1 << f.k)


def test_sparse_state_validation():
    with pytest.raises(ValueError):
        SparseState({}, 0)


def test_lookahead_frozen_values():
    # canonical cheater on the false formula: per-u joint acceptance
    q = parse_qbf("A x1 : x1")
    f = Field(2)
    proto = QuantumProtocol(q, f, 1)
    report = proto.run(full_lookahead(q, f))
    assert report.step1_pass == Fraction(15, 16)
    per_u = dict(report.per_u)
    assert per_u[(1,)] == Fraction(225, 256)
    assert per_u[(2,)] == Fraction(25, 64)
    assert report.mean_accept == Fraction(325, 512)
    assert report.mean_accept < 1


def test_honest_true_run_is_exactly_one():
    cases = [
        ("E x1 : x1", 2, 2),
        ("A x1 : x1 | ~x1", 3, 1),
        ("E x1 : ~x1", 3, 2),
    ]
    for text, k, m in cases:
        report = QuantumProtocol(parse_qbf(text), Field(k), m).run(HonestProver())
        assert report.step1_pass == 1
        assert report.mean_accept == 1
        assert all(a == 1 for _, a in report.per_u)


def test_run_sample_mode():
    q = parse_qbf("E x1 : x1")
    f = Field(2)
    proto = QuantumProtocol(q, f, 2)
    r1 = proto.run(HonestProver(), u_mode="sample", samples=5, seed=7)
    r2 = proto.run(HonestProver(), u_mode="sample", samples=5, seed=7)
    assert [u for u, _ in r1.per_u] == [u for u, _ in r2.per_u]
    assert len(r1.per_u) == 5
    with pytest.raises(ValueError):
        proto.run(HonestProver(), u_mode="sample", samples=0)
    with pytest.raises(ValueError):
        proto.run(HonestProver(), u_mode="diagonal")


def test_run_refuses_bad_u_options_before_round1(monkeypatch):
    def no_round1(*args):
        raise AssertionError("round 1 ran before the u options were checked")

    # the dict stages, the array stages and the search behind the arrays
    monkeypatch.setattr(QuantumProtocol, "prepare_round1", no_round1)
    monkeypatch.setattr(QuantumProtocol, "_row_array_stages", no_round1)
    monkeypatch.setattr(quantum, "lookahead_rows", no_round1)
    q, f = parse_qbf("E x1 : x1"), Field(2)
    for m in (1, 2):
        proto = QuantumProtocol(q, f, m)
        for spec in (HonestProver(), full_lookahead(q, f),
                     LookaheadProver(lambda R: R)):  # row path twice, joint path
            with pytest.raises(ValueError):
                proto.run(spec, u_mode="diagonal")
            with pytest.raises(ValueError):
                proto.run(spec, u_mode="sample", samples=0)
            # the report lists every sampled u, so the count shares the u cap
            with pytest.raises(ProtocolSizeError,
                               match=r"^65537 sampled u vectors exceed the sparse cutoff 65536$"):
                proto.run(spec, u_mode="sample", samples=quantum.MAX_BRANCHES + 1)


def test_negative_seed_refused():
    # random.Random(-s) draws what random.Random(s) draws
    q = parse_qbf("A x1 : x1")
    with pytest.raises(ValueError, match="non-negative"):
        QuantumProtocol(q, Field(2), 1).run(HonestProver(), "sample", 4, seed=-1)


def test_honest_messages_memoized_by_prefix(monkeypatch):
    # round j's honest message depends on r_1..r_{j-1} only: one call per
    # challenge prefix, 1 + 4 + ... + 4^4, in place of 5 per row of 4^5
    calls = []
    real = sumcheck.correct_polynomial
    monkeypatch.setattr(sumcheck, "correct_polynomial",
                        lambda *args: calls.append(args) or real(*args))
    proto = QuantumProtocol(parse_qbf("A x1 E x2 : (x1 | ~x2) & (~x1 | x2)"), Field(2), 1)
    assert proto.prepare_round1(HonestProver()).n_branches == 4 ** 5
    assert len(calls) == 341


# Joint-engine work of one generated example, branches times u vectors; the
# largest admitted (n=2, k=1, m=2: 1024 x 25) runs in about a second.
JOINT_WORK = 30_000


@settings(max_examples=30)
@given(formulas(), st.sampled_from((1, 2, 3)), st.sampled_from((1, 2, 3)),
       st.sampled_from(("honest", "lookahead")), st.integers(0, 1 << 32))
# n = 1 at k = 3: the 64-row array engine against 64 and 4096 joint branches
@example(parse_qbf("A x1 : x1 & x1 & x1"), 3, 1, "lookahead", 5)
@example(parse_qbf("E x1 : x1 | ~x1"), 3, 2, "lookahead", 7)
@example(parse_qbf("A x1 : ~x1"), 3, 2, "lookahead", 11)
def test_row_path_matches_joint_engine(q, k, m, kind, seed):
    f = Field(k)
    proto = QuantumProtocol(q, f, m)
    n_rounds = proto.layout.n_rounds
    branches = f.order ** (m * n_rounds)
    assume(branches <= quantum.MAX_BRANCHES and branches * n_rounds ** m <= JOINT_WORK)
    event(f"n={q.n} k={k} m={m}")
    spec = HonestProver() if kind == "honest" else full_lookahead(q, f)
    assert isinstance(spec, RowProver)
    # the lookahead prover runs the array stages; the same messages behind a
    # whole-matrix prover take the joint path and its dict stages
    joint = LookaheadProver(lambda R: spec.f_matrix(R, proto.oracle))
    for mode in ({}, {"u_mode": "sample", "samples": 6, "seed": seed}):
        row, ref = proto.run(spec, **mode), proto.run(joint, **mode)
        assert row.to_dict() == ref.to_dict()
        assert (row.u_mode, row.seed) == (ref.u_mode, ref.seed)


# The corruptions the array verifier must judge as the scalar one does.
CORRUPTIONS = ("past the degree cap", "outside the field", "f(0) changed",
               "last round's value at r_N changed")


@pytest.mark.parametrize("k", (1, 2, 3))
@settings(max_examples=25, deadline=None)
@given(formulas(), st.data())
def test_array_step1_matches_scalar_verifier(k, q, data):
    # the lookahead prover's real messages, with random entries corrupted:
    # the array verifier's mask equals transcript_valid row by row
    f = Field(k)
    schedule = build_schedule(q)
    n_rounds, width = schedule.n_rounds, schedule.degree_bound + 1
    event(f"n={q.n}")
    spec = full_lookahead(q, f, schedule)
    tables, rows, msgs = spec.arrays(q, f)
    msgs = msgs.copy()
    hit = set()
    for _ in range(data.draw(st.integers(1, 12))):
        i = data.draw(st.integers(0, len(rows) - 1))
        how = data.draw(st.sampled_from(CORRUPTIONS))
        event(how)
        j = data.draw(st.integers(0, n_rounds - 1))
        bound = schedule.degree_bounds[j]
        delta = data.draw(st.integers(1, f.order - 1))
        if how == CORRUPTIONS[0] and bound + 1 < width:
            msgs[i, j, data.draw(st.integers(bound + 1, width - 1))] = delta
        elif how == CORRUPTIONS[1]:
            msgs[i, j, data.draw(st.integers(0, width - 1))] = data.draw(st.integers(f.order, 255))
        elif how == CORRUPTIONS[2]:
            msgs[i, j, 0] ^= delta
        else:
            # the last round's cap is at least 2: c_1 and c_2 both change by
            # delta, so f(0) and f(1) hold and only the final check can fail
            msgs[i, n_rounds - 1, 1:3] ^= delta
        hit.add(i)
    mask = verify_rows(tables, rows, msgs)
    # every row up to 4096 rows, past that the corrupted rows and a sample
    check = range(len(rows)) if len(rows) <= 4096 else sorted(hit | set(range(0, len(rows), 61)))
    for i in check:
        vec = [tuple(p) for p in msgs[i].tolist()]
        assert mask[i] == transcript_valid(q, schedule, f, rows[i].tolist(), vec), (i, vec)
    # and the run's step 1 is that mask
    bad = RowProver(spec.row_phi, lambda q_, f_: (tables, rows, msgs))
    assert QuantumProtocol(q, f, 1).run(bad).step1_pass == Fraction(int(mask.sum()), len(rows))


def test_row_path_reach_frozen():
    q = parse_qbf("A x1 : x1")
    f = Field(4)
    spec = full_lookahead(q, f)
    # m=2 fills the joint engine's 65536-branch cap; it agrees with these
    r2 = QuantumProtocol(q, f, 2).run(spec)
    assert r2.step1_pass == Fraction(65025, 65536)
    assert r2.mean_accept == Fraction(5288343841, 17179869184)
    proto3 = QuantumProtocol(q, f, 3)
    with pytest.raises(ProtocolSizeError):
        proto3.run(LookaheadProver(spec.phi))
    r3 = proto3.run(spec)
    assert r3.step1_pass == Fraction(16581375, 16777216)
    assert r3.mean_accept == Fraction(72721, 131072) ** 3
    assert r3.events == [Fraction(1)] * 3


def test_row_path_exhaustive_mean_at_u_cap():
    # 16 rows at N = 2 list all 2^16 u vectors, the cutoff; the mean is the
    # one-row mean to the 16th power (smaller sizes are checked against the
    # joint engine's sum over u above)
    q = parse_qbf("A x1 : x1")
    f = Field(3)
    spec = full_lookahead(q, f)
    report = QuantumProtocol(q, f, 16).run(spec)
    assert len(report.per_u) == 1 << 16
    assert report.mean_accept == QuantumProtocol(q, f, 1).run(spec).mean_accept ** 16


def test_row_path_cutoffs():
    q = parse_qbf("E x1 : x1")  # N = 2
    proto = QuantumProtocol(q, Field(1), 17)
    with pytest.raises(ProtocolSizeError):
        proto.run(HonestProver())  # 2^17 u vectors
    sampled = proto.run(HonestProver(), u_mode="sample", samples=3, seed=1)
    assert sampled.mean_accept == 1 and len(sampled.per_u) == 3
    wide = QuantumProtocol(q, Field(9), 2)
    with pytest.raises(ProtocolSizeError):
        wide.run(HonestProver(), u_mode="sample", samples=1)  # 2^18 branches per row
    # 5^7000 has more digits than int-to-str conversion allows by default:
    # the guard decides without building the power, and names it as one
    many = QuantumProtocol(parse_qbf("A x1 A x2 : x1 & x2"), Field(1), 7000)
    with pytest.raises(ProtocolSizeError, match=r"^5\^7000 u vectors exceed the sparse cutoff 65536$"):
        many.run(HonestProver())


def test_lookahead_table_refused_past_sweep_cutoff(monkeypatch):
    # at n = 6, k = 1 the message table would hold 2^27 rows: the first
    # row_phi call is refused by the sweep cutoff before any search
    def no_search(*args):
        raise AssertionError("the lookahead search ran past the sweep cutoff")

    monkeypatch.setattr(sumcheck, "_lookahead_search", no_search)
    q = parse_qbf(" ".join(f"A x{i}" for i in range(1, 7)) + " : x1 & x2")
    spec = full_lookahead(q, Field(1))
    with pytest.raises(ProtocolSizeError, match="exhaustive cutoff"):
        spec.row_phi((0,) * 27)


def test_lookahead_row_phi_refuses_bad_rows():
    q, f = parse_qbf("A x1 : x1"), Field(1)
    phi = full_lookahead(q, f).row_phi
    assert len(phi((1, 0))) == 2
    for bad in ((0,), (0, 0, 0), (0, 2), (-1, 0)):
        with pytest.raises(ValueError, match="not a row of 2 challenges in GF"):
            phi(bad)


def test_array_form_for_another_instance_is_not_read():
    # a lookahead prover built for one formula, run under a protocol for
    # another with the same N and field: its array form answers None, so the
    # run takes the dict stages on row_phi, as the plain prover does
    f = Field(2)
    spec = full_lookahead(parse_qbf("A x1 : x1"), f)
    proto = QuantumProtocol(parse_qbf("E x1 : x1"), f, 1)
    assert proto._row_array_stages(spec) is None
    assert proto.run(spec) == proto.run(LookaheadProver(spec.phi))


_Q1 = parse_qbf("A x1 : x1")  # N = 2, messages of degree at most 2


def _resume_union_of_row(i):
    proto = QuantumProtocol(_Q1, Field(1), 1)
    return proto.resume_union_probability(proto.prepare_round1(HonestProver()), i)


@pytest.mark.parametrize("refused, message", [
    (lambda: QuantumProtocol(_Q1, Field(1), 0), "need at least one register row"),
    (lambda: QuantumProtocol(_Q1, Field(1), 1).run(
        LookaheadProver(lambda R: (((0,) * 4,) * 2,))),
     "message polynomial wider than its register"),
    (lambda: QuantumProtocol(_Q1, Field(1), 1).run(LookaheadProver(lambda R: ((),))),
     "message matrix shape mismatch"),
    (lambda: QuantumProtocol(_Q1, Field(1), 1).run(BiasedSupportProver([((0,),)])),
     "challenge matrix shape mismatch"),
    (lambda: _resume_union_of_row(2), "event indices out of range"),
    (lambda: sumcheck.correct_polynomial(_Q1, build_schedule(_Q1), Field(1), 2, ()),
     "round 2 needs 1 prior challenges"),
    (lambda: sumcheck.run_with_randomness(_Q1, Field(1), sumcheck.honest_policy(_Q1, Field(1)),
                                          (0,)), "need 2 challenges"),
    (lambda: sumcheck.TranscriptOracle(_Q1, Field(1)).correct_row((0, 0, 0)),
     "need 2 challenges"),
    (lambda: check_mixture_bound([0.75, 0.5], [0.5, 0.5], 0.5),
     "weightings must have total mass at most 1"),
    (lambda: enumerate_coordinate_hits(0, 1), "need N >= 1 and m >= 0"),
    (lambda: parse_qbf("A : x1"), "expected a variable after 'A'"),
    (lambda: parse_qbf("E x1 : x1 )"), "unexpected token ')' after the matrix"),
], ids=["no-rows", "wide-message", "message-shape", "support-shape", "resume-row",
        "prefix-length", "run-challenges", "oracle-challenges", "mixture-mass",
        "hits-rounds", "quantifier-variable", "trailing-token"])
def test_refusals_name_their_cause(refused, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        refused()


def test_joint_engine_u_cap():
    # the N^m cap holds for every prover, and the u vectors are drawn before
    # round 1: one biased branch over 17 rows is refused at once
    proto = QuantumProtocol(parse_qbf("E x1 : x1"), Field(1), 17)
    with pytest.raises(ProtocolSizeError, match=r"^2\^17 u vectors exceed the sparse cutoff 65536$"):
        proto.run(BiasedSupportProver([((0, 0),) * 17]))
    sampled = proto.run(BiasedSupportProver([((0, 0),) * 17]),
                        u_mode="sample", samples=2, seed=1)
    assert len(sampled.per_u) == 2


def test_report_document_shape():
    q = parse_qbf("A x1 : x1")
    f = Field(2)
    proto = QuantumProtocol(q, f, 1)
    doc = proto.run(full_lookahead(q, f)).to_dict()
    assert doc["params"] == {"n": 1, "N": 2, "k": 2, "m": 1, "d": 2}
    assert doc["mean_accept"]["rational"] == "325/512"
    assert doc["mean_accept"]["float"] == 325 / 512
    assert [e["u"] for e in doc["per_u"]] == [[1], [2]]
    for e in doc["per_u"]:
        assert e["step1_pass"]["rational"] == "15/16"
    assert set(doc["bound"]) == {"value", "vacuous"}
    assert doc["events"]["resume_union_per_row"][0]["rational"] == "1/1"
    # empty surviving state: no events section
    doc0 = proto.run(HonestProver()).to_dict()
    assert "events" not in doc0 and doc0["mean_accept"]["rational"] == "0/1"


def test_event_probabilities():
    q = parse_qbf("A x1 : x1")
    f = Field(2)
    proto = QuantumProtocol(q, f, 1)
    _, kept = proto.step1_filter(proto.prepare_round1(full_lookahead(q, f)))
    # a surviving branch on a false formula is wrong somewhere in every row
    assert proto.resume_union_probability(kept, 1) == 1
    total = sum(proto.event_probability(kept, EventQuery.resume(1, j))
                for j in (1, 2))
    assert total == 1  # resume events partition the wrong rows
    with pytest.raises(ValueError):
        proto.event_probability(kept, EventQuery.resume(1, 3))
    with pytest.raises(ValueError):
        proto.event_probability(kept, EventQuery.resume(2, 1))
    with pytest.raises(ValueError):
        proto.event_probability(kept, EventQuery("union"))
    with pytest.raises(ValueError):
        proto.event_probability(kept, EventQuery("any", v=(1, 1)))
    empty = SparseState({}, 1)
    with pytest.raises(ValueError, match="empty state"):
        proto.event_probability(empty, EventQuery.resume(1, 1))


def test_event_queries_checked_before_branches():
    # a malformed query is refused even when there is no branch to test it on
    proto = QuantumProtocol(parse_qbf("A x1 : x1"), Field(2), 1)
    empty = SparseState({}, 1)
    bad = [(EventQuery("bogus"), "unknown event kind"),
           (EventQuery.resume(1, 3), "out of range"),
           (EventQuery.resume(2, 1), "out of range"),
           (EventQuery.any_resume((1, 1)), "one entry per row"),
           (EventQuery.all_resume((0,)), "out of range")]
    for ev, msg in bad:
        with pytest.raises(ValueError, match=msg):
            proto.event_probability(empty, ev)
        with pytest.raises(ValueError, match=msg):
            proto.hidden_support_count(empty, (1,), ev)
    assert proto.hidden_support_count(empty, (1,), EventQuery.resume(1, 1)) == 0


def test_event_inclusion_two_rows():
    q = parse_qbf("A x1 : x1")
    f = Field(2)
    proto = QuantumProtocol(q, f, 2)
    _, kept = proto.step1_filter(proto.prepare_round1(full_lookahead(q, f)))
    for v in proto.all_u():
        all_p = proto.event_probability(kept, EventQuery.all_resume(v))
        any_p = proto.event_probability(kept, EventQuery.any_resume(v))
        one_p = proto.event_probability(kept, EventQuery.resume(1, v[0]))
        assert all_p <= one_p <= any_p <= 1


def test_hidden_support_counting_bound():
    # per kept-register setting, conditioned on some row resuming at its u
    # coordinate, the hidden challenge columns take few distinct values
    q = parse_qbf("A x1 : x1")
    f = Field(2)
    for m in (1, 2):
        proto = QuantumProtocol(q, f, m)
        _, kept = proto.step1_filter(proto.prepare_round1(full_lookahead(q, f)))
        d = proto.schedule.degree_bound
        for u in proto.all_u():
            l = proto.layout.hadamard_count(u)
            count = proto.hidden_support_count(kept, u, EventQuery.any_resume(u))
            assert count <= d * m * (1 << (f.k * (l - 1)))
    # the m=1, u=(2,) case meets its cap of d = 2 exactly
    proto = QuantumProtocol(q, f, 1)
    _, kept = proto.step1_filter(proto.prepare_round1(full_lookahead(q, f)))
    assert proto.hidden_support_count(kept, (2,), EventQuery.any_resume((2,))) == 2


# Largest dense state the generated cross-check builds: 2^20 amplitudes.
DENSE_QUBITS = 20


@settings(max_examples=20)
@given(formulas(max_n=1), st.sampled_from((1, 2)), st.sampled_from(("honest", "lookahead")))
def test_step4_on_filtered_state_matches_dense(q, k, kind):
    # the dense oracle applies round 2 as an explicit permutation; the sparse
    # engine reads step 4 off the step-1-filtered state without it. A uniform
    # prover's norm is a power of 2, so the dense value is the float of the
    # exact one, not just near it.
    f = Field(k)
    proto = QuantumProtocol(q, f, 1)
    assume(proto.layout.total_qubits <= DENSE_QUBITS)
    event(f"k={k} d={proto.schedule.degree_bound}")
    spec = HonestProver() if kind == "honest" else full_lookahead(q, f)
    _, kept = proto.step1_filter(proto.prepare_round1(spec))
    for u in proto.all_u():
        sparse = proto.step4_accept_prob(kept, u)
        assert dense_oracle(q, k, 1, spec, u) == float(sparse)


@settings(max_examples=20)
@given(formulas(max_n=1), st.sampled_from((1, 2)))
def test_array_engine_matches_dense(q, k):
    # the one-row array stages against the dense state vector, exactly: a
    # uniform prover's dense value is the float of the exact rational
    f = Field(k)
    proto = QuantumProtocol(q, f, 1)
    assume(proto.layout.total_qubits <= DENSE_QUBITS)
    event(f"k={k} d={proto.schedule.degree_bound}")
    spec = full_lookahead(q, f)
    for u, accept in proto.run(spec).per_u:
        assert dense_oracle(q, k, 1, spec, u) == float(accept)


@settings(max_examples=40)
@given(formulas(max_n=1), st.sampled_from((1, 2)), st.sampled_from((1, 2)),
       st.sampled_from(("honest", "lookahead")))
def test_resume_union_is_sum_of_resume_events(q, k, m, kind):
    f = Field(k)
    proto = QuantumProtocol(q, f, m)
    spec = HonestProver() if kind == "honest" else full_lookahead(q, f)
    _, kept = proto.step1_filter(proto.prepare_round1(spec))
    assume(kept.n_branches > 0)
    n_rounds = proto.layout.n_rounds
    for i in range(1, m + 1):
        union = proto.resume_union_probability(kept, i)
        event(f"union={'0' if union == 0 else '1' if union == 1 else 'between'}")
        assert union == sum(
            proto.event_probability(kept, EventQuery.resume(i, j))
            for j in range(1, n_rounds + 1))


def test_hadamard_involution():
    # the unscaled gate is sqrt(2) H on each pair of amplitudes that differ
    # in bit qb, so two of them give 2 * identity; an integer vector stays
    # integer
    rng = np.random.default_rng(5)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    for sv in (rng.normal(size=8), rng.normal(size=8) + 1j * rng.normal(size=8),
               rng.integers(-9, 10, size=8)):
        ref = sv.copy()
        for qb in range(3):
            hadamard = np.einsum("ab,ibj->iaj", h, ref.reshape(-1, 2, 1 << qb)).reshape(-1)
            quantum._butterfly(sv, qb)
            assert np.max(np.abs(sv - np.sqrt(2) * hadamard)) <= 1e-12
            quantum._butterfly(sv, qb)
            assert sv.dtype == ref.dtype
            assert np.max(np.abs(sv - 2 * ref)) <= 1e-12
            sv[:] = ref


def test_dense_codec_is_r_major():
    # the flat index is the layout's qubit index rotated: R on top, above F
    # and S, each register where RegisterLayout puts it within its part
    lay = RegisterLayout(2, 2, 1, 1)  # 4 R qubits, 8 F, 4 S
    rest = lay.total_qubits - 4
    r0 = ((0, 0), (0, 0))
    f0 = (((0, 0), (0, 0)), ((0, 0), (0, 0)))
    assert quantum._dense_index(lay, ((1, 0), (0, 1)), f0, r0) == 0b1001 << rest
    f = (((0, 1), (0, 0)), ((0, 0), (0, 0)))
    assert quantum._dense_index(lay, r0, f, r0) == 1 << (lay.f_offset(1, 1) + 1 - 4)
    assert quantum._dense_index(lay, r0, f0, ((0, 1), (0, 0))) == 1 << (lay.s_offset(1, 2) - 4)
    # a bijection: the 16 basis states of a 4-qubit layout fill 0..15
    small = RegisterLayout(1, 1, 1, 1)  # 1 R qubit, 2 F, 1 S
    assert sorted(
        quantum._dense_index(small, ((r,),), (((a, b),),), ((s_,),))
        for r, a, b, s_ in itertools.product((0, 1), repeat=4)
    ) == list(range(16))


def test_dense_oracle_peak_memory():
    # every gate runs in place and the squares are summed without a
    # temporary: the 20-qubit call allocates its 1 MiB int8 vector and little
    # else
    q, f = parse_qbf("A x1 : x1"), Field(2)
    spec = full_lookahead(q, f)
    assert QuantumProtocol(q, f, 1).layout.total_qubits == 20
    for u in ((1,), (2,)):
        dense_oracle(q, 2, 1, spec, u)  # fills the prover's row memo
        tracemalloc.start()
        try:
            dense_oracle(q, 2, 1, spec, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (1 << 20), (u, peak)


def test_dense_oracle_honest_true():
    q = parse_qbf("E x1 : x1")
    for u in ((1,), (2,)):
        assert dense_oracle(q, 1, 1, HonestProver(), u) == pytest.approx(1.0, abs=1e-9)


def test_dense_oracle_qubit_limit():
    q = parse_qbf("E x1 : x1")
    with pytest.raises(ProtocolSizeError,
                       match=r"needs 80 qubits, a state vector of 2\^83 bytes"):
        dense_oracle(q, 4, 2, HonestProver(), (1, 1))


def test_dense_matches_sparse_spot_checks():
    f = Field(2)
    qf = parse_qbf("A x1 : x1")
    proto = QuantumProtocol(qf, f, 1)
    spec = full_lookahead(qf, f)
    _, kept = proto.step1_filter(proto.prepare_round1(spec))
    for u in ((1,), (2,)):
        sparse = proto.step4_accept_prob(kept, u)
        assert abs(float(sparse) - dense_oracle(qf, 2, 1, spec, u)) <= 1e-9

    qt = parse_qbf("E x1 : x1")
    protot = QuantumProtocol(qt, f, 1)
    biased = BiasedSupportProver(
        [((0, 0),), ((0, 1),)], weights=[Fraction(3, 5), Fraction(4, 5)])
    _, keptb = protot.step1_filter(protot.prepare_round1(biased))
    for u, expect in (((1,), Fraction(49, 400)), ((2,), Fraction(49, 100))):
        sparse = protot.step4_accept_prob(keptb, u)
        assert sparse == expect
        assert abs(float(sparse) - dense_oracle(qt, 2, 1, biased, u)) <= 1e-9


def test_weighted_amplitudes_over_common_denominator():
    # denominators 3, 3, 5 and 15 and one negative weight: the integer
    # numerators need the least common denominator and keep their signs
    q = parse_qbf("E x1 : x1")
    spec = BiasedSupportProver(
        [((0, 0),), ((0, 1),), ((1, 2),), ((3, 3),)],
        weights=[Fraction(1, 3), Fraction(-2, 3), Fraction(2, 5), Fraction(8, 15)])
    report = QuantumProtocol(q, Field(2), 1).run(spec)
    assert report.step1_pass == 1
    assert report.per_u == [((1,), Fraction(9, 400)), ((2,), Fraction(5, 36))]
    assert report.mean_accept == Fraction(581, 7200)
    assert report.events == [0]
    for u, accept in report.per_u:
        assert abs(float(accept) - dense_oracle(q, 2, 1, spec, u)) <= 1e-9


def test_amplitude_dtype_is_narrowest():
    # the vector holds every amplitude in -peak..peak, peak = max|c| 2^gates
    for peak, dtype in ((1, np.int8), (127, np.int8), (128, np.int16), (2**15 - 1, np.int16),
                        (2**15, np.int32), (2**31 - 1, np.int32), (2**31, np.int64),
                        (2**63 - 1, np.int64), (2**63, object)):
        assert quantum._amplitude_dtype(peak) == np.dtype(dtype), peak


def test_dense_amplitudes_reach_the_bound():
    # the honest prover on a true formula fills every group of kept
    # registers, so the all-zero amplitude of each is 2^gates, the bound
    # itself (16 at u = (1,), k = 2); the squares pass int8 and must still
    # be summed exactly
    q = parse_qbf("E x1 : x1")
    for k in (1, 2):
        for u in ((1,), (2,)):
            assert dense_oracle(q, k, 1, HonestProver(), u) == 1.0


def _pythagorean(m):
    # (m^2 - 1, 2m) over m^2 + 1: two weights whose squares sum to 1
    c = m * m + 1
    return Fraction(m * m - 1, c), Fraction(2 * m, c)


def test_weighted_amplitudes_past_int8():
    # numerators 5 and 12 over 13 give a bound of 12 * 2^4 = 192 at k = 2,
    # u = (1,): int16. Numerators 119 and 120 over 169 share a group at
    # u = (2,), k = 1, so its amplitude is 239 after one gate: an int8
    # vector would wrap. The dense value is the float of the exact one.
    q = parse_qbf("E x1 : x1")
    for k, weights in ((2, (Fraction(5, 13), Fraction(12, 13))),
                       (1, (Fraction(119, 169), Fraction(120, 169)))):
        spec = BiasedSupportProver([((0, 0),), ((0, 1),)], weights=list(weights))
        report = QuantumProtocol(q, Field(k), 1).run(spec)
        for u, accept in report.per_u:
            assert dense_oracle(q, k, 1, spec, u) == float(accept), (k, u)
    assert quantum._amplitude_dtype(12 << 4) == np.int16
    assert report.per_u[1] == ((2,), Fraction(239 ** 2, 2 * 169 ** 2))
    # numerators near 2^40 fit an int64 vector, but their squares are summed
    # as Python ints; near 2^64 the vector itself holds Python ints
    for m in (1 << 20, 1 << 32):
        spec = BiasedSupportProver([((0, 0),), ((0, 1),)], weights=list(_pythagorean(m)))
        for u, accept in QuantumProtocol(q, Field(1), 1).run(spec).per_u:
            assert dense_oracle(q, 1, 1, spec, u) == pytest.approx(float(accept), rel=1e-12)


def test_row_path_matches_dense():
    # m=2 rows take the row path; at k=1 and N=2 the dense oracle simulates
    # both rows jointly on 20 qubits
    f = Field(1)
    cases = [(parse_qbf(text), "lookahead")
             for text in ("A x1 : x1", "E x1 : x1 & ~x1", "A x1 : x1 | ~x1")]
    cases.append((parse_qbf("A x1 : x1 | ~x1"), "honest"))
    for q, kind in cases:
        spec = HonestProver() if kind == "honest" else full_lookahead(q, f)
        assert isinstance(spec, RowProver)
        proto = QuantumProtocol(q, f, 2)
        assert proto.layout.total_qubits == DENSE_QUBITS
        report = proto.run(spec)
        assert len(report.per_u) == 4
        for u, accept in report.per_u:
            assert abs(float(accept) - dense_oracle(q, 1, 2, spec, u)) <= 1e-9


# Every challenge matrix of two rows at k=1 and N=2.
TWO_ROW_MATRICES = list(itertools.product(itertools.product((0, 1), repeat=2), repeat=2))


@settings(max_examples=40)
@given(formulas(max_n=1), st.sets(st.sampled_from(TWO_ROW_MATRICES), min_size=2, max_size=6))
def test_generated_two_row_supports_match_dense(q, support):
    # a biased support over two rows with lookahead messages takes the joint
    # path; the messages depend on later challenges, so a dense image that
    # reads the wrong row's u differs from the sparse value
    f = Field(1)
    proto = QuantumProtocol(q, f, 2)
    assume(proto.layout.total_qubits <= DENSE_QUBITS)
    assert proto.layout.n_rounds == 2
    event(f"d={proto.schedule.degree_bound} support={len(support)}")
    lookahead = full_lookahead(q, f)
    support = sorted(support)
    specs = [BiasedSupportProver(support, phi=lookahead.phi)]
    if len(support) == 2:
        specs.append(BiasedSupportProver(
            support, weights=[Fraction(3, 5), Fraction(-4, 5)], phi=lookahead.phi))
    for spec in specs:
        for u, accept in proto.run(spec).per_u:
            assert abs(float(accept) - dense_oracle(q, 1, 2, spec, u)) <= 1e-9
