import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from strategies import formulas
from qipsim.gf2k import Field
from qipsim.qbf import parse_qbf
from qipsim.quantum import (
    BasisState,
    BiasedSupportProver,
    EventQuery,
    HonestProver,
    LookaheadProver,
    QuantumProtocol,
    RegisterLayout,
    RowProver,
    SparseShapeError,
    SparseState,
    apply_hadamard,
    build_layout,
    dense_oracle,
    full_lookahead,
    run_quantum,
)
from qipsim.sumcheck import ProtocolSizeError


def test_layout_partition_example():
    lay = RegisterLayout(copies=5, n_rounds=8, field_bits=3, degree_bound=3)
    u = (6, 4, 7, 2, 5)
    assert [lay.kept_r_count(u, i) for i in range(1, 6)] == [5, 3, 6, 1, 4]
    assert [lay.kept_f_count(u, i) for i in range(1, 6)] == [6, 4, 7, 2, 5]
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
        assert b.s == b.r
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
    assert weighted.norm_sq() == 1 and weighted.scale == 1


def test_prepare_biased_validation():
    q = parse_qbf("E x1 : x1")
    proto = QuantumProtocol(q, Field(2), 1)
    with pytest.raises(ValueError):
        BiasedSupportProver([])
    with pytest.raises(ValueError):
        proto.prepare_round1(BiasedSupportProver([((0, 0),), ((0, 0),)]))
    with pytest.raises(ValueError):
        proto.prepare_round1(BiasedSupportProver(
            [((0, 0),), ((0, 1),)], weights=[Fraction(1, 2), Fraction(1, 2)]))
    with pytest.raises(ValueError):
        proto.prepare_round1(BiasedSupportProver(
            [((0, 0),), ((0, 1),)], weights=[Fraction(1)]))
    with pytest.raises(ValueError):
        proto.prepare_round1(BiasedSupportProver(
            [((0, 0),), ((0, 1),)], weights=[Fraction(0), Fraction(1)]))
    with pytest.raises(ValueError):
        proto.prepare_round1(BiasedSupportProver([((0, 9),)]))  # not a field element


def test_prepare_size_cutoff():
    q = parse_qbf("E x1 : x1")
    proto = QuantumProtocol(q, Field(4), 2, max_branches=100)
    with pytest.raises(ProtocolSizeError):
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


def test_round2_clears_returned_registers():
    f = Field(2)
    q = parse_qbf("E x1 : x1")
    proto = QuantumProtocol(q, f, 2)
    spec = HonestProver()
    _, kept = proto.step1_filter(proto.prepare_round1(spec))
    zero_poly = (0,) * (proto.layout.degree_bound + 1)
    for u in proto.all_u():
        after = proto.apply_round2_and_cancel(kept, u, spec)
        assert after.n_branches == kept.n_branches
        for b in after.branches:
            for i in range(2):
                assert all(x == 0 for x in b.s[i])
                assert all(b.f[i][j] == zero_poly
                           for j in range(u[i], proto.layout.n_rounds))


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
        after = proto.apply_round2_and_cancel(kept, u, spec)
        seen: dict[tuple, tuple] = {}
        for b in after.branches:
            kr = tuple(b.r[i][: u[i] - 1] for i in range(2))
            kf = tuple(b.f[i][: u[i]] for i in range(2))
            assert seen.setdefault(kr, kf) == kf
        assert proto.step4_accept_prob(after, u) == 1


def test_step4_single_branch():
    f = Field(2)
    q = parse_qbf("E x1 : x1")
    proto = QuantumProtocol(q, f, 1)
    spec = BiasedSupportProver([((0, 0),)])
    p, kept = proto.step1_filter(proto.prepare_round1(spec))
    assert p == 1
    for u, l in (((1,), 2), ((2,), 1)):
        after = proto.apply_round2_and_cancel(kept, u, spec)
        assert proto.step4_accept_prob(after, u) == Fraction(1, 1 << (l * f.k))


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
    after = proto.apply_round2_and_cancel(kept, (2,), same)
    assert proto.step4_accept_prob(after, (2,)) == Fraction(2, 1 << f.k)

    def tagged(R):
        if R[0][1] == 0:
            return (proto.oracle.correct_row(R[0]),)
        return (((0, 1), (0, 3, 2)),)  # also accepted on row (0, 1)

    split = BiasedSupportProver(support, phi=tagged)
    p, kept = proto.step1_filter(proto.prepare_round1(split))
    assert p == 1
    after = proto.apply_round2_and_cancel(kept, (2,), split)
    assert proto.step4_accept_prob(after, (2,)) == Fraction(1, 1 << f.k)


def test_step4_shape_errors():
    f = Field(2)
    q = parse_qbf("E x1 : x1")
    proto = QuantumProtocol(q, f, 1)
    zero = (0, 0, 0)
    bad_s = SparseState({BasisState(((0, 0),), ((zero, zero),), ((1, 0),)): Fraction(1)}, 1)
    with pytest.raises(SparseShapeError):
        proto.step4_accept_prob(bad_s, (2,))
    bad_f = SparseState({BasisState(((0, 0),), ((zero, (1, 0, 0)),), ((0, 0),)): Fraction(1)}, 1)
    with pytest.raises(SparseShapeError):
        proto.step4_accept_prob(bad_f, (1,))


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
        report = run_quantum(parse_qbf(text), k, m, HonestProver())
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


# Joint-engine work of one generated example, branches times u vectors; the
# largest admitted (n=2, k=1, m=2: 1024 x 25) runs in about a second.
JOINT_WORK = 30_000


@settings(max_examples=25)
@given(formulas(), st.sampled_from((1, 2)), st.sampled_from((2, 3)),
       st.sampled_from(("honest", "lookahead")), st.integers(0, 1 << 32))
def test_row_path_matches_joint_engine(q, k, m, kind, seed):
    f = Field(k)
    proto = QuantumProtocol(q, f, m)
    n_rounds = proto.layout.n_rounds
    branches = f.order ** (m * n_rounds)
    assume(branches <= proto.max_branches and branches * n_rounds ** m <= JOINT_WORK)
    event(f"n={q.n} k={k} m={m}")
    spec = HonestProver() if kind == "honest" else full_lookahead(q, f)
    assert isinstance(spec, RowProver)
    # the same messages behind a whole-matrix prover take the joint path
    joint = LookaheadProver(lambda R: spec.f_matrix(R, proto.oracle))
    for mode in ({}, {"u_mode": "sample", "samples": 6, "seed": seed}):
        row, ref = proto.run(spec, **mode), proto.run(joint, **mode)
        assert row.to_dict() == ref.to_dict()
        assert (row.u_mode, row.seed) == (ref.u_mode, ref.seed)


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


def test_row_path_cutoffs():
    q = parse_qbf("E x1 : x1")  # N = 2
    proto = QuantumProtocol(q, Field(1), 17)
    with pytest.raises(ProtocolSizeError):
        proto.run(HonestProver())  # 2^17 u vectors
    sampled = proto.run(HonestProver(), u_mode="sample", samples=3, seed=1)
    assert sampled.mean_accept == 1 and len(sampled.per_u) == 3
    small = QuantumProtocol(q, Field(4), 2, max_branches=255)
    with pytest.raises(ProtocolSizeError):
        small.run(HonestProver(), u_mode="sample", samples=1)  # 256 branches per row


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
    with pytest.raises(ValueError):
        proto.event_probability(empty, EventQuery.resume(1, 1))


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


def test_hadamard_involution():
    rng = np.random.default_rng(5)
    sv = rng.normal(size=8) + 1j * rng.normal(size=8)
    ref = sv.copy()
    for qb in range(3):
        apply_hadamard(sv, qb)
        apply_hadamard(sv, qb)
        assert np.max(np.abs(sv - ref)) <= 1e-12


def test_dense_oracle_honest_true():
    q = parse_qbf("E x1 : x1")
    for u in ((1,), (2,)):
        assert dense_oracle(q, 1, 1, HonestProver(), u) == pytest.approx(1.0, abs=1e-9)


def test_dense_oracle_qubit_limit():
    q = parse_qbf("E x1 : x1")
    with pytest.raises(ProtocolSizeError):
        dense_oracle(q, 4, 2, HonestProver(), (1, 1))


def test_dense_matches_sparse_spot_checks():
    f = Field(2)
    qf = parse_qbf("A x1 : x1")
    proto = QuantumProtocol(qf, f, 1)
    spec = full_lookahead(qf, f)
    _, kept = proto.step1_filter(proto.prepare_round1(spec))
    for u in ((1,), (2,)):
        after = proto.apply_round2_and_cancel(kept, u, spec)
        sparse = proto.step4_accept_prob(after, u)
        assert abs(float(sparse) - dense_oracle(qf, 2, 1, spec, u)) <= 1e-9

    qt = parse_qbf("E x1 : x1")
    protot = QuantumProtocol(qt, f, 1)
    biased = BiasedSupportProver(
        [((0, 0),), ((0, 1),)], weights=[Fraction(3, 5), Fraction(4, 5)])
    _, keptb = protot.step1_filter(protot.prepare_round1(biased))
    for u, expect in (((1,), Fraction(49, 400)), ((2,), Fraction(49, 100))):
        after = protot.apply_round2_and_cancel(keptb, u, biased)
        sparse = protot.step4_accept_prob(after, u)
        assert sparse == expect
        assert abs(float(sparse) - dense_oracle(qt, 2, 1, biased, u)) <= 1e-9
