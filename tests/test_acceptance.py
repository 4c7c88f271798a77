"""Acceptance gate: ten pass/fail criteria, one test and one printed line each.

Each test states its claim, checks it by explicit computation, and prints
one `[acceptance] NN name: PASS/FAIL` line. Tolerances appear literally in
the asserts, except the mixture bound's float slack, which is
`bounds.MIXTURE_TOL`; exact-rational claims use no tolerance at all.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from qipsim.bounds import (
    PRECISION_BITS,
    check_mixture_bound,
    choose_params,
    coordinate_hit_probability,
    enumerate_coordinate_hits,
    soundness_bound,
    uniform_fidelity,
)
from qipsim.gf2k import Field, poly_trim
from qipsim._kernels import K_EXISTS, K_FORALL, find_modulus, is_irreducible
from qipsim.qbf import eval_qbf, parse_qbf
from qipsim.quantum import (
    BiasedSupportProver,
    HonestProver,
    QuantumProtocol,
    dense_oracle,
    full_lookahead,
    run_quantum,
)
from qipsim.sumcheck import (
    TranscriptOracle,
    build_schedule,
    check_transcript,
    correct_polynomial,
    honest_always_accepts,
    optimal_cheater,
    transcript_valid,
)


@contextmanager
def criterion(idx: int, name: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {idx:02d} {name}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"[acceptance] {idx:02d} {name}: PASS ({time.perf_counter() - t0:.1f}s)")


# Formula corpus: every quantifier prefix over small matrix templates, split
# by brute-force truth value. Degrees up to 3 are represented.

N1_MATRICES = ("x1", "~x1", "x1 | ~x1", "x1 & ~x1", "x1 & x1 & x1")
N2_MATRICES = (
    "x1 & x2",
    "x1 | x2",
    "(x1 | ~x2) & (~x1 | x2)",
    "(x1 & x2) | (~x1 & ~x2)",
    "~(x1 & x2)",
    "x1 & (x2 | ~x1)",
)


def _corpus():
    out = []
    for mat in N1_MATRICES:
        for p in ("E x1", "A x1"):
            out.append(parse_qbf(f"{p} : {mat}"))
    for mat in N2_MATRICES:
        for p1 in ("E x1", "A x1"):
            for p2 in ("E x2", "A x2"):
                out.append(parse_qbf(f"{p1} {p2} : {mat}"))
    return out

CORPUS = _corpus()
TRUE_ALL = [q for q in CORPUS if eval_qbf(q)]
FALSE_ALL = [q for q in CORPUS if not eval_qbf(q)]
TRUE_N1 = [q for q in TRUE_ALL if q.n == 1]
FALSE_N1 = [q for q in FALSE_ALL if q.n == 1]


def test_criterion_01_classical_completeness():
    # every true formula, every verifier random string, honest prover accepts
    start = time.perf_counter()
    with criterion(1, "classical completeness"):
        assert len(TRUE_ALL) >= 10 and any(q.n == 2 for q in TRUE_ALL)
        for q in TRUE_ALL:
            for k in (2, 3, 4):
                assert honest_always_accepts(q, Field(k)), (q, k)
        assert time.perf_counter() - start < 120.0


def test_criterion_02_classical_soundness():
    # exact optimal cheating probability never exceeds dN / |F|
    start = time.perf_counter()
    with criterion(2, "classical soundness"):
        assert len(FALSE_N1) >= 3
        degrees = set()
        for q in FALSE_N1:
            schedule = build_schedule(q)
            degrees.add(schedule.degree_bound)
            for k in (2, 3, 4):
                field = Field(k)
                _, value = optimal_cheater(q, field, schedule)
                cap = Fraction(
                    schedule.degree_bound * schedule.n_rounds, field.order)
                assert 0 < value <= cap, (q, k, value, cap)
        assert {2, 3} <= degrees  # both degree regimes exercised
        assert time.perf_counter() - start < 300.0


def _combine(kind, rho, f0, f1, field):
    if kind == K_FORALL:
        return field.mul(f0, f1)
    if kind == K_EXISTS:
        return f0 ^ f1 ^ field.mul(f0, f1)
    return field.mul(rho ^ 1, f0) ^ field.mul(rho, f1)


def test_criterion_03_verifier_predicate_properties():
    with criterion(3, "verifier predicate properties"):
        field = Field(2)
        # property 1: true formula, honest messages, every random string
        for q in TRUE_ALL:
            schedule = build_schedule(q)
            oracle = TranscriptOracle(q, field, schedule)
            for row in itertools.product(field.elements(),
                                         repeat=schedule.n_rounds):
                assert transcript_valid(q, schedule, field, row,
                                        oracle.correct_row(row)), (q, row)
        # property 2: false formula with the honest first message is dead at
        # round 1; that check reads only f1 and the initial claim, so it
        # rejects every continuation. n=1 also swept in full.
        for q in FALSE_ALL:
            schedule = build_schedule(q)
            c1 = correct_polynomial(q, schedule, field, 1, ())
            tail = ((0,),) * (schedule.n_rounds - 1)
            for row in itertools.product(field.elements(),
                                         repeat=schedule.n_rounds):
                assert check_transcript(q, schedule, field, row,
                                        (c1,) + tail) == 1, (q, row)
        for q in FALSE_N1:
            schedule = build_schedule(q)
            c1 = correct_polynomial(q, schedule, field, 1, ())
            d2 = schedule.degree_bounds[1]
            for f2 in itertools.product(field.elements(), repeat=d2 + 1):
                for row in itertools.product(field.elements(), repeat=2):
                    assert not transcript_valid(q, schedule, field, row,
                                                (c1, f2))
        # properties 3 and 4 at n=1, k in {2,3}: count admissible r values
        for k in (2, 3):
            fld = Field(k)
            for q in FALSE_N1:
                schedule = build_schedule(q)
                kind1 = schedule.kinds[0]
                d1 = schedule.degree_bounds[0]
                c1 = correct_polynomial(q, schedule, fld, 1, ())
                checked = 0
                for f1 in itertools.product(fld.elements(), repeat=d1 + 1):
                    if poly_trim(f1) == poly_trim(c1):
                        continue
                    if _combine(kind1, 0, f1[0],
                                fld.poly_eval(f1, 1), fld) != 1:
                        continue  # dies before r1 is ever drawn
                    checked += 1
                    admissible = sum(
                        1 for r1 in fld.elements()
                        if transcript_valid(
                            q, schedule, fld, (r1, 0),
                            (f1, correct_polynomial(q, schedule, fld, 2, (r1,)))
                        )
                    )
                    assert admissible <= d1, (q, k, f1, admissible)
                assert checked > 0
            for q in FALSE_N1 + TRUE_N1:
                schedule = build_schedule(q)
                d2 = schedule.degree_bounds[1]
                matrix_vals = [fld.ops.eval_formula(schedule.prog, [r2], fld.g, fld.k)
                               for r2 in fld.elements()]
                for r1 in fld.elements():
                    c2 = correct_polynomial(q, schedule, fld, 2, (r1,))
                    for f2 in itertools.product(fld.elements(), repeat=d2 + 1):
                        if poly_trim(f2) == poly_trim(c2):
                            continue
                        passing = sum(
                            1 for r2 in fld.elements()
                            if fld.poly_eval(f2, r2) == matrix_vals[r2]
                        )
                        assert passing <= d2, (q, k, r1, f2, passing)


def test_criterion_04_quantum_completeness():
    # honest prover on a true formula accepts with probability exactly 1
    with criterion(4, "quantum completeness"):
        for q in TRUE_N1:
            for k in (1, 2, 3):
                for m in (1, 2):
                    report = run_quantum(q, k, m, HonestProver())
                    assert report.step1_pass == 1, (q, k, m)
                    assert report.mean_accept == 1, (q, k, m)
                    assert all(a == 1 for _, a in report.per_u)
                    assert len(report.per_u) == 2 ** m


def test_criterion_05_lookahead_detection():
    start = time.perf_counter()
    with criterion(5, "lookahead detection"):
        q = parse_qbf("A x1 : x1")
        field = Field(2)
        proto = QuantumProtocol(q, field, 1)
        assert proto.layout.total_qubits <= 24
        spec = full_lookahead(q, field)
        # the strategy reads the whole row: rows (0,0) and (0,1) share the
        # first challenge but get different first messages
        f00 = proto.padded_f_matrix(spec, ((0, 0),))
        f01 = proto.padded_f_matrix(spec, ((0, 1),))
        assert f00[0][0] != f01[0][0]
        report = proto.run(spec)
        assert report.mean_accept < 1
        per_u = dict(report.per_u)
        for u in proto.all_u():
            dv = dense_oracle(q, 2, 1, spec, u)
            assert abs(float(per_u[u]) - dv) <= 1e-9, (u, per_u[u], dv)
        assert float(report.mean_accept) <= report.bound["value"]
        assert time.perf_counter() - start < 60.0


def test_criterion_06_mixture_bound_suite():
    with criterion(6, "mixture bound suite"):
        rng = random.Random(606)
        for _ in range(100_000):
            n = rng.randrange(1, 7)
            zeros = rng.randrange(0, n + 1)
            f = [0.0] * zeros + [rng.random() for _ in range(n - zeros)]
            rng.shuffle(f)
            g = [rng.random() for _ in range(n)]
            fs, gs = sum(f), sum(g)
            if fs > 1:
                f = [v / fs for v in f]
            if gs > 1:
                g = [v / gs for v in g]
            out = check_mixture_bound(f, g, rng.random())
            assert out.holds, (f, g, out)
            assert uniform_fidelity(f) <= 1 + 1e-12
        values = (0.0, 0.25, 0.5, 1.0)
        lams = (0.0, 0.25, 0.5, 0.75, 1.0)
        for n in (1, 2, 3, 4):
            pool = [v for v in itertools.product(values, repeat=n)
                    if sum(v) <= 1]
            for f in pool:
                assert uniform_fidelity(f) <= 1 + 1e-12
                for g in pool:
                    for lam in lams:
                        assert check_mixture_bound(f, g, lam).holds


def test_criterion_07_coordinate_hit_identity():
    with criterion(7, "coordinate hit identity"):
        for n_rounds in (1, 2, 3, 4):
            for m in range(0, 6):
                hit = coordinate_hit_probability(n_rounds, m)
                assert hit.value == enumerate_coordinate_hits(n_rounds, m)
                if m >= 1:
                    assert float(hit.value) > hit.lower_bound
                    assert hit.exceeds


def test_criterion_08_parameter_regime():
    start = time.perf_counter()
    with criterion(8, "parameter regime"):
        assert PRECISION_BITS >= 80
        for x_len in range(1, 65):
            target = Fraction(1, 2 ** x_len)
            for n_rounds in (2, 5, 9):
                p = choose_params(x_len, 3, n_rounds)
                out = soundness_bound(p)
                assert not out.vacuous
                assert out.value < target, (x_len, n_rounds)
        assert time.perf_counter() - start < 1.0


def _sparse_joint(proto: QuantumProtocol, spec, u) -> Fraction:
    _, kept = proto.step1_filter(proto.prepare_round1(spec))
    return proto.step4_accept_prob(kept, u)


def test_criterion_09_oracle_equivalence():
    with criterion(9, "oracle equivalence"):
        cases = []
        qt = parse_qbf("E x1 : x1")
        qf = parse_qbf("A x1 : x1")
        qc = parse_qbf("E x1 : x1 & ~x1")
        for u in ((1,), (2,)):
            cases.append((qt, 1, 1, HonestProver(), u))          # honest true
            cases.append((qt, 2, 1, HonestProver(), u))
            cases.append((qf, 1, 1, HonestProver(), u))          # honest false
            cases.append((qf, 2, 1, full_lookahead(qf, Field(2)), u))
            cases.append((qf, 1, 1, full_lookahead(qf, Field(1)), u))
            cases.append((qc, 1, 1, full_lookahead(qc, Field(1)), u))
            cases.append((qt, 2, 1, BiasedSupportProver([((0, 0),)]), u))
            cases.append((qt, 2, 1, BiasedSupportProver(
                [((0, 0),), ((0, 1),)],
                weights=[Fraction(3, 5), Fraction(4, 5)]), u))
        cases.append((qt, 2, 1, BiasedSupportProver(
            [((0, 0),), ((0, 1),)]), (2,)))

        def tagged(R):
            oracle = TranscriptOracle(qt, Field(2))
            if R[0][1] == 0:
                return (oracle.correct_row(R[0]),)
            return (((0, 1), (0, 3, 2)),)

        cases.append((qt, 2, 1, BiasedSupportProver(
            [((0, 0),), ((0, 1),)], phi=tagged), (2,)))
        single2 = BiasedSupportProver([((0, 0), (0, 0))])
        for u in ((1, 1), (1, 2), (2, 1), (2, 2)):
            cases.append((qt, 1, 2, single2, u))                 # single branch, 2 rows
        assert len(cases) >= 20
        for q, k, m, spec, u in cases:
            proto = QuantumProtocol(q, Field(k), m)
            sparse = _sparse_joint(proto, spec, u)
            dense = dense_oracle(q, k, m, spec, u)
            assert abs(float(sparse) - dense) <= 1e-9, (q, k, m, u)


def test_criterion_10_field_core():
    with criterion(10, "field core"):
        for k in (1, 2, 3, 4):
            f = Field(k)
            elems = list(f.elements())
            for a in elems:
                assert f.mul(a, 1) == a and f.mul(1, a) == a
                assert a ^ a == 0
                if a:
                    assert f.mul(a, f.inv(a)) == 1
                for b in elems:
                    assert f.mul(a, b) == f.mul(b, a)
                    for c in elems:
                        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
        rng = random.Random(1010)
        for k in (4, 8, 16, 32):
            f = Field(k)
            for _ in range(10_000):
                a, b, c = (rng.getrandbits(k) for _ in range(3))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
                assert f.mul(a, b) == f.mul(b, a)
                if a:
                    assert f.mul(a, f.inv(a)) == 1
        for k in range(1, 65):
            g = find_modulus(k)
            assert g.bit_length() == k + 1
            assert is_irreducible(g, k), k
