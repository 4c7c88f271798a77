import dataclasses
import hashlib
import itertools
import json
import random
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cheater_oracle import combine
from strategies import formulas
from sweep_oracle import oracle_always_accepts
from test_acceptance import CORPUS
from test_kernels import ref_formula, ref_horner, ref_mul, ref_quantified
from qipsim._kernels import K_EXISTS, K_FORALL, K_REDUCE, purepy
from qipsim.gf2k import Field, poly_degree, poly_trim
from qipsim.qbf import compile_matrix, eval_qbf, parse_qbf
from qipsim.quantum import full_lookahead
from qipsim.sumcheck import (
    FieldTables,
    HonestPolicy,
    MAX_PARTIAL_LEAVES,
    ProtocolSizeError,
    _suffix_evaluations,
    Transcript,
    TranscriptOracle,
    build_schedule,
    check_transcript,
    correct_polynomial,
    draw_challenges,
    honest_always_accepts,
    honest_policy,
    lookahead_rows,
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
    assert s.kinds == (K_EXISTS, K_REDUCE)
    assert s.tvars == (0, 0)
    assert s.degree_bounds == (1, 2)
    assert s.degree_bound == 2


def test_schedule_n2():
    q = parse_qbf("A x1 E x2 : (x1 | ~x2) & (~x1 | x2)")
    s = build_schedule(q)
    assert s.n_rounds == 5
    assert s.kinds == (K_FORALL, K_REDUCE, K_EXISTS, K_REDUCE, K_REDUCE)
    assert s.tvars == (0, 0, 1, 0, 1)
    assert s.degree_bounds == (1, 2, 1, 2, 2)
    assert s.prog == compile_matrix(q.matrix)
    # n=3: x1 has degree 3, so its last reduction gets cap 3
    q = parse_qbf("E x1 A x2 E x3 : (x1 & x2 & x3) | (~x1 & x3) | x1")
    s = build_schedule(q)
    assert s.n_rounds == 9
    assert s.kinds == (K_EXISTS, K_REDUCE, K_FORALL, K_REDUCE, K_REDUCE,
                       K_EXISTS, K_REDUCE, K_REDUCE, K_REDUCE)
    assert s.tvars == (0, 0, 1, 0, 1, 2, 0, 1, 2)
    assert s.degree_bounds == (1, 2, 1, 2, 2, 1, 3, 2, 2)
    assert s.degree_bound == 3
    assert s.prog == compile_matrix(q.matrix)


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
    # at the all-zero point only the 23 quantifier rounds branch: 2^23
    # formula evaluations at j=0, past MAX_PARTIAL_LEAVES
    q23 = parse_qbf(" ".join(f"A x{i}" for i in range(1, 24)) + " : x1")
    with pytest.raises(ProtocolSizeError):
        partial_value(q23, build_schedule(q23), f, 0, [0] * 23)


def _kernel_evaluations(q, schedule, field, j, assign):
    with mock.patch.object(purepy, "eval_formula", wraps=purepy.eval_formula) as ev:
        partial_value(q, schedule, field, j, assign)
    return ev.call_count


@st.composite
def _suffix_points(draw):
    """A generated formula, a field, a round index j and an assignment whose
    entries are each independently Boolean or a random field element."""
    q = draw(formulas(max_n=3))
    field = Field(draw(st.sampled_from((1, 2, 3, 32))))
    elem = st.one_of(st.sampled_from((0, 1)), st.integers(0, field.order - 1))
    schedule = build_schedule(q)
    j = draw(st.integers(0, schedule.n_rounds))
    return q, schedule, field, j, [draw(elem) for _ in range(q.n)]


@given(_suffix_points())
def test_suffix_guard_counts_kernel_evaluations(inst):
    # the partial-value guard counts the formula evaluations the kernel
    # makes, and correct_polynomial's count at its last abscissa is the
    # largest over all of its abscissae
    q, schedule, field, j, assign = inst
    assert _suffix_evaluations(schedule, j, assign) == _kernel_evaluations(
        q, schedule, field, j, assign)
    if j:
        t = schedule.tvars[j - 1]
        npts = min(schedule.degree_bounds[j - 1] + 1, field.order)
        counts = [_kernel_evaluations(q, schedule, field, j, assign[:t] + [z] + assign[t + 1:])
                  for z in range(npts)]
        worst = assign[:t] + [npts - 1] + assign[t + 1:]
        assert max(counts) == _suffix_evaluations(schedule, j, worst)


@st.composite
def _message_prefixes(draw):
    """A generated formula, a field, a round j and a challenge prefix whose
    entries are each independently Boolean or a random field element."""
    q = draw(formulas(max_n=3))
    field = Field(draw(st.sampled_from((1, 2, 3, 32))))
    elem = st.one_of(st.sampled_from((0, 1)), st.integers(0, field.order - 1))
    schedule = build_schedule(q)
    j = draw(st.integers(1, schedule.n_rounds))
    return q, schedule, field, j, tuple(draw(elem) for _ in range(j - 1))


@given(_message_prefixes())
def test_honest_message_work_bound(inst):
    # with a fresh memo, the one symbolic walk makes as many formula
    # evaluations (scalar and symbolic) as the guard counts at the last
    # abscissa when npts >= 3, and at most twice as many when npts = 2
    q, schedule, field, j, prefix = inst
    with mock.patch.object(purepy, "eval_formula", wraps=purepy.eval_formula) as ev, \
            mock.patch.object(purepy, "_z_formula", wraps=purepy._z_formula) as zev:
        correct_polynomial(q, schedule, field, j, prefix)
    walked = ev.call_count + zev.call_count
    assign = [0] * q.n
    for t, x in zip(schedule.tvars, prefix):
        assign[t] = x
    npts = min(schedule.degree_bounds[j - 1] + 1, field.order)
    assign[schedule.tvars[j - 1]] = npts - 1
    guard = _suffix_evaluations(schedule, j, assign)
    event(f"npts {'>= 3' if npts >= 3 else 2}, ratio {walked / guard}")
    if npts >= 3:
        assert walked == guard
    else:
        assert guard <= walked <= 2 * guard


@pytest.mark.parametrize("text, k", [("A x1 : x1 & x1 & x1", 1),
                                     ("A x1 : x1 & x1 & x1 & x1", 2)])
def test_honest_message_folds_past_the_field(text, k):
    # the last round's degree cap reaches |F|, so its message is the suffix
    # polynomial folded by z^|F| = z: the interpolant of the suffix values at
    # every field element, for every round and every challenge prefix
    q = parse_qbf(text)
    field = Field(k)
    schedule = build_schedule(q)
    assert schedule.degree_bounds[-1] >= field.order
    for j in range(1, schedule.n_rounds + 1):
        t = schedule.tvars[j - 1]
        npts = min(schedule.degree_bounds[j - 1] + 1, field.order)
        for prefix in itertools.product(field.elements(), repeat=j - 1):
            assign = [0] * q.n
            for v, x in zip(schedule.tvars, prefix):
                assign[v] = x
            pts = []
            for z in range(npts):
                assign[t] = z
                pts.append((z, partial_value(q, schedule, field, j, assign)))
            assert correct_polynomial(q, schedule, field, j, prefix) == \
                field.poly_interpolate(pts)


@st.composite
def _challenge_rows(draw):
    """A generated formula, a field width and N - 1 challenges, each
    independently Boolean or a random field element."""
    q = draw(formulas(max_n=3))
    k = draw(st.sampled_from((1, 2, 3, 32)))
    elem = st.one_of(st.sampled_from((0, 1)), st.integers(0, (1 << k) - 1))
    return q, k, tuple(draw(elem) for _ in range(build_schedule(q).n_rounds - 1))


@given(_challenge_rows())
def test_honest_messages_match_reference_suffix(inst):
    # every round's honest message at z is the suffix value with the round
    # variable at z, by the test's own recursion on ref_mul (ref_quantified),
    # which shares no code with the kernels: at every node when k <= 3, where
    # a message folded past the field must still agree on all of F
    q, k, row = inst
    field = Field(k)
    schedule = build_schedule(q)
    rounds = list(zip(schedule.kinds, schedule.tvars))
    for j in range(1, schedule.n_rounds + 1):
        t = schedule.tvars[j - 1]
        npts = min(schedule.degree_bounds[j - 1] + 1, field.order)
        msg = correct_polynomial(q, schedule, field, j, row[: j - 1])
        assert len(msg) == npts
        assign = [0] * q.n
        for v, x in zip(schedule.tvars, row[: j - 1]):
            assign[v] = x
        for z in field.elements() if k <= 3 else range(npts):
            assign[t] = z
            want = ref_quantified(q.matrix, rounds[j:], tuple(assign), field.g)
            assert ref_horner(msg, z, field.g) == want


def test_numpy_integers_read_as_python_ints():
    # numpy integers are field elements like the Python ints they equal, in
    # challenges, messages and assignments, on the table path (k = 4) and
    # the comb (k = 32); a float is not one, even when integral
    import numpy as np

    q = parse_qbf("A x1 E x2 : (x1 | ~x2) & (~x1 | x2)")
    s = build_schedule(q)
    rng = random.Random(7)
    for k in (4, 32):
        f = Field(k)
        r = tuple(rng.choice((0, 1, rng.getrandbits(k))) for _ in range(s.n_rounds))
        honest = TranscriptOracle(q, f, s).correct_row(r)
        cheat = honest[:2] + ((1, 1),) + honest[3:]
        noise = tuple(tuple(rng.getrandbits(k) for _ in fj) for fj in honest)
        for msgs in (honest, cheat, noise):
            want = check_transcript(q, s, f, r, msgs)
            got = check_transcript(q, s, f, tuple(map(np.int64, r)),
                                   tuple(tuple(map(np.int64, fj)) for fj in msgs))
            assert got == want
        for j in range(s.n_rounds + 1):
            point = [rng.choice((0, 1, rng.getrandbits(k))) for _ in range(q.n)]
            assert partial_value(q, s, f, j, list(map(np.uint64, point))) == \
                partial_value(q, s, f, j, point)
            if j:
                assert correct_polynomial(q, s, f, j, tuple(map(np.int64, r[: j - 1]))) == \
                    correct_polynomial(q, s, f, j, r[: j - 1])
        # round 1's message passes, then its challenge is refused
        with pytest.raises(ValueError):
            check_transcript(q, s, f, (2.0,) + r[1:], honest)


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
        K_FORALL: lambda f0, f1, rho, fld: fld.mul(f0, f1),
        K_EXISTS: lambda f0, f1, rho, fld: f0 ^ f1 ^ fld.mul(f0, f1),
        K_REDUCE: lambda f0, f1, rho, fld: fld.mul(rho ^ 1, f0) ^ fld.mul(rho, f1),
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
                kind, t = s.kinds[j - 1], s.tvars[j - 1]
                c = correct_polynomial(q, s, fld, j, r[: j - 1])
                f0 = fld.poly_eval(c, 0)
                f1 = fld.poly_eval(c, 1)
                assert combine[kind](f0, f1, assign[t], fld) == prev
                assign[t] = r[j - 1]
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
                assign[s.tvars[jj - 1]] = prefix[jj - 1]
            t = s.tvars[j - 1]
            pts = []
            for z in range(npts):
                assign[t] = z
                pts.append((z, partial_value(q, s, fld, j, assign)))
            assert poly_degree(fld.poly_interpolate(pts)) <= dj


@st.composite
def _memo_runs(draw):
    """A generated formula, a field width, run seeds, and challenge rows
    whose entries are each independently Boolean or a random field element."""
    q = draw(formulas(max_n=3))
    k = draw(st.sampled_from((1, 2, 3, 32, 64)))
    n_rounds = build_schedule(q).n_rounds
    elem = st.one_of(st.sampled_from((0, 1)), st.integers(0, (1 << k) - 1))
    seeds = draw(st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=3))
    rows = draw(st.lists(st.tuples(*[elem] * n_rounds), min_size=1, max_size=3))
    return q, k, seeds, rows


@settings(max_examples=60)
@given(_memo_runs())
def test_boolean_memo_matches_memo_free_paths(inst):
    # one HonestPolicy and one TranscriptOracle, each with its memo of
    # Boolean suffix values, serve every prefix and every seed; each message
    # equals correct_polynomial with a fresh memo and the interpolation of
    # partial_value (a fresh memo per call) at the round's nodes
    q, k, seeds, rows = inst
    field = Field(k)
    schedule = build_schedule(q)
    policy = HonestPolicy(q, field, schedule)
    oracle = TranscriptOracle(q, field, schedule)
    served = [(tr.r, tr.f) for tr in (run_protocol(q, field, policy, s, schedule)
                                      for s in seeds)]
    served += [(row, oracle.correct_row(row)) for row in rows]
    for r, f in served:
        for j in range(1, len(f) + 1):
            assert f[j - 1] == correct_polynomial(q, schedule, field, j, r[: j - 1])
            assign = [0] * q.n
            for t, x in zip(schedule.tvars, r[: j - 1]):
                assign[t] = x
            t = schedule.tvars[j - 1]
            npts = min(schedule.degree_bounds[j - 1] + 1, field.order)
            pts = []
            for z in range(npts):
                assign[t] = z
                pts.append((z, partial_value(q, schedule, field, j, assign)))
            assert f[j - 1] == field.poly_interpolate(pts)
    # a stored Boolean state (key >= 0) is the quantifier round of some x_i
    # with x_1..x_(i-1) Boolean and the later variables 0 (fewer than 2^n
    # of them), or the end of the chain with every variable Boolean (2^n);
    # a stored symbolic state (key < 0) is a round position in 0..N, the
    # round variable x_t and the 0/1 values of the n - 1 others
    n_rounds = schedule.n_rounds
    for memo in (policy._memo, oracle._memo):
        boolean = [key for key in memo if key >= 0]
        symbolic = [~key for key in memo if key < 0]
        assert 0 < len(boolean) < 2 ** (q.n + 1)
        assert 0 < len(symbolic) <= (n_rounds + 1) * q.n * 2 ** (q.n - 1)
        for key in symbolic:
            rest, start = divmod(key, n_rounds + 1)
            mask, t = divmod(rest, q.n)
            assert mask < 2 ** q.n and not mask >> t & 1


def test_boolean_memo_stops_at_its_cap(monkeypatch):
    # a full memo takes no new entry and every message stays the same. Round
    # 1 stores the 62 Boolean states before any symbolic one, so a cap of 3
    # fills with Boolean states only, and one of 100 with both kinds
    assert purepy.MEMO_MAX_ENTRIES == MAX_PARTIAL_LEAVES >> 4
    q = parse_qbf("A x1 E x2 A x3 E x4 A x5 : (x1 | x2) & (~x3 | x4 | x5)")
    field = Field(32)
    schedule = build_schedule(q)
    want = [run_protocol(q, field, HonestPolicy(q, field, schedule), s, schedule)
            for s in range(3)]
    for cap in (3, 100):
        monkeypatch.setattr(purepy, "MEMO_MAX_ENTRIES", cap)
        policy = HonestPolicy(q, field, schedule)
        got = [run_protocol(q, field, policy, s, schedule) for s in range(3)]
        assert got == want
        assert len(policy._memo) == cap
        assert sum(key < 0 for key in policy._memo) == max(0, cap - 62)


def test_negative_seed_refused():
    # random.Random(-s) draws what random.Random(s) draws
    q = parse_qbf("A x1 : x1 | ~x1")
    f = Field(4)
    with pytest.raises(ValueError, match="non-negative"):
        run_protocol(q, f, honest_policy(q, f), rng=-5)
    with pytest.raises(ValueError, match="non-negative"):
        draw_challenges(f, 2, -5)


@given(st.integers(0, 2**40), st.sampled_from((1, 3, 32, 64)), st.integers(0, 9))
def test_draw_challenges_rule(seed, k, n_rounds):
    """A seeded run's challenges are N k-bit draws from ``random.Random``,
    from an int seed or from a generator passed in."""
    rng = random.Random(seed)
    want = [rng.getrandbits(k) for _ in range(n_rounds)]
    assert draw_challenges(Field(k), n_rounds, seed) == want
    assert draw_challenges(Field(k), n_rounds, random.Random(seed)) == want


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
        honest_always_accepts(q, Field(16))  # 2^32 challenge strings


def _bound_variants(schedule):
    """The schedule's own degree bounds, each bound of 2 or more lowered by
    one (the honest messages may then not fit), only the last round's bound
    lowered by one (a misfit then shows only once every variable is bound,
    and maybe only at some settings of them), and every bound raised by
    one."""
    bounds = schedule.degree_bounds
    return {
        "own": schedule,
        "lowered": dataclasses.replace(
            schedule, degree_bounds=tuple(d - 1 if d >= 2 else d for d in bounds)
        ),
        "last lowered": dataclasses.replace(
            schedule, degree_bounds=bounds[:-1] + (max(1, bounds[-1] - 1),)
        ),
        "raised": dataclasses.replace(schedule, degree_bounds=tuple(d + 1 for d in bounds)),
    }


@settings(max_examples=60)
@given(formulas(), st.sampled_from((1, 2)),
       st.sampled_from(("own", "lowered", "last lowered", "raised")))
def test_honest_sweep_matches_prefix_walk(q, k, variant):
    schedule = _bound_variants(build_schedule(q))[variant]
    verdict = honest_always_accepts(q, Field(k), schedule)
    event(f"{variant} accepts={verdict}")
    assert verdict == oracle_always_accepts(q, Field(k), schedule)


def test_honest_sweep_with_quantifier_caps_at_zero():
    # a quantifier round's message is then a constant, so its lines must be
    # flat. Round 2's reduce on x_1 leaves round 1's lines linear, so with a
    # cap of 1 or more round 1's check cannot fail; at cap 0 it decides the
    # verdict of every true formula whose value depends on x_1
    verdicts = set()
    for q in CORPUS:
        schedule = build_schedule(q)
        flat = dataclasses.replace(schedule, degree_bounds=tuple(
            d if kind == K_REDUCE else 0
            for kind, d in zip(schedule.kinds, schedule.degree_bounds)))
        for k in (1, 2):
            verdict = honest_always_accepts(q, Field(k), flat)
            assert verdict == oracle_always_accepts(q, Field(k), flat), (q, k)
            verdicts.add((eval_qbf(q), verdict))
    assert (True, True) in verdicts and (True, False) in verdicts


# True, yet with the last round's bound lowered the honest message misfits
# at k = 2 only at some settings of the variables bound before that round:
# a sweep that tried one setting of them would accept.
SPARSE_MISFIT = "E x1 E x2 : (((x1 & x1) | x1) & (~x2 | (x2 & x1)))"


def test_honest_sweep_matches_prefix_walk_on_corpus():
    late_rejections = 0
    for q in CORPUS + [parse_qbf(SPARSE_MISFIT)]:
        for variant, schedule in _bound_variants(build_schedule(q)).items():
            for k in (1, 2, 3):
                verdict = honest_always_accepts(q, Field(k), schedule)
                assert verdict == oracle_always_accepts(q, Field(k), schedule), (q, variant, k)
                late_rejections += eval_qbf(q) and not verdict
    # true formulas whose honest messages outgrow a lowered bound: the chain
    # is 1, so these verdicts come from a round after the first
    assert late_rejections > 0


def _check_suffix_tables(q, k):
    # entry sum_s x_{s+1} |F|^s of the table after round j is the suffix
    # value at (x_1, ..., x_i), x_1..x_i the variables bound by rounds 1..j
    field = Field(k)
    schedule = build_schedule(q)
    size = field.order
    rounds = []
    for j, table in purepy._suffix_tables(schedule.kinds, schedule.tvars, schedule.prog,
                                          q.n, field.g, field.k):
        rounds.append(j)
        live = len(set(schedule.tvars[:j]))
        assert len(table) == size ** live, (q, k, j)
        for e, value in enumerate(table):
            point = [(e >> (k * s)) & (size - 1) if s < live else 0 for s in range(q.n)]
            assert value == partial_value(q, schedule, field, j, point), (q, k, j, point)
    assert rounds == list(range(schedule.n_rounds, -1, -1))


@settings(max_examples=60, deadline=None)
@given(formulas(max_n=3))
def test_suffix_tables_match_partial_values_n3(q):
    # n = 3 puts a reduce round on x_1 and on x_2 inside block 3, whose
    # lines along x_2 are neither the table's lowest nor its top axis
    event(f"n={q.n}")
    _check_suffix_tables(q, 2)


@settings(max_examples=40, deadline=None)
@given(formulas(), st.sampled_from((3, 4)))
def test_suffix_tables_match_partial_values(q, k):
    _check_suffix_tables(q, k)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_honest_sweep_without_product_table(monkeypatch, k):
    # every product of the sweep from gf_mul one at a time, the path of
    # fields past _TABLE_MAX_K, against the prefix walk
    monkeypatch.setattr(purepy, "_TABLE_MAX_K", 0)
    texts = TRUE_SMALL + FALSE_SMALL + [SPARSE_MISFIT]
    if k == 3:  # without the table the prefix walk takes seconds on n = 2
        texts = [text for text in texts if "x2" not in text]
    verdicts = set()
    for text in texts:
        q = parse_qbf(text)
        for variant, schedule in _bound_variants(build_schedule(q)).items():
            verdict = honest_always_accepts(q, Field(k), schedule)
            assert verdict == oracle_always_accepts(q, Field(k), schedule), (text, variant)
            verdicts.add((eval_qbf(q), verdict))
    # true formulas accepted, and at k >= 2 some rejected past the chain
    assert (True, True) in verdicts and (k == 1 or (True, False) in verdicts)


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

    class TooWideFloats:
        def next_poly(self, j, r_prefix, sent):
            return (1.0, 0.0, 2.0)

    tr = run_with_randomness(q, f, TooWideFloats(), [0, 0])
    assert (tr.reject_round, tr.note) == (1, "degree bound exceeded")
    assert transcript_from_dict(json.loads(json.dumps(tr.to_dict()))) == tr


@pytest.mark.parametrize("msg", [(4,), (-1, 0), (2.0,), (0.0, 1.0), ("1",)])
def test_message_outside_field_rejected(msg):
    # no k-bit register holds such a coefficient: a rejection, not an error,
    # and the transcript can still be written out and read back
    q = parse_qbf("E x1 : x1")
    f = Field(2)
    s = build_schedule(q)
    tr = run_with_randomness(q, f, Replay([msg, (0, 1)]), [0, 0])
    assert (tr.accepted, tr.reject_round, tr.note) == (False, 1, "message not over the field")
    assert transcript_from_dict(json.loads(json.dumps(tr.to_dict()))) == tr
    assert check_transcript(q, s, f, (0, 0), (msg, (0, 1))) == 1
    honest = TranscriptOracle(q, f).correct_row((0, 0))
    assert check_transcript(q, s, f, (0, 0), (honest[0], msg)) == 2


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


class Replay:
    def __init__(self, f):
        self.f = f

    def next_poly(self, j, r_prefix, sent):
        return self.f[j - 1]


def reference_verdict(q, schedule, field, r, f):
    """(reject_round, note, messages read, challenges used), written out
    from the protocol's definition with the test copy of the round rule."""
    assign = [0] * q.n
    v = 1
    rounds = zip(schedule.kinds, schedule.tvars, schedule.degree_bounds, f)
    for j, (kind, t, bound, fj) in enumerate(rounds, 1):
        if poly_degree(fj) > bound:
            return j, "degree bound exceeded", j, j - 1
        if any(c not in field.elements() for c in fj):
            return j, "message not over the field", j, j - 1
        f0, f1 = field.poly_eval(fj, 0), field.poly_eval(fj, 1)
        if combine(kind, assign[t], f0, f1, field) != v:
            return j, None, j, j - 1
        assign[t] = r[j - 1]
        v = field.poly_eval(fj, r[j - 1])
    n_rounds = schedule.n_rounds
    if v != ref_formula(q.matrix, assign, field.g):
        return n_rounds, "final matrix check failed", n_rounds, n_rounds
    return None, None, n_rounds, n_rounds


@st.composite
def message_vectors(draw):
    """(q, field, schedule, r, f) at k <= 2. The messages start from an
    accepted vector for the drawn challenges (the full-lookahead one, or the
    honest row when none exists) and may change one round: either adding
    c(z + z^2), which keeps f(0) and f(1) but moves the carried claim or
    breaks a degree-1 cap, or sending a random tuple up to one degree past
    the cap, one of whose coefficients may lie outside the field. Runs end
    at every round, at the final matrix check, or in acceptance."""
    q = draw(formulas())
    field = Field(draw(st.sampled_from((1, 2))))
    schedule = build_schedule(q)
    elems = st.integers(0, field.order - 1)
    r = tuple(draw(elems) for _ in range(schedule.n_rounds))
    f = list(full_lookahead(q, field, schedule).row_phi(r))
    j = draw(st.integers(0, schedule.n_rounds))  # 0: no change
    if j:
        bound = schedule.degree_bounds[j - 1]
        if draw(st.booleans()):
            c = draw(st.integers(1, field.order - 1))
            a = f[j - 1] + (0,) * 3
            f[j - 1] = (a[0], a[1] ^ c, a[2] ^ c) + a[3:]
        else:
            fj = draw(st.lists(elems, min_size=1, max_size=bound + 2))
            if draw(st.booleans()):
                outside = st.integers(-2, -1) | st.integers(field.order, field.order + 2)
                fj[draw(st.integers(0, len(fj) - 1))] = draw(outside)
            f[j - 1] = tuple(fj)
    return q, field, schedule, r, tuple(f)


@settings(max_examples=150)
@given(message_vectors())
def test_verifier_loop_matches_reference(inst):
    q, field, schedule, r, f = inst
    reject_round, note, n_read, n_used = reference_verdict(q, schedule, field, r, f)
    event(f"reject_round={reject_round} note={note}")
    assert check_transcript(q, schedule, field, r, f) == reject_round
    tr = run_with_randomness(q, field, Replay(f), r, schedule)
    assert (tr.reject_round, tr.note, tr.accepted) == (reject_round, note, reject_round is None)
    assert tr.f == f[:n_read] and tr.r == r[:n_used]


def slow_reject_round(q, schedule, g, k, r, f):
    """``check_transcript`` written out on the reference arithmetic of
    ``test_kernels``: f(0), f(1) and f(r_j) by Horner on ``ref_mul``, the
    round rule from ``cheater_oracle`` and the matrix by tree recursion."""
    ref = SimpleNamespace(mul=lambda a, b: ref_mul(a, b, g))
    assign = [0] * q.n
    v = 1
    rounds = zip(schedule.kinds, schedule.tvars, schedule.degree_bounds, f, r)
    for j, (kind, t, bound, fj, rj) in enumerate(rounds, 1):
        if any(c for c in fj[bound + 1:]):
            return j
        if any(not 0 <= c < 1 << k for c in fj):
            return j
        f0, f1 = ref_horner(fj, 0, g), ref_horner(fj, 1, g)
        if combine(kind, assign[t], f0, f1, ref) != v:
            return j
        assign[t] = rj
        v = ref_horner(fj, rj, g)
    if v != ref_formula(q.matrix, tuple(assign), g):
        return schedule.n_rounds
    return None


DEGREE_THREE = parse_qbf("A x1 E x2 E x3 : (x1 | ~x2 | ~x3) & (x1 | x2 | x3) & (~x1 | ~x2 | x3)")


@st.composite
def slow_verifier_cases(draw):
    """(how, q, field, schedule, r, f) at k in {2, 3, 32, 64}: the honest
    messages for random challenges, as they are or with one round changed:
    one coefficient perturbed, a nonzero coefficient past the degree cap, a
    coefficient outside the field, no coefficients at all, the top ones cut
    off, zeros appended past the cap, or random coefficients of any length
    up to the cap's. The fixed formula's last rounds have degree cap 3."""
    q = draw(formulas(max_n=3) | st.just(DEGREE_THREE))
    field = Field(draw(st.sampled_from((2, 3, 32, 64))))
    schedule = build_schedule(q)
    elems = st.integers(0, field.order - 1)
    r = tuple(draw(elems) for _ in range(schedule.n_rounds))
    f = list(TranscriptOracle(q, field, schedule).correct_row(r))
    j = draw(st.integers(1, schedule.n_rounds))
    bound = schedule.degree_bounds[j - 1]
    fj = list(f[j - 1])
    how = draw(st.sampled_from(("honest", "perturbed", "over-degree", "outside", "empty",
                                "cut", "padded", "random")))
    if how == "perturbed":
        fj[draw(st.integers(0, len(fj) - 1))] ^= draw(st.integers(1, field.order - 1))
    elif how == "over-degree":
        fj += [0] * (bound + 1 - len(fj)) + [draw(st.integers(1, field.order - 1))]
    elif how == "outside":
        fj[draw(st.integers(0, len(fj) - 1))] = draw(
            st.integers(-2, -1) | st.integers(field.order, 2 * field.order))
    elif how == "empty":
        fj = []
    elif how == "cut":
        fj = fj[:draw(st.integers(1, len(fj) - 1))]
    elif how == "padded":
        fj += [0] * draw(st.integers(1, 3))
    elif how == "random":
        fj = draw(st.lists(elems, min_size=1, max_size=bound + 1))
    f[j - 1] = tuple(fj)
    return how, q, field, schedule, r, tuple(f)


@settings(max_examples=120)
@given(slow_verifier_cases())
def test_check_transcript_matches_slow_verifier(inst):
    # the verifier reads f(0) as the constant coefficient and f(1) as the
    # sum of all of them; the slow verifier evaluates both by Horner
    how, q, field, schedule, r, f = inst
    want = slow_reject_round(q, schedule, field.g, field.k, r, f)
    event(f"{how}, {'accepted' if want is None else 'rejected'}")
    assert check_transcript(q, schedule, field, r, f) == want


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


# sha256 of the sorted-key JSON of seeded honest transcripts, recorded before
# the kernels' fast paths (reduce shortcut, Boolean selects, cached Lagrange
# basis, comb multiply) went in: the honest messages must not change
_CLAUSES = "A x1 E x2 E x3 : (x1 | ~x2 | x3) & (~x1 | x2) & (x2 | ~x3)"
_MIXED = "E x1 A x2 E x3 : (x1 & ~x2) | (x2 & x3) | ~(x1 | x3)"
FROZEN_TRANSCRIPTS = {
    (_CLAUSES, 9, 0): "bbfb2e643451417bf3aec12463be35e5b99ade956a0671767b3388c5c65324e6",
    (_CLAUSES, 9, 1): "fc824c2ab5deb31ecf5cd83eb4f21f2ba89d6eaac2fe99e33235ad43557062a0",
    (_CLAUSES, 9, 2): "8f5408f428cbfab9557917913244f8b250e2d0b1aece707fb2fd5d86cd6d0367",
    (_CLAUSES, 32, 0): "dbbe6528cd1cbd122888f362c886001c3dd955203e4e99e410ca8fab94f23711",
    (_CLAUSES, 32, 1): "9185a66d656e1f95d1b88886b7258a030dcc973bc49a55dcef6f7c7181a2c191",
    (_CLAUSES, 32, 2): "0d073e306757f36a1fb88c2e06cdc11a479f064f15920968e77f7974f286517c",
    (_CLAUSES, 64, 0): "357214f7f92bc982acaf26e5e6612b8e508f60b322b2ebacc6b23878c89c6018",
    (_CLAUSES, 64, 1): "7541e4128ea062cae367c79116db251ffbd96fd704581e9059d1dce80a0a13b6",
    (_CLAUSES, 64, 2): "df7f8934e91a98927def44ee10bbde5171920972cdd7e08c43fd6eb8978017de",
    (_MIXED, 9, 0): "5848a48d38a68b9e4943ac1b07bf73dd8f13ae88664e9a66c9150f9665f1053b",
    (_MIXED, 9, 1): "49e3b0199bc994508c9b1778c7099c7b7440d132e927d277d4c1f3273301c2a8",
    (_MIXED, 9, 2): "2671263041bfd2154d88f5c8693a7dc911a02974ffe298dadc1ce15e75004604",
    (_MIXED, 32, 0): "364adee1ca10920f76080d67520bcb6b92cc14bf948896c44fdbba86f852c536",
    (_MIXED, 32, 1): "2211aa148f0b35147a21cdf55aef5cc76e4f6602e99bec05e0f63e32a55c48a0",
    (_MIXED, 32, 2): "45347f9b002f56e00ad23879b7d6c6a0e737c5b3289afec4bdce3a70a13f0576",
    (_MIXED, 64, 0): "bac4c67ac8234325a6ef9124fbe98eb21f2ee2d06c433c67e0c1071efd9533d3",
    (_MIXED, 64, 1): "e0652f12a7e1f72551cfd33a5c65625ade3e75f64980b8751a038fad8b08fd19",
    (_MIXED, 64, 2): "651d9ac3c5e0d02a6b2393a104e22dea6974bf6d2689f0a81b3df2324a823d9d",
}


def test_seeded_honest_transcripts_frozen():
    changed = []
    for (text, k, seed), want in FROZEN_TRANSCRIPTS.items():
        q, f = parse_qbf(text), Field(k)
        tr = run_protocol(q, f, honest_policy(q, f), rng=seed)
        assert tr.accepted
        doc = json.dumps(tr.to_dict(), sort_keys=True).encode()
        if hashlib.sha256(doc).hexdigest() != want:
            changed.append((text, k, seed))
    assert not changed


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


def test_lookahead_rows_messages_accepted():
    # the search's array form: 15 of the 16 rows won, (0, 0) lost, each
    # won row's messages an accepted transcript and a lost row's all zeros
    q = parse_qbf("A x1 : x1")
    f = Field(2)
    s = build_schedule(q)
    rows, won, msgs = lookahead_rows(FieldTables(q, f, s))
    assert rows.tolist() == [list(row) for row in itertools.product(f.elements(), repeat=2)]
    assert int(won.sum()) == 15 and not won[0]
    assert not msgs[0].any()
    for row, vec in zip(rows[won].tolist(), msgs[won].tolist()):
        assert transcript_valid(q, s, f, row, [tuple(p) for p in vec]), row


def test_accepting_rows_true_formula_all_win():
    q = parse_qbf("E x1 : x1")
    f = Field(2)
    s = build_schedule(q)
    _, won, _ = lookahead_rows(FieldTables(q, f, s))
    assert len(won) == 16 and won.all()
