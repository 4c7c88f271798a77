"""Interactive sumcheck protocol for prenex QBF over GF(2^k).

The operator schedule interleaves quantifiers with degree reductions: the
i-th quantifier is followed by reductions of x_1..x_i, so every round's claim
concerns a low-degree univariate polynomial. With n variables there are
N = n(n+1)/2 + n rounds:

    Q1 x1, R x1, Q2 x2, R x1, R x2, ..., Qn xn, R x1, ..., R xn

``build_schedule`` compiles this chain and the matrix once, into the
kernels' int encoding (``RoundSchedule``): the verifier, the honest prover,
the sweep and the cheater search all read that one program. The honest
prover computes each message as a polynomial in its round variable, in one
walk of the suffix (``_kernels.honest_message``), the walk that gives
``partial_value`` (``_kernels.purepy._suffix``). The sweep walks no
suffix: it builds each round's suffix values at every point as one table,
bottom-up from the matrix (``_kernels.purepy._suffix_tables``), with the
same round rule. It uses none of the prover's polynomial arithmetic: it
shows that messages interpolated from those values are always accepted,
and the tests show that the prover's messages are those interpolants and
that every table entry is the partial value at its point.

Round j: the prover sends coefficients f_j (degree capped per round), the
verifier combines f_j(0) and f_j(1) with the round operator's rule and
compares against the running claim, then draws a uniform field element r_j
and carries f_j(r_j) forward. After round N the claim must equal the
arithmetized matrix at the accumulated assignment. Combine rules
(``_kernels.combine``), writing rho for the variable's value before the
round (characteristic 2):

    forall   f(0) * f(1)
    exists   f(0) + f(1) + f(0) f(1)
    reduce   (1 + rho) f(0) + rho f(1)

The initial claim is 1: with {0,1}-exact arithmetization the full operator
chain evaluates to the formula's truth value, so an honest run on a true
formula never trips a check, and on a false formula the very first message
already contradicts the claim.

The full-lookahead search counts won rows (``winnable_rows``) or gives
every row's messages as arrays (``lookahead_rows``), the one message table
``quantum.full_lookahead`` reads. Only that search, the optimal cheater and
the verifier on arrays that checks its messages (``verify_rows``) build
numpy tables, so numpy is imported inside those functions: the scalar
verifier, the honest prover and the sweep run without loading it.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Protocol

from . import _kernels
from .gf2k import Field, UniPoly, poly_degree
from .qbf import PrenexQbf, compile_matrix, degree_profile

if TYPE_CHECKING:
    import numpy as np

MAX_PARTIAL_LEAVES = 1 << 22
MAX_SWEEP_DRAWS = 1 << 22
MAX_SEARCH_WORK = 1 << 26


class ProtocolSizeError(RuntimeError):
    """Instance exceeds a configured exhaustive-computation cutoff."""


@dataclass(frozen=True)
class RoundSchedule:
    """The compiled round program. Round j applies operator ``kinds[j-1]``
    (a ``_kernels.K_*`` code) to variable ``tvars[j-1]`` (0-based), and its
    message has degree at most ``degree_bounds[j-1]``; ``prog`` is the
    matrix as a kernel postfix program (``compile_matrix``)."""

    kinds: tuple[int, ...]
    tvars: tuple[int, ...]
    degree_bounds: tuple[int, ...]
    degree_bound: int  # d = max(2, structural degree of the matrix)
    prog: tuple[int, ...]

    @property
    def n_rounds(self) -> int:
        return len(self.kinds)


def build_schedule(q: PrenexQbf) -> RoundSchedule:
    per_var, d = degree_profile(q)
    kinds: list[int] = []
    tvars: list[int] = []
    bounds: list[int] = []
    for i, quant in enumerate(q.quantifiers):
        kinds.append(_kernels.K_FORALL if quant == "A" else _kernels.K_EXISTS)
        tvars.append(i)
        bounds.append(1)
        last_block = i == q.n - 1
        for t in range(i + 1):
            kinds.append(_kernels.K_REDUCE)
            tvars.append(t)
            bounds.append(max(2, per_var[t]) if last_block else 2)
    return RoundSchedule(tuple(kinds), tuple(tvars), tuple(bounds), d,
                         compile_matrix(q.matrix))


def _suffix_evaluations(schedule: RoundSchedule, j: int, assignment: Sequence[int]) -> int:
    """Formula evaluations ``quantified_value`` makes for the suffix after
    round j at this assignment: 2 to the number of suffix rounds that
    branch. A quantifier round always branches; a reduce round branches only
    when its variable holds neither 0 nor 1, and each branch leaves that
    variable Boolean."""
    boolean = [a <= 1 for a in assignment]
    branching = 0
    for kind, t in zip(schedule.kinds[j:], schedule.tvars[j:]):
        if kind != _kernels.K_REDUCE or not boolean[t]:
            branching += 1
            boolean[t] = True
    return 1 << branching


def _check_suffix(schedule: RoundSchedule, field: Field, j: int,
                  assignment: Sequence[int]) -> list[int]:
    """The element checks and the size guard for evaluating the suffix
    after round j at this assignment; returns the checked ints."""
    assign = [field.check(a) for a in assignment]
    # the count never exceeds 2^(N-j), so a shorter suffix needs no count
    if ((1 << (schedule.n_rounds - j)) > MAX_PARTIAL_LEAVES
            and _suffix_evaluations(schedule, j, assign) > MAX_PARTIAL_LEAVES):
        raise ProtocolSizeError("operator suffix too deep for exact evaluation")
    return assign


def partial_value(
    q: PrenexQbf,
    schedule: RoundSchedule,
    field: Field,
    j: int,
    assignment: Sequence[int],
) -> int:
    """Value of the operator suffix after round j at the given assignment.

    j=0 is the whole chain (the truth value on a valid instance); j=N leaves
    no operators and returns the arithmetized matrix value.
    """
    n_rounds = schedule.n_rounds
    if not 0 <= j <= n_rounds:
        raise ValueError(f"round index {j} outside 0..{n_rounds}")
    if len(assignment) != q.n:
        raise ValueError(f"assignment must have {q.n} entries")
    assign = _check_suffix(schedule, field, j, assignment)
    return field.ops.quantified_value(schedule.kinds, schedule.tvars, j, schedule.prog,
                                      assign, field.g, field.k, {})


def _prefix_assignment(schedule: RoundSchedule, n: int, r_prefix: Sequence[int]) -> list[int]:
    assign = [0] * n
    for t, r in zip(schedule.tvars, r_prefix):
        assign[t] = r
    return assign


def correct_polynomial(
    q: PrenexQbf,
    schedule: RoundSchedule,
    field: Field,
    j: int,
    r_prefix: Sequence[int],
    memo: dict[int, int | Sequence[int]] | None = None,
) -> UniPoly:
    """The honest round-j message: the suffix value as a polynomial in the
    round variable, min(d_j + 1, |F|) coefficients, computed in one walk of
    the suffix with the round variable held symbolic
    (``_kernels.honest_message``). It equals the interpolant through
    z < min(d_j + 1, |F|): when the field is smaller than the degree cap,
    the minimal-degree representative agreeing on all of F, which every
    check evaluates.

    ``memo`` holds the suffix values the walk (``_kernels.purepy._suffix``)
    meets at Boolean points: scalar ones where every variable is 0 or 1,
    and symbolic ones, the suffix as a polynomial in the round variable
    where every other variable is 0 or 1. Neither depends on a challenge,
    so a later message reads every sub-walk that reaches such a point from
    it. A caller that asks for many messages of one instance passes the
    same dict each time; without one, the call uses a fresh dict."""
    if not 1 <= j <= schedule.n_rounds:
        raise ValueError(f"round index {j} outside 1..{schedule.n_rounds}")
    if len(r_prefix) != j - 1:
        raise ValueError(f"round {j} needs {j - 1} prior challenges")
    assign = _prefix_assignment(schedule, q.n, r_prefix)
    t = schedule.tvars[j - 1]
    npts = min(schedule.degree_bounds[j - 1] + 1, field.order)
    # The guard counts the evaluations of the point walk at the last
    # abscissa, non-Boolean whenever any is; the symbolic walk makes no more
    # than the point walks at every abscissa together.
    assign[t] = npts - 1
    assign = _check_suffix(schedule, field, j, assign)
    if memo is None:
        memo = {}
    return tuple(_kernels.honest_message(schedule.kinds, schedule.tvars, j, schedule.prog,
                                         assign, npts, field.g, field.k, memo))


# ---------------------------------------------------------------------------
# Verifier predicate and transcripts.


def check_transcript(
    q: PrenexQbf,
    schedule: RoundSchedule,
    field: Field,
    r: Sequence[int],
    f: Sequence[Sequence[int]],
) -> Optional[int]:
    """First round whose check fails (1-based; the final matrix comparison
    counts as round N), or None when the verifier accepts."""
    n_rounds = schedule.n_rounds
    if len(r) != n_rounds or len(f) != n_rounds:
        raise ValueError(f"transcript must carry {n_rounds} rounds")
    return _verify(q, schedule, field, lambda j, r_prefix, sent: f[j - 1], r).reject_round


def transcript_valid(
    q: PrenexQbf,
    schedule: RoundSchedule,
    field: Field,
    r: Sequence[int],
    f: Sequence[Sequence[int]],
) -> bool:
    return check_transcript(q, schedule, field, r, f) is None


@dataclass(frozen=True)
class Transcript:
    n: int
    n_rounds: int
    k: int
    g: int
    r: tuple[int, ...]
    f: tuple[UniPoly, ...]
    accepted: bool
    reject_round: Optional[int] = None
    note: Optional[str] = None

    def to_dict(self) -> dict:
        doc = {
            "n": self.n,
            "N": self.n_rounds,
            "k": self.k,
            "g": format(self.g, "x"),
            "r": [format(x, "x") for x in self.r],
            "f": [[format(c, "x") for c in poly] for poly in self.f],
            "verdict": "accept" if self.accepted else "reject",
            "reject_round": self.reject_round,
        }
        if self.note is not None:
            doc["note"] = self.note
        return doc


def transcript_from_dict(doc: dict) -> Transcript:
    return Transcript(
        n=doc["n"],
        n_rounds=doc["N"],
        k=doc["k"],
        g=int(doc["g"], 16),
        r=tuple(int(x, 16) for x in doc["r"]),
        f=tuple(tuple(int(c, 16) for c in poly) for poly in doc["f"]),
        accepted=doc["verdict"] == "accept",
        reject_round=doc.get("reject_round"),
        note=doc.get("note"),
    )


# ---------------------------------------------------------------------------
# Prover policies and protocol runs.


class ProverPolicy(Protocol):
    def next_poly(
        self, j: int, r_prefix: tuple[int, ...], sent: tuple[UniPoly, ...]
    ) -> Sequence[int]:
        """Message for round j given the challenges and messages so far."""
        ...


class TranscriptOracle:
    """The honest prover: the correct polynomial every round. ``next_poly``,
    the ``ProverPolicy`` method, answers one round of a classical run, and
    ``correct_row`` gives a whole challenge row's messages, as the quantum
    provers read them. Each message is one walk of the operator suffix with
    the round variable held symbolic (``correct_polynomial``), the walk
    ``partial_value`` takes at a point, and ``_memo`` keeps that walk's
    values at Boolean points, scalar and symbolic, for every message of
    every run. Round j's message depends only on r_1..r_{j-1}, so
    ``correct_row`` also keeps one message per challenge prefix in
    ``_rows``, shared by the rows with that prefix; ``next_poly`` stores
    nothing there, so a classical run caches no prefix."""

    def __init__(self, q: PrenexQbf, field: Field, schedule: RoundSchedule | None = None):
        self.q = q
        self.field = field
        self.schedule = schedule or build_schedule(q)
        self._rows: dict[tuple[int, ...], UniPoly] = {}
        self._memo: dict[int, int | Sequence[int]] = {}

    def next_poly(self, j, r_prefix, sent):
        return correct_polynomial(self.q, self.schedule, self.field, j, r_prefix, self._memo)

    def correct_row(self, r_row: tuple[int, ...]) -> tuple[UniPoly, ...]:
        n_rounds = self.schedule.n_rounds
        if len(r_row) != n_rounds:
            raise ValueError(f"need {n_rounds} challenges")
        out = []
        for j in range(1, n_rounds + 1):
            prefix = r_row[: j - 1]
            poly = self._rows.get(prefix)
            if poly is None:
                poly = correct_polynomial(self.q, self.schedule, self.field, j, prefix,
                                          self._memo)
                self._rows[prefix] = poly
            out.append(poly)
        return tuple(out)


def honest_policy(q: PrenexQbf, field: Field) -> TranscriptOracle:
    return TranscriptOracle(q, field)


def run_with_randomness(
    q: PrenexQbf,
    field: Field,
    policy: ProverPolicy,
    r_seq: Sequence[int],
    schedule: RoundSchedule | None = None,
) -> Transcript:
    """Drive one interaction with the given challenge string. The verifier
    stops at the first failed check, a message coefficient outside the field
    included, and a message that is not integers is left out of the
    transcript; a policy exception other than ProtocolSizeError is recorded
    as a rejection at the round it occurred."""
    schedule = schedule or build_schedule(q)
    if len(r_seq) != schedule.n_rounds:
        raise ValueError(f"need {schedule.n_rounds} challenges")
    return _verify(q, schedule, field, policy.next_poly, r_seq)


def _verify(q: PrenexQbf, schedule: RoundSchedule, field: Field,
            next_poly: Callable, r_seq: Sequence[int]) -> Transcript:
    """The verifier loop shared by live runs and finished transcripts;
    ``next_poly`` has the signature of ``ProverPolicy.next_poly``. A
    ProtocolSizeError from the prover propagates: a cutoff says nothing
    about the claim."""
    n_rounds = schedule.n_rounds
    assign = [0] * q.n
    v = 1
    sent: list[UniPoly] = []
    r_used: list[int] = []

    def reject(j: int, note: str | None = None) -> Transcript:
        return Transcript(
            q.n, n_rounds, field.k, field.g,
            tuple(r_used), tuple(sent), False, j, note,
        )

    for j, (kind, t) in enumerate(zip(schedule.kinds, schedule.tvars), 1):
        try:
            fj = tuple(next_poly(j, tuple(r_used), tuple(sent)))
        except ProtocolSizeError:
            raise
        except Exception as exc:  # prover failure is a protocol rejection
            return reject(j, f"prover error: {exc!r}")
        # a transcript keeps a message only as ints, so it can be written out
        try:
            ints = tuple(map(operator.index, fj))
        except TypeError:
            ints = None
        else:
            sent.append(ints)
        if poly_degree(fj) > schedule.degree_bounds[j - 1]:
            return reject(j, "degree bound exceeded")
        if ints is None or not all(0 <= c < field.order for c in ints):
            return reject(j, "message not over the field")
        fj = ints
        # f(0) is the constant coefficient, f(1) the sum of them all
        f0 = fj[0] if fj else 0
        f1 = functools.reduce(operator.xor, fj, 0)
        if _kernels.combine(kind, assign[t], f0, f1, field.g, field.k) != v:
            return reject(j)
        rj = field.check(r_seq[j - 1])
        r_used.append(rj)
        assign[t] = rj
        v = field.ops.poly_eval(fj, rj, field.g, field.k)
    # every entry of assign is a challenge, already checked
    if v != field.ops.eval_formula(schedule.prog, assign, field.g, field.k):
        return reject(n_rounds, "final matrix check failed")
    return Transcript(
        q.n, n_rounds, field.k, field.g, tuple(r_used), tuple(sent), True, None
    )


def run_protocol(
    q: PrenexQbf,
    field: Field,
    policy: ProverPolicy,
    rng: random.Random | int = 0,
    schedule: RoundSchedule | None = None,
) -> Transcript:
    """One seeded run on the challenges ``draw_challenges`` gives."""
    schedule = schedule or build_schedule(q)
    r_seq = draw_challenges(field, schedule.n_rounds, rng)
    return run_with_randomness(q, field, policy, r_seq, schedule)


def draw_challenges(field: Field, n_rounds: int, rng: random.Random | int) -> list[int]:
    """The challenge string of one seeded run: ``n_rounds`` k-bit draws from
    the PRNG, or from ``random.Random(rng)`` for an int. An int seed must be
    non-negative, since ``random.Random(-s)`` draws what ``random.Random(s)``
    draws."""
    if isinstance(rng, int):
        if rng < 0:
            raise ValueError(f"seed must be non-negative, not {rng}")
        rng = random.Random(rng)
    return [rng.getrandbits(field.k) for _ in range(n_rounds)]


def sweep_size(field: Field, schedule: RoundSchedule) -> int:
    """|F|^N, the number of challenge strings an exhaustive sweep covers;
    raises ProtocolSizeError past ``MAX_SWEEP_DRAWS``."""
    draws = field.order ** schedule.n_rounds
    if draws > MAX_SWEEP_DRAWS:
        raise ProtocolSizeError("challenge space exceeds the exhaustive cutoff")
    return draws


def honest_always_accepts(
    q: PrenexQbf,
    field: Field,
    schedule: RoundSchedule | None = None,
) -> bool:
    """Whether the honest prover is accepted on every challenge string,
    checked round by round: each honest message must equal the true suffix
    value at every r in F, for every setting of the variables bound before
    its round. ``_kernels.honest_sweep`` checks the chain's value at one
    point, then holds each round's suffix values at every point in one
    table, built from the next round's table. The cutoff stays |F|^N, the
    number of challenge strings, though the tables hold at most |F|^n
    values each."""
    schedule = schedule or build_schedule(q)
    sweep_size(field, schedule)
    return field.ops.honest_sweep(schedule.kinds, schedule.tvars, schedule.degree_bounds,
                                  schedule.prog, q.n, field.g, field.k)


# ---------------------------------------------------------------------------
# Optimal cheating prover and full-lookahead search (exact, bottom-up).

# Entries in one block of the cheater DP (assignments x candidates) and of
# the lookahead search (challenge rows x pairs of field elements).
_SCORE_BLOCK = 1 << 20
# Entries in one chunk of the cheater's claim selection (assignments x rhos x
# pairs). It keeps five arrays of that size at once, so it takes fewer
# entries than a score block: at n=2, k=5 a whole block's rhos at once would
# raise the peak from 76 to 91 MiB.
_SELECT_BLOCK = 1 << 16


def _digit_rows(order: int, width: int, dtype=int) -> np.ndarray:
    """Every width-tuple over range(order), one row each, in
    ``itertools.product`` order (the last position varies fastest)."""
    import numpy as np

    return np.indices((order,) * width, dtype=dtype).reshape(width, order ** width).T


class FieldTables:
    """The tables both searches and ``verify_rows`` read, for the one
    instance (``q``, ``field``, ``schedule``) they were built for: the
    field's product table ``mul`` and inverse table ``inv`` (``inv[0]`` is
    0); for each kind code in the schedule ``combine[kind][rho, f0, f1]``,
    the verifier's round rule (``_kernels.purepy.combine_on``) on index
    arrays, with the multiply read from the product table; and ``matrix``,
    the matrix value at every point of F^n, evaluated on first read. Building
    raises ProtocolSizeError past the search cutoff, before any evaluation.

    ``mul`` is the kernels' own product table (``_kernels.purepy._table``,
    built once per field and process), read from ``purepy`` itself rather
    than ``field.ops``, whose counting proxy carries no ``_table``. The
    search cutoff keeps k <= 5 (every schedule has n >= 1 and a degree cap
    of at least 2, so |F|^3 * |F|^2 <= 2^26), so the table path always
    applies; a field past ``_TABLE_MAX_K`` raises ValueError."""

    def __init__(self, q: PrenexQbf, field: Field, schedule: RoundSchedule):
        import numpy as np

        self.q, self.field, self.schedule = q, field, schedule
        order = field.order
        dmax = max(schedule.degree_bounds)
        if order ** (dmax + 1) * order ** (q.n + 1) > MAX_SEARCH_WORK:
            raise ProtocolSizeError("candidate search space exceeds the cutoff")
        if field.k > _kernels.purepy._TABLE_MAX_K:
            raise ValueError(f"no product table for k = {field.k}")
        small = np.min_scalar_type(order - 1)  # field elements; sorts by radix
        self.elems = elems = np.arange(order, dtype=small)
        self.mul = mul = np.array(_kernels.purepy._table(field.g, field.k), dtype=small)
        self.inv = (mul == 1).argmax(axis=1).astype(small)
        self.combine: dict[int, np.ndarray] = {}
        for kind in schedule.kinds:
            if kind not in self.combine:
                rule = _kernels.purepy.combine_on(
                    lambda a, b, g, k: mul[a, b], operator.xor, kind,
                    elems[:, None, None], elems[:, None], elems, field.g, field.k)
                self.combine[kind] = np.broadcast_to(rule, (order,) * 3)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """matrix[c]: the matrix value at the c-th point of F^n in
        ``itertools.product`` order (``_digit_rows``), read-only."""
        import numpy as np

        field, prog = self.field, self.schedule.prog
        values = np.array([field.ops.eval_formula(prog, a, field.g, field.k)
                           for a in _digit_rows(field.order, self.q.n).tolist()], dtype=np.intp)
        values.flags.writeable = False
        return values

    def matrix_at(self, assign: np.ndarray) -> np.ndarray:
        """The matrix value at each row of ``assign`` (rows x n)."""
        import numpy as np

        n = self.q.n
        return self.matrix[assign @ self.field.order ** np.arange(n - 1, -1, -1)]


def _candidate_values(tables: FieldTables, bound: int) -> np.ndarray:
    """values[r, c]: the c-th coefficient tuple of length ``bound`` + 1 in
    ``itertools.product`` order, as a polynomial, at field element r; a row
    per r, so that scoring reads each row whole. From the empty tuple, each
    pass puts a coefficient c in front of every tuple p so far:
    c + z * p(z)."""
    import numpy as np

    elems, mul = tables.elems, tables.mul
    values = np.zeros((len(elems), 1), dtype=elems.dtype)
    for _ in range(bound + 1):
        values = (elems[:, None] ^ mul[values, elems[:, None]][:, None]).reshape(len(elems), -1)
    return values


def _pair_index(order: int, bound: int) -> np.ndarray:
    """idx[x, p]: among the candidates of degree at most D = ``bound`` that
    share c_0, the product-order offset of the one whose prefix
    (c_1 ... c_(D-1)) is the p-th in product order and whose tail sum
    c_1 + ... + c_D is x, so c_D = x + c_1 + ... + c_(D-1). Its f(0) is c_0
    and its f(1) is c_0 + x, and the offsets grow with p: row x lists the
    candidates with f(0), f(1) = c_0, c_0 + x in product order."""
    import numpy as np

    prefixes = _digit_rows(order, bound - 1)
    sums = np.bitwise_xor.reduce(prefixes, axis=1)
    return np.arange(len(prefixes)) * order + (np.arange(order)[:, None] ^ sums)


class TabulatedPolicy:
    """Policy replaying per-state choices computed by a solver. The state
    (round, assignment, running claim) is read off the challenge prefix and
    the last message sent: the claim is that message at the last challenge,
    1 before round 1."""

    def __init__(self, q: PrenexQbf, field: Field, schedule: RoundSchedule,
                 choice: dict, value: Fraction):
        self.q = q
        self.field = field
        self.schedule = schedule
        self.choice = choice
        self.value = value

    def next_poly(self, j, r_prefix, sent):
        assign = tuple(_prefix_assignment(self.schedule, self.q.n, r_prefix))
        v = self.field.poly_eval(sent[-1], r_prefix[-1]) if sent else 1
        return self.choice[(j, assign, v)]


def optimal_cheater(
    q: PrenexQbf,
    field: Field,
    schedule: RoundSchedule | None = None,
) -> tuple[TabulatedPolicy, Fraction]:
    """Best possible acceptance probability over all prover strategies, with
    a policy achieving it; the value is an exact rational with denominator
    dividing |F|^N.

    Bottom-up DP over rounds j = N..1. V_j[a, v] is the best acceptance
    count from round j with assignment a and running claim v, scaled to an
    integer by |F|^(N-j+1); V_{N+1}[a, v] is 1 when v is the matrix value at
    a. Every coefficient tuple c within the round's degree cap D is scored
    at once as score[c] = sum_r V_{j+1}[a with x_t = r, c(r)], in blocks of
    assignments.

    The round rule reads only f(0) = c_0 and f(1) = c_0 + x, where x is the
    tail sum c_1 + ... + c_D. So the candidates fall into |F|^2 pair groups
    (c_0, x), each listed in product order by ``_pair_index``, and the
    first maximum of each group is its best candidate. V_j[a, v] is then the
    best of the pairs whose combine value (``FieldTables.combine``) is v
    under the round variable's value rho: one segmented maximum over the
    pairs sorted by claim, for a chunk of rhos at a time. Ties go to the
    first tuple in ``itertools.product`` order. Every assignment reachable
    at round j (variables not yet bound are 0) is solved for every claim, so
    ``policy.choice`` covers all of those states. Counts are int64 when
    k*N <= 62 and Python ints otherwise.

    The candidate values take |F|^(D+2) bytes. Past the search cutoff, k=7
    is the top for D=2: at k=8 they alone would take 4 GiB."""
    import numpy as np

    schedule = schedule or build_schedule(q)
    tables = FieldTables(q, field, schedule)
    order, n, n_rounds = field.order, q.n, schedule.n_rounds
    zs = np.arange(order)
    pairs = order * order
    weight = order ** np.arange(n - 1, -1, -1, dtype=np.int64)  # code = a @ weight
    dtype = np.int64 if field.k * n_rounds <= 62 else object
    # round N+1: every variable is bound, only the final matrix check is left;
    # the codes of F^n in product order are 0, 1, ...
    counts = np.zeros((order ** n, order), dtype=dtype)  # V_j[code(a), v]
    counts[np.arange(order ** n), tables.matrix] = 1
    by_bound: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    choice: dict[tuple, UniPoly] = {}
    for j in range(n_rounds, 0, -1):
        kind, t = schedule.kinds[j - 1], schedule.tvars[j - 1]
        bound = schedule.degree_bounds[j - 1]
        if bound not in by_bound:
            by_bound[bound] = _candidate_values(tables, bound), _pair_index(order, bound)
        evals, idx = by_bound[bound]
        size = order ** bound  # candidates per c_0
        places = order ** np.arange(bound, -1, -1)
        bound_vars = set(schedule.tvars[: j - 1])
        rhos = zs if t in bound_vars else zs[:1]
        # claims[i, a |F| + x]: the claim that f(0), f(1) = a, a + x meet
        # under rhos[i]. Every rule reaches every claim (forall at 1, v;
        # exists at v, 0; reduce at v, v), so sorted by claim a row falls
        # into |F| nonempty runs: ``by_claim`` sorts it, ``sizes`` and
        # ``starts`` cut it.
        claims = tables.combine[kind][rhos[:, None, None], zs[:, None], zs[:, None] ^ zs]
        claims = claims.reshape(len(rhos), pairs)
        by_claim = np.argsort(claims, axis=1, kind="stable")
        sizes = np.bincount((claims + zs[:len(rhos), None] * order).ravel(),
                            minlength=len(rhos) * order).reshape(len(rhos), order)
        starts = sizes.cumsum(axis=1) - sizes
        free = sorted(bound_vars - {t})
        bases = np.zeros((order ** len(free), n), dtype=np.int64)
        bases[:, free] = _digit_rows(order, len(free))
        below, counts = counts, np.zeros_like(counts)
        step = max(1, _SCORE_BLOCK // (order * size))
        for lo in range(0, len(bases), step):
            block = bases[lo: lo + step]
            codes = block @ weight
            # kids[b, r, e] = V_{j+1}[block[b] with x_t = r, e]
            kids = below[codes[:, None] + zs * weight[t]]
            score = sum(kids[:, r, evals[r]] for r in range(order))
            # grouped[b, a, x, p]: the p-th candidate with f(0), f(1) = a, a + x
            grouped = score.reshape(len(block), order, size)[:, :, idx]
            first = grouped.argmax(axis=3)  # first maximum: product order
            best = grouped.max(axis=3).reshape(len(block), -1)
            picks = (zs[:, None] * size + idx[zs, first]).reshape(len(block), -1)
            chunk = max(1, _SELECT_BLOCK // (len(block) * pairs))
            for i in range(0, len(rhos), chunk):
                some = rhos[i: i + chunk]
                # the pairs of each rho in ``some``, sorted by claim, side by side
                cols = by_claim[i: i + chunk].ravel()
                cuts = (starts[i: i + chunk] + np.arange(len(some))[:, None] * pairs).ravel()
                got = best[:, cols]
                top = np.maximum.reduceat(got, cuts, axis=1)
                # among the pairs at the top, the least product index
                tied = got == np.repeat(top, sizes[i: i + chunk].ravel(), axis=1)
                pick = np.minimum.reduceat(np.where(tied, picks[:, cols], order * size),
                                           cuts, axis=1)
                counts[codes[:, None] + some * weight[t]] = top.reshape(len(block), -1, order)
                states = np.repeat(block[:, None], len(some), axis=1)
                states[:, :, t] = some
                polys = (pick[..., None] // places % order).reshape(-1, bound + 1)
                keys = [(j, a, v) for a in map(tuple, states.reshape(-1, n).tolist())
                        for v in range(order)]
                choice.update(zip(keys, map(tuple, polys.tolist())))
    p = Fraction(int(counts[0, 1]), order ** n_rounds)
    return TabulatedPolicy(q, field, schedule, choice, p), p


def _free_width(order: int, n_rounds: int) -> int:
    """How many trailing challenges a block of the lookahead search leaves
    free: the most whose rows, |F|^2 pairs each, fit in ``_SCORE_BLOCK``
    entries (none when one row is already past it)."""
    width = 0
    while width < n_rounds and order ** (width + 3) <= _SCORE_BLOCK:
        width += 1
    return width


def _first_tails(tables: FieldTables, bound: int, r, a, b, e):
    """The first message of degree at most D = ``bound`` in
    ``itertools.product`` order with f(0), f(1), f(r) = a, b, e, on index
    arrays that broadcast together: (found, p, q), the message being
    (a, 0, ..., 0, p, q), or (a, q) when D = 1.

    With x = a + b and y = a + e, the tail c_1..c_D must sum to x and have
    c_1 r + ... + c_D r^D = y. When D = 1 or r is 0 or 1, the first equation
    fixes the second: the tail is (0, ..., 0, x), found when e = a + x r.
    Otherwise c_1..c_(D-2) are 0, and c_(D-1) + c_D = x with
    c_(D-1) r^(D-1) + c_D r^D = y, a system of determinant r^(D-1) (r + 1),
    which is not 0: c_D = q = (y / r^(D-1) + x) / (r + 1) and
    c_(D-1) = p = x + q."""
    import numpy as np

    mul, inv = tables.mul, tables.inv
    x = a ^ b
    found = a ^ mul[x, r] == e
    if bound == 1:
        return found, 0, x
    generic = r > 1
    top = r  # r^(D-1)
    for _ in range(bound - 2):
        top = mul[top, r]
    q = np.where(generic, mul[mul[a ^ e, inv[top]] ^ x, inv[r ^ 1]], x)
    return found | generic, np.where(generic, x ^ q, 0), q


def _reach(tables: FieldTables, bound: int, r: np.ndarray, win: np.ndarray) -> np.ndarray:
    """reach[i, a, b]: whether a message of degree at most ``bound`` with
    f(0), f(1) = a, b has its value at r[i] in the set win[i], a boolean row
    over F. When the degree cap is 1 or r[i] is 0 or 1, the value is
    a + (a + b) r[i] (``_first_tails``); otherwise every value is reached."""
    import numpy as np

    elems = tables.elems
    values = elems[:, None] ^ tables.mul[elems[:, None] ^ elems, r[:, None, None]]
    reach = win[np.arange(len(win))[:, None, None], values]
    if bound > 1:
        reach |= ((r > 1) & win.any(axis=1))[:, None, None]
    return reach


def _distinct_rows(sets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a boolean array, and each row's index among
    them: one sort of the rows packed into bytes."""
    import numpy as np

    packed = np.packbits(sets, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return sets[first], inverse.ravel()


def _round_inputs(schedule: RoundSchedule, n: int, rows: np.ndarray
                  ) -> tuple[list[tuple[int, int, np.ndarray, np.ndarray]], np.ndarray]:
    """What the verifier reads each round on every challenge row at once:
    per round (kind code, degree cap, rho, r_j), rho the round variable's
    value before the round and r_j the challenge, one entry per row; and
    each row's final assignment."""
    import numpy as np

    assign = np.zeros((len(rows), n), dtype=np.intp)
    rounds = []
    for j, (kind, t, bound) in enumerate(zip(schedule.kinds, schedule.tvars,
                                             schedule.degree_bounds)):
        rounds.append((kind, bound, assign[:, t].copy(), rows[:, j]))
        assign[:, t] = rows[:, j]
    return rounds, assign


def _lookahead_search(tables: FieldTables, prefix: Sequence[int], send: bool
                      ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The full-lookahead search on the block of challenge rows that start
    with ``prefix``: the rows in product order, whether each has a message
    vector the verifier accepts, and with ``send`` those vectors, one array
    per round of the won rows' messages in order, degree cap + 1 field
    elements each (dtype ``tables.elems.dtype``).

    The verifier reads round j's message only through f(0), f(1) and
    f(r_j), and the first message in ``itertools.product`` order with given
    values has a closed form (``_first_tails``), so no candidate is
    enumerated. With the row fixed, round j's assignment is fixed too, so
    the state is just the claim v. A backward pass builds the win sets,
    boolean rows over F: win_{N+1} holds the matrix value at the row's final
    assignment, and win_j holds v when some pair f(0), f(1) with combine
    value v has a message whose value at r_j is in win_{j+1} (``_reach``).
    win_j depends on the row only through rho, r_j and win_{j+1}, so each
    round computes it once per distinct triple, and keeps each distinct set
    once. A forward pass from claim 1 then sends, each round, the first
    message in product order whose combine value is the claim and whose
    child claim can still win: the message vector a depth-first search in
    product order finds."""
    import numpy as np

    schedule = tables.schedule
    order, n_rounds = tables.field.order, schedule.n_rounds
    rows = np.empty((order ** (n_rounds - len(prefix)), n_rounds), dtype=np.intp)
    rows[:, :len(prefix)] = prefix
    rows[:, len(prefix):] = _digit_rows(order, n_rounds - len(prefix))
    rounds, assign = _round_inputs(schedule, tables.q.n, rows)
    at = tables.matrix_at(assign)
    # win_{N+1}, and each win set after it, as (its distinct sets, the row's
    # index into them); steps[j - 1] holds round j's reach for each
    # distinct (win_{j+1}, rho, r_j) and each row's index into those
    sets = np.eye(order, dtype=bool)
    wins = [(sets, at)]
    steps = []
    for kind, bound, rho, r in reversed(rounds):
        # past a degree cap of 1, the closed forms read only whether r_j is
        # 0, 1 or neither
        r_class = r if bound == 1 else np.minimum(r, 2)
        keys, inverse = np.unique((at * order + rho) * order + r_class, return_inverse=True)
        which, key_rho, key_r = keys // (order * order), keys // order % order, keys % order
        reach = _reach(tables, bound, key_r, sets[which])
        i, a, b = np.nonzero(reach)
        claims = np.zeros((len(keys), order), dtype=bool)
        claims[i, tables.combine[kind][key_rho[i], a, b]] = True
        sets, index = _distinct_rows(claims)
        at = index[inverse.ravel()]
        wins.append((sets, at))
        steps.append((reach, inverse.ravel()))
    wins.reverse()  # wins[j - 1] is win_j
    steps.reverse()
    won = sets[at, 1]
    if not send:
        return rows, won, []
    live = np.flatnonzero(won)
    each = np.arange(len(live))
    v = np.ones(len(live), dtype=np.intp)
    elems = tables.elems
    sent = []
    for (kind, bound, rho, r), (sets, at), (reach, inverse) in zip(rounds, wins[1:], steps):
        rho, r, win = rho[live], r[live], sets[at[live]]
        # the pairs f(0), f(1) = a, b that meet the claim and can still win;
        # f(0) leads the product order, so the message has the least such a
        ok = (tables.combine[kind][rho] == v[:, None, None]) & reach[inverse[live]]
        a = ok.any(axis=2).argmax(axis=1)
        # then the least tail over those b and every winning value e of f(r)
        found, p, tail = _first_tails(tables, bound, r[:, None, None], a[:, None, None],
                                      elems[:, None], elems)
        ends = found & ok[each, a][:, :, None] & win[:, None, :]
        codes = np.where(ends, np.asarray(p, dtype=np.intp) * order + tail, order * order)
        codes = codes.reshape(len(live), order * order)
        pick = codes.argmin(axis=1)
        best = codes[each, pick]
        msgs = np.zeros((len(live), bound + 1), dtype=elems.dtype)
        msgs[:, 0] = a
        msgs[:, bound] = best % order
        if bound > 1:
            msgs[:, bound - 1] = best // order
        sent.append(msgs)
        v = pick % order
    return rows, won, sent


def lookahead_rows(tables: FieldTables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lookahead search on every challenge row, one block at a time:
    the |F|^N rows in product order (``_digit_rows``), whether each has a
    message vector the verifier accepts, and a rows x N x (d + 1) array of
    those vectors, each message zero-padded to d + 1 coefficients and a
    lost row all zeros. Rows and messages take the field's narrowest
    unsigned dtype. The sweep cutoff on |F|^N is checked before any
    search."""
    import numpy as np

    field, schedule = tables.field, tables.schedule
    sweep_size(field, schedule)
    order, n_rounds = field.order, schedule.n_rounds
    small = tables.elems.dtype
    fixed = n_rounds - _free_width(order, n_rounds)
    blocks = [_lookahead_search(tables, prefix, True)
              for prefix in itertools.product(field.elements(), repeat=fixed)]
    won = np.concatenate([won for _, won, _ in blocks])
    msgs = np.zeros((len(won), n_rounds, schedule.degree_bound + 1), dtype=small)
    for j, bound in enumerate(schedule.degree_bounds):
        msgs[won, j, :bound + 1] = np.concatenate([sent[j] for _, _, sent in blocks])
    return _digit_rows(order, n_rounds, small), won, msgs


def verify_rows(tables: FieldTables, rows: np.ndarray, msgs: np.ndarray) -> np.ndarray:
    """The verifier on arrays: for challenge rows ``rows`` (rows x N) and
    message vectors ``msgs`` (rows x N x width, lowest coefficient first),
    whether the verifier accepts each row's transcript, as
    ``transcript_valid`` does. Round j rejects a message with a nonzero
    coefficient past the round's degree cap or one outside the field, and
    one whose f(0) = c_0 and f(1) = the XOR of its coefficients do not
    combine to the claim (``FieldTables.combine``); the next claim is
    f(r_j), by Horner on ``FieldTables.mul``. After round N the claim must
    be the matrix value at the row's final assignment."""
    import numpy as np

    rounds, assign = _round_inputs(tables.schedule, tables.q.n, rows)
    ok = np.ones(len(rows), dtype=bool)
    v = np.ones(len(rows), dtype=np.intp)
    for j, (kind, bound, rho, r) in enumerate(rounds):
        f = msgs[:, j]
        ok &= ~f[:, bound + 1:].any(axis=1) & (f < tables.field.order).all(axis=1)
        # a rejected row's message is read as zeros, so every index is in F
        f = np.where(ok[:, None], f[:, :bound + 1], 0)
        ok &= tables.combine[kind][rho, f[:, 0], np.bitwise_xor.reduce(f, axis=1)] == v
        v = f[:, bound]
        for c in range(bound - 1, -1, -1):
            v = tables.mul[v, r] ^ f[:, c]
    return ok & (v == tables.matrix_at(assign))


def winnable_rows(q: PrenexQbf, field: Field, schedule: RoundSchedule | None = None) -> int:
    """How many of the |F|^N challenge rows have a message vector the
    verifier accepts, from the lookahead search one block of rows at a time.
    The sweep cutoff is checked before the search cutoff."""
    schedule = schedule or build_schedule(q)
    sweep_size(field, schedule)
    tables = FieldTables(q, field, schedule)
    fixed = schedule.n_rounds - _free_width(field.order, schedule.n_rounds)
    return sum(int(_lookahead_search(tables, prefix, False)[1].sum())
               for prefix in itertools.product(field.elements(), repeat=fixed))
