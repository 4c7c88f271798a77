"""Interactive sumcheck protocol for prenex QBF over GF(2^k).

The operator schedule interleaves quantifiers with degree reductions: the
i-th quantifier is followed by reductions of x_1..x_i, so every round's claim
concerns a low-degree univariate polynomial. With n variables there are
N = n(n+1)/2 + n rounds:

    Q1 x1, R x1, Q2 x2, R x1, R x2, ..., Qn xn, R x1, ..., R xn

``build_schedule`` compiles this chain and the matrix once, into the
kernels' int encoding (``RoundSchedule``): the verifier, the honest prover,
the sweep and the cheater search all read that one program.

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
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Protocol

import numpy as np

from . import _kernels
from .gf2k import Field, UniPoly, poly_degree
from .qbf import PrenexQbf, compile_matrix, degree_profile

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
                  assignment: Sequence[int]) -> None:
    """The element checks and the size guard for evaluating the suffix
    after round j at this assignment."""
    for a in assignment:
        field.check(a)
    if _suffix_evaluations(schedule, j, assignment) > MAX_PARTIAL_LEAVES:
        raise ProtocolSizeError("operator suffix too deep for exact evaluation")


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
    _check_suffix(schedule, field, j, assignment)
    return field.ops.quantified_value(schedule.kinds, schedule.tvars, j, schedule.prog,
                                      list(assignment), field.g, field.k)


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
) -> UniPoly:
    """The honest round-j message: the suffix value as a polynomial in the
    round variable, interpolated from min(d_j + 1, |F|) abscissae. When the
    field is smaller than the degree cap this is the minimal-degree
    representative agreeing on all of F, which every check evaluates."""
    if not 1 <= j <= schedule.n_rounds:
        raise ValueError(f"round index {j} outside 1..{schedule.n_rounds}")
    if len(r_prefix) != j - 1:
        raise ValueError(f"round {j} needs {j - 1} prior challenges")
    assign = _prefix_assignment(schedule, q.n, r_prefix)
    t = schedule.tvars[j - 1]
    npts = min(schedule.degree_bounds[j - 1] + 1, field.order)
    # The abscissae replace the round variable's value; the last one is
    # non-Boolean whenever any is, so it makes the most evaluations.
    assign[t] = npts - 1
    _check_suffix(schedule, field, j, assign)
    ys = []
    for z in range(npts):
        assign[t] = z
        ys.append(field.ops.quantified_value(schedule.kinds, schedule.tvars, j, schedule.prog,
                                             assign, field.g, field.k))
    return tuple(field.ops.interpolate(range(npts), ys, field.g, field.k))


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


class HonestPolicy:
    """Replies with the correct polynomial every round."""

    def __init__(self, q: PrenexQbf, field: Field, schedule: RoundSchedule | None = None):
        self.q = q
        self.field = field
        self.schedule = schedule or build_schedule(q)

    def next_poly(self, j, r_prefix, sent):
        return correct_polynomial(self.q, self.schedule, self.field, j, r_prefix)


def honest_policy(q: PrenexQbf, field: Field) -> HonestPolicy:
    return HonestPolicy(q, field)


def run_with_randomness(
    q: PrenexQbf,
    field: Field,
    policy: ProverPolicy,
    r_seq: Sequence[int],
    schedule: RoundSchedule | None = None,
) -> Transcript:
    """Drive one interaction with the given challenge string. The verifier
    stops at the first failed check, a message coefficient outside the field
    included; a policy exception other than ProtocolSizeError is recorded as
    a rejection at the round it occurred."""
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
        sent.append(fj)
        if poly_degree(fj) > schedule.degree_bounds[j - 1]:
            return reject(j, "degree bound exceeded")
        if not all(0 <= c < field.order for c in fj):
            return reject(j, "message not over the field")
        f0 = field.poly_eval(fj, 0)
        f1 = field.poly_eval(fj, 1)
        if _kernels.combine(kind, assign[t], f0, f1, field.g, field.k) != v:
            return reject(j)
        rj = field.check(r_seq[j - 1])
        r_used.append(rj)
        assign[t] = rj
        v = field.poly_eval(fj, rj)
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
    """One seeded run; each challenge is one k-bit draw from the PRNG."""
    schedule = schedule or build_schedule(q)
    if isinstance(rng, int):
        rng = random.Random(rng)
    r_seq = [rng.getrandbits(field.k) for _ in range(schedule.n_rounds)]
    return run_with_randomness(q, field, policy, r_seq, schedule)


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
    its round (``_kernels.honest_sweep``). The cutoff stays |F|^N."""
    schedule = schedule or build_schedule(q)
    sweep_size(field, schedule)
    return field.ops.honest_sweep(schedule.kinds, schedule.tvars, schedule.degree_bounds,
                                  schedule.prog, q.n, field.g, field.k)


# ---------------------------------------------------------------------------
# Optimal cheating prover and full-lookahead search (exact, bottom-up).

# Entries in one (assignments x candidates) score block of the cheater DP.
_SCORE_BLOCK = 1 << 20


def _digit_rows(order: int, width: int) -> np.ndarray:
    """Every width-tuple over range(order), one row each, in
    ``itertools.product`` order (the last position varies fastest)."""
    powers = order ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return np.arange(order ** width, dtype=np.int64)[:, None] // powers % order


class SearchTables:
    """Every candidate message of one instance, evaluated once.

    For each degree cap D in the schedule, row c of ``coeffs[D]`` is the c-th
    coefficient tuple of length D + 1 in ``itertools.product`` order, and
    ``evals[D][c, r]`` is that polynomial at field element r. For each
    round's (kind code, D), ``keys[kind, D][rho, c]`` is the verifier's combine
    value of candidate c's f(0) and f(1) when the round variable holds rho,
    read from a table filled by ``_kernels.combine``; ``groups[kind, D][rho][v]``
    lists, in product order, the candidates whose combine value is v.
    Building raises ProtocolSizeError past the search cutoff.
    """

    def __init__(self, q: PrenexQbf, field: Field, schedule: RoundSchedule):
        order = field.order
        dmax = max(schedule.degree_bounds)
        if order ** (dmax + 1) * order ** (q.n + 1) > MAX_SEARCH_WORK:
            raise ProtocolSizeError("candidate search space exceeds the cutoff")
        elems = range(order)
        zs = np.arange(order)
        small = np.min_scalar_type(order - 1)  # field elements; sorts by radix
        mul = np.array([[field.ops.gf_mul(a, b, field.g, field.k) for b in elems]
                        for a in elems], dtype=small)
        combine: dict[int, np.ndarray] = {}
        self.coeffs: dict[int, np.ndarray] = {}
        self.evals: dict[int, np.ndarray] = {}
        self.keys: dict[tuple[int, int], np.ndarray] = {}
        self.groups: dict[tuple[int, int], list[list[np.ndarray]]] = {}
        for kind, bound in zip(schedule.kinds, schedule.degree_bounds):
            if bound not in self.coeffs:
                coeffs = _digit_rows(order, bound + 1).astype(small)
                evals = np.zeros((len(coeffs), order), dtype=small)
                for i in range(bound, -1, -1):  # Horner, all candidates at once
                    evals = mul[evals, zs] ^ coeffs[:, i, None]
                self.coeffs[bound], self.evals[bound] = coeffs, evals
            if kind not in combine:
                # Quantifier rules ignore rho: fill one slice, broadcast it.
                rhos = elems if kind == _kernels.K_REDUCE else (0,)
                table = np.array([
                    [[_kernels.combine(kind, rho, f0, f1, field.g, field.k) for f1 in elems]
                     for f0 in elems]
                    for rho in rhos
                ], dtype=small)
                combine[kind] = np.broadcast_to(table, (order, order, order))
            if (kind, bound) not in self.keys:
                evals = self.evals[bound]
                keys = combine[kind][:, evals[:, 0], evals[:, 1]]
                self.keys[kind, bound] = keys
                by_key = np.argsort(keys, axis=1, kind="stable")
                self.groups[kind, bound] = [
                    np.split(members, np.searchsorted(row[members], zs[1:]))
                    for row, members in zip(keys, by_key)
                ]


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
    a. Every coefficient tuple c within the round's degree cap is scored at
    once as score[c] = sum_r V_{j+1}[a with x_t = r, c(r)], and V_j[a, v] is
    the best score among the candidates whose combine value of f(0) and f(1)
    is v.
    Ties go to the first tuple in ``itertools.product`` order. Every
    assignment reachable at round j (variables not yet bound are 0) is solved
    for every claim, so ``policy.choice`` covers all of those states. Counts
    are int64 when k*N <= 62 and Python ints otherwise."""
    schedule = schedule or build_schedule(q)
    tables = SearchTables(q, field, schedule)
    order, n, n_rounds = field.order, q.n, schedule.n_rounds
    zs = np.arange(order)
    weight = order ** np.arange(n - 1, -1, -1, dtype=np.int64)  # code = a @ weight
    dtype = np.int64 if field.k * n_rounds <= 62 else object
    # round N+1: every variable is bound, only the final matrix check is left
    finals = _digit_rows(order, n)
    matrix = [field.ops.eval_formula(schedule.prog, a, field.g, field.k)
              for a in finals.tolist()]
    counts = np.zeros((order ** n, order), dtype=dtype)  # V_j[code(a), v]
    counts[finals @ weight, matrix] = 1
    choice: dict[tuple, UniPoly] = {}
    for j in range(n_rounds, 0, -1):
        kind, t = schedule.kinds[j - 1], schedule.tvars[j - 1]
        bound = schedule.degree_bounds[j - 1]
        coeffs, evals = tables.coeffs[bound], tables.evals[bound]
        bound_vars = set(schedule.tvars[: j - 1])
        rhos = range(order) if t in bound_vars else (0,)
        free = sorted(bound_vars - {t})
        bases = np.zeros((order ** len(free), n), dtype=np.int64)
        bases[:, free] = _digit_rows(order, len(free))
        below, counts = counts, np.zeros_like(counts)
        step = max(1, _SCORE_BLOCK // len(coeffs))
        for lo in range(0, len(bases), step):
            block = bases[lo: lo + step]
            rows = np.arange(len(block))
            # kids[b, r, e] = V_{j+1}[block[b] with x_t = r, e]
            kids = below[(block @ weight)[:, None] + zs * weight[t]]
            score = sum(kids[:, r, evals[:, r]] for r in range(order))
            for rho in rhos:
                states = block.copy()
                states[:, t] = rho
                codes = states @ weight
                assigns = list(map(tuple, states.tolist()))
                for v, members in enumerate(tables.groups[kind, bound][rho]):
                    sub = score[:, members]
                    best = sub.argmax(axis=1)  # first maximum: product order
                    counts[codes, v] = sub[rows, best]
                    for a, c in zip(assigns, coeffs[members[best]].tolist()):
                        choice[j, a, v] = tuple(c)
    p = Fraction(int(counts[0, 1]), order ** n_rounds)
    return TabulatedPolicy(q, field, schedule, choice, p), p


def accepting_row_messages(
    q: PrenexQbf,
    field: Field,
    r_row: Sequence[int],
    schedule: RoundSchedule | None = None,
    tables: SearchTables | None = None,
) -> Optional[tuple[UniPoly, ...]]:
    """A message vector the verifier accepts when the whole challenge string
    is known in advance, or None when no such vector exists. This is what a
    prover with full lookahead would send.

    With the row fixed, round j's assignment is fixed too, so the state is
    just the claim v. A boolean DP runs backward: win_{N+1}[v] holds when v
    is the matrix value at the row's final assignment, and win_j[v] holds
    when some candidate c with combine value v has win_{j+1}[c(r_j)]. A
    forward pass from claim 1 then sends, each round, the first candidate in
    ``itertools.product`` order whose combine value is the claim and whose
    child claim can still win; that is the message vector a depth-first
    search in product order finds. Pass ``tables`` built once for
    (q, field, schedule) when scanning many rows; the search cutoff is
    checked when the tables are built."""
    schedule = schedule or build_schedule(q)
    if tables is None:
        tables = SearchTables(q, field, schedule)
    if len(r_row) != schedule.n_rounds:
        raise ValueError(f"need {schedule.n_rounds} challenges")
    assign = [0] * q.n
    rounds = []  # (combine keys, candidate values at r_j, degree cap)
    for kind, t, bound, r in zip(schedule.kinds, schedule.tvars, schedule.degree_bounds, r_row):
        rounds.append((tables.keys[kind, bound][assign[t]],
                       tables.evals[bound][:, field.check(r)], bound))
        assign[t] = r
    final = field.ops.eval_formula(schedule.prog, assign, field.g, field.k)
    wins = [np.arange(field.order) == final]
    for keys, child, _ in reversed(rounds):
        win = np.zeros(field.order, dtype=bool)
        win[keys[wins[-1][child]]] = True
        wins.append(win)
    wins.reverse()  # wins[j - 1] is win_j
    if not wins[0][1]:
        return None
    out = []
    v = 1
    for (keys, child, bound), win_next in zip(rounds, wins[1:]):
        c = int(np.argmax((keys == v) & win_next[child]))
        out.append(tuple(tables.coeffs[bound][c].tolist()))
        v = int(child[c])
    return tuple(out)


# ---------------------------------------------------------------------------
# Cached honest messages (shared by the quantum provers).


class TranscriptOracle:
    """Memoized honest messages. Round j's message depends only on the
    challenges r_1..r_{j-1}, so ``_rows`` holds one message per challenge
    prefix, and rows that share a prefix share its messages."""

    def __init__(self, q: PrenexQbf, field: Field, schedule: RoundSchedule | None = None):
        self.q = q
        self.field = field
        self.schedule = schedule or build_schedule(q)
        self._rows: dict[tuple[int, ...], UniPoly] = {}

    def correct_row(self, r_row: tuple[int, ...]) -> tuple[UniPoly, ...]:
        n_rounds = self.schedule.n_rounds
        if len(r_row) != n_rounds:
            raise ValueError(f"need {n_rounds} challenges")
        out = []
        for j in range(1, n_rounds + 1):
            prefix = r_row[: j - 1]
            poly = self._rows.get(prefix)
            if poly is None:
                poly = correct_polynomial(self.q, self.schedule, self.field, j, prefix)
                self._rows[prefix] = poly
            out.append(poly)
        return tuple(out)
