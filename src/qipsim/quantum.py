"""Two-round quantum verification of sumcheck claims, simulated exactly.

The verifier holds m independent register rows. Row i carries, for each of
the N protocol rounds, a challenge register R_{i,j} (k qubits), a reply
register S_{i,j} (k qubits), and a message register F_{i,j} holding a
polynomial as d+1 coefficient blocks, lowest degree first, each block the
k-bit field encoding.

Round 1: the prover sends R and F; the verifier rejects unless every row
(R_i, F_i) is a transcript the classical verifier accepts. Round 2: the
verifier draws u uniformly from {1..N}^m, returns the F columns past u_i of
each row, and receives S; it adds R into S bitwise, applies a k-fold
Hadamard to every R register from column u_i onward, and accepts exactly
when all of those registers read zero. An honest prover sends the uniform
superposition over challenge matrices with the correct-message polynomials
and a private copy in S, which passes both tests with certainty; a prover
whose message columns depend on later challenge columns breaks the
uniformity the Hadamard test measures and is caught with positive
probability.

Sparse states map basis states to exact amplitudes: a branch's amplitude is
c / sqrt(scale) with c an int and scale a positive int shared by the whole
state, so uniform superpositions over non-square branch counts and rational
weights stay exact, sums over branches stay in integers, and every reported
probability is one Fraction built at the end.

The sparse engine does not simulate round 2. Every prover here sends a fixed
message function of R and keeps S = R, so its uncompute clears the returned
message columns and the verifier's R-into-S clears S: each filtered branch
becomes (R, its kept message columns, zeros), a bijection that keeps the
amplitudes and the registers step 4 groups by. Step 4 and the events are
therefore read directly off the step-1-filtered state, which stores only R
and F. A dense state-vector oracle cross-checks this closed form at small
sizes: in one pass over the prover's round-1 branches it drops those step 1
rejects and writes each other branch once, at its image under the round-2
uncompute and the verifier's R-into-S, then applies the step-4 test as
explicit Hadamard gates. Its amplitudes are integers: each branch's weight
over the prover's common denominator, with the gates' 1/sqrt(2) left out,
so its sum of squares is exact.

A row prover answers each row from that row's challenges alone, so the
state is a product over rows and every result factors by row;
``QuantumProtocol.run`` then simulates one row, at every m, and multiplies
out. Every other prover is simulated on all m rows. Either way the run's u
vectors are drawn first, and a run past ``MAX_BRANCHES`` of them,
exhaustive or sampled, is refused before any simulation.

Two engines compute the same stages. The sparse engine holds branches in a
dict of ``BasisState``s and replays the scalar verifier on each; it runs
the honest and biased provers, a plain ``RowProver(row_phi)`` and every
whole-matrix prover, and it is exact integer and rational arithmetic with
no numpy. The row prover ``full_lookahead`` returns keeps its messages in
one table, arrays over every row from one lookahead search, so its one-row
run takes the array engine: step 1 is the verifier on arrays
(``sumcheck.verify_rows``), step 4 integer group counts per u, and the
event a comparison of the first message column; its ``row_phi``, for the
dense oracle and the joint path, reads the same table. numpy is imported
only inside that engine, the dense oracle and the lookahead search.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional

from .bounds import BoundParams, soundness_bound
from .gf2k import Field, UniPoly
from .qbf import PrenexQbf
from .sumcheck import (
    FieldTables,
    ProtocolSizeError,
    RoundSchedule,
    TranscriptOracle,
    build_schedule,
    correct_polynomial,
    lookahead_rows,
    transcript_valid,
    verify_rows,
)

if TYPE_CHECKING:
    import numpy as np

MAX_BRANCHES = 1 << 16
MAX_DENSE_QUBITS = 26

RMatrix = tuple[tuple[int, ...], ...]
FMatrix = tuple[tuple[UniPoly, ...], ...]
PerU = list[tuple[tuple[int, ...], Fraction]]  # [(u, joint acceptance)]


def _power_exceeds(base: int, exp: int, cap: int) -> bool:
    """Whether base**exp > cap, for base >= 2, without building the power
    past cap: it is multiplied up one factor at a time."""
    power = 1
    for _ in range(exp):
        power *= base
        if power > cap:
            return True
    return False


@dataclass(frozen=True)
class RegisterLayout:
    """Register geometry: counts, qubit offsets, and the column partition
    induced by a coordinate vector u. Qubits are numbered with all R
    registers first, then F, then S, row-major by (row, round)."""

    copies: int        # m
    n_rounds: int      # N
    field_bits: int    # k
    degree_bound: int  # d

    def __post_init__(self):
        if min(self.copies, self.n_rounds, self.field_bits) < 1 or self.degree_bound < 0:
            raise ValueError("layout parameters must be positive")

    @property
    def poly_bits(self) -> int:
        return (self.degree_bound + 1) * self.field_bits

    @property
    def total_qubits(self) -> int:
        return self.copies * self.n_rounds * (2 * self.field_bits + self.poly_bits)

    def _cell(self, i: int, j: int) -> int:
        if not (1 <= i <= self.copies and 1 <= j <= self.n_rounds):
            raise ValueError(f"register ({i},{j}) outside {self.copies}x{self.n_rounds}")
        return (i - 1) * self.n_rounds + (j - 1)

    def r_offset(self, i: int, j: int) -> int:
        return self._cell(i, j) * self.field_bits

    def f_offset(self, i: int, j: int) -> int:
        base = self.copies * self.n_rounds * self.field_bits
        return base + self._cell(i, j) * self.poly_bits

    def s_offset(self, i: int, j: int) -> int:
        base = self.copies * self.n_rounds * (self.field_bits + self.poly_bits)
        return base + self._cell(i, j) * self.field_bits

    def check_u(self, u: Sequence[int]) -> tuple[int, ...]:
        u = tuple(u)
        if len(u) != self.copies or any(not 1 <= x <= self.n_rounds for x in u):
            raise ValueError(f"u must be {self.copies} coordinates in 1..{self.n_rounds}")
        return u

    def hadamard_count(self, u: Sequence[int]) -> int:
        """Number of challenge registers the final test transforms: columns
        u_i..N of each row."""
        u = self.check_u(u)
        return sum(self.n_rounds - x + 1 for x in u)


def build_layout(q: PrenexQbf, k: int, m: int) -> RegisterLayout:
    schedule = build_schedule(q)
    return RegisterLayout(m, schedule.n_rounds, k, schedule.degree_bound)


class BasisState(NamedTuple):
    r: RMatrix
    f: FMatrix


@dataclass
class SparseState:
    """Finite superposition; a branch's amplitude is its int numerator c
    over sqrt(scale), the one denominator of the whole state.

    norm_sq may be below 1: the deficit is probability lost to earlier
    rejections, so downstream acceptance values are joint probabilities.
    """

    branches: dict[BasisState, int]
    scale: int

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError("scale must be a positive integer")

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    def norm_sq(self) -> Fraction:
        return Fraction(sum(c * c for c in self.branches.values()), self.scale)


# ---------------------------------------------------------------------------
# Prover strategies. Each fixes the round-1 state (R support, message matrix
# F as a function of R, private copy S = R) and, implicitly, the round-2
# uncompute that reruns the same message function on S.


class LookaheadProver:
    """Messages computed by an arbitrary function of the whole challenge
    matrix, so a message column may depend on later challenge columns."""

    def __init__(self, phi: Callable[[RMatrix], FMatrix]):
        self.phi = phi

    def f_matrix(self, R: RMatrix, oracle: TranscriptOracle) -> FMatrix:
        return self.phi(R)


RowArrays = Callable[[PrenexQbf, Field], Optional[tuple[FieldTables, "np.ndarray", "np.ndarray"]]]


class RowProver(LookaheadProver):
    """Uniform over all challenge matrices, with each row's messages a
    function of that row's challenges alone (which may still look ahead
    within the row). The rows never interact, so ``QuantumProtocol.run``
    simulates one row and multiplies the results out.

    ``arrays``, when given, is the same messages on every row at once:
    called with a protocol's formula and field, it returns (tables, rows,
    msgs) when the prover answers for them, else None. ``rows`` holds the
    |F|^N challenge rows in product order, ``msgs`` (rows x N x (d + 1))
    each row's zero-padded messages, and ``tables`` the ``FieldTables``
    the one-row simulation verifies them with."""

    arrays: Optional[RowArrays] = None

    def __init__(self, row_phi: Callable[[tuple[int, ...]], tuple[UniPoly, ...]],
                 arrays: Optional[RowArrays] = None):
        self.row_phi = row_phi
        self.arrays = arrays
        super().__init__(lambda R: tuple(row_phi(row) for row in R))


class HonestProver(RowProver):
    """Uniform over all challenge matrices with the correct messages."""

    def __init__(self):
        # The correct messages come from the oracle f_matrix is given, so
        # there is no stored row function.
        self.row_phi = self.phi = None

    def f_matrix(self, R: RMatrix, oracle: TranscriptOracle) -> FMatrix:
        return tuple(oracle.correct_row(row) for row in R)


class BiasedSupportProver:
    """Superposition over chosen challenge matrices only, optionally with
    rational weights (squares summing to 1); messages default to honest."""

    def __init__(
        self,
        support: Sequence[RMatrix],
        weights: Sequence[Fraction] | None = None,
        phi: Callable[[RMatrix], FMatrix] | None = None,
    ):
        self.support = tuple(tuple(tuple(row) for row in R) for R in support)
        if not self.support:
            raise ValueError("support must be nonempty")
        self.weights = None if weights is None else tuple(Fraction(w) for w in weights)
        self.phi = phi

    def f_matrix(self, R: RMatrix, oracle: TranscriptOracle) -> FMatrix:
        if self.phi is not None:
            return self.phi(R)
        return tuple(oracle.correct_row(row) for row in R)


ProverSpec = LookaheadProver | BiasedSupportProver


def full_lookahead(q: PrenexQbf, field: Field,
                   schedule: RoundSchedule | None = None) -> RowProver:
    """The canonical cheating strategy: for each row, read the entire
    challenge row and send the message vector the classical verifier
    accepts that a depth-first search in product order finds, falling back
    to the honest messages when none exists.

    Its one message table is its array form (``RowProver.arrays``): the
    lookahead search on every row at once (``lookahead_rows``, run once on
    first use), with the honest messages on the rows it loses. ``row_phi``,
    for the dense oracle and the joint path, reads that table through a
    dict built on its first call, and raises ValueError on any other row."""
    import numpy as np

    schedule = schedule or build_schedule(q)
    oracle = TranscriptOracle(q, field, schedule)
    tables = FieldTables(q, field, schedule)

    @functools.cache
    def every_row() -> tuple[FieldTables, np.ndarray, np.ndarray]:
        rows, won, msgs = lookahead_rows(tables)
        for i in np.flatnonzero(~won).tolist():
            for j, poly in enumerate(oracle.correct_row(tuple(rows[i].tolist()))):
                msgs[i, j, :len(poly)] = poly
        # every run of this prover reads the same cached arrays
        rows.flags.writeable = msgs.flags.writeable = False
        return tables, rows, msgs

    @functools.cache
    def by_row() -> dict[tuple[int, ...], tuple[UniPoly, ...]]:
        _, rows, msgs = every_row()
        # each row's N messages, cut out by zipping one iterator N times
        polys = map(tuple, msgs.reshape(-1, msgs.shape[2]).tolist())
        return dict(zip(map(tuple, rows.tolist()), zip(*[polys] * schedule.n_rounds)))

    def row_phi(r_row: tuple[int, ...]) -> tuple[UniPoly, ...]:
        out = by_row().get(r_row)
        if out is None:
            raise ValueError(f"not a row of {schedule.n_rounds} challenges in GF(2^{field.k})")
        return out

    def arrays(q_: PrenexQbf, field_: Field):
        return every_row() if (q_, field_) == (q, field) else None

    return RowProver(row_phi, arrays)


# ---------------------------------------------------------------------------
# Event diagnostics on the post-filter state.


@dataclass(frozen=True)
class EventQuery:
    """Predicates on a branch's messages relative to the honest ones.

    resume(i, j): row i differs from the honest message in every column
    1..j and, when j < N, matches it at column j+1 (at j = N the row is
    simply wrong everywhere). any/all combine resume(i, v_i) across rows.
    """

    kind: str  # 'resume' | 'any' | 'all'
    i: Optional[int] = None
    j: Optional[int] = None
    v: Optional[tuple[int, ...]] = None

    @classmethod
    def resume(cls, i: int, j: int) -> "EventQuery":
        return cls("resume", i=i, j=j)

    @classmethod
    def any_resume(cls, v: Sequence[int]) -> "EventQuery":
        return cls("any", v=tuple(v))

    @classmethod
    def all_resume(cls, v: Sequence[int]) -> "EventQuery":
        return cls("all", v=tuple(v))


def frac_doc(x: Fraction) -> dict:
    """A probability in a report: exact, and as a float."""
    return {"rational": f"{x.numerator}/{x.denominator}", "float": float(x)}


@dataclass
class QuantumRunReport:
    params: dict
    step1_pass: Fraction
    per_u: PerU
    mean_accept: Fraction
    bound: dict
    u_mode: str
    seed: Optional[int] = None
    events: Optional[list[Fraction]] = None  # per-row resume-union, or None

    def to_dict(self) -> dict:
        doc = {
            "params": self.params,
            "per_u": [
                {"u": list(u), "step1_pass": frac_doc(self.step1_pass), "accept": frac_doc(a)}
                for u, a in self.per_u
            ],
            "mean_accept": frac_doc(self.mean_accept),
            "bound": self.bound,
        }
        if self.events is not None:
            doc["events"] = {
                "resume_union_per_row": [frac_doc(p) for p in self.events]
            }
        return doc


class QuantumProtocol:
    """Bundles formula, field, register layout, and the honest-row cache."""

    def __init__(self, q: PrenexQbf, field: Field, copies: int):
        if copies < 1:
            raise ValueError("need at least one register row")
        self.q = q
        self.field = field
        self.copies = copies
        self.schedule = build_schedule(q)
        self.layout = RegisterLayout(
            copies, self.schedule.n_rounds, field.k, self.schedule.degree_bound
        )
        self.oracle = TranscriptOracle(q, field, self.schedule)

    # -- round 1 -----------------------------------------------------------

    def _pad_poly(self, poly: UniPoly) -> UniPoly:
        width = self.layout.degree_bound + 1
        if len(poly) > width:
            raise ValueError("message polynomial wider than its register")
        return tuple(poly) + (0,) * (width - len(poly))

    def padded_f_matrix(self, spec: ProverSpec, R: RMatrix) -> FMatrix:
        fm = spec.f_matrix(R, self.oracle)
        if len(fm) != self.copies or any(len(row) != self.layout.n_rounds for row in fm):
            raise ValueError("message matrix shape mismatch")
        return tuple(tuple(self._pad_poly(p) for p in row) for row in fm)

    def _check_r_matrix(self, R: RMatrix) -> None:
        if len(R) != self.copies:
            raise ValueError("challenge matrix shape mismatch")
        for row in R:
            if len(row) != self.layout.n_rounds:
                raise ValueError("challenge matrix shape mismatch")
            for x in row:
                self.field.check(x)

    def _check_support(self, spec: BiasedSupportProver) -> None:
        """Refuse a support that is not a set of challenge matrices of this
        shape over this field, or weights that are not one nonzero weight
        per matrix with squares summing to 1."""
        support = spec.support
        for R in support:
            self._check_r_matrix(R)
        if len(set(support)) != len(support):
            raise ValueError("support contains duplicate challenge matrices")
        if spec.weights is not None:
            if len(spec.weights) != len(support):
                raise ValueError("one weight per support matrix required")
            if any(w == 0 for w in spec.weights):
                raise ValueError("weights must be nonzero")
            if sum(w * w for w in spec.weights) != 1:
                raise ValueError("squared weights must sum to 1")

    def all_r_matrices(self) -> Iterable[RMatrix]:
        rows = list(itertools.product(self.field.elements(), repeat=self.layout.n_rounds))
        return itertools.product(rows, repeat=self.copies)

    def _check_branch_cap(self) -> None:
        """Refuse a uniform prover whose |F|^(mN) branches are past
        ``MAX_BRANCHES``."""
        order, width = self.field.order, self.copies * self.layout.n_rounds
        if _power_exceeds(order, width, MAX_BRANCHES):
            raise ProtocolSizeError(
                f"{order}^{width} branches exceed the sparse cutoff {MAX_BRANCHES}"
            )

    def prepare_round1(self, spec: ProverSpec) -> SparseState:
        """The prover's round-1 state: branches |R> |F(R)>, with the private
        copy S = R implied rather than stored."""
        if isinstance(spec, BiasedSupportProver):
            self._check_support(spec)
            support = spec.support
            if spec.weights is None:
                coeffs = [1] * len(support)
                scale = len(support)
            else:
                # Over the least common denominator D, weight w is w*D / D,
                # so its numerator is an int and scale = D^2.
                denom = math.lcm(*(w.denominator for w in spec.weights))
                coeffs = [w.numerator * (denom // w.denominator) for w in spec.weights]
                scale = denom * denom
            pairs = zip(support, coeffs)
        else:
            self._check_branch_cap()
            pairs = ((R, 1) for R in self.all_r_matrices())
            scale = self.field.order ** (self.copies * self.layout.n_rounds)
        branches: dict[BasisState, int] = {}
        for R, coeff in pairs:
            branches[BasisState(R, self.padded_f_matrix(spec, R))] = coeff
        return SparseState(branches, scale)

    # -- step 1 ------------------------------------------------------------

    def _branch_valid(self, b: BasisState) -> bool:
        return all(transcript_valid(self.q, self.schedule, self.field, b.r[i], b.f[i])
                   for i in range(self.copies))

    def step1_filter(self, state: SparseState) -> tuple[Fraction, SparseState]:
        """Project onto branches whose every row is a valid transcript.
        Survivors keep their amplitudes (no renormalization), so the
        filtered norm^2 tracks the accumulated acceptance probability."""
        kept = {b: c for b, c in state.branches.items() if self._branch_valid(b)}
        passed = SparseState(kept, state.scale)
        return passed.norm_sq(), passed

    # -- step 4 ------------------------------------------------------------

    def kept_key(self, b: BasisState, u: Sequence[int]) -> tuple:
        """Everything the final Hadamard test does not transform: the kept
        challenge columns and kept message columns."""
        return tuple((b.r[i][: u[i] - 1], b.f[i][: u[i]]) for i in range(self.copies))

    def step4_accept_prob(self, state: SparseState, u: Sequence[int]) -> Fraction:
        """Probability that every Hadamard-transformed challenge register
        reads zero: group branches by the untransformed registers and sum
        squared group amplitudes, scaled by 2^(-l k). Takes the step-1
        filtered state: round 2 would only zero the returned message columns
        and S in every branch (see the module docstring), which changes
        neither the groups nor their amplitudes. ``dense_oracle`` simulates
        that round explicitly."""
        u = self.layout.check_u(u)
        groups: dict[tuple, int] = {}
        for b, coeff in state.branches.items():
            key = self.kept_key(b, u)
            groups[key] = groups.get(key, 0) + coeff
        l = self.layout.hadamard_count(u)
        total = sum(gs * gs for gs in groups.values())
        return Fraction(total, state.scale << (l * self.field.k))

    # -- events --------------------------------------------------------------

    def _event_test(self, ev: EventQuery) -> Callable[[BasisState], bool]:
        """Check the query once, before any branch, and return its test."""
        if ev.kind not in ("resume", "any", "all"):
            raise ValueError(f"unknown event kind {ev.kind!r}")
        if ev.kind != "resume" and (ev.v is None or len(ev.v) != self.copies):
            raise ValueError("event vector must have one entry per row")
        pairs = [(ev.i, ev.j)] if ev.kind == "resume" else list(enumerate(ev.v, 1))
        n = self.layout.n_rounds
        if not all(1 <= i <= self.copies and 1 <= j <= n for i, j in pairs):
            raise ValueError("event indices out of range")
        combine = all if ev.kind == "all" else any
        return lambda b: combine(self._row_resumes(b, i, j) for i, j in pairs)

    def _row_resumes(self, b: BasisState, i: int, j: int) -> bool:
        correct = tuple(self._pad_poly(p) for p in self.oracle.correct_row(b.r[i - 1]))
        row_f = b.f[i - 1]
        return (all(row_f[jj] != correct[jj] for jj in range(j))
                and (j == self.layout.n_rounds or row_f[j] == correct[j]))

    @staticmethod
    def _conditional(state: SparseState, hit: Callable[[BasisState], bool]) -> Fraction:
        """Squared amplitude of the branches where hit holds over the
        state's norm^2; the shared scale cancels."""
        matched = total = 0
        for b, c in state.branches.items():
            total += c * c
            if hit(b):
                matched += c * c
        if total == 0:
            raise ValueError("event probability undefined on an empty state")
        return Fraction(matched, total)

    def event_probability(self, state: SparseState, ev: EventQuery) -> Fraction:
        """Conditional probability of the event given the state's support
        (squared amplitude of matching branches over the state's norm^2)."""
        return self._conditional(state, self._event_test(ev))

    def resume_union_probability(self, state: SparseState, i: int) -> Fraction:
        """Conditional probability that row i resumes at some column, i.e.
        the union of resume(i, j) over j = 1..N. Those events are disjoint
        and together say that row i's first message is wrong, and the honest
        first message depends on no challenge."""
        if not 1 <= i <= self.copies:
            raise ValueError("event indices out of range")
        first = self._honest_first()
        return self._conditional(state, lambda b: b.f[i - 1][0] != first)

    def _honest_first(self) -> UniPoly:
        """The honest round-1 message, padded: it depends on no challenge."""
        return self._pad_poly(correct_polynomial(self.q, self.schedule, self.field, 1, ()))

    def hidden_support_count(
        self, state: SparseState, u: Sequence[int], ev: EventQuery | None = None
    ) -> int:
        """Largest number of distinct hidden-challenge-column values (columns
        u_i..N per row) compatible with one setting of the kept registers,
        optionally restricted to an event. The hidden columns are only
        constrained once the kept ones are fixed, so the per-group maximum
        is the quantity the counting bound controls."""
        u = self.layout.check_u(u)
        hit = self._event_test(ev) if ev is not None else None
        groups: dict[tuple, set] = {}
        for b in state.branches:
            if hit is not None and not hit(b):
                continue
            key = self.kept_key(b, u)
            groups.setdefault(key, set()).add(
                tuple(b.r[i][u[i] - 1:] for i in range(self.copies))
            )
        return max((len(s) for s in groups.values()), default=0)

    # -- full run ------------------------------------------------------------

    def all_u(self) -> list[tuple[int, ...]]:
        return list(
            itertools.product(range(1, self.layout.n_rounds + 1), repeat=self.copies)
        )

    def _draw_us(self, u_mode: str, samples: int, seed: int) -> list[tuple[int, ...]]:
        """The run's u vectors: all N^m in exhaustive mode, or ``samples``
        seeded uniform draws; either is refused past ``MAX_BRANCHES``, since
        the report lists every u."""
        n_rounds = self.layout.n_rounds
        if u_mode == "exhaustive":
            if _power_exceeds(n_rounds, self.copies, MAX_BRANCHES):
                raise ProtocolSizeError(
                    f"{n_rounds}^{self.copies} u vectors exceed the sparse cutoff "
                    f"{MAX_BRANCHES}"
                )
            return self.all_u()
        if u_mode != "sample":
            raise ValueError("u_mode must be 'exhaustive' or 'sample'")
        if samples < 1:
            raise ValueError("sample mode needs samples >= 1")
        if samples > MAX_BRANCHES:
            raise ProtocolSizeError(
                f"{samples} sampled u vectors exceed the sparse cutoff {MAX_BRANCHES}"
            )
        rng = random.Random(seed)
        return [
            tuple(rng.randrange(1, n_rounds + 1) for _ in range(self.copies))
            for _ in range(samples)
        ]

    def _sparse_stages(self, spec: ProverSpec) -> tuple[Fraction, Optional[list[Fraction]],
                                                        Callable[[tuple[int, ...]], Fraction]]:
        """Prepare, step 1 and events on the sparse state of every simulated
        row, and step 4 at a u: the step-1 pass, each row's resume-union
        probability (None when nothing passes), and u -> a(u)."""
        p, filtered = self.step1_filter(self.prepare_round1(spec))
        events = None
        if p > 0:
            events = [self.resume_union_probability(filtered, i)
                      for i in range(1, self.copies + 1)]
        return p, events, functools.partial(self.step4_accept_prob, filtered)

    def _row_array_stages(self, spec: ProverSpec):
        """``_sparse_stages`` on one row for a row prover with an array form
        for this formula and field, or None for any other prover. The stages
        read the |F|^N rows as arrays: step 1 is ``verify_rows``, step 4 for
        each u counts the kept rows per value of (r_1..r_(u-1), f_1..f_u),
        every amplitude being 1, and the event compares the first message
        column with the honest first message."""
        if not isinstance(spec, RowProver) or spec.arrays is None:
            return None
        self._check_branch_cap()
        forms = spec.arrays(self.q, self.field)
        if forms is None:
            return None
        import numpy as np

        tables, rows, msgs = forms
        order, n_rounds, k = self.field.order, self.layout.n_rounds, self.field.k
        if msgs.shape != (order ** n_rounds, n_rounds, self.layout.degree_bound + 1):
            raise ValueError("message matrix shape mismatch")
        ok = verify_rows(tables, rows, msgs)
        kept = int(ok.sum())
        scale = order ** n_rounds
        p = Fraction(kept, scale)
        r, f = rows[ok], msgs[ok]
        events = None
        if kept:
            wrong = (f[:, 0] != np.array(self._honest_first())).any(axis=1)
            events = [Fraction(int(wrong.sum()), kept)]
        # Step 1 leaves every kept coefficient past its round's degree cap
        # 0, so a message is its first dmax + 1 coefficients in base |F|,
        # below |F|^(dmax + 1) (within the search cutoff). Each u refines
        # u - 1's groups by r_(u-1) and f_u, renumbered densely, so every
        # key stays below |F|^N |F| |F|^(dmax + 1).
        width = max(self.schedule.degree_bounds) + 1
        codes = f[:, :, :width].astype(np.int64) @ order ** np.arange(width, dtype=np.int64)
        group = np.zeros(kept, dtype=np.int64)
        accept = {}
        for u in range(1, n_rounds + 1):
            key = group if u == 1 else group * order + r[:, u - 2]
            _, group, counts = np.unique(key * order ** width + codes[:, u - 1],
                                         return_inverse=True, return_counts=True)
            counts = counts.astype(np.int64)
            accept[u,] = Fraction(int(counts @ counts), scale << ((n_rounds - u + 1) * k))
        return p, events, accept.__getitem__

    def run(
        self,
        spec: ProverSpec,
        u_mode: str = "exhaustive",
        samples: int = 0,
        seed: int = 0,
    ) -> QuantumRunReport:
        """Exact run over every u in {1..N}^m or over sampled ones.

        A row prover (``RowProver``, ``HonestProver``, ``full_lookahead``)
        is simulated on one row of |F|^N branches, at every m, on arrays
        when it has an array form for this formula and field
        (``full_lookahead``'s); any other prover on all m rows, |F|^(mN)
        branches. ``MAX_BRANCHES`` caps the
        simulated branches and the u vectors (N^m in exhaustive mode, the
        sample count otherwise), which are drawn before any simulation. The
        m rows are blocks of the simulated width (1 or m), and the round-1
        state is a product over blocks on which step 1 and the step-4 groups
        act block by block: the step-1 pass is p^blocks, accept(u) is the
        product of the simulated a(v) over u's blocks v, each row's events
        repeat per block, and over every u the mean is the simulated mean to
        the power blocks, so exhaustive mode never sums the N^m products.
        The seed must be non-negative, since ``random.Random(-s)`` draws what
        ``random.Random(s)`` draws."""
        if seed < 0:
            raise ValueError(f"seed must be non-negative, not {seed}")
        us = self._draw_us(u_mode, samples, seed)
        sim = QuantumProtocol(self.q, self.field, 1) if isinstance(spec, RowProver) else self
        width, blocks = sim.copies, self.copies // sim.copies
        p, events, step4 = sim._row_array_stages(spec) or sim._sparse_stages(spec)
        if events is not None:
            events *= blocks

        @functools.cache
        def a(v: tuple[int, ...]) -> tuple[int, int]:
            """Simulated acceptance at block v, numerator and denominator."""
            x = step4(v)
            return x.numerator, x.denominator

        def accept(u: tuple[int, ...]) -> Fraction:
            # An integer product over u's blocks (zipping one iterator width
            # times cuts u into them) with one reduction at the end:
            # Fraction products reduce at every factor.
            num = den = 1
            for v in zip(*[iter(u)] * width):
                n, d = a(v)
                num, den = num * n, den * d
            return Fraction(num, den)

        per_u = [(u, accept(u)) for u in us]
        if u_mode == "exhaustive":
            vs = sim.all_u()
            mean = (sum(Fraction(*a(v)) for v in vs) / len(vs)) ** blocks
        else:
            mean = sum(x for _, x in per_u) / len(per_u)
        sb = soundness_bound(BoundParams(
            d=self.schedule.degree_bound,
            n_rounds=self.layout.n_rounds,
            m=self.copies,
            k=self.field.k,
        ))
        return QuantumRunReport(
            params={
                "n": self.q.n,
                "N": self.layout.n_rounds,
                "k": self.field.k,
                "m": self.copies,
                "d": self.schedule.degree_bound,
            },
            step1_pass=p ** blocks,
            per_u=per_u,
            mean_accept=mean,
            bound={"value": float(sb.value), "vacuous": sb.vacuous},
            u_mode=u_mode,
            seed=seed if u_mode == "sample" else None,
            events=events,
        )


# ---------------------------------------------------------------------------
# Dense state-vector oracle. Same protocol on the full 2^total_qubits vector,
# on exact integer amplitudes, to cross-check the sparse closed form. One pass
# over the prover's round-1 branches |R, F(R), S = R> skips those step 1
# rejects and writes each other branch's amplitude once, at its image under
# round 2: the prover's uncompute reruns its message function on S over the
# returned columns, and the verifier adds R into S. Step 4 is explicit
# Hadamard gates.
#
# The vector is R-major: its flat index holds the R qubits above the F and S
# qubits, which is the layout's qubit index rotated (see _dense_index). A gate
# on an R qubit is then a butterfly between contiguous blocks of at least
# 2^(F and S qubits) amplitudes, done in place, and the all-zero outcome of
# the hidden registers is a slice of the vector. The vector holds integer
# numerators: a branch's weight over the prover's common denominator (1 for
# an unweighted branch), and the gates leave out their 1/sqrt(2). The
# normalization is then one factor on the probability, the sum of the
# squared numerators times 2^gates, and that probability is exact up to its
# one final division. Each gate at most doubles the largest magnitude, so the
# vector takes the narrowest signed dtype that holds +-max|c| 2^gates.


def check_dense_size(layout: RegisterLayout) -> None:
    """Refuse a layout whose state vector is past ``MAX_DENSE_QUBITS``; the
    message states the qubits and the float64 vector's bytes."""
    qubits = layout.total_qubits
    if qubits > MAX_DENSE_QUBITS:
        raise ProtocolSizeError(
            f"the dense oracle needs {qubits} qubits, a state vector of 2^{qubits + 3} "
            f"bytes, past its limit of {MAX_DENSE_QUBITS} qubits "
            f"({8 << MAX_DENSE_QUBITS >> 20} MiB)"
        )


def _butterfly(sv: np.ndarray, qubit: int) -> None:
    """(lo, hi) -> (lo + hi, lo - hi), sqrt(2) times the Hadamard gate, on
    every pair of amplitudes of sv that differ in that qubit, in place and
    with no temporary, so an integer vector stays integer."""
    v = sv.reshape(-1, 2, 1 << qubit)
    lo, hi = v[:, 0], v[:, 1]
    lo += hi
    hi *= -2
    hi += lo


def _amplitude_dtype(peak: int) -> np.dtype:
    """The narrowest signed integer dtype that holds -peak..peak, or object
    (Python ints) past int64."""
    import numpy as np

    return np.min_scalar_type(-peak - 1)


def _dense_index(lay: RegisterLayout, R: RMatrix, F: FMatrix, S: RMatrix) -> int:
    """Flat index of |R, F, S> in the R-major dense vector. The layout numbers
    the R qubits first, then F, then S; the vector's index is that qubit index
    rotated right by the R qubits, so an R qubit at layout offset q is bit
    q + rest of the index, rest being the F and S qubits."""
    idx = 0
    for i in range(1, lay.copies + 1):
        for j in range(1, lay.n_rounds + 1):
            idx |= R[i - 1][j - 1] << lay.r_offset(i, j)
            idx |= S[i - 1][j - 1] << lay.s_offset(i, j)
            base = lay.f_offset(i, j)
            for t, cv in enumerate(F[i - 1][j - 1]):
                idx |= cv << (base + t * lay.field_bits)
    r_bits = lay.copies * lay.n_rounds * lay.field_bits
    return ((idx & ((1 << r_bits) - 1)) << (lay.total_qubits - r_bits)) | (idx >> r_bits)


def dense_oracle(
    q: PrenexQbf,
    k: int,
    m: int,
    spec: ProverSpec,
    u: Sequence[int],
) -> float:
    """Joint probability that step 1 passes and step 4 accepts for one u,
    computed on the full state vector. Cross-check for the sparse path."""
    import numpy as np

    proto = QuantumProtocol(q, Field(k), m)
    lay = proto.layout
    u = lay.check_u(u)
    check_dense_size(lay)
    n_rounds = lay.n_rounds
    rest = lay.total_qubits - m * n_rounds * k
    gates = k * sum(n_rounds - x + 1 for x in u)

    # The prover's round-1 branches (R, numerator). A uniform prover's R runs
    # over every value of the m x N challenge cells, cut into rows by zipping
    # one iterator N times. The norm is the sum of the squared numerators.
    if isinstance(spec, BiasedSupportProver):
        proto._check_support(spec)
        if spec.weights is None:
            nums = [1] * len(spec.support)
        else:
            # weight w is (w D) / D over the least common denominator D
            denom = math.lcm(*(w.denominator for w in spec.weights))
            nums = [int(w * denom) for w in spec.weights]
        branches = zip(spec.support, nums)
        norm = sum(c * c for c in nums)
        peak = max(map(abs, nums)) << gates
    else:
        cells = itertools.product(proto.field.elements(), repeat=m * n_rounds)
        branches = ((tuple(zip(*[iter(c)] * n_rounds)), 1) for c in cells)
        norm = proto.field.order ** (m * n_rounds)
        peak = 1 << gates
    sv = np.zeros(1 << lay.total_qubits, dtype=_amplitude_dtype(peak))
    for R, num in branches:
        # Step 1: keep the branch only if every row is a valid transcript.
        F = proto.padded_f_matrix(spec, R)
        if not all(transcript_valid(q, proto.schedule, proto.field, R[i], F[i])
                   for i in range(m)):
            continue
        # Rounds 2-3: the prover uncomputes the returned message columns from
        # its copy S = R, and the verifier adds R into S.
        S = R
        fs = proto.padded_f_matrix(spec, S)
        new_f = tuple(
            tuple(
                tuple(a ^ c for a, c in zip(F[i][j], fs[i][j])) if j + 1 > u[i] else F[i][j]
                for j in range(n_rounds)
            )
            for i in range(m)
        )
        new_s = tuple(tuple(s ^ r for s, r in zip(S[i], R[i])) for i in range(m))
        sv[_dense_index(lay, R, new_f, new_s)] = num

    # Step 4: Hadamard every hidden challenge register, then read the
    # probability that all of those qubits are zero.
    for i in range(1, m + 1):
        for j in range(u[i - 1], n_rounds + 1):
            base = rest + lay.r_offset(i, j)
            for b in range(k):
                _butterfly(sv, base + b)

    # Row i's hidden registers are the top cells of its block of R qubits,
    # so seen as (row m hidden, row m kept, ..., row 1 kept, F and S) the
    # all-zero outcome is index 0 on every hidden axis.
    shape, zero = [], []
    for x in reversed(u):
        shape += [1 << (k * (n_rounds - x + 1)), 1 << (k * (x - 1))]
        zero += [0, slice(None)]
    accepted = sv.reshape(*shape, 1 << rest)[tuple(zero)]
    # The squares summed exactly, with no temporary: in int64 while no sum can
    # pass it, and as Python ints past that.
    exact = np.int64 if peak * peak * accepted.size < 1 << 63 else object
    axes = list(range(accepted.ndim))
    total = int(np.einsum(accepted, axes, accepted, axes, [], dtype=exact))
    return math.ldexp(float(total) / norm, -gates)
