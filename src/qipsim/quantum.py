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
sizes: it injects the round-1 state, then applies the round-2 uncompute as
an explicit basis permutation and the step-4 test as explicit Hadamard
gates. Its vector is real, since Hadamard gates and real weights keep every
amplitude real.

A row prover answers each row from that row's challenges alone, so the
state is a product over rows and every result factors by row;
``QuantumProtocol.run`` then simulates one row, at every m, and multiplies
out. Every other prover is simulated on all m rows. Either way the run's u
vectors are drawn first, and a run past ``MAX_BRANCHES`` of them,
exhaustive or sampled, is refused before any simulation.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .bounds import BoundParams, soundness_bound
from .gf2k import Field, UniPoly
from .qbf import PrenexQbf
from .sumcheck import (
    ProtocolSizeError,
    RoundSchedule,
    SearchTables,
    TranscriptOracle,
    accepting_row_messages,
    build_schedule,
    correct_polynomial,
    transcript_valid,
)

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

    def kept_r_count(self, u: Sequence[int], i: int) -> int:
        """Challenge columns of row i the verifier keeps: 1..u_i - 1."""
        return u[i - 1] - 1

    def kept_f_count(self, u: Sequence[int], i: int) -> int:
        """Message columns of row i the verifier keeps: 1..u_i."""
        return u[i - 1]

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


class RowProver(LookaheadProver):
    """Uniform over all challenge matrices, with each row's messages a
    function of that row's challenges alone (which may still look ahead
    within the row). The rows never interact, so ``QuantumProtocol.run``
    simulates one row and multiplies the results out."""

    def __init__(self, row_phi: Callable[[tuple[int, ...]], tuple[UniPoly, ...]]):
        self.row_phi = row_phi
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
    challenge row and send some message vector the classical verifier
    accepts for it, falling back to the honest messages when none exists."""
    schedule = schedule or build_schedule(q)
    oracle = TranscriptOracle(q, field, schedule)
    tables = SearchTables(q, field, schedule)
    memo: dict[tuple[int, ...], tuple[UniPoly, ...]] = {}

    def row_phi(r_row: tuple[int, ...]) -> tuple[UniPoly, ...]:
        out = memo.get(r_row)
        if out is None:
            found = accepting_row_messages(q, field, r_row, schedule, tables=tables)
            out = found if found is not None else oracle.correct_row(r_row)
            memo[r_row] = out
        return out

    return RowProver(row_phi)


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
        def frac(x: Fraction) -> dict:
            return {"rational": f"{x.numerator}/{x.denominator}", "float": float(x)}

        doc = {
            "params": self.params,
            "per_u": [
                {"u": list(u), "step1_pass": frac(self.step1_pass), "accept": frac(a)}
                for u, a in self.per_u
            ],
            "mean_accept": frac(self.mean_accept),
            "bound": self.bound,
        }
        if self.events is not None:
            doc["events"] = {
                "resume_union_per_row": [frac(p) for p in self.events]
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
            order, width = self.field.order, self.copies * self.layout.n_rounds
            if _power_exceeds(order, width, MAX_BRANCHES):
                raise ProtocolSizeError(
                    f"{order}^{width} branches exceed the sparse cutoff {MAX_BRANCHES}"
                )
            pairs = ((R, 1) for R in self.all_r_matrices())
            scale = order ** width
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
        first = self._pad_poly(correct_polynomial(self.q, self.schedule, self.field, 1, ()))
        return self._conditional(state, lambda b: b.f[i - 1][0] != first)

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

    def run(
        self,
        spec: ProverSpec,
        u_mode: str = "exhaustive",
        samples: int = 0,
        seed: int = 0,
    ) -> QuantumRunReport:
        """Exact run over every u in {1..N}^m or over sampled ones.

        A row prover (``RowProver``, ``HonestProver``, ``full_lookahead``)
        is simulated on one row of |F|^N branches, at every m; any other
        prover on all m rows, |F|^(mN) branches. ``MAX_BRANCHES`` caps the
        simulated branches and the u vectors (N^m in exhaustive mode, the
        sample count otherwise), which are drawn before any simulation. The
        m rows are blocks of the simulated width (1 or m), and the round-1
        state is a product over blocks on which step 1 and the step-4 groups
        act block by block: the step-1 pass is p^blocks, accept(u) is the
        product of the simulated a(v) over u's blocks v, each row's events
        repeat per block, and over every u the mean is the simulated mean to
        the power blocks, so exhaustive mode never sums the N^m products."""
        us = self._draw_us(u_mode, samples, seed)
        sim = QuantumProtocol(self.q, self.field, 1) if isinstance(spec, RowProver) else self
        width, blocks = sim.copies, self.copies // sim.copies
        p, filtered = sim.step1_filter(sim.prepare_round1(spec))
        events = None
        if p > 0:
            events = [sim.resume_union_probability(filtered, i)
                      for i in range(1, width + 1)] * blocks

        @functools.cache
        def a(v: tuple[int, ...]) -> tuple[int, int]:
            """Simulated acceptance at block v, numerator and denominator."""
            x = sim.step4_accept_prob(filtered, v)
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


def run_quantum(
    q: PrenexQbf,
    k: int,
    m: int,
    spec: ProverSpec,
    u_mode: str = "exhaustive",
    samples: int = 0,
    seed: int = 0,
) -> QuantumRunReport:
    return QuantumProtocol(q, Field(k), m).run(spec, u_mode, samples, seed)


# ---------------------------------------------------------------------------
# Dense state-vector oracle. Same protocol on the full 2^total_qubits vector:
# the round-1 state is written in directly, round 2 is an explicit basis
# permutation and step 4 explicit Hadamard gates; floating point, used to
# cross-check the sparse closed form.


def apply_hadamard(sv: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a Hadamard gate to one qubit of a flat state vector in place."""
    block = 1 << qubit
    v = sv.reshape(-1, 2, block)
    lo = v[:, 0, :].copy()
    hi = v[:, 1, :]
    inv = 1.0 / np.sqrt(2.0)
    v[:, 0, :] = (lo + hi) * inv
    v[:, 1, :] = (lo - hi) * inv
    return sv


class _DenseCodec:
    """Encode/decode basis indices for the [R | F | S] qubit layout."""

    def __init__(self, layout: RegisterLayout):
        self.layout = layout
        self.mask = (1 << layout.field_bits) - 1

    def encode(self, R: RMatrix, F: FMatrix, S: RMatrix) -> int:
        lay = self.layout
        idx = 0
        for i in range(1, lay.copies + 1):
            for j in range(1, lay.n_rounds + 1):
                idx |= R[i - 1][j - 1] << lay.r_offset(i, j)
                idx |= S[i - 1][j - 1] << lay.s_offset(i, j)
                base = lay.f_offset(i, j)
                for t, cv in enumerate(F[i - 1][j - 1]):
                    idx |= cv << (base + t * lay.field_bits)
        return idx

    def decode(self, idx: int) -> tuple[RMatrix, FMatrix, RMatrix]:
        lay = self.layout
        k = lay.field_bits
        R = tuple(
            tuple((idx >> lay.r_offset(i, j)) & self.mask
                  for j in range(1, lay.n_rounds + 1))
            for i in range(1, lay.copies + 1)
        )
        S = tuple(
            tuple((idx >> lay.s_offset(i, j)) & self.mask
                  for j in range(1, lay.n_rounds + 1))
            for i in range(1, lay.copies + 1)
        )
        F = tuple(
            tuple(
                tuple(
                    (idx >> (lay.f_offset(i, j) + t * k)) & self.mask
                    for t in range(lay.degree_bound + 1)
                )
                for j in range(1, lay.n_rounds + 1)
            )
            for i in range(1, lay.copies + 1)
        )
        return R, F, S


def _permute_support(sv: np.ndarray, mapping: Callable[[int], int]) -> None:
    """Apply a basis-state permutation to the nonzero support of sv in place:
    zero the old support, then write each amplitude at its image."""
    idxs = np.nonzero(sv)[0]
    amps = sv[idxs]
    sv[idxs] = 0.0
    sv[np.fromiter((mapping(int(i)) for i in idxs), dtype=np.intp, count=len(idxs))] = amps


def dense_oracle(
    q: PrenexQbf,
    k: int,
    m: int,
    spec: ProverSpec,
    u: Sequence[int],
) -> float:
    """Joint probability that step 1 passes and step 4 accepts for one u,
    computed on the full state vector. Cross-check for the sparse path."""
    proto = QuantumProtocol(q, Field(k), m)
    lay = proto.layout
    u = lay.check_u(u)
    if lay.total_qubits > MAX_DENSE_QUBITS:
        raise ProtocolSizeError(
            f"{lay.total_qubits} qubits exceed the dense limit {MAX_DENSE_QUBITS}"
        )
    codec = _DenseCodec(lay)
    sv = np.zeros(1 << lay.total_qubits, dtype=np.float64)

    # Round 1: inject each branch's amplitude at |R, F(R), S = R>. A uniform
    # prover's R runs over every value of the R registers, the lowest qubits.
    if isinstance(spec, BiasedSupportProver):
        proto._check_support(spec)
        amps = (map(float, spec.weights) if spec.weights is not None
                else itertools.repeat(1.0 / np.sqrt(len(spec.support))))
        branches = zip(spec.support, amps)
    else:
        r_states = 1 << (lay.copies * lay.n_rounds * k)
        amp = 1.0 / np.sqrt(r_states)
        branches = ((codec.decode(idx)[0], amp) for idx in range(r_states))
    for R, amp in branches:
        sv[codec.encode(R, proto.padded_f_matrix(spec, R), R)] = amp

    # Step 1: project onto branches whose rows are all valid transcripts.
    for idx in np.nonzero(sv)[0]:
        R, F, _ = codec.decode(int(idx))
        if not all(transcript_valid(q, proto.schedule, proto.field, R[i], F[i])
                   for i in range(lay.copies)):
            sv[idx] = 0.0

    # Rounds 2-3: prover uncomputes the returned message columns from S,
    # verifier adds R into S. One basis permutation.
    def round2(idx: int) -> int:
        R, F, S = codec.decode(idx)
        fm = proto.padded_f_matrix(spec, S)
        new_f = tuple(
            tuple(
                tuple(a ^ c for a, c in zip(F[i][j], fm[i][j])) if j + 1 > u[i] else F[i][j]
                for j in range(lay.n_rounds)
            )
            for i in range(lay.copies)
        )
        new_s = tuple(
            tuple(sv_ ^ rv for sv_, rv in zip(S[i], R[i])) for i in range(lay.copies)
        )
        return codec.encode(R, new_f, new_s)

    _permute_support(sv, round2)

    # Step 4: Hadamard every hidden challenge register, then read the
    # probability that all of those qubits are zero.
    zero_mask = 0
    for i in range(1, lay.copies + 1):
        for j in range(u[i - 1], lay.n_rounds + 1):
            base = lay.r_offset(i, j)
            for b in range(k):
                apply_hadamard(sv, base + b)
                zero_mask |= 1 << (base + b)

    idxs = np.nonzero(sv)[0]
    keep = idxs[(idxs & zero_mask) == 0]
    return float(np.sum(sv[keep] ** 2))
