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
coeff / sqrt(scale) with coeff a Fraction and scale a positive int shared by
the whole state, so uniform superpositions over non-square branch counts
stay exact and every reported probability is a Fraction. A dense
state-vector oracle (complex floats, explicit Hadamard and permutation
gates) cross-checks the closed-form acceptance rule at small sizes.

A row prover answers each row from that row's challenges alone, so the
state is a product over rows and every result factors by row;
``QuantumProtocol.run`` then simulates one row and multiplies out.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .gf2k import Field, UniPoly
from .qbf import PrenexQbf
from .sumcheck import (
    ProtocolSizeError,
    RoundSchedule,
    SearchTables,
    TranscriptOracle,
    accepting_row_messages,
    build_schedule,
)

MAX_BRANCHES = 1 << 16
MAX_DENSE_QUBITS = 26

RMatrix = tuple[tuple[int, ...], ...]
FMatrix = tuple[tuple[UniPoly, ...], ...]
# (step-1 pass, [(u, joint acceptance)], per-row resume-union events or None)
RunResult = tuple[Fraction, list[tuple[tuple[int, ...], Fraction]], Optional[list[Fraction]]]


class SparseShapeError(RuntimeError):
    """State outside the closed-form acceptance rule's support shape; the
    dense oracle still handles such states."""


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
    s: RMatrix
    anc: Hashable = None


@dataclass
class SparseState:
    """Finite superposition; amplitude of a branch is coeff / sqrt(scale).

    norm_sq may be below 1: the deficit is probability lost to earlier
    rejections, so downstream acceptance values are joint probabilities.
    """

    branches: dict[BasisState, Fraction]
    scale: int

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError("scale must be a positive integer")

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    def norm_sq(self) -> Fraction:
        return sum((c * c for c in self.branches.values()), Fraction(0)) / self.scale


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
    per_u: list[tuple[tuple[int, ...], Fraction]]
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

    def __init__(self, q: PrenexQbf, field: Field, copies: int,
                 max_branches: int = MAX_BRANCHES):
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
        self.max_branches = max_branches

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

    def all_r_matrices(self) -> Iterable[RMatrix]:
        rows = list(itertools.product(self.field.elements(), repeat=self.layout.n_rounds))
        return itertools.product(rows, repeat=self.copies)

    def prepare_round1(self, spec: ProverSpec) -> SparseState:
        """The prover's round-1 state: branches |R> |F(R)> |S=R>."""
        if isinstance(spec, BiasedSupportProver):
            support = spec.support
            if len(set(support)) != len(support):
                raise ValueError("support contains duplicate challenge matrices")
            if spec.weights is None:
                coeffs = [Fraction(1)] * len(support)
                scale = len(support)
            else:
                if len(spec.weights) != len(support):
                    raise ValueError("one weight per support matrix required")
                if any(w == 0 for w in spec.weights):
                    raise ValueError("weights must be nonzero")
                if sum(w * w for w in spec.weights) != 1:
                    raise ValueError("squared weights must sum to 1")
                coeffs = list(spec.weights)
                scale = 1
            pairs = zip(support, coeffs)
        else:
            count = self.field.order ** (self.copies * self.layout.n_rounds)
            if count > self.max_branches:
                raise ProtocolSizeError(
                    f"{count} branches exceed the sparse cutoff {self.max_branches}"
                )
            pairs = ((R, Fraction(1)) for R in self.all_r_matrices())
            scale = count
        branches: dict[BasisState, Fraction] = {}
        for R, coeff in pairs:
            self._check_r_matrix(R)
            branches[BasisState(R, self.padded_f_matrix(spec, R), R)] = coeff
        return SparseState(branches, scale)

    # -- step 1 ------------------------------------------------------------

    def _branch_valid(self, b: BasisState) -> bool:
        return all(self.oracle.valid(b.r[i], b.f[i]) for i in range(self.copies))

    def step1_filter(self, state: SparseState) -> tuple[Fraction, SparseState]:
        """Project onto branches whose every row is a valid transcript.
        Survivors keep their amplitudes (no renormalization), so the
        filtered norm^2 tracks the accumulated acceptance probability."""
        kept = {b: c for b, c in state.branches.items() if self._branch_valid(b)}
        passed = SparseState(kept, state.scale)
        return passed.norm_sq(), passed

    # -- round 2 -----------------------------------------------------------

    def apply_round2_and_cancel(
        self, state: SparseState, u: Sequence[int], spec: ProverSpec
    ) -> SparseState:
        """Prover uncomputes the returned message columns from its private S
        copy; verifier then adds R into S. Both are basis-state bijections,
        so this permutes branches without touching amplitudes."""
        u = self.layout.check_u(u)
        out: dict[BasisState, Fraction] = {}
        for b, coeff in state.branches.items():
            fm = self.padded_f_matrix(spec, b.s)
            new_f = tuple(
                tuple(
                    tuple(a ^ c for a, c in zip(b.f[i][j], fm[i][j]))
                    if j + 1 > u[i]
                    else b.f[i][j]
                    for j in range(self.layout.n_rounds)
                )
                for i in range(self.copies)
            )
            new_s = tuple(
                tuple(sv ^ rv for sv, rv in zip(b.s[i], b.r[i]))
                for i in range(self.copies)
            )
            out[BasisState(b.r, new_f, new_s, b.anc)] = coeff
        if len(out) != len(state.branches):
            raise AssertionError("round-2 map must permute basis states")
        return SparseState(out, state.scale)

    # -- step 4 ------------------------------------------------------------

    def kept_key(self, b: BasisState, u: Sequence[int]) -> tuple:
        """Everything the final Hadamard test does not transform: the kept
        challenge columns, kept message columns, and the ancilla."""
        return (
            b.anc,
            tuple((b.r[i][: u[i] - 1], b.f[i][: u[i]]) for i in range(self.copies)),
        )

    def step4_accept_prob(self, state: SparseState, u: Sequence[int]) -> Fraction:
        """Probability that every Hadamard-transformed challenge register
        reads zero: group branches by the untransformed registers and sum
        squared group amplitudes, scaled by 2^(-l k). Requires all S
        registers and all returned message columns to be zero in every
        branch, which holds for the implemented prover families."""
        u = self.layout.check_u(u)
        n_rounds = self.layout.n_rounds
        zero_poly = (0,) * (self.layout.degree_bound + 1)
        groups: dict[tuple, Fraction] = {}
        for b, coeff in state.branches.items():
            for i in range(self.copies):
                if any(x != 0 for x in b.s[i]):
                    raise SparseShapeError(
                        "S registers must be zero after round 2; use dense_oracle"
                    )
                if any(b.f[i][j] != zero_poly for j in range(u[i], n_rounds)):
                    raise SparseShapeError(
                        "returned message columns must be zero; use dense_oracle"
                    )
            key = self.kept_key(b, u)
            groups[key] = groups.get(key, Fraction(0)) + coeff
        l = self.layout.hadamard_count(u)
        total = sum((gs * gs for gs in groups.values()), Fraction(0))
        return total / (state.scale * (1 << (l * self.field.k)))

    # -- events --------------------------------------------------------------

    def _row_resumes(self, b: BasisState, i: int, j: int) -> bool:
        if not (1 <= i <= self.copies and 1 <= j <= self.layout.n_rounds):
            raise ValueError("event indices out of range")
        correct = tuple(self._pad_poly(p) for p in self.oracle.correct_row(b.r[i - 1]))
        row_f = b.f[i - 1]
        if any(row_f[jj] == correct[jj] for jj in range(j)):
            return False
        if j < self.layout.n_rounds and row_f[j] != correct[j]:
            return False
        return True

    def _event_matches(self, b: BasisState, ev: EventQuery) -> bool:
        if ev.kind == "resume":
            return self._row_resumes(b, ev.i, ev.j)
        if ev.kind not in ("any", "all"):
            raise ValueError(f"unknown event kind {ev.kind!r}")
        if ev.v is None or len(ev.v) != self.copies:
            raise ValueError("event vector must have one entry per row")
        hits = (self._row_resumes(b, i + 1, ev.v[i]) for i in range(self.copies))
        return any(hits) if ev.kind == "any" else all(hits)

    def event_probability(self, state: SparseState, ev: EventQuery) -> Fraction:
        """Conditional probability of the event given the state's support
        (squared amplitude of matching branches over the state's norm^2)."""
        norm = state.norm_sq()
        if norm == 0:
            raise ValueError("event probability undefined on an empty state")
        hit = sum(
            (c * c for b, c in state.branches.items() if self._event_matches(b, ev)),
            Fraction(0),
        )
        return (hit / state.scale) / norm

    def resume_union_probability(self, state: SparseState, i: int) -> Fraction:
        """Conditional probability that row i resumes at some column, i.e.
        the union of resume(i, j) over j = 1..N."""
        norm = state.norm_sq()
        if norm == 0:
            raise ValueError("event probability undefined on an empty state")
        n_rounds = self.layout.n_rounds
        hit = sum(
            (
                c * c
                for b, c in state.branches.items()
                if any(self._row_resumes(b, i, j) for j in range(1, n_rounds + 1))
            ),
            Fraction(0),
        )
        return (hit / state.scale) / norm

    def hidden_support_count(
        self, state: SparseState, u: Sequence[int], ev: EventQuery | None = None
    ) -> int:
        """Largest number of distinct hidden-challenge-column values (columns
        u_i..N per row) compatible with one setting of the kept registers,
        optionally restricted to an event. The hidden columns are only
        constrained once the kept ones are fixed, so the per-group maximum
        is the quantity the counting bound controls."""
        u = self.layout.check_u(u)
        groups: dict[tuple, set] = {}
        for b in state.branches:
            if ev is not None and not self._event_matches(b, ev):
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
        if u_mode == "exhaustive":
            return self.all_u()
        if u_mode == "sample":
            if samples < 1:
                raise ValueError("sample mode needs samples >= 1")
            rng = random.Random(seed)
            return [
                tuple(rng.randrange(1, self.layout.n_rounds + 1)
                      for _ in range(self.copies))
                for _ in range(samples)
            ]
        raise ValueError("u_mode must be 'exhaustive' or 'sample'")

    def _run_joint(
        self, spec: ProverSpec, u_mode: str, samples: int, seed: int,
        include_events: bool,
    ) -> RunResult:
        """Step-1 pass, per-u acceptance and per-row events, simulated on
        the whole sparse state."""
        state = self.prepare_round1(spec)
        step1_pass, filtered = self.step1_filter(state)
        us = self._draw_us(u_mode, samples, seed)
        per_u: list[tuple[tuple[int, ...], Fraction]] = []
        for u in us:
            if step1_pass == 0:
                per_u.append((u, Fraction(0)))
                continue
            after = self.apply_round2_and_cancel(filtered, u, spec)
            per_u.append((u, self.step4_accept_prob(after, u)))
        events = None
        if include_events and step1_pass > 0:
            events = [
                self.resume_union_probability(filtered, i)
                for i in range(1, self.copies + 1)
            ]
        return step1_pass, per_u, events

    def _run_by_row(
        self, spec: RowProver, u_mode: str, samples: int, seed: int,
        include_events: bool,
    ) -> RunResult:
        """The same results as ``_run_joint`` for a row prover, from one
        simulated row. The round-1 state is a product over rows, and step 1,
        round 2 and the step-4 groups all act row by row, so the step-1
        pass is p^m, accept(u) is the product of the one-row joint
        probabilities a(u_i), and each row's conditional events are the
        one-row ones."""
        n_rounds = self.layout.n_rounds
        if u_mode == "exhaustive" and n_rounds ** self.copies > self.max_branches:
            raise ProtocolSizeError(
                f"{n_rounds ** self.copies} u vectors exceed the sparse cutoff "
                f"{self.max_branches}"
            )
        one = QuantumProtocol(self.q, self.field, 1, self.max_branches)
        p, row_per_u, row_events = one._run_joint(spec, "exhaustive", 0, 0, include_events)
        # Integer products, one reduction per u: Fraction products reduce
        # at every factor.
        nums = [acc.numerator for _, acc in row_per_u]
        dens = [acc.denominator for _, acc in row_per_u]
        per_u = [
            (u, Fraction(math.prod(nums[x - 1] for x in u),
                         math.prod(dens[x - 1] for x in u)))
            for u in self._draw_us(u_mode, samples, seed)
        ]
        events = None if row_events is None else row_events * self.copies
        return p ** self.copies, per_u, events

    def run(
        self,
        spec: ProverSpec,
        u_mode: str = "exhaustive",
        samples: int = 0,
        seed: int = 0,
        include_events: bool = True,
    ) -> QuantumRunReport:
        """Exact run over every u in {1..N}^m or over sampled ones. A row
        prover (``RowProver``, ``HonestProver``, ``full_lookahead``) with
        m > 1 is simulated on one row of |F|^N branches, so ``max_branches``
        bounds |F|^N and, in exhaustive mode, the N^m u vectors; any other
        prover is simulated jointly on |F|^(mN) branches."""
        from .bounds import BoundParams, soundness_bound

        if isinstance(spec, RowProver) and self.copies > 1:
            step1_pass, per_u, events = self._run_by_row(
                spec, u_mode, samples, seed, include_events)
        else:
            step1_pass, per_u, events = self._run_joint(
                spec, u_mode, samples, seed, include_events)
        mean = sum((a for _, a in per_u), Fraction(0)) / len(per_u)
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
            step1_pass=step1_pass,
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
# Dense state-vector oracle. Same protocol on the full 2^total_qubits vector
# with explicit Hadamard gates and basis-permutation gates; floating point,
# used to cross-check the sparse closed form.


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


def _permute_support(sv: np.ndarray, mapping: Callable[[int], int]) -> np.ndarray:
    """Apply a basis-state permutation to the nonzero support of sv."""
    out = np.zeros_like(sv)
    for idx in np.nonzero(sv)[0]:
        out[mapping(int(idx))] = sv[idx]
    return out


def dense_oracle(
    q: PrenexQbf,
    k: int,
    m: int,
    spec: ProverSpec,
    u: Sequence[int],
    max_qubits: int = MAX_DENSE_QUBITS,
) -> float:
    """Joint probability that step 1 passes and step 4 accepts for one u,
    computed on the full state vector. Cross-check for the sparse path."""
    proto = QuantumProtocol(q, Field(k), m)
    lay = proto.layout
    u = lay.check_u(u)
    if lay.total_qubits > max_qubits:
        raise ProtocolSizeError(
            f"{lay.total_qubits} qubits exceed the dense limit {max_qubits}"
        )
    codec = _DenseCodec(lay)
    sv = np.zeros(1 << lay.total_qubits, dtype=np.complex128)

    zero_f = tuple(
        tuple((0,) * (lay.degree_bound + 1) for _ in range(lay.n_rounds))
        for _ in range(lay.copies)
    )
    zero_s = tuple((0,) * lay.n_rounds for _ in range(lay.copies))

    # Round-1 preparation. Uniform families: Hadamard every R qubit, then a
    # permutation writes F(R) and copies R into S. Biased support: direct
    # state injection on the chosen branches.
    if isinstance(spec, BiasedSupportProver):
        n = len(spec.support)
        for pos, R in enumerate(spec.support):
            amp = float(spec.weights[pos]) if spec.weights is not None else 1.0 / np.sqrt(n)
            F = proto.padded_f_matrix(spec, R)
            sv[codec.encode(R, F, R)] = amp
    else:
        sv[0] = 1.0
        for i in range(1, lay.copies + 1):
            for j in range(1, lay.n_rounds + 1):
                base = lay.r_offset(i, j)
                for b in range(k):
                    apply_hadamard(sv, base + b)

        def write_messages(idx: int) -> int:
            R, F, S = codec.decode(idx)
            if F != zero_f or S != zero_s:
                raise AssertionError("preparation support must have F = S = 0")
            return codec.encode(R, proto.padded_f_matrix(spec, R), R)

        sv = _permute_support(sv, write_messages)

    # Step 1: project onto branches whose rows are all valid transcripts.
    row_ok: dict[tuple, bool] = {}
    for idx in np.nonzero(sv)[0]:
        R, F, _ = codec.decode(int(idx))
        ok = True
        for i in range(lay.copies):
            key = (R[i], F[i])
            v = row_ok.get(key)
            if v is None:
                v = proto.oracle.valid(R[i], F[i])
                row_ok[key] = v
            if not v:
                ok = False
                break
        if not ok:
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

    sv = _permute_support(sv, round2)

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
    return float(np.sum(np.abs(sv[keep]) ** 2))
