"""Analytic soundness quantities for the two-round quantum protocol.

uniform_fidelity is the squared overlap of a probability-like weighting with
the uniform superposition over its index set; the mixture bound caps it for
any blend of a partly-zero weighting with an arbitrary one. Together with
the coordinate-hit probability (the chance a uniformly drawn u shares a
coordinate with a fixed vector) these yield the closed-form acceptance bound
for an arbitrary cheating prover, and a parameter chooser that drives the
bound below 2^-x_len.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from typing import NamedTuple

PRECISION_BITS = 200
MIXTURE_TOL = 1e-12
# The bound's cost grows quadratically in k (eps = d*m / 2^k is a k-bit
# division): 2^16 bits take milliseconds, 2^20 seconds.
MAX_BOUND_K = 1 << 16


@dataclass(frozen=True)
class BoundParams:
    d: int         # verifier degree bound
    n_rounds: int  # N
    m: int         # register rows
    k: int         # bits per field element

    def __post_init__(self):
        if min(self.d, self.n_rounds, self.m, self.k) < 1:
            raise ValueError("bound parameters must be positive")
        if self.k > MAX_BOUND_K:
            raise ValueError(f"k = {self.k} exceeds the bound's cutoff {MAX_BOUND_K}")

    @property
    def error_term(self) -> Fraction:
        """d*m / 2^k, the per-collision error mass."""
        return Fraction(self.d * self.m, 1 << self.k)


def _values(f) -> list[float]:
    vals = list(f.values()) if isinstance(f, Mapping) else list(f)
    if not vals:
        raise ValueError("weighting must be over a nonempty set")
    if any(v < 0 for v in vals):
        raise ValueError("weights must be nonnegative")
    return [float(v) for v in vals]


def uniform_fidelity(f) -> float:
    """(1/|S|) * (sum_s sqrt(f(s)))^2 for a nonnegative weighting on a
    finite set, given as a mapping or a sequence of values."""
    vals = _values(f)
    return sum(math.sqrt(v) for v in vals) ** 2 / len(vals)


class MixtureBoundCheck(NamedTuple):
    lhs: float
    rhs: float
    r: float
    holds: bool


def check_mixture_bound(f, g, lam) -> MixtureBoundCheck:
    """Test uniform_fidelity(lam*f + (1-lam)*g) <= 1 - lam*r + 2*sqrt(1-r),
    where r is the fraction of points where f vanishes. Requires both
    weightings to sum to at most 1 and share the same index set."""
    fv, gv = _values(f), _values(g)
    if len(fv) != len(gv):
        raise ValueError("weightings must share one index set")
    if not 0 <= lam <= 1:
        raise ValueError("mixing coefficient must lie in [0, 1]")
    if sum(fv) > 1 + MIXTURE_TOL or sum(gv) > 1 + MIXTURE_TOL:
        raise ValueError("weightings must have total mass at most 1")
    r = sum(1 for v in fv if v == 0) / len(fv)
    lhs = uniform_fidelity([lam * a + (1 - lam) * b for a, b in zip(fv, gv)])
    rhs = 1 - lam * r + 2 * math.sqrt(1 - r)
    return MixtureBoundCheck(lhs, rhs, r, lhs <= rhs + MIXTURE_TOL)


class CoordinateHit(NamedTuple):
    value: Fraction      # exact 1 - (1 - 1/N)^m
    lower_bound: float   # 1 - e^(-m/N)
    exceeds: bool        # value > lower_bound


def coordinate_hit_probability(n_rounds: int, m: int) -> CoordinateHit:
    """Probability that a uniform u in {1..N}^m agrees with a fixed vector
    in at least one coordinate; exact, with the exponential comparison."""
    if n_rounds < 1 or m < 0:
        raise ValueError("need N >= 1 and m >= 0")
    value = 1 - Fraction(n_rounds - 1, n_rounds) ** m
    lower = 1.0 - math.exp(-m / n_rounds)
    return CoordinateHit(value, lower, float(value) > lower)


@dataclass(frozen=True)
class SoundnessBound:
    value: Decimal
    vacuous: bool             # bound >= 1 says nothing
    hit_term: Decimal         # 1 - e^(-m/N)
    error_term: Fraction      # d*m / 2^k


def soundness_bound(p: BoundParams) -> SoundnessBound:
    """Acceptance cap 1 - (1 - e^(-m/N))(1 - eps) + 2*sqrt(eps), eps = dm/2^k,
    for any prover on a false formula, summed as positive terms so nothing
    cancels; each step is correctly rounded in one local PRECISION_BITS context."""
    ctx = Context(prec=math.ceil(PRECISION_BITS * math.log10(2)),
                  Emin=MIN_EMIN, Emax=MAX_EMAX)
    eps = ctx.divide(p.error_term.numerator, p.error_term.denominator)
    tail = ctx.exp(ctx.divide(-p.m, p.n_rounds))
    hit = ctx.subtract(1, tail)
    value = ctx.add(tail, ctx.fma(hit, eps, ctx.multiply(2, ctx.sqrt(eps))))
    return SoundnessBound(value, value >= 1, hit, p.error_term)


def choose_params(x_len: int, d: int, n_rounds: int) -> BoundParams:
    """m = (x_len+1)*N and k = 2*x_len + 6 + ceil(log2(d*m)): fast-growing
    enough that the soundness bound falls below 2^-x_len."""
    if min(x_len, d, n_rounds) < 1:
        raise ValueError("inputs must be positive")
    m = (x_len + 1) * n_rounds
    k = 2 * x_len + 6 + (d * m - 1).bit_length()
    return BoundParams(d=d, n_rounds=n_rounds, m=m, k=k)


def enumerate_coordinate_hits(n_rounds: int, m: int,
                              v: Sequence[int] | None = None) -> Fraction:
    """Brute-force mate of coordinate_hit_probability: count u in {1..N}^m
    sharing a coordinate with v (default all-ones) by direct enumeration."""
    import itertools

    if n_rounds < 1 or m < 0:
        raise ValueError("need N >= 1 and m >= 0")
    v = tuple(v) if v is not None else (1,) * m
    if len(v) != m or any(not 1 <= x <= n_rounds for x in v):
        raise ValueError("v must be m coordinates in 1..N")
    hits = sum(
        1
        for u in itertools.product(range(1, n_rounds + 1), repeat=m)
        if any(a == b for a, b in zip(u, v))
    )
    return Fraction(hits, n_rounds ** m)
