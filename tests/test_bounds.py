import decimal
import math
import random
from fractions import Fraction

import mpmath
import pytest

from qipsim.bounds import (
    MAX_BOUND_K,
    BoundParams,
    check_mixture_bound,
    choose_params,
    coordinate_hit_probability,
    enumerate_coordinate_hits,
    soundness_bound,
    uniform_fidelity,
)


def test_uniform_fidelity_basic():
    assert uniform_fidelity([0.25] * 4) == pytest.approx(1.0, abs=1e-12)
    assert uniform_fidelity([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25, abs=1e-12)
    assert uniform_fidelity({"a": 0.0, "b": 0.0}) == 0.0
    assert uniform_fidelity([0.5]) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        uniform_fidelity([])
    with pytest.raises(ValueError):
        uniform_fidelity([0.5, -0.1])


def test_uniform_fidelity_capped_by_one():
    # Cauchy-Schwarz: any subnormalized weighting has fidelity at most 1
    rng = random.Random(13)
    for _ in range(2000):
        n = rng.randrange(1, 9)
        vals = [rng.random() for _ in range(n)]
        total = sum(vals)
        if total > 1:
            vals = [v / total for v in vals]
        assert uniform_fidelity(vals) <= 1 + 1e-12


def test_mixture_bound_degenerate_cases():
    # f identically zero: r = 1 and the bound reads 1 - lam
    out = check_mixture_bound([0.0, 0.0], [0.5, 0.5], 0.25)
    assert out.r == 1.0
    assert out.rhs == pytest.approx(0.75, abs=1e-12)
    assert out.holds
    # lam = 0 ignores f entirely
    out = check_mixture_bound([0.0, 1.0], [1.0, 0.0], 0.0)
    assert out.holds and out.rhs >= 1


def test_mixture_bound_random_fuzz():
    rng = random.Random(99)
    for _ in range(3000):
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


def test_mixture_bound_validation():
    with pytest.raises(ValueError):
        check_mixture_bound([0.5], [0.5, 0.5], 0.5)
    with pytest.raises(ValueError):
        check_mixture_bound([0.5], [0.5], 1.5)
    with pytest.raises(ValueError):
        check_mixture_bound([0.9, 0.9], [0.5], 0.5)
    with pytest.raises(ValueError):
        check_mixture_bound([], [], 0.5)


def test_coordinate_hit_exact_value():
    hit = coordinate_hit_probability(3, 2)
    assert hit.value == Fraction(5, 9)
    assert hit.exceeds
    assert hit.lower_bound == pytest.approx(1 - math.exp(-2 / 3), abs=1e-15)
    assert coordinate_hit_probability(4, 0).value == 0


def test_coordinate_hit_matches_enumeration():
    for n_rounds in range(1, 5):
        for m in range(0, 6):
            exact = coordinate_hit_probability(n_rounds, m).value
            assert exact == enumerate_coordinate_hits(n_rounds, m)
    # independent of the fixed vector by symmetry
    assert enumerate_coordinate_hits(3, 3, (2, 1, 3)) == \
        coordinate_hit_probability(3, 3).value


def test_coordinate_hit_strictly_exceeds_exponential():
    for n_rounds in range(1, 5):
        for m in range(1, 6):
            hit = coordinate_hit_probability(n_rounds, m)
            assert float(hit.value) > hit.lower_bound
            assert hit.exceeds


def test_coordinate_hit_validation():
    with pytest.raises(ValueError):
        coordinate_hit_probability(0, 1)
    with pytest.raises(ValueError):
        coordinate_hit_probability(2, -1)
    with pytest.raises(ValueError):
        enumerate_coordinate_hits(2, 2, (1, 3))


def test_soundness_bound_frozen_values():
    p = choose_params(5, 3, 2)
    assert (p.m, p.k) == (12, 22)
    out = soundness_bound(p)
    assert not out.vacuous
    assert float(out.value) == pytest.approx(0.008346688970213427, rel=1e-9)
    p1 = choose_params(1, 3, 2)
    assert (p1.m, p1.k) == (4, 12)
    assert float(soundness_bound(p1).value) == pytest.approx(
        0.24612165612206027, rel=1e-9)


def test_soundness_bound_structure():
    p = BoundParams(d=2, n_rounds=2, m=1, k=2)
    out = soundness_bound(p)
    assert out.error_term == Fraction(1, 2)
    assert float(out.hit_term) == pytest.approx(1 - math.exp(-0.5), rel=1e-12)
    assert out.vacuous and out.value >= 1


def test_soundness_bound_monotone_in_k():
    prev = None
    for k in range(10, 60, 6):
        v = soundness_bound(BoundParams(d=3, n_rounds=2, m=12, k=k)).value
        if prev is not None:
            assert v < prev
        prev = v


def test_soundness_bound_monotone_in_m_at_large_k():
    prev = None
    for mult in range(1, 8):
        v = soundness_bound(BoundParams(d=3, n_rounds=5, m=5 * mult, k=80)).value
        if prev is not None:
            assert v < prev
        prev = v


def test_soundness_bound_tiny_tail():
    p = BoundParams(d=3, n_rounds=2, m=2_000_000, k=200)
    out = soundness_bound(p)
    assert not out.vacuous
    # hit term is 1 - e^(-1e6): only the 2*sqrt(eps) tail remains
    assert out.value < Fraction(1, 2 ** 80)
    assert out.value > 0


REFERENCE_BITS = 3000


def _reference_bound(p: BoundParams):
    """The bound in the paper's form, 1 - hit*(1 - eps) + 2*sqrt(eps), at
    REFERENCE_BITS; enough bits that its cancellation costs nothing while
    m/N stays below REFERENCE_BITS*ln(2)/2."""
    assert p.m / p.n_rounds < REFERENCE_BITS * math.log(2) / 2
    with mpmath.workprec(REFERENCE_BITS):
        eps = mpmath.mpf(p.error_term.numerator) / p.error_term.denominator
        hit = 1 - mpmath.exp(mpmath.mpf(-p.m) / p.n_rounds)
        return 1 - hit * (1 - eps) + 2 * mpmath.sqrt(eps), hit


def test_soundness_bound_matches_high_precision_reference():
    # m/N up to 1000 puts e^(-m/N) far below 2^-PRECISION_BITS, where
    # summing 1 - hit*(1 - eps) at working precision would drop it
    for d in (1, 3):
        for n_rounds in (1, 2, 7):
            for m in (1, 12, 138, 139, 140, 300, 1000):
                for k in (1, 2, 10, 64, 200, 201, 500, 1000):
                    p = BoundParams(d=d, n_rounds=n_rounds, m=m, k=k)
                    out = soundness_bound(p)
                    ref, ref_hit = _reference_bound(p)
                    with mpmath.workprec(REFERENCE_BITS):
                        rel = abs(mpmath.mpf(str(out.value)) - ref) / ref
                        assert rel < mpmath.mpf(2) ** -190, p
                        assert out.vacuous == (ref >= 1), p
                    assert float(out.value) == float(ref), p
                    assert float(out.hit_term) == float(ref_hit), p


def test_soundness_bound_ignores_global_precision():
    p = BoundParams(d=1, n_rounds=7, m=1000, k=1000)
    expected = soundness_bound(p)
    with mpmath.workprec(1000), decimal.localcontext() as ctx:
        ctx.prec = 5
        assert soundness_bound(p) == expected


def test_choose_params_hits_targets_small():
    for x_len in (1, 2, 5, 8):
        for n_rounds in (2, 5):
            p = choose_params(x_len, 3, n_rounds)
            assert soundness_bound(p).value < Fraction(1, 2 ** x_len)


def test_choose_params_validation():
    with pytest.raises(ValueError):
        choose_params(0, 3, 2)
    with pytest.raises(ValueError):
        choose_params(1, 3, 0)


def test_bound_params_validation():
    with pytest.raises(ValueError):
        BoundParams(d=0, n_rounds=2, m=1, k=2)
    # the cost is quadratic in k: 2^16 bits take milliseconds, and past the
    # cutoff both an explicit k and the k choose_params picks are refused
    assert MAX_BOUND_K == 1 << 16
    assert not soundness_bound(BoundParams(d=3, n_rounds=9, m=1, k=1 << 16)).vacuous
    with pytest.raises(ValueError, match="exceeds the bound's cutoff 65536"):
        BoundParams(d=3, n_rounds=9, m=1, k=(1 << 16) + 1)
    with pytest.raises(ValueError, match="exceeds the bound's cutoff 65536"):
        choose_params(2_000_000, 3, 9)
    p = BoundParams(d=2, n_rounds=5, m=1, k=2)
    assert p.error_term == Fraction(2, 4)
