"""Parity between the kernels and reference arithmetic written here.

The reference code shares nothing with ``qipsim._kernels.purepy`` but the
modulus: multiplication is a carry-less product reduced by long division,
inversion is Fermat exponentiation, evaluation is Horner, and formulas are
evaluated by recursion on the parsed tree with ``cheater_oracle.combine``."""

import operator
import random
from types import SimpleNamespace

from hypothesis import given
from hypothesis import strategies as st

from cheater_oracle import combine as ref_combine
from strategies import formulas
import qipsim._kernels
from qipsim._kernels import find_modulus, purepy
from qipsim.gf2k import Field
from qipsim.qbf import And, Not, Var, compile_matrix, parse_qbf
from qipsim.sumcheck import build_schedule


def ref_mul(a, b, g):
    """Carry-less product of a and b, reduced by long division by g."""
    p = 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            p ^= a << i
    dg = g.bit_length() - 1
    for i in range(p.bit_length() - 1, dg - 1, -1):
        if p >> i & 1:
            p ^= g << (i - dg)
    return p


def ref_inv(a, g, k):
    """a^(2^k - 2), by square-and-multiply on ``ref_mul``."""
    out, base, e = 1, a, (1 << k) - 2
    while e:
        if e & 1:
            out = ref_mul(out, base, g)
        base = ref_mul(base, base, g)
        e >>= 1
    return out


def ref_horner(coeffs, z, g):
    acc = 0
    for c in reversed(coeffs):
        acc = ref_mul(acc, z, g) ^ c
    return acc


def ref_formula(e, assign, g):
    if isinstance(e, Var):
        return assign[e.index - 1]
    if isinstance(e, Not):
        return ref_formula(e.child, assign, g) ^ 1
    a = ref_formula(e.left, assign, g)
    b = ref_formula(e.right, assign, g)
    if isinstance(e, And):
        return ref_mul(a, b, g)
    return a ^ b ^ ref_mul(a, b, g)


def ref_quantified(matrix, rounds, assign, g):
    """The (kind, 0-based variable) rounds applied to the arithmetized
    matrix."""
    if not rounds:
        return ref_formula(matrix, assign, g)
    kind, t = rounds[0]
    f0, f1 = (ref_quantified(matrix, rounds[1:], assign[:t] + (b,) + assign[t + 1:], g)
              for b in (0, 1))
    field = SimpleNamespace(mul=lambda x, y: ref_mul(x, y, g))
    return ref_combine(kind, assign[t], f0, f1, field)


def _operands(rng, k, count):
    top = (1 << k) - 1
    edges = [0, 1, top, 1 << (k - 1)]
    return [(a, b) for a in edges for b in edges] + [
        (rng.getrandbits(k), rng.getrandbits(k)) for _ in range(count)]


def _reciprocal(g, k):
    """x^k g(1/x): g's coefficients reversed, irreducible when g is.
    find_modulus(k) has a tail of low degree, so its reciprocal has one of
    high degree (k - 1 for k = 9, 13, 16, 33, 63 and 64), whose residues
    fill the bits below x^k."""
    return int(format(g, "b")[::-1], 2)


def test_mul_parity():
    # odd k and k that straddle a hex digit or a byte probe the comb's
    # partial top digit and the top row of the byte residues, which the
    # part of a product at x^k and above fills only partly; the reciprocal
    # moduli give dense residues in every row
    rng = random.Random(1)
    for k in (2, 3, 8, 9, 13, 16, 17, 31, 32, 33, 63, 64):
        moduli = [find_modulus(k)]
        if k > 8:
            moduli.append(_reciprocal(moduli[0], k))
            assert purepy.is_irreducible(moduli[1], k)
        for g in moduli:
            for a, b in _operands(rng, k, 500):
                assert purepy.gf_mul(a, b, g, k) == ref_mul(a, b, g)


def test_inv_parity():
    rng = random.Random(2)
    for k in (2, 3, 8, 16, 32, 33, 63, 64):
        g = find_modulus(k)
        for a in {1, (1 << k) - 1} | {rng.getrandbits(k) or 1 for _ in range(60)}:
            assert purepy.gf_inv(a, g, k) == ref_inv(a, g, k)


def test_poly_parity():
    # interpolating a polynomial's values at distinct nodes gives back its
    # coefficients, and the result evaluates back to the values at the nodes
    rng = random.Random(3)
    for k in (2, 3, 8, 16, 33, 63, 64):
        g = find_modulus(k)
        for deg in (0, 1, 2, 3, 6):
            if deg + 1 > (1 << k):
                continue  # not enough field points for these nodes
            coeffs = [rng.getrandbits(k) for _ in range(deg + 1)]
            xs = rng.sample(range(1 << min(k, 16)), deg + 1)
            ys = [ref_horner(coeffs, x, g) for x in xs]
            assert ys == [purepy.poly_eval(coeffs, x, g, k) for x in xs]
            got = list(purepy.interpolate(xs, ys, g, k))
            assert got == coeffs
            assert [ref_horner(got, x, g) for x in xs] == ys


def test_formula_kernels_parity():
    rng = random.Random(4)
    for text in ("A x1 E x2 : (x1 | ~x2) & (~x1 | x2)",
                 "E x1 A x2 E x3 : (x1 & ~x2) | (x2 & x3) | ~(x1 | x3)",
                 "A x1 : x1 & ~x1 & (x1 | x1)"):
        q = parse_qbf(text)
        sched = build_schedule(q)
        prog = compile_matrix(q.matrix)
        kinds, tvars = sched.kinds, sched.tvars
        rounds = list(zip(kinds, tvars))
        for k in (2, 3, 16):
            g = find_modulus(k)
            for _ in range(20):
                assign = tuple(rng.getrandbits(k) for _ in range(q.n))
                assert purepy.eval_formula(prog, assign, g, k) == ref_formula(
                    q.matrix, assign, g)
                for j in range(sched.n_rounds + 1):
                    scratch = list(assign)
                    got = purepy.quantified_value(kinds, tvars, j, prog, scratch, g, k, {})
                    assert scratch == list(assign)
                    assert got == ref_quantified(q.matrix, rounds[j:], assign, g)


@st.composite
def _formula_points(draw):
    """A generated formula, a field width, and an assignment whose entries
    are each independently Boolean or a random field element."""
    q = draw(formulas(max_n=3))
    k = draw(st.sampled_from((2, 3, 32, 64)))
    elem = st.one_of(st.sampled_from((0, 1)), st.integers(0, (1 << k) - 1))
    return q, k, tuple(draw(elem) for _ in range(q.n))


@given(_formula_points())
def test_formula_kernels_parity_generated(inst):
    # the reduce shortcut and the Boolean selects at Boolean, non-Boolean
    # and mixed points
    q, k, assign = inst
    g = find_modulus(k)
    sched = build_schedule(q)
    prog = compile_matrix(q.matrix)
    kinds, tvars = sched.kinds, sched.tvars
    rounds = list(zip(kinds, tvars))
    assert purepy.eval_formula(prog, assign, g, k) == ref_formula(q.matrix, assign, g)
    for j in range(sched.n_rounds + 1):
        scratch = list(assign)
        got = purepy.quantified_value(kinds, tvars, j, prog, scratch, g, k, {})
        assert scratch == list(assign)
        assert got == ref_quantified(q.matrix, rounds[j:], assign, g)


def test_active_is_the_pure_module():
    assert qipsim._kernels.active is purepy
    assert qipsim.backend_name == "pure"
    assert Field(4).ops is purepy


def test_combine_multiplies_through_active_backend(monkeypatch):
    # a backend set as ``active`` after import (a counting proxy, say) sees
    # every multiply of the verifier's round rule
    calls = []

    def counting_mul(a, b, g, k):
        calls.append((a, b))
        return purepy.gf_mul(a, b, g, k)

    monkeypatch.setattr(qipsim._kernels, "active", SimpleNamespace(gf_mul=counting_mul))
    f = Field(3)
    for kind, muls in ((purepy.K_FORALL, 1), (purepy.K_EXISTS, 1), (purepy.K_REDUCE, 1)):
        calls.clear()
        got = qipsim._kernels.combine(kind, 5, 3, 6, f.g, f.k)
        assert got == purepy.combine_on(purepy.gf_mul, operator.xor, kind, 5, 3, 6, f.g, f.k)
        assert len(calls) == muls


def _ref_rule(kind, rho, f0, f1, g):
    """The round rules in their textbook forms on ``ref_mul``; reduce is
    (1+rho)*f0 + rho*f1."""
    if kind == purepy.K_FORALL:
        return ref_mul(f0, f1, g)
    if kind == purepy.K_EXISTS:
        return f0 ^ f1 ^ ref_mul(f0, f1, g)
    return ref_mul(1 ^ rho, f0, g) ^ ref_mul(rho, f1, g)


def _zpoly(rng, k):
    """A value of the symbolic walk: an int, or a coefficient list of
    length 1 to 4 whose entries are each 0, 1 or a random element."""
    if rng.random() < 0.25:
        return rng.getrandbits(k)
    return [rng.choice((0, 1, rng.getrandbits(k))) for _ in range(rng.randint(1, 4))]


def test_combine_parity():
    # the round rules against their textbook forms on ``ref_mul``, at
    # Boolean and non-Boolean rho; with polynomial operands and rho (the
    # symbolic walk's case), the rule on ``_zmul`` at z is the scalar rule
    # on the values at z
    rng = random.Random(5)
    combine = qipsim._kernels.combine
    for k in (1, 2, 3, 8, 32, 64):
        g = find_modulus(k)
        for f0, f1 in _operands(rng, k, 60):
            for kind in (purepy.K_FORALL, purepy.K_EXISTS):
                assert combine(kind, 0, f0, f1, g, k) == _ref_rule(kind, 0, f0, f1, g)
            for rho in {0, 1, (1 << k) - 1, rng.getrandbits(k)}:
                assert combine(purepy.K_REDUCE, rho, f0, f1, g, k) == (
                    _ref_rule(purepy.K_REDUCE, rho, f0, f1, g))
        for _ in range(40):
            p0, p1, rho = _zpoly(rng, k), _zpoly(rng, k), _zpoly(rng, k)
            for kind in (purepy.K_FORALL, purepy.K_EXISTS, purepy.K_REDUCE):
                got = purepy.combine_on(purepy._zmul, purepy._zadd, kind, rho, p0, p1, g, k)
                for z in {0, 1, (1 << k) - 1, rng.getrandbits(k)}:
                    at = [v if type(v) is int else ref_horner(v, z, g) for v in (rho, p0, p1)]
                    want = _ref_rule(kind, *at, g)
                    assert (got if type(got) is int else ref_horner(got, z, g)) == want
