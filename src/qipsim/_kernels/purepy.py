"""Arithmetic kernels: the hot inner loops of the field and of formula
evaluation.

Field elements are plain ints whose bits hold GF(2) polynomial coefficients
(bit i = coefficient of x^i). The modulus ``g`` always includes its leading
x^k bit, so ``g.bit_length() == k+1``.

Formula programs are flat postfix opcode streams evaluated by a stack machine,
and round operators are parallel ``kinds``/``tvars`` int arrays; see the
constants below. Flat int programs keep the kernels free of Python object
graphs: no ``BoolExpr`` node or ``Field`` method is touched inside a loop.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence

NAME = "pure"

# Postfix program opcodes: (op, arg) pairs flattened into one int list.
OP_VAR, OP_NOT, OP_AND, OP_OR = 0, 1, 2, 3

# Round operator kinds for quantified evaluation.
K_FORALL, K_EXISTS, K_REDUCE = 0, 1, 2

_TABLE_MAX_K = 8
_mul_tables: dict[tuple[int, int], list[list[int]]] = {}


# ---------------------------------------------------------------------------
# GF(2)[x] helpers on plain ints (arbitrary degree).


def _clmul(a: int, b: int) -> int:
    p = 0
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        b >>= 1
    return p


def _pdivmod(a: int, b: int) -> tuple[int, int]:
    db = b.bit_length() - 1
    q = 0
    while a and a.bit_length() - 1 >= db:
        shift = (a.bit_length() - 1) - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def _pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return a


# ---------------------------------------------------------------------------
# Field construction (cold path).


def is_irreducible(g: int, k: int) -> bool:
    """Certificate check: g is monic of degree k and has no factor of
    degree <= k//2, i.e. gcd(g, x^(2^i) - x) = 1 for 1 <= i <= k//2."""
    if k < 1 or g.bit_length() != k + 1:
        return False
    r = _pdivmod(2, g)[1]  # x mod g
    for _ in range(k // 2):
        r = _pdivmod(_clmul(r, r), g)[1]
        if _pgcd(g, r ^ 2) != 1:
            return False
    return True


def find_modulus(k: int) -> int:
    """Smallest irreducible modulus of degree k by integer encoding."""
    for low in range(1 << k):
        g = (1 << k) | low
        if is_irreducible(g, k):
            return g
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# Hot kernels. ``combine`` runs the round rule on this module's multiply;
# ``qipsim._kernels.combine`` runs it on the active one.


def _mulmod(a: int, b: int, g: int, k: int) -> int:
    mask = (1 << k) - 1
    top = 1 << (k - 1)
    glow = g & mask
    p = 0
    while b:
        if b & 1:
            p ^= a
        b >>= 1
        carry = a & top
        a = (a << 1) & mask
        if carry:
            a ^= glow
    return p


def _table(g: int, k: int) -> list[list[int]]:
    tbl = _mul_tables.get((g, k))
    if tbl is None:
        size = 1 << k
        tbl = [[_mulmod(a, b, g, k) for b in range(size)] for a in range(size)]
        _mul_tables[(g, k)] = tbl
    return tbl


def gf_mul(a: int, b: int, g: int, k: int) -> int:
    if k <= _TABLE_MAX_K:
        return _table(g, k)[a][b]
    return _mulmod(a, b, g, k)


def gf_inv(a: int, g: int, k: int) -> int:
    """Inverse by the extended Euclidean algorithm on GF(2) polynomials."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    r0, r1 = g, a
    t0, t1 = 0, 1
    while r1 != 1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 ^ _clmul(q, t1)
        if r1 == 0:
            raise ValueError("element shares a factor with the modulus")
    return _pdivmod(t1, g)[1]


def poly_eval(coeffs: Sequence[int], z: int, g: int, k: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = gf_mul(acc, z, g, k) ^ c
    return acc


def interpolate(xs: Sequence[int], ys: Sequence[int], g: int, k: int) -> list[int]:
    """Lagrange interpolation; xs must be distinct. Returns len(xs) coeffs."""
    n = len(xs)
    out = [0] * n
    for i in range(n):
        num = [1]  # prod_{j != i} (z + xs[j]), lowest degree first
        den = 1
        for j in range(n):
            if j == i:
                continue
            num.append(0)
            for t in range(len(num) - 1, 0, -1):
                num[t] = num[t - 1] ^ gf_mul(num[t], xs[j], g, k)
            num[0] = gf_mul(num[0], xs[j], g, k)
            den = gf_mul(den, xs[i] ^ xs[j], g, k)
        scale = gf_mul(ys[i], gf_inv(den, g, k), g, k)
        for t in range(n):
            out[t] ^= gf_mul(num[t], scale, g, k)
    return out


def eval_formula(prog: Sequence[int], assign: Sequence[int], g: int, k: int) -> int:
    """Run a postfix formula program over the field. assign is indexed by
    0-based variable number; Boolean gates use 1+a and a+b+ab."""
    stack: list[int] = []
    for pos in range(0, len(prog), 2):
        op = prog[pos]
        arg = prog[pos + 1]
        if op == OP_VAR:
            stack.append(assign[arg])
        elif op == OP_NOT:
            stack[-1] ^= 1
        elif op == OP_AND:
            b = stack.pop()
            stack[-1] = gf_mul(stack[-1], b, g, k)
        else:
            b = stack.pop()
            a = stack[-1]
            stack[-1] = a ^ b ^ gf_mul(a, b, g, k)
    return stack[-1]


def combine_on(gf_mul, kind: int, rho: int, f0: int, f1: int, g: int, k: int) -> int:
    """The verifier's round rule on the given field multiply: the value f(0)
    and f(1) must combine to when the round variable held rho. forall f0*f1,
    exists f0+f1+f0*f1, reduce (1+rho)*f0 + rho*f1 (characteristic 2, so
    1+rho == rho^1)."""
    if kind == K_FORALL:
        return gf_mul(f0, f1, g, k)
    if kind == K_EXISTS:
        return f0 ^ f1 ^ gf_mul(f0, f1, g, k)
    return gf_mul(rho ^ 1, f0, g, k) ^ gf_mul(rho, f1, g, k)


combine = functools.partial(combine_on, gf_mul)


def quantified_value(
    kinds: Sequence[int],
    tvars: Sequence[int],
    start: int,
    prog: Sequence[int],
    assign: list[int],
    g: int,
    k: int,
) -> int:
    """Value of the operator suffix kinds[start:] applied to the arithmetized
    formula, under the current assignment. assign is scratch: entries for the
    suffix's bound variables are overwritten and restored."""
    if start == len(kinds):
        return eval_formula(prog, assign, g, k)
    t = tvars[start]
    old = assign[t]
    assign[t] = 0
    v0 = quantified_value(kinds, tvars, start + 1, prog, assign, g, k)
    assign[t] = 1
    v1 = quantified_value(kinds, tvars, start + 1, prog, assign, g, k)
    assign[t] = old
    return combine(kinds[start], old, v0, v1, g, k)


def honest_sweep(
    kinds: Sequence[int],
    tvars: Sequence[int],
    dbounds: Sequence[int],
    prog: Sequence[int],
    nvars: int,
    g: int,
    k: int,
) -> bool:
    """Exhaustive completeness check: does the verifier accept the honest
    prover on every challenge string? Round j's message interpolates the
    suffix values after round j at z < min(d_j + 1, |F|) and ignores its own
    variable's previous value. With 0 and 1 among the nodes, round j's
    combine check says "the previous message at its challenge equals the
    suffix value from round j", and the final matrix check is that test
    after round N. So: the chain is 1, and for each round, each setting of
    the variables bound before it (others 0) and each r in F, the message
    at r is the suffix value with the round variable at r."""
    size = 1 << k
    assign = [0] * nvars
    if quantified_value(kinds, tvars, 0, prog, assign, g, k) != 1:
        return False
    for j, t in enumerate(tvars):
        npts = min(dbounds[j] + 1, size)
        bound = [v for v in dict.fromkeys(tvars[:j]) if v != t]
        for point in itertools.product(range(size), repeat=len(bound)):
            for v, x in zip(bound, point):
                assign[v] = x
            ys = []
            for r in range(size):
                assign[t] = r
                ys.append(quantified_value(kinds, tvars, j + 1, prog, assign, g, k))
            cs = interpolate(range(npts), ys[:npts], g, k)
            for r in range(npts, size):
                if poly_eval(cs, r, g, k) != ys[r]:
                    return False
    return True
