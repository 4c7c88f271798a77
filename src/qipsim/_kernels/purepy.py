"""Arithmetic kernels: the hot inner loops of the field and of formula
evaluation.

Field elements are plain ints whose bits hold GF(2) polynomial coefficients
(bit i = coefficient of x^i). The modulus ``g`` always includes its leading
x^k bit, so ``g.bit_length() == k+1``. Fields up to k = 8 multiply by table
lookup; larger ones form the carry-less product from the hex digits of one
operand and reduce it a byte at a time through per-field tables of byte
residues, one path for every modulus (``_mulmod``).

Formula programs are flat postfix opcode streams evaluated by a stack machine,
and round operators are parallel ``kinds``/``tvars`` int arrays; see the
constants below. Flat int programs keep the kernels free of Python object
graphs: no ``BoolExpr`` node or ``Field`` method is touched inside a loop.

A partial value and an honest message are the same object, the value of
an operator suffix, and one walk computes both (``_suffix``): at a point
(``quantified_value``), or with the round variable held as a polynomial in
z (``honest_message``), which needs no interpolation. The same walk
memoizes its values at Boolean points, and ``combine_on`` is the one round
rule, the verifier's included. The gates are written once too: one postfix
runner (``_run_postfix``) evaluates the formula on field elements,
polynomials in z and whole tables.

The sweep (``honest_sweep``) builds the suffix values as tables instead,
one bottom-up pass per round (``_suffix_tables``): the matrix at every
point of F^n, from the postfix runner run on whole tables, then each
round's operator on whole tables through ``combine_on``. Every line of a
table along its round's variable must equal its interpolant through the
round's nodes at every field element. The sweep shares the gates and the
round rule with the prover but none of its polynomial arithmetic (products
of sequences, the fold past the field), so it checks completeness, not
the messages ``honest_message`` builds; the tests check those against a
recursion that shares no code with this module.
"""

from __future__ import annotations

import functools
import itertools
import operator
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
# Hot kernels. ``qipsim._kernels.combine`` runs the round rule
# (``combine_on``) on the active module's multiply.


def _mulmod(a: int, b: int, g: int, k: int) -> int:
    """a*b mod g by a hex-digit comb and a byte-wise reduction. The window
    holds the carry-less products a*h for the 16 polynomials h of degree
    < 4, so the product a*b is built from b's hex digits, top first, as
    p = p*x^4 + window[digit]. p then has degree < 2k - 1, so its part at
    x^k and above, hi, has at most k - 1 bits. That part is cleared and
    each byte of hi, the coefficients of x^(k+8i)..x^(k+8i+7), is replaced
    by its residue mod g from row i of ``_byte_residues``; the lookups are
    independent, and the sum keeps p's residue mod g."""
    a2 = a << 1
    a4 = a << 2
    a8 = a << 3
    a3 = a2 ^ a
    a12 = a8 ^ a4
    window = (0, a, a2, a3, a4, a4 ^ a, a4 ^ a2, a4 ^ a3,
              a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a12, a12 ^ a, a12 ^ a2, a12 ^ a3)
    p = 0
    for s in range((b.bit_length() - 1) & ~3, -1, -4):
        p = (p << 4) ^ window[(b >> s) & 15]
    hi = p >> k
    p ^= hi << k
    for row in _byte_residues(g, k):
        p ^= row[hi & 255]
        hi >>= 8
    return p


# 256 ints a row and ceil((k-1)/8) rows per (g, k), and a process multiplies
# in only a few fields; the bound holds even for a caller that cycles
# through many moduli.
@functools.lru_cache(maxsize=16)
def _byte_residues(g: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Row i, entry h is h*x^(k+8i) mod g, for the bytes h of a product's
    part at x^k and above (at most k - 1 bits). Each row is built by XOR
    from the residues of its 8 single bits, x^(k+8i+j) mod g."""
    rows = []
    r = g ^ (1 << k)  # x^k mod g
    for _ in range((k + 6) // 8):
        row = [0]
        for _ in range(8):
            row += [e ^ r for e in row]
            r <<= 1
            if r >> k:
                r ^= g
        rows.append(tuple(row))
    return tuple(rows)


def _table(g: int, k: int) -> list[list[int]]:
    tbl = _mul_tables.get((g, k))
    if tbl is None:
        size = 1 << k
        tbl = [[_mulmod(a, b, g, k) for b in range(size)] for a in range(size)]
        _mul_tables[(g, k)] = tbl
    return tbl


def gf_mul(a: int, b: int, g: int, k: int) -> int:
    if a <= 1 or b <= 1:  # 0 and 1 multiply as integers
        return a * b
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
    """Lagrange interpolation; xs must be distinct. Returns len(xs) coeffs:
    the sum over i of ys[i] times the i-th basis polynomial, which depends
    only on the nodes and comes from ``_lagrange_basis``."""
    out = [0] * len(xs)
    for y, basis in zip(ys, _lagrange_basis(tuple(xs), g, k)):
        if y:
            for t, c in enumerate(basis):
                out[t] ^= gf_mul(y, c, g, k)
    return out


# The sweep's nodes are always range(npts), npts at most a round's degree
# cap plus one, so they fill a few entries per (g, k).
# An entry for n nodes holds n*n ints. Other node tuples, such as those of
# ``Field.poly_interpolate``, share the rest, least recently used out first.
_BASIS_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _lagrange_basis(xs: tuple[int, ...], g: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Coefficients, lowest degree first, of the Lagrange basis polynomials
    prod_{j != i} (z + xs[j]) / (xs[i] + xs[j]) for each node xs[i]."""
    basis = []
    for i, xi in enumerate(xs):
        num = [1]
        den = 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num.append(0)
            for t in range(len(num) - 1, 0, -1):
                num[t] = num[t - 1] ^ gf_mul(num[t], xj, g, k)
            num[0] = gf_mul(num[0], xj, g, k)
            den = gf_mul(den, xi ^ xj, g, k)
        inv = gf_inv(den, g, k)
        basis.append(tuple(gf_mul(c, inv, g, k) for c in num))
    return tuple(basis)


def eval_formula(prog: Sequence[int], assign: Sequence[int], g: int, k: int) -> int:
    """Run a postfix formula program over the field (``_run_postfix`` on XOR
    and ``gf_mul``). assign is indexed by 0-based variable number; Boolean
    gates use 1+a, ab and a+b+ab. A gate with a 0/1 operand makes no field
    multiply, since ``gf_mul`` returns a*b for one."""
    return _run_postfix(prog, assign, operator.xor, gf_mul, g, k)


def combine_on(mul, add, kind: int, rho, f0, f1, g: int, k: int):
    """The round rule on the given multiply and addition: the value f(0)
    and f(1) must combine to when the round variable held rho. forall
    f0*f1, exists f0+f1+f0*f1, reduce (1+rho)*f0 + rho*f1, computed with one
    multiply as f0 + rho*(f0+f1) (characteristic 2: + is XOR). The operands
    are field elements, with ``gf_mul`` and XOR; polynomials in z, with
    ``_zmul`` and ``_zadd``; or arrays of field elements, with a product
    table lookup and XOR."""
    if kind == K_FORALL:
        return mul(f0, f1, g, k)
    if kind == K_EXISTS:
        return add(add(f0, f1), mul(f0, f1, g, k))
    return add(f0, mul(rho, add(f0, f1), g, k))


def _split(assign: Sequence[int], t: int) -> tuple[int, int]:
    """(mask, pending) of assign for ``_suffix``, x_t left out."""
    mask = pending = 0
    for s, a in enumerate(assign):
        if s != t:
            if a > 1:
                pending += 1
            else:
                mask |= a << s
    return mask, pending


def quantified_value(
    kinds: Sequence[int],
    tvars: Sequence[int],
    start: int,
    prog: Sequence[int],
    assign: list[int],
    g: int,
    k: int,
    memo: dict[int, int | Sequence[int]],
) -> int:
    """Value of the operator suffix kinds[start:] applied to the arithmetized
    formula, under the current assignment: ``_suffix`` with no variable held
    as z. assign is scratch: entries for the suffix's bound variables are
    overwritten and restored. ``memo`` serves one (kinds, tvars, prog)
    only."""
    mask, pending = _split(assign, -1)
    return _suffix(kinds, tvars, start, -1, prog, assign, mask, pending, g, k, memo)


# A memo of suffix values at Boolean points (``_suffix``), scalar and
# symbolic (x_t held as z) alike, takes no entry past this
# size; it is a sixteenth of sumcheck.MAX_PARTIAL_LEAVES, the most
# evaluations one suffix walk at a point may make. The cap counts entries,
# not bytes. A scalar entry is 0 or 1. A symbolic entry is 0, 1 or a list of
# 0/1 coefficients (every variable but the round variable is Boolean, so its
# arithmetic stays in GF(2)), one more than its degree in the round
# variable, so its size grows with how often that variable occurs in the
# formula.
MEMO_MAX_ENTRIES = 1 << 18


# ---------------------------------------------------------------------------
# Polynomials in the round variable z. A value is an int when it is free of
# z, else a sequence of coefficients, lowest degree first. No sequence is
# changed once built, so values share them freely.

_Z = (0, 1)


def _zadd(a, b):
    if type(a) is int:
        if type(b) is int:
            return a ^ b
        a, b = b, a
    out = list(a)
    if type(b) is int:
        out[0] ^= b
        return out
    if len(b) > len(out):
        out += [0] * (len(b) - len(out))
    for i, c in enumerate(b):
        out[i] ^= c
    return out


def _zmul(a, b, g: int, k: int):
    """a*b: one multiply per coefficient against an int, none against 0/1."""
    if type(a) is int:
        if type(b) is int:
            return gf_mul(a, b, g, k)
        a, b = b, a
    if type(b) is int:
        if b <= 1:
            return a if b else 0
        return [gf_mul(c, b, g, k) for c in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] ^= gf_mul(x, y, g, k)
    return out


def _run_postfix(prog: Sequence[int], leaves: Sequence, add, mul, g: int, k: int):
    """Run a postfix formula program on the given addition and multiply,
    with leaves[s] the value of variable s: the gates, written once, on
    field elements (``eval_formula``), polynomials in z (``_z_formula``) or
    whole tables (``_suffix_tables``)."""
    stack: list = []
    for pos in range(0, len(prog), 2):
        op = prog[pos]
        if op == OP_VAR:
            stack.append(leaves[prog[pos + 1]])
        elif op == OP_NOT:
            stack[-1] = add(stack[-1], 1)
        elif op == OP_AND:
            b = stack.pop()
            stack[-1] = mul(stack[-1], b, g, k)
        else:
            b = stack.pop()
            a = stack[-1]
            stack[-1] = add(add(a, b), mul(a, b, g, k))
    return stack[-1]


def _z_formula(prog: Sequence[int], assign: Sequence[int], t: int, g: int, k: int):
    """``eval_formula`` with variable t held as z."""
    leaves = list(assign)
    leaves[t] = _Z
    return _run_postfix(prog, leaves, _zadd, _zmul, g, k)


def _suffix(kinds, tvars, start, t, prog, assign, mask, pending, g, k, memo):
    """The value of the operator suffix kinds[start:] under assign: a field
    element when t < 0, else a polynomial in z = x_t, down to the first
    reduce round on x_t (no quantifier round on x_t follows round j). There
    x_t is set to 0 and to 1, which leaves the rest of the chain free of z,
    and the walk goes on with t < 0. assign is scratch, restored on return.

    ``pending`` counts the variables other than x_t that hold neither 0 nor
    1, and bit s of ``mask`` is assign[s] for the others. A reduce round
    whose variable holds rho in {0, 1} is the next suffix's value at rho,
    since (1+rho)*f0 + rho*f1 = f_rho there, so it is skipped; other rounds
    branch on their variable and combine the branches (``combine_on``).

    With none pending, the value depends only on (start, t, mask), not on
    any challenge, and it is read from and stored in ``memo``, none once
    the memo holds MEMO_MAX_ENTRIES. With t < 0 the point is Boolean, every
    reduce round is skipped, so kinds[start] is a quantifier round or the
    end of the chain, and the value is the 0/1 truth value of the residual
    QBF; its key is mask * (N + 1) + start. With t >= 0 the key is negative,
    apart from those. No call tree meets one state twice, so a fresh memo
    changes no evaluation count."""
    n = len(kinds)
    while (start < n and kinds[start] == K_REDUCE and tvars[start] != t
           and assign[tvars[start]] <= 1):
        start += 1
    if not pending:
        key = mask * (n + 1) + start if t < 0 else ~((mask * len(assign) + t) * (n + 1) + start)
        v = memo.get(key)
        if v is not None:
            return v
    if start == n:
        v = eval_formula(prog, assign, g, k) if t < 0 else _z_formula(prog, assign, t, g, k)
    else:
        s = tvars[start]
        old = assign[s]
        bit = 1 << s
        if s == t:  # (1+z)*v0 + z*v1
            rho, sub, rest = _Z, -1, pending
        else:
            rho, sub, rest = old, t, pending - (old > 1)
        assign[s] = 0
        v0 = _suffix(kinds, tvars, start + 1, sub, prog, assign, mask & ~bit, rest,
                     g, k, memo)
        assign[s] = 1
        v1 = _suffix(kinds, tvars, start + 1, sub, prog, assign, mask | bit, rest,
                     g, k, memo)
        assign[s] = old
        v = combine_on(_zmul, _zadd, kinds[start], rho, v0, v1, g, k)
    if not pending and len(memo) < MEMO_MAX_ENTRIES:
        memo[key] = v
    return v


def honest_message(kinds: Sequence[int], tvars: Sequence[int], start: int,
                   prog: Sequence[int], assign: list[int], npts: int, g: int, k: int,
                   memo: dict[int, int | Sequence[int]]) -> list[int]:
    """The honest message of round ``start`` (1-based): the value of the
    suffix kinds[start:] as npts coefficients of a polynomial in the round
    variable z = x_t, t = tvars[start - 1], from one walk of the suffix with
    x_t held as z (``_suffix``). assign is scratch, and its entry for x_t is
    ignored.

    The degree reductions keep the degree in z within the round's cap d, so
    with npts = d + 1 this is the interpolant through z < npts. With
    npts = |F| < d + 1, z^|F| = z folds it to the representative of least
    degree, the one that agrees with it on all of F.

    Work: with a fresh ``memo``, the walk makes as many formula evaluations
    as ``quantified_value`` at z = npts - 1 (``sumcheck._suffix_evaluations``)
    when npts >= 3, and at most twice as many when npts = 2, where z = 1 is
    Boolean and skips the reduce round on x_t that the walk branches on:
    never more than the npts point walks it replaces."""
    t = tvars[start - 1]
    mask, pending = _split(assign, t)
    p = _suffix(kinds, tvars, start, t, prog, assign, mask, pending, g, k, memo)
    out = [0] * npts
    period = (1 << k) - 1
    for e, c in enumerate((p,) if type(p) is int else p):
        if c:
            out[(e - 1) % period + 1 if e > period else e] ^= c
    return out


# ---------------------------------------------------------------------------
# Suffix tables: the value of an operator suffix at every point of F^i, as a
# flat list whose entry sum_s x_{s+1} |F|^s is the value at (x_1, ..., x_i),
# so x_1 is the least significant digit and x_i the most.


def _vadd(a, b):
    """a + b entry by entry on tables, b a table or an int."""
    if type(b) is int:
        return [x ^ b for x in a]
    return [x ^ y for x, y in zip(a, b)]


def _vmul(a, b, g: int, k: int):
    """a*b entry by entry on tables, a a table or an int: a lookup in the
    product table for k <= _TABLE_MAX_K, else ``gf_mul`` one product at a
    time."""
    if k <= _TABLE_MAX_K:
        tbl = _table(g, k)
        if type(a) is int:
            row = tbl[a]
            return [row[y] for y in b]
        return [tbl[x][y] for x, y in zip(a, b)]
    if type(a) is int:
        return [gf_mul(a, y, g, k) for y in b]
    return [gf_mul(x, y, g, k) for x, y in zip(a, b)]


def _coordinate(width: int, stride: int, size: int) -> list[int]:
    """The table of width entries whose entry is its digit on the axis of
    this stride."""
    return [r for r in range(size) for _ in range(stride)] * (width // (stride * size))


def _plane(table: Sequence[int], stride: int, size: int, r: int) -> list[int]:
    """The entries of the table whose digit on the axis of this stride is r,
    in table order: one value per line along that axis."""
    if stride == 1:
        return table[r::size]
    return list(itertools.chain.from_iterable(
        table[h:h + stride] for h in range(r * stride, len(table), stride * size)))


def _spread(plane: Sequence[int], stride: int, size: int) -> list[int]:
    """The table whose every line along the axis of this stride is constant,
    at its value in plane: ``_plane``'s inverse for a table whose planes are
    all equal."""
    if stride == 1:
        return list(itertools.chain.from_iterable(zip(*[plane] * size)))
    return list(itertools.chain.from_iterable(
        plane[h:h + stride] * size for h in range(0, len(plane), stride)))


def _suffix_tables(kinds: Sequence[int], tvars: Sequence[int], prog: Sequence[int],
                   nvars: int, g: int, k: int):
    """Yield (j, table) for j = N, ..., 0: the values of the suffix after
    round j at every point of F^i, where x_1..x_i are the variables bound
    by rounds 1..j. Block i of ``sumcheck.build_schedule`` (Q_i x_i, then a
    reduce round on each of x_1..x_i) binds x_1..x_i, so those variables
    are always a prefix, and the quantifier round on x_i is the one that
    drops the top axis.

    The table for j = N is the matrix at every point of F^n, one run of the
    postfix program on whole tables. Round j's operator then rewrites the
    table through ``combine_on``: a reduce round on x_t sets each line along
    x_t to f0 + r*(f0 + f1) at x_t = r, for every r in F; a quantifier round
    combines the x_i = 0 and x_i = 1 slices, and x_i is gone."""
    size = 1 << k
    width = size ** nvars
    table = _run_postfix(prog, [_coordinate(width, size ** s, size) for s in range(nvars)],
                         _vadd, _vmul, g, k)
    for j in range(len(kinds), 0, -1):
        yield j, table
        kind = kinds[j - 1]
        stride = size ** tvars[j - 1]
        f0 = _plane(table, stride, size, 0)
        f1 = _plane(table, stride, size, 1)
        if kind == K_REDUCE:
            table = combine_on(_vmul, _vadd, kind, _coordinate(len(table), stride, size),
                               _spread(f0, stride, size), _spread(f1, stride, size), g, k)
        else:
            table = combine_on(_vmul, _vadd, kind, None, f0, f1, g, k)
    yield 0, table


def _lines_fit(table: Sequence[int], stride: int, npts: int, g: int, k: int) -> bool:
    """Whether every line of the table along the axis of this stride equals,
    at every r in F, the polynomial that interpolates it at z < npts. The
    interpolant's coefficients come a plane at a time from the Lagrange
    basis, and its values at every r from Horner's rule on whole tables."""
    size = 1 << k
    if npts == size:
        return True
    planes = [_plane(table, stride, size, z) for z in range(npts)]
    basis = _lagrange_basis(tuple(range(npts)), g, k)
    coord = _coordinate(len(table), stride, size)
    acc = None
    for c in range(npts - 1, -1, -1):
        coeff = None
        for z, plane in enumerate(planes):
            w = basis[z][c]
            if w:
                term = plane if w == 1 else _vmul(w, plane, g, k)
                coeff = term if coeff is None else _vadd(coeff, term)
        coeff = _spread(coeff, stride, size)
        acc = coeff if acc is None else _vadd(_vmul(coord, acc, g, k), coeff)
    return acc == table


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
    after round N. So: the chain is 1, and for each round j, every line of
    the suffix table after round j along the round's variable
    (``_suffix_tables``) equals its interpolant through z < npts at every r.

    The chain is checked first, by one memoized walk at the all-0 point, so
    a false formula builds no table."""
    size = 1 << k
    if quantified_value(kinds, tvars, 0, prog, [0] * nvars, g, k, {}) != 1:
        return False
    for j, table in _suffix_tables(kinds, tvars, prog, nvars, g, k):
        if j and not _lines_fit(table, size ** tvars[j - 1], min(dbounds[j - 1] + 1, size),
                                g, k):
            return False
    return True
