"""GF(2^k) field contexts over int-encoded elements.

An element is an int in [0, 2^k) whose bit i is the coefficient of x^i; all
arithmetic is modulo a fixed irreducible polynomial chosen deterministically
(smallest integer encoding, so k=1 -> x, k=2 -> x^2+x+1, k=3 -> x^3+x+1).
Univariate polynomials over the field are tuples of coefficient ints, lowest
degree first; trailing zeros are permitted and ignored by degree logic.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence

from . import _kernels

MAX_K = 64

UniPoly = tuple[int, ...]


def poly_degree(coeffs: Sequence[int]) -> int:
    """Degree ignoring trailing zeros; the zero polynomial reports -1."""
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i]:
            return i
    return -1


def poly_trim(coeffs: Sequence[int]) -> UniPoly:
    return tuple(coeffs[: poly_degree(coeffs) + 1])


class Field:
    """Arithmetic context for GF(2^k).

    Methods validate that operands fit in k bits, which is the only context
    check int-encoded elements admit; mixing elements from fields of different
    widths raises, and mixing same-width fields is the caller's to avoid.
    """

    __slots__ = ("k", "g", "order", "ops")

    def __init__(self, k: int, modulus: int | None = None):
        if not 1 <= k <= MAX_K:
            raise ValueError(f"k must be in 1..{MAX_K}, not {k}")
        if modulus is None:
            modulus = _kernels.find_modulus(k)
        elif not _kernels.is_irreducible(modulus, k):
            raise ValueError(f"modulus {modulus:#x} is not irreducible of degree {k}")
        self.k = k
        self.g = modulus
        self.order = 1 << k
        self.ops = _kernels.active

    def __repr__(self) -> str:
        return f"Field(k={self.k}, g={self.g:#x})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.k, self.g) == (other.k, other.g)

    def __hash__(self) -> int:
        return hash((self.k, self.g))

    def check(self, a: int) -> int:
        """a as a Python int, or ValueError when it is not an integer in
        [0, 2^k): an integer type such as numpy's comes back as the int the
        kernels need, and a float is refused even when integral."""
        try:
            i = operator.index(a)
        except TypeError:
            raise ValueError(f"{a!r} is not an element of GF(2^{self.k})") from None
        if not 0 <= i < self.order:
            raise ValueError(f"{a} is not an element of GF(2^{self.k})")
        return i

    def elements(self) -> range:
        return range(self.order)

    def add(self, a: int, b: int) -> int:
        return self.check(a) ^ self.check(b)

    def mul(self, a: int, b: int) -> int:
        return self.ops.gf_mul(self.check(a), self.check(b), self.g, self.k)

    def inv(self, a: int) -> int:
        return self.ops.gf_inv(self.check(a), self.g, self.k)

    def poly_eval(self, coeffs: Sequence[int], z: int) -> int:
        z = self.check(z)
        coeffs = [self.check(c) for c in coeffs]
        return self.ops.poly_eval(coeffs, z, self.g, self.k)

    def poly_interpolate(self, points: Iterable[tuple[int, int]]) -> UniPoly:
        """Coefficients of the unique polynomial of degree < len(points)
        through the given (x, y) pairs. Duplicate x values raise."""
        xs: list[int] = []
        ys: list[int] = []
        for x, y in points:
            xs.append(self.check(x))
            ys.append(self.check(y))
        if len(set(xs)) != len(xs):
            raise ValueError("interpolation points must have distinct x values")
        if not xs:
            return ()
        return tuple(self.ops.interpolate(xs, ys, self.g, self.k))

    def encode(self, a: int) -> str:
        """k-character '0'/'1' string; position i holds the x^i coefficient."""
        self.check(a)
        return "".join("1" if (a >> i) & 1 else "0" for i in range(self.k))

    def decode(self, bits: str) -> int:
        if len(bits) != self.k or set(bits) - {"0", "1"}:
            raise ValueError(f"expected {self.k} characters of 0/1, got {bits!r}")
        return sum(1 << i for i, c in enumerate(bits) if c == "1")

    def modulus_text(self) -> str:
        terms = [
            ("x^%d" % i if i > 1 else ("x" if i == 1 else "1"))
            for i in range(self.k, -1, -1)
            if (self.g >> i) & 1
        ]
        return " + ".join(terms)
