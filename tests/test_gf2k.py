import random

import pytest

from qipsim._kernels import find_modulus, is_irreducible
from qipsim.gf2k import MAX_K, Field, poly_degree, poly_trim

# moduli are the smallest irreducible polynomials by integer encoding
KNOWN_MODULI = {1: 0b10, 2: 0b111, 3: 0b1011, 4: 0b10011, 8: 0x11B, 16: 0x1002B}

GF4_MUL = [
    [0, 0, 0, 0],
    [0, 1, 2, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
]


def test_known_moduli():
    for k, g in KNOWN_MODULI.items():
        assert find_modulus(k) == g
        assert Field(k).g == g


def test_modulus_certificates():
    for k in range(1, 17):
        g = find_modulus(k)
        assert g.bit_length() == k + 1
        assert is_irreducible(g, k)


def test_is_irreducible_rejects():
    assert not is_irreducible(0b101, 2)   # x^2 + 1 = (x+1)^2
    assert not is_irreducible(0b100, 2)   # x^2
    assert not is_irreducible(0b111, 3)   # wrong degree
    assert not is_irreducible(0b11011, 4)  # x^4+x^3+x+1 divisible by x+1


def test_gf4_table():
    f = Field(2)
    for a in range(4):
        for b in range(4):
            assert f.mul(a, b) == GF4_MUL[a][b]
    assert f.add(2, 3) == 1
    assert f.inv(2) == 3
    assert f.inv(3) == 2


def test_field_axioms_exhaustive_small():
    for k in (1, 2, 3, 4):
        f = Field(k)
        elems = list(f.elements())
        for a in elems:
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.add(a, a) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
        for a in elems:
            for b in elems:
                assert f.mul(a, b) == f.mul(b, a)
                for c in elems:
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_field_axioms_random_wide():
    rng = random.Random(911)
    for k in (8, 16, 32, 64):
        f = Field(k)
        for _ in range(300):
            a = rng.getrandbits(k)
            b = rng.getrandbits(k)
            c = rng.getrandbits(k)
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            if a:
                assert f.mul(a, f.inv(a)) == 1


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Field(4).inv(0)


def test_element_range_checks():
    f = Field(2)
    with pytest.raises(ValueError):
        f.check(4)
    with pytest.raises(ValueError):
        f.check(-1)
    with pytest.raises(ValueError):
        f.mul(1, 5)
    # a float is no element, even an integral one in range
    for bad in (2.0, "1", None):
        with pytest.raises(ValueError):
            f.check(bad)


def test_numpy_integers_are_elements():
    # check returns the Python int a numpy integer equals, and every method
    # computes with it, on the table path (k = 4) and the comb (k = 32)
    import numpy as np

    rng = random.Random(9)
    for k in (4, 32):
        f = Field(k)
        a, b = rng.getrandbits(k) | 1, rng.getrandbits(k)
        na, nb = np.int64(a), np.uint64(b)
        assert type(f.check(na)) is int and f.check(na) == a
        assert f.add(na, nb) == f.add(a, b)
        assert f.mul(na, nb) == f.mul(a, b)
        assert f.inv(na) == f.inv(a)
        assert f.poly_eval([na, nb], na) == f.poly_eval([a, b], a)
        assert f.poly_interpolate([(np.int64(0), na), (np.int64(1), nb)]) == \
            f.poly_interpolate([(0, a), (1, b)])


def test_field_validation():
    with pytest.raises(ValueError):
        Field(0)
    with pytest.raises(ValueError):
        Field(MAX_K + 1)
    with pytest.raises(ValueError):
        Field(2, modulus=0b101)  # reducible
    # a non-minimal but irreducible modulus is accepted
    f = Field(3, modulus=0b1101)  # x^3 + x^2 + 1
    assert f.mul(2, 2) == 4  # x*x = x^2, no reduction needed
    assert f.g == 0b1101


def test_poly_eval_and_interpolate():
    f = Field(8)
    rng = random.Random(5)
    for deg in (0, 1, 2, 5):
        coeffs = tuple(rng.randrange(256) for _ in range(deg + 1))
        pts = [(x, f.poly_eval(coeffs, x)) for x in range(deg + 1)]
        got = f.poly_interpolate(pts)
        assert poly_trim(got) == poly_trim(coeffs)
    assert f.poly_interpolate([]) == ()
    with pytest.raises(ValueError):
        f.poly_interpolate([(1, 0), (1, 1)])


def test_interpolate_gf4_example():
    # through (0,1), (1,0), (2,3): p(z) = 1 + z
    f = Field(2)
    assert poly_trim(f.poly_interpolate([(0, 1), (1, 0), (2, 3)])) == (1, 1)


def test_poly_degree_trim():
    assert poly_degree(()) == -1
    assert poly_degree((0, 0)) == -1
    assert poly_degree((5,)) == 0
    assert poly_degree((0, 1, 0)) == 1
    assert poly_trim((1, 2, 0, 0)) == (1, 2)
    assert poly_trim((0,)) == ()


def test_modulus_text():
    assert Field(2).modulus_text() == "x^2 + x + 1"
    assert Field(1).modulus_text() == "x"
    assert Field(3).modulus_text() == "x^3 + x + 1"


def test_field_equality_and_repr():
    assert Field(2) == Field(2)
    assert Field(2) != Field(3)
    assert hash(Field(4)) == hash(Field(4))
    assert "k=2" in repr(Field(2))
