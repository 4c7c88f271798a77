import itertools

import pytest

from qipsim._kernels.purepy import eval_formula
from qipsim.gf2k import Field
from qipsim.qbf import (
    And,
    Not,
    Or,
    QbfSyntaxError,
    Var,
    compile_matrix,
    degree_profile,
    eval_matrix,
    eval_qbf,
    parse_qbf,
    to_text,
)


def test_parse_basic():
    q = parse_qbf("E x1 : x1")
    assert q.quantifiers == ("E",)
    assert q.matrix == Var(1)
    assert q.n == 1

    q = parse_qbf("A x1 E x2 : (x1 | ~x2) & (~x1 | x2)")
    assert q.quantifiers == ("A", "E")
    assert q.matrix == And(
        Or(Var(1), Not(Var(2))), Or(Not(Var(1)), Var(2))
    )


def test_roundtrip_canonical():
    cases = [
        "E x1 : x1",
        "A x1 : ~x1",
        "A x1 E x2 : (x1 | ~x2) & (~x1 | x2)",
        "E x1 E x2 : x1 & x2 & (x1 | x2)",
        "A x1 : x1 | x1 & x1",  # & binds tighter than |
    ]
    for text in cases:
        q = parse_qbf(text)
        again = parse_qbf(to_text(q))
        assert again == q
        assert to_text(again) == to_text(q)


def test_precedence():
    q = parse_qbf("E x1 E x2 : x1 | x2 & x1")
    assert q.matrix == Or(Var(1), And(Var(2), Var(1)))
    q = parse_qbf("E x1 E x2 : (x1 | x2) & x1")
    assert q.matrix == And(Or(Var(1), Var(2)), Var(1))


def test_syntax_errors_carry_position():
    with pytest.raises(QbfSyntaxError) as e:
        parse_qbf("E x1 : x2")
    assert "x2 is not bound" in str(e.value)
    assert e.value.line == 1 and e.value.col == 8

    with pytest.raises(QbfSyntaxError):
        parse_qbf("E x2 : x2")  # prefix must bind x1 first
    with pytest.raises(QbfSyntaxError):
        parse_qbf("E x1 x1")  # missing colon
    with pytest.raises(QbfSyntaxError):
        parse_qbf("E x1 : ")
    with pytest.raises(QbfSyntaxError):
        parse_qbf("E x1 : x1 &")
    with pytest.raises(QbfSyntaxError):
        parse_qbf("x1 : x1")
    with pytest.raises(QbfSyntaxError):
        parse_qbf("E x1 : E x1")  # quantifier inside the matrix
    with pytest.raises(QbfSyntaxError):
        parse_qbf("E x1 : (x1")
    with pytest.raises(QbfSyntaxError) as e:
        parse_qbf("E x1 :\n  x3")
    assert e.value.line == 2
    # variable indices are ASCII digits only: a superscript two or an
    # Arabic-Indic one is not read as a digit
    for text in ("E x1 : x\u00b2", "E x1 : x\u0661"):
        with pytest.raises(QbfSyntaxError) as e:
            parse_qbf(text)
        assert (e.value.line, e.value.col) == (1, 8), text
    # matrix variables are spelled like prefix variables: no leading zero
    with pytest.raises(QbfSyntaxError, match="x01 has a leading zero") as e:
        parse_qbf("A x1 : x01")
    assert (e.value.line, e.value.col) == (1, 8)


def test_eval_qbf_truth_table():
    cases = [
        ("E x1 : x1", True),
        ("A x1 : x1", False),
        ("E x1 : ~x1", True),
        ("A x1 : x1 | ~x1", True),
        ("E x1 : x1 & ~x1", False),
        ("A x1 E x2 : (x1 | ~x2) & (~x1 | x2)", True),
        ("E x1 A x2 : x1 & x2", False),
        ("E x1 A x2 : x1 | x2", True),
        ("A x1 A x2 : x1 | x2", False),
        ("A x1 E x2 : x1 & x2", False),
    ]
    for text, want in cases:
        assert eval_qbf(parse_qbf(text)) is want, text


def _arith(q, assign, f):
    """The arithmetized matrix of q at a field-element assignment."""
    return eval_formula(compile_matrix(q.matrix), assign, f.g, f.k)


def test_arithmetization_matches_boolean():
    # over 0/1 inputs the arithmetized matrix reproduces the boolean value
    texts = [
        "E x1 : x1",
        "A x1 : ~x1",
        "E x1 : x1 & ~x1",
        "A x1 E x2 : (x1 | ~x2) & (~x1 | x2)",
        "E x1 E x2 : x1 | x2 & ~x1",
    ]
    for k in (1, 2, 3):
        f = Field(k)
        for text in texts:
            q = parse_qbf(text)
            for bits in itertools.product((0, 1), repeat=q.n):
                want = int(eval_matrix(q.matrix, [bool(b) for b in bits]))
                assert _arith(q, bits, f) == want


def test_arith_eval_nonboolean_point():
    # (x1 | ~x1) arithmetizes to x + (1+x) + x(1+x), which is 0 at x = w
    f = Field(2)
    q = parse_qbf("A x1 : x1 | ~x1")
    assert _arith(q, [2], f) == 0
    assert _arith(q, [0], f) == 1
    assert _arith(q, [1], f) == 1


def test_degree_profile():
    per_var, d = degree_profile(parse_qbf("A x1 : x1"))
    assert per_var == (1,) and d == 2  # floor of 2
    per_var, d = degree_profile(parse_qbf("A x1 E x2 : (x1 | ~x2) & (~x1 | x2)"))
    assert per_var == (2, 2) and d == 2
    per_var, d = degree_profile(parse_qbf("E x1 : (x1 & x1) & x1"))
    assert per_var == (3,) and d == 3


def test_formula_length():
    q = parse_qbf("E x1 :   x1  &  ~x1")
    assert q.length == len("Ex1:x1&~x1")
