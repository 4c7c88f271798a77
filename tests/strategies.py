"""Hypothesis strategies shared by the property tests: small prenex
formulas over x1..xn."""

from hypothesis import strategies as st

from qipsim.qbf import parse_qbf


def matrices(n: int):
    leaves = st.integers(1, n).map(lambda i: f"x{i}")
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(lambda e: f"~{e}"),
            st.tuples(sub, st.sampled_from("&|"), sub).map(lambda t: "(%s %s %s)" % t),
        ),
        max_leaves=4,
    )


@st.composite
def formulas(draw, max_n: int = 2):
    """A parsed prenex formula with 1 <= n <= max_n and a random prefix."""
    n = draw(st.integers(1, max_n))
    prefix = " ".join(f"{draw(st.sampled_from('AE'))} x{i}" for i in range(1, n + 1))
    return parse_qbf(f"{prefix} : {draw(matrices(n))}")
