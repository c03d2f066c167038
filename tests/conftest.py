from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from xor3sdp.fourier import MultilinearPoly
from xor3sdp.instances import (
    Assignment,
    Constraint,
    Instance,
    Literal,
    Predicate3,
    ValidationError,
    XOR_PLUS,
)


def make_constraint(i1, i2, i3, weight=1.0, pred=XOR_PLUS, signs=(1, 1, 1)):
    return Constraint(
        (Literal(1, i1, signs[0]), Literal(2, i2, signs[1]), Literal(3, i3, signs[2])),
        weight,
        pred,
    )


def random_instance(rng: np.random.Generator, sizes=(3, 3, 3), n_cons=12, any_pred=False):
    cons = []
    for _ in range(n_cons):
        lits = tuple(
            Literal(b, int(rng.integers(1, sizes[b - 1] + 1)), int(1 - 2 * rng.integers(0, 2)))
            for b in (1, 2, 3)
        )
        pred = Predicate3(int(rng.integers(1, 256))) if any_pred else XOR_PLUS
        cons.append(Constraint(lits, float(rng.integers(1, 9)) / 4.0, pred))
    return Instance(sizes, tuple(cons))


def eval_poly_exact(p: MultilinearPoly, a: Assignment) -> Fraction:
    """A polynomial's exact value at an assignment."""
    total = Fraction(0)
    for m, coeff in p.terms.items():
        prod = 1
        for block, index in m:
            if block not in (1, 2, 3) or index > a.sizes[block - 1]:
                raise ValidationError(f"unbound variable ({block},{index})")
            prod *= a.value(block, index)
        total += coeff * prod
    return total


def random_assignment_for(sizes, rng: np.random.Generator) -> Assignment:
    vals = [tuple(int(v) for v in 1 - 2 * rng.integers(0, 2, size=s)) for s in sizes]
    return Assignment(*vals)


@st.composite
def instances_strategy(draw, max_size=4, max_cons=8, any_pred=True):
    sizes = tuple(draw(st.integers(1, max_size)) for _ in range(3))
    n = draw(st.integers(1, max_cons))
    cons = []
    for _ in range(n):
        lits = tuple(
            Literal(
                b,
                draw(st.integers(1, sizes[b - 1])),
                draw(st.sampled_from((1, -1))),
            )
            for b in (1, 2, 3)
        )
        mask = draw(st.integers(1, 255)) if any_pred else XOR_PLUS.mask
        weight = draw(st.integers(1, 16)) / 4.0
        cons.append(Constraint(lits, weight, Predicate3(mask)))
    return Instance(sizes, tuple(cons))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
