"""Pixton's formula above degree g is a relation.

The weighted-graph class of `pixton_class(g, a, d)` vanishes in every
degree d > g (Clader–Janda, "Pixton's double ramification cycle
relations", arXiv 1601.02871), so it pairs to zero with every class of
the complementary degree.  This checks `pixton` (graph sum, weightings
mod r, interpolation in r) against `product` and `integration`, which
share no code with it beyond the enumerator.  The classes paired with
are `spanning_generators` of the complementary degree: they span it (see
their docstring), and on the largest case, (2, (2, -1, -1), 3), they are
168 classes against 556 generators.
"""

import pytest

from tautring.membership import pairing_vector
from tautring.pixton import pixton_class
from tautring.taut_classes import dim_moduli, spanning_generators

CASES = [
    (1, (1, -1), 2),
    (1, (2, -1, -1), 2),
    (1, (1, -1, 0), 3),
    (2, (0,), 3),
    (2, (1, -1), 3),
    (2, (0, 0), 3),
    (2, (0, 0), 4),
    (2, (2, -1, -1), 3),
    (3, (0,), 4),
]


@pytest.mark.parametrize("g, a, d", CASES)
def test_pixton_class_above_degree_g_pairs_to_zero(g, a, d):
    relation = pixton_class(g, a, d)
    assert not relation.is_zero()
    vector = pairing_vector(relation, spanning_generators(g, len(a), dim_moduli(g, len(a)) - d))
    assert vector
    assert not any(vector)
