"""The trusted decoration builder against the public constructor, and a
count of the builds that `generators` and `kappa_to_psi` make.

`generators`, `Decoration.transport` and `kappa_to_psi` build their
decorations through `Decoration._unchecked`, which takes psi and kappa
as they are; the public `Decoration(psi, kappa)` sorts them.  Each
decoration they make must equal, field for field and in hash, the
decoration the public constructor rebuilds from the same fields.
"""

import pytest

from test_golden_cli import _cached_functions, _clear_every_memo
from tautring.integration import kappa_to_psi
from tautring.stable_graphs import automorphisms
from tautring.taut_classes import (
    PSI_HE,
    PSI_LEG,
    Decoration,
    dim_moduli,
    generators,
    spanning_generators,
)

TYPES = [(g, n) for g in range(4) for n in range(8) if 0 < 2 * g - 2 + n <= 5]
SESSION = [(1, 3), (2, 1), (2, 2), (3, 0), (0, 6)]


def _same_as_public(dec):
    rebuilt = Decoration(dec.psi, dec.kappa)
    return (dec.psi, dec.kappa, hash(dec)) == (rebuilt.psi, rebuilt.kappa, hash(rebuilt))


def _built(g, n):
    """Every decoration of the generators and spanning generators of
    (g, n) in every degree, every transport of each along every
    automorphism of its graph, and every term of their kappa_to_psi.
    The spanning generators' classes equal generators, and a transport
    or expansion reads only the fields, so theirs are made once."""
    built = []
    for d in range(dim_moduli(g, n) + 1):
        built.extend(dec for cls in spanning_generators(g, n, d) for _, dec in cls.terms)
        for cls in generators(g, n, d):
            [(graph, dec)] = cls.terms
            built.append(dec)
            built.extend(dec.transport(vmap, hemap) for vmap, hemap in automorphisms(graph))
            built.extend(dec for _, dec in kappa_to_psi(cls).terms)
    return built


@pytest.mark.parametrize("g, n", TYPES)
def test_builders_match_the_public_constructor(g, n):
    bad = [dec for dec in _built(g, n) if not _same_as_public(dec)]
    assert bad == []


def test_the_check_finds_an_unsorted_build():
    dec = Decoration((((PSI_LEG, 2), 1), ((PSI_HE, 0, 0), 1)), ((2, 1),))
    unsorted_psi = Decoration._unchecked((((PSI_LEG, 2), 1), ((PSI_HE, 0, 0), 1)), dec.kappa)
    unsorted_kappa = Decoration._unchecked(dec.psi, ((2, 1),))
    assert _same_as_public(dec)
    assert not _same_as_public(unsorted_psi) and not _same_as_public(unsorted_kappa)


def test_one_trusted_build_per_generator(monkeypatch):
    """With every memo cleared, the top-degree generators of the five
    spaces of the benchmark's kappa step build each of their 2,683
    decorations once through the trusted builder and never call the
    normalizing constructor (the sorting path made 7,055 constructions,
    3,660 of them in transports).  kappa_to_psi of them builds each expanded
    term's decoration through the trusted builder too (the sorting path
    made 2,147 constructions)."""
    trusted, normalizing = [], []
    build, init = Decoration._unchecked.__func__, Decoration.__init__

    def counted_build(cls, psi, kappa):
        trusted.append(psi)
        return build(cls, psi, kappa)

    def counted_init(self, psi, kappa):
        normalizing.append(psi)
        init(self, psi, kappa)

    monkeypatch.setattr(Decoration, "_unchecked", classmethod(counted_build))
    monkeypatch.setattr(Decoration, "__init__", counted_init)
    _clear_every_memo(_cached_functions())
    gens = [cls for g, n in SESSION for cls in generators(g, n, dim_moduli(g, n))]
    assert (len(gens), len(trusted), len(normalizing)) == (2683, 2683, 0)
    trusted.clear()
    for cls in gens:
        kappa_to_psi(cls)
    assert (len(trusted), len(normalizing)) == (2147, 0)
