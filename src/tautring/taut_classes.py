"""Decorated boundary strata and tautological classes.

A term (graph, decoration, c) denotes c * xi_*(decoration): the pushforward
of a psi-kappa monomial along the gluing map from the product of vertex
moduli spaces.  No automorphism factor is divided out, so the term equals
|Aut(graph)| times the corresponding multiple of the image cycle class.

Decorations place psi exponents on legs (by marking label) and on edge
half-edges (by (vertex, slot)), and a kappa monomial (multiset of indices
a >= 1) on each vertex.  Decorations related by an automorphism of the
graph push forward to the same class; terms are stored with the orbit
representative that is minimal in a fixed total order, with coefficients
merged.
"""

from __future__ import annotations

import itertools
import json
from functools import cache
from operator import gt

from .combinatorics import compositions, partitions
from .errors import DomainError, json_field, json_ints, json_loads
from .rationals import ONE, QQ, format_rat, parse_rat
from .stable_graphs import (
    StableGraph,
    automorphisms,
    canonical_form_with_map,
    check_stable_type,
    enumerate_stable_graphs,
    smooth_graph,
)

PSI_LEG = "leg"
PSI_HE = "he"


def dim_moduli(g: int, n: int) -> int:
    return 3 * g - 3 + n


_set = object.__setattr__


class Decoration:
    """A psi-kappa monomial on a stable graph; immutable, equal by fields.

    Like `StableGraph(...)`, the constructor normalizes its input: psi
    becomes the sorted tuple of its (key, exponent) items and kappa the
    tuple of each vertex's kappa indices in ascending order, so a
    monomial has one form whatever order it is given in.
    """

    __slots__ = ("psi", "kappa", "_hash")

    def __init__(self, psi, kappa):
        psi = tuple(sorted(psi))  # (key, exponent) items, exponent > 0
        kappa = tuple(map(tuple, map(sorted, kappa)))  # per vertex, each index >= 1
        _set(self, "psi", psi)
        _set(self, "kappa", kappa)
        _set(self, "_hash", hash((psi, kappa)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Decoration, (self.psi, self.kappa)

    def __eq__(self, other):
        if other.__class__ is not Decoration:
            return NotImplemented
        return self is other or (
            self._hash == other._hash
            and self.psi == other.psi
            and self.kappa == other.kappa
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Decoration(psi={self.psi!r}, kappa={self.kappa!r})"

    def degree(self) -> int:
        return sum(e for _, e in self.psi) + sum(
            a for ks in self.kappa for a in ks
        )

    def transport(self, vmap, hemap) -> "Decoration":
        """Relabel along a graph isomorphism (vmap, hemap)."""
        psi = []
        for key, e in self.psi:
            if key[0] == PSI_HE:
                (_, v, s) = key
                nv, ns = hemap[(v, s)]
                psi.append(((PSI_HE, nv, ns), e))
            else:
                psi.append((key, e))
        kappa = [()] * len(self.kappa)
        for v, ks in enumerate(self.kappa):
            kappa[vmap[v]] = ks
        return Decoration(psi, kappa)

    def sort_key(self):
        return (self.psi, self.kappa)

    def validate(self, graph: StableGraph) -> None:
        if len(self.kappa) != graph.n_vertices:
            raise DomainError("kappa data does not match the vertex count")
        marks = set(graph.markings())
        he = set(graph.half_edges())
        seen = set()
        for key, e in self.psi:
            if e <= 0:
                raise DomainError("psi exponents must be positive")
            if key in seen:
                raise DomainError("repeated psi key")
            seen.add(key)
            if key[0] == PSI_LEG:
                if key[1] not in marks:
                    raise DomainError(f"psi leg {key[1]} not in the graph")
            elif key[0] == PSI_HE:
                if (key[1], key[2]) not in he:
                    raise DomainError(f"psi half-edge {key[1:]} not in the graph")
            else:
                raise DomainError(f"unknown psi key {key!r}")
        for ks in self.kappa:
            if any(a < 1 for a in ks):
                raise DomainError("kappa_0 and negative indices are not allowed")


def decoration(graph: StableGraph, psi=None, kappa=None) -> Decoration:
    """Build a decoration. psi maps legs (int) or half-edges ((v, s)) to
    exponents; kappa maps vertex index to an iterable of kappa indices."""
    psi_items = []
    for key, e in (psi or {}).items():
        if e == 0:
            continue
        if isinstance(key, int):
            psi_items.append(((PSI_LEG, key), int(e)))
        else:
            v, s = key
            psi_items.append(((PSI_HE, int(v), int(s)), int(e)))
    kap = [()] * graph.n_vertices
    for v, ks in (kappa or {}).items():
        if not 0 <= v < graph.n_vertices:
            raise DomainError(f"kappa vertex {v} not in the graph")
        kap[v] = [int(a) for a in ks]
    dec = Decoration(psi_items, kap)
    dec.validate(graph)
    return dec


def trivial_decoration(graph: StableGraph) -> Decoration:
    return Decoration((), ((),) * graph.n_vertices)


@cache
def vertex_data(graph: StableGraph):
    """(home, dims): home[m] is the vertex of leg m (home[0] unused) and
    dims[v] the dimension of vertex v's moduli space."""
    home = [0] * (graph.n_markings + 1)
    valence = [len(legs) for legs in graph.legs]
    for v, legs in enumerate(graph.legs):
        for m in legs:
            home[m] = v
    for (v1, _), (v2, _) in graph.edges:
        valence[v1] += 1
        valence[v2] += 1
    dims = tuple(map(dim_moduli, graph.genera, valence))
    return tuple(home), dims


def vertex_degrees(graph: StableGraph, dec: Decoration) -> list[int]:
    """Decoration degree accumulated at each vertex."""
    home = vertex_data(graph)[0]
    degs = [sum(ks) for ks in dec.kappa]
    for key, e in dec.psi:
        degs[home[key[1]] if key[0] == PSI_LEG else key[1]] += e
    return degs


def term_is_zero_class(graph: StableGraph, dec: Decoration) -> bool:
    """True when some vertex decoration exceeds that vertex's dimension."""
    return any(map(gt, vertex_degrees(graph, dec), vertex_data(graph)[1]))


@cache
def canonical_term(graph: StableGraph, dec: Decoration):
    """Canonical (graph, decoration) representative of a decorated stratum.

    The representative is the least transport of the decoration along the
    automorphisms of the canonical graph.  A graph that is already
    canonical keeps its decoration: its map to the canonical form is one
    of those automorphisms, so the orbit is the same.  The identity, which
    `automorphisms` lists first, moves no decoration.
    """
    canon, vmap, hemap = canonical_form_with_map(graph)
    if canon != graph:
        dec = dec.transport(vmap, hemap)
    others = (dec.transport(av, ah) for av, ah in automorphisms(canon)[1:])
    return canon, min(itertools.chain((dec,), others), key=Decoration.sort_key)


def term_sort_key(term):
    """The fixed total order on (graph, decoration) terms."""
    return term[0].sort_key(), term[1].sort_key()


class TautClass:
    """A finite rational combination of decorated strata of fixed degree."""

    __slots__ = ("g", "n", "d", "terms", "virtual")

    def __init__(self, g: int, n: int, d: int, terms=None, virtual=False):
        self.g = g
        self.n = n
        self.d = d
        self.virtual = virtual
        self.terms: dict = {}
        if terms:
            for (graph, dec), coeff in terms.items():
                self._insert(graph, dec, coeff)

    def __getstate__(self):
        return self.g, self.n, self.d, self.terms, self.virtual

    def __setstate__(self, state):
        # verbatim, not through _insert: a kappa_to_psi class keeps keys
        # that are not canonical terms
        self.g, self.n, self.d, self.terms, self.virtual = state

    def _insert(self, graph: StableGraph, dec: Decoration, coeff):
        coeff = QQ(coeff)
        if not coeff:
            return
        if term_is_zero_class(graph, dec):
            return
        key = canonical_term(graph, dec)
        new = self.terms.get(key, 0) + coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    # -- algebra ---------------------------------------------------------

    def _check_compatible(self, other: "TautClass"):
        if (self.g, self.n, self.d, self.virtual) != (
            other.g,
            other.n,
            other.d,
            other.virtual,
        ):
            raise DomainError("classes live in different ambient groups")

    def __add__(self, other: "TautClass") -> "TautClass":
        self._check_compatible(other)
        out = TautClass(self.g, self.n, self.d, virtual=self.virtual)
        out.terms = dict(self.terms)
        for key, coeff in other.terms.items():
            new = out.terms.get(key, 0) + coeff
            if new:
                out.terms[key] = new
            else:
                out.terms.pop(key, None)
        return out

    def __sub__(self, other: "TautClass") -> "TautClass":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "TautClass":
        scalar = QQ(scalar)
        out = TautClass(self.g, self.n, self.d, virtual=self.virtual)
        if scalar:
            out.terms = {key: scalar * c for key, c in self.terms.items()}
        return out

    def __neg__(self) -> "TautClass":
        return (-1) * self

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, TautClass):
            return NotImplemented
        return (
            (self.g, self.n, self.d, self.virtual)
            == (other.g, other.n, other.d, other.virtual)
            and self.terms == other.terms
        )

    def __repr__(self):
        return (
            f"TautClass(g={self.g}, n={self.n}, d={self.d}, "
            f"{len(self.terms)} terms)"
        )

    def coefficient(self, graph: StableGraph, dec: Decoration = None):
        if dec is None:
            dec = trivial_decoration(graph)
        return QQ(self.terms.get(canonical_term(graph, dec), 0))

    def validate(self) -> None:
        if self.d < 0:
            raise DomainError("negative degree")
        for (graph, dec) in self.terms:
            graph.validate()
            dec.validate(graph)
            if not self.virtual:
                if graph.genus() != self.g or graph.n_markings != self.n:
                    raise DomainError("term graph has the wrong type")
                if graph.n_edges + dec.degree() != self.d:
                    raise DomainError("term degree mismatch")
            else:
                if graph.genus() != self.g:
                    raise DomainError("term graph has the wrong genus")

    # -- serialization ----------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: term_sort_key(kv[0]))

    def to_json_dict(self) -> dict:
        terms = []
        for (graph, dec), coeff in self.sorted_terms():
            terms.append(
                {
                    "graph": graph.to_json_dict(),
                    "psi": [[list(key), e] for key, e in dec.psi],
                    "kappa": [list(ks) for ks in dec.kappa],
                    "coeff": format_rat(coeff),
                }
            )
        return {"g": self.g, "n": self.n, "d": self.d, "terms": terms}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(data: dict) -> "TautClass":
        """Read a class; a key or type out of place raises DomainError."""
        g, n, d = (json_field(data, key, int) for key in ("g", "n", "d"))
        if g < 0 or n < 0:
            raise DomainError("g and n must be nonnegative")
        out = TautClass(g, n, d)
        for term in json_field(data, "terms", list):
            graph = StableGraph.from_json_dict(json_field(term, "graph", dict))
            psi = [_psi_entry(entry) for entry in json_field(term, "psi", list)]
            kappa = tuple(json_ints(ks) for ks in json_field(term, "kappa", list))
            dec = Decoration(psi, kappa)
            dec.validate(graph)
            coeff = json_field(term, "coeff", str)
            try:
                value = parse_rat(coeff)
            except (ValueError, ZeroDivisionError):
                raise DomainError("coefficient %r is not a rational" % coeff) from None
            out._insert(graph, dec, value)
        out.validate()
        return out

    @staticmethod
    def from_json(text: str) -> "TautClass":
        return TautClass.from_json_dict(json_loads(text))


def _psi_entry(entry):
    """A JSON psi entry [[kind, place...], exponent] as (key, exponent)."""
    if (
        type(entry) is list
        and len(entry) == 2
        and type(entry[0]) is list
        and entry[0]
        and type(entry[1]) is int
    ):
        kind, *place = entry[0]
        if type(kind) is str and len(place) == {PSI_LEG: 1, PSI_HE: 2}.get(kind):
            return (kind,) + json_ints(place), entry[1]
    raise DomainError("a psi entry must be [[kind, place...], exponent], not %r" % (entry,))


def class_of_graph(graph: StableGraph, dec: Decoration = None, coeff=1) -> TautClass:
    """The single-term class coeff * xi_*(dec) on the ambient of `graph`."""
    graph.validate()
    if dec is None:
        dec = trivial_decoration(graph)
    dec.validate(graph)
    d = graph.n_edges + dec.degree()
    out = TautClass(graph.genus(), graph.n_markings, d)
    out._insert(graph, dec, coeff)
    return out


def fundamental_class(g: int, n: int) -> TautClass:
    return class_of_graph(smooth_graph(g, n))


def psi_class(g: int, n: int, i: int, exponent: int = 1) -> TautClass:
    graph = smooth_graph(g, n)
    return class_of_graph(graph, decoration(graph, psi={i: exponent}))


def kappa_class(g: int, n: int, a: int) -> TautClass:
    graph = smooth_graph(g, n)
    return class_of_graph(graph, decoration(graph, kappa={0: (a,)}))


# ---------------------------------------------------------------------------
# generators


@cache
def _vertex_shapes(keys: int, degree: int):
    """(psi exponents over `keys` psi keys, kappa indices) of each
    monomial of the given degree on one vertex."""
    return tuple(
        (combo[:-1], kappa)
        for combo in compositions(degree, (degree,) * (keys + 1))
        for kappa in partitions(combo[-1])
    )


def _vertex_monomials(keys, top: int):
    """Per degree j <= top, the (psi items, kappa indices) of degree j on
    one vertex whose psi keys are `keys`."""
    return [
        [
            (tuple((key, e) for key, e in zip(keys, exps) if e), kappa)
            for exps, kappa in _vertex_shapes(len(keys), j)
        ]
        for j in range(top + 1)
    ]


def _decorations_of_degree(graph: StableGraph, m: int, min_genus: int = 0):
    """The decorations of total degree m on `graph` that push forward to
    nonzero classes and sit only on vertices of genus >= min_genus: m is
    split over the vertices with each share at most that vertex's
    dimension (0 below min_genus), and each share over the psi keys and
    the kappa monomial of its vertex."""
    home, dims = vertex_data(graph)
    caps = [dim if gv >= min_genus else 0 for dim, gv in zip(dims, graph.genera)]
    keys = [[] for _ in dims]
    for i in graph.markings():
        keys[home[i]].append((PSI_LEG, i))
    for v, s in graph.half_edges():
        keys[v].append((PSI_HE, v, s))
    local = [_vertex_monomials(k, min(cap, m)) for k, cap in zip(keys, caps)]
    for shares in compositions(m, caps):
        for parts in itertools.product(*map(list.__getitem__, local, shares)):
            psi = (item for items, _ in parts for item in items)
            yield Decoration(psi, (kappa for _, kappa in parts))


def _decorated_strata(g: int, n: int, d: int, min_genus: int):
    """One class per automorphism orbit of (graph, decoration) of degree d
    with the decoration on vertices of genus >= min_genus, in
    `term_sort_key` order, each its canonical term with coefficient 1.

    The enumerated graphs are canonical, so a decoration's orbit is its
    transports along `automorphisms(graph)` and its least member is the
    `canonical_term` decoration.  The decorations of one graph are closed
    under those transports: the first member met gives the whole orbit,
    and the others are skipped, one sweep of |Aut| transports per orbit."""
    check_stable_type(g, n)
    if d < 0 or d > dim_moduli(g, n):
        raise DomainError("degree outside 0..3g-3+n")
    found = []
    for graph in enumerate_stable_graphs(g, n):
        if graph.n_edges <= d:
            auts = automorphisms(graph)
            met = set()
            for dec in _decorations_of_degree(graph, d - graph.n_edges, min_genus):
                if dec not in met:
                    orbit = {dec, *(dec.transport(av, ah) for av, ah in auts[1:])}
                    met |= orbit
                    found.append((graph, min(orbit, key=Decoration.sort_key)))
    ordered = sorted(found, key=term_sort_key)
    out = []
    for term in ordered:
        cls = TautClass(g, n, d)
        cls.terms[term] = ONE
        out.append(cls)
    return tuple(out)


@cache
def generators(g: int, n: int, d: int) -> tuple[TautClass, ...]:
    """The decorated-stratum generating set of degree d on (g, n).

    One class per automorphism orbit of (graph, decoration) with
    #edges + decoration degree = d; decorations that exceed a vertex
    dimension (those push forward to zero) are never built.  The kappa
    monomials are included in full, so the set is deliberately redundant.
    The order is deterministic, and each class is its canonical term with
    coefficient 1.
    """
    return _decorated_strata(g, n, d, 0)


@cache
def spanning_generators(g: int, n: int, d: int) -> tuple[TautClass, ...]:
    """The classes of `generators(g, n, d)` with no psi or kappa on a
    vertex of genus 0 or 1, in the same order; they still span R^d.

    R*(M̄_{0,m}) is spanned by boundary strata (Keel, Trans. AMS 330,
    1992), and so is R*(M̄_{1,m}): in genus 1, psi_i, kappa_1 and
    lambda_1 are combinations of boundary divisors (Getzler, J. AMS 10,
    1997; Petersen, Duke Math. J. 163, 2014).  So a psi/kappa monomial on
    a vertex of genus 0 or 1 pushes forward to a combination of strata
    with more edges and no decoration on that vertex.  The dropped
    classes are never built.  Should a case ever disagree, only the
    genus-0 decorations may be dropped (Keel's theorem alone).
    """
    return _decorated_strata(g, n, d, 2)
