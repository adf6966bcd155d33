"""Reference piecewise-polynomial spaces and pullbacks (tests only).

These are the routines that the library's union-find `pp_space` and
integer `pullback_pp` / `PPFunction.from_global` replace: the degree-d
space as the exact nullspace of the gluing conditions on ray multisets
(one row e_m - e_image per glued multiset), the degree-0 space from the
connected components of the complex, and substitution of linear forms by
repeated multiplication of rational polynomial dictionaries.  They follow
the definitions as written, so the library is checked against them.

`integer_substitute` is the integer substitution kernel on exponent
tuples that the packed-exponent kernel replaced; it is much faster than
the rational substitution, so it checks the library on larger inputs.

The gluings act here through ray maps of their own, with coordinates from
the dense elimination of `tests/dense_rref.py`, so no gluing code of the
library is used.  `gluing_orbit` is the breadth-first search, through each
gluing in both directions, that the library's one-way union-find classes
replaced.
"""

import itertools
import math
import operator

from dense_rref import dense_rref
from tautring.cone_complex import PPFunction, _ray_multisets
from tautring.errors import DomainError
from tautring.exact_linalg import QMatrix
from tautring.rationals import QQ, ZERO, ONE


def _poly_add(p, q):
    out = dict(p)
    for exps, c in q.items():
        c = out.get(exps, ZERO) + c
        if c:
            out[exps] = c
        else:
            out.pop(exps, None)
    return out


def _poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            c = out.get(exps, ZERO) + c1 * c2
            if c:
                out[exps] = c
            else:
                out.pop(exps, None)
    return out


def _poly_substitute(p, forms, n_new):
    """Substitute a linear form (dict over new variables) per old variable."""
    out = {}
    for exps, c in p.items():
        term = {(0,) * n_new: c}
        for form, e in zip(forms, exps):
            for _ in range(e):
                term = _poly_mul(term, form)
        out = _poly_add(out, term)
    return out


def from_global(complex, poly, degree):
    """Restrict a polynomial in the lattice coordinates to each cone."""
    out = []
    for cone in complex.cones:
        m = len(cone)
        forms = []
        for j in range(complex.lattice_rank):
            form = {}
            for i, ray in enumerate(cone):
                if ray[j]:
                    exps = tuple(1 if t == i else 0 for t in range(m))
                    form[exps] = QQ(ray[j])
            forms.append(form)
        out.append(_poly_substitute(poly, forms, m))
    return PPFunction(complex, degree, out)


def _coordinates(rays, vector):
    """Coordinates of vector in the independent rays, or None if it lies
    outside their span."""
    m = len(rays)
    matrix = QMatrix(
        [[QQ(ray[k]) for ray in rays] + [QQ(vector[k])] for k in range(len(vector))],
        n_cols=m + 1,
    )
    reduced, pivots = dense_rref(matrix)
    if m in pivots:
        return None
    return [reduced.rows[i][m] for i in range(m)]


def ray_map(complex, src, dst):
    """Each complex ray in the closed cone of src, sent to its image under
    the linear map taking src[i] to dst[i]."""
    out = {}
    for ray in complex.rays():
        coords = _coordinates(src, ray)
        if coords is not None and all(c >= 0 for c in coords):
            image = [
                sum(c * target[k] for c, target in zip(coords, dst)) for k in range(len(ray))
            ]
            assert all(x.denominator == 1 for x in image)
            out[ray] = tuple(int(x) for x in image)
    return out


def ray_maps(complex):
    """The ray map of every gluing, in the order of the gluings."""
    return [ray_map(complex, src, dst) for src, dst in complex.gluings]


def two_way_maps(complex):
    """The ray maps of every gluing, forward and backward."""
    maps = []
    for src, dst in complex.gluings:
        maps += [ray_map(complex, src, dst), ray_map(complex, dst, src)]
    return maps


def gluing_orbit(maps, face):
    """All faces identified with the sorted face by the gluing groupoid,
    each gluing acting both ways through its linear ray map (the maps of
    `two_way_maps`), so that a face of subdivision rays inside a glued
    face moves with it."""
    orbit = {face}
    queue = [face]
    while queue:
        current = queue.pop()
        for one_map in maps:
            if all(r in one_map for r in current):
                image = tuple(sorted(one_map[r] for r in current))
                if image not in orbit:
                    orbit.add(image)
                    queue.append(image)
    return sorted(orbit)


def _connected_components(complex):
    n = len(complex.cones)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        parent[find(a)] = find(b)

    for i, j in itertools.combinations(range(n), 2):
        if set(complex.cones[i]) & set(complex.cones[j]):
            union(i, j)
    for one_map in ray_maps(complex):
        for i, cone in enumerate(complex.cones):
            image = [one_map[r] for r in cone if r in one_map]
            if not image:
                continue
            for j, other in enumerate(complex.cones):
                if set(image) <= set(other):
                    union(i, j)
                    break
    return [find(i) for i in range(n)]


def _multiset_to_function(complex, d, coefficients, multisets):
    index = {m: k for k, m in enumerate(multisets)}
    polys = []
    for cone in complex.cones:
        poly = {}
        for combo in itertools.combinations_with_replacement(sorted(cone), d):
            c = coefficients[index[combo]]
            if not c:
                continue
            exps = [0] * len(cone)
            for ray in combo:
                exps[cone.index(ray)] += 1
            poly[tuple(exps)] = c
        polys.append(poly)
    return PPFunction(complex, d, polys)


def pp_space(complex, d):
    """Basis of the degree-d piecewise polynomials, by exact nullspace."""
    if d < 0:
        raise DomainError("degree must be nonnegative")
    if d == 0:
        labels = _connected_components(complex)
        out = []
        for root in sorted(set(labels)):
            polys = [
                {(0,) * len(cone): ONE if labels[i] == root else ZERO}
                for i, cone in enumerate(complex.cones)
            ]
            out.append(PPFunction(complex, 0, polys))
        return out
    multisets = _ray_multisets(complex, d)
    index = {m: k for k, m in enumerate(multisets)}
    rows = []
    for one_map in ray_maps(complex):
        for multiset in multisets:
            if not all(r in one_map for r in multiset):
                continue
            image = tuple(sorted(one_map[r] for r in multiset))
            if image not in index:
                raise DomainError("gluing image of a monomial is missing")
            if image == multiset:
                continue
            row = [ZERO] * len(multisets)
            row[index[multiset]] = ONE
            row[index[image]] = -ONE
            rows.append(row)
    if rows:
        kernel = QMatrix(rows, n_cols=len(multisets)).nullspace()
    else:
        kernel = [
            [ONE if i == k else ZERO for i in range(len(multisets))]
            for k in range(len(multisets))
        ]
    return [_multiset_to_function(complex, d, vec, multisets) for vec in kernel]


def pullback_pp(sub_map, f):
    """Restrict a piecewise polynomial along a subdivision map."""
    if f.complex != sub_map.target:
        raise DomainError("function does not live on the coarse complex")
    polys = []
    for cone, j, ray_coords in zip(
        sub_map.source.cones, sub_map.cone_targets, sub_map.ray_coords
    ):
        coarse = sub_map.target.cones[j]
        m = len(cone)
        # coarse coordinate k restricts to sum_i coords_i(ray_i)[k] * y_i
        forms = [{} for _ in coarse]
        for i, coords in enumerate(ray_coords):
            exps = tuple(1 if t == i else 0 for t in range(m))
            for k, c in enumerate(coords):
                if c:
                    forms[k][exps] = c
        polys.append(_poly_substitute(f.polys[j], forms, m))
    return PPFunction(sub_map.source, f.degree, polys)


def _tuple_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            exps = tuple(map(operator.add, e1, e2))
            c = out.get(exps, 0) + c1 * c2
            if c:
                out[exps] = c
            else:
                out.pop(exps, None)
    return out


def integer_substitute(poly, forms):
    """Replace variable k of poly by the linear form forms[k].

    forms[k] lists one coefficient (int or rational) per new variable.  The
    denominators of the forms and of the coefficients are cleared once,
    each power of each form is expanded once on exponent tuples, and each
    output coefficient becomes one rational at the end.
    """
    n_new = len(forms[0])
    scale = math.lcm(1, *(c.denominator for form in forms for c in form))
    units = [tuple(int(t == i) for t in range(n_new)) for i in range(n_new)]
    linear = [
        {units[i]: c.numerator * (scale // c.denominator) for i, c in enumerate(form) if c}
        for form in forms
    ]
    one = {(0,) * n_new: 1}
    powers = [[one] for _ in forms]
    common = math.lcm(1, *(c.denominator for c in poly.values()))
    top = max(map(sum, poly), default=0)
    out = {}
    for exps, c in poly.items():
        # c * prod (form_k / scale)^e_k over the denominator common * scale^top
        factor = c.numerator * (common // c.denominator) * scale ** (top - sum(exps))
        term = one
        for table, form, e in zip(powers, linear, exps):
            if e:
                while len(table) <= e:
                    table.append(_tuple_mul(table[-1], form))
                term = table[e] if term is one else _tuple_mul(term, table[e])
        for key, value in term.items():
            out[key] = out.get(key, 0) + factor * value
    denominator = common * scale**top
    return {exps: QQ(num, denominator) for exps, num in out.items() if num}


def integer_pullback(sub_map, f):
    """pullback_pp through `integer_substitute` on the rational ray coordinates."""
    polys = [
        integer_substitute(f.polys[j], list(zip(*ray_coords)))
        for j, ray_coords in zip(sub_map.cone_targets, sub_map.ray_coords)
    ]
    return PPFunction(sub_map.source, f.degree, polys)
