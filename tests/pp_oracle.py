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
`packed_substitute` is the packed-exponent kernel as it was before the
cones of one pullback shared their powers, products and rationals: it
expands every cone on its own.

`validate` is the pairwise scan that the one-pass check over ray
multisets replaced: the restrictions of two cones to every face they
share, and of a cone and its gluing image, compared pair by pair in a
fixed order, so that a failure names the first disagreeing pair.

The gluings act here through ray maps of their own, with coordinates from
the dense elimination of `tests/dense_rref.py`, so no gluing code of the
library is used.  `gluing_orbit` is the breadth-first search, through each
gluing in both directions, that the library's one-way union-find classes
replaced.

`barycentric` and `star_subdivision` are the subdivisions as they were
before they built their fine complexes themselves: they hand the fine
cones to the public `ConeComplex(...)`, which checks them, and
`subdivision_map` solves the coordinates of every fine ray in the coarse
cones by `exact_linalg.in_span`, one cone after another, until one cone
holds every ray of the fine cone.  The ray maps to compare with are
`ray_maps` of the result, solved by the dense elimination, so no chart of
the library is read on this side.
"""

import itertools
import math
import operator

from dense_rref import dense_rref
from tautring.cone_complex import (
    ConeComplex,
    PPFunction,
    SubdivisionMap,
    _primitive_ray,
    _ray_multisets,
    _vector_sum,
)
from tautring.errors import DomainError
from tautring.exact_linalg import QMatrix, in_span
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


def _cone_coords(rays, vector):
    """Coordinates of vector in the rays if it lies in their closed cone, or None."""
    coords = in_span(rays, vector)
    if coords is None or any(c < 0 for c in coords):
        return None
    return coords


def subdivision_map(fine, coarse):
    """Each fine cone in the first coarse cone holding all its rays, with
    the coordinates of its rays there, every one solved."""
    coords_in = {}  # (coarse cone index, ray) -> coordinates or None

    def coords(j, ray):
        key = (j, ray)
        if key not in coords_in:
            coords_in[key] = _cone_coords(coarse.cones[j], ray)
        return coords_in[key]

    targets, ray_coords = [], []
    for cone in fine.cones:
        for j in range(len(coarse.cones)):
            if all(coords(j, ray) is not None for ray in cone):
                targets.append(j)
                ray_coords.append(tuple(coords(j, ray) for ray in cone))
                break
        else:
            raise DomainError("subdivision does not refine the complex")
    return SubdivisionMap(fine, coarse, targets, ray_coords)


def barycentric(complex):
    """The flag cones of every maximal cone, checked and mapped by solves."""
    cones = set()
    for cone in complex.cones:
        for perm in itertools.permutations(cone):
            partial = None
            flag = []
            for ray in perm:
                partial = ray if partial is None else _vector_sum([partial, ray])
                flag.append(_primitive_ray(partial))
            cones.add(tuple(flag))
    fine = ConeComplex(complex.lattice_rank, cones, complex.gluings)
    return fine, subdivision_map(fine, complex)


def star_subdivision(complex, rays):
    """The star at every face of the gluing orbit of the face (found by
    `gluing_orbit`), checked and mapped by solves."""
    face = tuple(sorted(tuple(r) for r in rays))
    if face not in complex.all_faces():
        raise DomainError("%r is not a face of the complex" % (face,))
    orbit = gluing_orbit(two_way_maps(complex), face)
    for a, b in itertools.combinations(orbit, 2):
        if set(a) & set(b) and any(set(a + b) <= set(c) for c in complex.cones):
            raise DomainError(
                "the face is identified with a face that shares a ray and a cone "
                "with it; star refused"
            )
    cones = list(complex.cones)
    for member in orbit:
        barycenter = _primitive_ray(_vector_sum(member))
        subdivided = []
        for cone in cones:
            if set(member) <= set(cone):
                for f in member:
                    subdivided.append(tuple(barycenter if r == f else r for r in cone))
            else:
                subdivided.append(cone)
        cones = subdivided
    fine = ConeComplex(complex.lattice_rank, set(cones), complex.gluings)
    return fine, subdivision_map(fine, complex)


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


def _packed_mul(p, q):
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            key = k1 + k2
            c = out.get(key, 0) + c1 * c2
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


def packed_substitute(poly, forms, scale):
    """Replace variable k of poly by the integer linear form forms[k] / scale,
    on exponents packed in base top + 1, every power table built afresh."""
    n_new = len(forms[0])
    common = math.lcm(1, *(c.denominator for c in poly.values()))
    top = max(map(sum, poly), default=0)
    base = top + 1
    linear = [{base**t: a for t, a in enumerate(form) if a} for form in forms]
    one = {0: 1}
    powers = [[one] for _ in forms]
    out = {}
    for exps, c in poly.items():
        factor = c.numerator * (common // c.denominator) * scale ** (top - sum(exps))
        term = one
        for table, form, e in zip(powers, linear, exps):
            if e:
                while len(table) <= e:
                    table.append(_packed_mul(table[-1], form))
                term = table[e] if term is one else _packed_mul(term, table[e])
        for key, value in term.items():
            out[key] = out.get(key, 0) + factor * value
    denominator = common * scale**top
    result = {}
    for key, num in out.items():
        if num:
            exps = []
            for _ in range(n_new):
                key, e = divmod(key, base)
                exps.append(e)
            result[tuple(exps)] = QQ(num) if denominator == 1 else QQ(num, denominator)
    return result


def packed_pullback(sub_map, f):
    """pullback_pp through `packed_substitute`, one cone at a time."""
    polys = [
        packed_substitute(f.polys[j], forms, scale)
        for j, forms, scale in zip(sub_map.cone_targets, sub_map.forms, sub_map.scales)
    ]
    return PPFunction(sub_map.source, f.degree, polys)


def matched_faces(complex):
    """(i, face, j, image): each face shared by cones i < j, then per gluing
    and per cone i the rays it moves, j the first cone holding their images."""
    cones = complex.cones
    raysets = [set(cone) for cone in cones]
    for i, j in itertools.combinations(range(len(cones)), 2):
        shared = [r for r in cones[i] if r in raysets[j]]
        if shared:
            yield i, shared, j, shared
    for one_map in ray_maps(complex):
        for i, cone in enumerate(cones):
            face = [r for r in cone if r in one_map]
            if face:
                image = [one_map[r] for r in face]
                j = next(j for j, rays in enumerate(raysets) if rays.issuperset(image))
                yield i, face, j, image


def _restrict(f, cone_index, face_rays):
    cone = f.complex.cones[cone_index]
    positions = [cone.index(r) for r in face_rays]
    out = {}
    for exps, c in f.polys[cone_index].items():
        if all(e == 0 or k in positions for k, e in enumerate(exps)):
            out[tuple(exps[k] for k in positions)] = c
    return out


def validate(f):
    """Raise DomainError naming the first pair of cones whose restrictions
    to a shared or glued face differ."""
    for i, face, j, image in matched_faces(f.complex):
        if _restrict(f, i, face) != _restrict(f, j, image):
            raise DomainError(
                "polynomials of cones %d, %d disagree on a shared or glued face" % (i, j)
            )
