"""Cone complexes with face identifications and piecewise polynomials.

A complex is stored geometrically: all cones live in one integral
lattice, a cone is an ordered tuple of primitive ray vectors (always
simplicial here), and faces are subsets of rays.  Identifications are
generated by a finite list of gluings, each a linear isomorphism between
two faces given by matching up their rays; a gluing from a cone to
itself with a nontrivial ray permutation encodes monodromy.  Because
gluings are recorded as ray correspondences they survive subdivision
unchanged: star and barycentric subdivisions are canonical, so the same
correspondence keeps identifying the subdivided faces.  The constructor
checks that every gluing identifies faces and stores its ray map; every
later use of a gluing reads the stored map.  The two subdivisions build
their fine complexes through the trusted `ConeComplex._unchecked`
instead, skipping the checks that hold by construction.

Every coordinate question (does a cone hold a vector, and with which
coordinates; where does a gluing send a ray; which coarse cone holds a
fine cone) is answered through the chart of a cone: the integer inverse
of a square block of its rays, made by one exact elimination the first
time the cone is asked about and cached from then on (`_chart`).

Piecewise polynomials are per-maximal-cone polynomials in that cone's
ray coordinates, agreeing on shared faces and invariant under all
gluings.  The space of them in each degree has a basis of indicator
functions of the classes of ray multisets that the gluings identify.
A function that vanishes on a cone holds there the one read-only empty
mapping `_ZERO_POLY`, so a zero cone costs one pointer.
"""

import functools
import itertools
import json
import math
import operator
import types

from .combinatorics import union_find
from .errors import DomainError, json_field, json_ints, json_loads
from .exact_linalg import QMatrix, pivot_columns, rank_of_rows
from .rationals import QQ, ZERO, ONE, rat

# ---------------------------------------------------------------------------
# vector helpers


def _primitive_ray(vector):
    """The primitive integer vector on the ray of vector, same direction;
    the zero vector raises DomainError."""
    g = 0
    for x in vector:
        g = math.gcd(g, abs(x))
    if g == 0:
        raise DomainError("the zero vector spans no ray")
    return tuple(x // g for x in vector)


def _vector_sum(vectors):
    return tuple(sum(col) for col in zip(*vectors))


@functools.cache
def _chart(rays):
    """(pivots, inverse, scale): the chart of a cone with independent rays.

    pivots are lattice coordinates on which the square block B, with
    B[i][k] = rays[i][pivots[k]], is invertible, and inverse[i][k] is the
    integer scale * B^-1[k][i], so that the coordinates of a vector v in
    the span of the rays are sum_k inverse[i][k] * v[pivots[k]] / scale.
    One exact elimination of the rays, recording its row operations,
    gives both: the recorded transform is B^-1.
    """
    _, pivots, transform = QMatrix(rays).rref(record=True)
    scale = math.lcm(1, *(x.denominator for row in transform.rows for x in row))
    inverse = tuple(
        tuple(x.numerator * (scale // x.denominator) for x in column)
        for column in zip(*transform.rows)
    )
    return tuple(pivots), inverse, scale


def _cone_coords(rays, vector):
    """Coordinates of vector in the rays if it lies in their closed cone,
    or None: rationals read through the chart of the rays, as a list.
    The entries of vector are read by `rat`; the span is checked only
    when the rays span less than the lattice."""
    if rays and len(vector) != len(rays[0]):
        raise DomainError("vector length does not match row count")
    values = [rat(x) for x in vector]
    den = math.lcm(*(x.denominator for x in values))
    point = [x.numerator * (den // x.denominator) for x in values]
    pivots, inverse, scale = _chart(rays)
    coords = [sum(point[p] * a for p, a in zip(pivots, column)) for column in inverse]
    if any(c < 0 for c in coords):
        return None
    if len(pivots) < len(point) and any(
        sum(c * ray[k] for c, ray in zip(coords, rays)) != scale * x
        for k, x in enumerate(point)
    ):
        return None
    return [QQ(c, scale * den) for c in coords]


def _barycenter(face):
    """The primitive vector on the sum of the rays of face."""
    total = _vector_sum(face)
    g = math.gcd(*total)
    return tuple(x // g for x in total)


def _faces(cones):
    """The set of nonempty faces of the cones, each a sorted ray tuple."""
    faces = set()
    for cone in cones:
        for size in range(1, len(cone) + 1):
            faces.update(itertools.combinations(cone, size))
    return faces


def _gluing_ray_map(src, dst, rays, faces):
    """The image of every complex ray inside cone(src) under the linear
    map taking src[i] to dst[i], keys in sorted ray order, checked to
    identify faces: the images are exactly the complex rays inside
    cone(dst), and the map takes the faces inside cone(src) onto the
    faces inside cone(dst).
    """
    out = {}
    for ray in sorted(rays):
        coords = _cone_coords(src, ray)
        if coords is None:
            continue
        den = math.lcm(*(c.denominator for c in coords))
        scaled = [c.numerator * (den // c.denominator) for c in coords]
        total = _vector_sum([[a * x for x in t] for a, t in zip(scaled, dst)])
        if any(x % den for x in total):
            raise DomainError("gluing does not preserve the lattice")
        image = tuple(x // den for x in total)
        if image not in rays:
            raise DomainError("gluing maps ray %r outside the complex" % (ray,))
        out[ray] = image
    images = set(out.values())
    # the images lie in cone(dst); no other ray may
    for ray in sorted(rays - images):
        if _cone_coords(dst, ray) is not None:
            raise DomainError("gluing misses the ray %r of its target" % (ray,))
    sources = {f for f in faces if all(r in out for r in f)}
    targets = {f for f in faces if all(r in images for r in f)}
    if {tuple(sorted(map(out.get, f))) for f in sources} != targets:
        raise DomainError("gluing does not map faces onto faces")
    return out


# ---------------------------------------------------------------------------
# the complex


class ConeComplex:
    """Simplicial cones in a common lattice plus face identifications.

    cones: the maximal cones, each a tuple of primitive integer ray
    vectors (kept sorted, and the list of cones is kept sorted, so equal
    complexes compare equal).  gluings: pairs (source_rays, target_rays)
    of equal-length ray tuples; the isomorphism maps source ray i to
    target ray i and extends linearly.  validate() stores one ray map per
    gluing in _ray_maps; being derived, the maps take no part in
    equality, hashing, JSON or repr.
    """

    __slots__ = ("lattice_rank", "cones", "gluings", "_ray_maps")

    def __init__(self, lattice_rank, cones, gluings=()):
        self.lattice_rank = lattice_rank
        fixed = sorted(tuple(sorted(tuple(r) for r in cone)) for cone in cones)
        self.cones = tuple(fixed)
        self.gluings = tuple(
            (tuple(tuple(r) for r in src), tuple(tuple(r) for r in dst))
            for src, dst in gluings
        )
        self.validate()

    def validate(self):
        if not self.cones:
            raise DomainError("a cone complex needs at least one cone")
        seen = set()
        for cone in self.cones:
            if not cone:
                raise DomainError("empty maximal cone")
            if cone in seen:
                raise DomainError("duplicate maximal cone")
            seen.add(cone)
            for ray in cone:
                if len(ray) != self.lattice_rank:
                    raise DomainError("ray does not match the lattice rank")
                if not all(type(x) is int for x in ray):
                    raise DomainError("rays must be integer vectors")
                if _primitive_ray(ray) != ray:
                    raise DomainError("ray %r is not primitive" % (ray,))
            if len(pivot_columns(cone)) != len(cone):
                raise DomainError("cone rays are linearly dependent")
        for src, dst in self.gluings:
            if len(src) != len(dst):
                raise DomainError("gluing joins faces of different dimension")
            # After a subdivision the glued face is a union of cones, so
            # only require the spanning rays to sit inside the support.
            for rays in (src, dst):
                if not all(type(x) is int for ray in rays for x in ray):
                    raise DomainError("rays must be integer vectors")
                if len(pivot_columns(rays)) != len(rays):
                    raise DomainError("gluing face rays are dependent")
                for ray in rays:
                    if all(ray not in c for c in self.cones) and self.find_cone(ray) is None:
                        raise DomainError(
                            "gluing references %r outside the support" % (ray,)
                        )
        rays = set(self.rays())
        faces = _faces(self.cones)
        self._ray_maps = tuple(
            _gluing_ray_map(src, dst, rays, faces) for src, dst in self.gluings
        )

    @classmethod
    def _unchecked(cls, lattice_rank, cones, gluings, ray_maps):
        """A complex made by `barycentric` or `star_subdivision` from a
        checked complex: cones are the fine cones, sorted ray tuples in
        sorted order; gluings are the coarse complex's; ray_maps holds one
        map per gluing from `_gluing_ray_map`.

        It skips the checks of `validate` that hold by construction:
        - primitive rays: every ray is a coarse ray or the primitive
          vector on a sum of coarse rays;
        - independent flags: a fine cone is a coarse cone with some rays
          replaced, each by the barycenter of a face holding it (the faces
          of a flag, or disjoint faces of a star), so its rays are the
          coarse rays times a triangular matrix with a positive diagonal;
          a fine cone is nonempty, and its rays are integer vectors of the
          lattice rank, for the same reason;
        - gluing shapes: the gluings are the coarse complex's, which
          `validate` checked;
        - support: a subdivision has the support of the complex it
          subdivides, so the gluing rays still lie in it.
        The checks that are not proven stay with the callers:
        `_fine_cones` refuses a repeated fine cone, and
        `_gluing_ray_map` reads every image through a chart and checks
        it, and that each gluing maps faces onto faces.
        """
        self = object.__new__(cls)
        self.lattice_rank = lattice_rank
        self.cones = tuple(cones)
        self.gluings = gluings
        self._ray_maps = tuple(ray_maps)
        return self

    def rays(self):
        out = set()
        for cone in self.cones:
            out.update(cone)
        return tuple(sorted(out))

    def all_faces(self):
        """Every nonempty face of every cone, sorted by dimension."""
        return sorted(_faces(self.cones), key=lambda f: (len(f), f))

    def contains(self, point):
        return self.find_cone(point) is not None

    def find_cone(self, point):
        """Index of a maximal cone containing the point, or None."""
        for i, cone in enumerate(self.cones):
            if _cone_coords(cone, point) is not None:
                return i
        return None

    def __eq__(self, other):
        return (
            isinstance(other, ConeComplex)
            and self.lattice_rank == other.lattice_rank
            and self.cones == other.cones
            and self.gluings == other.gluings
        )

    def __hash__(self):
        return hash((self.lattice_rank, self.cones, self.gluings))

    def __reduce__(self):
        return ConeComplex, (self.lattice_rank, self.cones, self.gluings)

    def __repr__(self):
        return "ConeComplex(rank=%d, %d maximal cones, %d gluings)" % (
            self.lattice_rank,
            len(self.cones),
            len(self.gluings),
        )

    # -- serialization ------------------------------------------------------

    def to_json_dict(self):
        """All faces with facet links, maximal cones first by convention."""
        faces = self.all_faces()
        index = {face: i for i, face in enumerate(faces)}
        cones = []
        for face in faces:
            facets = []
            if len(face) > 1:
                facets = sorted(
                    index[sub] for sub in itertools.combinations(face, len(face) - 1)
                )
            cones.append({"rays": [list(r) for r in face], "faces": facets})
        return {
            "lattice_rank": self.lattice_rank,
            "cones": cones,
            "gluings": [
                {"source": [list(r) for r in src], "target": [list(r) for r in dst]}
                for src, dst in self.gluings
            ],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(data):
        """Read a complex; a key or type out of place raises DomainError
        (an integer is an `int`, never a bool, float or string)."""

        def rays(obj, key):
            return tuple(json_ints(ray, rank) for ray in json_field(obj, key, list))

        rank = json_field(data, "lattice_rank", int)
        all_cones = [rays(entry, "rays") for entry in json_field(data, "cones", list)]
        raysets = [set(c) for c in all_cones]
        maximal = [
            cone
            for i, cone in enumerate(all_cones)
            if not any(i != j and raysets[i] < raysets[j] for j in range(len(all_cones)))
        ]
        gluings = [
            (rays(entry, "source"), rays(entry, "target"))
            for entry in json_field(data, "gluings", list, [])
        ]
        return ConeComplex(rank, maximal, gluings)

    @staticmethod
    def from_json(text):
        return ConeComplex.from_json_dict(json_loads(text))


def simplex_cone_complex(n):
    """The cone R^n_{>=0} spanned by the standard basis."""
    if n < 1:
        raise DomainError("need at least one dimension")
    basis = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return ConeComplex(n, [tuple(basis)])


def triangle_z3_complex():
    """Cone over a triangle, all edges identified, with Z/3 monodromy.

    A single gluing generator, the rotation e1 -> e2 -> e3 -> e1,
    generates the whole identification groupoid.
    """
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    return ConeComplex(3, [(e1, e2, e3)], [((e1, e2, e3), (e2, e3, e1))])


# ---------------------------------------------------------------------------
# subdivisions


class SubdivisionMap:
    """Records which coarse cone each fine maximal cone lands in.

    cone_targets[i] is the first coarse cone that contains every ray of
    fine cone i, and ray_coords[i][r] holds the coordinates of ray r of
    fine cone i in its rays, each a list of rationals read through the
    chart of the coarse cone (see `_chart`).  The same coordinates are
    kept once more as integer linear forms, computed here so that every
    pullback reuses them: scales[i] is the least common denominator of
    the coordinates of fine cone i, and forms[i][k][r] is the integer
    scales[i] * ray_coords[i][r][k].  So coarse coordinate k restricts to
    fine cone i as sum_r forms[i][k][r] * y_r / scales[i].
    """

    __slots__ = ("source", "target", "cone_targets", "ray_coords", "forms", "scales")

    def __init__(self, source, target, cone_targets, ray_coords):
        self.source = source
        self.target = target
        self.cone_targets = tuple(cone_targets)
        self.ray_coords = tuple(ray_coords)
        forms, scales = [], []
        for coords in self.ray_coords:
            scale = math.lcm(1, *(c.denominator for ray in coords for c in ray))
            scales.append(scale)
            forms.append(
                tuple(
                    tuple(c.numerator * (scale // c.denominator) for c in column)
                    for column in zip(*coords)
                )
            )
        self.forms, self.scales = tuple(forms), tuple(scales)

    def __repr__(self):
        return "SubdivisionMap(%d -> %d maximal cones)" % (
            len(self.source.cones),
            len(self.target.cones),
        )


def _fine_cones(complex, pieces):
    """(fine cones, one ray map per gluing) for the fine maximal cones
    pieces, as a subdivision of complex made them: each piece sorted, the
    pieces in sorted order.  Two pieces with one set of rays are refused,
    as `ConeComplex.validate` refuses them.
    """
    cones = set()
    for piece in pieces:
        cone = tuple(sorted(piece))
        if cone in cones:
            raise DomainError("duplicate maximal cone")
        cones.add(cone)
    cones = sorted(cones)
    ray_maps = ()
    if complex.gluings:
        rays = set().union(*cones)
        faces = _faces(cones)
        ray_maps = [_gluing_ray_map(src, dst, rays, faces) for src, dst in complex.gluings]
    return cones, ray_maps


def _subdivision_map(fine, coarse):
    """The SubdivisionMap of fine over coarse: each fine cone goes to the
    first coarse cone holding all its rays, with their coordinates there,
    each read once per call through the chart of the coarse cone."""
    coords_in = {}  # (coarse cone index, ray) -> coordinates or None

    def coords(j, ray):
        key = (j, ray)
        if key not in coords_in:
            coords_in[key] = _cone_coords(coarse.cones[j], ray)
        return coords_in[key]

    targets = [
        next(j for j in range(len(coarse.cones)) if all(coords(j, r) is not None for r in cone))
        for cone in fine.cones
    ]
    ray_coords = [tuple(coords(j, ray) for ray in cone) for j, cone in zip(targets, fine.cones)]
    return SubdivisionMap(fine, coarse, targets, ray_coords)


def _gluing_classes(complex, items):
    """Union-find label of each sorted ray tuple in items, each joined to
    its image under every gluing.  The stored ray maps are bijections that
    take faces onto faces, so joining along them one way gives the classes
    of the whole identification groupoid, and the image of a face or of a
    ray multiset on a face is again an item when items holds all of them.
    """
    index = {item: k for k, item in enumerate(items)}
    pairs = [
        (k, index[tuple(sorted(map(ray_map.get, item)))])
        for ray_map in complex._ray_maps
        for k, item in enumerate(items)
        if all(r in ray_map for r in item)
    ]
    return dict(zip(items, union_find(len(items), pairs)))


def star_subdivision(complex, rays):
    """Star subdivision at the barycenter of the face spanned by the rays.

    The whole gluing orbit of the face is subdivided at once so the
    identifications stay valid.  Two orbit members that share a ray and lie
    in one maximal cone (nested faces among them) would be subdivided in an
    order-dependent way that the gluing does not preserve, so the call is
    refused.
    """
    face = tuple(sorted(tuple(r) for r in rays))
    labels = _gluing_classes(complex, complex.all_faces())
    if face not in labels:
        raise DomainError("%r is not a face of the complex" % (face,))
    orbit = sorted(f for f, label in labels.items() if label == labels[face])
    for a, b in itertools.combinations(orbit, 2):
        if set(a) & set(b) and any(set(a + b) <= set(c) for c in complex.cones):
            raise DomainError(
                "the face is identified with a face that shares a ray and a cone "
                "with it; star refused"
            )
    pieces = set(complex.cones)
    for member in orbit:
        barycenter = _barycenter(member)
        subdivided = set()
        for cone in pieces:
            if set(member) <= set(cone):
                subdivided.update(tuple(barycenter if r == f else r for r in cone) for f in member)
            else:
                subdivided.add(cone)
        pieces = subdivided
    cones, ray_maps = _fine_cones(complex, pieces)
    fine = ConeComplex._unchecked(complex.lattice_rank, cones, complex.gluings, ray_maps)
    return fine, _subdivision_map(fine, complex)


def barycentric(complex):
    """Subdivision by barycenters of all flags of faces.

    Each maximal cone with m rays is replaced by the m! cones spanned by
    the barycenters of a full flag of its faces.  The construction is
    canonical, so it descends through every identification.
    """
    pieces = set()
    for cone in complex.cones:
        # the barycenter of each face, by the bit mask of its positions
        centers = {}
        for size in range(1, len(cone) + 1):
            for positions in itertools.combinations(range(len(cone)), size):
                face = tuple(cone[k] for k in positions)
                centers[sum(1 << k for k in positions)] = _barycenter(face)
        for perm in itertools.permutations(range(len(cone))):
            mask, flag = 0, []
            for k in perm:
                mask |= 1 << k
                flag.append(centers[mask])
            pieces.add(tuple(flag))
    cones, ray_maps = _fine_cones(complex, pieces)
    fine = ConeComplex._unchecked(complex.lattice_rank, cones, complex.gluings, ray_maps)
    return fine, _subdivision_map(fine, complex)


# ---------------------------------------------------------------------------
# polynomial dictionaries: {exponent tuple: coefficient}, homogeneous

# The zero polynomial of every cone of every function: read-only, since
# all of them share it.  `_clean_poly`, `pp_space`, `pullback_pp` and the
# arithmetic below return it for an empty result, so a cone polynomial
# is either nonempty or is _ZERO_POLY.
_ZERO_POLY = types.MappingProxyType({})


def _poly_add(p, q):
    out = dict(p)
    for exps, c in q.items():
        c = out.get(exps, ZERO) + c
        if c:
            out[exps] = c
        else:
            out.pop(exps, None)
    return out or _ZERO_POLY


def _poly_scale(p, factor):
    factor = rat(factor)
    if not factor or not p:
        return _ZERO_POLY
    return {exps: c * factor for exps, c in p.items()}


def _poly_mul(p, q):
    """p * q by `_packed_mul` on integer numerators over each factor's
    common denominator, exponents packed in base deg p + deg q + 1 (see
    _substitute).  A numerator is zero exactly when its rational sum is,
    so the terms come out in the order of the loop on rationals."""
    if not p or not q:
        return _ZERO_POLY
    base = max(map(sum, p)) + max(map(sum, q)) + 1
    weights = [base**t for t in range(len(next(iter(p))))]
    factors = []
    for poly in (p, q):
        common = math.lcm(*(c.denominator for c in poly.values()))
        packed = {
            sum(map(operator.mul, exps, weights)): c.numerator * (common // c.denominator)
            for exps, c in poly.items()
        }
        factors.append((packed, common))
    (left, left_den), (right, right_den) = factors
    denominator = left_den * right_den
    out = {}
    for key, num in _packed_mul(left, right).items():
        digits = []
        for _ in weights:
            key, e = divmod(key, base)
            digits.append(e)
        out[tuple(digits)] = QQ(num, denominator)
    return out


def _poly_eval(p, values):
    total = ZERO
    for exps, c in p.items():
        term = c
        for v, e in zip(values, exps):
            term *= v**e
        total += term
    return total


def _packed_mul(p, q):
    """_poly_mul for polynomials keyed by packed exponents (see _substitute)."""
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


def _power(powers, form, e, base):
    """form^e packed in base, by repeated multiplication by form, each
    power kept in powers under (form, e)."""
    power = powers.get((form, e))
    if power is None:
        if e == 1:
            power = {base**t: a for t, a in enumerate(form) if a}
        else:
            power = _packed_mul(_power(powers, form, e - 1, base), _power(powers, form, 1, base))
        powers[form, e] = power
    return power


def _substitute(poly, forms, scale, memo=None):
    """Replace variable k of poly by the linear form forms[k] / scale.

    forms[k] lists one integer coefficient per new variable and scale is a
    positive integer.  The work is done in integers: the denominators of
    the coefficients are cleared once, each product of powers of forms is
    expanded once, and each output coefficient becomes one rational at the
    end.  Exponent tuples in the new variables are packed into integers in
    base top + 1, top the largest degree in poly, digit t holding the
    exponent of variable t.  No exponent exceeds top, so multiplying two
    monomials adds their keys, and a key is unpacked only when its output
    coefficient is built.  A power is made by repeated multiplication and
    a product of powers left to right in variable order, so every result
    has the same terms in the same order however much work is shared.

    memo is a dict owned by one call of pullback_pp or
    PPFunction.from_global and passed to the substitution of each of its
    cones, so that the cones share their work; it dies with the call.  Per
    base and number of new variables it keeps each power form^e, keyed by
    (form, e); each product of powers, keyed by its (form, e) factors in
    variable order; each packed key unpacked; and each output rational,
    keyed by (numerator, denominator).  Fractions and exponent tuples are
    immutable, so the polynomials of different cones may share them.
    Without a memo nothing is shared.
    """
    n_new = len(forms[0])
    common = math.lcm(1, *(c.denominator for c in poly.values()))
    top = max(map(sum, poly), default=0)
    base = top + 1
    if memo is None:
        memo = {}
    tables = memo.get((base, n_new))
    if tables is None:
        tables = memo[base, n_new] = ({}, {}, {}, {})
    powers, products, exponents, rationals = tables
    one = {0: 1}
    out = {}
    for exps, c in poly.items():
        # c * prod (form_k / scale)^e_k over the denominator common * scale^top
        factor = c.numerator * (common // c.denominator) * scale ** (top - sum(exps))
        factors = tuple((forms[k], e) for k, e in enumerate(exps) if e)
        term = products.get(factors)
        if term is None:
            term = one
            for form, e in factors:
                power = _power(powers, form, e, base)
                term = power if term is one else _packed_mul(term, power)
            products[factors] = term
        for key, value in term.items():
            out[key] = out.get(key, 0) + factor * value
    denominator = common * scale**top
    result = {}
    for key, num in out.items():
        if num:
            exps = exponents.get(key)
            if exps is None:
                digits = []
                rest = key
                for _ in range(n_new):
                    rest, e = divmod(rest, base)
                    digits.append(e)
                exps = exponents[key] = tuple(digits)
            value = rationals.get((num, denominator))
            if value is None:
                value = rationals[num, denominator] = QQ(num, denominator)
            result[exps] = value
    return result


# ---------------------------------------------------------------------------
# piecewise polynomials


def _clean_poly(poly, n_vars, degree=None):
    """poly as {exponent tuple: rational}, zero terms dropped, or
    _ZERO_POLY if none is left.

    Every exponent tuple must hold n_vars nonnegative integers, summing to
    degree unless that is None, and every coefficient must be readable by
    rat.
    """
    clean = {}
    for exps, c in poly.items():
        exps = tuple(exps)
        if len(exps) != n_vars:
            raise DomainError("exponent tuple %r does not have %d entries" % (exps, n_vars))
        try:
            total = sum(exps)  # a float or Fraction if an entry is one
        except TypeError:  # an entry that is no number
            total = None
        if type(total) is not int or min(exps) < 0:
            raise DomainError("exponents must be nonnegative integers")
        if degree is not None and total != degree:
            raise DomainError("polynomial is not homogeneous")
        c = rat(c)
        if c:
            clean[exps] = c
    return clean or _ZERO_POLY


class PPFunction:
    """A polynomial per maximal cone, in that cone's ray coordinates.

    polys holds one mapping per cone: a nonempty dict, or `_ZERO_POLY`
    where the function vanishes, shared by every such cone and refusing
    writes (TypeError).  Compatibility (agreement on shared faces,
    invariance under gluings) is a property checked by is_compatible /
    validate, not enforced on construction, so intermediate arithmetic
    results are representable.
    """

    __slots__ = ("complex", "degree", "polys")

    def __init__(self, complex, degree, polys):
        if len(polys) != len(complex.cones):
            raise DomainError("need one polynomial per maximal cone")
        self.complex = complex
        self.degree = degree
        self.polys = tuple(
            _clean_poly(poly, len(cone), degree) for cone, poly in zip(complex.cones, polys)
        )

    @classmethod
    def _unchecked(cls, complex, degree, polys):
        """A function from polynomials already in the form __init__ makes:
        exponent tuples that pass its checks, nonzero rational values,
        `_ZERO_POLY` for every zero cone.
        pp_space, pullback_pp, from_global and the arithmetic of functions
        build their results through it, so that the terms they make are
        not checked again one by one."""
        self = object.__new__(cls)
        self.complex = complex
        self.degree = degree
        self.polys = tuple(polys)
        return self

    @classmethod
    def constant(cls, complex, value):
        value = rat(value)
        return cls(
            complex,
            0,
            [{(0,) * len(cone): value} for cone in complex.cones],
        )

    @classmethod
    def from_global(cls, complex, poly, degree):
        """Restrict a polynomial in the lattice coordinates to each cone.

        On a cone with rays r_1..r_m the lattice coordinate x_j restricts
        to sum_i r_i[j] * y_i.  The exponent tuples of poly have one entry
        per lattice coordinate, like those of PPFunction per cone ray.
        The substitutions of all the cones share one memo (see
        _substitute), made for this call and dropped when it returns:
        cones whose rays give the same linear forms expand each product
        of their powers once.  poly is cleaned once, here: substituting
        keeps the degree of every term, so the restrictions are checked
        for degree only if poly has a term of another one, and then, as
        by the constructor, on each cone where such a term survives.
        """
        poly = _clean_poly(poly, complex.lattice_rank)
        mixed = any(sum(exps) != degree for exps in poly)
        memo = {}
        polys = []
        for cone in complex.cones:
            restricted = _substitute(poly, tuple(zip(*cone)), 1, memo)
            if mixed:
                restricted = _clean_poly(restricted, len(cone), degree)
            polys.append(restricted or _ZERO_POLY)
        return cls._unchecked(complex, degree, polys)

    def __reduce__(self):
        # _ZERO_POLY does not pickle: send plain dicts, and let __init__
        # put the shared zero back
        return PPFunction, (self.complex, self.degree, [dict(p) for p in self.polys])

    def __add__(self, other):
        self._check_other(other)
        return PPFunction._unchecked(
            self.complex,
            self.degree,
            [_poly_add(p, q) for p, q in zip(self.polys, other.polys)],
        )

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return PPFunction._unchecked(
            self.complex,
            self.degree,
            [_poly_scale(p, scalar) for p in self.polys],
        )

    def __mul__(self, other):
        if not isinstance(other, PPFunction):
            return NotImplemented
        if other.complex != self.complex:
            raise DomainError("functions live on different complexes")
        return PPFunction._unchecked(
            self.complex,
            self.degree + other.degree,
            [_poly_mul(p, q) for p, q in zip(self.polys, other.polys)],
        )

    def _check_other(self, other):
        if not isinstance(other, PPFunction):
            raise DomainError("expected a piecewise polynomial")
        if other.complex != self.complex or other.degree != self.degree:
            raise DomainError("incompatible piecewise polynomials")

    def __eq__(self, other):
        return (
            isinstance(other, PPFunction)
            and self.complex == other.complex
            and self.degree == other.degree
            and self.polys == other.polys
        )

    def __hash__(self):
        return hash(
            (
                self.complex,
                self.degree,
                tuple(tuple(sorted(p.items())) for p in self.polys),
            )
        )

    def is_zero(self):
        return all(not p for p in self.polys)

    def evaluate(self, point):
        for cone, poly in zip(self.complex.cones, self.polys):
            coords = _cone_coords(cone, point)
            if coords is not None:
                return _poly_eval(poly, coords)
        raise DomainError("point %r lies outside the support" % (point,))

    def is_compatible(self):
        try:
            self.validate()
        except DomainError:
            return False
        return True

    def validate(self):
        """Check agreement on shared faces and invariance under gluings.

        Two cones agree on the face they share exactly when every ray
        multiset of degree d inside both has one coefficient in the two,
        and a gluing is respected exactly when each multiset it moves has
        the coefficient of its image.  So in degree d >= 1 one pass reads
        each cone's coefficient of each sorted ray multiset of the cone
        (zero for an absent monomial), requires every cone holding a
        multiset to give it the same value, and then requires each
        multiset moved by a stored ray map to have the value of its image.
        In degree 0 every cone holds the empty multiset, whether or not
        the cones meet, so there the faces of _matched_faces are compared
        pair by pair.  They are also compared when the pass finds a
        disagreement, so that the error names the first disagreeing pair
        of cones in the order of _matched_faces.
        """
        if self.degree >= 1:
            values = _multiset_coefficients(self)
            if values is not None and all(
                values[tuple(sorted(map(ray_map.get, multiset)))] == c
                for ray_map in self.complex._ray_maps
                for multiset, c in values.items()
                if all(r in ray_map for r in multiset)
            ):
                return
        for i, face, j, image in _matched_faces(self.complex):
            if self._restrict(i, face) != self._restrict(j, image):
                raise DomainError(
                    "polynomials of cones %d, %d disagree on a shared or glued face"
                    % (i, j)
                )

    def _restrict(self, cone_index, face_rays):
        """Coefficients supported on the given rays, keyed by their order."""
        cone = self.complex.cones[cone_index]
        positions = [cone.index(r) for r in face_rays]
        inside = set(positions)
        out = {}
        for exps, c in self.polys[cone_index].items():
            if all(e == 0 or k in inside for k, e in enumerate(exps)):
                out[tuple(exps[k] for k in positions)] = c
        return out

    def __repr__(self):
        return "PPFunction(degree=%d on %r)" % (self.degree, self.complex)


def _ray_multisets(complex, d):
    """Degree-d multisets of rays supported in a common cone, sorted."""
    out = set()
    for cone in complex.cones:
        for combo in itertools.combinations_with_replacement(sorted(cone), d):
            out.add(combo)
    return sorted(out)


def _matched_faces(complex):
    """(i, face, j, image) for every face on which maximal cones must agree.

    First each face shared by cones i < j, in `combinations` order, with
    image the same face; then, per gluing and per cone i, the rays of cone
    i that the gluing moves and their images, j the first cone holding
    the images.  The degree-0 `pp_space` basis follows this order.
    """
    cones = complex.cones
    raysets = [set(cone) for cone in cones]
    for i, j in itertools.combinations(range(len(cones)), 2):
        shared = [r for r in cones[i] if r in raysets[j]]
        if shared:
            yield i, shared, j, shared
    for ray_map in complex._ray_maps:
        for i, cone in enumerate(cones):
            face = [r for r in cone if r in ray_map]
            if face:
                image = [ray_map[r] for r in face]
                j = next(j for j, rays in enumerate(raysets) if rays.issuperset(image))
                yield i, face, j, image


def pp_space(complex, d):
    """Basis of the degree-d piecewise polynomials, one per component.

    Face agreement makes the coefficient of a monomial depend only on
    the multiset of rays it involves, and each gluing condition equates
    the coefficients of a multiset and of its image.  So the solutions
    are the functions constant on the classes of multisets that gluings
    join (found by union-find), and the basis has one function per
    class, coefficient one on its members.  The classes are ordered by
    their largest member in the sorted list of multisets, the free
    column of the reduced gluing system, so the basis is the one its
    exact nullspace gives.  In degree 0 the classes are the connected
    components of the complex, ordered by their union-find roots.  A
    basis function makes a dict only on a cone where it has a monomial
    and holds `_ZERO_POLY` on every other cone.
    """
    if d < 0:
        raise DomainError("degree must be nonnegative")
    cones = complex.cones
    if d == 0:
        pairs = ((i, j) for i, _, j, _ in _matched_faces(complex))
        labels = union_find(len(cones), pairs)
        roots = sorted(set(labels))
    else:
        labels = _gluing_classes(complex, _ray_multisets(complex, d))
        largest = {root: k for k, root in enumerate(labels.values())}
        roots = sorted(largest, key=largest.get)
    position = {root: p for p, root in enumerate(roots)}
    polys = [[_ZERO_POLY] * len(cones) for _ in roots]
    for i, monomials in enumerate(_monomials(cones, d)):
        for multiset, exps in monomials:
            label = labels[multiset] if d else labels[i]
            row = polys[position[label]]
            poly = row[i]
            if poly is _ZERO_POLY:
                poly = row[i] = {}
            poly[exps] = ONE
    return [PPFunction._unchecked(complex, d, p) for p in polys]


def _monomials(cones, d):
    """Per cone, its degree-d ray multisets paired with their exponent
    tuples, in `combinations_with_replacement` order.  The exponent tuples
    are read from one table per cone size, made once per call."""
    tables = {}
    for cone in cones:
        exponents = tables.get(len(cone))
        if exponents is None:
            exponents = tables[len(cone)] = [
                tuple(map(combo.count, range(len(cone))))
                for combo in itertools.combinations_with_replacement(range(len(cone)), d)
            ]
        yield zip(itertools.combinations_with_replacement(cone, d), exponents)


def pullback_pp(sub_map, f):
    """Restrict a piecewise polynomial along a subdivision map.

    Fine cone i gets the polynomial of its coarse cone with coarse
    coordinate k replaced by sub_map.forms[i][k] / sub_map.scales[i].  The
    substitutions of all the fine cones share one memo (see _substitute),
    made for this call and dropped when it returns: the fine cones of a
    barycentric subdivision use a few linear forms in permuted roles, so
    each product of their powers is expanded once per call, not once per
    cone, and equal output coefficients are one rational.  A fine cone in
    a coarse cone where f vanishes gets `_ZERO_POLY` with no substitution.
    """
    if f.complex != sub_map.target:
        raise DomainError("function does not live on the coarse complex")
    # f passed the checks of PPFunction, and substituting linear forms
    # keeps its polynomials homogeneous of the same degree, and nonzero:
    # the forms of a fine cone are independent
    memo = {}
    polys = [
        _ZERO_POLY
        if f.polys[j] is _ZERO_POLY
        else _substitute(f.polys[j], forms, scale, memo)
        for j, forms, scale in zip(sub_map.cone_targets, sub_map.forms, sub_map.scales)
    ]
    return PPFunction._unchecked(sub_map.source, f.degree, polys)


def _multiset_coefficients(f):
    """{sorted ray multiset: coefficient} over the degree-d multisets of
    every cone (zero for an absent monomial), or None if two cones holding
    one multiset give it different coefficients."""
    values = {}
    for poly, monomials in zip(f.polys, _monomials(f.complex.cones, f.degree)):
        for multiset, exps in monomials:
            c = poly.get(exps, ZERO)
            if values.setdefault(multiset, c) != c:
                return None
    return values


def _multiset_vector(f, multisets):
    """Coefficients of a compatible f at the given sorted ray multisets.

    They are read from the nonzero monomials of f alone: the monomial
    with exponents e on the (sorted) rays r of a cone is the multiset
    holding r_k e_k times.  Compatibility, which this does not check, makes
    every cone holding a multiset give it the same coefficient."""
    values = {}
    for cone, poly in zip(f.complex.cones, f.polys):
        for exps, c in poly.items():
            values[tuple(r for r, e in zip(cone, exps) for _ in range(e))] = c
    return [values.get(m, ZERO) for m in multisets]


def generated_by_degree_one(complex, d):
    """Do products of degree-1 piecewise polynomials span degree d?

    Products of compatible functions are compatible, so each product is
    read as its vector of multiset coefficients without a check."""
    if d < 2:
        raise DomainError("the question starts at degree 2")
    target = len(pp_space(complex, d))
    if target == 0:
        return True
    ones = pp_space(complex, 1)
    multisets = _ray_multisets(complex, d)
    vectors = []
    for combo in itertools.combinations_with_replacement(ones, d):
        product = combo[0]
        for f in combo[1:]:
            product = product * f
        vectors.append(_multiset_vector(product, multisets))
    if not vectors:
        return False
    return rank_of_rows(vectors, len(multisets)) == target


# ---------------------------------------------------------------------------
# the explosion identity


def _elementary_symmetric(functions, k):
    total = None
    for combo in itertools.combinations(functions, k):
        product = combo[0]
        for f in combo[1:]:
            product = product * f
        total = product if total is None else total + product
    return total


def explosion_chern_identity(s, k):
    """Check sigma_k of the exceptional-divisor ladder against sigma_k(x).

    On the barycentric subdivision of R^s_{>=0} the maximal cones are
    flags; ordering each cone's rays by support size, the ladder
    function l_j is the sum of the flag coordinates from step j+1 on.
    Restricted to a flag cone, l_j is the lattice coordinate added at
    step j+1, so the l_j realize the coordinates up to the flag's
    permutation.  The check is that each l_j glues to a genuine
    piecewise linear function and that the symmetric combination
    sigma_k(l_0, ..., l_{s-1}) is the global polynomial
    sigma_k(x_1, ..., x_s).
    """
    if not 1 <= k <= s <= 5:
        raise DomainError("supported range is 1 <= k <= s <= 5")
    fine, _ = barycentric(simplex_cone_complex(s))
    ladder = []
    orders = []
    for cone in fine.cones:
        orders.append(
            sorted(range(s), key=lambda i: sum(1 for x in cone[i] if x))
        )
    for j in range(s):
        polys = []
        for cone, order in zip(fine.cones, orders):
            poly = {}
            for position in order[j:]:
                exps = tuple(1 if t == position else 0 for t in range(s))
                poly[exps] = ONE
            polys.append(poly)
        f = PPFunction(fine, 1, polys)
        if not f.is_compatible():
            return False
        ladder.append(f)
    lhs = _elementary_symmetric(ladder, k)
    sigma = {}
    for combo in itertools.combinations(range(s), k):
        exps = tuple(1 if i in combo else 0 for i in range(s))
        sigma[exps] = ONE
    rhs = PPFunction.from_global(fine, sigma, k)
    return lhs == rhs
