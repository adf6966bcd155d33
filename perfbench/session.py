"""The `session` workload: one long-lived library process.

    python3 perfbench/session.py --seed 1 [--size tiny] [--trace OUT.json]

Runs three steps in order and prints one JSON line:
  1. every psi correlator of the sweep, cold and in seeded order, then a
     seeded subset again, warm;
  2. the integrals of every top-degree generator of a few spaces, by
     both kappa routes (`integrate` and `kappa_to_psi`);
  3. the barycentric subdivision of R^r_{>=0} glued by a seeded r-cycle
     of the coordinates, its `pp_space` in each degree, and the pullbacks
     of the coarse `pp_space`.
Unless tracing, the steps are cut into pieces of seconds with the
reference computation (`reference.py`) run before, between and after
them, so that the caller can express the session's time in reference
units.  The line holds the timeline of pieces and references (wall and
CPU s each), the monotonic clock and CPU time when it began and max RSS,
so the caller can time the work without the checks that follow, one
verdict per step, and a digest of every computed value.
"""

import argparse
import hashlib
import itertools
import json
import math
import random
import resource
import sys
import time
from fractions import Fraction

import reference
import spans
import tautring as tr
from tautring import cone_complex as cc
from tautring.taut_classes import dim_moduli

PIECE_S = 1.0  # the cold sweep is cut into pieces of about this many seconds

SIZES = {
    "full": {
        "max_g": 5,
        "max_n": 6,
        "warm": 200,
        "kappa_spaces": [(1, 3), (2, 1), (2, 2), (3, 0), (0, 6)],
        "rank": 5,
        "degrees": (1, 2, 3),
    },
    "tiny": {
        "max_g": 2,
        "max_n": 4,
        "warm": 20,
        "kappa_spaces": [(1, 2), (2, 0)],
        "rank": 3,
        "degrees": (1, 2),
    },
}


def _partitions(total, parts, largest):
    """Nonincreasing tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, largest), -1, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def correlator_keys(max_g, max_n):
    keys = []
    for g in range(max_g + 1):
        for n in range(max_n + 1):
            if 2 * g - 2 + n > 0:
                dim = dim_moduli(g, n)
                keys += [(g, p[::-1]) for p in _partitions(dim, n, dim)]
    return keys


def seeded_cycle(rng, r):
    """A uniformly chosen r-cycle on range(r): every one has the same orbits."""
    order = [0] + rng.sample(range(1, r), r - 1)
    sigma = [0] * r
    for i in range(r):
        sigma[order[i]] = order[(i + 1) % r]
    return sigma


def glued_orthant(sigma):
    r = len(sigma)
    basis = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    image = [basis[sigma[i]] for i in range(r)]
    return cc.ConeComplex(r, [tuple(basis)], [(tuple(basis), tuple(image))])


class Timeline:
    """Wall and CPU s of the pieces of work, with a run of the reference
    computation before the first piece and after each one when asked."""

    def __init__(self, with_reference):
        self.with_reference = with_reference
        self.began = (time.monotonic(), time.process_time())
        self.items = []
        self._reference()

    def _reference(self):
        if self.with_reference:
            self.items.append(["ref", *reference.measure()])
        self.mark = (time.monotonic(), time.process_time())

    def elapsed(self):
        return time.monotonic() - self.mark[0]

    def cut(self):
        """End the current piece of work."""
        wall, cpu = self.mark
        self.items.append(["work", time.monotonic() - wall, time.process_time() - cpu])
        self._reference()


def run_steps(rng, size, timeline):
    keys = correlator_keys(size["max_g"], size["max_n"])
    rng.shuffle(keys)
    warm_keys = rng.sample(keys, size["warm"])
    sigma = seeded_cycle(rng, size["rank"])

    with spans.span("session.psi"):
        cold = {}
        for key in keys:
            cold[key] = tr.psi_integral(*key)
            if timeline.elapsed() >= PIECE_S:
                timeline.cut()
        warm = {key: tr.psi_integral(*key) for key in warm_keys}
        timeline.cut()
    with spans.span("session.kappa"):
        routes = []
        for g, n in size["kappa_spaces"]:
            for cls in tr.generators(g, n, dim_moduli(g, n)):
                routes.append((tr.integrate(cls), tr.integrate(tr.kappa_to_psi(cls))))
        timeline.cut()
    with spans.span("session.cones"):
        coarse = glued_orthant(sigma)
        fine, sub_map = cc.barycentric(coarse)
        fine_bases, pullbacks = [], []
        for d in size["degrees"]:
            fine_bases.append(cc.pp_space(fine, d))
            pullbacks.append([cc.pullback_pp(sub_map, f) for f in cc.pp_space(coarse, d)])
            timeline.cut()
    return {
        "keys": keys,
        "cold": cold,
        "warm": warm,
        "routes": routes,
        "sigma": sigma,
        "fine_bases": fine_bases,
        "pullbacks": pullbacks,
    }


# ---------------------------------------------------------------------------
# checks against facts that do not come from the code under test


def check_correlators(cold, warm, max_g):
    """<tau_{3g-2}>_g = 1/(24^g g!), the string and dilaton equations, and
    warm queries agreeing with cold ones."""
    bad = []
    for g in range(1, max_g + 1):
        if cold[(g, (3 * g - 2,))] != Fraction(1, 24**g * math.factorial(g)):
            bad.append("<tau_%d>_%d" % (3 * g - 2, g))
    for (g, exps), value in cold.items():
        rest = list(exps)
        if 0 in rest:
            rest.remove(0)
            if 2 * g - 2 + len(rest) > 0:
                want = sum(
                    cold[(g, tuple(sorted(rest[:j] + [d - 1] + rest[j + 1:])))]
                    for j, d in enumerate(rest)
                    if d > 0
                )
                if value != want:
                    bad.append("string %r" % ((g, exps),))
        rest = list(exps)
        if 1 in rest:
            rest.remove(1)
            if 2 * g - 2 + len(rest) > 0:
                if value != (2 * g - 2 + len(rest)) * cold[(g, tuple(rest))]:
                    bad.append("dilaton %r" % ((g, exps),))
    bad += ["warm %r" % (key,) for key, value in warm.items() if value != cold[key]]
    return bad


def compatible(f, sigma):
    """Whether f agrees on shared faces and is invariant under the gluing.

    Checked on ray multisets: every cone holding a multiset's rays gives
    its monomial the same coefficient, and the gluing (the coordinate
    permutation sigma) maps each multiset to one with that coefficient.
    """
    coefficient = {}
    for cone, poly in zip(f.complex.cones, f.polys):
        for combo in itertools.combinations_with_replacement(range(len(cone)), f.degree):
            exps = tuple(combo.count(i) for i in range(len(cone)))
            rays = tuple(sorted(cone[i] for i in combo))
            value = poly.get(exps, 0)
            if coefficient.setdefault(rays, value) != value:
                return False

    def image(ray):
        out = [0] * len(ray)
        for i, x in enumerate(ray):
            out[sigma[i]] = x
        return tuple(out)

    return all(
        coefficient.get(tuple(sorted(map(image, rays)))) == value
        for rays, value in coefficient.items()
    )


def check(result, size):
    bad_psi = check_correlators(result["cold"], result["warm"], size["max_g"])
    bad_kappa = sum(a != b for a, b in result["routes"])
    sigma = result["sigma"]
    functions = [f for basis in result["fine_bases"] + result["pullbacks"] for f in basis]
    bad_pp = sum(not compatible(f, sigma) for f in functions)
    return [
        {"step": "psi", "ok": not bad_psi, "detail": bad_psi[:5]},
        {"step": "kappa", "ok": bad_kappa == 0, "detail": "%d route mismatches" % bad_kappa},
        {"step": "cones", "ok": bad_pp == 0, "detail": "%d incompatible functions" % bad_pp},
    ]


def digest(result):
    """sha256 of every computed value, for comparing traced and untraced runs."""
    h = hashlib.sha256()
    for key in result["keys"]:
        h.update(("%r=%s;" % (key, result["cold"][key])).encode())
    for key, value in result["warm"].items():
        h.update(("%r=%s;" % (key, value)).encode())
    for a, b in result["routes"]:
        h.update(("%s,%s;" % (a, b)).encode())
    for basis in result["fine_bases"] + result["pullbacks"]:
        for f in basis:
            h.update(repr([sorted(p.items()) for p in f.polys]).encode())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--trace", default=None, help="write spans to this file")
    args = parser.parse_args()
    size = SIZES[args.size]
    if args.trace:
        spans.install()
    timeline = Timeline(with_reference=not args.trace)
    result = run_steps(random.Random(args.seed), size, timeline)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if args.trace:
        spans.dump(args.trace)
    steps = check(result, size)
    print(
        json.dumps(
            {
                "began": timeline.began,
                "timeline": timeline.items,
                "maxrss_kb": usage.ru_maxrss,
                "steps": steps,
                "sigma": result["sigma"],
                "pp_dims": [len(b) for b in result["fine_bases"]],
                "digest": digest(result),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
