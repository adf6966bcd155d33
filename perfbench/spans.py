"""Span tracing for the benchmark, installed from outside the program.

`install()` replaces the public functions of each tautring module (and
the methods of `QMatrix`) with wrappers that record one span per call:
(id, name, start, end, parent, thread, info).  The parent is the
innermost open span of the same thread, so a span started in a pool
thread is a root of that thread and self time stays per thread.  `info`
holds a work counter taken from the arguments or the result.  Spans are
kept in memory and written by `dump()` when the traced process exits.

Run a CLI command under tracing with

    python3 perfbench/spans.py OUT.json -- graphs 2 3

which writes the spans to OUT.json and leaves stdout byte-identical.
"""

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

SPANS = []
_ids = itertools.count(1)
_local = threading.local()


def _stack():
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _record(name, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        parent = stack[-1] if stack else None
        sid = next(_ids)
        info = before(*args, **kwargs) if before else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        if after:
            info = after(result, info)
        SPANS.append((sid, name, start, end, parent, threading.get_ident(), info))
        return result

    return wrapper


class span:
    """A span around a block of the benchmark's own code."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        stack = _stack()
        self.parent = stack[-1] if stack else None
        self.sid = next(_ids)
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        _stack().pop()
        SPANS.append(
            (self.sid, self.name, self.start, end, self.parent, threading.get_ident(), None)
        )
        return False


def _layers():
    """(owner, attribute, span name, before, after) for every traced call."""
    from tautring import (
        cli,
        cone_complex,
        exact_linalg,
        integration,
        membership,
        pixton,
        product,
        stable_graphs,
        taut_classes,
    )

    def enum_key(g, n):
        return [g, n, (g, n) in stable_graphs._ENUM_CACHE]

    def psi_warm(g, exponents):
        key = (g, tuple(sorted(int(d) for d in exponents)))
        return key in integration._CORRELATORS

    def cells(matrix, *args):
        rows, cols = matrix.shape
        return rows * cols

    def term_pairs(a, b):
        return len(a.terms) * len(b.terms)

    def length(result, info):
        return len(result)

    def n_terms(result, info):
        return len(result.terms)

    def keep(result, info):
        return info

    QMatrix = exact_linalg.QMatrix
    return [
        (cli, "main", "cli.main", None, None),
        (cli, "_emit", "cli.emit", None, None),
        (stable_graphs, "enumerate_stable_graphs", "stable_graphs.enumerate", enum_key, keep),
        (stable_graphs, "canonical_form_with_map", "stable_graphs.canonical_form", None, None),
        (stable_graphs, "automorphism_count", "stable_graphs.automorphism_count", None, None),
        (stable_graphs, "degeneration_base_pairs", "stable_graphs.degeneration_pairs", None, length),
        (taut_classes, "generators", "taut_classes.generators", None, length),
        (taut_classes, "canonical_term", "taut_classes.canonical_term", None, None),
        (product, "multiply", "product.multiply", None, n_terms),
        (membership, "pair_integral", "membership.pair_integral", term_pairs, keep),
        (QMatrix, "rank", "exact_linalg.rank", cells, keep),
        (QMatrix, "nullspace", "exact_linalg.nullspace", cells, keep),
        (exact_linalg, "solve_affine", "exact_linalg.solve", None, None),
        (exact_linalg, "lagrange_interpolate", "exact_linalg.interpolate", None, None),
        (pixton, "pixton_r_polynomial", "pixton.r_polynomial", None, None),
        (pixton, "pixton_class_at_r", "pixton.sample", None, None),
        (pixton, "weightings_mod_r", "pixton.weightings", None, length),
        (integration, "psi_integral", "integration.psi", psi_warm, keep),
        (integration, "vertex_integral", "integration.vertex_integral", None, None),
        (integration, "term_integral", "integration.term_integral", None, None),
        (integration, "integrate", "integration.integrate", None, None),
        (cone_complex, "barycentric", "cone_complex.barycentric", None, None),
        (cone_complex, "pp_space", "cone_complex.pp_space", None, length),
        (cone_complex, "pullback_pp", "cone_complex.pullback_pp", None, None),
    ]


def install():
    """Wrap every traced function wherever a tautring module refers to it."""
    layers = _layers()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "tautring"]
    for owner, attr, name, before, after in layers:
        original = owner.__dict__[attr]
        wrapper = _record(name, original, before, after)
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def dump(path):
    with open(path, "w") as handle:
        json.dump({"pid": os.getpid(), "spans": SPANS}, handle)


LAYERS = (
    "cli",
    "stable_graphs",
    "taut_classes",
    "product",
    "membership",
    "exact_linalg",
    "pixton",
    "integration",
    "cone_complex",
)


# Counts that race in the program itself: its pool threads check and
# fill the memo caches without a lock, so a duplicate enumeration or
# canonical form depends on thread timing.  They repeat exactly only where
# no pool runs (`session`).
RACED_COUNTS = (
    "stable_graphs.enumerate_overlap",
    "stable_graphs.canonical_form_calls",
    "taut_classes.canonical_term_calls",
)


def summarize(dumps):
    """Per-layer metrics of one traced pass from its processes' span dumps.

    A `_s` metric is self time (span duration minus the child spans of the
    same thread) summed over calls; `<layer>.share` is a layer's self time
    over the self time of all spans of the pass, in every process and
    thread.  Time a thread waits for the pool or for the interpreter lock
    counts where it waits.
    """
    self_s = defaultdict(float)
    calls = defaultdict(int)
    info = defaultdict(float)
    duration = defaultdict(float)
    psi_s = [0.0, 0.0]
    overlap = 0
    for dump in dumps:
        spans = dump["spans"]
        children = defaultdict(float)
        for sid, name, start, end, parent, tid, extra in spans:
            if parent is not None:
                children[parent] += end - start
        enumerations = []
        for sid, name, start, end, parent, tid, extra in spans:
            own = end - start - children[sid]
            self_s[name] += own
            calls[name] += 1
            duration[name] += end - start
            if name == "integration.psi":
                psi_s[bool(extra)] += own
            elif name == "stable_graphs.enumerate":
                enumerations.append((start, end, extra))
            elif extra is not None:
                info[name] += extra
        # a duplicate enumeration: the result was not cached yet when the
        # call started, and another call for the same (g, n) was running
        for start, end, (g, n, cached) in enumerations:
            overlap += not cached and any(
                (g2, n2) == (g, n) and s2 < start < e2
                for s2, e2, (g2, n2, _) in enumerations
            )
    term_pairs = info["membership.pair_integral"]
    r_poly = duration["pixton.r_polynomial"]
    metrics = {
        "stable_graphs.enumerate_s": self_s["stable_graphs.enumerate"],
        "stable_graphs.enumerate_calls": calls["stable_graphs.enumerate"],
        "stable_graphs.enumerate_overlap": overlap,
        "stable_graphs.canonical_form_s": self_s["stable_graphs.canonical_form"],
        "stable_graphs.canonical_form_calls": calls["stable_graphs.canonical_form"],
        "stable_graphs.automorphism_count_s": self_s["stable_graphs.automorphism_count"],
        "stable_graphs.automorphism_count_calls": calls["stable_graphs.automorphism_count"],
        "stable_graphs.degeneration_pairs_s": self_s["stable_graphs.degeneration_pairs"],
        "stable_graphs.degeneration_records": info["stable_graphs.degeneration_pairs"],
        "taut_classes.generators_s": self_s["taut_classes.generators"],
        "taut_classes.generators_out": info["taut_classes.generators"],
        "taut_classes.canonical_term_s": self_s["taut_classes.canonical_term"],
        "taut_classes.canonical_term_calls": calls["taut_classes.canonical_term"],
        "product.multiply_s": self_s["product.multiply"],
        "product.multiply_calls": calls["product.multiply"],
        "product.terms_out": info["product.multiply"],
        "membership.pair_integral_s": self_s["membership.pair_integral"],
        "membership.pair_integral_calls": calls["membership.pair_integral"],
        "membership.term_pairs": term_pairs,
        "membership.multiply_per_term_pair": (
            calls["product.multiply"] / term_pairs if term_pairs else 0.0
        ),
        "exact_linalg.rank_s": self_s["exact_linalg.rank"],
        "exact_linalg.rank_cells": info["exact_linalg.rank"],
        "exact_linalg.nullspace_s": self_s["exact_linalg.nullspace"],
        "exact_linalg.nullspace_cells": info["exact_linalg.nullspace"],
        "exact_linalg.solve_s": self_s["exact_linalg.solve"],
        "exact_linalg.interpolate_s": self_s["exact_linalg.interpolate"],
        "exact_linalg.interpolate_calls": calls["exact_linalg.interpolate"],
        "pixton.sample_s": self_s["pixton.sample"],
        "pixton.samples": calls["pixton.sample"],
        "pixton.weightings_s": self_s["pixton.weightings"],
        "pixton.weightings": info["pixton.weightings"],
        "pixton.sample_overlap": duration["pixton.sample"] / r_poly if r_poly else 0.0,
        "integration.psi_cold_s": psi_s[False],
        "integration.psi_warm_s": psi_s[True],
        "integration.psi_calls": calls["integration.psi"],
        "integration.vertex_integral_calls": calls["integration.vertex_integral"],
        "integration.term_integral_s": self_s["integration.term_integral"],
        "integration.integrate_s": self_s["integration.integrate"],
        "cone_complex.barycentric_s": self_s["cone_complex.barycentric"],
        "cone_complex.pp_space_s": self_s["cone_complex.pp_space"],
        "cone_complex.pp_dim": info["cone_complex.pp_space"],
        "cone_complex.pullback_s": self_s["cone_complex.pullback_pp"],
        "cli.main_s": self_s["cli.main"],
        "cli.emit_s": self_s["cli.emit"],
    }
    total = sum(self_s.values())
    for layer in LAYERS:
        own = sum(t for name, t in self_s.items() if name.split(".")[0] == layer)
        metrics[layer + ".share"] = own / total
    return metrics


def _main(argv):
    out, sep, args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: spans.py OUT.json -- TAUTRING-ARGS...")
    import tautring.cli

    install()
    try:
        return tautring.cli.main(args)
    finally:
        sys.stdout.flush()
        dump(out)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
