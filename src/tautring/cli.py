"""Command-line interface.

Every command prints deterministic JSON (or, for theta-genus2, a fixed
text report) with a versioned header; identical inputs give identical
bytes.  Rational numbers are always rendered as "p/q" strings.  Exit
codes: 0 on success, 2 for domain errors (bad input, unstable spaces,
uncertified regimes), for a request too large for memory and for a closed
stdout, 3 for internal consistency failures.

`run()` is the process entry point (`python -m tautring.cli` and the
`tautring` console script); `main()` is the plain function behind it, for
tests and library callers.  `run()` turns the cyclic garbage collector off
and ends the process with `os._exit` once stdout and stderr are flushed.
The memo caches hold only acyclic tuples, dicts and value objects, so a
command leaves no cyclic garbage but its argument parser, and the
collector's passes over the growing caches are wasted; interpreter
teardown would free every cache entry one object at a time just before
the process ends.  Skipping both relies on three conditions: no `atexit`
handlers, no threads, and no open files other than stdout and stderr when
`main()` returns.  Output that has to appear at exit, such as a trace
line, must be written inside `main()` or `run()` before `os._exit`.
"""

import argparse
import gc
import json
import os
import sys

from . import cone_complex as cc
from .errors import ConsistencyError, DomainError
from .membership import div_membership, pairing_vector, theta_solve
from .pixton import (
    dr_cycle,
    lambda_top,
    pixton_class,
    reference_lambda_expansion,
)
from .rationals import QQ, format_rat
from .stable_graphs import enumerate_stable_graphs, separating_edges

VERSION = "0.1.0"


def _emit(payload):
    payload = {"tool": "tautring", "version": VERSION, **payload}
    print(json.dumps(payload, sort_keys=True))


def _parse_weights(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError("weights must be a comma-separated integer list")


def _parse_int(text, what):
    try:
        return int(text)
    except ValueError:
        raise DomainError("%s must be an integer, got %r" % (what, text))


def _cmd_graphs(args):
    graphs = enumerate_stable_graphs(args.g, args.n)
    _emit(
        {
            "command": "graphs",
            "g": args.g,
            "n": args.n,
            "count": len(graphs),
            "graphs": [graph.to_json_dict() for graph in graphs],
        }
    )


def _cmd_dr(args):
    weights = _parse_weights(args.weights)
    degree = args.degree
    if degree is None:
        cls = dr_cycle(args.g, weights)
        degree = args.g
    else:
        cls = QQ(1, 2**args.g) * pixton_class(args.g, weights, degree)
    _emit(
        {
            "command": "dr",
            "g": args.g,
            "weights": list(weights),
            "degree": degree,
            "class": cls.to_json_dict(),
        }
    )


def _cmd_lambda(args):
    cls = lambda_top(args.g, args.n)
    payload = {
        "command": "lambda",
        "g": args.g,
        "n": args.n,
        "class": cls.to_json_dict(),
    }
    if args.check_separating:
        offenders = sum(
            1 for (graph, _dec) in cls.terms if separating_edges(graph)
        )
        payload["separating_check"] = {
            "graphs_with_separating_edge": offenders,
            "all_nonseparating": offenders == 0,
        }
    if args.pair:
        reference = reference_lambda_expansion(args.g, args.n)
        difference = cls - reference
        vector = pairing_vector(difference)
        payload["pairing_check"] = {
            "matches_reference": all(not x for x in vector),
            "difference_pairing": [format_rat(x) for x in vector],
        }
    _emit(payload)


def _cmd_div_membership(args):
    if args.cls != "lambda":
        raise DomainError("only --class lambda is available")
    if args.d != args.g:
        raise DomainError("lambda_g has degree g; ask for degree %d" % args.g)
    if args.g > 3 and not args.unverified_extended:
        raise DomainError(
            "perfect pairing is only known here for g <= 3; "
            "pass --unverified-extended for lower-bound analysis"
        )
    cls = lambda_top(args.g, args.n)
    report = div_membership(
        cls,
        max_gen_degree=args.max_gen_degree,
        unverified_extended=args.unverified_extended,
    )
    _emit(
        {
            "command": "div-membership",
            "g": args.g,
            "n": args.n,
            "degree": args.d,
            "max_gen_degree": args.max_gen_degree,
            "member": report.in_span,
            "certified": report.certified,
            "rank": report.rank,
            "rank_with_class": report.rank_with_class,
            "ambient": report.ambient_rank,
            "verdict": report.verdict,
        }
    )


def _cmd_theta(args):
    report = theta_solve()
    particular = [format_rat(x) for x in report.solutions.particular]
    basis = [[format_rat(x) for x in vec] for vec in report.solutions.basis]
    if args.json:
        _emit(
            {
                "command": "theta-genus2",
                "unknowns": ["x", "y", "z"],
                "particular": particular,
                "basis": basis,
                "solution_dimension": report.solutions.dim,
                "x_nonneg_z_nonpos_feasible": report.sign_constrained_feasible,
            }
        )
        return
    print("tautring %s theta-genus2" % VERSION)
    print("2*lambda_2 = x*D0^2 + y*[double loop] + z*[loop plus edge]")
    print(
        "solution set: dimension %d, (x, y, z) = (%s) + t*(%s)"
        % (
            report.solutions.dim,
            ", ".join(particular),
            ", ".join(", ".join(vec) for vec in basis) or "0",
        )
    )
    verdict = "feasible" if report.sign_constrained_feasible else "infeasible"
    print("x >= 0 and z <= 0: %s" % verdict)


def _load_complex(source):
    fixtures = {
        "triangle-z3": cc.triangle_z3_complex,
        "simplex1": lambda: cc.simplex_cone_complex(1),
        "simplex2": lambda: cc.simplex_cone_complex(2),
        "simplex3": lambda: cc.simplex_cone_complex(3),
        "simplex4": lambda: cc.simplex_cone_complex(4),
        "simplex5": lambda: cc.simplex_cone_complex(5),
    }
    if source in fixtures:
        return fixtures[source]()
    if os.path.exists(source):
        try:
            with open(source, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError("cannot read %r: %s" % (source, exc)) from None
        return cc.ConeComplex.from_json(text)
    raise DomainError(
        "unknown fixture %r (use simplex1..simplex5, triangle-z3, or a file)"
        % source
    )


def _serialize_pp(function):
    out = []
    for poly in function.polys:
        out.append(
            [[list(exps), format_rat(c)] for exps, c in sorted(poly.items())]
        )
    return out


def _cmd_cone(args):
    complex = _load_complex(args.complex)
    name, *rest = args.op or ["faces"]
    if name in ("faces", "barycentric") and rest:
        raise DomainError("%s takes no argument" % name)
    if name == "faces":
        _emit(
            {
                "command": "cone",
                "operation": "faces",
                "complex": complex.to_json_dict(),
                "maximal_cones": len(complex.cones),
            }
        )
    elif name == "barycentric":
        fine, _ = cc.barycentric(complex)
        _emit(
            {
                "command": "cone",
                "operation": "barycentric",
                "complex": fine.to_json_dict(),
                "maximal_cones": len(fine.cones),
            }
        )
    elif name == "star":
        if len(rest) != 1:
            raise DomainError("star needs a cone id")
        faces = complex.all_faces()
        index = _parse_int(rest[0], "cone id")
        if not 0 <= index < len(faces):
            raise DomainError("cone id out of range (0..%d)" % (len(faces) - 1))
        fine, _ = cc.star_subdivision(complex, faces[index])
        _emit(
            {
                "command": "cone",
                "operation": "star",
                "cone_id": index,
                "complex": fine.to_json_dict(),
                "maximal_cones": len(fine.cones),
            }
        )
    elif name == "pp":
        if len(rest) != 1:
            raise DomainError("pp needs a degree")
        degree = _parse_int(rest[0], "degree")
        basis = cc.pp_space(complex, degree)
        _emit(
            {
                "command": "cone",
                "operation": "pp",
                "degree": degree,
                "dimension": len(basis),
                "basis": [_serialize_pp(f) for f in basis],
            }
        )
    elif name == "gen1":
        if len(rest) != 1:
            raise DomainError("gen1 needs a degree")
        degree = _parse_int(rest[0], "degree")
        _emit(
            {
                "command": "cone",
                "operation": "gen1",
                "degree": degree,
                "generated": cc.generated_by_degree_one(complex, degree),
            }
        )
    elif name == "explosion":
        if len(rest) != 2:
            raise DomainError("explosion needs s and k")
        s, k = _parse_int(rest[0], "s"), _parse_int(rest[1], "k")
        _emit(
            {
                "command": "cone",
                "operation": "explosion",
                "s": s,
                "k": k,
                "holds": cc.explosion_chern_identity(s, k),
            }
        )
    else:
        raise DomainError("unknown cone operation %r" % name)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tautring",
        description="Exact computations in tautological rings and cone complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graphs", help="enumerate stable graphs")
    p.add_argument("g", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_graphs)

    p = sub.add_parser("dr", help="double ramification cycle")
    p.add_argument("g", type=int)
    p.add_argument("--weights", required=True)
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(func=_cmd_dr)

    p = sub.add_parser("lambda", help="lambda_g as decorated strata")
    p.add_argument("g", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--check-separating", action="store_true")
    p.add_argument("--pair", action="store_true")
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("div-membership", help="membership in the divisor subring")
    p.add_argument("g", type=int)
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--class", dest="cls", default="lambda")
    p.add_argument("--max-gen-degree", type=int, default=1)
    p.add_argument("--unverified-extended", action="store_true")
    p.set_defaults(func=_cmd_div_membership)

    p = sub.add_parser("theta-genus2", help="the genus-2 boundary system")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("cone", help="cone-complex toolkit")
    p.add_argument("complex", help="fixture name or JSON file")
    p.add_argument(
        "op",
        nargs="*",
        help=(
            "faces | barycentric | star ID | pp D | gen1 D | explosion S K; "
            "explosion validates COMPLEX but always works on barycentric(R^S_{>=0})"
        ),
    )
    p.set_defaults(func=_cmd_cone)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except DomainError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print("consistency failure: %s" % exc, file=sys.stderr)
        return 3
    return 0


def run():
    """Run `main()` as a whole process and end it with its exit code.

    Usage errors and `--help` keep argparse's codes (2 and 0).  A closed
    stdout, met while writing or flushing, prints one `error: stdout
    closed` line and exits 2.  Never returns.
    """
    gc.disable()
    try:
        try:
            code = main()
        except SystemExit as exc:
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError:
        print("error: stdout closed", file=sys.stderr)
        code = 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
