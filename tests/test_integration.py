"""Psi and kappa integrals: the DVV recursion and both kappa conversions."""

import itertools
import os
import subprocess
import sys
from math import factorial

import pytest

import tautring
from dvv_oracle import oracle_psi_integral
from tautring.errors import DomainError
from tautring.integration import (
    integrate,
    kappa_to_psi,
    psi_integral,
    term_integral,
    vertex_integral,
)
from tautring.rationals import QQ
from tautring.stable_graphs import StableGraph, smooth_graph
from tautring.taut_classes import (
    class_of_graph,
    decoration,
    dim_moduli,
    fundamental_class,
    kappa_class,
    psi_class,
    trivial_decoration,
)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _valid_exponent_pool(max_g=2, max_n=4):
    """All (g, exponents) with the dimension-correct total, small range."""
    pool = []
    for g in range(max_g + 1):
        for n in range(1, max_n + 1):
            if 2 * g - 2 + n <= 0:
                continue
            total = dim_moduli(g, n)
            for exps in _compositions(total, n):
                pool.append((g, exps))
    return pool


POOL = _valid_exponent_pool()


@pytest.mark.parametrize(
    "g, exps, value",
    [
        (0, (0, 0, 0), 1),
        (0, (0, 0, 0, 1, 1), 2),
        (1, (1,), QQ(1, 24)),
        (1, (0, 2), QQ(1, 24)),
        (2, (4,), QQ(1, 1152)),
        (2, (2, 2, 2), QQ(7, 240)),
        (3, (7,), QQ(1, 82944)),
    ],
)
def test_dvv_anchors(g, exps, value):
    assert psi_integral(g, exps) == value


def test_genus0_closed_form():
    """<tau_{k_1}...tau_{k_n}>_0 = (n-3)! / prod(k_i!) when sum(k_i)=n-3."""
    for n in range(3, 10):
        for exps in _compositions(n - 3, n):
            expected = QQ(factorial(n - 3))
            for k in exps:
                expected /= factorial(k)
            assert psi_integral(0, exps) == expected


def test_string_equation():
    for g, exps in POOL:
        lifted = exps + (0,)
        if sum(lifted) != dim_moduli(g, len(lifted)):
            continue
        rhs = sum(
            (
                psi_integral(g, exps[:j] + (exps[j] - 1,) + exps[j + 1:])
                for j in range(len(exps))
                if exps[j] >= 1
            ),
            QQ(0),
        )
        assert psi_integral(g, lifted) == rhs


def test_dilaton_equation():
    for g, exps in POOL:
        n = len(exps)
        lifted = exps + (1,)
        if sum(lifted) != dim_moduli(g, n + 1):
            continue
        assert psi_integral(g, lifted) == (2 * g - 2 + n) * psi_integral(g, exps)


def test_degenerate_inputs_integrate_to_zero():
    assert psi_integral(1, (2,)) == 0  # wrong total degree
    assert psi_integral(0, (0, 0)) == 0  # unstable space
    assert psi_integral(-1, (0,)) == 0
    assert psi_integral(2, (-1, 4)) == 0


def test_symmetry():
    for perm in itertools.permutations((0, 1, 2, 3)):
        assert psi_integral(0, perm) == psi_integral(0, (0, 1, 2, 3))


@pytest.mark.parametrize(
    "g, n, kappas, value",
    [
        (1, 1, (1,), QQ(1, 24)),
        (1, 2, (1, 1), QQ(1, 8)),
        (2, 0, (1, 1, 1), QQ(43, 2880)),
        (0, 5, (1, 1), 5),
        (0, 6, (1, 1, 1), 61),
    ],
)
def test_kappa_anchors(g, n, kappas, value):
    assert vertex_integral(g, (0,) * n, kappas) == value


def test_kappa_routes_agree():
    """Subset absorption and set-partition expansion give the same numbers."""
    cases = [
        (1, 1, (1,)),
        (1, 2, (2,)),
        (1, 2, (1, 1)),
        (2, 0, (3,)),
        (2, 0, (1, 2)),
        (2, 0, (1, 1, 1)),
        (2, 1, (4,)),
        (2, 1, (2, 2)),
        (2, 1, (1, 1, 2)),
        (2, 1, (1, 1, 1, 1)),
        (0, 5, (2,)),
        (0, 6, (1, 2)),
        (0, 6, (3,)),
    ]
    for g, n, kappas in cases:
        graph = smooth_graph(g, n)
        cls = class_of_graph(graph, decoration(graph, kappa={0: kappas}))
        direct = vertex_integral(g, (0,) * n, kappas)
        converted = kappa_to_psi(cls)
        assert converted.virtual
        assert integrate(converted) == direct == integrate(cls)


def test_kappa_route_with_psi_factors():
    graph = smooth_graph(1, 2)
    dec = decoration(graph, psi={1: 1}, kappa={0: (1,)})
    cls = class_of_graph(graph, dec)
    assert integrate(kappa_to_psi(cls)) == integrate(cls)
    assert integrate(cls) == vertex_integral(1, (1, 0), (1,))


def test_a_virtual_class_never_equals_a_plain_one():
    """The two live in different ambient groups, as `+` and `-` say."""
    plain = psi_class(1, 1, 1)
    virtual = kappa_to_psi(plain)
    assert virtual.terms == plain.terms
    assert virtual != plain and plain != virtual
    assert virtual == kappa_to_psi(psi_class(1, 1, 1))
    with pytest.raises(DomainError):
        virtual - plain


def test_pushforward_integration_convention():
    """A boundary term integrates as the product of its vertex integrals,
    with no automorphism factor."""
    loop11 = StableGraph((0,), ((1,),), (((0, 0), (0, 1)),))
    assert integrate(class_of_graph(loop11)) == 1  # <tau_0^3>_0
    theta = StableGraph(
        (0, 0), ((), ()), (((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2)))
    )
    assert term_integral(theta, trivial_decoration(theta)) == 1
    # vertices of the wrong dimension kill the term
    bridge = StableGraph((1, 1), ((), ()), (((0, 0), (1, 0)),))
    dec = decoration(bridge, psi={(0, 0): 2})
    assert term_integral(bridge, dec) == 0


def test_integrate_checks_degree():
    with pytest.raises(DomainError):
        integrate(kappa_class(2, 0, 1))
    with pytest.raises(DomainError):
        integrate(fundamental_class(1, 1))


def test_correlator_cache_files_are_ignored(tmp_path):
    """A correlators.txt under TAUTRING_CACHE_DIR changes nothing: neither a
    poisoned record nor a malformed line is read."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tautring.__file__)))
    probe = [
        sys.executable,
        "-c",
        "import sys\n"
        "from tautring.cli import main\n"
        "from tautring.integration import psi_integral\n"
        "code = main(['theta-genus2', '--json'])\n"
        "print(psi_integral(2, (4,)))\n"
        "sys.exit(code)\n",
    ]

    def run(cache_dir):
        env = {k: v for k, v in os.environ.items() if k != "TAUTRING_CACHE_DIR"}
        env["PYTHONPATH"] = src
        if cache_dir is not None:
            env["TAUTRING_CACHE_DIR"] = str(cache_dir)
        return subprocess.run(probe, env=env, capture_output=True, text=True)

    clean = run(None)
    assert clean.returncode == 0, clean.stderr
    assert clean.stdout.splitlines()[-1] == "1/1152"
    for name, record in (("poisoned", "1;1;1/2\n2;4;1/2\n"), ("malformed", "1;1\n")):
        cache_dir = tmp_path / name
        cache_dir.mkdir()
        (cache_dir / "correlators.txt").write_text(record)
        result = run(cache_dir)
        assert (result.returncode, result.stdout) == (0, clean.stdout), result.stderr


def test_matches_the_full_dvv_oracle():
    """Every correlator with g <= 4, n <= 5 equals the plain DVV recursion."""
    for g in range(5):
        for n in range(6):
            if 2 * g - 2 + n <= 0:
                continue
            for exps in _compositions(dim_moduli(g, n), n) if n else [()]:
                if list(exps) == sorted(exps):
                    assert psi_integral(g, exps) == oracle_psi_integral(g, exps)


@pytest.mark.parametrize("g", range(1, 9))
def test_one_point_closed_form(g):
    """<tau_{3g-2}>_g = 1/(24^g g!)."""
    assert psi_integral(g, (3 * g - 2,)) == QQ(1, 24**g * factorial(g))


def test_genus1_dilaton_closed_form():
    """<tau_1^n>_1 = (n-1)!/24."""
    for n in range(1, 9):
        assert psi_integral(1, (1,) * n) == QQ(factorial(n - 1), 24)
