"""Golden CLI outputs of the pairing, enumeration, DR and cone commands.

The sha256 digests of stdout were captured before the rewrites they guard:
the pairing commands before the excess-intersection kernel replaced the
product-then-integrate pairing (`div-membership 3 0 3 --max-gen-degree 2`
and `2 1 2` before the block pairing kernel replaced `product_integral`,
`div-membership 3 1 3` before one pairing matrix replaced the block kernel),
the `graphs` and `dr` commands before generation by vertex splitting
replaced the brute-force stable-graph enumerator (`lambda 4 0`,
`dr 2 --weights=2,-1,-1` and `dr 3 --weights=1,-1` before the Pixton
sampler moved to integer power sums per block; `graphs 4 1` before the
splits were reduced by their symmetries, `graphs 0 7` before the side
choices of a split were tabulated per vertex shape), the `cone` commands
before `pp_space` replaced its nullspace by union-find components and
`pullback_pp` moved to integer arithmetic; the glued subdivisions
(`cone triangle-z3 barycentric`, `cone simplex5 explosion 5 3` and the
star of face 15 of the barycentric triangle-z3 complex) before
`barycentric` and `star_subdivision` derived their ray maps and
subdivision maps from the faces they cut; `gen1 2` on the barycentric
cycle-glued 5-orthant, whose products multiply functions vanishing on
most cones, and `pp 2` on the barycentric triangle-z3 complex before
every zero cone of a piecewise polynomial became one shared read-only
mapping.  Any change in the bytes these commands print shows up here,
including one that a memo causes: a few of them also run cold, warm and
after every memo is cleared.
"""

import hashlib
import importlib
import pkgutil

import pytest

import tautring
from tautring import cli, integration, stable_graphs
from tautring.cone_complex import ConeComplex, barycentric, triangle_z3_complex

GOLDEN = {
    "div-membership 2 2 2": "24b8e3ba0e77bac2a8c0ce73e8af0439607b2d52ce01c70062581a5abf25fc8d",
    "div-membership 1 4 1": "0b8dd74827aea9043bc1b3c50e427c641886d15c1ad7d967b7e424013fe6ac1b",
    "div-membership 3 0 3": "49ec72431406628156f812da5008a975aad5fa4b950f8807711d62c9de4741ef",
    "div-membership 1 1 1": "da6c6921ce72ce8f9448e1947ef258121c943342521d330a5ec8f05f17442d10",
    "div-membership 2 0 2": "ccbe339184373e0e7b84efda781ca104994ba2720b5f051af83d0fbaa59f4546",
    "div-membership 3 0 3 --max-gen-degree 2": "4799f7d17bdd8c668d6d83e1193b0fd5338d8b657539e501d684af4cabd6c271",
    "div-membership 2 1 2": "2309c9e878ff64b5c988c61d990b67ce0032ef4830b05baac1efd6e1a168958f",
    "div-membership 3 1 3": "655937eb90aa53c1b5e272931adb30d2d56fea0ad9a0ae5f1e0ae8094a88410a",
    "lambda 3 0 --pair": "7f805b1aa1066cfcdea23b1ee4c8be319c233c1f2b8e302961f06b84a6d0a749",
    "theta-genus2 --json": "d366ef0ca2d227c6eef91f801aba4d10d76f8574bed8bed013a67eb6484c0b76",
    "graphs 2 0": "d0174d2bfee6aeca35995ff9fcd216f8bc98b630dea70ce8fe507edb395f77c3",
    "graphs 1 2": "a7ff4f08e9b9182b7c59165b5495a262fb98d5754db7e4742cff46e532bfad4e",
    "graphs 2 3": "1eff3cf2963d39edc610915d4411fdc8223170182c86537cbad4aa994decd8ec",
    "graphs 3 1": "cb803bd9a1b9e0dd194442d25ba0cf77f04a84f285154c844c2aca74b4dc85d6",
    "graphs 4 0": "0afe1a989a44902b49ce4bd0724c914ee107f583ee3b07f68bca6269b25d143b",
    "graphs 3 2": "b7d67f382f1486b0a9a2eef69cb1df244d892cf335bfa01b0aaa97fb11ddc7fd",
    "graphs 4 1": "84b644ad45d5bc97c68feb29fd39a19c25a5df4fee281a94b6a601a15270091b",
    "graphs 0 7": "716dcec74356f16c79f27f37929dd0ac743e60df9876ca83e05f33c21f237b2c",
    "dr 2 --weights=1,2,-3": "e274b043d41374bef6e254872a6054dc21d339c33bd78e7beff3e5a8b3775d6c",
    "dr 1 --weights=1,-1,1,-1 --degree 1": "94f40c34706f6dd987528c1e281a03bcffdb99b1b40be65dc6a25bbabf815fc2",
    "dr 2 --weights=2,-1,-1": "aa44fae4fe83d06a78eab027d79cf7cb095fcae16fc2057fb4dd0e5694e17f02",
    "dr 3 --weights=1,-1": "a5ef07a4917c78c861dcfdf979da4342a0a9987c45c3b0dddb082b36e25eae6b",
    "lambda 4 0": "a147e98fef06af81969e539f06fb996976980f87a3c7ddd7d953a5da8a4b5ae1",
    "cone simplex3 barycentric": "a3d8c2461f4d06cd85b42aceedfd92d990037b96a9ad382335342dad6c0e1dd2",
    "cone simplex3 star 3": "d5afdd2d53aa1890f65a66c575fcfac4e99e2a699494bbbb3172491c1730f633",
    "cone triangle-z3 pp 1": "7bcf8c22dfd718806198c4b3868f4af5b771b13ec77ce033ba458baaf944b7fa",
    "cone triangle-z3 pp 2": "6e5596f6e7a16bfc72182f609de3f1bcb994a66fb5c44418527c19a9f0850abf",
    "cone triangle-z3 gen1 2": "863a7cea9fd843a5a1cd71ac908473d8ea72b09f3921a9343dc64f66ef109813",
    "cone simplex3 explosion 3 2": "f8a18e1eb515d635be27658ab4935ce98c2d7b6c338db6cda3377bd06f918cfd",
    "cone triangle-z3 barycentric": "2d44e7e68c4c8bec461eda3312cd26a3ef76106e450f3ad86a5e26a44168e5f5",
    "cone simplex5 explosion 5 3": "d5b4fe4a110ca9a4acc0bdc08a53d1760b6e88c04f426ec3e1b7b559e2c224ba",
}


def _cycle5_orthant():
    """R^5_{>=0} glued to itself by the 5-cycle e_i -> e_sigma(i)."""
    sigma = (2, 4, 1, 0, 3)
    basis = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    image = [basis[sigma[i]] for i in range(5)]
    return ConeComplex(5, [tuple(basis)], [(tuple(basis), tuple(image))])


def _three_parts():
    """Four connected pieces, two of them joined by a gluing.

    The pieces are cones {0, 2} (sharing a ray), {1, 4} (glued, 4 onto 1)
    and {3}, so ordering the degree-0 basis by the least, the largest or the
    union-find root cone of each part gives three different orders.
    """
    cones = [
        ((0, 0, 0, 1), (0, 0, 1, 1)),
        ((0, 0, 1, 0),),
        ((0, 0, 1, 1), (1, 1, 0, 0)),
        ((0, 1, 0, 0),),
        ((1, 0, 0, 0),),
    ]
    return ConeComplex(4, cones, [(((1, 0, 0, 0),), ((0, 0, 1, 0),))])


CONE_FILES = {
    "cycle5": _cycle5_orthant,
    "cycle5_bary": lambda: barycentric(_cycle5_orthant())[0],
    "three_parts": _three_parts,
    "triangle_z3_bary": lambda: barycentric(triangle_z3_complex())[0],
}

FILE_GOLDEN = {
    "cone {cycle5} pp 1": "70f18145ba6def36eb5829b59b5a7ea63186eb5794bfbdcdfbd94ee516a018a7",
    "cone {cycle5} pp 2": "91613f998ad77e9b04cd1d1dd665158989a04a634fdced8c09a8879c6280d504",
    "cone {cycle5} pp 3": "6dbbe3f4ab456cc6e0c8f4a415a8b3b346f789464b89950de80be55bd076e5b9",
    "cone {cycle5_bary} pp 1": "7d6d8abaf221d8513df5ddc0e5838c60d7910c0a71a605685035e2a9cadc2116",
    "cone {cycle5_bary} pp 2": "58647d2aa5adb52eab4fd1ce0ad1797a5be5e15db6bab64884f8c4a2254ddd1b",
    "cone {cycle5_bary} pp 3": "f74d6b56b364de19b50531a125adb523a49f5b25efb01c9acfc875d2c1d81477",
    "cone {cycle5_bary} gen1 2": "863a7cea9fd843a5a1cd71ac908473d8ea72b09f3921a9343dc64f66ef109813",
    "cone {three_parts} pp 0": "8784004402a45784ce7ff3fc5494cb1d491f5b1751d4898c4dfe12cdadca426a",
    "cone {three_parts} pp 1": "6170867251abdf1533e571ea1457d4b0cc9f3986896d2925a7affdab0d6de300",
    "cone {triangle_z3_bary} pp 2": "cb96817993020991729a7bfe7399170c6c2e3e84f6c622da8d8cd28597e75dde",
    "cone {triangle_z3_bary} star 15": "c301187d9743253cd430701a6696e6c1090f564d5159e91b5dd7b072ae01dc2f",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_matches_the_golden_digest(capsys, command):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


@pytest.mark.parametrize("command", sorted(FILE_GOLDEN))
def test_cone_file_stdout_matches_the_golden_digest(capsys, tmp_path, command):
    paths = {}
    for name, build in CONE_FILES.items():
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(build().to_json())
    assert cli.main(command.format(**paths).split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FILE_GOLDEN[command]


def _cached_functions():
    """Every functools.cache of the tautring modules, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(tautring.__path__):
        module = importlib.import_module("tautring." + info.name)
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                found[value.__module__ + "." + value.__qualname__] = value
    return found


def _clear_every_memo(cached):
    for function in cached.values():
        function.cache_clear()
    integration._CORRELATORS.clear()
    stable_graphs._ENUM_CACHE.clear()
    stable_graphs._CANONICAL.clear()


def _module_tables():
    """Every module-level dict, list or set of the tautring modules, by
    qualified name."""
    modules = [tautring] + [
        importlib.import_module("tautring." + info.name)
        for info in pkgutil.iter_modules(tautring.__path__)
    ]
    return {
        module.__name__ + "." + name: value
        for module in modules
        for name, value in vars(module).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    }


def test_clearing_every_memo_empties_every_module_table(capsys):
    """After a command has filled them, `_clear_every_memo` leaves every
    module-level table empty, so a renamed or new table cannot keep a
    cold run warm."""
    assert cli.main("div-membership 2 2 2".split()) == 0
    capsys.readouterr()
    tables = _module_tables()
    assert any(tables.values())
    _clear_every_memo(_cached_functions())
    assert {name: len(table) for name, table in tables.items() if table} == {}


def test_memos_do_not_change_answers(capsys):
    """Golden stdout cold, warm and after every memo is cleared; on the warm
    run every cached function the command calls hits at least once."""
    cached = _cached_functions()
    used = set()
    commands = [
        "div-membership 2 2 2",
        "lambda 3 0 --pair",
        "dr 2 --weights=1,2,-3",
        "cone triangle-z3 pp 2",
        "theta-genus2 --json",
    ]
    for command in commands:
        _clear_every_memo(cached)
        for run in ("cold", "warm", "cleared"):
            if run == "cleared":
                _clear_every_memo(cached)
            before = {name: f.cache_info() for name, f in cached.items()}
            assert cli.main(command.split()) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command], run
            for name, f in cached.items():
                hits, misses = f.cache_info()[:2]
                if hits + misses > before[name].hits + before[name].misses:
                    used.add(name)
                    assert run != "warm" or hits > before[name].hits, (command, name)
    # every memo the scan finds is exercised; no CLI command calls
    # `integrate` or `kappa_to_psi` (tests/test_kappa_conversion.py runs
    # these memos through the library)
    assert set(cached) - used == {
        "tautring.integration.term_integral",
        "tautring.integration._kappa_partitions",
        "tautring.integration._virtual_graph",
    }
