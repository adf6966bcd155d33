"""The command-line interface: JSON payloads, determinism, exit codes."""

import argparse
import hashlib
import json

import pytest

from tautring import cli
from tautring.errors import ConsistencyError, DomainError


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["tool"] == "tautring"
    assert payload["version"] == cli.VERSION
    return payload


def test_graphs_command(capsys):
    payload = _run_json(capsys, ["graphs", "2", "0"])
    assert payload["count"] == 7
    assert len(payload["graphs"]) == 7
    assert all(entry["g"] == 2 for entry in payload["graphs"])


def test_dr_examples(capsys):
    payload = _run_json(capsys, ["dr", "1", "--weights", "0"])
    assert payload["degree"] == 1
    terms = payload["class"]["terms"]
    assert len(terms) == 1
    assert terms[0]["coeff"] == "-1/24"
    assert terms[0]["graph"]["edges"] == [[[0, 0], [0, 1]]]

    payload = _run_json(capsys, ["dr", "0", "--weights", "2,-1,-1"])
    terms = payload["class"]["terms"]
    assert len(terms) == 1
    assert terms[0]["coeff"] == "1" and terms[0]["graph"]["edges"] == []

    payload = _run_json(capsys, ["dr", "0", "--weights", "2,-1,-1", "--degree", "0"])
    terms = payload["class"]["terms"]
    assert len(terms) == 1 and terms[0]["coeff"] == "1"


def test_lambda_command(capsys):
    payload = _run_json(capsys, ["lambda", "1", "1"])
    terms = payload["class"]["terms"]
    assert len(terms) == 1 and terms[0]["coeff"] == "1/24"

    payload = _run_json(capsys, ["lambda", "2", "0", "--pair", "--check-separating"])
    assert payload["pairing_check"]["matches_reference"] is True
    assert all(x == "0" for x in payload["pairing_check"]["difference_pairing"])
    assert payload["separating_check"]["all_nonseparating"] is True
    coeffs = sorted(term["coeff"] for term in payload["class"]["terms"])
    assert coeffs == ["1/1152", "1/240"]


def test_div_membership_command(capsys):
    payload = _run_json(capsys, ["div-membership", "2", "0", "2"])
    assert payload["member"] is True
    assert payload["certified"] is True
    assert payload["verdict"] == "member"
    assert payload["rank"] == 2 and payload["ambient"] == 2


def test_theta_text_report_is_idempotent(capsys):
    code1, out1, _ = _run(capsys, ["theta-genus2"])
    code2, out2, _ = _run(capsys, ["theta-genus2"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "infeasible" in out1
    assert out1.startswith("tautring %s theta-genus2" % cli.VERSION)


def test_theta_json(capsys):
    payload = _run_json(capsys, ["theta-genus2", "--json"])
    assert payload["solution_dimension"] == 1
    assert payload["x_nonneg_z_nonpos_feasible"] is False
    assert payload["particular"] == ["-1/120", "11/2880", "0"]
    assert payload["basis"] == [["1", "-5/24", "1"]]


def test_outputs_are_deterministic(capsys):
    for argv in (
        ["graphs", "1", "2"],
        ["dr", "1", "--weights", "0"],
        ["cone", "triangle-z3", "pp", "2"],
    ):
        _, out1, _ = _run(capsys, argv)
        _, out2, _ = _run(capsys, argv)
        assert out1 == out2


def test_threads_flag_is_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--threads", "1", "graphs", "2", "0"])
    assert exc.value.code == 2


def test_cone_operations(capsys):
    payload = _run_json(capsys, ["cone", "simplex3", "barycentric"])
    assert payload["maximal_cones"] == 6

    payload = _run_json(capsys, ["cone", "simplex3", "explosion", "3", "2"])
    assert payload["holds"] is True

    payload = _run_json(capsys, ["cone", "triangle-z3", "pp", "1"])
    assert payload["dimension"] == 1

    payload = _run_json(capsys, ["cone", "triangle-z3", "gen1", "2"])
    assert payload["generated"] is False

    payload = _run_json(capsys, ["cone", "simplex2"])
    assert payload["maximal_cones"] == 1
    # faces: two rays and the full cone
    assert len(payload["complex"]["cones"]) == 3

    # star at the full cone of simplex2 (faces are sorted by dimension,
    # so the 2-dimensional cone comes last)
    payload = _run_json(capsys, ["cone", "simplex2", "star", "2"])
    assert payload["maximal_cones"] == 2


@pytest.mark.parametrize("operation", ["faces", "barycentric"])
def test_cone_operations_without_arguments_refuse_one(capsys, operation):
    """An extra argument after `faces` or `barycentric` exits 2 with an
    error naming the operation, rather than being ignored or reported as
    an unknown operation."""
    code, out, err = _run(capsys, ["cone", "simplex3", operation, "x"])
    assert (code, out) == (2, "")
    assert err == "error: %s takes no argument\n" % operation


# Every `cone` outcome on three fixtures and an unknown one: each operation
# with no, the right, one extra and non-integer operands (a wrong count is
# named before a non-integer operand), the default operation and an
# unknown one.  Captured before the operations moved into
# one table: (exit code, sha256 of stdout) on success, (exit code, stderr)
# otherwise, with nothing on the other stream.
CONE_OPERANDS = [
    [], ["faces"], ["faces", "x"], ["faces", "1"],
    ["barycentric"], ["barycentric", "x"], ["barycentric", "1"],
    ["star"], ["star", "0"], ["star", "2"], ["star", "2", "3"], ["star", "x"],
    ["star", "x", "1"], ["star", "99"], ["star", "-1"],
    ["pp"], ["pp", "1"], ["pp", "1", "2"], ["pp", "x"], ["pp", "-1"],
    ["gen1"], ["gen1", "2"], ["gen1", "2", "3"], ["gen1", "x"], ["gen1", "x", "1"],
    ["gen1", "1"],
    ["explosion"], ["explosion", "3"], ["explosion", "a"], ["explosion", "3", "2"],
    ["explosion", "3", "2", "1"], ["explosion", "a", "b"], ["explosion", "3", "1.5"],
    ["nosuch"], ["nosuch", "1"],
]

CONE_OUTCOMES = {
    "simplex2": (0, "7abffad5c7b3a6f2ce640cd0d8257d738f55a47f5a187251853c7ac556473e4d"),
    "simplex2 faces": (0, "7abffad5c7b3a6f2ce640cd0d8257d738f55a47f5a187251853c7ac556473e4d"),
    "simplex2 faces x": (2, "error: faces takes no argument\n"),
    "simplex2 faces 1": (2, "error: faces takes no argument\n"),
    "simplex2 barycentric": (
        0, "a9126505eb2f448d9edf22db51e0edfd4230ce93f9927ba3151132b380fdbdc2"
    ),
    "simplex2 barycentric x": (2, "error: barycentric takes no argument\n"),
    "simplex2 barycentric 1": (2, "error: barycentric takes no argument\n"),
    "simplex2 star": (2, "error: star needs a cone id\n"),
    "simplex2 star 0": (0, "acbfd92cdf554ac24395c791dd256d63b2acf2765327d951dd346f639a61d5a6"),
    "simplex2 star 2": (0, "9862d743123081e9b0775d98b322421986c42f7b1f2bc7f72add1ed68b0a77cd"),
    "simplex2 star 2 3": (2, "error: star needs a cone id\n"),
    "simplex2 star x": (2, "error: cone id must be an integer, got 'x'\n"),
    "simplex2 star x 1": (2, "error: star needs a cone id\n"),
    "simplex2 star 99": (2, "error: cone id out of range (0..2)\n"),
    "simplex2 star -1": (2, "error: cone id out of range (0..2)\n"),
    "simplex2 pp": (2, "error: pp needs a degree\n"),
    "simplex2 pp 1": (0, "d1440e7aec3cf3aa29db53ae070f8037eb3c792070863989bc37342df811a940"),
    "simplex2 pp 1 2": (2, "error: pp needs a degree\n"),
    "simplex2 pp x": (2, "error: degree must be an integer, got 'x'\n"),
    "simplex2 pp -1": (2, "error: degree must be nonnegative\n"),
    "simplex2 gen1": (2, "error: gen1 needs a degree\n"),
    "simplex2 gen1 2": (0, "b63a23804dc4fd3779d5d19905d32593eef1061d6bc44f1de2c4ba08012bdbe2"),
    "simplex2 gen1 2 3": (2, "error: gen1 needs a degree\n"),
    "simplex2 gen1 x": (2, "error: degree must be an integer, got 'x'\n"),
    "simplex2 gen1 x 1": (2, "error: gen1 needs a degree\n"),
    "simplex2 gen1 1": (2, "error: the question starts at degree 2\n"),
    "simplex2 explosion": (2, "error: explosion needs s and k\n"),
    "simplex2 explosion 3": (2, "error: explosion needs s and k\n"),
    "simplex2 explosion a": (2, "error: explosion needs s and k\n"),
    "simplex2 explosion 3 2": (
        0, "f8a18e1eb515d635be27658ab4935ce98c2d7b6c338db6cda3377bd06f918cfd"
    ),
    "simplex2 explosion 3 2 1": (2, "error: explosion needs s and k\n"),
    "simplex2 explosion a b": (2, "error: s must be an integer, got 'a'\n"),
    "simplex2 explosion 3 1.5": (2, "error: k must be an integer, got '1.5'\n"),
    "simplex2 nosuch": (2, "error: unknown cone operation 'nosuch'\n"),
    "simplex2 nosuch 1": (2, "error: unknown cone operation 'nosuch'\n"),
    "simplex3": (0, "4d97120756599ed159f8deb30838ad11118180cf6e9e97628442ccdffafb9c6f"),
    "simplex3 faces": (0, "4d97120756599ed159f8deb30838ad11118180cf6e9e97628442ccdffafb9c6f"),
    "simplex3 faces x": (2, "error: faces takes no argument\n"),
    "simplex3 faces 1": (2, "error: faces takes no argument\n"),
    "simplex3 barycentric": (
        0, "a3d8c2461f4d06cd85b42aceedfd92d990037b96a9ad382335342dad6c0e1dd2"
    ),
    "simplex3 barycentric x": (2, "error: barycentric takes no argument\n"),
    "simplex3 barycentric 1": (2, "error: barycentric takes no argument\n"),
    "simplex3 star": (2, "error: star needs a cone id\n"),
    "simplex3 star 0": (0, "32052d63a6b484c4b45b6008c17536e97ea74d2fb0c29556091fb91165d46ff6"),
    "simplex3 star 2": (0, "f393e1ea58907b1519de422db13848ef1d0e375491b65fbf81fc35095c163da4"),
    "simplex3 star 2 3": (2, "error: star needs a cone id\n"),
    "simplex3 star x": (2, "error: cone id must be an integer, got 'x'\n"),
    "simplex3 star x 1": (2, "error: star needs a cone id\n"),
    "simplex3 star 99": (2, "error: cone id out of range (0..6)\n"),
    "simplex3 star -1": (2, "error: cone id out of range (0..6)\n"),
    "simplex3 pp": (2, "error: pp needs a degree\n"),
    "simplex3 pp 1": (0, "84ff9388ba4b999cb12757050f44c648860aa2edeaf2e0f68f0256f6f59635f8"),
    "simplex3 pp 1 2": (2, "error: pp needs a degree\n"),
    "simplex3 pp x": (2, "error: degree must be an integer, got 'x'\n"),
    "simplex3 pp -1": (2, "error: degree must be nonnegative\n"),
    "simplex3 gen1": (2, "error: gen1 needs a degree\n"),
    "simplex3 gen1 2": (0, "b63a23804dc4fd3779d5d19905d32593eef1061d6bc44f1de2c4ba08012bdbe2"),
    "simplex3 gen1 2 3": (2, "error: gen1 needs a degree\n"),
    "simplex3 gen1 x": (2, "error: degree must be an integer, got 'x'\n"),
    "simplex3 gen1 x 1": (2, "error: gen1 needs a degree\n"),
    "simplex3 gen1 1": (2, "error: the question starts at degree 2\n"),
    "simplex3 explosion": (2, "error: explosion needs s and k\n"),
    "simplex3 explosion 3": (2, "error: explosion needs s and k\n"),
    "simplex3 explosion a": (2, "error: explosion needs s and k\n"),
    "simplex3 explosion 3 2": (
        0, "f8a18e1eb515d635be27658ab4935ce98c2d7b6c338db6cda3377bd06f918cfd"
    ),
    "simplex3 explosion 3 2 1": (2, "error: explosion needs s and k\n"),
    "simplex3 explosion a b": (2, "error: s must be an integer, got 'a'\n"),
    "simplex3 explosion 3 1.5": (2, "error: k must be an integer, got '1.5'\n"),
    "simplex3 nosuch": (2, "error: unknown cone operation 'nosuch'\n"),
    "simplex3 nosuch 1": (2, "error: unknown cone operation 'nosuch'\n"),
    "triangle-z3": (0, "d4f25288a638f73a89a57f74bcb1537d561cd4a73c6ebeb6f8acc195beb99d3e"),
    "triangle-z3 faces": (0, "d4f25288a638f73a89a57f74bcb1537d561cd4a73c6ebeb6f8acc195beb99d3e"),
    "triangle-z3 faces x": (2, "error: faces takes no argument\n"),
    "triangle-z3 faces 1": (2, "error: faces takes no argument\n"),
    "triangle-z3 barycentric": (
        0, "2d44e7e68c4c8bec461eda3312cd26a3ef76106e450f3ad86a5e26a44168e5f5"
    ),
    "triangle-z3 barycentric x": (2, "error: barycentric takes no argument\n"),
    "triangle-z3 barycentric 1": (2, "error: barycentric takes no argument\n"),
    "triangle-z3 star": (2, "error: star needs a cone id\n"),
    "triangle-z3 star 0": (0, "af869c79e01ae22058668114ef2b83d2634b275b63c65f0d83791946fb63fb01"),
    "triangle-z3 star 2": (0, "bc90a2594d0b6f8b0ce57b7a92b2ff182d42d7ca1dffa8fa47677d4eade0400b"),
    "triangle-z3 star 2 3": (2, "error: star needs a cone id\n"),
    "triangle-z3 star x": (2, "error: cone id must be an integer, got 'x'\n"),
    "triangle-z3 star x 1": (2, "error: star needs a cone id\n"),
    "triangle-z3 star 99": (2, "error: cone id out of range (0..6)\n"),
    "triangle-z3 star -1": (2, "error: cone id out of range (0..6)\n"),
    "triangle-z3 pp": (2, "error: pp needs a degree\n"),
    "triangle-z3 pp 1": (0, "7bcf8c22dfd718806198c4b3868f4af5b771b13ec77ce033ba458baaf944b7fa"),
    "triangle-z3 pp 1 2": (2, "error: pp needs a degree\n"),
    "triangle-z3 pp x": (2, "error: degree must be an integer, got 'x'\n"),
    "triangle-z3 pp -1": (2, "error: degree must be nonnegative\n"),
    "triangle-z3 gen1": (2, "error: gen1 needs a degree\n"),
    "triangle-z3 gen1 2": (0, "863a7cea9fd843a5a1cd71ac908473d8ea72b09f3921a9343dc64f66ef109813"),
    "triangle-z3 gen1 2 3": (2, "error: gen1 needs a degree\n"),
    "triangle-z3 gen1 x": (2, "error: degree must be an integer, got 'x'\n"),
    "triangle-z3 gen1 x 1": (2, "error: gen1 needs a degree\n"),
    "triangle-z3 gen1 1": (2, "error: the question starts at degree 2\n"),
    "triangle-z3 explosion": (2, "error: explosion needs s and k\n"),
    "triangle-z3 explosion 3": (2, "error: explosion needs s and k\n"),
    "triangle-z3 explosion a": (2, "error: explosion needs s and k\n"),
    "triangle-z3 explosion 3 2": (
        0, "f8a18e1eb515d635be27658ab4935ce98c2d7b6c338db6cda3377bd06f918cfd"
    ),
    "triangle-z3 explosion 3 2 1": (2, "error: explosion needs s and k\n"),
    "triangle-z3 explosion a b": (2, "error: s must be an integer, got 'a'\n"),
    "triangle-z3 explosion 3 1.5": (2, "error: k must be an integer, got '1.5'\n"),
    "triangle-z3 nosuch": (2, "error: unknown cone operation 'nosuch'\n"),
    "triangle-z3 nosuch 1": (2, "error: unknown cone operation 'nosuch'\n"),
}
CONE_OUTCOMES.update(
    {
        " ".join(["nosuchfixture"] + operands): (
            2,
            "error: unknown fixture 'nosuchfixture' "
            "(use simplex1..simplex5, triangle-z3, or a file)\n",
        )
        for operands in CONE_OPERANDS
    }
)


@pytest.mark.parametrize("case", list(CONE_OUTCOMES))
def test_cone_outcomes_are_pinned(capsys, case):
    code, out, err = _run(capsys, ["cone"] + case.split())
    want_code, want = CONE_OUTCOMES[case]
    if want_code == 0:
        assert (code, err, hashlib.sha256(out.encode()).hexdigest()) == (0, "", want)
    else:
        assert (code, out, err) == (want_code, "", want)



def test_cone_help_names_every_operation_of_the_table():
    """The hand-written help of `op` lists each operation of
    `cli._CONE_OPERATIONS` with one placeholder per integer operand, and
    nothing else."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    op = next(a for a in commands.choices["cone"]._actions if a.dest == "op")
    usage = [part.split() for part in op.help.split(";")[0].split("|")]
    assert {words[0]: len(words) - 1 for words in usage} == {
        name: len(operands) for name, operands, _, _ in cli._CONE_OPERATIONS
    }
    assert len(usage) == len(cli._CONE_OPERATIONS)


@pytest.mark.parametrize(
    "error, message",
    [
        (MemoryError(), "error: out of memory\n"),
        (DomainError("bad output"), "error: bad output\n"),
    ],
)
def test_a_failure_while_the_output_is_built_exits_2(capsys, monkeypatch, error, message):
    """`main` prints each payload inside its error handling."""

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli.json, "dumps", fail)
    for argv in (["graphs", "2", "0"], ["cone", "simplex2"], ["theta-genus2", "--json"]):
        assert _run(capsys, argv) == (2, "", message)

def test_explosion_works_on_the_orthant_whatever_the_complex(capsys):
    """`cone COMPLEX explosion S K` validates COMPLEX but works on
    barycentric(R^S_{>=0}), as the help of `op` says."""
    names = ("simplex2", "simplex3", "triangle-z3")
    runs = {_run(capsys, ["cone", name, "explosion", "3", "2"]) for name in names}
    assert len(runs) == 1
    with pytest.raises(SystemExit):
        cli.main(["cone", "--help"])
    assert "always works on barycentric(R^S_{>=0})" in " ".join(capsys.readouterr().out.split())


def test_cone_accepts_a_file(capsys, tmp_path):
    from tautring.cone_complex import simplex_cone_complex

    path = tmp_path / "complex.json"
    path.write_text(simplex_cone_complex(2).to_json())
    payload = _run_json(capsys, ["cone", str(path)])
    assert payload["maximal_cones"] == 1


def test_star_of_a_subdivided_glued_face_keeps_the_gluing(capsys, tmp_path):
    """Face 15 of the barycentric triangle-z3 complex is made of subdivision
    rays inside the glued cone.  Its star subdivides the three faces the
    rotation carries it to (6 + 3 maximal cones), and `pp 1` accepts it."""
    fine = _run_json(capsys, ["cone", "triangle-z3", "barycentric"])["complex"]
    assert fine["cones"][15]["rays"] == [[1, 0, 0], [1, 1, 0]]
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(fine))
    star = _run_json(capsys, ["cone", str(path), "star", "15"])
    assert star["maximal_cones"] == 9
    path.write_text(json.dumps(star["complex"]))
    assert _run_json(capsys, ["cone", str(path), "pp", "1"])["dimension"] > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["graphs", "0", "2"],  # unstable space
        ["dr", "1", "--weights", "1"],  # weights do not sum to zero
        ["lambda", "0", "5"],  # genus must be positive
        ["div-membership", "4", "0", "4"],  # uncertified regime, no flag
        ["div-membership", "2", "0", "1"],  # degree must equal the genus
        ["cone", "nosuchfixture"],
        ["cone", "simplex2", "star", "99"],
        ["cone", "simplex2", "pp"],  # missing degree
        ["cone", "simplex3", "pp", "x"],  # non-integer operands
        ["cone", "simplex3", "star", "x"],
        ["cone", "simplex3", "gen1", "x"],
        ["cone", "simplex3", "explosion", "a", "b"],
        ["cone", "simplex3", "explosion", "3", "1.5"],
        ["cone", "triangle-z3", "star", "3"],  # orbit faces share a ray in one cone
        # "file:TEXT" stands for a file holding TEXT
        ["cone", 'file:{"lattice_rank": 2, "cones": [{"rays": [[0, 1.5]]}]}', "pp", "1"],
        ["cone", 'file:{"lattice_rank": 2, "cones": [{"rays": [[0, true]]}]}', "pp", "1"],
        ["cone", 'file:{"lattice_rank": 2, "cones": [', "pp", "1"],  # invalid JSON
        # keys and containers out of place
        ["cone", "file:{}", "pp", "1"],
        ["cone", "file:[]", "pp", "1"],
        ["cone", 'file:{"lattice_rank": 2}', "pp", "1"],
        ["cone", 'file:{"lattice_rank": 2, "cones": {"rays": [[1, 0]]}}', "pp", "1"],
        ["cone", 'file:{"lattice_rank": 2, "cones": [{"rays": [[1, 0]]}], '
         '"gluings": {}}', "pp", "1"],
        ["cone", 'file:{"lattice_rank": 2, "cones": [[[1, 0], [0, 1]]]}', "pp", "1"],
        ["cone", 'file:{"lattice_rank": 2, "cones": [{"rays": [7]}]}', "pp", "1"],
        ["cone", 'file:{"lattice_rank": 2, "cones": [{"rays": [[1, 0], [0, 1]]}], '
         '"gluings": [{"source": [[1, 0]], "target": [[0, 1, 0]]}]}', "pp", "1"],
        ["cone", 'file:{"lattice_rank": 2, "cones": [{"rays": [[1, 0], [0, 1]]}], '
         '"gluings": [[[[1, 0]], [[0, 1]]]]}', "pp", "1"],
        ["cone", 'file:{"lattice_rank": 2, "cones": [{"rays": [[1, 0]]}], '
         '"gluings": [{"source": [[1, 0]]}]}', "pp", "1"],
        # "latin-1:TEXT" is a file holding TEXT encoded as Latin-1, not UTF-8
        ["cone", 'latin-1:{"lattice_rank": 2, "cones": [], "\xe9": 1}', "pp", "1"],
        ["cone", "directory:", "pp", "1"],
        ["lambda", "2", "-1"],  # negative marking counts
        ["div-membership", "2", "-1", "2"],
        ["div-membership", "3", "-1", "3"],
        # the gluing swaps the axes but the complex has no ray (1, 2)
        ["cone", 'file:{"lattice_rank": 2, "cones": [{"rays": [[1, 0], [2, 1]]}, '
         '{"rays": [[0, 1], [2, 1]]}], "gluings": [{"source": [[1, 0], [0, 1]], '
         '"target": [[0, 1], [1, 0]]}]}', "star", "0"],
    ]
    # gluings that identify no faces, refused by the constructor whatever
    # the operation: "apart" glues (e1, e2) onto two rays that share no
    # cone, "offray" glues (1, 0) onto (1, 1), which is not a ray
    + [
        ["cone", text] + op
        for text in (
            'file:{"lattice_rank": 3, "cones": [{"rays": [[1, 0, 0], [0, 1, 0]]}, '
            '{"rays": [[0, 0, 1]]}, {"rays": [[1, 1, 1]]}], "gluings": [{"source": '
            '[[1, 0, 0], [0, 1, 0]], "target": [[0, 0, 1], [1, 1, 1]]}]}',
            'file:{"lattice_rank": 2, "cones": [{"rays": [[1, 0], [0, 1]]}], '
            '"gluings": [{"source": [[1, 0]], "target": [[1, 1]]}]}',
        )
        for op in (["faces"], ["barycentric"], ["star", "0"], ["pp", "0"], ["pp", "1"],
                   ["gen1", "2"], ["explosion", "3", "2"])
    ],
)
def test_domain_errors_exit_2(capsys, tmp_path, argv):
    for k, arg in enumerate(argv):
        path = tmp_path / ("input%d.json" % k)
        if arg.startswith("file:"):
            path.write_text(arg[len("file:"):])
        elif arg.startswith("latin-1:"):
            path.write_bytes(arg[len("latin-1:"):].encode("latin-1"))
        elif arg == "directory:":
            path.mkdir()
        else:
            continue
        argv = argv[:k] + [str(path)] + argv[k + 1:]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("genus", ["-1", "0"])
def test_dr_checks_the_type_before_the_degree(capsys, genus):
    """Like every constructor that takes a type, through check_stable_type."""
    code, out, err = _run(capsys, ["dr", genus, "--weights", "1,-1"])
    assert (code, out) == (2, "")
    assert err == "error: (%s,2) is not a stable type\n" % genus


def test_consistency_failures_exit_3(capsys, monkeypatch):
    def boom(args):
        raise ConsistencyError("sample check failed")

    monkeypatch.setattr(cli, "_cmd_graphs", boom)
    code, out, err = _run(capsys, ["graphs", "2", "0"])
    assert code == 3
    assert err.startswith("consistency failure:")
