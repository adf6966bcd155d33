"""Golden CLI outputs of the pairing commands.

The sha256 digests of stdout were captured before the excess-intersection
kernel replaced the product-then-integrate pairing, so any change in the
bytes these commands print shows up here.
"""

import hashlib

import pytest

from tautring import cli

GOLDEN = {
    "div-membership 2 2 2": "24b8e3ba0e77bac2a8c0ce73e8af0439607b2d52ce01c70062581a5abf25fc8d",
    "div-membership 1 4 1": "0b8dd74827aea9043bc1b3c50e427c641886d15c1ad7d967b7e424013fe6ac1b",
    "div-membership 3 0 3": "49ec72431406628156f812da5008a975aad5fa4b950f8807711d62c9de4741ef",
    "div-membership 1 1 1": "da6c6921ce72ce8f9448e1947ef258121c943342521d330a5ec8f05f17442d10",
    "div-membership 2 0 2": "ccbe339184373e0e7b84efda781ca104994ba2720b5f051af83d0fbaa59f4546",
    "lambda 3 0 --pair": "7f805b1aa1066cfcdea23b1ee4c8be319c233c1f2b8e302961f06b84a6d0a749",
    "theta-genus2 --json": "d366ef0ca2d227c6eef91f801aba4d10d76f8574bed8bed013a67eb6484c0b76",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_matches_the_golden_digest(capsys, command):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
