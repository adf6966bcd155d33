"""Golden CLI outputs of the pairing, enumeration and DR commands.

The sha256 digests of stdout were captured before the rewrites they guard:
the pairing commands before the excess-intersection kernel replaced the
product-then-integrate pairing, the `graphs` and `dr` commands before
generation by vertex splitting replaced the brute-force stable-graph
enumerator.  Any change in the bytes these commands print shows up here.
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
    "graphs 2 0": "d0174d2bfee6aeca35995ff9fcd216f8bc98b630dea70ce8fe507edb395f77c3",
    "graphs 1 2": "a7ff4f08e9b9182b7c59165b5495a262fb98d5754db7e4742cff46e532bfad4e",
    "graphs 2 3": "1eff3cf2963d39edc610915d4411fdc8223170182c86537cbad4aa994decd8ec",
    "graphs 3 1": "cb803bd9a1b9e0dd194442d25ba0cf77f04a84f285154c844c2aca74b4dc85d6",
    "graphs 4 0": "0afe1a989a44902b49ce4bd0724c914ee107f583ee3b07f68bca6269b25d143b",
    "graphs 3 2": "b7d67f382f1486b0a9a2eef69cb1df244d892cf335bfa01b0aaa97fb11ddc7fd",
    "dr 2 --weights=1,2,-3": "e274b043d41374bef6e254872a6054dc21d339c33bd78e7beff3e5a8b3775d6c",
    "dr 1 --weights=1,-1,1,-1 --degree 1": "94f40c34706f6dd987528c1e281a03bcffdb99b1b40be65dc6a25bbabf815fc2",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_matches_the_golden_digest(capsys, command):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
