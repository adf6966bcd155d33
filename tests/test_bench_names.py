"""Every library name that the benchmark's tracer reads still exists.

`perfbench/spans.py` wraps each traced function by looking it up as
`owner.__dict__[attr]`, and reads two memo dicts by name.  A library
rename or deletion would make `--trace 1` fail with a KeyError, which
otherwise only the slow `python -m pytest perfbench` run would show.
"""

import importlib.util
from pathlib import Path

from tautring import integration, stable_graphs

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists():
    layers = _spans()._layers()
    assert layers
    missing = [(owner.__name__, attr) for owner, attr, *_ in layers if attr not in vars(owner)]
    assert missing == []


def test_the_memos_read_by_name_are_dicts():
    assert isinstance(stable_graphs._ENUM_CACHE, dict)
    assert isinstance(integration._CORRELATORS, dict)
