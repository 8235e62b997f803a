"""Every function the benchmark tracer wraps must exist where it looks.

bench/tracer.py replaces module globals by name. A refactor that renames
or drops one of them breaks the traced benchmark run; this test catches it
in the unit suite instead.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracer = _load_tracer()


@pytest.mark.parametrize("owner,attr", [(w[0], w[1]) for w in tracer._WRAPS])
def test_traced_attribute_resolves(owner, attr):
    obj = tracer._resolve(owner)
    assert callable(getattr(obj, attr, None)), f"{owner}.{attr} is missing"
