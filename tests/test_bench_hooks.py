"""Every function the benchmark tracer wraps must exist where it looks.

bench/tracer.py replaces module globals by name. A refactor that renames
or drops one of them breaks the traced benchmark run; this test catches it
in the unit suite instead.
"""

import importlib.util
from pathlib import Path

import pytest

from pnpdg.cli import main

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


def test_traced_run_reaches_every_layer(tmp_path):
    # a wrapper on a name the solver no longer calls would leave its
    # per-layer metrics at 0 without failing the traced run
    cfg = tmp_path / "ex1.cfg"
    cfg.write_text("[benchmark]\nid = example1\n[mesh]\nsizes = 5\n[time]\nt_final = 5e-4\n")
    t = tracer.Tracer()
    t.install()
    try:
        rc, _ = t.run_root(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    finally:
        t.restore()
    assert rc == 0
    assert t.calls["driver.pnp_step"] == 2
    assert {key: t.calls[key] for key in tracer.TIMED if t.calls[key] == 0} == {}
