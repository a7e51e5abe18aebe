"""The benchmark's ``--trace 1`` tracer still installs on this code.

``perfbench/tracing.py`` times layers by wrapping named functions of the
serving stack, so renaming one of them breaks every traced run.  This
test installs the tracer and restores it, so such a rename fails here.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patch():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        assert patched
        for owner, name, original in patched:
            assert getattr(owner, name) is not original, name
    finally:
        tracer.restore()
    for owner, name, original in patched:
        assert getattr(owner, name) is original, name
