"""The benchmark's layer trace binds every function it names.

``bench/tracer.py`` wraps a fixed list of facred functions at every module
that holds them; a renamed or no longer imported function makes a traced
benchmark run fail.  This test installs the tracer (and removes it again)
so such a change fails here first.
"""

import importlib.util
from pathlib import Path

import facred.cli  # noqa: F401  (the tracer patches every facred module)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_traced_function():
    tracer = _load_tracer()
    trace = tracer.Tracer().install()
    try:
        assert sorted(trace.sites) == sorted(tracer.NAMES)
    finally:
        trace.uninstall()
