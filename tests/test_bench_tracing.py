"""The traced benchmark wraps library functions by name, layer by layer.

bench/tracing.py lists its targets as (metric, module, attribute) triples and
only prints "not found" for a missing one, so its metrics would read 0.  This
checks, without running the benchmark, that every target is still an
attribute of its module, apart from the known stale entries below.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
MODULES = ("group", "series", "lie", "autos", "intlinalg", "modules", "stability")
# dense builders that intlinalg no longer has; the tracer still lists them
STALE = {"intlinalg": ["mat_sub", "columns"]}


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mod", MODULES)
def test_traced_targets_exist(mod):
    tracing = _tracing()
    module = importlib.import_module(f"nilstab.{mod}")
    targets = [
        attr for _, m, attr in tracing.SPANS + tracing.COUNTED + tracing.CACHES if m == mod
    ]
    assert targets
    missing = [attr for attr in targets if not callable(getattr(module, attr, None))]
    assert missing == STALE.get(mod, [])
