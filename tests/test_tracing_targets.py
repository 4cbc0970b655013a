"""Every name the benchmark's tracer wraps still exists in `grtor`.

`benchmark/tracing.py` is loaded read-only from its file; a renamed
function or method would otherwise crash only the traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name,module,attr", load_targets())
def test_trace_target_resolves(name, module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        # the tracer wraps the method found in the class's own namespace
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name)), (name, attr)
    else:
        assert callable(getattr(owner, attr)), (name, attr)
