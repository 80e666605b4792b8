"""Every function the benchmark tracer wraps by name still resolves.

``bench/tracer.py`` wraps each (module, attribute) of its ``LAYER_FUNCTIONS``
by name, so a renamed or deleted function would silently drop out of a
traced benchmark run.  The list is read from the tracer itself.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def layer_functions():
    if not TRACER.exists():
        pytest.skip("the benchmark tracer is not part of this checkout")
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, *_ in tracer.LAYER_FUNCTIONS]


def test_every_wrapped_function_resolves(layer_functions):
    missing = []
    for module, attr in layer_functions:
        owner = importlib.import_module(f"whqrom.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{module}.{attr}")
    assert not missing


def test_list_covers_the_block_encodings_and_the_wh_backend(layer_functions):
    assert {
        ("molham", "_WhBackend._wh_cost"),
        ("blockenc", "dsparse_standard"),
        ("blockenc", "dsparse_fused"),
        ("blockenc", "lcu_sum"),
        ("blockenc", "diag_no_rotation"),
    } <= set(layer_functions)
