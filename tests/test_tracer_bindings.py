"""The layer tracer of perfbench names functions and methods of parstack.

``perfbench/tracer.py`` looks its targets up by module and attribute name
when ``--trace 1`` installs it.  A deletion or rename in ``parstack`` must
fail here rather than break the traced run.
"""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("layer,module,attr", tracer.FUNCTIONS,
                         ids=[layer for layer, _, _ in tracer.FUNCTIONS])
def test_traced_function_resolves(layer, module, attr):
    assert callable(getattr(importlib.import_module("parstack." + module), attr))


@pytest.mark.parametrize("layer,module,cls,attr", tracer.METHODS,
                         ids=[layer for layer, _, _, _ in tracer.METHODS])
def test_traced_method_resolves(layer, module, cls, attr):
    owner = getattr(importlib.import_module("parstack." + module), cls)
    assert attr in vars(owner)


@pytest.mark.parametrize("layer,module,prefix", tracer.GROUPS,
                         ids=[layer for layer, _, _ in tracer.GROUPS])
def test_traced_group_is_not_empty(layer, module, prefix):
    mod = importlib.import_module("parstack." + module)
    assert any(name.startswith(prefix) and callable(value)
               for name, value in vars(mod).items())
