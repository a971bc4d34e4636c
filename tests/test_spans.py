"""Every layer span the benchmark traces names a function or class in forge.

perfbench/workloads.py lists the spans as (module, qualname, workloads).  A
name that no longer resolves is reported as absent, and its three per-layer
metrics drop out of a traced result while the run still exits 0, so a rename
must show up here first.  Names resolve as the tracer resolves them: through
each owner's own namespace, and a class through its own __init__.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                         "workloads.py")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, qualname) for mod, qualname, _ in module.SPANS]


@pytest.mark.parametrize("module, qualname", _spans())
def test_span_name_resolves_in_forge(module, qualname):
    owner = importlib.import_module("forge." + module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = vars(owner)[part]
    target = vars(owner).get(attr)
    if inspect.isclass(target):
        target = vars(target).get("__init__")
    assert inspect.isfunction(target), "%s.%s does not resolve" % (module, qualname)
