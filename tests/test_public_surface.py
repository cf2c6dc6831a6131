"""Every public name the package declares resolves.

A deleted function whose name stays behind in an ``__all__`` list or in
:mod:`repro.parallel`'s lazy export table breaks ``from module import *``
and every caller that trusted the list.  A linter catches some of these;
this test catches all of them wherever the suite runs.
"""

import importlib
import pkgutil

import repro
from repro import parallel


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        yield importlib.import_module(info.name)


def test_every_all_entry_resolves():
    missing = [
        f"{module.__name__}.{name}"
        for module in _modules()
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing, missing


def test_parallel_lazy_exports_resolve():
    for name, submodule in parallel._EXPORTS.items():
        provider = importlib.import_module(f"repro.parallel.{submodule}")
        assert hasattr(provider, name), f"repro.parallel.{submodule} has no {name}"
        assert getattr(parallel, name) is getattr(provider, name)
