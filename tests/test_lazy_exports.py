"""Package exports resolve lazily and still name the same objects."""

from __future__ import annotations

import importlib

import pytest

from .test_cli import run_python

PACKAGES = [
    "repro",
    "repro.bdd",
    "repro.boolfunc",
    "repro.circuits",
    "repro.decompose",
    "repro.exact",
    "repro.fastpath",
    "repro.harness",
    "repro.hyper",
    "repro.mapping",
    "repro.network",
    "repro.obs",
    "repro.runstate",
    "repro.service",
    "repro.testing",
    "repro.verify",
]

#: Exports named like a submodule of their package.
SUBMODULE_NAMED = [
    ("repro.bdd", "isop"),
    ("repro.network", "simulate"),
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        getattr(module, name)
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        module.no_such_name


def test_no_lazy_export_is_named_like_a_submodule():
    # Names still missing from a fresh package's namespace are the lazy
    # ones; importing a submodule of the same name would shadow them.
    out = run_python(f"""
        import importlib, pkgutil
        for package in {PACKAGES!r}:
            module = importlib.import_module(package)
            lazy = set(module.__all__) - set(vars(module))
            submodules = {{m.name for m in pkgutil.iter_modules(module.__path__)}}
            print(package, sorted(lazy & submodules))
    """)
    for line in out.stdout.splitlines():
        assert line.endswith(" []"), line


def test_submodule_named_exports_stay_functions():
    # Fresh process: the submodule is imported before the package
    # attribute is read, the order that rebinds it to the module.
    out = run_python(f"""
        import importlib, inspect, sys
        for package, name in {SUBMODULE_NAMED!r}:
            importlib.import_module(package + "." + name)
            value = getattr(sys.modules[package], name)
            print(name, inspect.isfunction(value))
    """)
    assert out.stdout.split() == [
        word for _, name in SUBMODULE_NAMED for word in (name, "True")
    ]
