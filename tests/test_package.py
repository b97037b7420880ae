import importlib
import inspect
import pkgutil

import paircomp

# the CLI module is the console entry point, not part of the library API
LIBRARY_MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(paircomp.__path__) if name != "cli"
)


def test_package_reexports_exactly_each_module_all():
    modules = [importlib.import_module(f"paircomp.{name}") for name in LIBRARY_MODULES]
    listed = [name for module in modules for name in module.__all__]
    exported = [
        name
        for name, value in vars(paircomp).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    ]
    assert sorted(listed) == sorted(exported)
    for module in modules:
        for name in module.__all__:
            assert getattr(paircomp, name) is getattr(module, name), (module.__name__, name)
