import importlib
import pkgutil

import anticonc


def test_every_exported_name_resolves():
    names = [m.name for m in pkgutil.iter_modules(anticonc.__path__)]
    modules = [anticonc] + [
        importlib.import_module(f"anticonc.{name}")
        for name in names
        if name != "__main__"  # importing it runs the CLI
    ]
    stale = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert not stale, stale
