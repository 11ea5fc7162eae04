import importlib
import importlib.util
import pkgutil
from pathlib import Path

import npk

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _modules():
    """Every npk module but the command-line entry point."""
    names = [info.name for info in pkgutil.iter_modules(npk.__path__) if info.name != "__main__"]
    return {"npk": npk, **{name: importlib.import_module(f"npk.{name}") for name in names}}


def test_every_exported_name_is_defined():
    missing = [
        (name, attr)
        for name, module in _modules().items()
        for attr in getattr(module, "__all__", ())
        if not hasattr(module, attr)
    ]
    assert not missing, missing


def test_every_traced_entry_point_resolves():
    # the benchmark's tracer wraps these by name; a trimmed one fails every traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = _modules()
    unresolved = []
    for label, (module, path) in tracing.NAMED.items():
        target = modules.get(module)
        for part in path.split("."):
            target = getattr(target, part, None)
        if target is None:
            unresolved.append(label)
    assert tracing.NAMED and not unresolved, unresolved
