"""The benchmark tracer's probe targets exist in the package.

`benchmarks/tracer.py` wraps functions, methods and properties of
nearlyround by name.  A rename in the package would only surface when
the traced benchmark runs, so this test installs the tracer on the
imported package, checks that every target was rebound, and checks that
uninstalling restores every original binding.
"""

import importlib.util
import sys
from pathlib import Path

import nearlyround  # noqa: F401  (the tracer rebinds names in loaded modules)

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("nearlyround_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _binding(modname, attr):
    owner = sys.modules[modname]
    if "." in attr:
        cls_name, member = attr.split(".")
        return vars(getattr(owner, cls_name))[member]
    return getattr(owner, attr)


def _package_bindings():
    return {
        (name, key): value
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "nearlyround" or name.startswith("nearlyround."))
        for key, value in vars(mod).items()
        if callable(value)
    }


def test_tracer_probes_resolve_and_uninstall_restores():
    tracer_mod = _load_tracer()
    targets = [(modname, attr) for _, modname, attr in tracer_mod.PROBES]
    originals = {t: _binding(*t) for t in targets}
    before = _package_bindings()
    tracer = tracer_mod.Tracer().install()
    try:
        for target in targets:
            assert _binding(*target) is not originals[target], target
    finally:
        tracer.uninstall()
    for target in targets:
        assert _binding(*target) is originals[target], target
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
