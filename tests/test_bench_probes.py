"""The benchmark tracer's probe targets exist in the package.

`benchmarks/tracer.py` wraps functions, methods and properties of
nearlyround by name.  A rename in the package would only surface when
the traced benchmark runs, so this test installs the tracer on the
imported package, checks that every target was rebound, and checks that
uninstalling restores every original binding.  A traced Kerr study of
each kind then runs under the tracer, as `benchmarks/run.py --trace 1`
does, so a probe that breaks a study or reads nothing shows here too.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

import nearlyround as nr  # the tracer rebinds names in loaded modules

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


@pytest.mark.parametrize("study", ["run_masses", "run_verify"])
def test_traced_study_runs_and_uninstall_restores(study):
    config = nr.StudyConfig(
        metric="kerr_slice m=1 a=0.5", schedule=(20.0, 40.0, 80.0), band_limit=8
    )
    untraced = getattr(nr, study)(config)
    before = _package_bindings()
    with _load_tracer().Tracer() as tracer:
        traced = getattr(nr, study)(config)
    assert _package_bindings() == before
    # the probes only observe: the report is the untraced one
    render = "render" if study == "run_masses" else "to_table"
    assert getattr(traced, render)() == getattr(untraced, render)()
    per_study = tracer.per_study(1)
    assert {k: v for k, v in per_study.items() if not math.isfinite(v)} == {}
    assert per_study["harness.study_calls"] == 1
    assert per_study["surfaces.fundamental_forms_calls"] > 0
