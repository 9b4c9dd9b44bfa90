"""The benchmark's span tracer (perfbench/spans.py) patches package functions
by name.  A rename or removal in the package would drop a per-layer metric
without an error; here it fails a test instead."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_in_the_package():
    spans = _load_spans()
    missing = []
    for name, where, attr, _ in spans.TARGETS:
        try:
            owner = spans._resolve(where)
        except (ImportError, AttributeError):
            missing.append(f"{name}: {where}")
            continue
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{name}: {where}.{attr}")
    # install() also wraps the validation scorer factory of dirlink.training
    if not callable(getattr(spans._resolve("dirlink.training"), "make_validation_scorer", None)):
        missing.append("training.validate: dirlink.training.make_validation_scorer")
    assert not missing, missing
