"""Every name the benchmark's tracer wraps is still bound where it looks for it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from lorentzmodes.medium import LorentzMedium

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    # loaded from its file, read only: the tracer is never installed here
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_bound_in_every_listed_module(spans):
    for name, namespaces in spans.TRACED.items():
        if not namespaces:  # members of LorentzMedium, checked below
            continue
        module_name, attr = name.split(".")
        original = getattr(importlib.import_module(f"lorentzmodes.{module_name}"), attr)
        for ns in namespaces:
            bound = getattr(importlib.import_module(f"lorentzmodes.{ns}"), attr, None)
            assert bound is original, f"{name} is not bound at lorentzmodes.{ns}.{attr}"


def test_traced_medium_members_on_the_class(spans):
    members = [name.split(".")[1] for name, ns in spans.TRACED.items() if not ns]
    assert members == ["catalog", "asymptotic_coefficients"]
    for attr in members:
        assert attr in LorentzMedium.__dict__
