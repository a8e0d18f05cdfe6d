"""The names the traced benchmark in perfbench/ reaches into exprk for.

perfbench/spans.py wraps each TARGETS entry with getattr(owner, attr), and
perfbench/workloads.py calls the public API by module attribute, so deleting
or renaming one of those names breaks `perfbench/run.py --trace 1` without
failing any other test.
"""

import dataclasses
import importlib.util
import pathlib
import sys

import pytest

from exprk import convergence

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    spec.loader.exec_module(module)
    return module


SPANS = load("spans")


@pytest.mark.parametrize("span, owner, attr", [t[:3] for t in SPANS.TARGETS],
                         ids=[t[0] for t in SPANS.TARGETS])
def test_span_target_resolves(span, owner, attr):
    assert callable(getattr(owner, attr)), span


def test_workloads_import_and_build_their_report():
    load("workloads")  # module-level references, e.g. the Fourier coefficient rules
    fields = {f.name for f in dataclasses.fields(convergence.ConvergenceReport)}
    assert {"rows", "fitted_order", "pairwise_orders", "scheme", "n_inner", "nu", "T",
            "tau_ref"} <= fields  # the keywords nonsym_study builds it with
