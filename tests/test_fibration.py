"""The λ2-fibration's law suite and its reports."""

import pytest

from param_workbench import fibration as fib
from param_workbench.finmodel import IsoPolicy


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("policy", list(IsoPolicy))
def test_fibration_suite_passes(policy, bound):
    # at bound 1 every carrier has at most one element, so the two
    # selectors of ∀a. a→a→a coincide and one family is expected
    rep = fib.fibration_suite(policy, bound, rounds=1)
    assert rep.ok, [f.row() for f in rep.failures]
    selectors = 2 if bound >= 2 else 1
    assert f"quantifier: {selectors} selector families" in [
        f.law for f in rep.findings]
    assert all(isinstance(f.detail, str) for f in rep.findings)
