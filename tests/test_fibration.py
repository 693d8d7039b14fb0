"""The λ2-fibration's law suite and its reports."""

import pytest

from param_workbench import fibration as fib
from param_workbench.finmodel import (
    IsoPolicy,
    apply_label,
    eq_rel,
    expo0,
    fin_set,
    fn,
    fn_compose,
    fn_id,
    fn_inverse,
    fn_label,
    rel_mor_id,
)


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


class TestCreyArrowAction:
    """Over a three-element carrier, crey admits a 3-cycle σ; unlike the
    involutions at bound 2, σ⁻¹ ≠ σ, so the contravariant leg shows."""

    u = fib.graph_universe((1, 2, 3), IsoPolicy.CREY)
    endo = fib.FArrow(fib.FProj(1, 0), fib.FProj(1, 0))
    a3 = fin_set(range(3))
    sigma = fn(a3, a3, lambda x: (x + 1) % 3)

    def test_one_endomorphism_family(self):
        assert len(fib.forall0_value(self.endo, (), self.u)) == 1

    def test_arrow_action_conjugates(self):
        act = fib.evaluate_mor(self.endo, (self.sigma,), self.u)
        back = fn_inverse(self.sigma)
        assert act.dom == act.cod == expo0(self.a3, self.a3)
        for lbl in act.dom:
            table = fn(self.a3, self.a3, lambda x: apply_label(lbl, x))
            assert act(lbl) == fn_label(
                fn_compose(self.sigma, fn_compose(table, back)))
        ident = fn_label(fn_id(self.a3))
        assert act(ident) == ident

    def test_level_one_transports_are_rejected(self):
        with pytest.raises(ValueError):
            fib.evaluate_mor(self.endo, (rel_mor_id(eq_rel(self.a3)),), self.u)
