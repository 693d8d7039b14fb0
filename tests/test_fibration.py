"""The λ2-fibration's law suite and its reports."""

import json

import pytest

import verdict_rows
from param_workbench import cubemodel as cm
from param_workbench import fibration as fib
from param_workbench import interp
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
    graph_rel,
    rel_mor_id,
)


@pytest.mark.parametrize("bound", verdict_rows.FIB_BOUNDS)
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
    assert verdict_rows.rows(rep) == verdict_rows.frozen(
        verdict_rows.fib_key(policy, bound))


@pytest.mark.parametrize("arity", [0, 1, 2])
def test_identity_extension_over_stock_type_functors(arity):
    """At every level-0 probe environment the comparison from the
    equality on the level-0 value to the level-1 value at equalities
    exists and is an iso."""
    u = fib.default_universe()
    for t in fib.stock_type_functors(arity):
        for env in fib.probe_envs(u, arity, 0):
            assert fib.epsilon_of(t, env.entries, u).is_iso, (t, env)


class TestExtended:
    u = fib.default_universe()
    a2, a3, b = fin_set([0, 1]), fin_set([0, 1, 2]), fin_set(["x"])
    cycle = graph_rel(fn(a3, a3, lambda x: (x + 1) % 3))
    to_b = graph_rel(fn(a3, b, lambda _: "x"))

    def test_carriers_then_endpoints_each_with_its_equality(self):
        v = self.u.extended([self.a3], [self.to_b])
        assert v.policy is self.u.policy
        assert v.objs0 == self.u.objs0 + (self.a3, self.b)
        assert v.objs1 == self.u.objs1 + (eq_rel(self.a3), eq_rel(self.b),
                                          self.to_b)

    def test_repeats_are_added_once(self):
        v = self.u.extended([self.a3, self.a3], [self.cycle, self.cycle])
        assert v.objs0 == self.u.objs0 + (self.a3,)
        assert v.objs1 == self.u.objs1 + (eq_rel(self.a3), self.cycle)

    def test_present_probes_keep_their_places(self):
        # a2 and its graphs are default probes; graph(id) is its equality
        swap = graph_rel(fn(self.a2, self.a2, lambda x: 1 - x))
        v = self.u.extended([self.a2], [swap, graph_rel(fn_id(self.a2))])
        assert (v.objs0, v.objs1) == (self.u.objs0, self.u.objs1)

    def test_a_known_carrier_gets_no_second_equality(self):
        into = graph_rel(fn(self.a2, self.a3, lambda x: x))
        v = self.u.extended([self.a2], [into])
        assert v.objs1.count(eq_rel(self.a2)) == 1
        assert v.objs1 == self.u.objs1 + (eq_rel(self.a3), into)


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


class TestUniverseData:
    def test_round_trip_through_json(self):
        u = fib.default_universe(IsoPolicy.CREY)
        back = fib.universe_from_data(
            json.loads(json.dumps(fib.universe_to_data(u))))
        assert (back.policy, back.objs0, back.objs1) == (u.policy, u.objs0, u.objs1)

    def test_a_related_pair_is_two_labels(self):
        data = fib.universe_to_data(fib.default_universe())
        assert data["relations"][0]["pairs"][0] == [0, 0]
        data["relations"][0]["pairs"][0].append(["refl", 0])
        with pytest.raises(ValueError, match=r"must be \[a, b\]"):
            fib.universe_from_data(data)
        with pytest.raises(ValueError, match=r"must be \[a, b\]"):
            interp.relations_from_data(data["relations"])

    def test_a_policy_that_is_not_a_name_is_malformed(self):
        data = dict(fib.universe_to_data(fib.default_universe()), policy=3)
        with pytest.raises(ValueError, match="malformed universe data"):
            fib.universe_from_data(data)

    def test_load_universe_reads_a_written_file(self, tmp_path):
        u = fib.default_universe()
        data = fib.universe_to_data(u)
        good = tmp_path / "universe.json"
        good.write_text(json.dumps(data), encoding="utf-8")
        back = fib.load_universe(str(good))
        assert (back.policy, back.objs0, back.objs1) == (u.policy, u.objs0, u.objs1)
        # only rey and crey are policies
        gone = tmp_path / "strict.json"
        gone.write_text(json.dumps(dict(data, policy="strict")), encoding="utf-8")
        with pytest.raises(ValueError, match="malformed universe data"):
            fib.load_universe(str(gone))


class TestEnvL:
    def test_witnessed_relations_are_rejected(self):
        with pytest.raises(ValueError, match="cannot hold"):
            fib.EnvL(1, (cm.weq(fin_set([0])),))

    def test_level_two_is_rejected(self):
        with pytest.raises(ValueError, match="level must be 0 or 1"):
            fib.EnvL(2, ())


class TestRoundtripSearch:
    u = fib.default_universe()
    endo = fib.FArrow(fib.FProj(1, 0), fib.FProj(1, 0))
    law = "adjunction: non-uniform counterexample search"

    def test_a_capped_search_is_a_skip(self):
        # one endomorphism of {0} times four of {0,1}: four candidates
        rep = fib.adhoc_roundtrip_search(self.u, self.endo, cap=3)
        assert [f.row() for f in rep.findings] == [{
            "law": self.law, "passed": True, "status": "skip",
            "detail": "skipped: 4 candidates exceed the cap of 3"}]

    def test_a_search_within_the_cap_is_a_pass(self):
        rep = fib.adhoc_roundtrip_search(self.u, self.endo, cap=4)
        assert [(f.law, f.status) for f in rep.findings] == [(self.law, "pass")]
        assert rep.findings[0].detail.startswith("no counterexample")
