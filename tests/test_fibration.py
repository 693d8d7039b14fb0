"""The λ2-fibration's law suite and its reports."""

import itertools
import json
import os
import pathlib
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

import oracles
import verdict_rows
from param_workbench import cubemodel as cm
from param_workbench import fibration as fib
from param_workbench import interp
from param_workbench.finmodel import (
    IsoPolicy,
    apply_label,
    bang1,
    eq_rel,
    eval1,
    expo0,
    fin_set,
    fn,
    fn_compose,
    fn_id,
    fn_label,
    fst1,
    graph_rel,
    lambda1,
    pair1,
    rel_mor_id,
    snd1,
)

ROUNDTRIP = "adjunction: instantiated packaging is the identity"


@pytest.mark.parametrize("bound", verdict_rows.FIB_BOUNDS)
@pytest.mark.parametrize("policy", list(IsoPolicy))
def test_fibration_suite_passes(policy, bound):
    # at bound 1 every carrier has at most one element, so the two
    # selectors of ∀a. a→a→a coincide and one family is expected
    rep = fib.fibration_suite(policy, bound, rounds=1)
    assert rep.ok, [f.row() for f in rep.failures]
    selectors = 2 if bound >= 2 else 1
    laws = [f.law for f in rep.findings]
    assert f"quantifier: {selectors} selector families" in laws
    assert laws.count(ROUNDTRIP) == 1
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


P1, P2 = fib.FProj(1, 0), fib.FProj(2, 1)
# trees the stock pools lack: an arrow out of an arrow or a quantifier,
# and quantifiers whose bodies mention the outer slot
RELATED_EXTRA = {
    1: [fib.FArrow(fib.FArrow(P1, P1), P1),
        fib.FArrow(fib.FForall(fib.FArrow(P2, P2)), P1),
        fib.FForall(fib.FArrow(P2, fib.FProj(2, 0))),
        fib.FForall(fib.FProd(fib.FProj(2, 0), fib.FArrow(P2, P2)))],
    2: [],
}


@pytest.mark.parametrize("policy", list(IsoPolicy))
@pytest.mark.parametrize("arity", [1, 2])
def test_related_agrees_with_the_listed_relation(policy, arity):
    """Deciding relatedness on the tree gives the materialized level-1
    value's answer on every pair of the two faces' level-0 values."""
    u = fib.default_universe(policy)
    for t in fib.stock_type_functors(arity) + RELATED_EXTRA[arity]:
        for env in fib.probe_envs(u, arity, 1):
            listed = fib.evaluate(t, env, u)
            xs = fib.evaluate(t, fib.EnvL(0, tuple(r.dom for r in env.entries)), u)
            ys = fib.evaluate(t, fib.EnvL(0, tuple(r.cod for r in env.entries)), u)
            for x in xs:
                for y in ys:
                    assert (fib.related(t, env.entries, x, y, u)
                            == listed.holds(x, y)), (t, env.entries, x, y)


@pytest.mark.parametrize("policy", list(IsoPolicy))
def test_families_into_a_fixed_carrier_are_its_elements(policy):
    """∀b. b→a ≅ a: a family is constant at every probe, and the graphs
    between different carriers force all probes to one constant."""
    u = fib.default_universe(policy)
    into = fib.FArrow(fib.FProj(2, 1), fib.FProj(2, 0))
    for a in u.objs0:
        fams = fib.forall0_value(into, (a,), u)
        assert len(fams) == len(a), (a, fams)


BOUND3 = textwrap.dedent("""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    from param_workbench import fibration as fib
    from param_workbench import interp
    from param_workbench import systemf as sf
    from param_workbench.finmodel import IsoPolicy, apply_label

    u = fib.graph_universe((1, 2, 3))
    a = fib.FProj(1, 0)
    body = fib.FArrow(a, fib.FArrow(a, a))
    fams = fib.forall0_value(body, (), u)
    picks = set()
    for fam in fams:
        pick = {0, 1}
        for carrier, lbl in zip(u.objs0, fam[1]):
            for x in carrier:
                for y in carrier:
                    z = apply_label(apply_label(lbl, x), y)
                    pick &= {i for i, w in enumerate((x, y)) if w == z}
        picks.add(frozenset(pick))
    assert len(fams) == 2 and picks == {frozenset({0}), frozenset({1})}, fams
    rel = fib.forall1_value(body, (), u)
    assert rel.entries == tuple((f, f) for f in fams), rel.entries
    rep = interp.iel_check(sf.parse_type_str("forall a. a -> a -> a"), u=u)
    assert rep.ok and rep.findings, [f.row() for f in rep.failures]
    for src in (r"/\\a. \\x:a. \\y:a. x", r"/\\a. \\x:a. \\y:a. y"):
        rep = interp.abstraction_check(sf.parse_term_str(src), u=u)
        assert rep.ok and rep.findings, [f.row() for f in rep.failures]
    crey = fib.graph_universe((1, 2, 3), IsoPolicy.CREY)
    assert len(fib.forall0_value(body, (), crey)) == 2
    numeral = fib.FArrow(fib.FArrow(a, a), fib.FArrow(a, a))
    church = sf.parse_type_str("forall a. (a -> a) -> a -> a")
    for v in (u, crey):
        # the numerals 0-7 differ on these carriers, and with graph probes
        # alone 7 families that are no numeral survive beside them
        assert len(fib.forall0_value(numeral, (), v)) == 15
        rep = interp.iel_check(church, u=v)
        assert rep.ok and rep.findings, [f.row() for f in rep.failures]
""")


def test_church_booleans_over_three_element_carriers():
    """Over carriers of up to three elements, with the graph of every
    function between them, ∀a. a→a→a denotes exactly the two
    projections, relates each only to itself, and passes identity
    extension; tru and fls pass the abstraction check; under CREY the
    type still has two families; and ∀a.(a→a)→a→a has its families
    found entry by entry and passes identity extension under both
    policies; all within 1 GiB of address space in a child process,
    which runs under the parent's hash seed."""
    src = pathlib.Path(fib.__file__).resolve().parents[1]
    env = {"PYTHONPATH": str(src), "PATH": ""}
    if "PYTHONHASHSEED" in os.environ:
        env["PYTHONHASHSEED"] = os.environ["PYTHONHASHSEED"]
    out = subprocess.run([sys.executable, "-c", BOUND3], capture_output=True,
                         text=True, timeout=300, env=env)
    assert out.returncode == 0, out.stderr[-2000:]


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

    def test_adding_nothing_new_keeps_the_universe_and_its_memo(self):
        u = fib.default_universe()
        assert u.extended() is u
        swap = graph_rel(fn(self.a2, self.a2, lambda x: 1 - x))
        assert u.extended([self.a2], [swap, eq_rel(self.a2)]) is u
        assert u.extended(relations=[self.cycle]) is not u

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
        act = oracles.evaluate_mor(self.endo, (self.sigma,), self.u)
        back = oracles.fn_inverse(self.sigma)
        assert act.dom == act.cod == expo0(self.a3, self.a3)
        for lbl in act.dom:
            table = fn(self.a3, self.a3, lambda x: apply_label(lbl, x))
            assert act(lbl) == fn_label(
                fn_compose(self.sigma, fn_compose(table, back)))
        ident = fn_label(fn_id(self.a3))
        assert act(ident) == ident

    def test_level_one_transports_are_rejected(self):
        with pytest.raises(ValueError):
            oracles.evaluate_mor(self.endo, (rel_mor_id(eq_rel(self.a3)),), self.u)


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
            fib.relation_from_data(data["relations"][0])

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


SELECTORS = fib.FArrow(P1, fib.FArrow(P1, P1))
NUMERAL = fib.FArrow(fib.FArrow(P1, P1), fib.FArrow(P1, P1))


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("policy", list(IsoPolicy))
def test_families_agree_with_the_componentwise_oracle(policy, bound):
    """Propagation finds exactly the per-probe element choices that form
    a transformation from the weakened unit, in the same order; the
    largest search here, (a→a)→a→a at bound 2, has 256 candidates."""
    u = fib.graph_universe(tuple(range(1, bound + 1)), policy)
    for body in fib.stock_type_functors(1) + [NUMERAL]:
        assert (oracles.componentwise_families(u, body)
                == list(fib.forall0_value(body, (), u).elements)), body


def test_a_search_without_endomorphism_constraints_fails_the_oracle(monkeypatch):
    """Dropping the constraints of every probe relation from a probe to
    itself (its equality and the graphs of its endomorphisms) leaves the
    numeral body 16 families over graphs at bound 2, not 4."""
    real = fib._probe_relations
    monkeypatch.setattr(fib, "_probe_relations",
                        lambda u: [(r, i, j) for r, i, j in real(u) if i != j])
    with pytest.raises(AssertionError):
        test_families_agree_with_the_componentwise_oracle(IsoPolicy.REY, 2)


@pytest.mark.parametrize("bound", [2, 3])
def test_transport_agrees_with_the_tabulated_action(bound):
    """Moving one element along a bijection gives that element's entry
    in the action tabulated node by node, for every CREY bijection on
    every stock one-slot tree (and the numeral body at bound 2, whose
    action there lists 256 tables)."""
    u = fib.graph_universe(tuple(range(1, bound + 1)), IsoPolicy.CREY)
    for t in fib.stock_type_functors(1) + ([NUMERAL] if bound == 2 else []):
        for i in u.isos0:
            table = oracles.tabulated_action(t, (i,), u)
            assert all(fib.transport(t, (i,), x, u) == y
                       for x, y in table.table), (t, i)
            assert oracles.evaluate_mor(t, (i,), u) == table, (t, i)


def test_a_component_that_raises_is_not_kept():
    calls = []

    def comp(env):
        calls.append(env)
        raise fib.ClosureError("not a probe")

    nat = fib.NatRep(P1, P1, comp, fib.default_universe())
    for _ in range(2):
        with pytest.raises(fib.ClosureError):
            nat.at(fib.EnvL(0, (fin_set([0]),)))
    assert len(calls) == 2


@pytest.mark.parametrize("policy", list(IsoPolicy))
def test_forced_components_are_the_level_one_formers(policy):
    """At every level-1 probe environment the fiber CCC's components,
    forced by their faces, are what finmodel's level-1 formers build
    from the trees' values there (two arrows would make ev list a
    1,024-element carrier)."""
    u = fib.graph_universe((1, 2), policy)
    ccc = fib.FiberCcc(1, u)
    for x, y in itertools.permutations((P1, fib.FUnit(1), fib.FArrow(P1, P1)), 2):
        cases = [
            (ccc.bang(x), lambda r, s: bang1(r)),
            (ccc.p1(x, y), fst1),
            (ccc.p2(x, y), snd1),
            (ccc.swap(x, y), lambda r, s: pair1(snd1(r, s), fst1(r, s))),
            (ccc.ev(x, y), eval1),
            (ccc.lam(ccc.p2(x, y)), lambda r, s: lambda1(snd1(r, s), r, s)),
        ]
        for env in fib.probe_envs(u, 1, 1):
            r, s = fib.evaluate(x, env, u), fib.evaluate(y, env, u)
            for nat, former in cases:
                assert nat.at(env) == former(r, s), (nat.name, x, y, env)


@pytest.mark.parametrize("level", [0, 1])
def test_transpose_reads_each_component_once(level):
    """Packaging a transformation asks for its component at each
    (environment, probe) once, however many elements it moves: here
    the two families of ∀a. a→a→a."""
    u = fib.default_universe()
    inst = fib.counit(SELECTORS, u)
    calls = Counter()

    def comp(env):
        calls[env] += 1
        return inst.component(env)

    eta = fib.NatRep(inst.source, inst.target, comp, u, "counted")
    packed = fib.transpose(fib.FForall(SELECTORS), SELECTORS, eta, u)
    assert len(fib.forall0_value(SELECTORS, (), u)) == 2
    packed.at(fib.EnvL(level, ()))
    packed.at(fib.EnvL(level, ()))
    assert len(calls) == len(u.objs0) and set(calls.values()) == {1}, calls


@pytest.mark.parametrize("policy", list(IsoPolicy))
def test_endomorphisms_round_trip_over_three_element_carriers(policy):
    # the body fibration_suite checks, at the bound the frozen rows lack
    u = fib.graph_universe((1, 2, 3), policy)
    rep = fib.adjunction_roundtrip(u, fib.FArrow(P1, P1), fib.Report())
    assert [(f.law, f.status) for f in rep.findings] == [(ROUNDTRIP, "pass")]


def test_a_collapsing_transpose_fails_the_round_trip(monkeypatch):
    """A transpose that sends everything to one family passes the first
    triangle identity on a→a, which has one family, but not the round
    trip on ∀a. a→a→a, which has two, under either iso policy."""
    universes = [fib.graph_universe((1, 2), policy) for policy in IsoPolicy]
    for u in universes:
        assert fib.adjunction_roundtrip(u, SELECTORS, fib.Report()).ok

    def collapse(f, g, eta, u):
        def comp(env):
            fams = fib.forall0_value(g, env.entries, u)
            return fn(fib.evaluate(f, env, u), fams, lambda _: fams.elements[0])
        return fib.NatRep(f, fib.FForall(g), comp, u, "collapse")

    monkeypatch.setattr(fib, "transpose", collapse)
    rows = fib.fibration_suite(IsoPolicy.REY, 2, rounds=1).findings
    assert ("adjunction: repackaged instantiation is the identity", "pass") in [
        (f.law, f.status) for f in rows]
    for u in universes:
        rep = fib.adjunction_roundtrip(u, SELECTORS, fib.Report())
        assert [(f.law, f.status) for f in rep.findings] == [(ROUNDTRIP, "fail")]
        assert rep.findings[0].detail.startswith(
            "1 of 2 families do not round-trip")
