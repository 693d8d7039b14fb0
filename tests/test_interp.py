"""The interpretation of System F and the three checkers built on it."""

import pytest

import verdict_rows
from param_workbench import fibration as fib
from param_workbench import interp
from param_workbench import systemf as sf
from param_workbench.fibration import EnvL, NatRep
from param_workbench.finmodel import (
    IsoPolicy,
    PropRel,
    PropRelMor,
    eq_rel,
    fin_set,
    fn,
    fn_id,
    fn_label,
    graph_rel,
    rel,
)

DEFS = verdict_rows.corpus_defs()

A1 = fin_set([0])
A2 = fin_set([0, 1])
A3 = fin_set([0, 1, 2])
# a non-identity function graph on a carrier no default probe has
CYCLE3 = graph_rel(fn(A3, A3, lambda x: (x + 1) % 3))

# the free-theorem classification of the two flagship shapes: the
# Church booleans are the two projections, and every spelling of the
# polymorphic identity is the identity
VERDICTS = {
    "tru": "first projection",
    "fls": "second projection",
    "id": "identity",
    "id_inst": "identity",
    "id_redex": "identity",
    "polyid": "identity",
    "idid": "identity",
}


def _verdicts(rep):
    return [f.detail for f in rep.findings if f.law == "verdict"]


class TestCorpusVerdicts:
    """Each report passes, and its rows are the frozen ones."""

    @pytest.mark.parametrize("name", verdict_rows.quantified(DEFS))
    def test_free_theorem_classification(self, name):
        rep = interp.free_theorem_check(DEFS[name].term)
        assert rep.ok, [f.row() for f in rep.failures]
        assert _verdicts(rep) == ([VERDICTS[name]] if name in VERDICTS else [])
        assert verdict_rows.rows(rep) == verdict_rows.frozen(
            f"free_theorem_check:{name}")

    @pytest.mark.parametrize("name", sorted(DEFS))
    def test_abstraction_check_passes(self, name):
        rep = interp.abstraction_check(DEFS[name].term, u=fib.default_universe())
        assert rep.ok, [f.row() for f in rep.failures]
        assert rep.findings
        assert verdict_rows.rows(rep) == verdict_rows.frozen(
            f"abstraction_check:{name}")

    @pytest.mark.parametrize("name", sorted(DEFS))
    def test_iel_check_passes(self, name):
        rep = interp.iel_check(DEFS[name].declared, u=fib.default_universe())
        assert rep.ok, [f.row() for f in rep.failures]
        assert rep.findings
        assert verdict_rows.rows(rep) == verdict_rows.frozen(f"iel_check:{name}")


class TestSuppliedRelations:
    def test_abstraction_check_carries_a_graph_on_a_fresh_carrier(self,
                                                                 monkeypatch):
        seeds = []
        real = interp.closure_for_term

        def spy(t, seed):
            seeds.append(seed)
            return real(t, seed)

        monkeypatch.setattr(interp, "closure_for_term", spy)
        rep = interp.abstraction_check(DEFS["id"].term, rel_env=[CYCLE3],
                                       u=fib.default_universe())
        assert rep.ok, [f.row() for f in rep.failures]
        carries = [f for f in rep.findings if " carries " in f.law]
        assert [(f.law.split(" carries ")[1], f.status) for f in carries] == [
            ("{(0,1),(1,2),(2,0)} on {0,1,2}->{0,1,2}", "pass")]
        u = seeds[0]
        assert A3 in u.objs0
        assert eq_rel(A3) in u.objs1 and CYCLE3 in u.objs1

    def test_free_theorem_check_at_a_graph(self):
        rep = interp.free_theorem_check(DEFS["tru"].term, relations=[CYCLE3])
        assert rep.ok, [f.row() for f in rep.failures]
        assert [f.law for f in rep.findings if f.law.startswith("related")] == [
            "related to itself at {(0,1),(1,2),(2,0)}"]


class TestSkips:
    def test_unenumerable_arguments_are_skips(self):
        rep = interp.free_theorem_check(DEFS["twice"].term)
        assert rep.ok
        assert len(rep.findings) == 20
        assert len(rep.skips) == 10
        assert all(f.row()["status"] == "skip" for f in rep.skips)
        assert all(f.detail.startswith("skipped: argument type")
                   for f in rep.skips)

    def test_closure_refusal_is_a_skip(self):
        rep = interp.abstraction_check(DEFS["idid"].term, u=fib.default_universe())
        assert rep.ok
        assert [f.law for f in rep.skips] == ["universe closure for the term"]
        assert rep.skips[0].detail.startswith("skipped: ")

    def test_checked_findings_are_not_skips(self):
        rep = interp.free_theorem_check(DEFS["tru"].term)
        assert rep.skips == []
        assert {f.status for f in rep.findings} == {"pass"}


class TestProbeArguments:
    def test_an_argument_whose_relation_is_no_probe_is_refused(self):
        # F a = (a → ∀c.c) → ∀c.c, under a ⊢ (Λb. λx:b. x) [F a].  With
        # ∅ a probe, ∀c.c is empty, so F sends ∅ to ∅ and every other
        # carrier to S = {the empty function}: every level-0 value is a
        # probe.  At the empty relation ∅ -> {0}, F is the empty relation
        # ∅ -> S, which is not.
        empty = fin_set([])
        s = fin_set([("fn", ())])
        u = fib.make_universe(
            IsoPolicy.REY, (empty, A1, s),
            (eq_rel(empty), eq_rel(A1), eq_rel(s), rel(empty, A1, [])))
        bottom = sf.ForallT(sf.TVar(0))
        arg = sf.ArrowT(sf.ArrowT(sf.TVar(0), bottom), bottom)
        poly_id = sf.TyLam(sf.Lam(sf.TVar(0), sf.Var(0)))
        with pytest.raises(fib.ClosureError, match="at level 1, "):
            interp.interp_term(1, (), sf.TyApp(poly_id, arg), u)


class TestMutation:
    def test_perturbed_component_is_pinpointed(self):
        # a ⊢ λx:a. x, with its level-0 component at {0,1} replaced by
        # the swap: naturality under REY only sees identities, but the
        # level-1 components over the constant graphs into {0,1} cannot
        # exist, and their absence is a finding, not an exception
        u = fib.default_universe()
        lam = sf.Lam(sf.TVar(0), sf.Var(0))
        good = interp.interp_term(1, (), lam, u)
        swap = fn_label(fn(A2, A2, lambda v: 1 - v))
        bad_env = EnvL(0, (A2,))

        def comp(env: EnvL):
            out = good.at(env)
            if env == bad_env:
                return fn(out.dom, out.cod, lambda _: swap)
            return out

        bad = NatRep(1, good.source, good.target, comp, u, "bad")
        assert fib.validate_nat(good).ok
        rep = fib.validate_nat(bad)
        laws = [f.law for f in rep.failures]
        assert len(laws) == len(set(laws)) == 4
        assert all(law.startswith("bad: faces at") and "->{0,1})" in law
                   for law in laws)
        assert all(f.detail.startswith("no level-1 component at")
                   for f in rep.failures)
        with pytest.raises(fib.ComponentError,
                           match=r"at \(rel\{\(0,1\)\}@\{0\}->\{0,1\}\)"):
            bad.at(EnvL(1, (graph_rel(fn(A1, A2, lambda _: 1)),)))
        # compared, the mutant differs at level 0; against itself its
        # level 0 agrees and its missing level-1 component is the answer
        assert fib.nats_agree(bad, good) == "components differ at ({0,1})"
        assert fib.nats_agree(bad, bad).startswith(
            "no level-1 component at (rel{(0,0)}@{0}->{0,1})")

    def test_comparison_swapping_labels_breaks_degeneracy(self, monkeypatch):
        # the comparison of a → a at {0,1} with legs exchanging the
        # identity and the swap: only the degeneracy square of λx:a. x
        # at {0,1} reads it
        u = fib.default_universe()
        good = interp.interp_term(1, (), sf.Lam(sf.TVar(0), sf.Var(0)), u)
        ident, swap = fn_label(fn_id(A2)), fn_label(fn(A2, A2, lambda v: 1 - v))
        real = fib.epsilon_of

        def epsilon_of(f, env, u):
            out = real(f, env, u)
            if f != good.target or tuple(env) != (A2,):
                return out
            trade = {ident: swap, swap: ident}
            leg = fn(out.f.dom, out.f.cod, lambda x: trade.get(x, x))
            return PropRelMor(out.src, out.tgt, leg, leg)

        monkeypatch.setattr(fib, "epsilon_of", epsilon_of)
        rep = fib.validate_nat(good)
        assert [f.law for f in rep.failures] == [
            f"{good.name}: degeneracy at ({{0,1}})"]

    @staticmethod
    def _iel_with_expo1(monkeypatch, change):
        """iel_check(a → a) with fibration's exponential of relations
        passed through change at the equality on {0,1}."""
        real = fib.expo1

        def expo1(r, s):
            out = real(r, s)
            return change(out) if r.dom == A2 == s.dom else out

        monkeypatch.setattr(fib, "expo1", expo1)
        endo = sf.ArrowT(sf.TVar(0), sf.TVar(0))
        return interp.iel_check(endo, u=fib.default_universe())

    def test_comparison_missing_a_pair_does_not_exist(self, monkeypatch):
        ident = fn_label(fn_id(A2))

        def drop(out: PropRel) -> PropRel:
            return rel(out.dom, out.cod,
                       [p for p in out.entries if p != (ident, ident)])

        rep = self._iel_with_expo1(monkeypatch, drop)
        laws = [f.law for f in rep.failures]
        assert laws == ["iel a -> a at ({0,1}): comparison exists"]

    def test_comparison_with_an_extra_pair_is_not_an_iso(self, monkeypatch):
        const0 = fn_label(fn(A2, A2, lambda _: 0))

        def add(out: PropRel) -> PropRel:
            return rel(out.dom, out.cod,
                       out.entries + ((const0, fn_label(fn_id(A2))),))

        rep = self._iel_with_expo1(monkeypatch, add)
        laws = [f.law for f in rep.failures]
        assert "iel a -> a at ({0,1}): witness action is a bijection" in laws
        assert all("({0,1})" in law for law in laws)



def _answer_once(monkeypatch, name: str, args: tuple, out) -> None:
    """sf.unormalize, but with the erased normal form of the named
    definition applied to args answered by out."""
    real = sf.unormalize
    target = real(sf.erase(DEFS[name].term))
    for a in args:
        target = sf.UApp(target, a)
    monkeypatch.setattr(sf, "unormalize", lambda t, fuel=None: (
        out if t is target else real(t, fuel)))


def _failed(rep) -> list:
    return [(f.law, f.detail) for f in rep.failures]


# the element 3 of {0,1,2,3}: only that carrier has it, so one finding
# reads what the patched normal form answers there
THREE, TWO = interp._atom(0, 3), interp._atom(0, 2)
AT_ZERO = [rel(A1, A1, [(0, 0)])]


class TestErasedWitnesses:
    @pytest.mark.parametrize("out, why", [
        (THREE, f"values are not pairs: {THREE!r} / {THREE!r}"),
        (sf.UPair(sf.UUnit(), sf.UUnit()), "values are not carrier atoms: "
         f"{sf.UUnit()!r} / {sf.UUnit()!r}"),
        (sf.UPair(TWO, TWO), "(2, 2) is not in the relation")])
    def test_a_wrong_value_fails_one_relational_finding(self, monkeypatch, out, why):
        _answer_once(monkeypatch, "diag", (THREE,), out)
        rep = interp.free_theorem_check(DEFS["diag"].term)
        assert _failed(rep) == [("related to itself at {(3,3)}",
                                 f"at arguments ({THREE!r}, {THREE!r}): {why}")]

    def test_a_moved_element_fails_the_identity_classification(self, monkeypatch):
        # the verdict summarises the per-carrier findings, so it fails too
        _answer_once(monkeypatch, "id", (THREE,), TWO)
        rep = interp.free_theorem_check(DEFS["id"].term, relations=AT_ZERO)
        mism = f"image of 3 is {TWO!r}"
        assert _failed(rep) == [
            ("acts as the identity on {0,1,2,3}", mism),
            ("verdict", f"unclassified: {{0,1,2,3}}: {mism}")]

    def test_a_third_answer_fails_the_projection_classification(self, monkeypatch):
        _answer_once(monkeypatch, "tru", (THREE, TWO), interp._atom(0, 1))
        rep = interp.free_theorem_check(DEFS["tru"].term, relations=AT_ZERO)
        cex = f"image of (3, 2) is {interp._atom(0, 1)!r}"
        assert _failed(rep) == [("projects one argument on {0,1,2,3}", cex),
                                ("verdict", f"unclassified: {cex}")]


class TestNormalizedOnce:
    @pytest.mark.parametrize("name", ["konst", "swap2"])
    def test_no_term_is_normalized_twice(self, monkeypatch, name):
        # at the parent each diagonal {(a, a)} normalized its application
        # twice (lhs and rhs are one term), and once more per carrier
        seen = []
        real = sf.unormalize
        monkeypatch.setattr(sf, "unormalize", lambda t, fuel=None: (
            seen.append(t) or real(t, fuel)))
        rep = interp.free_theorem_check(DEFS[name].term)
        assert rep.ok and len(seen) > 1
        assert len(seen) == len(set(seen))


class TestRelationData:
    @pytest.mark.parametrize("item", [
        {"dom": [0], "cod": [0]},
        5,
        {"dom": [0], "cod": [0], "pairs": 5},
    ], ids=["no pairs", "not an object", "pairs not a list"])
    def test_malformed_relations_raise_value_error(self, item):
        with pytest.raises(ValueError, match="malformed relation data"):
            fib.relation_from_data(item)
