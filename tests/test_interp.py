"""The interpretation of System F and the three checkers built on it."""

import pathlib

import pytest

from param_workbench import cubemodel as cm
from param_workbench import fibration as fib
from param_workbench import interp
from param_workbench import systemf as sf
from param_workbench.fibration import EnvL, FArrow, FProd, FProj, FUnit, NatRep
from param_workbench.finmodel import fin_set, fn, fn_label

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
DEFS = {d.name: d for path in sorted(CORPUS.glob("*.sysf"))
        for d in sf.parse_program(path.read_text())}

A1 = fin_set([0])
A2 = fin_set([0, 1])
W0, W1 = ("w", 0), ("w", 1)

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

# abstraction_check(swap_units) takes seconds; the rest take well under
SLOW_ABSTRACTION = {"swap_units"}


def _verdicts(rep):
    return [f.detail for f in rep.findings if f.law == "verdict"]


class TestCorpusVerdicts:
    @pytest.mark.parametrize("name", sorted(VERDICTS))
    def test_free_theorem_classification(self, name):
        rep = interp.free_theorem_check(DEFS[name].term)
        assert rep.ok, [f.row() for f in rep.failures]
        assert _verdicts(rep) == [VERDICTS[name]]

    @pytest.mark.parametrize("name", sorted(set(DEFS) - SLOW_ABSTRACTION))
    def test_abstraction_check_passes(self, name):
        rep = interp.abstraction_check(DEFS[name].term, u=fib.default_universe())
        assert rep.ok, [f.row() for f in rep.failures]
        assert rep.findings

    @pytest.mark.parametrize("name", sorted(DEFS))
    def test_iel_check_passes(self, name):
        rep = interp.iel_check(DEFS[name].declared, u=fib.default_universe())
        assert rep.ok, [f.row() for f in rep.failures]
        assert rep.findings


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


class TestMutation:
    def test_perturbed_component_is_pinpointed(self):
        # a ⊢ λx:a. x, with its level-0 component at {0,1} replaced by
        # the swap: naturality under REY only sees identities, but the
        # degeneracy square at {0,1} and the faces over it must fail
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

        bad = NatRep(good.source, good.target, comp, u, "bad")
        assert fib.validate_nat(good, u).ok
        rep = fib.validate_nat(bad, u)
        laws = [f.law for f in rep.failures]
        assert "bad: degeneracy at ({0,1})" in laws
        assert any(law.startswith("bad: faces at") for law in laws)
        assert all("{0,1}" in law for law in laws)


class TestEvaluateRows:
    """The witnessed level-1 and the level-2 rows of evaluate."""

    r = cm.wrel(A1, A2, {(0, 0): (W0,), (0, 1): (W0, W1)})
    s = cm.weq(A1)

    def test_witnessed_level_one(self):
        env = EnvL(1, (self.r, self.s))
        x, y = FProj(2, 0), FProj(2, 1)
        assert fib.evaluate(FUnit(2), env) == cm.wunit_rel()
        assert fib.evaluate(FProd(x, y), env) == cm.wprod(self.r, self.s)
        assert fib.evaluate(FArrow(x, y), env) == cm.wexpo(self.r, self.s)
        assert fib.evaluate(FArrow(y, x), env) == cm.wexpo(self.s, self.r)

    def test_level_two(self):
        q1 = cm.degen2("horizontal", self.s)
        q2 = cm.degen2("vertical", cm.weq(A2))
        env = EnvL(2, (q1, q2))
        x, y = FProj(2, 0), FProj(2, 1)
        assert fib.evaluate(FUnit(2), env) == cm.squnit()
        assert fib.evaluate(FProd(x, y), env) == cm.sqprod(q1, q2)
        assert fib.evaluate(FArrow(x, x), env) == cm.sqexpo(q1, q1)

    def test_empty_level_two_environment_reads_squares(self):
        assert fib.evaluate(FUnit(0), EnvL(2, ())) == cm.squnit()
