"""System F front end: parsing, typing, normalization, erasure."""

from __future__ import annotations

import itertools
import pathlib
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from param_workbench import systemf as sf
from param_workbench.systemf import (
    App, ArrowT, ForallT, Fst, Lam, Pair, ProdT, Snd, TVar, TyApp, TyLam,
    UApp, UFst, ULam, UnitT, UnitV, UPair, UUnit, UVar, Var,
)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def corpus_definitions():
    defs = []
    for path in sorted(CORPUS.glob("*.sysf")):
        defs.extend(sf.parse_program(path.read_text()))
    return defs

DEFS = corpus_definitions()
ID = TyLam(Lam(TVar(0), Var(0)))


# ---------------------------------------------------------------------------
# strategies: well-scoped (not necessarily well-typed) syntax
# ---------------------------------------------------------------------------

@st.composite
def scoped_types(draw, depth=0, size=5):
    choices = ["unit"]
    if depth:
        choices += ["var", "var"]
    if size > 1:
        choices += ["prod", "arrow", "forall"]
    pick = draw(st.sampled_from(choices))
    if pick == "unit":
        return UnitT()
    if pick == "var":
        return TVar(draw(st.integers(0, depth - 1)))
    if pick == "forall":
        return ForallT(draw(scoped_types(depth + 1, size - 1)))
    left = draw(scoped_types(depth, size // 2))
    right = draw(scoped_types(depth, size // 2))
    return ProdT(left, right) if pick == "prod" else ArrowT(left, right)


@st.composite
def scoped_terms(draw, tydepth=0, tmdepth=0, size=6):
    choices = ["unit"]
    if tmdepth:
        choices += ["var", "var"]
    if size > 1:
        choices += ["lam", "app", "pair", "fst", "snd", "tylam", "tyapp"]
    pick = draw(st.sampled_from(choices))
    if pick == "unit":
        return UnitV()
    if pick == "var":
        return Var(draw(st.integers(0, tmdepth - 1)))
    if pick == "lam":
        annot = draw(scoped_types(tydepth, 3))
        return Lam(annot, draw(scoped_terms(tydepth, tmdepth + 1, size - 1)))
    if pick == "tylam":
        return TyLam(draw(scoped_terms(tydepth + 1, tmdepth, size - 1)))
    if pick == "tyapp":
        fn = draw(scoped_terms(tydepth, tmdepth, size - 1))
        return TyApp(fn, draw(scoped_types(tydepth, 3)))
    if pick == "fst":
        return Fst(draw(scoped_terms(tydepth, tmdepth, size - 1)))
    if pick == "snd":
        return Snd(draw(scoped_terms(tydepth, tmdepth, size - 1)))
    left = draw(scoped_terms(tydepth, tmdepth, size // 2))
    right = draw(scoped_terms(tydepth, tmdepth, size // 2))
    return Pair(left, right) if pick == "pair" else App(left, right)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class TestParse:
    def test_identity_type(self):
        assert sf.parse_type_str("forall a. a -> a") == ForallT(ArrowT(TVar(0), TVar(0)))

    def test_polymorphic_identity(self):
        assert sf.parse_term_str("/\\a. \\x:a. x") == ID

    def test_two_point_type(self):
        got = sf.parse_type_str("forall a. a -> a -> a")
        assert got == ForallT(ArrowT(TVar(0), ArrowT(TVar(0), TVar(0))))

    def test_arrow_right_associative(self):
        assert sf.parse_type_str("unit -> unit -> unit") == \
            ArrowT(UnitT(), ArrowT(UnitT(), UnitT()))

    def test_product_binds_tighter(self):
        assert sf.parse_type_str("unit * unit -> unit") == \
            ArrowT(ProdT(UnitT(), UnitT()), UnitT())

    def test_product_right_associative(self):
        got = sf.parse_type_str("forall a. a * a * a")
        assert got == ForallT(ProdT(TVar(0), ProdT(TVar(0), TVar(0))))

    def test_application_left_associative(self):
        got = sf.parse_term_str("\\x:(unit -> unit -> unit). x () ()")
        assert got.body == App(App(Var(0), UnitV()), UnitV())

    def test_type_application_in_spine(self):
        got = sf.parse_term_str("(/\\a. \\x:a. x) [unit] ()")
        assert got == App(TyApp(ID, UnitT()), UnitV())

    def test_fst_snd_prefix(self):
        got = sf.parse_term_str("fst snd ((), ((), ()))")
        assert got == Fst(Snd(Pair(UnitV(), Pair(UnitV(), UnitV()))))

    def test_shadowing_resolves_innermost(self):
        got = sf.parse_term_str("\\x:unit. \\x:unit. x")
        assert got == Lam(UnitT(), Lam(UnitT(), Var(0)))

    def test_comments_and_blank_lines(self):
        defs = sf.parse_program("# header\n\nv : unit = ()  # trailing\n")
        assert [d.name for d in defs] == ["v"]
        assert defs[0].term == UnitV()

    def test_syntax_error_carries_position(self):
        with pytest.raises(sf.SyntaxFError) as exc:
            sf.parse_type_str("forall a. a ->")
        assert exc.value.line == 1
        assert exc.value.col == 15

    def test_unbound_identifier(self):
        with pytest.raises(sf.SyntaxFError, match="unbound"):
            sf.parse_term_str("\\x:unit. y")

    def test_unbound_type_variable(self):
        with pytest.raises(sf.SyntaxFError, match="unbound type"):
            sf.parse_type_str("forall a. b")

    def test_definitions_inline_earlier_names(self):
        defs = sf.parse_program(
            "i : forall a. a -> a = /\\a. \\x:a. x\n"
            "j : unit -> unit = i [unit]\n")
        assert defs[1].term == TyApp(ID, UnitT())

    def test_program_checks_declared_types(self):
        with pytest.raises(sf.TypecheckError):
            sf.parse_program("v : unit -> unit = ()\n")


class TestPrettyRoundTrip:
    def test_corpus_terms(self):
        for d in DEFS:
            assert sf.parse_term_str(sf.pretty_term(d.term)) == d.term

    def test_corpus_types(self):
        for d in DEFS:
            assert sf.parse_type_str(sf.pretty_type(d.declared)) == d.declared

    @given(scoped_types())
    def test_random_types(self, ty):
        assert sf.parse_type_str(sf.pretty_type(ty)) == ty

    @given(scoped_terms())
    def test_random_terms(self, t):
        assert sf.parse_term_str(sf.pretty_term(t)) == t


class TestPrettyUnchanged:
    """The explicit-stack printers print what one recursive call per
    node prints."""

    def test_corpus(self):
        for d in DEFS:
            assert sf.pretty_term(d.term) == oracles.recursive_pretty_term(d.term)
            assert sf.pretty_type(d.declared) == \
                oracles.recursive_pretty_type(d.declared)
            nf = sf.normalize(d.term)
            assert sf.pretty_term(nf) == oracles.recursive_pretty_term(nf)

    @given(scoped_terms(tydepth=1, tmdepth=1))
    def test_random_open_terms(self, t):
        assert sf.pretty_term(t, 1, 1) == oracles.recursive_pretty_term(t, 1, 1)

    @given(scoped_types(depth=1))
    def test_random_open_types(self, ty):
        assert sf.pretty_type(ty, 1) == oracles.recursive_pretty_type(ty, 1)


# ---------------------------------------------------------------------------
# simultaneous substitution
# ---------------------------------------------------------------------------

DEPTHS = st.integers(0, 3)


def identity_args(n: int) -> tuple:
    """Slot k of depth n is TVar(n-1-k), so this tuple fills each slot
    with itself."""
    return tuple(TVar(n - 1 - k) for k in range(n))


def draw_args(data, count: int, depth: int) -> tuple:
    return tuple(data.draw(scoped_types(depth, 3)) for _ in range(count))


class TestSubstTypes:
    """subst_types is the fibration's reindexing: its laws on random
    well-scoped types."""

    @given(st.data())
    def test_the_identity_tuple_is_inert(self, data):
        n = data.draw(DEPTHS)
        ty = data.draw(scoped_types(n))
        assert sf.subst_types(ty, identity_args(n)) == ty

    @given(st.data())
    def test_a_projection_picks_its_argument(self, data):
        m, n = data.draw(st.integers(1, 3)), data.draw(DEPTHS)
        args = draw_args(data, m, n)
        k = data.draw(st.integers(0, m - 1))
        assert sf.subst_types(TVar(m - 1 - k), args) == args[k]

    @given(st.data())
    def test_substitutions_compose(self, data):
        m, n, p = (data.draw(DEPTHS) for _ in range(3))
        g = data.draw(scoped_types(m))
        f, h = draw_args(data, m, n), draw_args(data, n, p)
        assert sf.subst_types(sf.subst_types(g, f), h) == sf.subst_types(
            g, tuple(sf.subst_types(c, h) for c in f))

    @given(st.data())
    def test_weakening_is_a_shift(self, data):
        n = data.draw(DEPTHS)
        ty = data.draw(scoped_types(n))
        weakening = tuple(TVar(n - k) for k in range(n))
        assert sf.subst_types(ty, weakening) == sf.shift_type(ty, 1)

    @given(st.data())
    def test_filling_the_last_slot_is_subst_type(self, data):
        n = data.draw(DEPTHS)
        body, arg = data.draw(scoped_types(n + 1)), data.draw(scoped_types(n))
        filled = sf.subst_types(body, identity_args(n) + (arg,))
        assert filled == sf.subst_type(body, arg)


# ---------------------------------------------------------------------------
# typechecking
# ---------------------------------------------------------------------------

class TestTypecheck:
    def test_polymorphic_identity(self):
        assert sf.typecheck(0, (), ID) == ForallT(ArrowT(TVar(0), TVar(0)))

    def test_substitution_instance(self):
        assert sf.typecheck(0, (), TyApp(ID, UnitT())) == ArrowT(UnitT(), UnitT())

    def test_swap_under_two_binders(self):
        # expected value computed by the declarative-rules oracle
        swap = Lam(ProdT(TVar(1), TVar(0)), Pair(Snd(Var(0)), Fst(Var(0))))
        expected = ArrowT(ProdT(TVar(1), TVar(0)), ProdT(TVar(0), TVar(1)))
        assert oracles.oracle_typecheck(swap, tyctx_depth=2) == expected
        assert sf.typecheck(2, (), swap) == expected

    def test_corpus_agrees_with_oracle(self):
        for d in DEFS:
            assert sf.typecheck(0, (), d.term) == d.declared
            assert oracles.oracle_typecheck(d.term) == d.declared

    def test_corpus_types_are_the_declared_nodes(self):
        # syntax is interned: the computed type is the parsed one
        for d in DEFS:
            assert sf.typecheck(0, (), d.term) is d.declared

    def test_unbound_variable(self):
        with pytest.raises(sf.TypecheckError, match="unbound"):
            sf.typecheck(0, (), Var(0))

    def test_applying_non_function(self):
        with pytest.raises(sf.TypecheckError, match="non-function"):
            sf.typecheck(0, (), App(UnitV(), UnitV()))

    def test_argument_mismatch_reports_both_types(self):
        bad = App(Lam(ProdT(UnitT(), UnitT()), Var(0)), UnitV())
        with pytest.raises(sf.TypecheckError) as exc:
            sf.typecheck(0, (), bad)
        assert exc.value.expected == ProdT(UnitT(), UnitT())
        assert exc.value.actual == UnitT()

    def test_annotation_escaping_context(self):
        with pytest.raises(sf.TypecheckError, match="escapes"):
            sf.typecheck(0, (), Lam(TVar(0), Var(0)))

    def test_type_applying_non_forall(self):
        with pytest.raises(sf.TypecheckError, match="non-forall"):
            sf.typecheck(0, (), TyApp(UnitV(), UnitT()))

    def test_tyapp_substitutes_capture_avoidingly(self):
        # (/\a. \x:a. /\b. \y:b. x) [forall c. c -> c]
        t = TyApp(TyLam(Lam(TVar(0), TyLam(Lam(TVar(0), Var(1))))),
                  ForallT(ArrowT(TVar(0), TVar(0))))
        got = sf.typecheck(0, (), t)
        assert got == oracles.oracle_typecheck(t)
        inner = ForallT(ArrowT(TVar(0), TVar(0)))
        assert got == ArrowT(inner, ForallT(ArrowT(TVar(0), inner)))

    @given(scoped_types(), st.sampled_from(range(8)))
    def test_random_instantiations_agree_with_oracle(self, ty, i):
        poly = [d for d in DEFS if isinstance(d.declared, ForallT)]
        t = TyApp(poly[i % len(poly)].term, ty)
        assert sf.typecheck(0, (), t) == oracles.oracle_typecheck(t)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

class TestNormalize:
    def test_identity_instance(self):
        t = App(TyApp(ID, UnitT()), UnitV())
        assert sf.normalize(t) == UnitV()

    def test_fst_of_pair(self):
        assert sf.normalize(Fst(Pair(UnitV(), UnitV()))) == UnitV()

    def test_church_true_hand_trace(self):
        # true [unit->unit] (\x:unit. x) (\x:unit. ()), traced by hand:
        # three steps, ending at the first argument.
        T = ArrowT(UnitT(), UnitT())
        true = TyLam(Lam(TVar(0), Lam(TVar(0), Var(1))))
        u = Lam(UnitT(), Var(0))
        w = Lam(UnitT(), UnitV())
        t0 = App(App(TyApp(true, T), u), w)

        t1 = oracles.step(t0)
        assert t1 == App(App(Lam(T, Lam(T, Var(1))), u), w)
        t2 = oracles.step(t1)
        assert t2 == App(Lam(T, u), w)
        t3 = oracles.step(t2)
        assert t3 == u
        assert oracles.step(t3) is None
        assert sf.normalize(t0) == u

    def test_idempotent_on_corpus(self):
        for d in DEFS:
            nf = sf.normalize(d.term)
            assert sf.normalize(nf) == nf

    def test_preserves_types_on_corpus(self):
        for d in DEFS:
            assert sf.typecheck(0, (), sf.normalize(d.term)) == d.declared

    def test_progress_to_introduction_forms(self):
        intro = {ArrowT: Lam, ForallT: TyLam, ProdT: Pair, UnitT: UnitV}
        for d in DEFS:
            nf = sf.normalize(d.term)
            assert isinstance(nf, intro[type(d.declared)])

    def test_no_redexes_left(self):
        redex_heads = (
            lambda t: isinstance(t, App) and isinstance(t.fn, Lam),
            lambda t: isinstance(t, TyApp) and isinstance(t.fn, TyLam),
            lambda t: isinstance(t, (Fst, Snd)) and isinstance(t.body, Pair),
        )
        for d in DEFS:
            for sub in sf.iter_subterms(sf.normalize(d.term)):
                assert not any(h(sub) for h in redex_heads)

    def test_fuel_exhaustion_reported(self):
        omega = UApp(ULam(UApp(UVar(0), UVar(0))), ULam(UApp(UVar(0), UVar(0))))
        with pytest.raises(sf.FuelExhausted):
            sf.unormalize(omega, fuel=50)

    def test_typed_fuel_bound(self):
        t = App(TyApp(ID, UnitT()), UnitV())
        with pytest.raises(sf.FuelExhausted):
            sf.normalize(t, fuel=0)

    def test_fuel_counts_contractions(self):
        # one type-beta and one beta contraction
        t = App(TyApp(ID, UnitT()), UnitV())
        with pytest.raises(sf.FuelExhausted):
            sf.normalize(t, fuel=1)
        assert sf.normalize(t, fuel=2) == UnitV()
        # one projection contraction
        u = UFst(UPair(UUnit(), UUnit()))
        with pytest.raises(sf.FuelExhausted):
            sf.unormalize(u, fuel=0)
        assert sf.unormalize(u, fuel=1) == UUnit()


# ---------------------------------------------------------------------------
# normalization against the small-step reference semantics
# ---------------------------------------------------------------------------

REFERENCE_FUEL = 100  # random draws needing more reference steps are skipped


class TestAgainstSmallStep:
    def test_typed_corpus(self):
        for d in DEFS:
            ref = oracles.iterate_steps(oracles.step, d.term, 10**4)
            assert sf.normalize(d.term) == ref

    def test_erased_corpus(self):
        for d in DEFS:
            er = sf.erase(d.term)
            assert sf.unormalize(er) == oracles.iterate_steps(oracles.ustep, er, 10**4)

    @given(scoped_terms(size=10))
    @settings(max_examples=300)
    def test_typed_random(self, t):
        # ill-typed draws included: stuck redexes such as App(UnitV(), x)
        # stay in the normal form exactly as step leaves them
        ref = oracles.iterate_steps(oracles.step, t, REFERENCE_FUEL)
        assume(ref is not None)
        assert sf.normalize(t) == ref

    @given(scoped_terms(tydepth=1, tmdepth=2, size=10))
    @settings(max_examples=300)
    def test_erased_random_with_free_variables(self, t):
        er = sf.erase(t)
        ref = oracles.iterate_steps(oracles.ustep, er, REFERENCE_FUEL)
        assume(ref is not None)
        assert sf.unormalize(er) == ref


# ---------------------------------------------------------------------------
# deep Church numerals: normal forms with thousands of nodes
# ---------------------------------------------------------------------------

NAT = "forall a. (a -> a) -> a -> a"
CHURCH = {d.name: d.term for d in sf.parse_program("\n".join(
    [f"c{k} : {NAT} = /\\a. \\f:a -> a. \\x:a. " + "f (" * k + "x" + ")" * k
     for k in (4, 5, 6)]
    + [f"exp : ({NAT}) -> ({NAT}) -> {NAT} = "
       f"\\m:{NAT}. \\n:{NAT}. /\\a. n [a -> a] (m [a])",
       f"p1024 : {NAT} = exp c4 c5",  # 4^5
       f"p1296 : {NAT} = exp c6 c4"]))}  # 6^4


def church_value(nf, typed: bool) -> int:
    """The numeral a normal form denotes, read off its spine without
    recursion."""
    lam, app, var = (Lam, App, Var) if typed else (ULam, UApp, UVar)
    if typed:
        assert isinstance(nf, TyLam)
        nf = nf.body
    assert isinstance(nf, lam)
    if isinstance(nf.body, var):  # the eta-short one, /\a. \f. f
        assert nf.body.index == 0
        return 1
    assert isinstance(nf.body, lam)
    t, n = nf.body.body, 0
    while isinstance(t, app):
        assert isinstance(t.fn, var) and t.fn.index == 1
        t, n = t.arg, n + 1
    assert isinstance(t, var) and t.index == 0
    return n


class TestDeepChurch:
    @pytest.mark.parametrize("name, value", [("p1024", 1024), ("p1296", 1296)])
    def test_typed_and_erased(self, name, value):
        term = CHURCH[name]
        nf = sf.normalize(term)
        assert church_value(nf, typed=True) == value
        assert sf.term_size(nf) == 2 * value + 4
        enf = sf.unormalize(sf.erase(term))
        assert church_value(enf, typed=False) == value
        assert sf.term_size(enf) == 2 * value + 3

    def test_erasing_a_deep_normal_form(self):
        # 2,052 nodes: deeper than the default recursion limit
        nf = sf.normalize(CHURCH["p1024"])
        assert church_value(sf.erase(nf), typed=False) == 1024

    def test_comparing_and_hashing_deep_normal_forms(self):
        for nf in (sf.normalize, lambda t: sf.unormalize(sf.erase(t))):
            a, b = nf(CHURCH["p1024"]), nf(CHURCH["p1024"])
            assert a is b and a == b and hash(a) == hash(b)
            assert a != nf(CHURCH["p1296"])

    def test_typechecking_a_deep_normal_form(self):
        nf = sf.normalize(CHURCH["p1024"])
        assert sf.typecheck(0, (), nf) == sf.parse_type_str(NAT)

    def test_repr_of_a_deep_normal_form(self):
        # the stored reprs are filled children first, so printing needs
        # no recursion; the spine is the same as pretty_term's
        nf = sf.normalize(CHURCH["p1024"])
        x, y, a = "Var(index=1)", "Var(index=0)", "TVar(index=0)"
        spine = f"App(fn={x}, arg=" * 1023 + f"App(fn={x}, arg={y})" + ")" * 1023
        assert repr(nf) == (
            f"TyLam(body=Lam(annot=ArrowT(dom={a}, cod={a}), "
            f"body=Lam(annot={a}, body={spine})))")

    def test_printing_a_deep_normal_form(self):
        nf = sf.normalize(CHURCH["p1024"])
        spine = "x (" * 1023 + "x y" + ")" * 1023
        assert sf.pretty_term(nf) == f"/\\a. \\x:a -> a. \\y:a. {spine}"


ARITH = {d.name: d.term for d in sf.parse_program("\n".join(
    [f"c{k} : {NAT} = /\\a. \\f:a -> a. \\x:a. " + "f (" * k + "x" + ")" * k
     for k in range(6)]
    + [f"add : ({NAT}) -> ({NAT}) -> {NAT} = "
       f"\\m:{NAT}. \\n:{NAT}. /\\a. \\f:a -> a. \\x:a. m [a] f (n [a] f x)",
       f"mul : ({NAT}) -> ({NAT}) -> {NAT} = "
       f"\\m:{NAT}. \\n:{NAT}. /\\a. \\f:a -> a. m [a] (n [a] f)",
       f"exp : ({NAT}) -> ({NAT}) -> {NAT} = "
       f"\\m:{NAT}. \\n:{NAT}. /\\a. n [a -> a] (m [a])"]))}
OPS = {"add": lambda m, n: m + n, "mul": lambda m, n: m * n,
       "exp": lambda m, n: m ** n}


def arith(op: str, m: int, n: int) -> sf.Term:
    return App(App(ARITH[op], ARITH[f"c{m}"]), ARITH[f"c{n}"])


class TestChurchArithmetic:
    @pytest.mark.parametrize("op, m, n",
                             list(itertools.product(OPS, range(5), range(5))))
    def test_normal_forms_denote_the_result(self, op, m, n):
        # exp c_m c0 normalizes to the eta-short one, /\a. \f. f
        t = arith(op, m, n)
        assert church_value(sf.normalize(t), typed=True) == OPS[op](m, n)
        assert church_value(sf.unormalize(sf.erase(t)), typed=False) == OPS[op](m, n)

    # The least fuel that normalizes each term, typed and erased. Forced
    # thunks keep their weak head values (call-by-need); without that
    # write-back the normal forms are the same but the typed counts rise
    # to 8, 13, 123 and 1,026, so these pin the sharing.
    @pytest.mark.parametrize("op, m, n, typed, erased", [
        ("add", 3, 4, 8, 6), ("mul", 3, 4, 9, 7),
        ("exp", 3, 4, 48, 46), ("exp", 4, 5, 350, 348)])
    def test_contraction_counts(self, op, m, n, typed, erased):
        t = arith(op, m, n)
        for nf, term, fuel in ((sf.normalize, t, typed),
                               (sf.unormalize, sf.erase(t), erased)):
            assert nf(term, fuel=fuel) is nf(term)
            with pytest.raises(sf.FuelExhausted):
                nf(term, fuel=fuel - 1)


# ---------------------------------------------------------------------------
# erasure
# ---------------------------------------------------------------------------

class TestErase:
    def test_polymorphic_identity(self):
        assert sf.erase(ID) == ULam(UVar(0))

    def test_tyapp_definitional(self):
        t = TyApp(ID, UnitT())
        assert sf.erase(t) == sf.erase(ID)

    def test_church_pair_constructor(self):
        # checked against the structural erasure relation
        src = "/\\a. /\\b. \\x:a. \\y:b. /\\c. \\z:(a -> b -> c). z x y"
        pair = sf.parse_term_str(src)
        expected = ULam(ULam(ULam(UApp(UApp(UVar(0), UVar(2)), UVar(1)))))
        assert sf.erase(pair) == expected
        assert oracles.erases_to(pair, expected)

    def test_erasure_relation_on_corpus(self):
        for d in DEFS:
            assert oracles.erases_to(d.term, sf.erase(d.term))

    def test_size_nonincreasing(self):
        for d in DEFS:
            t = d.term
            assert sf.term_size(sf.erase(t)) <= sf.term_size(t)
            if any(isinstance(s, (TyLam, TyApp)) for s in sf.iter_subterms(t)):
                assert sf.term_size(sf.erase(t)) < sf.term_size(t)

    def test_commutes_with_normalize_on_corpus(self):
        for d in DEFS:
            via_typed = sf.unormalize(sf.erase(sf.normalize(d.term)))
            via_untyped = sf.unormalize(sf.erase(d.term))
            assert via_typed == via_untyped

    def test_a_shared_subterm_is_erased_once(self):
        # 2^40 tree nodes, 41 distinct ones: a tree walk would not finish
        s, u = UnitV(), UUnit()
        for _ in range(40):
            s, u = Pair(s, s), UPair(u, u)
        start = time.perf_counter()
        assert sf.erase(s) is u
        assert time.perf_counter() - start < 1.0

    def test_an_erased_term_is_not_a_term(self):
        with pytest.raises(TypeError, match="not a term"):
            sf.erase(UVar(0))

    @given(scoped_terms())
    @settings(max_examples=60)
    def test_size_nonincreasing_random(self, t):
        assert sf.term_size(sf.erase(t)) <= sf.term_size(t)
