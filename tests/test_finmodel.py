"""Finite relational layer: equality, closure, comparison isos, policies."""

import dataclasses
import inspect
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import verdict_rows
from param_workbench import cubemodel as cm
from param_workbench import fibration as fib
from param_workbench import finmodel as fm
from param_workbench import rgalg
from param_workbench import systemf as sf
from param_workbench.finmodel import (
    STAR,
    FinFn,
    FinSetObj,
    IsoPolicy,
    PropRel,
    PropRelMor,
    all_functions,
    all_rel_mors,
    atom_objects,
    bang1,
    build_instance,
    canon,
    check_ccc,
    eq_mor,
    eq_rel,
    eval0,
    expo0,
    expo1,
    fin_set,
    fn,
    fn_compose,
    fn_id,
    fn_label,
    fst0,
    graph_rel,
    lambda0,
    pair0,
    prod_fn,
    prod_mor,
    product0,
    product1,
    refl,
    rel,
    rel_mor_compose,
    rel_mor_id,
    relevant_iso_check,
    snd0,
    terminal0,
    terminal1,
)

A1 = fin_set([0])
A2 = fin_set([0, 1])
SIZES = [A1, A2]


@st.composite
def small_rels(draw, min_size=1):
    dom = fin_set(range(draw(st.integers(min_size, 2))))
    cod = fin_set(range(draw(st.integers(min_size, 2))))
    pairs = [(a, b) for a in dom for b in cod]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else ()
    return rel(dom, cod, chosen)


class TestEq:
    def test_two_atom_witness_table(self):
        r = eq_rel(A2)
        assert r.entries == ((0, 0), (1, 1))
        assert not r.holds(0, 1)

    def test_preserves_identity(self):
        assert eq_mor(fn_id(A2)) == rel_mor_id(eq_rel(A2))

    def test_preserves_composition_small(self):
        # oracle: compose the functions first, then take the relation image
        carriers = [fin_set(range(n)) for n in (1, 2, 3)]
        for a, b, c in itertools.product(carriers, repeat=3):
            for f in all_functions(a, b):
                for g in all_functions(b, c):
                    assert eq_mor(fn_compose(g, f)) == \
                        rel_mor_compose(eq_mor(g), eq_mor(f))

    def test_faces_of_the_image_are_the_carrier(self):
        for a in SIZES:
            assert eq_rel(a).dom == a
            assert eq_rel(a).cod == a


class TestCccLevel0:
    def test_pairing_of_projections_is_identity(self):
        p = product0(A2, A2)
        assert pair0(fst0(A2, A2), snd0(A2, A2)) == fn_id(p)

    def test_currying_beta_exhaustive(self):
        for a, b, c in itertools.product(SIZES, repeat=3):
            ev = eval0(a, b)
            for f in all_functions(product0(c, a), b):
                lam = lambda0(f, c, a)
                assert fn_compose(ev, prod_fn(lam, fn_id(a))) == f


class TestCccLevel1:
    def test_exponential_of_equalities_is_pointwise_equality(self):
        for a, b in itertools.product(SIZES, repeat=2):
            e = expo1(eq_rel(a), eq_rel(b))
            for f in all_functions(a, b):
                for g in all_functions(a, b):
                    assert e.holds(fn_label(f), fn_label(g)) == (f == g)

    def test_product_witnesses_pair_the_components(self):
        r = product1(eq_rel(A2), eq_rel(A1))
        assert r.entries == ((("pr", 0, 0), ("pr", 0, 0)),
                             (("pr", 1, 0), ("pr", 1, 0)))

    def test_terminal_has_one_witness(self):
        t = terminal1()
        assert t.entries == ((STAR, STAR),)

    def test_universal_properties_on_demand(self):
        relations = [eq_rel(A1), eq_rel(A2),
                     graph_rel(fn(A2, A2, lambda x: 1 - x)),
                     rel(A2, A2, [(0, 0)])]
        rep = rgalg.Report()
        check_ccc(SIZES, relations, rep)
        assert rep.ok, [f.row() for f in rep.failures]


def comparison(v1: PropRel) -> PropRelMor:
    """The identity-legged morphism from the equality on v1's carrier."""
    v0 = v1.dom
    return PropRelMor(eq_rel(v0), v1, fn_id(v0), fn_id(v0))


class TestComparisonIsos:
    def test_prod_on_two_and_one_atom_carriers(self):
        b = fin_set([2])
        m = comparison(product1(eq_rel(A2), eq_rel(b)))
        assert m.f.is_identity and m.g.is_identity
        assert m.src.entries == ((("pr", 0, 2), ("pr", 0, 2)),
                                 (("pr", 1, 2), ("pr", 1, 2)))
        assert m.is_identity

    def test_expo_on_singletons(self):
        m = comparison(expo1(eq_rel(A1), eq_rel(A1)))
        ident = fn_label(fn_id(A1))
        assert m.src.entries == m.tgt.entries == ((ident, ident),)

    def test_all_three_are_relabeling_isos(self):
        # Relations are extensional, so each comparison is an identity
        # in the category: Eq of a former is the former of the Eqs.
        for a, b in itertools.product(SIZES, repeat=2):
            for v1 in (terminal1(), product1(eq_rel(a), eq_rel(b)),
                       expo1(eq_rel(a), eq_rel(b))):
                m = comparison(v1)
                assert m.is_iso
                assert m.has_identity_faces
                assert m.is_identity

    def test_prod_naturality_square_exhaustive(self):
        for a, b, a2, b2 in itertools.product(SIZES, repeat=4):
            for f in all_functions(a, a2):
                for g in all_functions(b, b2):
                    assert eq_mor(prod_fn(f, g)) == prod_mor(eq_mor(f), eq_mor(g))


class TestPolicies:
    def test_identities_pass_every_policy(self):
        for policy in IsoPolicy:
            assert relevant_iso_check(policy, fn_id(A2))
            assert relevant_iso_check(policy, rel_mor_id(eq_rel(A2)))

    def test_relabeling_isos_are_identities_extensionally(self):
        # Relations are their pairs, so the comparison between the
        # equality on a product and the product of equalities is an
        # identity, which every policy selects; only moving faces can
        # break it.
        m = comparison(product1(eq_rel(A2), eq_rel(A2)))
        assert m.is_identity
        for policy in IsoPolicy:
            assert relevant_iso_check(policy, m)

    def test_iso_with_moving_faces_splits_the_remaining_two(self):
        swap = fn(A2, A2, lambda x: 1 - x)
        r = graph_rel(swap)
        m = PropRelMor(r, r, swap, swap)
        assert m.is_iso and not m.has_identity_faces
        assert not relevant_iso_check(IsoPolicy.REY, m)
        assert relevant_iso_check(IsoPolicy.CREY, m)

    def test_non_iso_fails_everywhere(self):
        squash = fn(A2, A1, lambda _: 0)
        m = PropRelMor(eq_rel(A2), eq_rel(A1), squash, squash)
        for policy in IsoPolicy:
            assert not relevant_iso_check(policy, m)


@settings(max_examples=60, deadline=None)
@given(small_rels(), small_rels())
def test_constructors_stay_propositional_and_face_stable(r, s):
    """Products and exponentials list each related pair once, and their
    boundaries are exactly the set-level constructs, as table equality."""
    built = [
        (product1(r, s), product0(r.dom, s.dom), product0(r.cod, s.cod)),
        (expo1(r, s), expo0(r.dom, s.dom), expo0(r.cod, s.cod)),
        (terminal1(), terminal0(), terminal0()),
    ]
    for out, dom, cod in built:
        assert len(out.entries) == len(set(out.entries))
        assert out.dom == dom
        assert out.cod == cod


@settings(max_examples=150, deadline=None)
@given(small_rels(0), small_rels(0))
def test_expo1_matches_brute_force(r, s):
    """Enumerating only related pairs gives the same relation, entry for
    entry, as filtering every pair of functions."""
    got, want = expo1(r, s), oracles.brute_expo1(r, s)
    assert got.entries == want.entries
    assert got.dom == want.dom
    assert got.cod == want.cod


def test_expo1_matches_brute_force_on_nested_labels():
    inner = expo1(eq_rel(A2), eq_rel(A2))
    swap = graph_rel(fn(A2, A2, lambda x: 1 - x))
    half = rel(A2, A1, [(1, 0)])
    for r, s in [(swap, inner), (inner, swap), (half, inner), (inner, half)]:
        assert expo1(r, s).entries == oracles.brute_expo1(r, s).entries


@settings(max_examples=150, deadline=None)
@given(small_rels(0), small_rels(0))
def test_all_rel_mors_matches_brute_force(r, s):
    """Enumerating each f's related g gives the squares that trying every
    pair of legs gives, in the same order."""
    assert list(all_rel_mors(r, s)) == list(oracles.brute_all_rel_mors(r, s))


@pytest.mark.parametrize("bound, total", [(2, 530), (3, 274_694)])
def test_graph_rel_mor_counts_match_the_closed_form(bound, total):
    """Between every two function graphs over the atom subsets (the
    equalities among them), all_rel_mors yields as many squares as the
    fiber count predicts; at bound 2 these are build_instance's."""
    objs = atom_objects(bound)
    fns = [f for a in objs for b in objs for f in all_functions(a, b)]
    graphs = [graph_rel(h) for h in fns]
    seen = 0
    for h, r in zip(fns, graphs):
        for k, s in zip(fns, graphs):
            n = oracles.graph_mor_count(h, k)
            assert sum(1 for _ in all_rel_mors(r, s)) == n, (h, k)
            seen += n
    assert seen == total


class TestValidators:
    @pytest.mark.parametrize("elements", [(1, 0), (0, 0), ("a", 0)])
    def test_set_elements_must_be_canonical_and_distinct(self, elements):
        with pytest.raises(ValueError, match="canonically ordered"):
            FinSetObj(elements)

    @pytest.mark.parametrize("keys", [
        [(1, 1), (0, 0)],
        [(0, 0), (0, 0)],
        [(0, 1), (1, 0), (0, 0)],
    ])
    def test_relation_keys_must_be_canonical_and_distinct(self, keys):
        with pytest.raises(ValueError, match="canonically ordered"):
            PropRel(A2, A2, tuple(keys))

    @pytest.mark.parametrize("key", [(1, 0), (0, 1), ("x", 0)])
    def test_relation_keys_stay_inside_the_boundary(self, key):
        with pytest.raises(ValueError, match="escapes the boundary"):
            PropRel(A1, A1, (key,))

    def test_function_images_stay_inside_the_codomain(self):
        with pytest.raises(ValueError, match="escapes the codomain"):
            FinFn(A2, A1, ((0, 0), (1, 1)))


# nested and mixed labels: on MIXED, Python orders the tuples (0, 5) <
# (1,), but label_key puts the shorter tuple first
MIXED = fin_set([0, 3, "s", (1,), (0, 5)])
LABELLED = [A2, product0(A2, A1), expo0(A1, A2), expo0(A2, A2), MIXED]
OUTSIDE = ["t", (2,), ("pr", 9, 9)]  # in none of LABELLED


def _outside_pairs(dom, cod):
    return ([(x, b) for x in OUTSIDE for b in cod]
            + [(a, x) for a in dom for x in OUTSIDE])


def _accepts(dom, cod, entries) -> bool:
    try:
        PropRel(dom, cod, tuple(entries))
    except ValueError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_relation_check_by_position_is_the_label_key_definition(data):
    """PropRel compares carrier positions; it accepts exactly the entries
    that lie inside the boundary and are their own canonical form."""
    dom = data.draw(st.sampled_from(LABELLED))
    cod = data.draw(st.sampled_from(LABELLED))
    inside = [(a, b) for a in dom for b in cod]
    pairs = st.sampled_from(inside + _outside_pairs(dom, cod))
    entries = data.draw(st.one_of(
        st.lists(pairs, max_size=5),
        st.sets(st.sampled_from(inside), max_size=6).map(canon)))
    want = (all(a in dom and b in cod for a, b in entries)
            and tuple(entries) == canon(entries))
    assert _accepts(dom, cod, entries) == want


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_relation_check_names_each_fault(data):
    dom = data.draw(st.sampled_from(LABELLED))
    cod = data.draw(st.sampled_from(LABELLED))
    inside = [(a, b) for a in dom for b in cod]
    entries = list(canon(data.draw(
        st.sets(st.sampled_from(inside), min_size=2, max_size=6))))
    assert _accepts(dom, cod, entries)
    i = data.draw(st.integers(0, len(entries) - 2))
    swapped = entries[:i] + [entries[i + 1], entries[i]] + entries[i + 2:]
    doubled = entries[:i + 1] + entries[i:]
    for bad in (swapped, doubled):
        with pytest.raises(ValueError, match="canonically ordered and distinct"):
            PropRel(dom, cod, tuple(bad))
    # in canonical position, so only the boundary can reject it
    out = data.draw(st.sampled_from(_outside_pairs(dom, cod)))
    with pytest.raises(ValueError, match="escapes the boundary"):
        PropRel(dom, cod, canon(entries + [out]))


@pytest.mark.parametrize("a, b", [
    *itertools.product(atom_objects(2), repeat=2),
    (product0(A2, A1), expo0(A1, A2)),
])
def test_memoized_carriers_match_their_definitions(a, b):
    assert product0(a, b) == fin_set([("pr", x, y) for x in a for y in b])
    assert expo0(a, b) == fin_set(fn_label(f) for f in all_functions(a, b))
    # an equal carrier built separately is the same record
    a2, b2 = FinSetObj(tuple(a)), FinSetObj(tuple(b))
    assert a2 is a and b2 is b
    assert product0(a2, b2) == product0(a, b)
    assert expo0(a2, b2) == expo0(a, b)


def test_every_square_into_the_terminal_is_unique():
    for r in (eq_rel(A2), graph_rel(fn(A2, A2, lambda x: 1 - x))):
        assert list(all_rel_mors(r, terminal1())) == [bang1(r)]


class TestBuildInstance:
    def test_rey_selection_has_identity_face_images(self, rey_instance):
        rg, sub = rey_instance
        assert all(m.has_identity_faces for m in sub.selected1)
        # extensional relations leave no room between the identities
        # and the identity-faced isos
        assert sub.selected0 == frozenset(
            rg.level0.id_of[o] for o in rg.level0.objects)
        assert sub.selected1 == frozenset(
            rg.level1.id_of[o] for o in rg.level1.objects)

    @pytest.mark.parametrize("bound", verdict_rows.INSTANCE_BOUNDS)
    @pytest.mark.parametrize("policy", list(IsoPolicy))
    def test_tables_are_frozen(self, policy, bound):
        rows = verdict_rows.instance_rows(*build_instance(policy, bound))
        assert rows == verdict_rows.frozen(
            verdict_rows.instance_key(policy, bound))

    def test_unlisted_composite_fails_validation_without_raising(
            self, monkeypatch):
        # eq_mor(const0) = eq_mor(const0) . eq_mor(swap) on {0, 1}; with it
        # dropped, that composite is minted from its legs as a stray
        dropped = eq_mor(fn(A2, A2, lambda _: 0))
        real = fm.all_rel_mors
        monkeypatch.setattr(fm, "all_rel_mors", lambda r, s: (
            m for m in real(r, s) if m != dropped))
        rg, sub = build_instance(IsoPolicy.REY, 2)
        assert dropped not in rg.level1.src
        failed = [f.law for f in rgalg.validate_rg(rg, sub).failures]
        assert "level1: compose boundaries" in failed
        assert "face_top: preserves composition" in failed

    def test_crey_selection_is_inverse_closed(self):
        rg, sub = build_instance(IsoPolicy.CREY, 2)
        for cat, sel in ((rg.level0, sub.selected0),
                         (rg.level1, sub.selected1)):
            for m in sel:
                assert cat.inverses[m] in sel


def _swap() -> FinFn:
    return fn(A2, A2, lambda x: 1 - x)


W0, W1 = cm.WIT_ALPHABET


def _full(a: FinSetObj) -> PropRel:
    return rel(a, a, itertools.product(a, a))


# for every hash_cons class of the package, a builder of one record from
# its fields, past the per-argument caches of weq, eq_wmor, degen2 and
# connection
RECORD_BUILDERS = {
    "FinSetObj": lambda: FinSetObj((0, 1)),
    "FinFn": _swap,
    "PropRel": lambda: graph_rel(_swap()),
    "PropRelMor": lambda: eq_mor(_swap()),
    "WitRel": lambda: cm.wrel(A2, A2, {(x, x): (refl(x),) for x in A2}),
    "WitRelMor": lambda: cm.wit_mor(cm.weq(A2), cm.weq(A2), _swap(), _swap(),
                                    lambda a, b, w: refl(1 - a)),
    "TwoRel": lambda: cm.two_rel(
        *[cm.weq(A2)] * 4, [((x,) * 4, (refl(x),) * 4) for x in A2]),
    "TwoRelMor": lambda: cm.degen2_mor("vertical", cm.eq_wmor(_swap())),
    "TVar": lambda: sf.TVar(1),
    "UnitT": sf.UnitT,
    "ProdT": lambda: sf.ProdT(sf.TVar(0), sf.UnitT()),
    "ArrowT": lambda: sf.ArrowT(sf.TVar(0), sf.UnitT()),
    "ForallT": lambda: sf.ForallT(sf.ArrowT(sf.TVar(0), sf.TVar(0))),
    "Var": lambda: sf.Var(2),
    "Lam": lambda: sf.Lam(sf.UnitT(), sf.Var(0)),
    "App": lambda: sf.App(sf.Var(0), sf.UnitV()),
    "Pair": lambda: sf.Pair(sf.UnitV(), sf.Var(0)),
    "Fst": lambda: sf.Fst(sf.Var(0)),
    "Snd": lambda: sf.Snd(sf.Var(0)),
    "UnitV": sf.UnitV,
    "TyLam": lambda: sf.TyLam(sf.Lam(sf.TVar(0), sf.Var(0))),
    "TyApp": lambda: sf.TyApp(sf.Var(0), sf.UnitT()),
    "UVar": lambda: sf.UVar(3),
    "ULam": lambda: sf.ULam(sf.UVar(0)),
    "UApp": lambda: sf.UApp(sf.UVar(0), sf.UUnit()),
    "UPair": lambda: sf.UPair(sf.UUnit(), sf.UVar(0)),
    "UFst": lambda: sf.UFst(sf.UVar(0)),
    "USnd": lambda: sf.USnd(sf.UVar(0)),
    "UUnit": sf.UUnit,
    "FProj": lambda: fib.FProj(2, 1),
    "FUnit": lambda: fib.FUnit(2),
    "FProd": lambda: fib.FProd(fib.FProj(1, 0), fib.FUnit(1)),
    "FArrow": lambda: fib.FArrow(fib.FProj(1, 0), fib.FUnit(1)),
    "FForall": lambda: fib.FForall(fib.FArrow(fib.FProj(1, 0), fib.FProj(1, 0))),
    "EnvL": lambda: fib.EnvL(1, (graph_rel(_swap()),)),
}


def _two_wit_square() -> "cm.TwoRel":
    """Equalities on {0} but for a right edge with two witnesses, every
    boundary tuple filled: any witness action on the right edge maps it
    to itself."""
    e, two = cm.weq(A1), cm.wrel(A1, A1, {(0, 0): (W0, W1)})
    return cm.two_rel(e, e, e, two, [((0,) * 4, (refl(0),) * 3 + (w,))
                                     for w in (W0, W1)])


def _right_edge_mor(send) -> "cm.TwoRelMor":
    q = _two_wit_square()
    i = cm.wit_mor_id(q.top)
    return cm.TwoRelMor(q, q, i, i, i,
                        cm.wit_mor(q.right, q.right, fn_id(A1), fn_id(A1), send))


# two records of each class whose fields agree but for the last
ONE_FIELD_APART = {
    "FinSetObj": lambda: (FinSetObj((0, 1)), FinSetObj((0,))),
    "FinFn": lambda: (_swap(), fn_id(A2)),
    "PropRel": lambda: (graph_rel(_swap()), eq_rel(A2)),
    "PropRelMor": lambda: (PropRelMor(_full(A2), _full(A2), fn_id(A2), _swap()),
                           rel_mor_id(_full(A2))),
    "WitRel": lambda: (cm.wrel(A2, A2, {(0, 0): (W0,)}),
                       cm.wrel(A2, A2, {(0, 0): (W1,)})),
    "WitRelMor": lambda: tuple(
        cm.wit_mor(cm.wrel(A1, A1, {(0, 0): (W0,)}),
                   cm.wrel(A1, A1, {(0, 0): (W0, W1)}),
                   fn_id(A1), fn_id(A1), lambda a, b, w, v=v: v)
        for v in (W0, W1)),
    "TwoRel": lambda: (
        cm.degen2("horizontal", cm.weq(A2)),
        cm.two_rel(*[cm.weq(A2)] * 4, [((0,) * 4, (refl(0),) * 4)])),
    "TwoRelMor": lambda: (_right_edge_mor(lambda a, b, w: w),
                          _right_edge_mor(lambda a, b, w: W1 if w == W0 else W0)),
    "App": lambda: (sf.App(sf.Var(0), sf.UnitV()), sf.App(sf.Var(0), sf.Var(1))),
    "ULam": lambda: (sf.ULam(sf.UVar(0)), sf.ULam(sf.UVar(1))),
    "ArrowT": lambda: (sf.ArrowT(sf.TVar(0), sf.UnitT()),
                       sf.ArrowT(sf.TVar(0), sf.TVar(0))),
    "FArrow": lambda: (fib.FArrow(fib.FProj(1, 0), fib.FUnit(1)),
                       fib.FArrow(fib.FProj(1, 0), fib.FProj(1, 0))),
    "FForall": lambda: (fib.FForall(fib.FProj(1, 0)), fib.FForall(fib.FUnit(1))),
    "EnvL": lambda: (fib.EnvL(0, (A1,)), fib.EnvL(0, (A2,))),
}

# per class, a construction __post_init__ rejects and a valid one
REJECTED_THEN_VALID = {
    "FinSetObj": (lambda: FinSetObj((1, 0)), lambda: FinSetObj((0, 1))),
    "FinFn": (lambda: FinFn(A2, A1, ((0, 0), (1, 1))), _swap),
    "PropRel": (lambda: PropRel(A2, A2, ((1, 0), (0, 0))),
                lambda: graph_rel(_swap())),
    "PropRelMor": (lambda: PropRelMor(eq_rel(A2), eq_rel(A2), _swap(), fn_id(A2)),
                   lambda: eq_mor(_swap())),
    "WitRel": (lambda: cm.WitRel(A1, A1, (((0, 1), (W0,)),)),
               lambda: cm.WitRel(A1, A1, (((0, 0), (W0,)),))),
    "WitRelMor": (lambda: cm.WitRelMor(cm.weq(A1), cm.weq(A1),
                                       fn_id(A1), fn_id(A1), ()),
                  lambda: cm.WitRelMor(cm.weq(A1), cm.weq(A1), fn_id(A1), fn_id(A1),
                                       (((0, 0, refl(0)), refl(0)),))),
    "TwoRel": (lambda: cm.TwoRel(cm.weq(A1), cm.weq(A2), cm.weq(A2),
                                 cm.weq(A1), ()),
               lambda: cm.TwoRel(*[cm.weq(A1)] * 4, ())),
    "TwoRelMor": (lambda: cm.TwoRelMor(*[cm.degen2("horizontal", cm.weq(A1))] * 2,
                                       *[cm.wit_mor_id(cm.weq(A2))] * 4),
                  lambda: cm.two_mor_id(cm.degen2("horizontal", cm.weq(A1)))),
    "FProj": (lambda: fib.FProj(1, 1), lambda: fib.FProj(1, 0)),
    "FForall": (lambda: fib.FForall(fib.FUnit(0)), lambda: fib.FForall(fib.FUnit(1))),
    "EnvL": (lambda: fib.EnvL(0, (eq_rel(A2),)), lambda: fib.EnvL(1, (eq_rel(A2),))),
}


def _dataclass_twin(cls):
    """A @dataclass(frozen=True) class of cls's name and annotations."""
    twin = type(cls.__name__, (), {"__annotations__": inspect.get_annotations(cls)})
    return dataclasses.dataclass(frozen=True)(twin)


def _fields(x) -> list:
    return [getattr(x, n) for n in type(x).__match_args__]


class TestHashOnce:
    """Equal fields give one record, hashed by identity, whose repr is
    computed once."""

    @pytest.mark.parametrize("name", sorted(RECORD_BUILDERS))
    def test_the_hash_is_the_identity_hash(self, name):
        # a C-level hash: no Python call per dict or set lookup
        assert type(RECORD_BUILDERS[name]()).__hash__ is object.__hash__

    @pytest.mark.parametrize("name", sorted(RECORD_BUILDERS))
    def test_equal_records_hash_and_compare_equal(self, name):
        build = RECORD_BUILDERS[name]
        x, y = build(), build()
        assert type(x).__name__ == name
        assert x is y
        assert x == y
        assert hash(x) == hash(y)
        assert hash(x) == hash(x)

    @pytest.mark.parametrize("name", sorted(RECORD_BUILDERS))
    def test_cached_hash_still_finds_the_record(self, name):
        build = RECORD_BUILDERS[name]
        x = build()
        hash(x)
        s, d = {x}, {x: name}
        assert x in s and d[x] == name
        y = build()
        assert y in s and d[y] == name

    @pytest.mark.parametrize("name", sorted(RECORD_BUILDERS))
    def test_repr_is_the_generated_one_computed_once(self, name):
        # dataclass's, byte for byte: rgalg._rkey orders by it
        x = RECORD_BUILDERS[name]()
        twin = _dataclass_twin(type(x))
        assert repr(x) == repr(twin(*_fields(x)))
        assert repr(x) is repr(x)

    def test_a_shared_child_is_shown_once(self):
        calls = []

        @fm.hash_cons
        class Leaf:
            n: int

            def __repr__(self):
                calls.append(self.n)
                return f"Leaf({self.n})"

        @fm.hash_cons
        class Node:
            child: Leaf
            tag: int

        leaf = Leaf(0)
        shown = [repr(Node(leaf, tag)) for tag in (1, 2)]
        assert [s.rpartition(".")[2] for s in shown] == [
            "Node(child=Leaf(0), tag=1)", "Node(child=Leaf(0), tag=2)"]
        assert calls == [0]

    def test_a_chain_through_tuple_fields_prints(self):
        # printed recursively, 600 levels of two or more frames each would
        # pass the default recursion limit
        @fm.hash_cons
        class Chain:
            kids: tuple

        x = Chain(())
        for _ in range(600):
            x = Chain((x,))
        assert repr(x).count("Chain(kids=(") == 601


class TestRecordProtocol:
    """Annotated fields, given positionally, frozen, matched in order,
    validated once per value and shown as dataclass would show them."""

    def test_every_interned_class_has_a_builder(self):
        interned = {c.__name__ for c in fm._SHOWN
                    if c.__module__.startswith("param_workbench.")}
        assert interned == set(RECORD_BUILDERS)
        assert len(interned) == 35

    @pytest.mark.parametrize("name", sorted(RECORD_BUILDERS))
    def test_match_args_are_the_dataclass_field_order(self, name):
        cls = type(RECORD_BUILDERS[name]())
        twin = _dataclass_twin(cls)
        assert cls.__match_args__ == tuple(f.name for f in dataclasses.fields(twin))

    @pytest.mark.parametrize("name", sorted(RECORD_BUILDERS))
    def test_fields_can_be_neither_assigned_nor_deleted(self, name):
        x = RECORD_BUILDERS[name]()
        before = repr(x)
        field = (type(x).__match_args__ or ("extra",))[0]
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign"):
            setattr(x, field, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete"):
            delattr(x, field)
        assert repr(x) == before and RECORD_BUILDERS[name]() is x

    @pytest.mark.parametrize("name", sorted(RECORD_BUILDERS))
    def test_a_keyword_or_a_wrong_count_raises_and_stores_nothing(self, name):
        x = RECORD_BUILDERS[name]()
        cls, values = type(x), _fields(x)
        calls = [lambda: cls(*values, values[-1] if values else 0)]
        if values:
            calls += [lambda: cls(*values[:-1]),
                      lambda: cls(*values[:-1], **{cls.__match_args__[-1]: values[-1]})]
        for call in calls:
            # a stored record would come back from the table without raising
            for _ in range(2):
                with pytest.raises(TypeError):
                    call()
        assert cls(*values) is x

    def test_match_reads_the_fields_in_annotation_order(self):
        @fm.hash_cons
        class Point:
            y: int
            x: int

        assert Point.__match_args__ == ("y", "x")
        match Point(1, 2):
            case Point(a, b):
                assert (a, b) == (1, 2)
        match sf.ArrowT(sf.TVar(0), sf.UnitT()):
            case sf.ArrowT(dom, cod):
                assert (dom, cod) == (sf.TVar(0), sf.UnitT())

    def test_post_init_runs_once_per_value_and_again_after_a_reject(self):
        seen = []

        @fm.hash_cons
        class Even:
            n: int

            def __post_init__(self):
                seen.append(self.n)
                if self.n % 2:
                    raise ValueError("odd")

        assert Even(2) is Even(2)
        for _ in range(2):
            with pytest.raises(ValueError):
                Even(3)
        assert seen == [2, 3, 3]


class TestHashCons:
    @pytest.mark.parametrize("name", sorted(ONE_FIELD_APART))
    def test_records_one_field_apart_are_distinct(self, name):
        x, y = ONE_FIELD_APART[name]()
        assert type(x).__name__ == type(y).__name__ == name
        names = list(type(x).__match_args__)
        assert [n for n in names if getattr(x, n) != getattr(y, n)] == names[-1:]
        assert x is not y
        assert x != y

    @pytest.mark.parametrize("name", sorted(REJECTED_THEN_VALID))
    def test_a_rejected_record_is_not_stored(self, name):
        bad, good = REJECTED_THEN_VALID[name]
        # a stored reject would come back from the table without raising
        for _ in range(2):
            with pytest.raises(ValueError):
                bad()
        x = good()
        assert type(x).__name__ == name
        assert good() is x
