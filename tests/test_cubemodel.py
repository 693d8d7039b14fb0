"""Witnessed relations and squares: morphisms, faces, degeneracies,
connections, units, products and exponentials, and the face-equation
suite over a finite stock."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from param_workbench import cubemodel as cm
from param_workbench.finmodel import (
    STAR,
    WUNIT,
    all_functions,
    apply_label,
    fin_set,
    fn,
    fn_compose,
    fn_id,
    fn_label,
    label_key,
    refl,
)

A1 = fin_set([0])
A2 = fin_set([0, 1])
BX = fin_set(["x"])
W0, W1 = ("w", 0), ("w", 1)


@st.composite
def small_wit_rels(draw):
    dom = fin_set(range(draw(st.integers(1, 2))))
    cod = fin_set(range(draw(st.integers(1, 2))))
    pairs = [(a, b) for a in dom for b in cod]
    wit = {}
    for p in pairs:
        ws = draw(st.sets(st.sampled_from([W0, W1])))
        wit[p] = tuple(ws)
    return cm.wrel(dom, cod, wit)


class TestWitRel:
    def test_construction_is_canonical(self):
        r = cm.wrel(A2, BX, {(1, "x"): (W1, W0), (0, "x"): (W0,)})
        assert r.entries == (((0, "x"), (W0,)), ((1, "x"), (W0, W1)))
        assert r.wits(1, "x") == (W0, W1)
        assert r.wits(1, 0) == ()
        assert r.size == 3

    def test_empty_witness_sets_are_dropped(self):
        r = cm.wrel(A2, BX, {(0, "x"): (), (1, "x"): (W0,)})
        assert not r.holds(0, "x")
        assert list(r.triples()) == [(1, "x", W0)]

    def test_rejects_escaping_keys(self):
        with pytest.raises(ValueError):
            cm.wrel(A1, BX, {(1, "x"): (W0,)})

    def test_rejects_uncanonical_raw_entries(self):
        bad = (((1, "x"), (W0,)), ((0, "x"), (W0,)))
        with pytest.raises(ValueError):
            cm.WitRel(A2, BX, bad)

    def test_weq_table(self):
        assert cm.weq(A2).entries == (((0, 0), (refl(0),)), ((1, 1), (refl(1),)))


class TestWitRelMor:
    def loop(self):
        return cm.wrel(A2, A2, {(0, 1): (W0, W1), (1, 1): (W0,)})

    def test_action_must_cover_source(self):
        r = self.loop()
        with pytest.raises(ValueError):
            cm.WitRelMor(r, r, fn_id(A2), fn_id(A2), ())

    def test_action_must_land_in_target(self):
        r = self.loop()
        with pytest.raises(ValueError):
            cm.wit_mor(r, r, fn_id(A2), fn_id(A2), lambda a, b, w: ("w", 7))

    def test_identity_and_composition(self):
        r = self.loop()
        i = cm.wit_mor_id(r)
        assert i.is_identity and i.is_iso
        assert cm.wit_mor_compose(i, i) == i

    def test_iso_needs_per_pair_surjectivity(self):
        r = self.loop()
        collapse = cm.wit_mor(r, r, fn_id(A2), fn_id(A2),
                              lambda a, b, w: W0 if (a, b) == (0, 1) else w)
        assert not collapse.is_iso

    def test_inverse_round_trip(self):
        r = self.loop()
        swap = cm.wit_mor(r, r, fn_id(A2), fn_id(A2),
                          lambda a, b, w: (W1 if w == W0 else W0)
                          if (a, b) == (0, 1) else w)
        assert swap.is_iso
        back = cm.wit_mor_inverse(swap)
        assert cm.wit_mor_compose(back, swap) == cm.wit_mor_id(r)
        assert cm.wit_mor_compose(swap, back) == cm.wit_mor_id(r)

    def test_eq_wmor_is_functorial(self):
        for f in all_functions(A2, A2):
            for g in all_functions(A2, A2):
                assert cm.eq_wmor(fn_compose(g, f)) == \
                    cm.wit_mor_compose(cm.eq_wmor(g), cm.eq_wmor(f))
        assert cm.eq_wmor(fn_id(A2)) == cm.wit_mor_id(cm.weq(A2))


class TestWitnessedProductsAndExponentials:
    def test_wprod_multiplies_witness_sets(self):
        r = cm.wrel(A2, BX, {(0, "x"): (W0, W1)})
        s = cm.wrel(A1, A1, {(0, 0): (W0,)})
        p = cm.wprod(r, s)
        got = p.wits(("pr", 0, 0), ("pr", "x", 0))
        assert set(got) == {("wpair", W0, W0), ("wpair", W1, W0)}
        assert p.size == 2

    def test_wexpo_on_equalities_is_pointwise(self):
        e = cm.wexpo(cm.weq(A1), cm.weq(A1))
        assert e.size == 1
        ((key, tabs),) = e.entries
        assert cm.tab_apply(tabs[0], 0, 0, refl(0)) == refl(0)

    def test_wexpo_skips_unrelatable_function_pairs(self):
        r = cm.wrel(A2, A2, {(0, 0): (W0,), (1, 1): (W0,)})
        s = cm.wrel(A2, A2, {(0, 0): (W0,)})
        e = cm.wexpo(r, s)
        # both witnesses of r must land somewhere, so both legs collapse to 0
        assert all(dict(lf[1]) == {0: 0, 1: 0} and dict(lg[1]) == {0: 0, 1: 0}
                   for (lf, lg), _ in e.entries)

    def test_comparison_maps_are_isos(self):
        assert cm.weta_unit().is_iso
        assert cm.weta_prod(A2, BX).is_iso
        assert cm.weta_expo(A2, A2).is_iso

    def test_weta_expo_sends_refl_to_the_pointwise_table(self):
        eta = cm.weta_expo(A1, A2)
        lbl = fn_label(fn(A1, A2, {0: 1}))
        tab = eta.send(lbl, lbl, refl(lbl))
        assert cm.tab_apply(tab, 0, 0, refl(0)) == refl(1)

    def test_wexpo_mor_on_identities_is_identity(self):
        r = cm.wrel(A2, A2, {(0, 1): (W0, W1)})
        s = cm.weq(A2)
        m = cm.wexpo_mor(cm.wit_mor_id(r), cm.wit_mor_id(s))
        assert m.is_identity

    def test_wbang_collapses_everything(self):
        r = cm.wrel(A2, BX, {(0, "x"): (W0, W1)})
        m = cm.wbang(r)
        assert m.tgt == cm.wunit_rel()
        assert all(w == WUNIT for _, w in m.senders)


class TestSquares:
    def two_wit(self):
        return cm.wrel(A2, BX, {(0, "x"): (W0, W1)})

    def test_corner_coherence_is_enforced(self):
        r = self.two_wit()
        with pytest.raises(ValueError):
            cm.two_rel(r, cm.weq(BX), r, cm.weq(BX), [])

    def test_cells_must_be_boundary_typed(self):
        r = self.two_wit()
        cells = [((0, "x", 0, "x"), (W0, refl(0), W1, ("w", 9)))]
        with pytest.raises(ValueError):
            cm.two_rel(r, cm.weq(A2), r, cm.weq(BX), cells)

    def test_face2_projects_each_edge(self):
        r = self.two_wit()
        sq = cm.degen2("horizontal", r)
        assert cm.face2("top", sq) == r
        assert cm.face2("bottom", sq) == r
        assert cm.face2("left", sq) == cm.weq(A2)
        assert cm.face2("right", sq) == cm.weq(BX)
        with pytest.raises(ValueError):
            cm.face2("diagonal", sq)

    def test_replicating_an_equality_gives_the_all_refl_square(self):
        sq = cm.degen2("horizontal", cm.weq(A2))
        want = tuple(sorted(
            (((a, a, a, a), (refl(a), refl(a), refl(a), refl(a))) for a in A2),
            key=label_key))
        assert sq.cells == want

    def test_two_witness_pair_fills_two_of_four(self):
        # direct enumeration of the candidate top/bottom witness pairs
        sq = cm.degen2("horizontal", self.two_wit())
        filled = [(p, r) for p, r in itertools.product((W0, W1), repeat=2)
                  if sq.holds((0, "x", 0, "x"), (p, refl(0), r, refl("x")))]
        assert filled == [(W0, W0), (W1, W1)]

    def test_vertical_is_the_transpose_of_horizontal(self):
        r = self.two_wit()
        assert cm.transpose2(cm.degen2("horizontal", r)) == cm.degen2("vertical", r)

    def test_transpose_is_an_involution(self):
        r = self.two_wit()
        for tag in cm.SQUARE_TAGS:
            sq = cm.square_on(tag, r)
            assert cm.transpose2(cm.transpose2(sq)) == sq

    def test_connection_folds_toward_the_named_corner(self):
        r = self.two_wit()
        up = cm.connection("upper", r)
        assert (up.top, up.left) == (r, r)
        assert (up.bottom, up.right) == (cm.weq(BX), cm.weq(BX))
        low = cm.connection("lower", r)
        assert (low.bottom, low.right) == (r, r)
        assert (low.top, low.left) == (cm.weq(A2), cm.weq(A2))

    def test_connecting_an_equality_gives_the_all_diagonal_square(self):
        sq = cm.connection("upper", cm.weq(A2))
        want = tuple(sorted(
            (((a, a, a, a), (refl(a), refl(a), refl(a), refl(a))) for a in A2),
            key=label_key))
        assert sq.cells == want

    def test_unknown_tags_are_rejected(self):
        r = self.two_wit()
        for bad_call in (lambda: cm.degen2("upper", r),
                         lambda: cm.connection("horizontal", r),
                         lambda: cm.square_on("slanted", r)):
            with pytest.raises(ValueError):
                bad_call()

    @settings(max_examples=60, deadline=None)
    @given(small_wit_rels())
    def test_face_equations_hold_for_any_relation(self, r):
        ed, ec = cm.weq(r.dom), cm.weq(r.cod)
        h, v = cm.degen2("horizontal", r), cm.degen2("vertical", r)
        up, low = cm.connection("upper", r), cm.connection("lower", r)
        assert (h.top, h.bottom, h.left, h.right) == (r, r, ed, ec)
        assert (v.left, v.right, v.top, v.bottom) == (r, r, ed, ec)
        assert (up.top, up.left, up.bottom, up.right) == (r, r, ec, ec)
        assert (low.bottom, low.right, low.top, low.left) == (r, r, ed, ed)


class TestSquareMorphisms:
    def stock(self):
        r1 = cm.wrel(A2, A2, {(0, 1): (W0, W1), (1, 1): (W0,)})
        r2 = cm.wrel(A2, A2, {(0, 0): (W0,), (0, 1): (W0, W1)})
        return r1, r2

    def test_all_constructions_are_natural_in_the_morphism(self):
        # exhaustive over every witnessed morphism between the stock pair
        r1, r2 = self.stock()
        mors = oracles.all_wit_mors(r1, r2)
        assert mors, "stock must admit morphisms"
        for m in mors:
            eh, ev = cm.eq_wmor(m.f), cm.eq_wmor(m.g)
            faces = {
                "horizontal": (m, eh, m, ev),
                "vertical": (eh, m, ev, m),
                "upper": (m, m, ev, ev),
                "lower": (eh, eh, m, m),
            }
            for tag, (t, l, b, rr) in faces.items():
                sq = cm.square_mor_on(tag, m)
                assert (sq.top, sq.left, sq.bottom, sq.right) == (t, l, b, rr)

    def test_constructions_preserve_identities_and_composition(self):
        r1, r2 = self.stock()
        to_eq = oracles.all_wit_mors(r2, cm.weq(A2))
        assert to_eq
        for tag in cm.SQUARE_TAGS:
            assert (cm.square_mor_on(tag, cm.wit_mor_id(r1))
                    == cm.two_mor_id(cm.square_on(tag, r1)))
            for m1 in oracles.all_wit_mors(r1, r2):
                for m2 in to_eq:
                    lhs = cm.square_mor_on(tag, cm.wit_mor_compose(m2, m1))
                    rhs = cm.two_mor_compose(cm.square_mor_on(tag, m2),
                                             cm.square_mor_on(tag, m1))
                    assert lhs == rhs

    def test_square_morphisms_must_share_corners(self):
        r1, _ = self.stock()
        sq = cm.degen2("horizontal", r1)
        i = cm.wit_mor_id(r1)
        other = cm.eq_wmor(fn(A2, A2, {0: 0, 1: 0}))
        with pytest.raises(ValueError, match="corner"):
            cm.TwoRelMor(sq, sq, i, other, i, cm.wit_mor_id(sq.right))


class TestSquareProductsAndExponentials:
    def test_squnit_has_one_cell(self):
        u = cm.squnit()
        assert len(u.cells) == 1 and u.holds((STAR,) * 4, (WUNIT,) * 4)

    def test_sqprod_cells_multiply(self):
        r = cm.wrel(A2, BX, {(0, "x"): (W0, W1)})
        q = cm.degen2("horizontal", r)
        p = cm.sqprod(q, cm.squnit())
        assert len(p.cells) == len(q.cells)
        assert p.top == cm.wprod(q.top, cm.wunit_rel())

    def test_sqexpo_tables_act_cellwise(self):
        q = cm.degen2("horizontal", cm.weq(A1))
        e = cm.sqexpo(q, q)
        assert e.cells, "the identity table must fill"
        (corners, tabs) = e.cells[0]
        (a, b, c, d), (p, qq, r, s) = q.cells[0]
        image = ((apply_label(corners[0], a), apply_label(corners[1], b),
                  apply_label(corners[2], c), apply_label(corners[3], d)),
                 (cm.tab_apply(tabs[0], a, b, p), cm.tab_apply(tabs[1], a, c, qq),
                  cm.tab_apply(tabs[2], c, d, r), cm.tab_apply(tabs[3], b, d, s)))
        assert image in q.cell_set

    def test_sqbang_lands_in_the_unit_square(self):
        q = cm.degen2("vertical", cm.weq(A2))
        m = cm.sqbang(q)
        assert m.tgt == cm.squnit()


@pytest.fixture(scope="module")
def suite():
    return cm.equality_suite(cm.cube_universe(2))


class TestEqualitySuite:
    def test_all_laws_pass_on_the_bound_two_universe(self, suite):
        assert suite.ok, [f.law for f in suite.failures]

    def test_the_six_face_families_are_present(self, suite):
        laws = [f.law for f in suite.findings]
        assert sum("replication" in l or "connections" in l for l in laws) >= 6

    def test_four_composites_coincide_at_two_atoms(self):
        sqs = [cm.square_on(tag, cm.weq(A2)) for tag in cm.SQUARE_TAGS]
        assert all(sq == sqs[0] for sq in sqs)
        # pairwise-bijective predicates, witnessed by literal equality
        assert all(sq.cell_set == sqs[0].cell_set for sq in sqs)

    def test_comparison_isos_on_eq_images_are_identities(self):
        # restricting the universe to equality images forces the strict case
        for a in (A1, A2):
            base = cm.square_on("horizontal", cm.weq(a))
            for tag in cm.SQUARE_TAGS:
                iso = cm.TwoRelMor(cm.square_on(tag, cm.weq(a)), base,
                                   cm.wit_mor_id(base.top), cm.wit_mor_id(base.left),
                                   cm.wit_mor_id(base.bottom), cm.wit_mor_id(base.right))
                assert iso.is_identity

    def test_failures_carry_counterexamples(self):
        # a deliberately broken universe: a relation whose weq is replaced
        bad = cm.CubeUniverse((A1,), (cm.wrel(A1, A1, {}),), ())
        rep = cm.equality_suite(bad)
        assert rep.ok  # empty relation still satisfies every family
