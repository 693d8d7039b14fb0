"""Witnessed relations and squares: morphisms, the witnessed
exponential, faces, degeneracies, connections, and the face-equation
suite over a finite stock."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import verdict_rows
from param_workbench import cubemodel as cm
from param_workbench.finmodel import (
    all_functions,
    fin_set,
    fn,
    fn_compose,
    fn_id,
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

    def test_eq_wmor_is_functorial(self):
        for f in all_functions(A2, A2):
            for g in all_functions(A2, A2):
                assert cm.eq_wmor(fn_compose(g, f)) == \
                    cm.wit_mor_compose(cm.eq_wmor(g), cm.eq_wmor(f))
        assert cm.eq_wmor(fn_id(A2)) == cm.wit_mor_id(cm.weq(A2))


class TestWitnessedProductsAndExponentials:
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

    def test_horizontal_square_edges(self):
        r = self.two_wit()
        sq = cm.square_on("horizontal", r)
        assert (sq.top, sq.left, sq.bottom, sq.right) == (r, cm.weq(A2), r, cm.weq(BX))

    def test_replicating_an_equality_gives_the_all_refl_square(self):
        sq = cm.square_on("horizontal", cm.weq(A2))
        want = tuple(sorted(
            (((a, a, a, a), (refl(a), refl(a), refl(a), refl(a))) for a in A2),
            key=label_key))
        assert sq.cells == want

    def test_two_witness_pair_fills_two_of_four(self):
        # direct enumeration of the candidate top/bottom witness pairs
        sq = cm.square_on("horizontal", self.two_wit())
        filled = [(p, r) for p, r in itertools.product((W0, W1), repeat=2)
                  if sq.holds((0, "x", 0, "x"), (p, refl(0), r, refl("x")))]
        assert filled == [(W0, W0), (W1, W1)]

    def test_vertical_is_the_transpose_of_horizontal(self):
        r = self.two_wit()
        assert (oracles.transpose2(cm.square_on("horizontal", r))
                == cm.square_on("vertical", r))

    def test_connection_folds_toward_the_named_corner(self):
        r = self.two_wit()
        up = cm.square_on("upper", r)
        assert (up.top, up.left) == (r, r)
        assert (up.bottom, up.right) == (cm.weq(BX), cm.weq(BX))
        low = cm.square_on("lower", r)
        assert (low.bottom, low.right) == (r, r)
        assert (low.top, low.left) == (cm.weq(A2), cm.weq(A2))

    def test_connecting_an_equality_gives_the_all_diagonal_square(self):
        sq = cm.square_on("upper", cm.weq(A2))
        want = tuple(sorted(
            (((a, a, a, a), (refl(a), refl(a), refl(a), refl(a))) for a in A2),
            key=label_key))
        assert sq.cells == want

    def test_unknown_tags_are_rejected(self):
        r = self.two_wit()
        with pytest.raises(ValueError, match="slanted"):
            cm.square_on("slanted", r)
        with pytest.raises(ValueError, match="slanted"):
            cm.square_mor_on("slanted", cm.wit_mor_id(r))

    @settings(max_examples=60, deadline=None)
    @given(small_wit_rels())
    def test_face_equations_hold_for_any_relation(self, r):
        ed, ec = cm.weq(r.dom), cm.weq(r.cod)
        h, v, up, low = (cm.square_on(tag, r)
                         for tag in ("horizontal", "vertical", "upper", "lower"))
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
        sq = cm.square_on("horizontal", r1)
        i = cm.wit_mor_id(r1)
        other = cm.eq_wmor(fn(A2, A2, {0: 0, 1: 0}))
        with pytest.raises(ValueError, match="corner"):
            cm.TwoRelMor(sq, sq, i, other, i, cm.wit_mor_id(sq.right))


@pytest.fixture(scope="module")
def suite():
    return cm.equality_suite(cm.cube_universe(2))


class TestEqualitySuite:
    def test_all_laws_pass_on_the_bound_two_universe(self, suite):
        assert suite.ok, [f.law for f in suite.failures]

    def test_rows_and_squares_match_the_frozen_table(self, suite):
        assert verdict_rows.rows(suite) == verdict_rows.frozen("equality_suite:2")
        assert (verdict_rows.square_rows(cm.cube_universe(2))
                == verdict_rows.frozen("squares:2"))

    def test_the_six_face_families_are_present(self, suite):
        laws = [f.law for f in suite.findings]
        assert sum("replication" in l or "connections" in l for l in laws) >= 6

    def test_four_composites_coincide_at_two_atoms(self):
        sqs = [cm.square_on(tag, cm.weq(A2)) for tag in cm.SQUARE_TAGS]
        assert all(sq == sqs[0] for sq in sqs)
        # pairwise-bijective predicates, witnessed by literal equality
        assert all(sq.cell_set == sqs[0].cell_set for sq in sqs)

    def test_comparison_isos_on_eq_images_are_identities(self):
        # on equality images the comparisons are identities, not merely
        # isos with identity corners
        for a in (A1, A2):
            base = cm.square_on("horizontal", cm.weq(a))
            for tag in cm.SQUARE_TAGS:
                iso = cm.TwoRelMor(cm.square_on(tag, cm.weq(a)), base,
                                   cm.wit_mor_id(base.top), cm.wit_mor_id(base.left),
                                   cm.wit_mor_id(base.bottom), cm.wit_mor_id(base.right))
                assert iso.is_identity

    def test_failures_carry_counterexamples(self, monkeypatch):
        # each square in turn with its edges kept but its cells dropped
        real = cm.square_on
        for tag in cm.SQUARE_TAGS:
            def unfilled(t, r, tag=tag):
                sq = real(t, r)
                if t != tag:
                    return sq
                return cm.two_rel(sq.top, sq.left, sq.bottom, sq.right, [])

            with monkeypatch.context() as mp:
                mp.setattr(cm, "square_on", unfilled)
                rep = cm.equality_suite(cm.cube_universe(1))
            (bad,) = [f for f in rep.failures
                      if f.law == "equality squares: all four constructions coincide"]
            assert repr(A1) in bad.detail, tag


@pytest.fixture
def fresh_squares():
    """square_on's cache emptied before and after, so a patched layout
    table is read and none of its squares outlive the test."""
    cm.square_on.cache_clear()
    yield
    cm.square_on.cache_clear()


def test_each_layout_needs_its_own_edges(monkeypatch, fresh_squares):
    # a tag's cells on another tag's edges are not boundary-typed on a
    # relation that is not an equality; on an equality every layout
    # builds the same square, so there the swap goes unseen
    r = cm.wrel(A2, BX, {(0, "x"): (W0, W1)})
    at_eq = cm.square_on("horizontal", cm.weq(A2))
    table = dict(cm._SQUARES)
    for tag, other in itertools.permutations(cm.SQUARE_TAGS, 2):
        with monkeypatch.context() as mp:
            mp.setitem(cm._SQUARES, tag, (table[other][0], table[tag][1]))
            cm.square_on.cache_clear()
            with pytest.raises(ValueError, match="not boundary-typed"):
                cm.square_on(tag, r)
            assert cm.square_on(tag, cm.weq(A2)) == at_eq, (tag, other)
