"""Witnessed relations and squares: faces, degeneracies, connections,
quantifier membership, and the forced square-level component."""

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

    def test_two_mor_inverse_round_trip(self):
        r1, _ = self.stock()
        swap = cm.wit_mor(r1, r1, fn_id(A2), fn_id(A2),
                          lambda a, b, w: (W1 if w == W0 else W0)
                          if (a, b) == (0, 1) else w)
        sq = cm.degen2_mor("vertical", swap)
        inv = cm.two_mor_inverse(sq)
        assert cm.two_mor_compose(inv, sq) == cm.two_mor_id(sq.src)


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


def identity_body(objects, relations, squares, fn_mors, rel_mors):
    """The bound variable itself: every evaluator returns its argument."""
    return cm.BodyEval(
        objects=tuple(objects), relations=tuple(relations),
        squares=tuple(squares), fn_mors=tuple(fn_mors), rel_mors=tuple(rel_mors),
        ob0=lambda env, a: a, ob1=lambda env, r: r, ob2=lambda env, q: q,
        mor0=lambda env, i: i, mor1=lambda env, j: j)


class TestMembership:
    def loop_stock(self):
        wa, wb = ("w", "a"), ("w", "b")
        r_loop = cm.wrel(A2, A2, {(0, 0): (wa, wb)})
        squares = tuple(cm.square_on(tag, r_loop) for tag in cm.SQUARE_TAGS)
        return r_loop, (wa, wb), squares

    def test_level0_passes_on_a_singleton_stock(self):
        e = cm.weq(A1)
        body = identity_body((A1,), (e,), (cm.degen2("horizontal", e),),
                             (fn_id(A1),), (cm.wit_mor_id(e),))
        ok, missing = cm.forall2_membership(
            0, body, (), ({A1: 0}, {e: refl(0)}))
        assert ok and missing == ()

    def test_level0_mismatched_witness_names_the_probe(self):
        r_swap = cm.wrel(A2, A2, {(0, 1): (W0,), (1, 0): (W0,)})
        body = identity_body((A2,), (r_swap,), (), (), ())
        ok, missing = cm.forall2_membership(
            0, body, (), ({A2: 0}, {r_swap: W0}))
        assert not ok
        assert any("witness clause" in v and repr(r_swap) in v for v in missing)

    def test_level0_accepts_the_padded_shape(self):
        e = cm.weq(A1)
        body = identity_body((A1,), (e,), (), (), ())
        ok, _ = cm.forall2_membership(0, body, (), ({A1: 0}, {e: refl(0)}, None))
        assert ok

    def test_level1_connection_clauses_pin_the_family_to_the_endpoints(self):
        # across replication probes, the connection clauses force
        # phi[r] to match the endpoint families' choice
        r_loop, (wa, wb), squares = self.loop_stock()
        e = cm.weq(A2)
        body = identity_body((A2,), (r_loop, e), squares,
                             (), (cm.wit_mor_id(r_loop),))
        f = ({A2: 0}, {r_loop: wa, e: refl(0)})
        ok, missing = cm.forall2_membership(
            1, body, ((), f, f), ({r_loop: wa, e: refl(0)},))
        assert ok, missing
        ok, missing = cm.forall2_membership(
            1, body, ((), f, f), ({r_loop: wb, e: refl(0)},))
        assert not ok
        assert any("square clause" in v for v in missing)

    def test_level1_automorphism_probe_kills_every_candidate(self):
        # the witness swap is an automorphism, so no equivariant family exists
        r_loop, (wa, wb), squares = self.loop_stock()
        e = cm.weq(A2)
        swap = cm.wit_mor(r_loop, r_loop, fn_id(A2), fn_id(A2),
                          lambda a, b, w: wb if w == wa else wa)
        body = identity_body((A2,), (r_loop, e), squares, (), (swap,))
        f = ({A2: 0}, {r_loop: wa, e: refl(0)})
        for choice in (wa, wb):
            ok, missing = cm.forall2_membership(
                1, body, ((), f, f), ({r_loop: choice, e: refl(0)},))
            assert not ok
            assert any("transport" in v for v in missing)

    def test_level1_accepts_the_five_slot_shape(self):
        r_loop, (wa, _), squares = self.loop_stock()
        e = cm.weq(A2)
        body = identity_body((A2,), (r_loop, e), (), (), ())
        f = ({A2: 0}, {r_loop: wa, e: refl(0)})
        phi5 = ({r_loop: wa, e: refl(0)}, None, None, None, None)
        ok, _ = cm.forall2_membership(1, body, ((), f, f), phi5)
        assert ok

    def test_level2_all_refl_over_the_replicated_equality(self):
        sq = cm.degen2("horizontal", cm.weq(A2))
        body = identity_body((A2,), (cm.weq(A2),), (sq,), (), ())
        corner = ({A2: 0}, {cm.weq(A2): refl(0)})
        phi = {cm.weq(A2): refl(0)}
        ok, missing = cm.forall2_membership(
            2, body, ((), corner, corner, corner, corner),
            (phi, phi, phi, phi))
        assert ok and missing == ()

    def test_ill_shaped_inputs_are_rejected(self):
        body = identity_body((), (), (), (), ())
        with pytest.raises(ValueError):
            cm.forall2_membership(3, body, (), ())
        with pytest.raises(ValueError):
            cm.forall2_membership(0, body, (), ("just-one",))
        with pytest.raises(ValueError):
            cm.forall2_membership(1, body, (), ({},))
        with pytest.raises(ValueError):
            cm.forall2_membership(2, body, ((), None, None, None, None), ({},))

    def test_missing_family_entries_are_reported_as_shape_errors(self):
        e = cm.weq(A1)
        body = identity_body((A1,), (e,), (), (), ())
        with pytest.raises(ValueError, match="ill-shaped candidate"):
            cm.forall2_membership(0, body, (), ({}, {}))


def renamed_eps(r, tag):
    """A square value isomorphic to the replicated edge value, with the
    endpoint equalities renamed; the iso's sides are the renamings."""
    d = cm.wrel(r.dom, r.dom, {(x, x): ((tag, "d", x),) for x in r.dom})
    c = cm.wrel(r.cod, r.cod, {(y, y): ((tag, "c", y),) for y in r.cod})
    eps_d = cm.wit_mor(cm.weq(r.dom), d, fn_id(r.dom), fn_id(r.dom),
                       lambda a, b, w: (tag, "d", a))
    eps_c = cm.wit_mor(cm.weq(r.cod), c, fn_id(r.cod), fn_id(r.cod),
                       lambda a, b, w: (tag, "c", a))
    sq = cm.two_rel(r, d, r, c,
                    [((a, b, a, b), (w, (tag, "d", a), w, (tag, "c", b)))
                     for a, b, w in r.triples()])
    base = cm.degen2("horizontal", r)
    eps_sq = cm.TwoRelMor(base, sq, cm.wit_mor_id(r), eps_d,
                          cm.wit_mor_id(r), eps_c)
    return sq, eps_sq, eps_d, eps_c


def forced_component(eps_out, leg, eps_in):
    return cm.wit_mor_compose(
        eps_out, cm.wit_mor_compose(cm.eq_wmor(leg), cm.wit_mor_inverse(eps_in)))


class TestEtaSquareExtension:
    def sample_rels(self):
        r_f = cm.wrel(A2, A2, {(0, 1): (W0, W1)})
        r_g = cm.wrel(A2, A2, {(0, 1): (W0, W1), (1, 0): (("w", 2),)})
        return r_f, r_g

    def test_identity_inputs_give_the_identity(self):
        r = cm.wrel(A2, A2, {(0, 1): (W0, W1)})
        e = cm.two_mor_id(cm.degen2("horizontal", r))
        out = cm.eta2_extension(
            (fn_id(A2), fn_id(A2)),
            (cm.wit_mor_id(r), cm.wit_mor_id(cm.weq(A2)), cm.wit_mor_id(cm.weq(A2))),
            e, e)
        assert out.is_identity

    def test_every_sampled_transformation_extends_uniquely(self):
        # exhaustive search over all square morphisms is the uniqueness oracle
        r_f, r_g = self.sample_rels()
        q_f, eps_f, eps_fd, eps_fc = renamed_eps(r_f, "F")
        q_g, eps_g, eps_gd, eps_gc = renamed_eps(r_g, "G")
        samples = oracles.all_wit_mors(r_f, r_g)
        assert len(samples) >= 4
        candidates = oracles.all_two_mors(q_f, q_g)
        for m_rel in samples:
            m_eqd = forced_component(eps_gd, m_rel.f, eps_fd)
            m_eqc = forced_component(eps_gc, m_rel.g, eps_fc)
            out = cm.eta2_extension((m_rel.f, m_rel.g), (m_rel, m_eqd, m_eqc),
                                    eps_f, eps_g)
            assert (out.top, out.bottom, out.left, out.right) == \
                (m_rel, m_rel, m_eqd, m_eqc)
            matching = [c for c in candidates
                        if (c.top, c.bottom, c.left, c.right)
                        == (m_rel, m_rel, m_eqd, m_eqc)]
            assert matching == [out]

    def test_solution_satisfies_the_defining_equation(self):
        r_f, r_g = self.sample_rels()
        _, eps_f, eps_fd, eps_fc = renamed_eps(r_f, "F")
        _, eps_g, eps_gd, eps_gc = renamed_eps(r_g, "G")
        m_rel = oracles.all_wit_mors(r_f, r_g)[0]
        m_eqd = forced_component(eps_gd, m_rel.f, eps_fd)
        m_eqc = forced_component(eps_gc, m_rel.g, eps_fc)
        out = cm.eta2_extension((m_rel.f, m_rel.g), (m_rel, m_eqd, m_eqc),
                                eps_f, eps_g)
        lhs = cm.two_mor_compose(out, eps_f)
        rhs = cm.two_mor_compose(eps_g, cm.degen2_mor("horizontal", m_rel))
        assert lhs == rhs

    def test_components_off_the_element_maps_are_rejected(self):
        r_f, r_g = self.sample_rels()
        _, eps_f, eps_fd, eps_fc = renamed_eps(r_f, "F")
        _, eps_g, eps_gd, eps_gc = renamed_eps(r_g, "G")
        m_rel = oracles.all_wit_mors(r_f, r_g)[0]
        twist = fn(A2, A2, {0: 1, 1: 0})
        bad_eqd = forced_component(eps_gd, fn_compose(twist, m_rel.f), eps_fd)
        m_eqc = forced_component(eps_gc, m_rel.g, eps_fc)
        with pytest.raises(ValueError, match="element maps"):
            cm.eta2_extension((m_rel.f, m_rel.g), (m_rel, bad_eqd, m_eqc),
                              eps_f, eps_g)

    def test_non_iso_eps_is_rejected(self):
        r = cm.wrel(A2, A2, {(0, 1): (W0, W1)})
        base = cm.degen2("horizontal", r)
        collapse = cm.wit_mor(r, r, fn_id(A2), fn_id(A2), lambda a, b, w: W0)
        eps_bad = cm.TwoRelMor(base, base, collapse, cm.wit_mor_id(base.left),
                               collapse, cm.wit_mor_id(base.right))
        good = cm.two_mor_id(base)
        with pytest.raises(ValueError, match="isomorphism"):
            cm.eta2_extension(
                (fn_id(A2), fn_id(A2)),
                (cm.wit_mor_id(r), cm.wit_mor_id(cm.weq(A2)),
                 cm.wit_mor_id(cm.weq(A2))),
                eps_bad, good)

    def test_incoherent_top_face_has_no_solution(self):
        # an eps whose target square renames the top edge cannot restrict
        # to the given relation component on faces
        r = cm.wrel(A2, A2, {(0, 1): (W0,)})
        renamed_top = cm.wrel(A2, A2, {(0, 1): (("v", 0),)})
        t = cm.wit_mor(r, renamed_top, fn_id(A2), fn_id(A2),
                       lambda a, b, w: ("v", 0))
        sq = cm.two_rel(renamed_top, cm.weq(A2), r, cm.weq(A2),
                        [((0, 1, 0, 1), (("v", 0), refl(0), W0, refl(1)))])
        eps_src = cm.TwoRelMor(cm.degen2("horizontal", r), sq,
                               t, cm.wit_mor_id(cm.weq(A2)),
                               cm.wit_mor_id(r), cm.wit_mor_id(cm.weq(A2)))
        eps_tgt = cm.two_mor_id(cm.degen2("horizontal", r))
        with pytest.raises(ValueError, match="no face-respecting solution"):
            cm.eta2_extension(
                (fn_id(A2), fn_id(A2)),
                (cm.wit_mor_id(r), cm.wit_mor_id(cm.weq(A2)),
                 cm.wit_mor_id(cm.weq(A2))),
                eps_src, eps_tgt)


class TestSerialization:
    def test_wit_rel_golden_shape(self):
        r = cm.wrel(A2, BX, {(0, "x"): (W0,)})
        assert cm.wit_rel_to_data(r) == {
            "dom": [0, 1], "cod": ["x"],
            "witness": [[0, "x", [["w", 0]]]]}

    def test_wit_rel_round_trip(self):
        r = cm.wrel(A2, A2, {(0, 1): (W0, W1), (1, 1): (refl(1),)})
        assert cm.wit_rel_from_data(cm.wit_rel_to_data(r)) == r

    def test_two_rel_golden_shape(self):
        sq = cm.degen2("horizontal", cm.weq(A1))
        eq_data = {"dom": [0], "cod": [0], "witness": [[0, 0, [["refl", 0]]]]}
        assert cm.two_rel_to_data(sq) == {
            "corners": [[0], [0], [0], [0]],
            "top": eq_data, "left": eq_data, "bottom": eq_data, "right": eq_data,
            "cells": [[[0, 0, 0, 0],
                       [["refl", 0], ["refl", 0], ["refl", 0], ["refl", 0]]]]}

    def test_two_rel_round_trip(self):
        r = cm.wrel(A2, BX, {(0, "x"): (W0, W1), (1, "x"): (W0,)})
        for tag in cm.SQUARE_TAGS:
            sq = cm.square_on(tag, r)
            assert cm.two_rel_from_data(cm.two_rel_to_data(sq)) == sq

    def test_malformed_data_is_rejected(self):
        with pytest.raises(ValueError):
            cm.wit_rel_from_data({"dom": [0]})
        with pytest.raises(ValueError):
            cm.two_rel_from_data({"corners": []})

    def test_disagreeing_corners_are_rejected(self):
        sq = cm.degen2("horizontal", cm.weq(A1))
        data = cm.two_rel_to_data(sq)
        data["corners"][0] = [0, 1]
        with pytest.raises(ValueError, match="corners"):
            cm.two_rel_from_data(data)

    @settings(max_examples=40, deadline=None)
    @given(small_wit_rels())
    def test_round_trip_is_identity_on_random_relations(self, r):
        assert cm.wit_rel_from_data(cm.wit_rel_to_data(r)) == r
