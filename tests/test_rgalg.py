"""Two-level category algebra: validation, composition, whiskering, laws."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import verdict_rows
import param_workbench
from param_workbench import finmodel as fm
from param_workbench import rgalg
from param_workbench.rgalg import (
    IsoSubcategory,
    Report,
    RgCategory,
    cat_functor_compose,
    check_functor_tab,
    check_nat_tab,
    check_seven_maps,
    compose_functor,
    compose_nat,
    functors_equal,
    id_functor,
    id_nat,
    law_suite,
    make_cat_functor,
    make_category,
    nats_equal,
    tuple_functor,
    validate_rg,
    whisker,
)


def one_object_instance() -> RgCategory:
    """Single object and identity at both levels, faces declared twice."""
    l0 = make_category(["A"], {"a": ("A", "A")}, {"A": "a"}, {("a", "a"): "a"})
    l1 = make_category(["R"], {"r": ("R", "R")}, {"R": "r"}, {("r", "r"): "r"})
    top = make_cat_functor({"R": "A"}, {"r": "a"})
    bot = make_cat_functor({"R": "A"}, {"r": "a"})
    up = make_cat_functor({"A": "R"}, {"a": "r"})
    return RgCategory(l0, l1, top, bot, up)


@pytest.fixture(scope="module")
def stock(rey_instance):
    rg, _ = rey_instance
    return fm.stock_functors(rg, fm.IsoPolicy.REY, 2)


@pytest.fixture(scope="module")
def chains(rey_instance):
    rg, _ = rey_instance
    return fm.stock_nat_chains(rg, fm.IsoPolicy.REY, 2)


class TestValidate:
    def test_degenerate_one_object_instance_passes(self):
        rep = validate_rg(one_object_instance())
        assert rep.ok, [f.row() for f in rep.failures]

    def test_sharing_one_functor_between_both_faces_fails(self):
        rg = one_object_instance()
        shared = rg.face_top
        bad = RgCategory(rg.level0, rg.level1, shared, shared, rg.degen)
        rep = validate_rg(bad)
        assert not rep.ok
        assert [f.law for f in rep.failures] == [
            "face_top distinct from face_bot"]

    def test_equal_face_tables_fail_where_they_could_differ(self):
        # two discrete level-0 objects leave room for distinct
        # projections, so coinciding tables are no longer excused
        l0 = make_category(["A", "B"], {"a": ("A", "A"), "b": ("B", "B")},
                           {"A": "a", "B": "b"},
                           {("a", "a"): "a", ("b", "b"): "b"})
        l1 = make_category(["RA", "RB"],
                           {"ra": ("RA", "RA"), "rb": ("RB", "RB")},
                           {"RA": "ra", "RB": "rb"},
                           {("ra", "ra"): "ra", ("rb", "rb"): "rb"})
        down = lambda: make_cat_functor({"RA": "A", "RB": "B"},
                                        {"ra": "a", "rb": "b"})
        up = make_cat_functor({"A": "RA", "B": "RB"}, {"a": "ra", "b": "rb"})
        rep = validate_rg(RgCategory(l0, l1, down(), down(), up))
        assert [f.law for f in rep.failures] == [
            "face_top distinct from face_bot"]

    def test_finmodel_instance_validates(self, rey_instance):
        rg, sub = rey_instance
        rep = validate_rg(rg, sub)
        assert rep.ok, [f.row() for f in rep.failures]

    def test_sampled_rows_are_frozen(self, rey_instance):
        rg, sub = rey_instance
        rep = validate_rg(rg, sub, assoc_limit=verdict_rows.ASSOC_LIMIT)
        assert verdict_rows.rows(rep) == verdict_rows.frozen("validate_rg:rey:2")

    def test_level0_law_failure_keeps_level1_laws(self):
        # level 0 has an idempotent b with one composite corrupted, so
        # its identity law fails; level 1's laws must still be checked
        comp = {("a", "a"): "a", ("b", "a"): "a", ("a", "b"): "b",
                ("b", "b"): "b"}
        l0 = make_category(["A"], {"a": ("A", "A"), "b": ("A", "A")},
                           {"A": "a"}, comp)
        rg = one_object_instance()
        up = make_cat_functor({"A": "R"}, {"a": "r", "b": "r"})
        rep = validate_rg(RgCategory(l0, rg.level1, rg.face_top,
                                     rg.face_bot, up))
        assert "level0: identity laws" in [f.law for f in rep.failures]
        level1 = {f.law: f.passed for f in rep.findings
                  if f.law.startswith("level1: ")}
        assert level1["level1: identity laws"]
        assert any("associativity" in law and passed
                   for law, passed in level1.items())

    def test_dangling_boundary_reported_before_laws(self):
        broken = make_category(["A"], {"a": ("A", "Z")}, {"A": "a"}, {})
        rep = Report()
        rgalg.check_category(broken, rep, "x")
        laws = [f.law for f in rep.failures]
        assert "x: morphism boundaries in object table" in laws
        assert not any("associativity" in law for law in laws)

    def test_compose_naming_an_unknown_morphism_is_a_finding(self):
        broken = make_category(["A"], {"a": ("A", "A")}, {"A": "a"},
                               {("a", "a"): "a", ("zz", "a"): "a"})
        rep = Report()
        rgalg.check_category(broken, rep, "x")
        assert "x: compose boundaries" in [f.law for f in rep.failures]

    def test_object_without_identity_fails_the_functor_checks(self):
        # S has no identity, so no functor out of level 1 can preserve it
        rg = one_object_instance()
        l1 = make_category(["R", "S"], {"r": ("R", "R")}, {"R": "r"},
                           {("r", "r"): "r"})
        down = lambda: make_cat_functor({"R": "A", "S": "A"}, {"r": "a"})
        rep = validate_rg(RgCategory(rg.level0, l1, down(), down(), rg.degen))
        failed = [f.law for f in rep.failures]
        assert "level1: identity total" in failed
        assert "face_top: preserves identities" in failed

    def test_identity_for_an_unknown_object_is_a_finding(self):
        broken = make_category(["A"], {"a": ("A", "A")},
                               {"A": "a", "Z": "a"}, {("a", "a"): "a"})
        rep = Report()
        rgalg.check_category(broken, rep, "x")
        assert "x: identities are endomorphisms" in [
            f.law for f in rep.failures]


def _bound1_instances():
    return [fm.build_instance(p, 1)[0] for p in fm.IsoPolicy]


class TestRankedTables:
    def test_inverses_match_the_quadratic_scan(self, rey_instance):
        for rg in _bound1_instances() + [rey_instance[0]]:
            for cat in (rg.level0, rg.level1):
                assert cat.inverses == oracles.quadratic_inverses(cat)

    def test_functor_composites_keep_the_canonical_order(self, rey_instance):
        # CatFunctor equality compares the tuples, so this pins the order
        for rg in _bound1_instances() + [rey_instance[0]]:
            closure = rgalg._closure_of_maps(rg)
            pairs = [(f, g) for sa, _, f in closure for _, tb, g in closure
                     if tb == sa]
            assert pairs
            for f, g in pairs:
                want = make_cat_functor(
                    {o: f.on_obj[v] for o, v in g.on_obj.items()},
                    {m: f.on_mor[v] for m, v in g.on_mor.items()})
                assert cat_functor_compose(f, g) == want

    def test_table_order_does_not_depend_on_the_input_order(self,
                                                            rey_instance):
        rg, _ = rey_instance
        for cat in (rg.level0, rg.level1):
            again = make_category(
                reversed(cat.objects),
                {m: (s, t) for m, s, t in reversed(cat.morphisms)},
                dict(reversed(cat.identity)), dict(reversed(cat.compose)))
            assert again == cat

    def test_built_compose_table_matches_the_sorted_one(self, rey_instance):
        # category_from_morphisms lists composites in rank order instead of
        # sorting them; make_category sorts whatever table it is given
        rg, _ = rey_instance
        subsets = [fm.fin_set(s) for s in ([], ["a"], ["b"], ["a", "b"])]
        cases = [
            (rg.level0.objects, {m: (s, t) for m, s, t in rg.level0.morphisms},
             rg.level0.id_of, fm.fn_compose),
            (rg.level1.objects, {m: (s, t) for m, s, t in rg.level1.morphisms},
             rg.level1.id_of, fm.rel_mor_compose),
            (subsets, {f: (a, b) for a in subsets for b in subsets
                       for f in fm.all_functions(a, b)},
             {a: fm.fn_id(a) for a in subsets}, fm.fn_compose)]
        for objs, mors, ids, compose in cases:
            objs, mors = objs[::-1], dict(reversed(mors.items()))
            pairs = [(g, f) for f in mors for g in mors
                     if mors[f][1] == mors[g][0]]
            random.Random(0).shuffle(pairs)
            want = make_category(objs, mors, ids,
                                 {(g, f): compose(g, f) for g, f in pairs})
            got = rgalg.category_from_morphisms(objs, mors, ids, compose)
            assert got.compose and got == want

    def test_table_order_does_not_depend_on_the_hash_seed(self):
        # records hash by address, so the subsets of {a, b}, handed over
        # in a set, arrive in a different order in each child
        script = (
            "import hashlib\n"
            "from param_workbench import finmodel as fm, rgalg\n"
            "rg, _ = fm.build_instance(fm.IsoPolicy.REY, 2)\n"
            "objs = {fm.fin_set(s) for s in ([], ['a'], ['b'], ['a', 'b'])}\n"
            "mors = {f: (f.dom, f.cod) for a in objs for b in objs\n"
            "        for f in fm.all_functions(a, b)}\n"
            "strs = rgalg.category_from_morphisms(\n"
            "    objs, mors, {a: fm.fn_id(a) for a in objs}, fm.fn_compose)\n"
            "h = hashlib.sha256()\n"
            "for cat in (rg.level0, rg.level1, strs):\n"
            "    rank = {m: i for i, m in enumerate(cat.mor_ids)}\n"
            "    h.update(repr(cat.objects).encode())\n"
            "    h.update(repr(cat.mor_ids).encode())\n"
            "    h.update(repr([(rank[g], rank[f], rank[gf])\n"
            "                   for (g, f), gf in cat.compose]).encode())\n"
            "print(h.hexdigest())\n")
        src = str(Path(param_workbench.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        procs = [subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed})
            for seed in ("0", "4242")]
        try:
            digests = [p.communicate(timeout=300)[0].strip() for p in procs]
        finally:
            for p in procs:
                p.kill()
        assert [p.returncode for p in procs] == [0, 0]
        assert digests[0] and digests[0] == digests[1]


class TestSevenMaps:
    def test_rich_instance_generates_exactly_seven(self, rey_instance):
        rg, _ = rey_instance
        assert len(rgalg._closure_of_maps(rg)) == 7

    def test_degenerate_instance_stays_within_the_seven(self):
        rep = Report()
        check_seven_maps(one_object_instance(), rep)
        assert rep.ok


class TestComposeFunctor:
    def test_identity_absorbs_on_either_side(self, rey_instance, rey_probes,
                                              stock):
        rg, _ = rey_instance
        f = stock(random.Random(11))
        ident = id_functor(rg, 1)
        assert functors_equal(compose_functor(ident, f), f, rey_probes) is None
        assert functors_equal(compose_functor(f, ident), f, rey_probes) is None

    def test_composite_eps_has_identity_face_images(self, rey_instance,
                                                    rey_probes, stock):
        # oracle: apply the face projections to each mediating entry
        rg, _ = rey_instance
        rng = random.Random(12)
        gf = compose_functor(stock(rng), stock(rng))
        for t in rey_probes.obj_tuples(0, 1):
            for m in gf.eps(t):
                a = rg.level1.src[m]
                assert rg.face_top.on_mor[m] == \
                    rg.level0.id_of[rg.face_top.on_obj[a]]
                assert rg.face_bot.on_mor[m] == \
                    rg.level0.id_of[rg.face_bot.on_obj[a]]

    def test_composition_associates(self, rey_probes, stock):
        rng = random.Random(13)
        f, g, h = stock(rng), stock(rng), stock(rng)
        lhs = compose_functor(compose_functor(h, g), f)
        rhs = compose_functor(h, compose_functor(g, f))
        assert functors_equal(lhs, rhs, rey_probes) is None

    def test_arity_mismatch_raises(self, rey_instance):
        rg, _ = rey_instance
        with pytest.raises(ValueError):
            compose_functor(oracles.proj_functor(rg, 2, 0), id_functor(rg, 1))


class TestComposeNat:
    def test_identity_transformation_absorbs(self, rey_probes, chains):
        e = chains(random.Random(21), 1)[0]
        assert nats_equal(compose_nat(id_nat(e.tgt), e), e, rey_probes) is None
        assert nats_equal(compose_nat(e, id_nat(e.src)), e, rey_probes) is None

    def test_vertical_associativity(self, rey_probes, chains):
        e1, e2, e3 = chains(random.Random(22), 3)
        lhs = compose_nat(compose_nat(e3, e2), e1)
        rhs = compose_nat(e3, compose_nat(e2, e1))
        assert nats_equal(lhs, rhs, rey_probes) is None

    def test_composite_respects_faces_pointwise(self, rey_instance,
                                                rey_probes, chains):
        rg, _ = rey_instance
        e1, e2 = chains(random.Random(23), 2)
        comp = compose_nat(e2, e1)
        for face in (rg.face_top, rg.face_bot):
            for t in rey_probes.obj_tuples(1, 1):
                img = tuple(face.on_mor[m] for m in comp.eta1(t))
                assert img == comp.eta0(tuple(face.on_obj[o] for o in t))

    def test_boundary_mismatch_raises(self, rey_instance):
        rg, _ = rey_instance
        with pytest.raises(ValueError):
            compose_nat(id_nat(id_functor(rg, 2)), id_nat(id_functor(rg, 1)))


class TestWhisker:
    def test_whiskered_identity_is_identity_of_composite(
            self, rey_probes, stock, chains):
        rng = random.Random(31)
        f = stock(rng)
        e = chains(rng, 1)[0]
        got = whisker("right", f, id_nat(e.src))
        assert nats_equal(got, id_nat(compose_functor(e.src, f)),
                          rey_probes) is None
        got = whisker("left", f, id_nat(e.src))
        assert nats_equal(got, id_nat(compose_functor(f, e.src)),
                          rey_probes) is None

    def test_interchange_between_the_two_sides(self, rey_probes, chains):
        rng = random.Random(32)
        eta = chains(rng, 1)[0]
        mu = chains(rng, 1)[0]
        fa, ga = eta.src, eta.tgt
        ha, ka = mu.src, mu.tgt
        one = compose_nat(whisker("right", ga, mu),
                          whisker("left", ha, eta))
        other = compose_nat(whisker("left", ka, eta),
                            whisker("right", fa, mu))
        assert nats_equal(one, other, rey_probes) is None

    def test_whiskering_preserves_degeneracy_squares(
            self, rey_instance, rey_probes, stock, chains):
        rg, _ = rey_instance
        rng = random.Random(33)
        w = whisker("left", stock(rng), chains(rng, 1)[0])
        lvl1 = rg.level1
        for t in rey_probes.obj_tuples(0, 1):
            dt = tuple(rg.degen.on_obj[o] for o in t)
            lhs = tuple(lvl1.comp2(a, b)
                        for a, b in zip(w.eta1(dt), w.src.eps(t)))
            rhs = tuple(lvl1.comp2(a, b) for a, b in zip(
                w.tgt.eps(t),
                (rg.degen.on_mor[m] for m in w.eta0(t))))
            assert lhs == rhs

    def test_bad_side_rejected(self, rey_instance, chains):
        rg, _ = rey_instance
        e = chains(random.Random(34), 1)[0]
        with pytest.raises(ValueError):
            whisker("up", id_functor(rg, 1), e)


class TestTuple:
    def test_projection_tuple_is_identity(self, rey_instance, rey_probes):
        rg, _ = rey_instance
        both = tuple_functor([oracles.proj_functor(rg, 2, 0),
                              oracles.proj_functor(rg, 2, 1)])
        assert functors_equal(both, id_functor(rg, 2), rey_probes) is None

    def test_projection_after_tuple_gives_component(self, rey_instance,
                                                    rey_probes, stock):
        rg, _ = rey_instance
        rng = random.Random(41)
        f0, f1 = stock(rng), stock(rng)
        pair = tuple_functor([f0, f1])
        for i, want in ((0, f0), (1, f1)):
            got = compose_functor(oracles.proj_functor(rg, 2, i), pair)
            assert functors_equal(got, want, rey_probes) is None

    def test_tuple_eps_face_images_identity_componentwise(
            self, rey_instance, rey_probes, stock):
        rg, _ = rey_instance
        rng = random.Random(42)
        pair = tuple_functor([stock(rng), stock(rng)])
        for t in rey_probes.obj_tuples(0, 1):
            for m in pair.eps(t):
                a = rg.level1.src[m]
                assert rg.face_top.on_mor[m] == \
                    rg.level0.id_of[rg.face_top.on_obj[a]]
                assert rg.face_bot.on_mor[m] == \
                    rg.level0.id_of[rg.face_bot.on_obj[a]]

    def test_empty_tuple_validates(self, rey_instance, rey_probes):
        rg, sub = rey_instance
        empty = tuple_functor([], rg=rg, arity_in=1)
        rep = Report()
        check_functor_tab(empty, rep, rey_probes, sub)
        assert rep.ok, [f.row() for f in rep.failures]

    def test_tuple_of_transformations_is_natural(self, rey_probes, chains):
        rng = random.Random(43)
        tn = oracles.tuple_nat([chains(rng, 1)[0], chains(rng, 1)[0]])
        rep = Report()
        check_nat_tab(tn, rep, rey_probes)
        assert rep.ok, [f.row() for f in rep.failures]


class TestProbes:
    def test_composable_pairs_are_a_spread_sample(self, rey_instance,
                                                   rey_probes):
        # level 1 has 530 morphisms and 17,350 composable pairs; the
        # first 400 pairs in table order start from only 10 of them
        cat = rey_instance[0].level1
        pairs = rey_probes.composable_pairs(1, 1)
        assert len(pairs) == len(set(pairs)) == rgalg.TUPLE_CAP
        assert all(cat.tgt[f] == cat.src[g] for (g,), (f,) in pairs)
        assert len({f for _, (f,) in pairs}) > 10

    def test_a_reused_probes_gives_the_same_law_rows(self, rey_instance,
                                                     stock, chains):
        # each enumeration is built once per instance, then handed out
        rg, sub = rey_instance
        probes = rgalg.Probes(rg)

        def rows():
            return [f.row() for f in law_suite(rg, sub, stock, chains, rounds=3,
                                               probes=probes).findings]

        cold = rows()
        assert probes.composable_pairs(1, 1) is probes.composable_pairs(1, 1)
        assert rows() == cold


class TestLawSuite:
    def test_trivial_instance_all_laws_hold(self):
        rg = one_object_instance()
        sub = IsoSubcategory(frozenset({"a"}), frozenset({"r"}))
        rep = law_suite(
            rg, sub,
            lambda rng: id_functor(rg, 1),
            lambda rng, k: [id_nat(id_functor(rg, 1)) for _ in range(k)],
            rounds=2, seed=0)
        assert rep.ok, [f.row() for f in rep.failures]

    def test_finmodel_rounds_pass(self, rey_instance, stock, chains):
        # a short run; the 200-round version is the acceptance gate
        rg, sub = rey_instance
        rep = law_suite(rg, sub, stock, chains, rounds=5, seed=3)
        assert rep.ok, [f.row() for f in rep.failures]

    def test_corrupted_eps_is_pinpointed(self, rey_instance, rey_probes):
        rg, sub = rey_instance
        fun = fm.conjugation_functor(rg, {0: 1, 1: 0})
        env = (fm.fin_set([0]),)
        wrong = (rg.level1.id_of[fm.eq_rel(fm.fin_set([0]))],)
        rep = Report()
        check_functor_tab(oracles.override_eps(fun, env, wrong), rep, rey_probes, sub)
        assert not rep.ok
        assert any("eps" in f.law and repr(env[0]) in f.detail
                   for f in rep.failures)

    def test_corrupted_component_is_pinpointed(self, rey_instance,
                                               rey_probes, chains):
        rg, _ = rey_instance
        e = chains(random.Random(44), 1)[0]
        env = (fm.fin_set([0, 1]),)
        wrong = (rg.level0.id_of[fm.fin_set([0])],)
        bad = oracles.override_nat_component(e, 0, env, wrong)
        rep = Report()
        check_nat_tab(bad, rep, rey_probes)
        assert not rep.ok
        assert any(repr(env[0]) in f.detail for f in rep.failures)
