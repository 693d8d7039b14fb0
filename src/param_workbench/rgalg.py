"""Two-level categories with faces and a degeneracy, plus a law harness.

A structure here is a pair of finite categories: level 0 holds the
underlying objects, level 1 the relations, tied together by two face
projections and an equality degeneracy splitting both. Functors and
transformations between powers of such a structure are tabulated over
the finite data, so every law is a decidable table comparison.

Everything is generic over the morphism carriers: object and morphism
ids are arbitrary hashable values, and nothing below inspects them.
Tables are sorted by the repr of single ids (_rkey), or by their ranks
in the sorted object and morphism tables, never by repr of pairs, and
counterexamples are sought in that order: ids may hash by address, so
neither depends on set order, nor on how callers list entries.  A
compose table built from compose_fn is listed in rank order at once.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Iterable, Optional

# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Finding:
    law: str
    status: str  # "pass", "fail" or "skip"
    detail: str = ""

    @property
    def passed(self) -> bool:
        """Not failed: a skip refutes nothing, though it checks nothing."""
        return self.status != "fail"

    def row(self) -> dict:
        return {"law": self.law, "passed": self.passed, "status": self.status,
                "detail": self.detail}


@dataclass
class Report:
    findings: list[Finding] = field(default_factory=list)

    def add(self, law: str, passed: bool, detail: str = "") -> None:
        self.findings.append(Finding(law, "pass" if passed else "fail", detail))

    def check(self, law: str, witness: Optional[str]) -> None:
        """witness is None when the law holds, else a counterexample."""
        self.add(law, witness is None, witness or "")

    def skip(self, law: str, reason: str) -> None:
        """Record an obligation left unchecked, and why."""
        self.findings.append(Finding(law, "skip", f"skipped: {reason}"))

    @property
    def ok(self) -> bool:
        """No failures; skips do not count against a report."""
        return all(f.passed for f in self.findings)

    @property
    def skips(self) -> list[Finding]:
        return [f for f in self.findings if f.status == "skip"]

    @property
    def failures(self) -> list[Finding]:
        return [f for f in self.findings if not f.passed]

    def extend(self, other: Report) -> None:
        self.findings.extend(other.findings)


# ---------------------------------------------------------------------------
# finite categories over opaque ids
# ---------------------------------------------------------------------------

def _rkey(x) -> str:
    return repr(x)


@dataclass(frozen=True)
class FinCategory:
    objects: tuple                  # object ids
    morphisms: tuple                # ((mor id, src id, tgt id), ...)
    identity: tuple                 # ((obj id, mor id), ...)
    compose: tuple                  # (((g id, f id), gf id), ...)

    @cached_property
    def src(self) -> dict:
        return {m: s for m, s, _ in self.morphisms}

    @cached_property
    def tgt(self) -> dict:
        return {m: t for m, _, t in self.morphisms}

    @cached_property
    def id_of(self) -> dict:
        return dict(self.identity)

    @cached_property
    def comp(self) -> dict:
        return dict(self.compose)

    def comp2(self, g, f):
        return self.comp[(g, f)]

    @cached_property
    def mor_ids(self) -> tuple:
        return tuple(m for m, _, _ in self.morphisms)

    @cached_property
    def by_src(self) -> dict:
        """Source object -> the morphisms out of it, in rank order."""
        out: dict = {}
        for m, s, _ in self.morphisms:
            out.setdefault(s, []).append(m)
        return out

    @cached_property
    def inverses(self) -> dict:
        """Two-sided inverses; a morphism appears iff it is an iso."""
        hom: dict = {}
        for m, s, t in self.morphisms:
            hom.setdefault((s, t), []).append(m)
        out = {}
        for f, s, t in self.morphisms:
            for g in hom.get((t, s), ()):
                if (self.comp.get((g, f)) == self.id_of[s]
                        and self.comp.get((f, g)) == self.id_of[t]):
                    out[f] = g
                    break
        return out

    def is_iso(self, f) -> bool:
        return f in self.inverses


def _by_rank(ids: Iterable) -> Callable:
    """Sort key placing each id at its position in ids; ids missing
    from it (malformed input) follow, in repr order."""
    rank = {x: i for i, x in enumerate(ids)}
    n = len(rank)
    return lambda x: (rank[x], "") if x in rank else (n, _rkey(x))


def _ranked(objects: Iterable, morphisms: dict, identity: dict) -> tuple:
    """The one ordering rule: objects and (id, src, tgt) morphism rows
    sorted by repr, identity rows by the ranks of their objects."""
    objs = tuple(sorted(objects, key=_rkey))
    mors = tuple(sorted(((m, s, t) for m, (s, t) in morphisms.items()), key=_rkey))
    okey = _by_rank(objs)
    return objs, mors, tuple(sorted(identity.items(), key=lambda e: okey(e[0])))


def make_category(objects: Iterable, morphisms: dict, identity: dict,
                  compose: dict) -> FinCategory:
    """Normalize tables into canonical tuple form: objects and morphisms
    sorted by repr, identity and compose by the ranks of their ids.
    The compose table may be any (malformed) table, so it is sorted.

    morphisms: id -> (src, tgt); identity: obj -> id;
    compose: (g, f) -> id.
    """
    objs, mors, ids = _ranked(objects, morphisms, identity)
    mkey = _by_rank(m for m, _, _ in mors)
    comp = tuple(sorted(compose.items(),
                        key=lambda e: (mkey(e[0][0]), mkey(e[0][1]))))
    return FinCategory(objs, mors, ids, comp)


def category_from_morphisms(objects: Iterable, morphisms: dict,
                            identity: dict, compose_fn: Callable) -> FinCategory:
    """make_category with compose_fn called on the composable pairs,
    listed in rank order (g's, then f's), so the table needs no sort."""
    objs, mors, ids = _ranked(objects, morphisms, identity)
    by_tgt: dict = {}
    for f, _, t in mors:
        by_tgt.setdefault(t, []).append(f)
    return FinCategory(objs, mors, ids, tuple(
        ((g, f), compose_fn(g, f)) for g, s, _ in mors for f in by_tgt.get(s, ())))


ASSOC_EXHAUSTIVE_LIMIT = 2_000_000


def check_category(c: FinCategory, report: Report, tag: str,
                   assoc_limit: int = ASSOC_EXHAUSTIVE_LIMIT) -> None:
    """Table well-formedness, then the identity and associativity laws.

    The laws are skipped only when this call's own well-formedness
    checks fail; failures already on a shared report do not stop them.
    """
    start = len(report.findings)
    obj_set = set(c.objects)
    mor_set = set(c.mor_ids)

    dangling = next((m for m, s, t in c.morphisms
                     if s not in obj_set or t not in obj_set), None)
    report.check(f"{tag}: morphism boundaries in object table",
                 None if dangling is None else f"dangling boundary on {dangling!r}")

    missing_id = next((o for o in c.objects if o not in c.id_of), None)
    report.check(f"{tag}: identity total",
                 None if missing_id is None else f"no identity for {missing_id!r}")
    bad_id = next((o for o, m in c.identity
                   if m not in mor_set or c.src.get(m) != o or c.tgt.get(m) != o), None)
    report.check(f"{tag}: identities are endomorphisms",
                 None if bad_id is None else f"identity of {bad_id!r} malformed")

    # compose defined exactly on composable pairs, with correct boundaries
    witness = None
    for (g, f), h in c.comp.items():
        if c.tgt.get(f) != c.src.get(g):
            witness = f"compose defined on non-composable ({g!r}, {f!r})"
            break
        if h not in mor_set or c.src[h] != c.src[f] or c.tgt[h] != c.tgt[g]:
            witness = f"composite of ({g!r}, {f!r}) has wrong boundary"
            break
    report.check(f"{tag}: compose boundaries", witness)

    by_src = c.by_src
    witness = None
    for f in c.mor_ids:
        for g in by_src.get(c.tgt[f], ()):
            if (g, f) not in c.comp:
                witness = f"compose missing on composable ({g!r}, {f!r})"
                break
        if witness:
            break
    report.check(f"{tag}: compose total on composable pairs", witness)
    if not all(f.passed for f in report.findings[start:]):
        return

    witness = None
    for m in c.mor_ids:
        if (c.comp[(m, c.id_of[c.src[m]])] != m
                or c.comp[(c.id_of[c.tgt[m]], m)] != m):
            witness = f"identity law fails at {m!r}"
            break
    report.check(f"{tag}: identity laws", witness)

    pairs = list(c.comp.items())
    triple_count = sum(len(by_src.get(c.tgt[g], ())) for (g, _), _ in pairs)
    witness = None
    if triple_count <= assoc_limit:
        for (g, f), gf in pairs:
            for h in by_src.get(c.tgt[g], ()):
                if c.comp[(h, gf)] != c.comp[(c.comp[(h, g)], f)]:
                    witness = f"associativity fails at ({h!r}, {g!r}, {f!r})"
                    break
            if witness:
                break
        report.check(f"{tag}: associativity (exhaustive, {triple_count} triples)",
                     witness)
    else:
        rng = random.Random(0)
        sample = min(assoc_limit, 500_000)
        for _ in range(sample):
            (g, f), gf = pairs[rng.randrange(len(pairs))]
            hs = by_src.get(c.tgt[g], ())
            if not hs:
                continue
            h = hs[rng.randrange(len(hs))]
            if c.comp[(h, gf)] != c.comp[(c.comp[(h, g)], f)]:
                witness = f"associativity fails at ({h!r}, {g!r}, {f!r})"
                break
        report.check(f"{tag}: associativity (sampled {sample} of "
                     f"{triple_count} triples)", witness)


# ---------------------------------------------------------------------------
# functors between finite categories (used for faces and the degeneracy)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatFunctor:
    obj_map: tuple   # ((obj id, obj id), ...)
    mor_map: tuple   # ((mor id, mor id), ...)

    @cached_property
    def on_obj(self) -> dict:
        return dict(self.obj_map)

    @cached_property
    def on_mor(self) -> dict:
        return dict(self.mor_map)


def make_cat_functor(on_obj: dict, on_mor: dict) -> CatFunctor:
    def key(e):
        return _rkey(e[0])
    return CatFunctor(tuple(sorted(on_obj.items(), key=key)),
                      tuple(sorted(on_mor.items(), key=key)))


def cat_functor_compose(g: CatFunctor, f: CatFunctor) -> CatFunctor:
    # tables are ordered by key alone and the composite has f's keys,
    # so f's canonical order is already the composite's
    return CatFunctor(tuple((o, g.on_obj[v]) for o, v in f.obj_map),
                      tuple((m, g.on_mor[v]) for m, v in f.mor_map))


def cat_functor_id(c: FinCategory) -> CatFunctor:
    return make_cat_functor({o: o for o in c.objects},
                            {m: m for m in c.mor_ids})


def check_cat_functor(f: CatFunctor, dom: FinCategory, cod: FinCategory,
                      report: Report, tag: str) -> None:
    witness = None
    for o in dom.objects:
        if f.on_obj.get(o) not in set(cod.objects):
            witness = f"object {o!r} unmapped or maps outside the codomain"
            break
    report.check(f"{tag}: object table total", witness)

    witness = None
    for m in dom.mor_ids:
        fm = f.on_mor.get(m)
        if fm is None or fm not in cod.src:
            witness = f"morphism {m!r} unmapped"
            break
        if (cod.src[fm] != f.on_obj[dom.src[m]]
                or cod.tgt[fm] != f.on_obj[dom.tgt[m]]):
            witness = f"boundary not preserved at {m!r}"
            break
    report.check(f"{tag}: morphism boundaries", witness)
    if witness:
        return

    on = f.on_mor   # a broken dom may name morphisms the table lacks
    witness = next((f"identity not preserved at {o!r}" for o in dom.objects
                    if on.get(dom.id_of.get(o)) != cod.id_of.get(f.on_obj[o])),
                   None)
    report.check(f"{tag}: preserves identities", witness)

    witness = None
    for (g, h), gh in dom.comp.items():
        if gh not in on or on[gh] != cod.comp.get((on.get(g), on.get(h))):
            witness = f"composition not preserved at ({g!r}, {h!r})"
            break
    report.check(f"{tag}: preserves composition", witness)


# ---------------------------------------------------------------------------
# the two-level structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RgCategory:
    level0: FinCategory
    level1: FinCategory
    face_top: CatFunctor      # level1 -> level0
    face_bot: CatFunctor      # level1 -> level0
    degen: CatFunctor         # level0 -> level1


@dataclass(frozen=True)
class IsoSubcategory:
    selected0: frozenset
    selected1: frozenset


def _closure_of_maps(rg: RgCategory) -> set:
    """All distinct functors generated by faces, the degeneracy, and
    identities under composition, tagged by their level boundaries."""
    id0 = (0, 0, cat_functor_id(rg.level0))
    id1 = (1, 1, cat_functor_id(rg.level1))
    closure = {id0, id1, (1, 0, rg.face_top), (1, 0, rg.face_bot),
               (0, 1, rg.degen)}
    while True:
        fresh = set()
        for (sa, ta, f) in closure:
            for (sb, tb, g) in closure:
                if tb != sa:
                    continue
                h = (sb, ta, cat_functor_compose(f, g))
                if h not in closure:
                    fresh.add(h)
        if not fresh:
            return closure
        closure |= fresh


def validate_rg(rg: RgCategory, sub: Optional[IsoSubcategory] = None,
                assoc_limit: int = ASSOC_EXHAUSTIVE_LIMIT) -> Report:
    """Check every structural law; findings carry counterexamples."""
    report = Report()
    check_category(rg.level0, report, "level0", assoc_limit)
    check_category(rg.level1, report, "level1", assoc_limit)
    check_cat_functor(rg.face_top, rg.level1, rg.level0, report, "face_top")
    check_cat_functor(rg.face_bot, rg.level1, rg.level0, report, "face_bot")
    check_cat_functor(rg.degen, rg.level0, rg.level1, report, "degen")
    if not report.ok:
        return report

    ident = cat_functor_id(rg.level0)
    report.add("face_top . degen = id",
               cat_functor_compose(rg.face_top, rg.degen) == ident)
    report.add("face_bot . degen = id",
               cat_functor_compose(rg.face_bot, rg.degen) == ident)
    check_faces_distinct(rg, report)
    check_seven_maps(rg, report)

    if sub is not None:
        _check_iso_subcategory(rg, sub, report)
    return report


def _faces_could_differ(rg: RgCategory) -> bool:
    """Whether any two functors level1 -> level0 can disagree at all."""
    l0, l1 = rg.level0, rg.level1
    return (bool(l1.objects) and len(l0.objects) > 1) or (
        bool(l1.mor_ids) and len(l0.mor_ids) > 1)


def check_faces_distinct(rg: RgCategory, report: Report) -> None:
    """The two faces must be distinct projections.

    At sizes where every functor into level0 is forced equal, only the
    formal (identity-of-declaration) distinction is representable, so
    that is what we require there; anywhere richer, the tables must
    actually differ.
    """
    if rg.face_top is rg.face_bot:
        report.add("face_top distinct from face_bot", False,
                   "the same declared functor plays both faces")
    elif _faces_could_differ(rg):
        report.add("face_top distinct from face_bot",
                   rg.face_top != rg.face_bot,
                   "" if rg.face_top != rg.face_bot
                   else "the two faces coincide as tables")
    else:
        report.add("face_top distinct from face_bot", True,
                   "table equality is forced at this size; "
                   "faces are formally distinct")


def check_seven_maps(rg: RgCategory, report: Report) -> None:
    """The faces, the degeneracy, and the identities generate exactly
    the seven canonical maps. When the two faces coincide as tables
    (degenerate sizes) some of the seven conflate; the requirement then
    weakens to: composition generates nothing beyond the canonical
    seven."""
    closure = _closure_of_maps(rg)
    if rg.face_top != rg.face_bot:
        report.add("exactly seven generated maps", len(closure) == 7,
                   f"closure has {len(closure)} maps")
        return
    canonical = {
        (0, 0, cat_functor_id(rg.level0)),
        (1, 1, cat_functor_id(rg.level1)),
        (1, 0, rg.face_top), (1, 0, rg.face_bot), (0, 1, rg.degen),
        (1, 1, cat_functor_compose(rg.degen, rg.face_top)),
        (1, 1, cat_functor_compose(rg.degen, rg.face_bot)),
    }
    report.add("exactly seven generated maps", closure <= canonical,
               f"faces coincide as tables; closure has {len(closure)} of "
               f"the canonical {len(canonical)} maps")


def _check_iso_subcategory(rg: RgCategory, sub: IsoSubcategory,
                           report: Report) -> None:
    for level, cat, sel in ((0, rg.level0, sub.selected0),
                            (1, rg.level1, sub.selected1)):
        witness = min(map(_rkey, sel.difference(cat.src)), default=None)
        report.check(f"selected{level}: ids exist", witness)
        if witness:
            continue
        witness = next((f"identity of {o!r} not selected" for o in cat.objects
                        if cat.id_of[o] not in sel), None)
        report.check(f"selected{level}: wide", witness)
        chosen = [m for m in cat.mor_ids if m in sel]
        witness = next((f"{m!r} is not an isomorphism" for m in chosen
                        if not cat.is_iso(m)), None)
        report.check(f"selected{level}: all isos", witness)
        witness = next((f"inverse of {m!r} not selected" for m in chosen
                        if cat.is_iso(m) and cat.inverses[m] not in sel), None)
        report.check(f"selected{level}: inverse-closed", witness)
        witness = next((f"composite of ({g!r}, {f!r}) not selected"
                        for f in chosen for g in cat.by_src.get(cat.tgt[f], ())
                        if g in sel and cat.comp[(g, f)] not in sel), None)
        report.check(f"selected{level}: composition-closed", witness)

    witness = next((f"face image of {m!r} not selected"
                    for m in rg.level1.mor_ids if m in sub.selected1
                    and (rg.face_top.on_mor[m] not in sub.selected0
                         or rg.face_bot.on_mor[m] not in sub.selected0)), None)
    report.check("faces map selected1 into selected0", witness)
    witness = next((f"degeneracy image of {m!r} not selected"
                    for m in rg.level0.mor_ids if m in sub.selected0
                    and rg.degen.on_mor[m] not in sub.selected1), None)
    report.check("degen maps selected0 into selected1", witness)


# ---------------------------------------------------------------------------
# probe sets: seeded samples, capped per component and per enumeration
# ---------------------------------------------------------------------------

PROBE_SEED = 0
COMPONENT_CAP = 10
TUPLE_CAP = 400


def _sample(items: tuple, n: int) -> list:
    items = list(items)
    if n <= 1 or len(items) <= COMPONENT_CAP:
        return items
    rng = random.Random(f"{PROBE_SEED}:{n}:{len(items)}")
    return rng.sample(items, COMPONENT_CAP)


def _tuples(items: tuple, n: int) -> list:
    if n == 0:
        return [()]
    out = list(itertools.product(_sample(items, n), repeat=n))
    if len(out) > TUPLE_CAP:
        rng = random.Random(f"{PROBE_SEED}:tuples:{n}")
        out = rng.sample(out, TUPLE_CAP)
    return out


@dataclass
class Probes:
    """Enumerations the law harness quantifies over.

    Arity 1 draws from every id, a higher arity n from the n-fold
    product of at most COMPONENT_CAP ids per component, picked by a
    seeded sample.  Of what is drawn, at most TUPLE_CAP tuples are
    kept, again by a seeded sample, so only small enumerations are
    exhaustive: on the REY bound-2 instance, the 530 level-1 morphisms
    and their 17,350 composable pairs are sampled even at arity 1.
    Morphism tuples also include the identity tuples of the object
    tuples.  Each enumeration depends only on (level, arity), so it is
    built once per instance and handed out as a tuple.
    """
    rg: RgCategory

    def __post_init__(self):
        self.obj_tuples = cache(self.obj_tuples)
        self.mor_tuples = cache(self.mor_tuples)
        self.composable_pairs = cache(self.composable_pairs)

    def obj_tuples(self, level: int, n: int) -> tuple:
        cat = self.rg.level0 if level == 0 else self.rg.level1
        return tuple(_tuples(cat.objects, n))

    def mor_tuples(self, level: int, n: int) -> tuple:
        cat = self.rg.level0 if level == 0 else self.rg.level1
        out = _tuples(cat.mor_ids, n)
        ids = [tuple(cat.id_of[o] for o in t) for t in self.obj_tuples(level, n)]
        seen = set(out)
        out.extend(t for t in ids if t not in seen)
        return tuple(out)

    def composable_pairs(self, level: int, n: int) -> tuple:
        """Componentwise-composable pairs (gbar, fbar), drawn from the
        compose table like the other tuples."""
        cat = self.rg.level0 if level == 0 else self.rg.level1
        return tuple((tuple(g for g, _ in combo), tuple(f for _, f in combo))
                     for combo in _tuples(tuple(cat.comp), n))


# ---------------------------------------------------------------------------
# tabulated functors between powers of the structure
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class RgFunctorTab:
    """Functor from the arity_in-th power to the arity_out-th power.

    Tables are memoized functions on tuples: obj0/mor0 act on level-0
    object and morphism tuples, obj1/mor1 on level-1 tuples, and eps
    assigns every level-0 object tuple the tuple of level-1 morphisms
    mediating between the degeneracy of the image and the image of the
    degeneracies.
    """
    rg: RgCategory
    arity_in: int
    arity_out: int
    obj0: Callable
    mor0: Callable
    obj1: Callable
    mor1: Callable
    eps: Callable
    name: str = "functor"

    def __post_init__(self):
        self.obj0 = cache(self.obj0)
        self.mor0 = cache(self.mor0)
        self.obj1 = cache(self.obj1)
        self.mor1 = cache(self.mor1)
        self.eps = cache(self.eps)


@dataclass(eq=False)
class RgNatTab:
    """Transformation between functors with a common boundary; eta0 and
    eta1 assign component morphism tuples to object tuples."""
    src: RgFunctorTab
    tgt: RgFunctorTab
    eta0: Callable
    eta1: Callable
    name: str = "nat"

    def __post_init__(self):
        if (self.src.arity_in != self.tgt.arity_in
                or self.src.arity_out != self.tgt.arity_out):
            raise ValueError("boundary mismatch")
        self.eta0 = cache(self.eta0)
        self.eta1 = cache(self.eta1)

    @property
    def rg(self) -> RgCategory:
        return self.src.rg


def functors_equal(f: RgFunctorTab, g: RgFunctorTab,
                   probes: Probes) -> Optional[str]:
    """Table comparison over the probe enumeration; None when equal."""
    if (f.arity_in, f.arity_out) != (g.arity_in, g.arity_out):
        return "arity mismatch"
    n = f.arity_in
    for level, objs, mors in ((0, f.obj0, f.mor0), (1, f.obj1, f.mor1)):
        gobjs = g.obj0 if level == 0 else g.obj1
        gmors = g.mor0 if level == 0 else g.mor1
        for t in probes.obj_tuples(level, n):
            if objs(t) != gobjs(t):
                return f"object tables differ at level {level} on {t!r}"
        for t in probes.mor_tuples(level, n):
            if mors(t) != gmors(t):
                return f"morphism tables differ at level {level} on {t!r}"
    for t in probes.obj_tuples(0, n):
        if f.eps(t) != g.eps(t):
            return f"eps tables differ at {t!r}"
    return None


def nats_equal(a: RgNatTab, b: RgNatTab, probes: Probes) -> Optional[str]:
    n = a.src.arity_in
    if n != b.src.arity_in or a.src.arity_out != b.src.arity_out:
        return "arity mismatch"
    for t in probes.obj_tuples(0, n):
        if a.eta0(t) != b.eta0(t):
            return f"level-0 components differ at {t!r}"
    for t in probes.obj_tuples(1, n):
        if a.eta1(t) != b.eta1(t):
            return f"level-1 components differ at {t!r}"
    return None


# -- constructors -----------------------------------------------------------

def id_functor(rg: RgCategory, arity: int) -> RgFunctorTab:
    return RgFunctorTab(
        rg, arity, arity,
        obj0=lambda t: t, mor0=lambda t: t, obj1=lambda t: t, mor1=lambda t: t,
        eps=lambda t: tuple(rg.level1.id_of[rg.degen.on_obj[o]] for o in t),
        name=f"id^{arity}")


def compose_functor(g: RgFunctorTab, f: RgFunctorTab) -> RgFunctorTab:
    """Levelwise composition; the mediating iso of the composite
    factors as (image of f's iso) after (g's iso at f's objects)."""
    if f.rg is not g.rg and f.rg != g.rg:
        raise ValueError("functors live over different structures")
    if f.arity_out != g.arity_in:
        raise ValueError(f"arity mismatch: {f.name} into {g.name}")
    rg = f.rg

    def eps(abar: tuple) -> tuple:
        lower = g.eps(f.obj0(abar))          # degen(g0 f0 A) -> g1(degen f0 A)
        upper = g.mor1(f.eps(abar))          # g1(degen f0 A) -> g1 f1 (degen A)
        return tuple(rg.level1.comp2(u, l) for u, l in zip(upper, lower))

    return RgFunctorTab(
        rg, f.arity_in, g.arity_out,
        obj0=lambda t: g.obj0(f.obj0(t)), mor0=lambda t: g.mor0(f.mor0(t)),
        obj1=lambda t: g.obj1(f.obj1(t)), mor1=lambda t: g.mor1(f.mor1(t)),
        eps=eps, name=f"({g.name} . {f.name})")


def tuple_functor(funs: list[RgFunctorTab], rg: Optional[RgCategory] = None,
                  arity_in: Optional[int] = None) -> RgFunctorTab:
    """Pair components into the product; empty input needs rg and arity."""
    if not funs:
        if rg is None or arity_in is None:
            raise ValueError("empty tuple needs explicit structure and arity")
        return RgFunctorTab(rg, arity_in, 0,
                            obj0=lambda t: (), mor0=lambda t: (),
                            obj1=lambda t: (), mor1=lambda t: (),
                            eps=lambda t: (), name="<>")
    n = funs[0].arity_in
    if any(f.arity_in != n for f in funs):
        raise ValueError("tuple components need a common domain arity")

    def fan(call):
        return lambda t: tuple(x for f in funs for x in call(f)(t))

    return RgFunctorTab(
        funs[0].rg, n, sum(f.arity_out for f in funs),
        obj0=fan(lambda f: f.obj0), mor0=fan(lambda f: f.mor0),
        obj1=fan(lambda f: f.obj1), mor1=fan(lambda f: f.mor1),
        eps=fan(lambda f: f.eps),
        name="<" + ", ".join(f.name for f in funs) + ">")


def id_nat(f: RgFunctorTab) -> RgNatTab:
    rg = f.rg
    return RgNatTab(
        f, f,
        eta0=lambda t: tuple(rg.level0.id_of[o] for o in f.obj0(t)),
        eta1=lambda t: tuple(rg.level1.id_of[o] for o in f.obj1(t)),
        name=f"1_{f.name}")


def compose_nat(e2: RgNatTab, e1: RgNatTab) -> RgNatTab:
    """Vertical composition, pointwise at both levels.

    Callers must chain on the nose (e1's target functor is e2's
    source); only the arities are cheap enough to verify here.
    """
    if (e1.tgt.arity_in, e1.tgt.arity_out) != (e2.src.arity_in, e2.src.arity_out):
        raise ValueError("vertical composition boundary mismatch")
    rg = e1.rg
    return RgNatTab(
        e1.src, e2.tgt,
        eta0=lambda t: tuple(rg.level0.comp2(b, a)
                             for b, a in zip(e2.eta0(t), e1.eta0(t))),
        eta1=lambda t: tuple(rg.level1.comp2(b, a)
                             for b, a in zip(e2.eta1(t), e1.eta1(t))),
        name=f"({e2.name} * {e1.name})")


def whisker(side: str, fun: RgFunctorTab, nat: RgNatTab) -> RgNatTab:
    """side "right": precompose the transformation's functors with fun;
    side "left": postcompose, applying fun's morphism tables."""
    if side == "right":
        if fun.arity_out != nat.src.arity_in:
            raise ValueError("whisker boundary mismatch")
        return RgNatTab(
            compose_functor(nat.src, fun), compose_functor(nat.tgt, fun),
            eta0=lambda t: nat.eta0(fun.obj0(t)),
            eta1=lambda t: nat.eta1(fun.obj1(t)),
            name=f"({nat.name} . {fun.name})")
    if side == "left":
        if nat.src.arity_out != fun.arity_in:
            raise ValueError("whisker boundary mismatch")
        return RgNatTab(
            compose_functor(fun, nat.src), compose_functor(fun, nat.tgt),
            eta0=lambda t: fun.mor0(nat.eta0(t)),
            eta1=lambda t: fun.mor1(nat.eta1(t)),
            name=f"({fun.name} . {nat.name})")
    raise ValueError("side must be 'left' or 'right'")


# ---------------------------------------------------------------------------
# validation of functor and transformation tables
# ---------------------------------------------------------------------------

def _comp_tuple(cat: FinCategory, gs: tuple, fs: tuple) -> Optional[tuple]:
    """Componentwise composite; None when some pair is not composable.

    Corrupted tables (mutation testing) produce non-composable images;
    those must surface as findings, never as lookup errors.
    """
    out = []
    for g, f in zip(gs, fs):
        h = cat.comp.get((g, f))
        if h is None:
            return None
        out.append(h)
    return tuple(out)


def check_functor_tab(f: RgFunctorTab, report: Report,
                      probes: Probes, sub: Optional[IsoSubcategory] = None,
                      tag: Optional[str] = None) -> None:
    rg = f.rg
    tag = tag or f.name
    n = f.arity_in

    for level, cat, objs, mors in ((0, rg.level0, f.obj0, f.mor0),
                                   (1, rg.level1, f.obj1, f.mor1)):
        witness = None
        for t in probes.mor_tuples(level, n):
            out = mors(t)
            src_in = tuple(cat.src[m] for m in t)
            tgt_in = tuple(cat.tgt[m] for m in t)
            if (tuple(cat.src[m] for m in out) != objs(src_in)
                    or tuple(cat.tgt[m] for m in out) != objs(tgt_in)):
                witness = f"boundary broken at {t!r}"
                break
        report.check(f"{tag}: level-{level} boundaries", witness)

        witness = None
        for t in probes.obj_tuples(level, n):
            idt = tuple(cat.id_of[o] for o in t)
            if mors(idt) != tuple(cat.id_of[o] for o in objs(t)):
                witness = f"identity broken at {t!r}"
                break
        report.check(f"{tag}: level-{level} identities", witness)

        witness = None
        for gbar, fbar in probes.composable_pairs(level, n):
            gf = tuple(cat.comp2(a, b) for a, b in zip(gbar, fbar))
            expect = _comp_tuple(cat, mors(gbar), mors(fbar))
            if expect is None or mors(gf) != expect:
                witness = f"composition broken at {gbar!r} . {fbar!r}"
                break
        report.check(f"{tag}: level-{level} composition", witness)

    # faces commute with the functor; .get so foreign ids from corrupt
    # tables land in the finding instead of raising
    witness = None
    for face_name, face in (("top", rg.face_top), ("bot", rg.face_bot)):
        for t in probes.obj_tuples(1, n):
            if (tuple(face.on_obj.get(o) for o in f.obj1(t))
                    != f.obj0(tuple(face.on_obj[o] for o in t))):
                witness = f"face_{face_name} broken on objects at {t!r}"
                break
        for t in probes.mor_tuples(1, n):
            if (tuple(face.on_mor.get(m) for m in f.mor1(t))
                    != f.mor0(tuple(face.on_mor[m] for m in t))):
                witness = f"face_{face_name} broken on morphisms at {t!r}"
                break
        if witness:
            break
    report.check(f"{tag}: face preservation", witness)

    # the mediating iso: boundaries, identity faces, selection, naturality
    lvl1 = rg.level1
    witness = None
    for t in probes.obj_tuples(0, n):
        e = f.eps(t)
        src_expect = tuple(rg.degen.on_obj[o] for o in f.obj0(t))
        tgt_expect = f.obj1(tuple(rg.degen.on_obj[o] for o in t))
        if (tuple(lvl1.src.get(m) for m in e) != src_expect
                or tuple(lvl1.tgt.get(m) for m in e) != tgt_expect):
            witness = f"eps boundary wrong at {t!r}"
            break
        if any(rg.face_top.on_mor[m] != rg.level0.id_of[rg.face_top.on_obj[lvl1.src[m]]]
               or rg.face_bot.on_mor[m] != rg.level0.id_of[rg.face_bot.on_obj[lvl1.src[m]]]
               for m in e):
            witness = f"eps face image not an identity at {t!r}"
            break
        if sub is not None and any(m not in sub.selected1 for m in e):
            witness = f"eps not selected at {t!r}"
            break
    report.check(f"{tag}: eps coherence", witness)

    if sub is not None:
        witness = None
        sel_mors = [m for m in rg.level0.mor_ids if m in sub.selected0]
        for combo in itertools.islice(
                itertools.product(sel_mors, repeat=n), TUPLE_CAP):
            srcs = tuple(rg.level0.src[m] for m in combo)
            tgts = tuple(rg.level0.tgt[m] for m in combo)
            lhs = _comp_tuple(lvl1, f.eps(tgts),
                              tuple(rg.degen.on_mor[m] for m in f.mor0(combo)))
            rhs = _comp_tuple(lvl1,
                              f.mor1(tuple(rg.degen.on_mor[m] for m in combo)),
                              f.eps(srcs))
            if lhs is None or rhs is None or lhs != rhs:
                witness = f"eps not natural along {combo!r}"
                break
        report.check(f"{tag}: eps naturality", witness)


def check_nat_tab(nat: RgNatTab, report: Report, probes: Probes,
                  tag: Optional[str] = None) -> None:
    rg = nat.rg
    tag = tag or nat.name
    f, g = nat.src, nat.tgt
    n = f.arity_in

    for level, cat, eta, fo, fm, go, gm in (
            (0, rg.level0, nat.eta0, f.obj0, f.mor0, g.obj0, g.mor0),
            (1, rg.level1, nat.eta1, f.obj1, f.mor1, g.obj1, g.mor1)):
        witness = None
        for t in probes.obj_tuples(level, n):
            e = eta(t)
            if (tuple(cat.src.get(m) for m in e) != fo(t)
                    or tuple(cat.tgt.get(m) for m in e) != go(t)):
                witness = f"component boundary wrong at {t!r}"
                break
        report.check(f"{tag}: level-{level} component boundaries", witness)

        witness = None
        for t in probes.mor_tuples(level, n):
            srcs = tuple(cat.src[m] for m in t)
            tgts = tuple(cat.tgt[m] for m in t)
            lhs = _comp_tuple(cat, eta(tgts), fm(t))
            rhs = _comp_tuple(cat, gm(t), eta(srcs))
            if lhs is None or rhs is None or lhs != rhs:
                witness = f"naturality broken at {t!r}"
                break
        report.check(f"{tag}: level-{level} naturality", witness)

    witness = None
    for face_name, face in (("top", rg.face_top), ("bot", rg.face_bot)):
        for t in probes.obj_tuples(1, n):
            img = tuple(face.on_mor.get(m) for m in nat.eta1(t))
            if img != nat.eta0(tuple(face.on_obj[o] for o in t)):
                witness = f"face_{face_name} equation broken at {t!r}"
                break
        if witness:
            break
    report.check(f"{tag}: face equations", witness)

    lvl1 = rg.level1
    witness = None
    for t in probes.obj_tuples(0, n):
        dt = tuple(rg.degen.on_obj[o] for o in t)
        lhs = _comp_tuple(lvl1, nat.eta1(dt), f.eps(t))
        rhs = _comp_tuple(lvl1, g.eps(t),
                          tuple(rg.degen.on_mor[m] for m in nat.eta0(t)))
        if lhs is None or rhs is None or lhs != rhs:
            witness = f"degeneracy square broken at {t!r}"
            break
    report.check(f"{tag}: degeneracy squares", witness)


# ---------------------------------------------------------------------------
# the law suite
# ---------------------------------------------------------------------------

def law_suite(rg: RgCategory, sub: Optional[IsoSubcategory],
              functor_stock: Callable[[random.Random], RgFunctorTab],
              nat_chain_stock: Callable[[random.Random, int], list[RgNatTab]],
              rounds: int = 200, seed: int = 0,
              probes: Optional[Probes] = None) -> Report:
    """Exercise the six structural laws on randomly drawn tables.

    functor_stock draws one endofunctor (arity preserved under
    composition); nat_chain_stock draws a vertically composable chain
    of the requested length. Each round checks: unit and associativity
    of functor composition, unit and associativity of vertical
    composition, and functoriality of whiskering on both sides. Every
    drawn table is also validated structurally.
    """
    probes = probes or Probes(rg)
    report = Report()
    rng = random.Random(seed)

    for i in range(rounds):
        f = functor_stock(rng)
        g = functor_stock(rng)
        h = functor_stock(rng)
        ident = id_functor(rg, f.arity_in)

        check_functor_tab(f, report, probes, sub, tag=f"round {i}: {f.name}")

        report.check(f"round {i}: unit law (post-identity)",
                     functors_equal(compose_functor(ident, f), f, probes))
        report.check(f"round {i}: unit law (pre-identity)",
                     functors_equal(compose_functor(f, ident), f, probes))
        report.check(
            f"round {i}: functor composition associativity",
            functors_equal(compose_functor(compose_functor(h, g), f),
                           compose_functor(h, compose_functor(g, f)), probes))

        chain = nat_chain_stock(rng, 3)
        e1, e2, e3 = chain
        check_nat_tab(e1, report, probes, tag=f"round {i}: {e1.name}")

        report.check(f"round {i}: vertical unit (post-identity)",
                     nats_equal(compose_nat(id_nat(e1.tgt), e1), e1, probes))
        report.check(f"round {i}: vertical unit (pre-identity)",
                     nats_equal(compose_nat(e1, id_nat(e1.src)), e1, probes))
        report.check(
            f"round {i}: vertical associativity",
            nats_equal(compose_nat(compose_nat(e3, e2), e1),
                       compose_nat(e3, compose_nat(e2, e1)), probes))

        # functoriality of the two whiskerings
        pair = compose_nat(e2, e1)
        report.check(
            f"round {i}: right whisker distributes",
            nats_equal(whisker("right", f, pair),
                       compose_nat(whisker("right", f, e2),
                                   whisker("right", f, e1)), probes))
        report.check(
            f"round {i}: right whisker preserves identities",
            nats_equal(whisker("right", f, id_nat(e1.src)),
                       id_nat(compose_functor(e1.src, f)), probes))
        report.check(
            f"round {i}: left whisker distributes",
            nats_equal(whisker("left", g, pair),
                       compose_nat(whisker("left", g, e2),
                                   whisker("left", g, e1)), probes))
        report.check(
            f"round {i}: left whisker preserves identities",
            nats_equal(whisker("left", g, id_nat(e1.src)),
                       id_nat(compose_functor(g, e1.src)), probes))

    check_seven_maps(rg, report)
    return report
