"""Squares of witnessed relations: faces, degeneracies, connections.

Relations at this layer may hold between two elements in several
distinguishable ways, so morphisms carry an explicit witness action
instead of the forced one of the propositional layer. A square of such
relations carries a prop-valued filling predicate over boundary
tuples: witnesses are data on edges but mere conditions one dimension
up.

Edge geometry is fixed throughout. A square has corners a, b, c, d
with top : a <-> b, left : a <-> c, bottom : c <-> d, right : b <-> d,
and boundary tuples are written ((a, b, c, d), (p, q, r, s)) with p on
top, q on left, r on bottom and s on right.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional

from .finmodel import (
    STAR,
    WUNIT,
    FinFn,
    FinSetObj,
    Label,
    PropRel,
    all_functions,
    apply_label,
    atom_objects,
    bang0,
    canon,
    expo0,
    expo0_action,
    fin_set,
    fn_compose,
    fn_id,
    fn_inverse,
    fn_label,
    hash_once,
    label_key,
    product0,
    refl,
    terminal0,
)
from .rgalg import Report


# ---------------------------------------------------------------------------
# witnessed relations
# ---------------------------------------------------------------------------

@hash_once
@dataclass(frozen=True)
class WitRel:
    """Relation with a finite set of witness labels per related pair."""
    dom: FinSetObj
    cod: FinSetObj
    entries: tuple  # (((a, b), (w, ...)), ...) canonically keyed, sets nonempty

    def __post_init__(self):
        keys = [k for k, _ in self.entries]
        if keys != sorted(set(keys), key=label_key):
            raise ValueError("witness keys must be canonically ordered, one per pair")
        for (a, b), ws in self.entries:
            if a not in self.dom or b not in self.cod:
                raise ValueError(f"witness key ({a!r}, {b!r}) escapes the boundary")
            if not ws or ws != canon(ws):
                raise ValueError("witness sets must be nonempty and canonical")

    @cached_property
    def witness(self) -> dict:
        return dict(self.entries)

    def wits(self, a, b) -> tuple:
        return self.witness.get((a, b), ())

    def holds(self, a, b) -> bool:
        return (a, b) in self.witness

    def triples(self) -> Iterator[tuple]:
        for (a, b), ws in self.entries:
            for w in ws:
                yield a, b, w

    @cached_property
    def size(self) -> int:
        return sum(len(ws) for _, ws in self.entries)


def wrel(dom: FinSetObj, cod: FinSetObj, witness) -> WitRel:
    """Build a witnessed relation; empty witness sets are dropped."""
    items = witness.items() if hasattr(witness, "items") else witness
    entries = []
    for k, ws in items:
        ws = canon(ws)
        if ws:
            entries.append((k, ws))
    return WitRel(dom, cod, tuple(sorted(entries, key=lambda e: label_key(e[0]))))


def weq(a: FinSetObj) -> WitRel:
    return wrel(a, a, {(x, x): (refl(x),) for x in a})


def lift_prop(r: PropRel) -> WitRel:
    """A one-witness-per-pair relation seen with singleton witness sets."""
    return wrel(r.dom, r.cod, {k: (w,) for k, w in r.entries})


@hash_once
@dataclass(frozen=True)
class WitRelMor:
    """Boundary maps plus an explicit action on witnesses."""
    src: WitRel
    tgt: WitRel
    f: FinFn
    g: FinFn
    senders: tuple  # (((a, b, w), w'), ...) one entry per source triple

    def __post_init__(self):
        if self.f.dom != self.src.dom or self.f.cod != self.tgt.dom:
            raise ValueError("left leg boundary mismatch")
        if self.g.dom != self.src.cod or self.g.cod != self.tgt.cod:
            raise ValueError("right leg boundary mismatch")
        keys = [k for k, _ in self.senders]
        if keys != sorted(set(keys), key=label_key):
            raise ValueError("sender keys must be canonically ordered")
        if set(keys) != set(self.src.triples()):
            raise ValueError("witness action must cover exactly the source triples")
        for (a, b, w), w2 in self.senders:
            if w2 not in self.tgt.wits(self.f(a), self.g(b)):
                raise ValueError(
                    f"witness {w!r} at ({a!r}, {b!r}) lands outside the target")

    @cached_property
    def action(self) -> dict:
        return dict(self.senders)

    def send(self, a, b, w) -> Label:
        return self.action[(a, b, w)]

    @cached_property
    def is_iso(self) -> bool:
        # per-pair surjectivity plus a global count forces bijectivity
        if not (self.f.is_bijection and self.g.is_bijection):
            return False
        if self.src.size != self.tgt.size:
            return False
        for (a, b), ws in self.src.entries:
            image = {self.send(a, b, w) for w in ws}
            if image != set(self.tgt.wits(self.f(a), self.g(b))):
                return False
        return True

    @cached_property
    def has_identity_faces(self) -> bool:
        return self.f.is_identity and self.g.is_identity

    @cached_property
    def is_identity(self) -> bool:
        return (self.src == self.tgt and self.has_identity_faces
                and all(k[2] == w for k, w in self.senders))


def wit_mor(src: WitRel, tgt: WitRel, f: FinFn, g: FinFn, send) -> WitRelMor:
    act = send if callable(send) else (lambda a, b, w: send[(a, b, w)])
    entries = tuple(sorted((((a, b, w), act(a, b, w)) for a, b, w in src.triples()),
                           key=lambda e: label_key(e[0])))
    return WitRelMor(src, tgt, f, g, entries)


def wit_mor_id(r: WitRel) -> WitRelMor:
    return wit_mor(r, r, fn_id(r.dom), fn_id(r.cod), lambda a, b, w: w)


def wit_mor_compose(m2: WitRelMor, m1: WitRelMor) -> WitRelMor:
    if m1.tgt != m2.src:
        raise ValueError("non-composable witnessed morphisms")
    return wit_mor(m1.src, m2.tgt, fn_compose(m2.f, m1.f), fn_compose(m2.g, m1.g),
                   lambda a, b, w: m2.send(m1.f(a), m1.g(b), m1.send(a, b, w)))


def wit_mor_inverse(m: WitRelMor) -> WitRelMor:
    if not m.is_iso:
        raise ValueError("not an isomorphism")
    back = {(m.f(a), m.g(b), w2): w for (a, b, w), w2 in m.senders}
    return wit_mor(m.tgt, m.src, fn_inverse(m.f), fn_inverse(m.g),
                   lambda a, b, w: back[(a, b, w)])


def eq_wmor(f: FinFn) -> WitRelMor:
    # functorial: refl(a) goes to refl(f a)
    return wit_mor(weq(f.dom), weq(f.cod), f, f, lambda a, b, w: refl(f(a)))


# ---------------------------------------------------------------------------
# cartesian structure on witnessed relations
# ---------------------------------------------------------------------------

def wunit_rel() -> WitRel:
    t = terminal0()
    return wrel(t, t, {(STAR, STAR): (WUNIT,)})


def wbang(r: WitRel) -> WitRelMor:
    return wit_mor(r, wunit_rel(), bang0(r.dom), bang0(r.cod),
                   lambda a, b, w: WUNIT)


def wprod(r: WitRel, s: WitRel) -> WitRel:
    wit = {}
    for (a, b), ws1 in r.entries:
        for (c, d), ws2 in s.entries:
            wit[(("pr", a, c), ("pr", b, d))] = tuple(
                ("wpair", w1, w2) for w1 in ws1 for w2 in ws2)
    return wrel(product0(r.dom, s.dom), product0(r.cod, s.cod), wit)


def _wtab(entries) -> Label:
    return ("wtab", tuple(sorted(entries, key=lambda e: label_key(e[0]))))


def tab_apply(tab: Label, a, b, w) -> Label:
    return dict(tab[1])[(a, b, w)]


def wexpo(r: WitRel, s: WitRel) -> WitRel:
    """Relates function labels that carry witnesses of r to witnesses of s.

    One witness per way of choosing images for all of r's witnesses, so
    the witness sets here grow fast; keep the inputs small.
    """
    wit = {}
    for ff in all_functions(r.dom, s.dom):
        for gg in all_functions(r.cod, s.cod):
            keys = tuple(r.triples())
            choices = [s.wits(ff(a), gg(b)) for a, b, _ in keys]
            if not all(choices):
                continue
            wit[(fn_label(ff), fn_label(gg))] = tuple(
                _wtab(zip(keys, chosen))
                for chosen in itertools.product(*choices))
    return wrel(expo0(r.dom, s.dom), expo0(r.cod, s.cod), wit)


def wexpo_mor(m: WitRelMor, n: WitRelMor) -> WitRelMor:
    """Action of the exponential: m must be invertible (contravariant slot)."""
    mi = wit_mor_inverse(m)
    fleg = expo0_action(m.f, n.f)
    gleg = expo0_action(m.g, n.g)

    def send(lf, lg, tab):
        entries = []
        for a2, b2, w2 in m.tgt.triples():
            a, b, w = mi.f(a2), mi.g(b2), mi.send(a2, b2, w2)
            entries.append(((a2, b2, w2),
                            n.send(apply_label(lf, a), apply_label(lg, b),
                                   tab_apply(tab, a, b, w))))
        return _wtab(entries)

    return wit_mor(wexpo(m.src, n.src), wexpo(m.tgt, n.tgt), fleg, gleg, send)


def weta_unit() -> WitRelMor:
    t = terminal0()
    return wit_mor(weq(t), wunit_rel(), fn_id(t), fn_id(t), lambda a, b, w: WUNIT)


def weta_prod(a: FinSetObj, b: FinSetObj) -> WitRelMor:
    p = product0(a, b)
    return wit_mor(weq(p), wprod(weq(a), weq(b)), fn_id(p), fn_id(p),
                   lambda x, y, w: ("wpair", refl(x[1]), refl(x[2])))


def weta_expo(a: FinSetObj, b: FinSetObj) -> WitRelMor:
    e = expo0(a, b)

    def send(lf, lg, w):
        return _wtab(((x, x, refl(x)), refl(apply_label(lf, x))) for x in a)

    return wit_mor(weq(e), wexpo(weq(a), weq(b)), fn_id(e), fn_id(e), send)


# ---------------------------------------------------------------------------
# squares
# ---------------------------------------------------------------------------

_FACES = ("top", "left", "bottom", "right")


@hash_once
@dataclass(frozen=True)
class TwoRel:
    """Square of witnessed relations with a prop-valued filling predicate."""
    top: WitRel
    left: WitRel
    bottom: WitRel
    right: WitRel
    cells: tuple  # (((a, b, c, d), (p, q, r, s)), ...) canonically ordered

    def __post_init__(self):
        if self.left.dom != self.top.dom:
            raise ValueError("top and left edges disagree at the first corner")
        if self.right.dom != self.top.cod:
            raise ValueError("top and right edges disagree at the second corner")
        if self.bottom.dom != self.left.cod:
            raise ValueError("left and bottom edges disagree at the third corner")
        if self.bottom.cod != self.right.cod:
            raise ValueError("bottom and right edges disagree at the fourth corner")
        if self.cells != tuple(sorted(set(self.cells), key=label_key)):
            raise ValueError("cells must be canonically ordered and distinct")
        for (a, b, c, d), (p, q, r, s) in self.cells:
            ok = (p in self.top.wits(a, b) and q in self.left.wits(a, c)
                  and r in self.bottom.wits(c, d) and s in self.right.wits(b, d))
            if not ok:
                raise ValueError(
                    f"cell at ({a!r}, {b!r}, {c!r}, {d!r}) is not boundary-typed")

    @property
    def corner_a(self) -> FinSetObj:
        return self.top.dom

    @property
    def corner_b(self) -> FinSetObj:
        return self.top.cod

    @property
    def corner_c(self) -> FinSetObj:
        return self.left.cod

    @property
    def corner_d(self) -> FinSetObj:
        return self.bottom.cod

    def corners(self) -> tuple:
        return (self.corner_a, self.corner_b, self.corner_c, self.corner_d)

    def edges(self) -> tuple:
        return (self.top, self.left, self.bottom, self.right)

    @cached_property
    def cell_set(self) -> frozenset:
        return frozenset(self.cells)

    def holds(self, corners, wits) -> bool:
        return (corners, wits) in self.cell_set


def two_rel(top: WitRel, left: WitRel, bottom: WitRel, right: WitRel, cells) -> TwoRel:
    return TwoRel(top, left, bottom, right,
                  tuple(sorted(set(cells), key=label_key)))


def face2(which: str, q: TwoRel) -> WitRel:
    """Project out the named edge of a square."""
    if which not in _FACES:
        raise ValueError(f"unknown face {which!r}")
    return getattr(q, which)


def transpose2(q: TwoRel) -> TwoRel:
    """Flip a square across its main diagonal."""
    cells = [((a, c, b, d), (qq, p, s, r)) for (a, b, c, d), (p, qq, r, s) in q.cells]
    return two_rel(q.left, q.top, q.right, q.bottom, cells)


@hash_once
@dataclass(frozen=True)
class TwoRelMor:
    """Map of squares: edge morphisms sharing corner legs, cells preserved."""
    src: TwoRel
    tgt: TwoRel
    top: WitRelMor
    left: WitRelMor
    bottom: WitRelMor
    right: WitRelMor

    def __post_init__(self):
        for name in _FACES:
            m = getattr(self, name)
            if m.src != getattr(self.src, name) or m.tgt != getattr(self.tgt, name):
                raise ValueError(f"{name} edge morphism boundary mismatch")
        shared = ((self.top.f, self.left.f, "first"),
                  (self.top.g, self.right.f, "second"),
                  (self.left.g, self.bottom.f, "third"),
                  (self.bottom.g, self.right.g, "fourth"))
        for u, v, which in shared:
            if u != v:
                raise ValueError(f"edge morphisms disagree at the {which} corner")
        for cell in self.src.cells:
            if self.cell_image(cell) not in self.tgt.cell_set:
                raise ValueError(f"cell {cell!r} is not preserved")

    def cell_image(self, cell) -> tuple:
        (a, b, c, d), (p, q, r, s) = cell
        return ((self.top.f(a), self.top.g(b), self.left.g(c), self.bottom.g(d)),
                (self.top.send(a, b, p), self.left.send(a, c, q),
                 self.bottom.send(c, d, r), self.right.send(b, d, s)))

    @property
    def corner_maps(self) -> tuple:
        return (self.top.f, self.top.g, self.left.g, self.bottom.g)

    @cached_property
    def has_identity_corners(self) -> bool:
        return all(u.is_identity for u in self.corner_maps)

    @cached_property
    def is_iso(self) -> bool:
        if not all(getattr(self, n).is_iso for n in _FACES):
            return False
        return {self.cell_image(c) for c in self.src.cells} == set(self.tgt.cell_set)

    @cached_property
    def is_identity(self) -> bool:
        return (self.src == self.tgt
                and all(getattr(self, n).is_identity for n in _FACES))


def two_mor_id(q: TwoRel) -> TwoRelMor:
    return TwoRelMor(q, q, wit_mor_id(q.top), wit_mor_id(q.left),
                     wit_mor_id(q.bottom), wit_mor_id(q.right))


def two_mor_compose(m2: TwoRelMor, m1: TwoRelMor) -> TwoRelMor:
    if m1.tgt != m2.src:
        raise ValueError("non-composable square morphisms")
    return TwoRelMor(m1.src, m2.tgt,
                     *(wit_mor_compose(getattr(m2, n), getattr(m1, n))
                       for n in _FACES))


def two_mor_inverse(m: TwoRelMor) -> TwoRelMor:
    if not m.is_iso:
        raise ValueError("not an isomorphism")
    return TwoRelMor(m.tgt, m.src,
                     *(wit_mor_inverse(getattr(m, n)) for n in _FACES))


def face2_mor(which: str, m: TwoRelMor) -> WitRelMor:
    if which not in _FACES:
        raise ValueError(f"unknown face {which!r}")
    return getattr(m, which)


# ---------------------------------------------------------------------------
# degeneracies and connections
# ---------------------------------------------------------------------------

SQUARE_TAGS = ("horizontal", "vertical", "upper", "lower")


def degen2(which: str, r: WitRel) -> TwoRel:
    """Replicate a relation into a square.

    "horizontal" puts r on top and bottom with endpoint equalities as
    sides; a cell asks the two copies to carry the same witness.
    "vertical" is the transposed layout.
    """
    ed, ec = weq(r.dom), weq(r.cod)
    if which == "horizontal":
        cells = [((a, b, a, b), (w, refl(a), w, refl(b))) for a, b, w in r.triples()]
        return two_rel(r, ed, r, ec, cells)
    if which == "vertical":
        cells = [((a, a, b, b), (refl(a), w, refl(b), w)) for a, b, w in r.triples()]
        return two_rel(ed, r, ec, r, cells)
    raise ValueError(f"unknown replication {which!r}")


def connection(which: str, r: WitRel) -> TwoRel:
    """Fold a relation against the equality on one of its endpoints.

    "upper" puts r on top and left with the codomain equality on the
    other two edges; a cell asks the two copies to agree. "lower" puts
    r on bottom and right with the domain equality opposite.
    """
    if which == "upper":
        e = weq(r.cod)
        cells = [((a, b, b, b), (w, w, refl(b), refl(b))) for a, b, w in r.triples()]
        return two_rel(r, r, e, e, cells)
    if which == "lower":
        e = weq(r.dom)
        cells = [((a, a, a, b), (refl(a), refl(a), w, w)) for a, b, w in r.triples()]
        return two_rel(e, e, r, r, cells)
    raise ValueError(f"unknown connection {which!r}")


def degen2_mor(which: str, m: WitRelMor) -> TwoRelMor:
    src, tgt = degen2(which, m.src), degen2(which, m.tgt)
    ed, ec = eq_wmor(m.f), eq_wmor(m.g)
    if which == "horizontal":
        return TwoRelMor(src, tgt, m, ed, m, ec)
    return TwoRelMor(src, tgt, ed, m, ec, m)


def connection_mor(which: str, m: WitRelMor) -> TwoRelMor:
    src, tgt = connection(which, m.src), connection(which, m.tgt)
    if which == "upper":
        e = eq_wmor(m.g)
        return TwoRelMor(src, tgt, m, m, e, e)
    e = eq_wmor(m.f)
    return TwoRelMor(src, tgt, e, e, m, m)


def square_on(tag: str, r: WitRel) -> TwoRel:
    if tag in ("horizontal", "vertical"):
        return degen2(tag, r)
    if tag in ("upper", "lower"):
        return connection(tag, r)
    raise ValueError(f"unknown square construction {tag!r}")


def square_mor_on(tag: str, m: WitRelMor) -> TwoRelMor:
    if tag in ("horizontal", "vertical"):
        return degen2_mor(tag, m)
    if tag in ("upper", "lower"):
        return connection_mor(tag, m)
    raise ValueError(f"unknown square construction {tag!r}")


# ---------------------------------------------------------------------------
# cartesian structure on squares
# ---------------------------------------------------------------------------

def squnit() -> TwoRel:
    u = wunit_rel()
    cell = ((STAR, STAR, STAR, STAR), (WUNIT, WUNIT, WUNIT, WUNIT))
    return two_rel(u, u, u, u, [cell])


def sqbang(q: TwoRel) -> TwoRelMor:
    return TwoRelMor(q, squnit(), wbang(q.top), wbang(q.left),
                     wbang(q.bottom), wbang(q.right))


def sqprod(q1: TwoRel, q2: TwoRel) -> TwoRel:
    cells = []
    for (a1, b1, c1, d1), (p1, q1w, r1, s1) in q1.cells:
        for (a2, b2, c2, d2), (p2, q2w, r2, s2) in q2.cells:
            cells.append(
                ((("pr", a1, a2), ("pr", b1, b2), ("pr", c1, c2), ("pr", d1, d2)),
                 (("wpair", p1, p2), ("wpair", q1w, q2w),
                  ("wpair", r1, r2), ("wpair", s1, s2))))
    return two_rel(wprod(q1.top, q2.top), wprod(q1.left, q2.left),
                   wprod(q1.bottom, q2.bottom), wprod(q1.right, q2.right), cells)


def sqexpo(q1: TwoRel, q2: TwoRel) -> TwoRel:
    """Exponential square: filled by table tuples that map cells to cells."""
    top = wexpo(q1.top, q2.top)
    left = wexpo(q1.left, q2.left)
    bottom = wexpo(q1.bottom, q2.bottom)
    right = wexpo(q1.right, q2.right)
    cells = []
    for (ta, tb), pset in top.entries:
        for (la, lc), qset in left.entries:
            if la != ta:
                continue
            for (ba, bd), rset in bottom.entries:
                if ba != lc:
                    continue
                for (ra, rd), sset in right.entries:
                    if ra != tb or rd != bd:
                        continue
                    corners = (ta, tb, lc, bd)
                    for tabs in itertools.product(pset, qset, rset, sset):
                        if _tables_fill(q1, q2, corners, tabs):
                            cells.append((corners, tabs))
    return two_rel(top, left, bottom, right, cells)


def _tables_fill(q1: TwoRel, q2: TwoRel, corners, tabs) -> bool:
    ta, tb, tc, td = corners
    pt, qt, rt, st = tabs
    for (a, b, c, d), (p, q, r, s) in q1.cells:
        image = ((apply_label(ta, a), apply_label(tb, b),
                  apply_label(tc, c), apply_label(td, d)),
                 (tab_apply(pt, a, b, p), tab_apply(qt, a, c, q),
                  tab_apply(rt, c, d, r), tab_apply(st, b, d, s)))
        if image not in q2.cell_set:
            return False
    return True


# ---------------------------------------------------------------------------
# the face-equation suite
# ---------------------------------------------------------------------------

WIT_ALPHABET = (("w", 0), ("w", 1))


@dataclass(frozen=True)
class CubeUniverse:
    """Finite probe stock for the square laws."""
    objects: tuple
    relations: tuple
    functions: tuple


def all_wit_rels(a: FinSetObj, b: FinSetObj, alphabet=WIT_ALPHABET) -> Iterator[WitRel]:
    """Every witnessed relation between a and b drawn from a fixed alphabet."""
    pairs = [(x, y) for x in a for y in b]
    subsets = [c for k in range(len(alphabet) + 1)
               for c in itertools.combinations(alphabet, k)]
    for assignment in itertools.product(subsets, repeat=len(pairs)):
        yield wrel(a, b, dict(zip(pairs, assignment)))


def cube_universe(carrier_bound: int = 2, alphabet=WIT_ALPHABET) -> CubeUniverse:
    objs = tuple(atom_objects(carrier_bound))
    rels = tuple(r for a in objs for b in objs for r in all_wit_rels(a, b, alphabet))
    funs = tuple(u for a in objs for b in objs for u in all_functions(a, b))
    return CubeUniverse(objs, rels, funs)


def equality_suite(universe: CubeUniverse, report: Optional[Report] = None) -> Report:
    """Face laws of replications and connections over a finite stock.

    Six face-computation families checked as table equalities for every
    relation, then the comparison isomorphisms between the four squares
    an equality relation generates, their naturality, and functoriality
    of all four constructions.
    """
    rep = report if report is not None else Report()

    def check_family(law: str, probe) -> None:
        bad = None
        for r in universe.relations:
            msg = probe(r)
            if msg:
                bad = f"{msg} for {r!r}"
                break
        rep.check(law, bad)

    def faces_equal(sq: TwoRel, expected: dict) -> Optional[str]:
        for name, want in expected.items():
            if face2(name, sq) != want:
                return f"{name} face differs"
        return None

    check_family(
        "horizontal replication: top and bottom faces restore the relation",
        lambda r: faces_equal(degen2("horizontal", r), {"top": r, "bottom": r}))
    check_family(
        "horizontal replication: side faces are endpoint equalities",
        lambda r: faces_equal(degen2("horizontal", r),
                              {"left": weq(r.dom), "right": weq(r.cod)}))
    check_family(
        "vertical replication: side faces restore the relation",
        lambda r: faces_equal(degen2("vertical", r), {"left": r, "right": r}))
    check_family(
        "vertical replication: top and bottom faces are endpoint equalities",
        lambda r: faces_equal(degen2("vertical", r),
                              {"top": weq(r.dom), "bottom": weq(r.cod)}))
    check_family(
        "connections: faces along the folded corner restore the relation",
        lambda r: faces_equal(connection("upper", r), {"top": r, "left": r})
        or faces_equal(connection("lower", r), {"bottom": r, "right": r}))
    check_family(
        "connections: opposite faces are endpoint equalities",
        lambda r: faces_equal(connection("upper", r),
                              {"bottom": weq(r.cod), "right": weq(r.cod)})
        or faces_equal(connection("lower", r),
                       {"top": weq(r.dom), "left": weq(r.dom)}))

    bad = None
    for a in universe.objects:
        squares = [square_on(tag, weq(a)) for tag in SQUARE_TAGS]
        if any(sq != squares[0] for sq in squares[1:]):
            bad = f"constructions disagree at {a!r}"
            break
    rep.check("equality squares: all four constructions coincide", bad)

    bad = None
    for a in universe.objects:
        base = square_on("horizontal", weq(a))
        for tag in SQUARE_TAGS:
            try:
                iso = TwoRelMor(square_on(tag, weq(a)), base,
                                wit_mor_id(base.top), wit_mor_id(base.left),
                                wit_mor_id(base.bottom), wit_mor_id(base.right))
            except ValueError as exc:
                bad = f"{tag} comparison at {a!r} fails: {exc}"
                break
            if not (iso.is_iso and iso.has_identity_corners):
                bad = f"{tag} comparison at {a!r} is not an identity-cornered iso"
                break
        if bad:
            break
    rep.check("equality squares: comparison isos have identity corner maps", bad)

    bad = None
    for u in universe.functions:
        actions = [square_mor_on(tag, eq_wmor(u)) for tag in SQUARE_TAGS]
        if any(act != actions[0] for act in actions[1:]):
            bad = f"actions disagree at {u!r}"
            break
    rep.check("equality squares: comparison is natural along functions", bad)

    bad = None
    for tag in SQUARE_TAGS:
        for r in universe.relations:
            if square_mor_on(tag, wit_mor_id(r)) != two_mor_id(square_on(tag, r)):
                bad = f"{tag} at {r!r}"
                break
        if bad:
            break
    rep.check("replications and connections preserve identities", bad)

    bad = None
    for tag in SQUARE_TAGS:
        for u in universe.functions:
            for v in universe.functions:
                if v.dom != u.cod:
                    continue
                lhs = square_mor_on(tag, wit_mor_compose(eq_wmor(v), eq_wmor(u)))
                rhs = two_mor_compose(square_mor_on(tag, eq_wmor(v)),
                                      square_mor_on(tag, eq_wmor(u)))
                if lhs != rhs:
                    bad = f"{tag} at {u!r} then {v!r}"
                    break
            if bad:
                break
        if bad:
            break
    rep.check("replications and connections preserve composition", bad)
    return rep


# ---------------------------------------------------------------------------
# quantifier membership at all three levels
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BodyEval:
    """A type body as the membership checker sees it.

    Each evaluator receives the fixed environment tuple (at the level
    the evaluator works at) plus the bound argument. The probe lists
    are the range of the bound argument; fn_mors and rel_mors drive the
    transport clauses and are expected to connect probes to probes.
    """
    objects: tuple
    relations: tuple
    squares: tuple
    fn_mors: tuple
    rel_mors: tuple
    ob0: Callable
    ob1: Callable
    ob2: Callable
    mor0: Callable
    mor1: Callable


def _family_value(family, key, what: str):
    try:
        return family[key]
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"ill-shaped candidate: no {what} at {key!r}") from exc


def _level0_parts(candidate) -> tuple:
    if not isinstance(candidate, tuple) or len(candidate) not in (2, 3):
        raise ValueError(
            "ill-shaped candidate: expected (elements, witnesses) "
            "with an optional prop-level filler entry")
    return candidate[0], candidate[1]


def _edge_family(candidate):
    # prop-level components carry no data, so the edge family may come
    # alone or padded to the full five-slot shape
    if isinstance(candidate, tuple):
        if len(candidate) not in (1, 5):
            raise ValueError(
                "ill-shaped candidate: expected the edge family alone "
                "or padded with four placeholder fillers")
        return candidate[0]
    return candidate


def _square_layout() -> dict:
    """Which family feeds each corner and edge of the four clause squares.

    Read off from the constructions themselves on a marker relation
    with distinguishable endpoints; boundary typing forces the
    placement, so nothing here is a free choice.
    """
    d, c = fin_set(["edge_dom"]), fin_set(["edge_cod"])
    marker = wrel(d, c, {("edge_dom", "edge_cod"): (("mark",),)})
    corner_name = {d: "f", c: "g"}
    edge_name = {marker: "phi", weq(d): "f1", weq(c): "g1"}
    out = {}
    for tag in SQUARE_TAGS:
        sq = square_on(tag, marker)
        out[tag] = (tuple(corner_name[x] for x in sq.corners()),
                    tuple(edge_name[e] for e in sq.edges()))
    return out


_SQUARE_LAYOUT = _square_layout()


def forall2_membership(level: int, body: BodyEval, env, candidate):
    """Check one quantifier-membership condition over the probe stock.

    Returns (ok, violations); violations lists every failed obligation
    in check order, each naming the probe it failed at.
    """
    if level == 0:
        return _membership0(body, env, candidate)
    if level == 1:
        return _membership1(body, env, candidate)
    if level == 2:
        return _membership2(body, env, candidate)
    raise ValueError(f"unknown level {level!r}")


def _membership0(body: BodyEval, env, candidate):
    f0, f1 = _level0_parts(candidate)
    missing = []
    for a in body.objects:
        if _family_value(f0, a, "element") not in body.ob0(env, a):
            missing.append(f"element at object probe {a!r} escapes the value set")
    eq_env = tuple(weq(x) for x in env)
    for r in body.relations:
        val = body.ob1(eq_env, r)
        w = _family_value(f1, r, "witness")
        if w not in val.wits(_family_value(f0, r.dom, "element"),
                             _family_value(f0, r.cod, "element")):
            missing.append(f"witness clause fails at relation probe {r!r}")
    sq_env = tuple(degen2("horizontal", weq(x)) for x in env)
    for q in body.squares:
        corners = tuple(_family_value(f0, x, "element") for x in q.corners())
        wits = tuple(_family_value(f1, e, "witness") for e in q.edges())
        if not body.ob2(sq_env, q).holds(corners, wits):
            missing.append(f"filling clause fails at square probe {q!r}")
    id_env0 = tuple(fn_id(x) for x in env)
    for i in body.fn_mors:
        act = body.mor0(id_env0, i)
        if act.mapping.get(_family_value(f0, i.dom, "element")) != \
                _family_value(f0, i.cod, "element"):
            missing.append(f"element transport fails along {i!r}")
    id_env1 = tuple(wit_mor_id(weq(x)) for x in env)
    for j in body.rel_mors:
        act = body.mor1(id_env1, j)
        got = act.action.get((_family_value(f0, j.src.dom, "element"),
                              _family_value(f0, j.src.cod, "element"),
                              _family_value(f1, j.src, "witness")))
        if got != _family_value(f1, j.tgt, "witness"):
            missing.append(f"witness transport fails along {j!r}")
    return not missing, tuple(missing)


def _membership1(body: BodyEval, env, candidate):
    if not isinstance(env, tuple) or len(env) != 3:
        raise ValueError(
            "ill-shaped environment: expected (relations, left family, right family)")
    rbar, fcand, gcand = env
    f0, f1 = _level0_parts(fcand)
    g0, g1 = _level0_parts(gcand)
    phi = _edge_family(candidate)
    missing = []
    for r in body.relations:
        val = body.ob1(rbar, r)
        w = _family_value(phi, r, "edge witness")
        if w not in val.wits(_family_value(f0, r.dom, "element"),
                             _family_value(g0, r.cod, "element")):
            missing.append(f"edge witness clause fails at relation probe {r!r}")
    corner_pick = {"f": f0, "g": g0}
    edge_pick = {"phi": phi, "f1": f1, "g1": g1}
    for tag in SQUARE_TAGS:
        corner_names, edge_names = _SQUARE_LAYOUT[tag]
        env_sq = tuple(square_on(tag, rb) for rb in rbar)
        for q in body.squares:
            corners = tuple(
                _family_value(corner_pick[nm], x, "element")
                for nm, x in zip(corner_names, q.corners()))
            wits = tuple(
                _family_value(edge_pick[nm], e, "witness")
                for nm, e in zip(edge_names, q.edges()))
            if not body.ob2(env_sq, q).holds(corners, wits):
                missing.append(f"{tag} square clause fails at probe {q!r}")
    id_env = tuple(wit_mor_id(rb) for rb in rbar)
    for j in body.rel_mors:
        act = body.mor1(id_env, j)
        got = act.action.get((_family_value(f0, j.src.dom, "element"),
                              _family_value(g0, j.src.cod, "element"),
                              _family_value(phi, j.src, "edge witness")))
        if got != _family_value(phi, j.tgt, "edge witness"):
            missing.append(f"edge transport fails along {j!r}")
    return not missing, tuple(missing)


def _membership2(body: BodyEval, env, candidate):
    if not isinstance(env, tuple) or len(env) != 5:
        raise ValueError(
            "ill-shaped environment: expected (squares, four corner families)")
    qbar = env[0]
    corner_fams = tuple(_level0_parts(x)[0] for x in env[1:])
    if not isinstance(candidate, tuple) or len(candidate) != 4:
        raise ValueError("ill-shaped candidate: expected four edge families")
    phis = tuple(_edge_family(x) for x in candidate)
    missing = []
    for q in body.squares:
        corners = tuple(_family_value(fam, x, "element")
                        for fam, x in zip(corner_fams, q.corners()))
        wits = tuple(_family_value(ph, e, "edge witness")
                     for ph, e in zip(phis, q.edges()))
        if not body.ob2(qbar, q).holds(corners, wits):
            missing.append(f"filling clause fails at square probe {q!r}")
    return not missing, tuple(missing)


# ---------------------------------------------------------------------------
# the forced square-level component of a two-level transformation
# ---------------------------------------------------------------------------

def eta2_extension(eta0, eta1, eps_src_sq: TwoRelMor, eps_tgt_sq: TwoRelMor) -> TwoRelMor:
    """Solve for the square-level component forced by the two eps isos.

    eta0 is the pair of element maps at the two endpoint environments;
    eta1 the triple of edge components (at the relation environment
    itself and at the two endpoint-equality environments). The eps
    squares mediate between the replicated edge value and the square
    value, for source and target respectively. The result is the
    unique solution of

        result . eps_src_sq = eps_tgt_sq . replicate(edge component)

    and is verified to restrict to the given components on all four
    faces; incoherent inputs are rejected rather than patched.
    """
    h_dom, h_cod = eta0
    m_rel, m_eqd, m_eqc = eta1
    if m_rel.f != h_dom or m_rel.g != h_cod:
        raise ValueError("the relation component does not sit over the element maps")
    if m_eqd.f != h_dom or m_eqd.g != h_dom:
        raise ValueError("the domain equality component does not sit over the element maps")
    if m_eqc.f != h_cod or m_eqc.g != h_cod:
        raise ValueError("the codomain equality component does not sit over the element maps")
    for eps, side, who in ((eps_src_sq, m_rel.src, "source"),
                           (eps_tgt_sq, m_rel.tgt, "target")):
        if eps.src != degen2("horizontal", side):
            raise ValueError(f"{who} eps square does not start at the replicated edge value")
        if not eps.is_iso:
            raise ValueError(f"{who} eps square is not an isomorphism")
    out = two_mor_compose(
        eps_tgt_sq,
        two_mor_compose(degen2_mor("horizontal", m_rel),
                        two_mor_inverse(eps_src_sq)))
    expected = {"top": m_rel, "bottom": m_rel, "left": m_eqd, "right": m_eqc}
    for name, want in expected.items():
        if face2_mor(name, out) != want:
            raise ValueError(
                f"no face-respecting solution: the {name} face of the solved "
                "component is not the given edge component")
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _label_data(x):
    if isinstance(x, tuple):
        return [_label_data(c) for c in x]
    if isinstance(x, (int, str)):
        return x
    raise ValueError(f"unsupported label for serialization: {x!r}")


def _label_back(d):
    if isinstance(d, list):
        return tuple(_label_back(c) for c in d)
    if isinstance(d, (int, str)):
        return d
    raise ValueError(f"unsupported serialized label: {d!r}")


def obj_to_data(a: FinSetObj) -> list:
    return [_label_data(x) for x in a]


def obj_from_data(d) -> FinSetObj:
    return fin_set(_label_back(x) for x in d)


def wit_rel_to_data(r: WitRel) -> dict:
    return {"dom": obj_to_data(r.dom), "cod": obj_to_data(r.cod),
            "witness": [[_label_data(a), _label_data(b),
                         [_label_data(w) for w in ws]]
                        for (a, b), ws in r.entries]}


def wit_rel_from_data(d) -> WitRel:
    try:
        dom, cod = obj_from_data(d["dom"]), obj_from_data(d["cod"])
        wit = {(_label_back(a), _label_back(b)): tuple(_label_back(w) for w in ws)
               for a, b, ws in d["witness"]}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed relation data: {exc}") from exc
    return wrel(dom, cod, wit)


def two_rel_to_data(q: TwoRel) -> dict:
    return {"corners": [obj_to_data(x) for x in q.corners()],
            "top": wit_rel_to_data(q.top), "left": wit_rel_to_data(q.left),
            "bottom": wit_rel_to_data(q.bottom), "right": wit_rel_to_data(q.right),
            "cells": [[[_label_data(x) for x in corners],
                       [_label_data(w) for w in wits]]
                      for corners, wits in q.cells]}


def two_rel_from_data(d) -> TwoRel:
    try:
        edges = {name: wit_rel_from_data(d[name]) for name in _FACES}
        cells = [(tuple(_label_back(x) for x in corners),
                  tuple(_label_back(w) for w in wits))
                 for corners, wits in d["cells"]]
        declared = [obj_from_data(x) for x in d["corners"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed square data: {exc}") from exc
    q = two_rel(edges["top"], edges["left"], edges["bottom"], edges["right"], cells)
    if declared != list(q.corners()):
        raise ValueError("declared corners disagree with the edges")
    return q
