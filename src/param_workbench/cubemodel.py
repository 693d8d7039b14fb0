"""Witnessed relations and their squares: faces, degeneracies, connections.

Relations at this layer may hold between two elements in several
distinguishable ways, so morphisms carry an explicit witness action,
where a propositional relation morphism is just its two legs. A square of such
relations carries a prop-valued filling predicate over boundary
tuples: witnesses are data on edges but mere conditions one dimension
up.

Relations replicate and connect into squares, and equality_suite
checks the face laws of those constructions over a finite stock,
against faces it writes out itself.  The witnessed exponential wexpo
has no caller in the package; it stays because perfbench's tracer
names it.  No type is interpreted here: fibration evaluates type trees
over finite sets and propositional relations only, so quantifiers have
no witnessed or square-level reading.

The records are hash-consed like finmodel's (equality is identity), and
the square constructions are cached, so each is built and validated once.

Edge geometry is fixed throughout. A square has corners a, b, c, d
with top : a <-> b, left : a <-> c, bottom : c <-> d, right : b <-> d,
and boundary tuples are written ((a, b, c, d), (p, q, r, s)) with p on
top, q on left, r on bottom and s on right.

The four squares on a relation r : A <-> B are one table, _SQUARES,
from tag to (edges, cell): the horizontal and vertical replications
(degeneracies) and the upper and lower connections.  edges(x, d, c)
returns the (top, left, bottom, right) edges, with x on the edges that
carry the relation and d, c on those that carry the equalities on its
domain A and codomain B.  Given r, weq A and weq B it lays out the
square; given a morphism m and the eq_wmor images of its legs, the
square morphism.  cell(a, b, w) is the boundary tuple that a witness w
of (a, b) in r fills, so a square holds one cell per witness of r.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cached_property, lru_cache
from typing import Iterator, Optional

from .finmodel import (
    FinFn,
    FinSetObj,
    Label,
    all_functions,
    atom_objects,
    canon,
    expo0,
    fn_compose,
    fn_id,
    fn_label,
    hash_cons,
    is_canonical,
    label_key,
    refl,
)
from .rgalg import Report


# ---------------------------------------------------------------------------
# witnessed relations
# ---------------------------------------------------------------------------

@hash_cons
class WitRel:
    """Relation with a finite set of witness labels per related pair."""
    dom: FinSetObj
    cod: FinSetObj
    entries: tuple  # (((a, b), (w, ...)), ...) canonically keyed, sets nonempty

    def __post_init__(self):
        if not is_canonical(k for k, _ in self.entries):
            raise ValueError("witness keys must be canonically ordered, one per pair")
        for (a, b), ws in self.entries:
            if a not in self.dom or b not in self.cod:
                raise ValueError(f"witness key ({a!r}, {b!r}) escapes the boundary")
            if not (ws and isinstance(ws, tuple) and is_canonical(ws)):
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


@lru_cache(maxsize=None)
def weq(a: FinSetObj) -> WitRel:
    """The equality on a, one refl witness per element; cached per
    carrier, since the square constructions rebuild it for every edge."""
    return wrel(a, a, {(x, x): (refl(x),) for x in a})


@hash_cons
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
        if not is_canonical(keys):
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


@lru_cache(maxsize=None)
def wit_mor_id(r: WitRel) -> WitRelMor:
    return wit_mor(r, r, fn_id(r.dom), fn_id(r.cod), lambda a, b, w: w)


def wit_mor_compose(m2: WitRelMor, m1: WitRelMor) -> WitRelMor:
    if m1.tgt != m2.src:
        raise ValueError("non-composable witnessed morphisms")
    return wit_mor(m1.src, m2.tgt, fn_compose(m2.f, m1.f), fn_compose(m2.g, m1.g),
                   lambda a, b, w: m2.send(m1.f(a), m1.g(b), m1.send(a, b, w)))


@lru_cache(maxsize=None)
def eq_wmor(f: FinFn) -> WitRelMor:
    # functorial: refl(a) goes to refl(f a)
    return wit_mor(weq(f.dom), weq(f.cod), f, f, lambda a, b, w: refl(f(a)))


# ---------------------------------------------------------------------------
# the witnessed exponential
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# squares
# ---------------------------------------------------------------------------

_FACES = ("top", "left", "bottom", "right")


@hash_cons
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
        if not (isinstance(self.cells, tuple) and is_canonical(self.cells)):
            raise ValueError("cells must be canonically ordered and distinct")
        for (a, b, c, d), (p, q, r, s) in self.cells:
            ok = (p in self.top.wits(a, b) and q in self.left.wits(a, c)
                  and r in self.bottom.wits(c, d) and s in self.right.wits(b, d))
            if not ok:
                raise ValueError(
                    f"cell at ({a!r}, {b!r}, {c!r}, {d!r}) is not boundary-typed")

    @cached_property
    def cell_set(self) -> frozenset:
        return frozenset(self.cells)

    def holds(self, corners, wits) -> bool:
        return (corners, wits) in self.cell_set


def two_rel(top: WitRel, left: WitRel, bottom: WitRel, right: WitRel, cells) -> TwoRel:
    return TwoRel(top, left, bottom, right,
                  tuple(sorted(set(cells), key=label_key)))


@hash_cons
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


# ---------------------------------------------------------------------------
# degeneracies and connections
# ---------------------------------------------------------------------------

# tag -> (edges, cell); see the module docstring
_SQUARES = {
    "horizontal": (lambda x, d, c: (x, d, x, c),
                   lambda a, b, w: ((a, b, a, b), (w, refl(a), w, refl(b)))),
    "vertical": (lambda x, d, c: (d, x, c, x),
                 lambda a, b, w: ((a, a, b, b), (refl(a), w, refl(b), w))),
    "upper": (lambda x, d, c: (x, x, c, c),
              lambda a, b, w: ((a, b, b, b), (w, w, refl(b), refl(b)))),
    "lower": (lambda x, d, c: (d, d, x, x),
              lambda a, b, w: ((a, a, a, b), (refl(a), refl(a), w, w))),
}
SQUARE_TAGS = tuple(_SQUARES)


def _layout(tag: str) -> tuple:
    if tag not in _SQUARES:
        raise ValueError(f"unknown square construction {tag!r}")
    return _SQUARES[tag]


@lru_cache(maxsize=None)
def square_on(tag: str, r: WitRel) -> TwoRel:
    """The tag's square on r, one cell per witness of r."""
    edges, cell = _layout(tag)
    return two_rel(*edges(r, weq(r.dom), weq(r.cod)),
                   [cell(a, b, w) for a, b, w in r.triples()])


def square_mor_on(tag: str, m: WitRelMor) -> TwoRelMor:
    """The tag's square morphism on m: m on the relation's edges and the
    eq_wmor images of its legs on the endpoint equalities."""
    edges, _ = _layout(tag)
    return TwoRelMor(square_on(tag, m.src), square_on(tag, m.tgt),
                     *edges(m, eq_wmor(m.f), eq_wmor(m.g)))


# ---------------------------------------------------------------------------
# the face-equation suite
# ---------------------------------------------------------------------------

WIT_ALPHABET = (("w", 0), ("w", 1))


# finite probe stock for the square laws
CubeUniverse = namedtuple("CubeUniverse", "objects relations functions")


def all_wit_rels(a: FinSetObj, b: FinSetObj) -> Iterator[WitRel]:
    """Every witnessed relation between a and b drawn from WIT_ALPHABET."""
    pairs = [(x, y) for x in a for y in b]
    subsets = [c for k in range(len(WIT_ALPHABET) + 1)
               for c in itertools.combinations(WIT_ALPHABET, k)]
    for assignment in itertools.product(subsets, repeat=len(pairs)):
        yield wrel(a, b, dict(zip(pairs, assignment)))


def cube_universe(carrier_bound: int = 2) -> CubeUniverse:
    objs = tuple(atom_objects(carrier_bound))
    rels = tuple(r for a in objs for b in objs for r in all_wit_rels(a, b))
    funs = tuple(u for a in objs for b in objs for u in all_functions(a, b))
    return CubeUniverse(objs, rels, funs)


def equality_suite(universe: CubeUniverse) -> Report:
    """Face laws of replications and connections over a finite stock.

    Six face-computation families checked as table equalities for every
    relation, then the comparison isomorphisms between the four squares
    an equality relation generates, their naturality, and functoriality
    of all four constructions.
    """
    rep = Report()

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
            if getattr(sq, name) != want:
                return f"{name} face differs"
        return None

    check_family(
        "horizontal replication: top and bottom faces restore the relation",
        lambda r: faces_equal(square_on("horizontal", r), {"top": r, "bottom": r}))
    check_family(
        "horizontal replication: side faces are endpoint equalities",
        lambda r: faces_equal(square_on("horizontal", r),
                              {"left": weq(r.dom), "right": weq(r.cod)}))
    check_family(
        "vertical replication: side faces restore the relation",
        lambda r: faces_equal(square_on("vertical", r), {"left": r, "right": r}))
    check_family(
        "vertical replication: top and bottom faces are endpoint equalities",
        lambda r: faces_equal(square_on("vertical", r),
                              {"top": weq(r.dom), "bottom": weq(r.cod)}))
    check_family(
        "connections: faces along the folded corner restore the relation",
        lambda r: faces_equal(square_on("upper", r), {"top": r, "left": r})
        or faces_equal(square_on("lower", r), {"bottom": r, "right": r}))
    check_family(
        "connections: opposite faces are endpoint equalities",
        lambda r: faces_equal(square_on("upper", r),
                              {"bottom": weq(r.cod), "right": weq(r.cod)})
        or faces_equal(square_on("lower", r),
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
