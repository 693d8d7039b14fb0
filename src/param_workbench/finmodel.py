"""Finite sets, functions and propositional relations between them.

This is the proof-irrelevant (Reynolds) model: a relation is its set of
related pairs, and a relation morphism is a pair of functions that
carries related pairs to related pairs, so it is determined by its two
legs.  Element labels are structured values (atoms, pairs, function
tables), canonically ordered by label_key.

Because relations are extensional, the comparison map from the equality
on a product or exponential to the product or exponential of
equalities is an identity: both sides are the same set of pairs.  The
witnessed relations of the proof-relevant model live in cubemodel.
Records here and in cubemodel, fibration's type trees and environments,
and systemf's syntax nodes are hash-consed (hash_cons): one instance per
value, so equality is identity and the hash is object's, and no output
order may come from set order.  A record class declares its fields as
annotations, in order, and is called with them positionally; its
__post_init__ validates each value once, when first built.  Fields are
frozen and listed in __match_args__, so match statements read them.
The other records of the package are not interned: those compared by
value (rgalg's findings, categories and functors, cubemodel's universe,
fibration's context morphisms, systemf's tokens and definitions) are
namedtuples, and those compared by identity are plain classes.  The
package imports neither dataclasses nor inspect.
"""

from __future__ import annotations

import itertools
import operator
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterator, Optional

from . import rgalg

Label = object  # atoms (int/str) or tag-headed nested tuples

STAR = ("star",)


@lru_cache(maxsize=1 << 18)
def label_key(x: Label):
    """Canonical sort key across heterogeneous structured labels.

    Cached: exponentials mint labels that share subtuples heavily, and
    sorting recomputes keys for the same sublabels millions of times.
    """
    if isinstance(x, bool):
        return (0, int(x))
    if isinstance(x, int):
        return (0, x)
    if isinstance(x, str):
        return (1, x)
    if isinstance(x, tuple):
        return (2, len(x), tuple(label_key(c) for c in x))
    raise TypeError(f"unsupported label: {x!r}")


def canon(labels) -> tuple:
    return tuple(sorted(set(labels), key=label_key))


def is_canonical(labels) -> bool:
    """Strictly increasing in label_key: what canon returns, checked in
    linear time."""
    keys = [label_key(x) for x in labels]
    return all(map(operator.lt, keys, keys[1:]))


# each hash-consed class -> the repr that first shows its records
_SHOWN: dict = {}


class FrozenInstanceError(AttributeError):
    """Raised on assigning or deleting a hash-consed record's field."""


def hash_cons(cls):
    """Make cls an interned, frozen record class: one instance per value.

    Serves these records, cubemodel's, fibration's type trees and
    environments, and systemf's syntax.  The fields are the names the
    class itself annotates, in order, and the class call takes them
    positionally, one value each (a keyword or a wrong count raises
    TypeError and stores nothing).  Equal fields give the stored
    record; new ones are set, run through __post_init__ if the class
    has one (once per value), and kept unless that raised.  Fields can
    be neither assigned nor deleted (FrozenInstanceError), and
    __match_args__ lists them for match statements.  Equality is
    identity and the hash is object's: set order follows addresses, so
    every order that reaches an output comes from label_key or
    rgalg._rkey alone.  The repr (the class's own, else the field list
    in dataclass's format) is stored once, children first, so a parent's
    repr reads its children's stored strings, however deep.  Records
    whose equal values must stay distinct objects, or that are built
    per result, are namedtuples instead: interning would merge the two
    declared faces rgalg.check_faces_distinct tells apart, and keep
    every finding in a table for good.
    """
    # a class's own annotations only, not its bases', since Python 3.10
    names = tuple(cls.__annotations__)
    post = getattr(cls, "__post_init__", None)
    # object's own setter, past the frozen one, keeps key-sharing dicts
    set_field = object.__setattr__
    table = {}
    _SHOWN[cls] = cls.__dict__.get("__repr__", _field_repr)

    def __new__(c, *values):
        self = table.get(values)
        if self is None:
            if len(values) != len(names):
                raise TypeError(f"{cls.__qualname__}() takes {len(names)} "
                                f"positional arguments but {len(values)} were given")
            self = object.__new__(c)
            i = 0  # a counter, not zip: no iterator to build per record
            for value in values:
                set_field(self, names[i], value)
                i += 1
            if post is not None:
                post(self)
            table[values] = self
        return self

    cls.__new__ = staticmethod(__new__)
    cls.__match_args__ = names
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    cls.__repr__ = _stored_repr
    return cls


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _field_repr(self) -> str:
    shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
    return f"{type(self).__qualname__}({shown})"


def _stored_repr(self) -> str:
    try:
        return self._repr
    except AttributeError:
        _store_reprs(self)
        return self._repr


def _store_reprs(root) -> None:
    """Store the repr of root and of every record below it that lacks
    one, children before parents, over an explicit stack; tuple fields
    are searched for records too."""
    stack = [(root, False)]
    while stack:
        x, ready = stack.pop()
        if ready:
            x.__dict__["_repr"] = _SHOWN[type(x)](x)
        elif isinstance(x, tuple):
            stack.extend((c, False) for c in x)
        elif type(x) in _SHOWN and "_repr" not in x.__dict__:
            stack.append((x, True))
            stack.extend((getattr(x, n), False) for n in x.__match_args__)


# ---------------------------------------------------------------------------
# level 0: finite sets and functions
# ---------------------------------------------------------------------------

@hash_cons
class FinSetObj:
    """Finite set; elements stored in canonical label order."""
    elements: tuple

    def __post_init__(self):
        if not is_canonical(self.elements):
            raise ValueError("elements must be canonically ordered and distinct")

    @cached_property
    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.element_set

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator:
        return iter(self.elements)


def fin_set(labels) -> FinSetObj:
    return FinSetObj(canon(labels))


@hash_cons
class FinFn:
    """Total function between finite sets, tabulated."""
    dom: FinSetObj
    cod: FinSetObj
    table: tuple  # ((x, y), ...) keyed in dom order

    def __post_init__(self):
        keys = tuple(x for x, _ in self.table)
        if keys != self.dom.elements:
            raise ValueError("table keys must enumerate the domain in order")
        for _, y in self.table:
            if y not in self.cod:
                raise ValueError(f"image {y!r} escapes the codomain")

    @cached_property
    def mapping(self) -> dict:
        return dict(self.table)

    def __call__(self, x):
        return self.mapping[x]

    @cached_property
    def is_identity(self) -> bool:
        return self.dom == self.cod and all(x == y for x, y in self.table)

    @cached_property
    def is_bijection(self) -> bool:
        image = {y for _, y in self.table}
        return len(image) == len(self.dom) and len(image) == len(self.cod)


def fn(dom: FinSetObj, cod: FinSetObj, mapping) -> FinFn:
    get = mapping if callable(mapping) else mapping.__getitem__
    return FinFn(dom, cod, tuple((x, get(x)) for x in dom))


def fn_id(a: FinSetObj) -> FinFn:
    return fn(a, a, lambda x: x)


def fn_compose(g: FinFn, f: FinFn) -> FinFn:
    if f.cod != g.dom:
        raise ValueError("non-composable functions")
    return fn(f.dom, g.cod, lambda x: g(f(x)))


@lru_cache(maxsize=4096)
def _fn_space(a: FinSetObj, b: FinSetObj) -> tuple:
    return tuple(FinFn(a, b, tuple(zip(a.elements, images)))
                 for images in itertools.product(b.elements, repeat=len(a)))


def all_functions(a: FinSetObj, b: FinSetObj) -> Iterator[FinFn]:
    yield from _fn_space(a, b)


# ---------------------------------------------------------------------------
# level 1: propositional relations
# ---------------------------------------------------------------------------

@hash_cons
class PropRel:
    """A relation between two finite sets: exactly its related pairs.

    The model is proof-irrelevant, so two elements are related or not
    and a relation is its boundary plus its set of pairs.  Identity is
    therefore extensional, and equal relations are one (hash-consed)
    object, so substituted types match their instantiations on the nose.

    Invariant: entries are strictly increasing in label_key order, which
    is exactly "canonically ordered and distinct".  Constructors that
    already emit pairs in that order (eq_rel, graph_rel, expo1) build
    the record directly; others go through rel(), which sorts.
    """
    dom: FinSetObj
    cod: FinSetObj
    entries: tuple  # ((a, b), ...) canonically ordered

    def __post_init__(self):
        # a pair orders as its label_key does: by a, then by b; a carrier
        # lists its elements in label_key order, so positions order alike
        dpos = {a: i for i, a in enumerate(self.dom.elements)}
        cpos = {b: j for j, b in enumerate(self.cod.elements)}
        try:
            keys = [(dpos[a], cpos[b]) for a, b in self.entries]
        except KeyError:
            a, b = next((a, b) for a, b in self.entries
                        if a not in dpos or b not in cpos)
            raise ValueError(f"pair ({a!r}, {b!r}) escapes the boundary") from None
        if not all(map(operator.lt, keys, keys[1:])):
            raise ValueError("pairs must be canonically ordered and distinct")

    @cached_property
    def pair_set(self) -> frozenset:
        return frozenset(self.entries)

    def holds(self, a, b) -> bool:
        return (a, b) in self.pair_set


def rel(dom: FinSetObj, cod: FinSetObj, pairs) -> PropRel:
    return PropRel(dom, cod, canon(pairs))


def refl(a) -> Label:
    return ("refl", a)


def eq_rel(a: FinSetObj) -> PropRel:
    return PropRel(a, a, tuple((x, x) for x in a))


@hash_cons
class PropRelMor:
    """Relation morphism: two legs that carry related pairs to related pairs."""
    src: PropRel
    tgt: PropRel
    f: FinFn
    g: FinFn

    def __post_init__(self):
        if self.f.dom != self.src.dom or self.f.cod != self.tgt.dom:
            raise ValueError("left leg boundary mismatch")
        if self.g.dom != self.src.cod or self.g.cod != self.tgt.cod:
            raise ValueError("right leg boundary mismatch")
        for a, b in self.src.entries:
            if not self.tgt.holds(self.f(a), self.g(b)):
                raise ValueError(
                    f"pair ({a!r}, {b!r}) has no image at "
                    f"({self.f(a)!r}, {self.g(b)!r})")

    @cached_property
    def is_iso(self) -> bool:
        if not (self.f.is_bijection and self.g.is_bijection):
            return False
        return all(self.src.holds(a, b) == self.tgt.holds(self.f(a), self.g(b))
                   for a in self.src.dom for b in self.src.cod)

    @cached_property
    def has_identity_faces(self) -> bool:
        return self.f.is_identity and self.g.is_identity

    @cached_property
    def is_identity(self) -> bool:
        return self.src == self.tgt and self.has_identity_faces


def try_rel_mor(src: PropRel, tgt: PropRel, f: FinFn, g: FinFn) -> Optional[PropRelMor]:
    try:
        return PropRelMor(src, tgt, f, g)
    except ValueError:
        return None


def rel_mor_id(r: PropRel) -> PropRelMor:
    return PropRelMor(r, r, fn_id(r.dom), fn_id(r.cod))


def rel_mor_compose(m2: PropRelMor, m1: PropRelMor) -> PropRelMor:
    if m1.tgt != m2.src:
        raise ValueError("non-composable relation morphisms")
    return PropRelMor(m1.src, m2.tgt, fn_compose(m2.f, m1.f), fn_compose(m2.g, m1.g))


def eq_mor(f: FinFn) -> PropRelMor:
    return PropRelMor(eq_rel(f.dom), eq_rel(f.cod), f, f)


# ---------------------------------------------------------------------------
# cartesian closure, level 0
# ---------------------------------------------------------------------------

def terminal0() -> FinSetObj:
    return fin_set([STAR])


def bang0(a: FinSetObj) -> FinFn:
    return fn(a, terminal0(), lambda _: STAR)


@lru_cache(maxsize=4096)
def product0(a: FinSetObj, b: FinSetObj) -> FinSetObj:
    return fin_set([("pr", x, y) for x in a for y in b])


def fst0(a: FinSetObj, b: FinSetObj) -> FinFn:
    return fn(product0(a, b), a, lambda p: p[1])


def snd0(a: FinSetObj, b: FinSetObj) -> FinFn:
    return fn(product0(a, b), b, lambda p: p[2])


def pair0(f: FinFn, g: FinFn) -> FinFn:
    if f.dom != g.dom:
        raise ValueError("pairing needs a common domain")
    return fn(f.dom, product0(f.cod, g.cod), lambda x: ("pr", f(x), g(x)))


def fn_label(f: FinFn) -> Label:
    return ("fn", f.table)


@lru_cache(maxsize=4096)
def expo0(a: FinSetObj, b: FinSetObj) -> FinSetObj:
    # the function space is already in canonical label order, so its
    # labels sit at the positions of _fn_space's functions
    return FinSetObj(tuple(fn_label(f) for f in _fn_space(a, b)))


def apply_label(lbl: Label, x):
    return dict(lbl[1])[x]


def eval0(a: FinSetObj, b: FinSetObj) -> FinFn:
    return fn(product0(expo0(a, b), a), b, lambda p: apply_label(p[1], p[2]))


def lambda0(f: FinFn, c: FinSetObj, a: FinSetObj) -> FinFn:
    """Curry f : C x A -> B into C -> (A => B)."""
    b = f.cod
    def curry(x):
        return ("fn", tuple((y, f(("pr", x, y))) for y in a))
    return fn(c, expo0(a, b), curry)


# ---------------------------------------------------------------------------
# cartesian closure, level 1
# ---------------------------------------------------------------------------

def terminal1() -> PropRel:
    t = terminal0()
    return PropRel(t, t, ((STAR, STAR),))


def bang1(r: PropRel) -> PropRelMor:
    return PropRelMor(r, terminal1(), bang0(r.dom), bang0(r.cod))


def product1(r: PropRel, s: PropRel) -> PropRel:
    return rel(product0(r.dom, s.dom), product0(r.cod, s.cod),
               [(("pr", a, c), ("pr", b, d))
                for a, b in r.entries for c, d in s.entries])


def fst1(r: PropRel, s: PropRel) -> PropRelMor:
    return PropRelMor(product1(r, s), r, fst0(r.dom, s.dom), fst0(r.cod, s.cod))


def snd1(r: PropRel, s: PropRel) -> PropRelMor:
    return PropRelMor(product1(r, s), s, snd0(r.dom, s.dom), snd0(r.cod, s.cod))


def pair1(m1: PropRelMor, m2: PropRelMor) -> PropRelMor:
    if m1.src != m2.src:
        raise ValueError("pairing needs a common source")
    return PropRelMor(m1.src, product1(m1.tgt, m2.tgt),
                      pair0(m1.f, m2.f), pair0(m1.g, m2.g))


def _related_fns(r: PropRel, s: PropRel) -> Iterator[tuple[int, list]]:
    """Each f : r.dom -> s.dom that some g makes carry r into s, with
    the list of those g : r.cod -> s.cod, both in canonical order and
    both as positions: f's in _fn_space(r.dom, s.dom), the g's in
    _fn_space(r.cod, s.cod).

    Only related pairs are enumerated: each constraint s(f a, g b)
    touches one image of g, so for a fixed f the related g are the
    product, over b, of the s-partners of every f(a) with (a, b) in r.
    The function spaces list their members in canonical label order
    (lexicographic in the images, which are canonically ordered), so
    walking f, then each image of g, in that order yields the pairs
    already canonically sorted.
    """
    dpos = {a: i for i, a in enumerate(r.dom)}
    bpos = {b: j for j, b in enumerate(r.cod)}
    # g's position in its function space is the mixed-radix number of
    # its image positions
    weight = [len(s.cod) ** (len(r.cod) - 1 - j) for j in range(len(r.cod))]
    partners = [[] for _ in r.cod]        # r-partners of each b, as dom positions
    for a, b in r.entries:
        partners[bpos[b]].append(dpos[a])
    # s-partners of each c as cod positions; s's pairs are sorted by c
    # and then d, so each list comes out in canonical order of d
    cpos = {d: p for p, d in enumerate(s.cod)}
    spart = {c: [] for c in s.dom}
    for c, d in s.entries:
        spart[c].append(cpos[d])
    free = range(len(s.cod))
    sset = s.pair_set
    scod = s.cod.elements

    for fi, f in enumerate(_fn_space(r.dom, s.dom)):
        fimg = [y for _, y in f.table]
        offsets = []
        for j, ps in enumerate(partners):
            opts = spart[fimg[ps[0]]] if ps else free
            for i in ps[1:]:
                c = fimg[i]
                opts = [p for p in opts if (c, scod[p]) in sset]
            if not opts:
                break
            offsets.append([p * weight[j] for p in opts])
        else:
            yield fi, list(map(sum, itertools.product(*offsets)))


def expo1(r: PropRel, s: PropRel) -> PropRel:
    """Relates (f, g) iff they carry every pair of r to a pair of s."""
    dom, cod = expo0(r.dom, s.dom), expo0(r.cod, s.cod)
    flabs, glabs = dom.elements, cod.elements
    entries = []
    for i, ks in _related_fns(r, s):
        flab = flabs[i]
        entries.extend((flab, glabs[k]) for k in ks)
    return PropRel(dom, cod, tuple(entries))


def eval1(r: PropRel, s: PropRel) -> PropRelMor:
    return PropRelMor(product1(expo1(r, s), r), s,
                      eval0(r.dom, s.dom), eval0(r.cod, s.cod))


def lambda1(m: PropRelMor, c: PropRel, r: PropRel) -> PropRelMor:
    """Curry m : C x R -> S into C -> (R => S)."""
    return PropRelMor(c, expo1(r, m.tgt),
                      lambda0(m.f, c.dom, r.dom), lambda0(m.g, c.cod, r.cod))


# ---------------------------------------------------------------------------
# bundled cartesian-closed structure and its universal properties
# ---------------------------------------------------------------------------

def prod_fn(f: FinFn, g: FinFn) -> FinFn:
    """The parallel action f x g between pair carriers."""
    return pair0(fn_compose(f, fst0(f.dom, g.dom)),
                 fn_compose(g, snd0(f.dom, g.dom)))


def prod_mor(m: PropRelMor, n: PropRelMor) -> PropRelMor:
    return PropRelMor(product1(m.src, n.src), product1(m.tgt, n.tgt),
                      prod_fn(m.f, n.f), prod_fn(m.g, n.g))


def all_rel_mors(r: PropRel, s: PropRel) -> Iterator[PropRelMor]:
    """Every relation-preserving square from r to s, by f and then g."""
    fspace, gspace = _fn_space(r.dom, s.dom), _fn_space(r.cod, s.cod)
    return (PropRelMor(r, s, fspace[i], gspace[k])
            for i, ks in _related_fns(r, s) for k in ks)


def check_ccc(carriers, relations, report) -> None:
    """Universal properties of terminal, product, and exponential,
    exhaustively over the given carriers and relations.

    Each structure is checked through its beta law plus the eta form of
    uniqueness (every competitor factors through the canonical map);
    for these concrete tables the two together are the full universal
    property.
    """
    witness = None
    for a in carriers:
        if list(all_functions(a, terminal0())) != [bang0(a)]:
            witness = f"terminal map at {a!r} not unique"
            break
    report.check("level-0 terminal", witness)

    witness = None
    for a, b, c in itertools.product(carriers, repeat=3):
        for f in all_functions(c, a):
            for g in all_functions(c, b):
                h = pair0(f, g)
                if (fn_compose(fst0(a, b), h) != f
                        or fn_compose(snd0(a, b), h) != g):
                    witness = f"projection beta fails at {f!r}, {g!r}"
                    break
            if witness:
                break
        for k in all_functions(c, product0(a, b)):
            got = pair0(fn_compose(fst0(a, b), k), fn_compose(snd0(a, b), k))
            if got != k:
                witness = f"pairing not unique against {k!r}"
                break
        if witness:
            break
    report.check("level-0 products", witness)

    witness = None
    for a, b, c in itertools.product(carriers, repeat=3):
        for f in all_functions(product0(c, a), b):
            lam = lambda0(f, c, a)
            if fn_compose(eval0(a, b), prod_fn(lam, fn_id(a))) != f:
                witness = f"currying beta fails at {f!r}"
                break
        for k in all_functions(c, expo0(a, b)):
            back = fn_compose(eval0(a, b), prod_fn(k, fn_id(a)))
            if lambda0(back, c, a) != k:
                witness = f"currying not unique against {k!r}"
                break
        if witness:
            break
    report.check("level-0 exponentials", witness)

    witness = None
    for r in relations:
        if list(all_rel_mors(r, terminal1())) != [bang1(r)]:
            witness = f"terminal square at {r!r} not unique"
            break
    report.check("level-1 terminal", witness)

    witness = None
    for r, s, t in itertools.product(relations, repeat=3):
        for m in all_rel_mors(t, r):
            for n in all_rel_mors(t, s):
                h = pair1(m, n)
                if (rel_mor_compose(fst1(r, s), h) != m
                        or rel_mor_compose(snd1(r, s), h) != n):
                    witness = f"projection beta fails at {m!r}, {n!r}"
                    break
            if witness:
                break
        for k in all_rel_mors(t, product1(r, s)):
            got = pair1(rel_mor_compose(fst1(r, s), k),
                        rel_mor_compose(snd1(r, s), k))
            if got != k:
                witness = f"pairing not unique against {k!r}"
                break
        if witness:
            break
    report.check("level-1 products", witness)

    witness = None
    for r, s, t in itertools.product(relations, repeat=3):
        for m in all_rel_mors(product1(t, r), s):
            lam = lambda1(m, t, r)
            got = rel_mor_compose(eval1(r, s), prod_mor(lam, rel_mor_id(r)))
            if got != m:
                witness = f"currying beta fails at {m!r}"
                break
        for k in all_rel_mors(t, expo1(r, s)):
            back = rel_mor_compose(eval1(r, s), prod_mor(k, rel_mor_id(r)))
            if lambda1(back, t, r) != k:
                witness = f"currying not unique against {k!r}"
                break
        if witness:
            break
    report.check("level-1 exponentials", witness)


# ---------------------------------------------------------------------------
# isomorphism policies
# ---------------------------------------------------------------------------

class IsoPolicy(Enum):
    """Which isomorphisms a structure selects as its relevant ones.

    REY selects the isos with identity legs, CREY every iso.  Relations
    are extensional, so a relation morphism is its two legs and an iso
    with identity legs is an identity: REY selects the identities (4 at
    level 0 and 18 at level 1 in build_instance(·, 2)) and CREY every
    iso.  A policy selecting only identities would coincide with REY,
    so these two are the only distinct choices.
    """
    REY = "rey"
    CREY = "crey"


def relevant_iso_check(policy: IsoPolicy, m) -> bool:
    """Membership in the policy's selected class, at either level."""
    if isinstance(m, FinFn):
        if policy is IsoPolicy.CREY:
            return m.is_bijection
        return m.is_identity
    if isinstance(m, PropRelMor):
        if policy is IsoPolicy.REY:
            return m.is_iso and m.has_identity_faces
        return m.is_iso
    raise TypeError(f"not a morphism: {m!r}")


# ---------------------------------------------------------------------------
# atom renaming (transport along a global permutation of atom labels)
# ---------------------------------------------------------------------------

# The labels renamed are build_instance's elements, integer atoms only.

def rename_obj(sigma: dict, a: FinSetObj) -> FinSetObj:
    return fin_set(sigma[x] for x in a)


def rename_fn(sigma: dict, f: FinFn) -> FinFn:
    return fn(rename_obj(sigma, f.dom), rename_obj(sigma, f.cod),
              {sigma[x]: sigma[y] for x, y in f.table})


def rename_rel(sigma: dict, r: PropRel) -> PropRel:
    return rel(rename_obj(sigma, r.dom), rename_obj(sigma, r.cod),
               [(sigma[a], sigma[b]) for a, b in r.entries])


# ---------------------------------------------------------------------------
# bridge: package the finite model as a concrete two-level structure
# ---------------------------------------------------------------------------

def graph_rel(f: FinFn) -> PropRel:
    """The graph of a function."""
    return PropRel(f.dom, f.cod, f.table)


def atom_objects(bound: int) -> list[FinSetObj]:
    """All subsets of {0..bound-1}, the empty set included."""
    atoms = range(bound)
    out = []
    for mask in range(1 << bound):
        out.append(fin_set([a for a in atoms if mask >> a & 1]))
    return out


def build_instance(policy: IsoPolicy, carrier_bound: int):
    """Assemble the model into a validated two-level structure.

    Level 0 is every subset of the atoms with all functions; level 1
    takes the equality relations and all function graphs, with every
    boundary-compatible relation-preserving square as a morphism.
    Returns the structure together with the policy's selection.

    A level-1 morphism is its two legs, so level 1 is read off level 0:
    all_rel_mors enumerates each hom-set from its related legs, and a
    composite, built from the level-0 composites, is hash-consed: the
    listed morphism itself, or a stray that check_category flags.
    Composites come out in rank order, and the ranking reads each
    record's cached repr, so it shows each record once.
    """
    objs0 = atom_objects(carrier_bound)
    mors0 = [f for a in objs0 for b in objs0 for f in all_functions(a, b)]
    level0 = rgalg.category_from_morphisms(
        objs0, {f: (f.dom, f.cod) for f in mors0},
        {a: fn_id(a) for a in objs0},
        lambda g, f: fn_compose(g, f))

    rels = {eq_rel(a) for a in objs0} | {graph_rel(f) for f in mors0}
    mors1 = [m for r in rels for s in rels for m in all_rel_mors(r, s)]
    comp0 = level0.comp

    def compose1(g: PropRelMor, f: PropRelMor) -> PropRelMor:
        return PropRelMor(f.src, g.tgt, comp0[(g.f, f.f)], comp0[(g.g, f.g)])

    level1 = rgalg.category_from_morphisms(
        rels, {m: (m.src, m.tgt) for m in mors1},
        {r: rel_mor_id(r) for r in rels}, compose1)

    face_top = rgalg.make_cat_functor({r: r.dom for r in rels},
                                      {m: m.f for m in mors1})
    face_bot = rgalg.make_cat_functor({r: r.cod for r in rels},
                                      {m: m.g for m in mors1})
    degen = rgalg.make_cat_functor({a: eq_rel(a) for a in objs0},
                                   {f: eq_mor(f) for f in mors0})
    rg = rgalg.RgCategory(level0, level1, face_top, face_bot, degen)

    sub = rgalg.IsoSubcategory(
        frozenset(f for f in mors0 if relevant_iso_check(policy, f)),
        frozenset(m for m in mors1 if relevant_iso_check(policy, m)))
    return rg, sub


# ---------------------------------------------------------------------------
# stock tables for the law harness
# ---------------------------------------------------------------------------

def _atom_permutations(bound: int) -> list[dict]:
    out = []
    for perm in itertools.permutations(range(bound)):
        out.append({i: p for i, p in enumerate(perm)})
    return out


def conjugation_functor(rg, sigma: dict):
    """Transport everything along a global renaming of the atoms."""
    def mor1(t):
        m = t[0]
        return (PropRelMor(rename_rel(sigma, m.src), rename_rel(sigma, m.tgt),
                           rename_fn(sigma, m.f), rename_fn(sigma, m.g)),)

    return rgalg.RgFunctorTab(
        rg, 1, 1,
        obj0=lambda t: (rename_obj(sigma, t[0]),),
        mor0=lambda t: (rename_fn(sigma, t[0]),),
        obj1=lambda t: (rename_rel(sigma, t[0]),),
        mor1=mor1,
        eps=lambda t: (rel_mor_id(eq_rel(rename_obj(sigma, t[0]))),),
        name=f"conj{tuple(sigma[i] for i in sorted(sigma))}")


def constant_functor(rg, target: PropRel, eps_mor: PropRelMor):
    """Everything maps to one endo-relation; eps_mor mediates from the
    equality relation on its carrier (must have identity faces)."""
    c = target.dom
    return rgalg.RgFunctorTab(
        rg, 1, 1,
        obj0=lambda t: (c,), mor0=lambda t: (fn_id(c),),
        obj1=lambda t: (target,), mor1=lambda t: (rel_mor_id(target),),
        eps=lambda t: (eps_mor,),
        name=f"const({len(c)})")


def const_eq(rg, c: FinSetObj):
    return constant_functor(rg, eq_rel(c), rel_mor_id(eq_rel(c)))


def const_diag(rg, c: FinSetObj):
    # graph(id) is the equality relation itself, so the mediating
    # morphism is its identity
    target = graph_rel(fn_id(c))
    return constant_functor(rg, target,
                            PropRelMor(eq_rel(c), target, fn_id(c), fn_id(c)))


def conj_shift_nat(rg, f_src, f_tgt, sig: dict, tau: dict):
    """Component at A is the renaming tau . sig^-1 : sig[A] -> tau[A]."""
    inv = {v: k for k, v in sig.items()}
    comp = {k: tau[v] for k, v in inv.items()}

    def eta0(t):
        a = t[0]
        return (fn(rename_obj(sig, a), rename_obj(tau, a), comp),)

    def eta1(t):
        r = t[0]
        u = fn(rename_obj(sig, r.dom), rename_obj(tau, r.dom), comp)
        v = fn(rename_obj(sig, r.cod), rename_obj(tau, r.cod), comp)
        return (PropRelMor(rename_rel(sig, r), rename_rel(tau, r), u, v),)

    return rgalg.RgNatTab(f_src, f_tgt, eta0=eta0, eta1=eta1,
                          name="shift")


def collapse_nat(rg, f_src, f_tgt, sig: dict, target: PropRel, e):
    """From a conjugation down to a constant functor, via the constant
    map at a chosen element of the target carrier."""
    c = target.dom

    def eta0(t):
        return (fn(rename_obj(sig, t[0]), c, lambda _: e),)

    def eta1(t):
        r = t[0]
        return (PropRelMor(rename_rel(sig, r), target,
                           fn(rename_obj(sig, r.dom), c, lambda _: e),
                           fn(rename_obj(sig, r.cod), c, lambda _: e)),)

    return rgalg.RgNatTab(f_src, f_tgt, eta0=eta0, eta1=eta1, name="collapse")


def const_map_nat(rg, f_src, f_tgt, src_rel: PropRel, tgt_rel: PropRel, h: FinFn):
    m = PropRelMor(src_rel, tgt_rel, h, h)
    return rgalg.RgNatTab(f_src, f_tgt,
                          eta0=lambda t: (h,), eta1=lambda t: (m,),
                          name="constmap")


def stock_functors(rg, policy: IsoPolicy, bound: int):
    """Draw one arity-1 endofunctor.  policy is unread: every policy
    draws from the same stock, and callers pass it positionally."""
    perms = _atom_permutations(bound)
    carriers = [a for a in atom_objects(bound) if len(a)]

    def draw(rng):
        kind = rng.choice(["id", "conj", "const_eq", "const_diag", "compose"])
        if kind == "id":
            return rgalg.id_functor(rg, 1)
        if kind == "conj":
            return conjugation_functor(rg, rng.choice(perms))
        if kind == "const_eq":
            return const_eq(rg, rng.choice(carriers))
        if kind == "const_diag":
            return const_diag(rg, rng.choice(carriers))
        return rgalg.compose_functor(draw(rng), draw(rng))

    return draw


def stock_nat_chains(rg, policy: IsoPolicy, bound: int):
    """Draw a vertically composable chain: a run of conjugations, an
    optional collapse, then a run of constants."""
    perms = _atom_permutations(bound)
    carriers = [a for a in atom_objects(bound) if len(a)]

    def draw(rng, length: int):
        # length nats span length+1 functors; the first `pivot` of those
        # are conjugations, the rest constants
        n_funs = length + 1
        pivot = rng.randint(0, n_funs)
        sigs = [rng.choice(perms) for _ in range(pivot)]
        consts = []
        for _ in range(n_funs - pivot):
            c = rng.choice(carriers)
            consts.append(rng.choice([eq_rel(c), graph_rel(fn_id(c))]))
        funs = [conjugation_functor(rg, s) for s in sigs]
        funs += [constant_functor(
            rg, t, PropRelMor(eq_rel(t.dom), t, fn_id(t.dom), fn_id(t.dom)))
            for t in consts]
        chain = []
        for i in range(length):
            src, tgt = funs[i], funs[i + 1]
            if i + 1 < pivot:
                chain.append(conj_shift_nat(rg, src, tgt, sigs[i], sigs[i + 1]))
            elif i < pivot:
                target = consts[0]
                e = rng.choice(sorted(target.dom, key=label_key))
                chain.append(collapse_nat(rg, src, tgt, sigs[i], target, e))
            else:
                j = i - pivot
                s, t = consts[j], consts[j + 1]
                h = rng.choice(list(all_functions(s.dom, t.dom)))
                chain.append(const_map_nat(rg, src, tgt, s, t, h))
        return chain

    return draw
