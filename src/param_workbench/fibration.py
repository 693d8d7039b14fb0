"""Type constructors as data, and the indexed structure built over them.

A TypeFunctor is a closed syntax tree with n parameter slots.  Evaluated
at level 0 it produces a finite set, at level 1 a propositional
relation; these are the only two levels.  Natural numbers form the base
category: a morphism n -> m is an m-tuple of arity-n trees, composition
is substitution, and the fiber over n is the CCC of arity-n trees.  All
of that substitution machinery is structural, which is what makes the
reindexing functors split on the nose.

Quantifiers are the one non-structural ingredient.  There is no honest
way to range over "all" sets here, so a quantified tree is read against
a fixed finite ProbeUniverse: a family element must pick a value at
every probe object, carry every probe relation, and (under the crey
policy) commute with the universe's relevant bijections.  Every claim
this module checks about quantified types is relative to that universe,
so every evaluation takes one, and a universe grows only through
ProbeUniverse.extended.

Trees also act on isomorphisms, but only at level 0 (transport moves
one element along them): the crey membership clause and naturality
transport along level-0 bijections only.  A transformation is given by
its level-0 components: relations are proof-irrelevant, so a level-1
component is the relation morphism whose legs are the level-0
components at its environment's faces, and all that is checked at
level 1 is that it exists.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Optional, Sequence

from . import rgalg
from .finmodel import (
    FinFn,
    FinSetObj,
    IsoPolicy,
    PropRel,
    PropRelMor,
    all_functions,
    bang0,
    eq_mor,
    eq_rel,
    eval0,
    expo0,
    expo1,
    fin_set,
    fn,
    fn_compose,
    fn_id,
    fst0,
    graph_rel,
    hash_cons,
    label_key,
    lambda0,
    pair0,
    product0,
    product1,
    rel,
    rel_mor_compose,
    snd0,
    terminal0,
    terminal1,
    try_rel_mor,
)

Report = rgalg.Report


class ClosureError(ValueError):
    """An evaluation stepped outside the probe universe."""


class ComponentError(ValueError):
    """A level-1 component does not exist: its legs break relatedness."""


# ---------------------------------------------------------------------------
# the type-constructor trees
# ---------------------------------------------------------------------------

class TypeFunctor:
    """Base class; every node knows its arity and is immutable."""

    arity: int


@hash_cons
class FProj(TypeFunctor):
    arity: int
    index: int

    def __post_init__(self):
        if not 0 <= self.index < self.arity:
            raise ValueError("projection index out of range")


@hash_cons
class FUnit(TypeFunctor):
    arity: int


@hash_cons
class FProd(TypeFunctor):
    left: TypeFunctor
    right: TypeFunctor

    def __post_init__(self):
        if self.left.arity != self.right.arity:
            raise ValueError("pair components disagree on arity")

    @property
    def arity(self) -> int:
        return self.left.arity


@hash_cons
class FArrow(TypeFunctor):
    dom: TypeFunctor
    cod: TypeFunctor

    def __post_init__(self):
        if self.dom.arity != self.cod.arity:
            raise ValueError("arrow sides disagree on arity")

    @property
    def arity(self) -> int:
        return self.dom.arity


@hash_cons
class FForall(TypeFunctor):
    body: TypeFunctor  # one extra slot, bound here

    def __post_init__(self):
        if self.body.arity < 1:
            raise ValueError("quantifier body must have a slot to bind")

    @property
    def arity(self) -> int:
        return self.body.arity - 1


def substitute(g: TypeFunctor, args: Sequence[TypeFunctor],
               out_arity: Optional[int] = None) -> TypeFunctor:
    """Plug args into g's slots."""
    args = tuple(args)
    if len(args) != g.arity:
        raise ValueError(f"expected {g.arity} arguments, got {len(args)}")
    if args:
        n = args[0].arity
    elif out_arity is None:
        raise ValueError("nullary substitution needs an explicit output arity")
    else:
        n = out_arity
    if isinstance(g, FProj):
        return args[g.index]
    if isinstance(g, FUnit):
        return FUnit(n)
    if isinstance(g, FProd):
        return FProd(substitute(g.left, args, n), substitute(g.right, args, n))
    if isinstance(g, FArrow):
        return FArrow(substitute(g.dom, args, n), substitute(g.cod, args, n))
    if isinstance(g, FForall):
        lifted = tuple(weaken(a) for a in args) + (FProj(n + 1, n),)
        return FForall(substitute(g.body, lifted, n + 1))
    raise TypeError(f"not a type functor: {g!r}")


def weaken(f: TypeFunctor) -> TypeFunctor:
    """Add one unused slot at the end."""
    n = f.arity
    return substitute(f, tuple(FProj(n + 1, i) for i in range(n)), n + 1)


# ---------------------------------------------------------------------------
# environments
# ---------------------------------------------------------------------------

@hash_cons
class EnvL:
    """A tuple of same-level semantic objects to feed a tree's slots.

    Level 0 entries are finite sets, level 1 entries are propositional
    relations.
    """
    level: int
    entries: tuple

    def __post_init__(self):
        wanted = {0: FinSetObj, 1: PropRel}
        if self.level not in wanted:
            raise ValueError("level must be 0 or 1")
        for e in self.entries:
            if not isinstance(e, wanted[self.level]):
                raise ValueError(f"level-{self.level} environment cannot hold {e!r}")


def eq_env(e: EnvL) -> EnvL:
    """The pointwise equality environment one level up."""
    if e.level != 0:
        raise ValueError("only level-0 environments lift to equalities")
    return EnvL(1, tuple(eq_rel(a) for a in e.entries))


def _face_env(e: EnvL, side: str) -> EnvL:
    if e.level != 1:
        raise ValueError("faces only apply to level-1 environments")
    pick = (lambda r: r.dom) if side == "dom" else (lambda r: r.cod)
    return EnvL(0, tuple(pick(r) for r in e.entries))


# ---------------------------------------------------------------------------
# probe universes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProbeUniverse:
    """The fixed finite range of every quantifier in this module.

    objs0/objs1 index the family records positionally, so their order is
    part of the universe's identity; two universes with permuted probes
    give distinct (if isomorphic) quantifier values.
    """
    policy: IsoPolicy
    objs0: tuple
    objs1: tuple
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        seen0 = set(self.objs0)
        for r in self.objs1:
            if r.dom not in seen0 or r.cod not in seen0:
                raise ValueError("every probe relation needs probe endpoints")
        for a in self.objs0:
            if eq_rel(a) not in self.objs1:
                raise ValueError(f"missing equality probe for {a.elements!r}")

    @cached_property
    def index0(self) -> dict:
        return {a: i for i, a in enumerate(self.objs0)}

    @cached_property
    def index1(self) -> dict:
        return {r: i for i, r in enumerate(self.objs1)}

    @cached_property
    def isos0(self) -> tuple:
        # lazy: under crey this enumerates every function between probes
        if self.policy is IsoPolicy.CREY:
            return tuple(f for a in self.objs0 for b in self.objs0
                         for f in all_functions(a, b) if f.is_bijection)
        return tuple(fn_id(a) for a in self.objs0)

    def memo_eval(self, key, build: Callable):
        """build(), cached under key; builders may recurse into other keys."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def extended(self, carriers=(), relations=()) -> ProbeUniverse:
        """This universe grown by the given probes, the one way a universe grows.

        Each new carrier, and each new endpoint of a relation, joins the
        objects with its equality; the relations follow.  Probes already
        present keep their places and are not added twice, and when every
        given probe is present the result is this universe itself.
        """
        relations = tuple(relations)
        ends = (side for r in relations for side in (r.dom, r.cod))
        fresh = [a for a in itertools.chain(carriers, ends) if a not in self.index0]
        if not fresh and all(r in self.index1 for r in relations):
            # nothing new: keep this universe, and with it its memo
            return self
        return make_universe(self.policy, self.objs0 + tuple(fresh),
                             self.objs1 + tuple(eq_rel(a) for a in fresh) + relations)


def make_universe(policy: IsoPolicy, objs0, objs1) -> ProbeUniverse:
    def uniq(xs):
        seen, out = set(), []
        for x in xs:
            if x not in seen:
                seen.add(x)
                out.append(x)
        return tuple(out)

    # Probes are positional (family labels index them), so duplicates,
    # including a relation built twice (graph(id) is equality), must collapse.
    return ProbeUniverse(policy, uniq(objs0), uniq(objs1))


def graph_universe(sizes: Sequence[int] = (1, 2),
                   policy: IsoPolicy = IsoPolicy.REY) -> ProbeUniverse:
    """Chain carriers {0..k-1} with equalities plus every function graph.

    Function graphs are the probes that make naturality bite: carrying
    graph(h) forces a family to commute with h.
    """
    objs0 = tuple(fin_set(range(k)) for k in sorted(set(sizes)))
    # the graph of an identity is the carrier's equality, so it collapses
    graphs = [graph_rel(f) for a in objs0 for b in objs0 for f in all_functions(a, b)]
    return make_universe(policy, (), ()).extended(objs0, graphs)


def default_universe(policy: IsoPolicy = IsoPolicy.REY) -> ProbeUniverse:
    """Two chain carriers, their equalities, and all six non-identity graphs."""
    return graph_universe((1, 2), policy)


def probe_envs(u: ProbeUniverse, arity: int, level: int):
    pool = u.objs0 if level == 0 else u.objs1
    for combo in itertools.product(pool, repeat=arity):
        yield EnvL(level, combo)


# -- JSON loading: a label is an int, a string or a list of labels ---------

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


def universe_to_data(u: ProbeUniverse) -> dict:
    return {
        "policy": u.policy.name.lower(),
        "objects": [obj_to_data(a) for a in u.objs0],
        "relations": [
            {"dom": obj_to_data(r.dom), "cod": obj_to_data(r.cod),
             "pairs": [[_label_data(a), _label_data(b)] for a, b in r.entries]}
            for r in u.objs1
        ],
    }


def relation_from_data(d: dict) -> PropRel:
    """A relation from its JSON shape {dom, cod, pairs}, each pair [a, b];
    any other shape raises ValueError."""
    try:
        pairs = []
        for p in d["pairs"]:
            if not isinstance(p, list) or len(p) != 2:
                raise ValueError(f"a related pair must be [a, b], not {p!r}")
            pairs.append((_label_back(p[0]), _label_back(p[1])))
        return rel(obj_from_data(d["dom"]), obj_from_data(d["cod"]), pairs)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed relation data: {exc}") from exc


def universe_from_data(d: dict) -> ProbeUniverse:
    try:
        policy = IsoPolicy[d["policy"].upper()]
        objs0 = tuple(obj_from_data(o) for o in d["objects"])
        objs1 = tuple(relation_from_data(r) for r in d["relations"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed universe data: {exc}") from exc
    return make_universe(policy, objs0, objs1)


def load_universe(path: str) -> ProbeUniverse:
    with open(path, "r", encoding="utf-8") as fh:
        return universe_from_data(json.load(fh))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _check_arity(f: TypeFunctor, env: EnvL) -> None:
    if f.arity != len(env.entries):
        raise ValueError(f"arity {f.arity} tree fed {len(env.entries)} entries")


def evaluate(f: TypeFunctor, env: EnvL, u: ProbeUniverse):
    """Read the tree at the environment's level, relative to u.

    Both levels follow the finite-set CCC: level 0 over finite sets,
    level 1 over propositional relations; quantifier nodes range over
    u's probes.  Values are pure data, so they are cached on u.  Since
    an exponential's level-1 value can list very many pairs, quantifiers
    never ask for their body's: they ask related, pair by pair.
    """
    return u.memo_eval(("ev", f, env), lambda: _evaluate(f, env, u))


def _formers(env: EnvL) -> tuple:
    """The unit, product and exponential of the environment's level.

    Looked up per call, not tabled at import, so that patching a
    module name (as perfbench's tracer does) reaches these calls too.
    """
    if env.level == 0:
        return terminal0, product0, expo0
    return terminal1, product1, expo1


def _evaluate(f: TypeFunctor, env: EnvL, u: ProbeUniverse):
    _check_arity(f, env)
    if isinstance(f, FProj):
        return env.entries[f.index]
    if isinstance(f, FForall):
        if env.level == 0:
            return forall0_value(f.body, env.entries, u)
        return forall1_value(f.body, env.entries, u)
    unit, prod, expo = _formers(env)
    if isinstance(f, FUnit):
        return unit()
    if isinstance(f, FProd):
        return prod(evaluate(f.left, env, u), evaluate(f.right, env, u))
    if isinstance(f, FArrow):
        return expo(evaluate(f.dom, env, u), evaluate(f.cod, env, u))
    raise TypeError(f"not a type functor: {f!r}")


def transport(f: TypeFunctor, isos: tuple, x, u: ProbeUniverse):
    """Move one element of f's level-0 value at the isos' domains to the
    value at their codomains, along the tree's action.

    The move is structural and lists nothing: a slot applies its iso, a
    product moves its pair, an arrow conjugates its table (each argument
    moves with its image) and a quantifier moves each family component,
    its own slot held fixed.  isos are level-0 bijections, one per slot.
    """
    if all(m.is_identity for m in isos):
        return x
    if isinstance(f, FProj):
        return isos[f.index](x)
    if isinstance(f, FUnit):
        return x
    if isinstance(f, FProd):
        return ("pr", transport(f.left, isos, x[1], u),
                transport(f.right, isos, x[2], u))
    if isinstance(f, FArrow):
        moved = ((transport(f.dom, isos, a, u), transport(f.cod, isos, b, u))
                 for a, b in x[1])
        return ("fn", tuple(sorted(moved, key=lambda p: label_key(p[0]))))
    if isinstance(f, FForall):
        return ("fam", tuple(transport(f.body, isos + (fn_id(a),), c, u)
                             for a, c in zip(u.objs0, x[1])))
    raise TypeError(f"not a type functor: {f!r}")


# ---------------------------------------------------------------------------
# quantifier values
# ---------------------------------------------------------------------------
#
# A level-0 family record is the label
#     ("fam", (element per probe object...))
# ordered positionally by the universe.  Relations are proof-irrelevant,
# so the element part is the whole family: relatedness at each probe
# relation is a condition on it, not further data, decided by related.
#
# Families are found entry by entry, by one backtracking search.  For an
# arrow body a variable is a probe with one argument from the domain's
# value there, and it ranges over the codomain's value there, so a
# component is assembled from its entries and the body's function space
# is never listed.  Any other body is the case of one variable per probe,
# ranging over the body's value there.  Each probe relation r, with the
# equalities of the base before it, constrains each pair of arguments
# related at the domain's level-1 value: their two entries must be
# related at the codomain (for other bodies, the probes' two elements at
# the body).  A constraint is checked once the later of its variables is
# assigned, pruning every extension of a failing choice.  Variables are
# taken probe by probe and, within a probe, in the domain's order, each
# trying its values in canonical order, so families come out in canonical
# order.  Under the crey policy each complete family must moreover
# commute with the universe's bijections, moved one component at a time
# by transport.

def _level1(f: TypeFunctor, rbar: tuple, u: ProbeUniverse) -> PropRel:
    """f's level-1 value at rbar; a slot's relation is read directly,
    without interning an environment and a memo key for it."""
    if isinstance(f, FProj):
        return rbar[f.index]
    return evaluate(f, EnvL(1, rbar), u)


def related(f: TypeFunctor, rbar: tuple, x, y, u: ProbeUniverse) -> bool:
    """evaluate(f, EnvL(1, rbar), u).holds(x, y), decided on the tree
    without listing an exponential's pairs: an arrow relates two
    functions when they carry every pair of its domain's small level-1
    value to related results."""
    if isinstance(f, FProj):
        return rbar[f.index].holds(x, y)
    if isinstance(f, FUnit):
        return True
    if isinstance(f, FProd):
        return (related(f.left, rbar, x[1], y[1], u)
                and related(f.right, rbar, x[2], y[2], u))
    if isinstance(f, FArrow):
        fx, gy = dict(x[1]), dict(y[1])
        return all(related(f.cod, rbar, fx[a], gy[b], u)
                   for a, b in _level1(f.dom, rbar, u).entries)
    if isinstance(f, FForall):
        return evaluate(f, EnvL(1, rbar), u).holds(x, y)
    raise TypeError(f"not a type functor: {f!r}")


def _probe_relations(u: ProbeUniverse) -> list:
    """Each probe relation with the positions of its two endpoints."""
    return [(r, u.index0[r.dom], u.index0[r.cod]) for r in u.objs1]


def _assignments(vals: list, checks: list):
    """Each choice of one position per variable, in lexicographic order,
    that passes its checks.  vals[v] lists variable v's values; a check
    (v, w, held) in checks[k] asks held(position of v, position of w)
    once variable k, the later of v and w, is chosen."""
    n = len(vals)
    ys = [0] * n

    def go(v):
        if v == n:
            yield tuple(ys)
            return
        for p in range(len(vals[v])):
            ys[v] = p
            if all(held(ys[a], ys[b]) for a, b, held in checks[v]):
                yield from go(v + 1)

    return go(0)


def _held_at(f: TypeFunctor, rbar: tuple, xs: tuple, ys: tuple,
             u: ProbeUniverse) -> Callable:
    """related at rbar between positions of xs and ys, each pair decided
    once."""
    return cache(lambda p, q: related(f, rbar, xs[p], ys[q], u))


def _respects_isos(body: TypeFunctor, base: tuple, u: ProbeUniverse,
                   f0: tuple) -> bool:
    """Whether an element choice commutes with the universe's relevant
    bijections; only crey has any besides identities."""
    ids = tuple(fn_id(a) for a in base)
    return all(transport(body, ids + (i,), f0[u.index0[i.dom]], u)
               == f0[u.index0[i.cod]] for i in u.isos0 if not i.is_identity)


def forall0_value(body: TypeFunctor, base: tuple, u: ProbeUniverse) -> FinSetObj:
    key = ("fa0", body, base)

    def build():
        eqs = tuple(eq_rel(a) for a in base)
        envs = [EnvL(0, base + (a,)) for a in u.objs0]
        arrow = isinstance(body, FArrow)
        tree = body.cod if arrow else body
        args = [evaluate(body.dom, env, u).elements if arrow else (None,)
                for env in envs]
        outs = [evaluate(tree, env, u).elements for env in envs]
        # variables are numbered probe by probe, then argument by argument
        first = list(itertools.accumulate(map(len, args), initial=0))
        var = [dict(zip(xs, itertools.count(n))) for xs, n in zip(args, first)]
        vals = [out for out, xs in zip(outs, args) for _ in xs]
        checks = [[] for _ in vals]
        for r, i, j in _probe_relations(u):
            rb = eqs + (r,)
            held = _held_at(tree, rb, outs[i], outs[j], u)
            pairs = _level1(body.dom, rb, u).entries if arrow else ((None, None),)
            for a, b in pairs:
                v, w = var[i][a], var[j][b]
                checks[max(v, w)].append((v, w, held))
        fams = []
        for ps in _assignments(vals, checks):
            ys = [out[p] for out, p in zip(vals, ps)]
            f0 = (tuple(("fn", tuple(zip(xs, ys[n:]))) for xs, n in zip(args, first))
                  if arrow else tuple(ys))
            if _respects_isos(body, base, u, f0):
                fams.append(("fam", f0))
        return FinSetObj(tuple(fams))

    return u.memo_eval(key, build)


def forall1_value(body: TypeFunctor, rbar: tuple, u: ProbeUniverse) -> PropRel:
    key = ("fa1", body, rbar)

    def build():
        src = forall0_value(body, tuple(r.dom for r in rbar), u)
        tgt = forall0_value(body, tuple(r.cod for r in rbar), u)
        # both family sets are canonically ordered, so the pairs are too
        pairs = [(famf, famg) for famf in src for famg in tgt]
        for r, i, j in _probe_relations(u):
            rb = rbar + (r,)
            # families share components: decide each pair of them once
            held = cache(lambda x, y: related(body, rb, x, y, u))
            pairs = [(famf, famg) for famf, famg in pairs
                     if held(famf[1][i], famg[1][j])]
        return PropRel(src, tgt, tuple(pairs))

    return u.memo_eval(key, build)


# ---------------------------------------------------------------------------
# the comparison isomorphism at equality environments
# ---------------------------------------------------------------------------

def epsilon_of(f: TypeFunctor, env: tuple, u: ProbeUniverse) -> PropRelMor:
    """The comparison Eq(level-0 value) -> level-1 value at equalities.

    A relation morphism is determined by its legs, so the comparison is
    the morphism with identity legs from the equality on f's level-0
    value at env to its level-1 value at the equalities of env, both
    read in u.  It exists iff every equal pair is related there; when it
    does not, u is not closed under equalities of its own probes.  The
    identity extension lemma is that it is moreover an iso.
    """
    env = tuple(env)
    v0 = evaluate(f, EnvL(0, env), u)
    v1 = evaluate(f, EnvL(1, tuple(eq_rel(a) for a in env)), u)
    out = try_rel_mor(eq_rel(v0), v1, fn_id(v0), fn_id(v0))
    if out is None:
        raise ClosureError("universe is not closed under equalities of "
                           "its own probes")
    return out


# ---------------------------------------------------------------------------
# natural transformations as queryable components
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NatRep:
    """A transformation between two same-arity trees, read in a universe.

    component maps a level-0 environment to the function there; a
    level-1 component is forced, as the relation morphism whose legs
    are the components at the environment's faces, and at raises
    ComponentError where those legs do not preserve relatedness.
    Components are computed on demand, never tabulated, so a NatRep is
    usable at any environment including non-probe ones.  Each is
    computed once per environment and kept: a component is pure,
    because the universe it reads is fixed.
    """
    source: TypeFunctor
    target: TypeFunctor
    component: Callable[[EnvL], FinFn]
    universe: ProbeUniverse
    name: str = "nat"
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.source.arity != self.target.arity:
            raise ValueError("transformation endpoints disagree on arity")

    @property
    def arity(self) -> int:
        return self.source.arity

    def at(self, env: EnvL):
        # a component that raises is not kept, so asking again raises again
        memo = self._memo
        if env not in memo:
            memo[env] = self.component(env) if env.level == 0 else self._forced(env)
        return memo[env]

    def _forced(self, env: EnvL) -> PropRelMor:
        u = self.universe
        out = try_rel_mor(evaluate(self.source, env, u), evaluate(self.target, env, u),
                          self.at(_face_env(env, "dom")), self.at(_face_env(env, "cod")))
        if out is None:
            raise ComponentError(f"no level-1 component at {_env_tag(env)}: the "
                                 "faces' components do not preserve relatedness")
        return out


def nat_id(f: TypeFunctor, u: ProbeUniverse) -> NatRep:
    return NatRep(f, f, lambda env: fn_id(evaluate(f, env, u)), u, "id")


def nat_compose(n2: NatRep, n1: NatRep, name: Optional[str] = None) -> NatRep:
    if n1.target != n2.source:
        raise ValueError("non-composable transformations")
    return NatRep(n1.source, n2.target,
                  lambda env: fn_compose(n2.at(env), n1.at(env)), n1.universe,
                  name or f"{n2.name}.{n1.name}")


def nats_agree(n1: NatRep, n2: NatRep) -> Optional[str]:
    """Extensional comparison over all probe environments; None if equal.

    Level-1 components are forced by the level-0 ones at their faces,
    so once level 0 agrees they are one record or both missing: there a
    missing component is the difference reported, never an exception.
    """
    if (n1.source, n1.target) != (n2.source, n2.target):
        return "endpoint mismatch"
    for env in probe_envs(n1.universe, n1.arity, 0):
        if n1.at(env) != n2.at(env):
            return f"components differ at {env.entries!r}"
    for env in probe_envs(n1.universe, n1.arity, 1):
        why = _missing(n1, env) or _missing(n2, env)
        if why:
            return why
    return None


def validate_nat(nat: NatRep, report: Optional[Report] = None) -> Report:
    """Sample the three defining conditions over the nat's universe.

    Checks naturality against the policy's relevant isos, that the
    level-1 component forced by the level-0 ones exists at every probe
    relation environment, and the degeneracy square built from the
    endpoint comparison isos.  A missing component is a failing
    finding, never an exception.
    """
    report = report or Report()
    u, n = nat.universe, nat.arity

    for combo in itertools.product(u.isos0, repeat=n):
        src_env = EnvL(0, tuple(i.dom for i in combo))
        tgt_env = EnvL(0, tuple(i.cod for i in combo))
        at_src, at_tgt = nat.at(src_env), nat.at(tgt_env)
        # the square's two legs, moving only the elements they reach
        dom, cod = evaluate(nat.source, src_env, u), evaluate(nat.target, tgt_env, u)
        lhs = fn(dom, cod, lambda x: transport(nat.target, combo, at_src(x), u))
        rhs = fn(dom, cod, lambda x: at_tgt(transport(nat.source, combo, x, u)))
        report.check(f"{nat.name}: natural at {_env_tag(src_env)}",
                     None if lhs == rhs else f"{lhs.table} != {rhs.table}")

    for env in probe_envs(u, n, 1):
        report.check(f"{nat.name}: faces at {_env_tag(env)}", _missing(nat, env))

    for env in probe_envs(u, n, 0):
        eps_s = epsilon_of(nat.source, env.entries, u)
        eps_t = epsilon_of(nat.target, env.entries, u)
        why = _missing(nat, eq_env(env)) or (
            None if rel_mor_compose(nat.at(eq_env(env)), eps_s)
            == rel_mor_compose(eps_t, eq_mor(nat.at(env)))
            else "comparison square does not commute")
        report.check(f"{nat.name}: degeneracy at {_env_tag(env)}", why)
    return report


def _missing(nat: NatRep, env: EnvL) -> Optional[str]:
    """Why nat has no component at the level-1 env, or None if it has."""
    try:
        nat.at(env)
    except ComponentError as exc:
        return str(exc)
    return None


def _env_tag(env: EnvL) -> str:
    """Names each entry: a carrier by its elements, a relation by its
    pairs and then its endpoints, so distinct probes read differently."""
    def one(e):
        if isinstance(e, FinSetObj):
            return "{" + ",".join(map(str, e.elements)) + "}"
        pairs = ",".join(f"({a},{b})" for a, b in e.entries)
        return f"rel{{{pairs}}}@{one(e.dom)}->{one(e.cod)}"
    return "(" + ";".join(one(e) for e in env.entries) + ")"


# ---------------------------------------------------------------------------
# the base category of slot counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CtxMor:
    """A morphism n -> m of the base: one arity-n tree per target slot."""
    src: int
    tgt: int
    comps: tuple

    def __post_init__(self):
        if len(self.comps) != self.tgt:
            raise ValueError("component count must match the target")
        for c in self.comps:
            if c.arity != self.src:
                raise ValueError("component arity must match the source")


def ctx_id(n: int) -> CtxMor:
    return CtxMor(n, n, tuple(FProj(n, i) for i in range(n)))


def ctx_compose(g: CtxMor, f: CtxMor) -> CtxMor:
    if f.tgt != g.src:
        raise ValueError("non-composable context morphisms")
    return CtxMor(f.src, g.tgt,
                  tuple(substitute(c, f.comps, f.src) for c in g.comps))


def ctx_proj(n: int) -> CtxMor:
    """The weakening n+1 -> n dropping the freshest slot."""
    return CtxMor(n + 1, n, tuple(FProj(n + 1, i) for i in range(n)))


def ctx_pair(f: CtxMor, g: CtxMor) -> CtxMor:
    """Tuple into the product n+1, g supplying the fresh slot."""
    if f.src != g.src or g.tgt != 1:
        raise ValueError("pairing needs a common source and a single fresh slot")
    return CtxMor(f.src, f.tgt + 1, f.comps + g.comps)


def _env_along(f: CtxMor, env: EnvL, u: ProbeUniverse) -> EnvL:
    """The environment f's components evaluate to at env."""
    return EnvL(env.level, tuple(evaluate(c, env, u) for c in f.comps))


def reindex(f: CtxMor, x):
    """Pull a fiber object or transformation back along a base morphism;
    a transformation stays in its universe."""
    if isinstance(x, TypeFunctor):
        if x.arity != f.tgt:
            raise ValueError("fiber object lives over the wrong base")
        return substitute(x, f.comps, f.src)
    if not isinstance(x, NatRep):
        raise TypeError(f"cannot reindex {x!r}")
    u = x.universe
    return NatRep(substitute(x.source, f.comps, f.src),
                  substitute(x.target, f.comps, f.src),
                  lambda env: x.at(_env_along(f, env, u)), u, f"{x.name}*")


def theta(f: CtxMor) -> TypeFunctor:
    """Morphisms into the one-slot base name fiber objects."""
    if f.tgt != 1:
        raise ValueError("only morphisms into 1 name fiber objects")
    return f.comps[0]


def theta_inv(x: TypeFunctor) -> CtxMor:
    return CtxMor(x.arity, 1, (x,))


# ---------------------------------------------------------------------------
# fiberwise cartesian closed structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FiberCcc:
    """CCC structure on the fiber of arity-n trees.

    Object formers are the AST constructors; morphism combinators build
    NatReps whose level-0 components are the pointwise finite-set CCC
    maps, their level-1 components forced as always.
    """
    arity: int
    universe: ProbeUniverse

    def _pointwise(self, name: str, source: TypeFunctor, target: TypeFunctor,
                   parts: tuple, at0: Callable) -> NatRep:
        """The transformation whose component applies at0 to the values
        of parts."""
        u = self.universe
        return NatRep(source, target,
                      lambda env: at0(*(evaluate(p, env, u) for p in parts)), u, name)

    def terminal(self) -> TypeFunctor:
        return FUnit(self.arity)

    def bang(self, x: TypeFunctor) -> NatRep:
        return self._pointwise("!", x, self.terminal(), (x,), bang0)

    def p1(self, x: TypeFunctor, y: TypeFunctor) -> NatRep:
        return self._pointwise("p1", FProd(x, y), x, (x, y), fst0)

    def p2(self, x: TypeFunctor, y: TypeFunctor) -> NatRep:
        return self._pointwise("p2", FProd(x, y), y, (x, y), snd0)

    def pair(self, f: NatRep, g: NatRep) -> NatRep:
        if f.source != g.source:
            raise ValueError("pairing needs a common source")
        return NatRep(f.source, FProd(f.target, g.target),
                      lambda env: pair0(f.at(env), g.at(env)), self.universe,
                      f"<{f.name},{g.name}>")

    def ev(self, x: TypeFunctor, y: TypeFunctor) -> NatRep:
        return self._pointwise("ev", FProd(FArrow(x, y), x), y, (x, y), eval0)

    def lam(self, f: NatRep) -> NatRep:
        """Curry f : Z × X -> Y into Z -> (X ⇒ Y)."""
        if not isinstance(f.source, FProd):
            raise ValueError("currying needs a product source")
        z, x = f.source.left, f.source.right
        u = self.universe

        def comp(env: EnvL):
            return lambda0(f.at(env), evaluate(z, env, u), evaluate(x, env, u))

        return NatRep(z, FArrow(x, f.target), comp, u, f"cur({f.name})")

    def swap(self, x: TypeFunctor, y: TypeFunctor) -> NatRep:
        return self.pair(self.p2(x, y), self.p1(x, y))


# ---------------------------------------------------------------------------
# the probe-bounded quantifier adjunction
# ---------------------------------------------------------------------------

def counit(g: TypeFunctor, u: ProbeUniverse) -> NatRep:
    """Instantiate a quantified value at the environment's fresh entry.

    The fresh entry must itself be a probe; anything else is a closure
    violation, since families only store values at probes (interp
    refuses a non-probe relation before asking for any component).
    """
    n = g.arity - 1
    source = reindex(ctx_proj(n), FForall(g))

    def comp(env: EnvL):
        a = env.entries[-1]
        if a not in u.index0:
            raise ClosureError(f"object {a.elements!r} is not a probe")
        src = evaluate(source, env, u)
        tgt = evaluate(g, env, u)
        return fn(src, tgt, lambda fam: fam[1][u.index0[a]])

    return NatRep(source, g, comp, u, "inst")


def transpose(f: TypeFunctor, g: TypeFunctor, eta: NatRep,
              u: ProbeUniverse) -> NatRep:
    """Package a transformation over the extended base into families.

    eta must run from the weakening of f to g; the element part of the
    output records eta's value at every probe.
    """
    n = f.arity
    if eta.source != reindex(ctx_proj(n), f) or eta.target != g:
        raise ValueError("transformation endpoints do not match the binder")

    def comp(env: EnvL):
        tgt = forall0_value(g, env.entries, u)

        def move(x):
            lab = ("fam", tuple(eta.at(EnvL(0, env.entries + (a,)))(x)
                                for a in u.objs0))
            if lab not in tgt:
                raise ValueError("packaged family fails the membership clauses")
            return lab

        return fn(evaluate(f, env, u), tgt, move)

    return NatRep(f, FForall(g), comp, u, f"pack({eta.name})")


def adjunction_roundtrip(u: ProbeUniverse, body: TypeFunctor,
                         report: Report) -> Report:
    """The adjunction's second triangle identity at a one-slot body.

    Each family of the quantified body is read as the transformation
    from the weakened unit into body that picks its element at each
    probe; packaging that with transpose and instantiating it again
    with counit must give it back.
    """
    fams = forall0_value(body, (), u)
    inst = counit(body, u)
    broken = []
    for fam in fams:
        def comp(env: EnvL, f0=fam[1]):
            x = f0[u.index0[env.entries[-1]]]
            return fn(terminal0(), evaluate(body, env, u), lambda _: x)

        eta = NatRep(FUnit(1), body, comp, u, "elem")
        packed = transpose(FUnit(0), body, eta, u)
        back = nat_compose(inst, reindex(ctx_proj(0), packed))
        witness = nats_agree(back, eta)
        if witness is not None:
            broken.append(witness)
    report.check("adjunction: instantiated packaging is the identity",
                 f"{len(broken)} of {len(fams)} families do not round-trip: "
                 f"{broken[0]}" if broken else None)
    return report


# ---------------------------------------------------------------------------
# universe closure
# ---------------------------------------------------------------------------

# The budget for universe growth.  Rounds are deliberately few: a
# well-behaved argument stabilizes in two or three, while a quantified
# argument keeps minting fresh family carriers whose evaluation cost
# compounds round over round, so a long leash buys minutes of work only
# to fail anyway.
MAX_OBJECTS = 12
MAX_CARRIER = 48
MAX_RELATIONS = 48
MAX_ROUNDS = 4


@dataclass(frozen=True, eq=False)
class ClosureResult:
    universe: ProbeUniverse
    ok: bool
    rounds: int
    reason: Optional[str] = None


def universe_closure(ty_args: Sequence[TypeFunctor],
                     seed: ProbeUniverse) -> ClosureResult:
    """Grow the seed until every instantiation argument evaluates inside it.

    Each round evaluates every argument tree at every current probe
    environment, at both levels: level-0 values become carriers (with
    their equality probes) and level-1 values become probe relations.
    Both are needed, because instantiating a family looks up its entry
    at the argument's value, object or relation alike.  Quantified
    arguments may refuse to stabilize: their value grows with the
    universe, which is reported as a failure rather than chased.
    """
    u = seed
    for round_no in range(1, MAX_ROUNDS + 1):
        fresh: list = []
        seen = set(u.objs0)
        for t in ty_args:
            for combo in itertools.product(u.objs0, repeat=t.arity):
                val = evaluate(t, EnvL(0, combo), u)
                if len(val) > MAX_CARRIER:
                    return ClosureResult(u, False, round_no,
                                         f"carrier of size {len(val)} exceeds "
                                         f"{MAX_CARRIER}")
                if val not in seen:
                    if isinstance(t, FForall) and val.elements:
                        # A nonempty family set's labels index every probe,
                        # so each extension strictly lengthens them: growth
                        # cannot bring this value inside.
                        return ClosureResult(
                            u, False, round_no,
                            "quantified argument denotes a fresh family "
                            "carrier whose label grows with the universe; "
                            "no fixpoint exists")
                    seen.add(val)
                    fresh.append(val)
        fresh_rels: list = []
        seen1 = set(u.objs1) | {eq_rel(a) for a in fresh}
        for t in ty_args:
            for combo in itertools.product(u.objs1, repeat=t.arity):
                rv = evaluate(t, EnvL(1, combo), u)
                if rv not in seen1:
                    seen1.add(rv)
                    fresh_rels.append(rv)
        if not fresh and not fresh_rels:
            return ClosureResult(u, True, round_no)
        if len(seen) > MAX_OBJECTS:
            return ClosureResult(u, False, round_no,
                                 f"{len(seen)} objects exceed {MAX_OBJECTS}")
        if len(seen1) > MAX_RELATIONS:
            return ClosureResult(u, False, round_no,
                                 f"{len(seen1)} relations exceed {MAX_RELATIONS}")
        fresh.sort(key=lambda a: label_key(a.elements))
        fresh_rels.sort(key=lambda r: label_key((r.dom.elements, r.cod.elements,
                                                 r.entries)))
        u = u.extended(fresh, fresh_rels)
    return ClosureResult(u, False, MAX_ROUNDS,
                         "no fixpoint within the round budget")


# ---------------------------------------------------------------------------
# law suite
# ---------------------------------------------------------------------------

def stock_type_functors(arity: int) -> list:
    """A small deterministic pool of arity-n trees for sampling laws."""
    base: list = [FUnit(arity)] + [FProj(arity, i) for i in range(arity)]
    pool = list(base)
    for l, r in itertools.product(base, repeat=2):
        pool.append(FProd(l, r))
        pool.append(FArrow(l, r))
    if arity <= 1:
        inner = FProj(arity + 1, arity)
        pool.append(FForall(FArrow(inner, inner)))
    return pool


def _rng_ctx_mor(rng, src: int, tgt: int, pool_by_arity) -> CtxMor:
    return CtxMor(src, tgt,
                  tuple(rng.choice(pool_by_arity[src]) for _ in range(tgt)))


def fibration_suite(policy: IsoPolicy = IsoPolicy.REY, bound: int = 2,
                    seed: int = 0, rounds: int = 100) -> Report:
    """Substitution, splitness, coherence and adjunction checks in one run.

    bound caps the probe carrier sizes; rounds scales the random
    sampling of context morphisms.
    """
    import random

    report = Report()
    rng = random.Random(f"fibration:{seed}")
    u = graph_universe(tuple(range(1, bound + 1)), policy)
    pool = {n: stock_type_functors(n) for n in (0, 1, 2)}

    # substitution laws: projections, identity tuple, composition
    for i in range(rounds):
        n = rng.choice((1, 2))
        args = tuple(rng.choice(pool[n]) for _ in range(n))
        k = rng.randrange(n)
        report.add(f"subst {i}: projection picks its argument",
                   substitute(FProj(n, k), args) == args[k])
        g = rng.choice(pool[n])
        report.add(f"subst {i}: identity tuple is inert",
                   substitute(g, ctx_id(n).comps, n) == g)
        f = _rng_ctx_mor(rng, rng.choice((0, 1, 2)), n, pool)
        eager = substitute(g, f.comps, f.src)
        diff = next((f"values differ at {_env_tag(env)}"
                     for level in (0, 1) for env in probe_envs(u, f.src, level)
                     if evaluate(g, _env_along(f, env, u), u)
                     != evaluate(eager, env, u)), None)
        report.check(f"subst {i}: lazy and eager readings agree", diff)

    # splitness and the generic object
    for i in range(rounds):
        n, m, k = (rng.choice((0, 1, 2)) for _ in range(3))
        f = _rng_ctx_mor(rng, n, m, pool)
        g = _rng_ctx_mor(rng, m, k, pool)
        x = rng.choice(pool[k])
        report.add(f"split {i}: identity reindexing is inert",
                   reindex(ctx_id(k), x) == x)
        lhs = reindex(f, reindex(g, x))
        rhs = reindex(ctx_compose(g, f), x)
        report.check(f"split {i}: reindexing composes strictly",
                     None if lhs == rhs else f"{lhs!r} != {rhs!r}")
        named = theta(ctx_compose(theta_inv(x), g))
        report.add(f"split {i}: generic object naturality",
                   named == reindex(g, x))

    # comparison isos: identity legs, isomorphy, face images
    for t in pool[1]:
        for env in probe_envs(u, 1, 0):
            # the legs are identities by construction
            eps = epsilon_of(t, env.entries, u)
            report.check(f"coherence: comparison at {_env_tag(env)} of {t!r}",
                         None if eps.is_iso else "comparison is not an iso")

    # structural Beck-Chevalley identities for all four formers
    x1, y1 = FProj(1, 0), FArrow(FProj(1, 0), FUnit(1))
    fmor = _rng_ctx_mor(rng, 1, 1, pool)
    report.add("theta: unit former commutes with substitution",
               reindex(fmor, FUnit(1)) == FUnit(1))
    report.add("theta: pair former commutes with substitution",
               reindex(fmor, FProd(x1, y1))
               == FProd(reindex(fmor, x1), reindex(fmor, y1)))
    report.add("theta: arrow former commutes with substitution",
               reindex(fmor, FArrow(x1, y1))
               == FArrow(reindex(fmor, x1), reindex(fmor, y1)))
    body = FArrow(FProj(2, 1), FProj(2, 0))
    lifted = CtxMor(2, 2, tuple(weaken(c) for c in fmor.comps) + (FProj(2, 1),))
    report.add("theta: quantifier commutes with substitution",
               reindex(fmor, FForall(body)) == FForall(reindex(lifted, body)))

    # fiber beta laws over the one-slot fiber
    ccc = FiberCcc(1, u)
    a, b = FProj(1, 0), FUnit(1)
    fpair = ccc.pair(ccc.p2(a, b), ccc.p1(a, b))
    beta1 = nats_agree(nat_compose(ccc.p1(b, a), fpair), ccc.p2(a, b))
    report.check("fiber: first projection beta law", beta1)
    beta2 = nats_agree(nat_compose(ccc.p2(b, a), fpair), ccc.p1(a, b))
    report.check("fiber: second projection beta law", beta2)
    curried = ccc.lam(ccc.p2(b, a))
    lhs = nat_compose(ccc.ev(a, a), _nat_cross(ccc, curried, nat_id(a, u)))
    beta3 = nats_agree(lhs, ccc.p2(b, a))
    report.check("fiber: exponential beta law", beta3)

    # quantifier benchmarks over the default universe
    one_fam = forall0_value(FArrow(FProj(1, 0), FProj(1, 0)), (), u)
    report.check("quantifier: one endomorphism family",
                 None if len(one_fam) == 1 else f"{len(one_fam)} families")
    # over a carrier with two elements the selectors are the two
    # projections; over singletons and the empty set they coincide
    selectors = 2 if any(len(a) >= 2 for a in u.objs0) else 1
    sel_fam = forall0_value(
        FArrow(FProj(1, 0), FArrow(FProj(1, 0), FProj(1, 0))), (), u)
    report.check(f"quantifier: {selectors} selector families",
                 None if len(sel_fam) == selectors
                 else f"{len(sel_fam)} families")

    # the two adjunction triangles: instantiation and the transpose
    # are mutually inverse
    g = FArrow(FProj(1, 0), FProj(1, 0))
    inst = counit(g, u)
    packed = transpose(FForall(g), g, inst, u)
    tri = nats_agree(packed, nat_id(FForall(g), u))
    report.check("adjunction: repackaged instantiation is the identity", tri)
    return adjunction_roundtrip(u, g, report)


def _nat_cross(ccc: FiberCcc, f: NatRep, g: NatRep) -> NatRep:
    """f × g on a product source."""
    a, b = f.source, g.source
    return ccc.pair(nat_compose(f, ccc.p1(a, b)), nat_compose(g, ccc.p2(a, b)))
