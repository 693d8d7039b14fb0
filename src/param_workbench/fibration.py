"""System F types read as type functors, and the indexed structure built over them.

A type functor of arity n is a systemf type well scoped at depth n: its
slot k is TVar(n-1-k), so a walker reads TVar(i) as entry -1-i of its
environment, and the arity is the environment's length.  Evaluated at
level 0 a type produces a finite set, at level 1 a propositional
relation; these are the only two levels.  Natural numbers form the base
category: a morphism n -> m is an m-tuple of types at depth n,
composition is systemf.subst_types, and the fiber over n is the CCC of
those types.  All of that substitution machinery is structural, which is
what makes the reindexing functors split on the nose.

Quantifiers are the one non-structural ingredient.  There is no honest
way to range over "all" sets here, so a quantified type is read against
a fixed finite ProbeUniverse: a family element must pick a value at
every probe object, carry every probe relation, and (under the crey
policy) commute with the universe's relevant bijections.  Every claim
this module checks about quantified types is relative to that universe,
so every evaluation takes one, and a universe grows only through
ProbeUniverse.extended.

Types also act on isomorphisms, but only at level 0 (transport moves
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
from collections import namedtuple
from functools import cache, cached_property
from typing import Callable, Optional, Sequence

from . import rgalg
from . import systemf as sf
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
# environments
# ---------------------------------------------------------------------------

@hash_cons
class EnvL:
    """A tuple of same-level semantic objects to feed a type's slots.

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

class ProbeUniverse:
    """The fixed finite range of every quantifier in this module.

    objs0/objs1 index the family records positionally, so their order is
    part of the universe's identity; two universes with permuted probes
    give distinct (if isomorphic) quantifier values.
    """

    def __init__(self, policy: IsoPolicy, objs0: tuple, objs1: tuple):
        seen0 = set(objs0)
        for r in objs1:
            if r.dom not in seen0 or r.cod not in seen0:
                raise ValueError("every probe relation needs probe endpoints")
        for a in objs0:
            if eq_rel(a) not in objs1:
                raise ValueError(f"missing equality probe for {a.elements!r}")
        self.policy, self.objs0, self.objs1 = policy, objs0, objs1
        self._cache = {}

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

def _require_scoped(f: sf.Type, arity: int) -> None:
    """Reject a type that is not a type functor of the given arity; read
    unchecked, TVar(-1) would silently stand for slot 0."""
    if not sf.type_well_scoped(f, arity):
        raise ValueError(f"{f!r} is not well scoped at arity {arity}")


def evaluate(f: sf.Type, env: EnvL, u: ProbeUniverse):
    """Read the type at the environment's level, relative to u.

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


def _evaluate(f: sf.Type, env: EnvL, u: ProbeUniverse):
    # every variable read is checked where it is read, so each node is
    # walked once, however deep the type
    if isinstance(f, sf.TVar):
        _require_scoped(f, len(env.entries))
        return env.entries[-1 - f.index]
    if isinstance(f, sf.ForallT):
        if env.level == 0:
            return forall0_value(f.body, env.entries, u)
        return forall1_value(f.body, env.entries, u)
    unit, prod, expo = _formers(env)
    if isinstance(f, sf.UnitT):
        return unit()
    if isinstance(f, sf.ProdT):
        return prod(evaluate(f.left, env, u), evaluate(f.right, env, u))
    if isinstance(f, sf.ArrowT):
        return expo(evaluate(f.dom, env, u), evaluate(f.cod, env, u))
    raise TypeError(f"not a type: {f!r}")


def transport(f: sf.Type, isos: tuple, x, u: ProbeUniverse):
    """Move one element of f's level-0 value at the isos' domains to the
    value at their codomains, along the type's action.

    The move is structural and lists nothing: a slot applies its iso, a
    product moves its pair, an arrow conjugates its table (each argument
    moves with its image) and a quantifier moves each family component,
    its own slot held fixed.  isos are level-0 bijections, one per slot.
    """
    if all(m.is_identity for m in isos):
        return x
    if isinstance(f, sf.TVar):
        return isos[-1 - f.index](x)
    if isinstance(f, sf.UnitT):
        return x
    if isinstance(f, sf.ProdT):
        return ("pr", transport(f.left, isos, x[1], u),
                transport(f.right, isos, x[2], u))
    if isinstance(f, sf.ArrowT):
        moved = ((transport(f.dom, isos, a, u), transport(f.cod, isos, b, u))
                 for a, b in x[1])
        return ("fn", tuple(sorted(moved, key=lambda p: label_key(p[0]))))
    if isinstance(f, sf.ForallT):
        return ("fam", tuple(transport(f.body, isos + (fn_id(a),), c, u)
                             for a, c in zip(u.objs0, x[1])))
    raise TypeError(f"not a type: {f!r}")


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

def _level1(f: sf.Type, rbar: tuple, u: ProbeUniverse) -> PropRel:
    """f's level-1 value at rbar; a slot's relation is read directly,
    without interning an environment and a memo key for it."""
    if isinstance(f, sf.TVar):
        return rbar[-1 - f.index]
    return evaluate(f, EnvL(1, rbar), u)


def related(f: sf.Type, rbar: tuple, x, y, u: ProbeUniverse) -> bool:
    """evaluate(f, EnvL(1, rbar), u).holds(x, y), decided on the type
    without listing an exponential's pairs: an arrow relates two
    functions when they carry every pair of its domain's small level-1
    value to related results."""
    if isinstance(f, sf.TVar):
        return rbar[-1 - f.index].holds(x, y)
    if isinstance(f, sf.UnitT):
        return True
    if isinstance(f, sf.ProdT):
        return (related(f.left, rbar, x[1], y[1], u)
                and related(f.right, rbar, x[2], y[2], u))
    if isinstance(f, sf.ArrowT):
        fx, gy = dict(x[1]), dict(y[1])
        return all(related(f.cod, rbar, fx[a], gy[b], u)
                   for a, b in _level1(f.dom, rbar, u).entries)
    if isinstance(f, sf.ForallT):
        return evaluate(f, EnvL(1, rbar), u).holds(x, y)
    raise TypeError(f"not a type: {f!r}")


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


def _held_at(f: sf.Type, rbar: tuple, xs: tuple, ys: tuple,
             u: ProbeUniverse) -> Callable:
    """related at rbar between positions of xs and ys, each pair decided
    once."""
    return cache(lambda p, q: related(f, rbar, xs[p], ys[q], u))


def _respects_isos(body: sf.Type, base: tuple, u: ProbeUniverse,
                   f0: tuple) -> bool:
    """Whether an element choice commutes with the universe's relevant
    bijections; only crey has any besides identities."""
    ids = tuple(fn_id(a) for a in base)
    return all(transport(body, ids + (i,), f0[u.index0[i.dom]], u)
               == f0[u.index0[i.cod]] for i in u.isos0 if not i.is_identity)


def forall0_value(body: sf.Type, base: tuple, u: ProbeUniverse) -> FinSetObj:
    key = ("fa0", body, base)

    def build():
        eqs = tuple(eq_rel(a) for a in base)
        envs = [EnvL(0, base + (a,)) for a in u.objs0]
        arrow = isinstance(body, sf.ArrowT)
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


def forall1_value(body: sf.Type, rbar: tuple, u: ProbeUniverse) -> PropRel:
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

def epsilon_of(f: sf.Type, env: tuple, u: ProbeUniverse) -> PropRelMor:
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

class NatRep:
    """A transformation between two arity-n types, read in a universe.

    component maps a level-0 environment to the function there; a
    level-1 component is forced, as the relation morphism whose legs
    are the components at the environment's faces, and at raises
    ComponentError where those legs do not preserve relatedness.
    Components are computed on demand, never tabulated, so a NatRep is
    usable at any environment including non-probe ones.  Each is
    computed once per environment and kept: a component is pure,
    because the universe it reads is fixed.
    """

    def __init__(self, arity: int, source: sf.Type, target: sf.Type,
                 component: Callable[[EnvL], FinFn], universe: ProbeUniverse,
                 name: str = "nat"):
        _require_scoped(source, arity)
        _require_scoped(target, arity)
        self.arity, self.source, self.target = arity, source, target
        self.component, self.universe, self.name = component, universe, name
        self._memo = {}

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


def nat_id(n: int, f: sf.Type, u: ProbeUniverse) -> NatRep:
    return NatRep(n, f, f, lambda env: fn_id(evaluate(f, env, u)), u, "id")


def nat_compose(n2: NatRep, n1: NatRep, name: Optional[str] = None) -> NatRep:
    if (n1.arity, n1.target) != (n2.arity, n2.source):
        raise ValueError("non-composable transformations")
    return NatRep(n1.arity, n1.source, n2.target,
                  lambda env: fn_compose(n2.at(env), n1.at(env)), n1.universe,
                  name or f"{n2.name}.{n1.name}")


def nats_agree(n1: NatRep, n2: NatRep) -> Optional[str]:
    """Extensional comparison over all probe environments; None if equal.

    Level-1 components are forced by the level-0 ones at their faces,
    so once level 0 agrees they are one record or both missing: there a
    missing component is the difference reported, never an exception.
    """
    if (n1.arity, n1.source, n1.target) != (n2.arity, n2.source, n2.target):
        return "endpoint mismatch"
    for env in probe_envs(n1.universe, n1.arity, 0):
        if n1.at(env) != n2.at(env):
            return f"components differ at {_env_tag(env)}"
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


def _carrier_tag(elements) -> str:
    return "{" + ",".join(map(str, elements)) + "}"


def _pairs_tag(r: PropRel) -> str:
    return "{" + ",".join(f"({a},{b})" for a, b in r.entries) + "}"


def _env_tag(env: EnvL) -> str:
    """Names each entry: a carrier by its elements, a relation by its
    pairs and then its endpoints, so distinct probes read differently."""
    def one(e):
        if isinstance(e, FinSetObj):
            return _carrier_tag(e)
        return f"rel{_pairs_tag(e)}@{one(e.dom)}->{one(e.cod)}"
    return "(" + ";".join(one(e) for e in env.entries) + ")"


# ---------------------------------------------------------------------------
# the base category of slot counts
# ---------------------------------------------------------------------------

class CtxMor(namedtuple("CtxMor", "src tgt comps")):
    """A morphism n -> m of the base: one arity-n type per target slot."""

    def __new__(cls, src: int, tgt: int, comps: tuple):
        if len(comps) != tgt:
            raise ValueError("component count must match the target")
        for c in comps:
            _require_scoped(c, src)
        return super().__new__(cls, src, tgt, comps)


def ctx_id(n: int) -> CtxMor:
    return CtxMor(n, n, tuple(sf.TVar(n - 1 - i) for i in range(n)))


def ctx_compose(g: CtxMor, f: CtxMor) -> CtxMor:
    if f.tgt != g.src:
        raise ValueError("non-composable context morphisms")
    return CtxMor(f.src, g.tgt, tuple(sf.subst_types(c, f.comps) for c in g.comps))


def ctx_proj(n: int) -> CtxMor:
    """The weakening n+1 -> n dropping the freshest slot."""
    return CtxMor(n + 1, n, tuple(sf.TVar(n - i) for i in range(n)))


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
    if not isinstance(x, NatRep):
        _require_scoped(x, f.tgt)
        return sf.subst_types(x, f.comps)
    if x.arity != f.tgt:
        raise ValueError("transformation lives over the wrong base")
    u = x.universe
    return NatRep(f.src, sf.subst_types(x.source, f.comps),
                  sf.subst_types(x.target, f.comps),
                  lambda env: x.at(_env_along(f, env, u)), u, f"{x.name}*")


def theta(f: CtxMor) -> sf.Type:
    """Morphisms into the one-slot base name fiber objects."""
    if f.tgt != 1:
        raise ValueError("only morphisms into 1 name fiber objects")
    return f.comps[0]


def theta_inv(n: int, x: sf.Type) -> CtxMor:
    return CtxMor(n, 1, (x,))


# ---------------------------------------------------------------------------
# fiberwise cartesian closed structure
# ---------------------------------------------------------------------------

# Object formers are the systemf type constructors; the morphism
# combinators build NatReps whose level-0 components are the pointwise
# finite-set CCC maps, their level-1 components forced as always.  A
# NatRep carries its arity and its universe, so only the maps built
# from types alone take both.

def _pointwise(name: str, n: int, source: sf.Type, target: sf.Type,
               parts: tuple, at0: Callable, u: ProbeUniverse) -> NatRep:
    """The transformation whose component applies at0 to the values of
    parts."""
    return NatRep(n, source, target,
                  lambda env: at0(*(evaluate(p, env, u) for p in parts)), u, name)


def bang(n: int, x: sf.Type, u: ProbeUniverse) -> NatRep:
    return _pointwise("!", n, x, sf.UnitT(), (x,), bang0, u)


def p1(n: int, x: sf.Type, y: sf.Type, u: ProbeUniverse) -> NatRep:
    return _pointwise("p1", n, sf.ProdT(x, y), x, (x, y), fst0, u)


def p2(n: int, x: sf.Type, y: sf.Type, u: ProbeUniverse) -> NatRep:
    return _pointwise("p2", n, sf.ProdT(x, y), y, (x, y), snd0, u)


def pair(f: NatRep, g: NatRep) -> NatRep:
    if (f.arity, f.source) != (g.arity, g.source):
        raise ValueError("pairing needs a common source")
    return NatRep(f.arity, f.source, sf.ProdT(f.target, g.target),
                  lambda env: pair0(f.at(env), g.at(env)), f.universe,
                  f"<{f.name},{g.name}>")


def ev(n: int, x: sf.Type, y: sf.Type, u: ProbeUniverse) -> NatRep:
    return _pointwise("ev", n, sf.ProdT(sf.ArrowT(x, y), x), y, (x, y), eval0, u)


def lam(f: NatRep) -> NatRep:
    """Curry f : Z × X -> Y into Z -> (X ⇒ Y)."""
    if not isinstance(f.source, sf.ProdT):
        raise ValueError("currying needs a product source")
    z, x = f.source.left, f.source.right
    u = f.universe

    def comp(env: EnvL):
        return lambda0(f.at(env), evaluate(z, env, u), evaluate(x, env, u))

    return NatRep(f.arity, z, sf.ArrowT(x, f.target), comp, u, f"cur({f.name})")


def swap(n: int, x: sf.Type, y: sf.Type, u: ProbeUniverse) -> NatRep:
    return pair(p2(n, x, y, u), p1(n, x, y, u))


# ---------------------------------------------------------------------------
# the probe-bounded quantifier adjunction
# ---------------------------------------------------------------------------

def counit(n: int, g: sf.Type, u: ProbeUniverse) -> NatRep:
    """Instantiate a quantified value at the environment's fresh entry,
    from the weakening of the quantified arity-(n-1) type ForallT(g) to g.

    The fresh entry must itself be a probe; anything else is a closure
    violation, since families only store values at probes (interp
    refuses a non-probe relation before asking for any component).
    """
    source = reindex(ctx_proj(n - 1), sf.ForallT(g))

    def comp(env: EnvL):
        a = env.entries[-1]
        if a not in u.index0:
            raise ClosureError(f"object {a.elements!r} is not a probe")
        src = evaluate(source, env, u)
        tgt = evaluate(g, env, u)
        return fn(src, tgt, lambda fam: fam[1][u.index0[a]])

    return NatRep(n, source, g, comp, u, "inst")


def transpose(f: sf.Type, g: sf.Type, eta: NatRep,
              u: ProbeUniverse) -> NatRep:
    """Package a transformation over the extended base into families.

    eta must run from the weakening of f to g; the element part of the
    output records eta's value at every probe.
    """
    n = eta.arity - 1
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

    return NatRep(n, f, sf.ForallT(g), comp, u, f"pack({eta.name})")


def adjunction_roundtrip(u: ProbeUniverse, body: sf.Type,
                         report: Report) -> Report:
    """The adjunction's second triangle identity at a one-slot body.

    Each family of the quantified body is read as the transformation
    from the weakened unit into body that picks its element at each
    probe; packaging that with transpose and instantiating it again
    with counit must give it back.
    """
    fams = forall0_value(body, (), u)
    inst = counit(1, body, u)
    broken = []
    for fam in fams:
        def comp(env: EnvL, f0=fam[1]):
            x = f0[u.index0[env.entries[-1]]]
            return fn(terminal0(), evaluate(body, env, u), lambda _: x)

        eta = NatRep(1, sf.UnitT(), body, comp, u, "elem")
        packed = transpose(sf.UnitT(), body, eta, u)
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


class ClosureResult:
    def __init__(self, universe: ProbeUniverse, ok: bool, rounds: int,
                 reason: Optional[str] = None):
        self.universe, self.ok = universe, ok
        self.rounds, self.reason = rounds, reason


def universe_closure(ty_args: Sequence[tuple[int, sf.Type]],
                     seed: ProbeUniverse) -> ClosureResult:
    """Grow the seed until every instantiation argument evaluates inside it.

    ty_args pairs each argument type with its depth, its arity as a type
    functor.  Each round evaluates every argument at every current probe
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
        for d, t in ty_args:
            for combo in itertools.product(u.objs0, repeat=d):
                val = evaluate(t, EnvL(0, combo), u)
                if len(val) > MAX_CARRIER:
                    return ClosureResult(u, False, round_no,
                                         f"carrier of size {len(val)} exceeds "
                                         f"{MAX_CARRIER}")
                if val not in seen:
                    if isinstance(t, sf.ForallT) and val.elements:
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
        for d, t in ty_args:
            for combo in itertools.product(u.objs1, repeat=d):
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
    """A small deterministic pool of arity-n types for sampling laws:
    unit and the slots in slot order, each pair of those as a product
    and as an arrow, and below arity 2 the polymorphic identity."""
    base: list = [sf.UnitT()] + list(ctx_id(arity).comps)
    pool = list(base)
    for l, r in itertools.product(base, repeat=2):
        pool.append(sf.ProdT(l, r))
        pool.append(sf.ArrowT(l, r))
    if arity <= 1:
        pool.append(sf.ForallT(sf.ArrowT(sf.TVar(0), sf.TVar(0))))
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
                   sf.subst_types(sf.TVar(n - 1 - k), args) == args[k])
        g = rng.choice(pool[n])
        report.add(f"subst {i}: identity tuple is inert",
                   sf.subst_types(g, ctx_id(n).comps) == g)
        f = _rng_ctx_mor(rng, rng.choice((0, 1, 2)), n, pool)
        eager = sf.subst_types(g, f.comps)
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
        named = theta(ctx_compose(theta_inv(k, x), g))
        report.add(f"split {i}: generic object naturality",
                   named == reindex(g, x))

    # comparison isos: identity legs, isomorphy, face images
    for t in pool[1]:
        name = sf.pretty_type(t, 1)
        for env in probe_envs(u, 1, 0):
            # the legs are identities by construction
            eps = epsilon_of(t, env.entries, u)
            report.check(f"coherence: comparison at {_env_tag(env)} of {name}",
                         None if eps.is_iso else "comparison is not an iso")

    # structural Beck-Chevalley identities for all four formers
    x1, y1 = sf.TVar(0), sf.ArrowT(sf.TVar(0), sf.UnitT())
    fmor = _rng_ctx_mor(rng, 1, 1, pool)
    report.add("theta: unit former commutes with substitution",
               reindex(fmor, sf.UnitT()) == sf.UnitT())
    report.add("theta: pair former commutes with substitution",
               reindex(fmor, sf.ProdT(x1, y1))
               == sf.ProdT(reindex(fmor, x1), reindex(fmor, y1)))
    report.add("theta: arrow former commutes with substitution",
               reindex(fmor, sf.ArrowT(x1, y1))
               == sf.ArrowT(reindex(fmor, x1), reindex(fmor, y1)))
    body = sf.ArrowT(sf.TVar(0), sf.TVar(1))
    lifted = CtxMor(2, 2, tuple(sf.shift_type(c, 1) for c in fmor.comps)
                    + (sf.TVar(0),))
    report.add("theta: quantifier commutes with substitution",
               reindex(fmor, sf.ForallT(body)) == sf.ForallT(reindex(lifted, body)))

    # fiber beta laws over the one-slot fiber
    a, b = sf.TVar(0), sf.UnitT()
    fpair = pair(p2(1, a, b, u), p1(1, a, b, u))
    beta1 = nats_agree(nat_compose(p1(1, b, a, u), fpair), p2(1, a, b, u))
    report.check("fiber: first projection beta law", beta1)
    beta2 = nats_agree(nat_compose(p2(1, b, a, u), fpair), p1(1, a, b, u))
    report.check("fiber: second projection beta law", beta2)
    curried = lam(p2(1, b, a, u))
    lhs = nat_compose(ev(1, a, a, u), _nat_cross(curried, nat_id(1, a, u)))
    beta3 = nats_agree(lhs, p2(1, b, a, u))
    report.check("fiber: exponential beta law", beta3)

    # quantifier benchmarks over the default universe
    one_fam = forall0_value(sf.ArrowT(a, a), (), u)
    report.check("quantifier: one endomorphism family",
                 None if len(one_fam) == 1 else f"{len(one_fam)} families")
    # over a carrier with two elements the selectors are the two
    # projections; over singletons and the empty set they coincide
    selectors = 2 if any(len(a) >= 2 for a in u.objs0) else 1
    sel_fam = forall0_value(sf.ArrowT(a, sf.ArrowT(a, a)), (), u)
    report.check(f"quantifier: {selectors} selector families",
                 None if len(sel_fam) == selectors
                 else f"{len(sel_fam)} families")

    # the two adjunction triangles: instantiation and the transpose
    # are mutually inverse
    g = sf.ArrowT(a, a)
    inst = counit(1, g, u)
    packed = transpose(sf.ForallT(g), g, inst, u)
    tri = nats_agree(packed, nat_id(0, sf.ForallT(g), u))
    report.check("adjunction: repackaged instantiation is the identity", tri)
    return adjunction_roundtrip(u, g, report)


def _nat_cross(f: NatRep, g: NatRep) -> NatRep:
    """f × g on a product source."""
    n, a, b, u = f.arity, f.source, g.source, f.universe
    return pair(nat_compose(f, p1(n, a, b, u)), nat_compose(g, p2(n, a, b, u)))
