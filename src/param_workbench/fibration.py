"""Type constructors as data, and the indexed structure built over them.

A TypeFunctor is a closed syntax tree with n parameter slots.  Evaluated
at level 0 it produces a finite set, at level 1 a relation (plain or
witnessed), at level 2 a relation square.  Natural numbers form the base
category: a morphism n -> m is an m-tuple of arity-n trees, composition
is substitution, and the fiber over n is the CCC of arity-n trees.  All
of that substitution machinery is structural, which is what makes the
reindexing functors split on the nose.

Quantifiers are the one non-structural ingredient.  There is no honest
way to range over "all" sets here, so a quantified tree is read against
a fixed finite ProbeUniverse: a family element must pick a value at
every probe object, carry every probe relation, and (under the crey
policy) commute with the universe's relevant bijections.  Every claim
this module checks about quantified types is relative to that universe.

Trees also act on isomorphisms, but only at level 0 (evaluate_mor):
the crey membership clause and naturality transport along level-0
bijections only, and a level-1 morphism is propositional, so it is
forced by its two level-0 faces once they exist.
"""

from __future__ import annotations

import itertools
import json
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from . import cubemodel as cm
from . import rgalg
from .finmodel import (
    FinFn,
    FinSetObj,
    IsoPolicy,
    PropRel,
    PropRelMor,
    all_functions,
    bang0,
    bang1,
    eq_mor,
    eq_rel,
    eval0,
    eval1,
    expo0,
    expo0_action,
    expo1,
    eta_expo,
    eta_prod,
    eta_unit,
    fin_set,
    fn,
    fn_compose,
    fn_id,
    fst0,
    fst1,
    graph_rel,
    label_key,
    lambda0,
    lambda1,
    pair0,
    pair1,
    prod_fn,
    prod_mor,
    product0,
    product1,
    rel,
    rel_mor_compose,
    rel_mor_id,
    snd0,
    snd1,
    terminal0,
    terminal1,
    try_rel_mor,
)

Report = rgalg.Report


class ClosureError(ValueError):
    """An evaluation stepped outside the probe universe."""


# ---------------------------------------------------------------------------
# the type-constructor trees
# ---------------------------------------------------------------------------

class TypeFunctor:
    """Base class; every node knows its arity and is immutable."""

    arity: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}{self.__dict__ or ''}"


@dataclass(frozen=True)
class FProj(TypeFunctor):
    arity: int
    index: int

    def __post_init__(self):
        if not 0 <= self.index < self.arity:
            raise ValueError("projection index out of range")


@dataclass(frozen=True)
class FUnit(TypeFunctor):
    arity: int


@dataclass(frozen=True)
class FProd(TypeFunctor):
    left: TypeFunctor
    right: TypeFunctor

    def __post_init__(self):
        if self.left.arity != self.right.arity:
            raise ValueError("pair components disagree on arity")

    @property
    def arity(self) -> int:
        return self.left.arity


@dataclass(frozen=True)
class FArrow(TypeFunctor):
    dom: TypeFunctor
    cod: TypeFunctor

    def __post_init__(self):
        if self.dom.arity != self.cod.arity:
            raise ValueError("arrow sides disagree on arity")

    @property
    def arity(self) -> int:
        return self.dom.arity


@dataclass(frozen=True)
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

@dataclass(frozen=True)
class EnvL:
    """A tuple of same-level semantic objects to feed a tree's slots.

    Level 0 entries are finite sets, level 1 entries are relations
    (propositional or witnessed, uniformly), level 2 entries are squares.
    """
    level: int
    entries: tuple

    def __post_init__(self):
        wanted = {0: (FinSetObj,), 1: (PropRel, cm.WitRel), 2: (cm.TwoRel,)}
        if self.level not in wanted:
            raise ValueError("level must be 0, 1 or 2")
        kinds = wanted[self.level]
        for e in self.entries:
            if not isinstance(e, kinds):
                raise ValueError(f"level-{self.level} environment cannot hold {e!r}")
        if self.level == 1 and len({isinstance(e, cm.WitRel) for e in self.entries}) > 1:
            raise ValueError("cannot mix propositional and witnessed entries")

    @property
    def witnessed(self) -> bool:
        return any(isinstance(e, (cm.WitRel, cm.TwoRel)) for e in self.entries)


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
    objs2: tuple = ()
    _cache: dict = field(default_factory=dict, repr=False)
    # reentrant: memoized builders recurse into other memoized entries
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False)

    def __post_init__(self):
        seen0 = set(self.objs0)
        for r in self.objs1:
            if r.dom not in seen0 or r.cod not in seen0:
                raise ValueError("every probe relation needs probe endpoints")
        for a in self.objs0:
            if eq_rel(a) not in self.objs1:
                raise ValueError(f"missing equality probe for {a.elements!r}")

    @property
    def index0(self) -> dict:
        return self._memo("index0", lambda: {a: i for i, a in enumerate(self.objs0)})

    @property
    def index1(self) -> dict:
        return self._memo("index1", lambda: {r: i for i, r in enumerate(self.objs1)})

    @property
    def isos0(self) -> tuple:
        def build():
            if self.policy is IsoPolicy.CREY:
                return tuple(f for a in self.objs0 for b in self.objs0
                             for f in all_functions(a, b) if f.is_bijection)
            return tuple(fn_id(a) for a in self.objs0)
        return self._memo("isos0", build)

    @property
    def isos1(self) -> tuple:
        def build():
            if self.policy is IsoPolicy.STRICT:
                return tuple(rel_mor_id(r) for r in self.objs1)
            out = []
            for r in self.objs1:
                for s in self.objs1:
                    for f in self.isos0:
                        if f.dom != r.dom or f.cod != s.dom:
                            continue
                        for g in self.isos0:
                            if g.dom != r.cod or g.cod != s.cod:
                                continue
                            m = try_rel_mor(r, s, f, g)
                            if m is not None and m.is_iso:
                                out.append(m)
            return tuple(out)
        return self._memo("isos1", build)

    def _memo(self, key, build: Callable):
        with self._lock:
            if key not in self._cache:
                self._cache[key] = build()
            return self._cache[key]

    def memo_eval(self, key, build: Callable):
        return self._memo(key, build)


def make_universe(policy: IsoPolicy, objs0, objs1, objs2=()) -> ProbeUniverse:
    def uniq(xs):
        seen, out = set(), []
        for x in xs:
            if x not in seen:
                seen.add(x)
                out.append(x)
        return tuple(out)

    # Probes are positional (family labels index them), so duplicates,
    # including relabeled spellings of one relation, must collapse.
    return ProbeUniverse(policy, uniq(objs0), uniq(objs1), tuple(objs2))


def graph_universe(sizes: Sequence[int] = (1, 2),
                   policy: IsoPolicy = IsoPolicy.REY) -> ProbeUniverse:
    """Chain carriers {0..k-1} with equalities plus every function graph.

    Function graphs are the probes that make naturality bite: carrying
    graph(h) forces a family to commute with h.
    """
    objs0 = tuple(fin_set(range(k)) for k in sorted(set(sizes)))
    rels = [eq_rel(a) for a in objs0]
    for a in objs0:
        for b in objs0:
            for f in all_functions(a, b):
                if not f.is_identity:
                    rels.append(graph_rel(f))
    return make_universe(policy, objs0, tuple(rels))


def default_universe(policy: IsoPolicy = IsoPolicy.REY) -> ProbeUniverse:
    """Two chain carriers, their equalities, and all six non-identity graphs."""
    return graph_universe((1, 2), policy)


def probe_envs(u: ProbeUniverse, arity: int, level: int):
    pool = u.objs0 if level == 0 else u.objs1
    for combo in itertools.product(pool, repeat=arity):
        yield EnvL(level, combo)


# -- JSON loading (shares the label encoding with the square layer) --------

def universe_to_data(u: ProbeUniverse) -> dict:
    return {
        "policy": u.policy.name.lower(),
        "objects": [cm.obj_to_data(a) for a in u.objs0],
        "relations": [
            {"dom": cm.obj_to_data(r.dom), "cod": cm.obj_to_data(r.cod),
             "pairs": [[cm._label_data(a), cm._label_data(b), cm._label_data(w)]
                       for (a, b), w in r.entries]}
            for r in u.objs1
        ],
    }


def universe_from_data(d: dict) -> ProbeUniverse:
    try:
        policy = IsoPolicy[d["policy"].upper()]
        objs0 = tuple(cm.obj_from_data(o) for o in d["objects"])
        objs1 = tuple(
            rel(cm.obj_from_data(r["dom"]), cm.obj_from_data(r["cod"]),
                {(cm._label_back(a), cm._label_back(b)): cm._label_back(w)
                 for a, b, w in r["pairs"]})
            for r in d["relations"])
    except (KeyError, TypeError) as exc:
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


def evaluate(f: TypeFunctor, env: EnvL, u: Optional[ProbeUniverse] = None):
    """Read the tree at the environment's level.

    Levels 0 and 1 over plain relations follow the finite-set CCC; a
    witnessed level-1 or level-2 environment routes through the square
    layer's constructors instead.  Quantifier nodes demand a universe.
    Values are pure data, so given a universe they are cached on it;
    exponentials at level 1 are expensive enough to make that matter.
    """
    if u is not None:
        return u.memo_eval(("ev", f, env), lambda: _evaluate(f, env, u))
    return _evaluate(f, env, u)


def _formers(env: EnvL) -> tuple:
    """The unit, product and exponential of the environment's level.

    Looked up per call, not tabled at import, so that patching a
    module name (as perfbench's tracer does) reaches these calls too.
    """
    if env.level == 0:
        return terminal0, product0, expo0
    if env.level == 2:
        return cm.squnit, cm.sqprod, cm.sqexpo
    if env.witnessed:
        return cm.wunit_rel, cm.wprod, cm.wexpo
    return terminal1, product1, expo1


def _evaluate(f: TypeFunctor, env: EnvL, u: Optional[ProbeUniverse]):
    _check_arity(f, env)
    if isinstance(f, FProj):
        return env.entries[f.index]
    if isinstance(f, FForall):
        if u is None:
            raise ValueError("quantifier evaluation needs a probe universe")
        if env.level == 0:
            return forall0_value(f.body, env.entries, u)
        if env.level == 1 and not env.witnessed:
            return forall1_value(f.body, env.entries, u)
        raise ValueError("quantifiers evaluate over plain relations only; "
                         "use the square layer's membership checker instead")
    unit, prod, expo = _formers(env)
    if isinstance(f, FUnit):
        return unit()
    if isinstance(f, FProd):
        return prod(evaluate(f.left, env, u), evaluate(f.right, env, u))
    if isinstance(f, FArrow):
        return expo(evaluate(f.dom, env, u), evaluate(f.cod, env, u))
    raise TypeError(f"not a type functor: {f!r}")


def _expo1_action(m: PropRelMor, n: PropRelMor) -> PropRelMor:
    """(m ⇒ n) on relation morphisms; m runs against the arrow, so it
    must be an isomorphism."""
    if not m.is_iso:
        raise ValueError("not an isomorphism")
    return PropRelMor(expo1(m.src, n.src), expo1(m.tgt, n.tgt),
                      expo0_action(m.f, n.f), expo0_action(m.g, n.g))


def evaluate_mor(f: TypeFunctor, isos, u: Optional[ProbeUniverse] = None) -> FinFn:
    """Functorial action on a tuple of level-0 bijections.

    The result is a bijection between the tree's values at the isos'
    domains and codomains.  Level 0 is the only level needed: the crey
    membership clause and naturality transport along level-0 bijections
    only, and a level-1 morphism is forced by its two level-0 faces.
    """
    isos = tuple(isos)
    if not all(isinstance(m, FinFn) and m.is_bijection for m in isos):
        raise ValueError("transports must be level-0 bijections")
    if f.arity != len(isos):
        raise ValueError(f"arity {f.arity} tree fed {len(isos)} transports")

    if isinstance(f, FProj):
        return isos[f.index]
    if isinstance(f, FUnit):
        return fn_id(terminal0())
    if isinstance(f, FProd):
        return prod_fn(evaluate_mor(f.left, isos, u), evaluate_mor(f.right, isos, u))
    if isinstance(f, FArrow):
        return expo0_action(evaluate_mor(f.dom, isos, u), evaluate_mor(f.cod, isos, u))
    if isinstance(f, FForall):
        if u is None:
            raise ValueError("quantifier transport needs a probe universe")
        return _forall0_transport(f.body, isos, u)
    raise TypeError(f"not a type functor: {f!r}")


# ---------------------------------------------------------------------------
# quantifier values
# ---------------------------------------------------------------------------
#
# A level-0 family record is the label
#     ("fam", (element per probe object...))
# ordered positionally by the universe.  Witnesses are not stored: they
# are forced by the element part (at most one per pair), and keeping
# them in the label would make it depend on how each probe relation was
# spelled.  Enumeration therefore just filters element choices; under
# the crey policy an extra pass discards families that fail to commute
# with the universe's bijections.

def _body_values0(body: TypeFunctor, base: tuple, u: ProbeUniverse) -> tuple:
    key = ("bv0", body, base)
    return u.memo_eval(key, lambda: tuple(
        evaluate(body, EnvL(0, base + (a,)), u) for a in u.objs0))


def _body_rels_eq(body: TypeFunctor, base: tuple, u: ProbeUniverse) -> tuple:
    key = ("bveq", body, base)
    eqs = tuple(eq_rel(a) for a in base)
    return u.memo_eval(key, lambda: tuple(
        evaluate(body, EnvL(1, eqs + (r,)), u) for r in u.objs1))


def _complete_family(body: TypeFunctor, base: tuple, u: ProbeUniverse,
                     f0: tuple, rels_eq: Optional[tuple] = None):
    """Admit an element choice as a family; None if any probe relation
    is not carried or (crey) some bijection is not respected."""
    if rels_eq is None:
        rels_eq = _body_rels_eq(body, base, u)
    for j, r in enumerate(u.objs1):
        if not rels_eq[j].holds(f0[u.index0[r.dom]], f0[u.index0[r.cod]]):
            return None
    if u.policy is IsoPolicy.CREY:
        ids = tuple(fn_id(a) for a in base)
        for i in u.isos0:
            if i.is_identity:
                continue
            act = evaluate_mor(body, ids + (i,), u)
            if act(f0[u.index0[i.dom]]) != f0[u.index0[i.cod]]:
                return None
    return ("fam", tuple(f0))


def forall0_value(body: TypeFunctor, base: tuple, u: ProbeUniverse) -> FinSetObj:
    key = ("fa0", body, base)

    def build():
        vals = _body_values0(body, base, u)
        rels_eq = _body_rels_eq(body, base, u)
        out = []
        for f0 in itertools.product(*[v.elements for v in vals]):
            lab = _complete_family(body, base, u, f0, rels_eq)
            if lab is not None:
                out.append(lab)
        return fin_set(out)

    return u.memo_eval(key, build)


def forall1_value(body: TypeFunctor, rbar: tuple, u: ProbeUniverse) -> PropRel:
    key = ("fa1", body, rbar)

    def build():
        src = forall0_value(body, tuple(r.dom for r in rbar), u)
        tgt = forall0_value(body, tuple(r.cod for r in rbar), u)
        rels = [evaluate(body, EnvL(1, rbar + (r,)), u) for r in u.objs1]
        wit = {}
        for famf in src:
            for famg in tgt:
                phi = []
                for j, r in enumerate(u.objs1):
                    w = rels[j].wit(famf[1][u.index0[r.dom]],
                                    famg[1][u.index0[r.cod]])
                    if w is None:
                        break
                    phi.append(w)
                else:
                    wit[(famf, famg)] = ("phi", tuple(phi))
        return rel(src, tgt, wit)

    return u.memo_eval(key, build)


def _forall0_transport(body: TypeFunctor, isos: tuple, u: ProbeUniverse) -> FinFn:
    src = forall0_value(body, tuple(i.dom for i in isos), u)
    tgt = forall0_value(body, tuple(i.cod for i in isos), u)

    def move(fam):
        f0 = tuple(
            evaluate_mor(body, isos + (fn_id(a),), u)(fam[1][j])
            for j, a in enumerate(u.objs0))
        lab = _complete_family(body, tuple(i.cod for i in isos), u, f0)
        if lab is None or lab not in tgt:
            raise ValueError("transport left the family set")
        return lab

    return fn(src, tgt, move)


# ---------------------------------------------------------------------------
# the comparison isomorphism at equality environments
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EpsilonWitness:
    """The canonical iso Eq(level-0 value) -> level-1 value at equalities."""
    functor: TypeFunctor
    env: tuple
    iso: PropRelMor

    def holds(self) -> bool:
        return (self.iso.f.is_identity and self.iso.g.is_identity
                and self.iso.is_iso)


def epsilon_of(f: TypeFunctor, env: tuple,
               u: Optional[ProbeUniverse] = None) -> EpsilonWitness:
    """Synthesize the comparison iso structurally.

    Projections and quantifiers contribute identity-legged relabelings;
    units, pairs and arrows compose their canonical comparison with the
    transported component isos.  The arrow case runs the domain iso
    backwards, which is why these must all be isomorphisms.
    """
    env = tuple(env)
    return EpsilonWitness(f, env, _epsilon_iso(f, env, u))


def _epsilon_iso(f: TypeFunctor, env: tuple, u) -> PropRelMor:
    if isinstance(f, FProj):
        return rel_mor_id(eq_rel(env[f.index]))
    if isinstance(f, FUnit):
        return eta_unit()
    if isinstance(f, FProd):
        a = evaluate(f.left, EnvL(0, env), u)
        b = evaluate(f.right, EnvL(0, env), u)
        sides = prod_mor(_epsilon_iso(f.left, env, u), _epsilon_iso(f.right, env, u))
        return rel_mor_compose(sides, eta_prod(a, b))
    if isinstance(f, FArrow):
        a = evaluate(f.dom, EnvL(0, env), u)
        b = evaluate(f.cod, EnvL(0, env), u)
        action = _expo1_action(_epsilon_iso(f.dom, env, u),
                               _epsilon_iso(f.cod, env, u))
        return rel_mor_compose(action, eta_expo(a, b))
    if isinstance(f, FForall):
        if u is None:
            raise ValueError("quantifier comparison needs a probe universe")
        fam = forall0_value(f.body, env, u)
        val = forall1_value(f.body, tuple(eq_rel(a) for a in env), u)
        out = try_rel_mor(eq_rel(fam), val, fn_id(fam), fn_id(fam))
        if out is None:
            raise ClosureError("universe is not closed under equalities of "
                               "its own probes")
        return out
    raise TypeError(f"not a type functor: {f!r}")


# ---------------------------------------------------------------------------
# natural transformations as queryable components
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NatRep:
    """A transformation between two same-arity trees.

    component maps an environment to a morphism at that environment's
    level; components are computed on demand, never tabulated, so a
    NatRep is usable at any environment including non-probe ones.
    """
    source: TypeFunctor
    target: TypeFunctor
    component: Callable[[EnvL], object]
    universe: Optional[ProbeUniverse] = None
    name: str = "nat"

    def __post_init__(self):
        if self.source.arity != self.target.arity:
            raise ValueError("transformation endpoints disagree on arity")

    @property
    def arity(self) -> int:
        return self.source.arity

    def at(self, env: EnvL):
        return self.component(env)


def nat_id(f: TypeFunctor, u: Optional[ProbeUniverse] = None,
           name: str = "id") -> NatRep:
    def comp(env: EnvL):
        val = evaluate(f, env, u)
        if env.level == 0:
            return fn_id(val)
        if isinstance(val, PropRel):
            return rel_mor_id(val)
        if isinstance(val, cm.WitRel):
            return cm.wit_mor_id(val)
        return cm.two_mor_id(val)
    return NatRep(f, f, comp, u, name)


def nat_compose(n2: NatRep, n1: NatRep, name: Optional[str] = None) -> NatRep:
    if n1.target != n2.source:
        raise ValueError("non-composable transformations")

    def comp(env: EnvL):
        a, b = n2.at(env), n1.at(env)
        if isinstance(a, FinFn):
            return fn_compose(a, b)
        if isinstance(a, PropRelMor):
            return rel_mor_compose(a, b)
        if isinstance(a, cm.WitRelMor):
            return cm.wit_mor_compose(a, b)
        return cm.two_mor_compose(a, b)

    return NatRep(n1.source, n2.target, comp, n1.universe or n2.universe,
                  name or f"{n2.name}.{n1.name}")


def nats_agree(n1: NatRep, n2: NatRep, u: ProbeUniverse,
               levels: tuple = (0, 1)) -> Optional[str]:
    """Extensional comparison over all probe environments; None if equal."""
    if (n1.source, n1.target) != (n2.source, n2.target):
        return "endpoint mismatch"
    for level in levels:
        for env in probe_envs(u, n1.arity, level):
            if n1.at(env) != n2.at(env):
                return f"components differ at {env.entries!r}"
    return None


def validate_nat(nat: NatRep, u: ProbeUniverse,
                 report: Optional[Report] = None) -> Report:
    """Sample the three defining conditions over the probe universe.

    Checks naturality against the policy's relevant isos, the two face
    equations tying level 1 to level 0, and the degeneracy square built
    from the endpoint comparison isos.
    """
    report = report or Report()
    n = nat.arity

    for combo in itertools.product(u.isos0, repeat=n):
        src_env = EnvL(0, tuple(i.dom for i in combo))
        tgt_env = EnvL(0, tuple(i.cod for i in combo))
        lhs = fn_compose(evaluate_mor(nat.target, combo, u), nat.at(src_env))
        rhs = fn_compose(nat.at(tgt_env), evaluate_mor(nat.source, combo, u))
        report.check(f"{nat.name}: natural at {_env_tag(src_env)}",
                     None if lhs == rhs else f"{lhs.table} != {rhs.table}")

    for env in probe_envs(u, n, 1):
        m = nat.at(env)
        fd = nat.at(_face_env(env, "dom"))
        fc = nat.at(_face_env(env, "cod"))
        ok = m.f == fd and m.g == fc
        report.check(f"{nat.name}: faces at {_env_tag(env)}",
                     None if ok else "level-1 legs disagree with level-0 parts")

    for env in probe_envs(u, n, 0):
        eps_s = _epsilon_iso(nat.source, env.entries, u)
        eps_t = _epsilon_iso(nat.target, env.entries, u)
        lhs = rel_mor_compose(nat.at(eq_env(env)), eps_s)
        rhs = rel_mor_compose(eps_t, eq_mor(nat.at(env)))
        report.check(f"{nat.name}: degeneracy at {_env_tag(env)}",
                     None if lhs == rhs else "comparison square does not commute")
    return report


def _env_tag(env: EnvL) -> str:
    def one(e):
        if isinstance(e, FinSetObj):
            return "{" + ",".join(map(str, e.elements)) + "}"
        return f"rel{len(e.entries)}@{one(e.dom)}->{one(e.cod)}"
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


def _env_along(f: CtxMor, env: EnvL, u: Optional[ProbeUniverse]) -> EnvL:
    """The environment f's components evaluate to at env."""
    return EnvL(env.level, tuple(evaluate(c, env, u) for c in f.comps))


def reindex(f: CtxMor, x, u: Optional[ProbeUniverse] = None):
    """Pull a fiber object or transformation back along a base morphism."""
    if isinstance(x, TypeFunctor):
        if x.arity != f.tgt:
            raise ValueError("fiber object lives over the wrong base")
        return substitute(x, f.comps, f.src)
    if isinstance(x, NatRep):
        uu = u or x.universe

        def comp(env: EnvL):
            return x.at(_env_along(f, env, uu))

        return NatRep(substitute(x.source, f.comps, f.src),
                      substitute(x.target, f.comps, f.src),
                      comp, uu, f"{x.name}*")
    raise TypeError(f"cannot reindex {x!r}")


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

def _fiber_levels(env: EnvL) -> None:
    if env.level > 1 or env.witnessed:
        raise ValueError("fiber combinators are defined over plain "
                         "relational environments")


@dataclass(frozen=True, eq=False)
class FiberCcc:
    """CCC structure on the fiber of arity-n trees.

    Object formers are the AST constructors; morphism combinators build
    NatReps whose components are the pointwise finite-set CCC maps.
    """
    arity: int
    universe: Optional[ProbeUniverse] = None

    def _pointwise(self, name: str, source: TypeFunctor, target: TypeFunctor,
                   parts: tuple, at0: Callable, at1: Callable) -> NatRep:
        """The transformation whose component applies at0 (level 0) or
        at1 (level 1) to the values of parts."""
        u = self.universe

        def comp(env: EnvL):
            _fiber_levels(env)
            vals = [evaluate(p, env, u) for p in parts]
            return at0(*vals) if env.level == 0 else at1(*vals)

        return NatRep(source, target, comp, u, name)

    def terminal(self) -> TypeFunctor:
        return FUnit(self.arity)

    def bang(self, x: TypeFunctor) -> NatRep:
        return self._pointwise("!", x, self.terminal(), (x,), bang0, bang1)

    def prod(self, x: TypeFunctor, y: TypeFunctor) -> TypeFunctor:
        return FProd(x, y)

    def p1(self, x: TypeFunctor, y: TypeFunctor) -> NatRep:
        return self._pointwise("p1", FProd(x, y), x, (x, y), fst0, fst1)

    def p2(self, x: TypeFunctor, y: TypeFunctor) -> NatRep:
        return self._pointwise("p2", FProd(x, y), y, (x, y), snd0, snd1)

    def pair(self, f: NatRep, g: NatRep) -> NatRep:
        if f.source != g.source:
            raise ValueError("pairing needs a common source")

        def comp(env: EnvL):
            _fiber_levels(env)
            a, b = f.at(env), g.at(env)
            return pair0(a, b) if env.level == 0 else pair1(a, b)

        return NatRep(f.source, FProd(f.target, g.target), comp,
                      f.universe or g.universe, f"<{f.name},{g.name}>")

    def expo(self, x: TypeFunctor, y: TypeFunctor) -> TypeFunctor:
        return FArrow(x, y)

    def ev(self, x: TypeFunctor, y: TypeFunctor) -> NatRep:
        return self._pointwise("ev", FProd(FArrow(x, y), x), y, (x, y),
                               eval0, eval1)

    def lam(self, f: NatRep) -> NatRep:
        """Curry f : Z × X -> Y into Z -> (X ⇒ Y)."""
        if not isinstance(f.source, FProd):
            raise ValueError("currying needs a product source")
        z, x = f.source.left, f.source.right
        u = f.universe or self.universe

        def comp(env: EnvL):
            _fiber_levels(env)
            zv, xv = evaluate(z, env, u), evaluate(x, env, u)
            if env.level == 0:
                return lambda0(f.at(env), zv, xv)
            return lambda1(f.at(env), zv, xv)

        return NatRep(z, FArrow(x, f.target), comp, u, f"cur({f.name})")

    def swap(self, x: TypeFunctor, y: TypeFunctor) -> NatRep:
        return self.pair(self.p2(x, y), self.p1(x, y))


def fiber_ccc(n: int, u: Optional[ProbeUniverse] = None) -> FiberCcc:
    return FiberCcc(n, u)


# ---------------------------------------------------------------------------
# the probe-bounded quantifier adjunction
# ---------------------------------------------------------------------------

def _forced_by_faces(comp0: Callable, env: EnvL, src: PropRel, tgt: PropRel,
                     error: Exception) -> PropRelMor:
    """The level-1 component whose legs are comp0 at env's two level-0
    faces; raises error when those legs do not preserve relatedness."""
    out = try_rel_mor(src, tgt, comp0(_face_env(env, "dom")),
                      comp0(_face_env(env, "cod")))
    if out is None:
        raise error
    return out


def counit(g: TypeFunctor, u: ProbeUniverse) -> NatRep:
    """Instantiate a quantified value at the environment's fresh entry.

    The fresh entry must itself be a probe; anything else is a closure
    violation, since families only store values at probes.
    """
    n = g.arity - 1
    source = reindex(ctx_proj(n), FForall(g))

    def comp0(env: EnvL):
        a = env.entries[-1]
        if a not in u.index0:
            raise ClosureError(f"object {a.elements!r} is not a probe")
        src = evaluate(source, env, u)
        tgt = evaluate(g, env, u)
        return fn(src, tgt, lambda fam: fam[1][u.index0[a]])

    def comp(env: EnvL):
        if env.level == 0:
            return comp0(env)
        if env.level != 1 or env.witnessed:
            raise ValueError("counit components live at levels 0/1")
        r = env.entries[-1]
        if r not in u.index1:
            raise ClosureError("relation entry is not a probe")
        return _forced_by_faces(
            comp0, env, evaluate(source, env, u), evaluate(g, env, u),
            ClosureError("family relatedness does not cover this probe"))

    return NatRep(source, g, comp, u, "inst")


def transpose(f: TypeFunctor, g: TypeFunctor, eta: NatRep,
              u: ProbeUniverse) -> NatRep:
    """Package a transformation over the extended base into families.

    eta must run from the weakening of f to g; the element part of the
    output records eta's value at every probe, and the relation part is
    forced from it.
    """
    n = f.arity
    if eta.source != reindex(ctx_proj(n), f) or eta.target != g:
        raise ValueError("transformation endpoints do not match the binder")

    def comp0(env: EnvL):
        src = evaluate(f, env, u)
        tgt = forall0_value(g, env.entries, u)

        def move(x):
            f0 = tuple(eta.at(EnvL(0, env.entries + (a,)))(x) for a in u.objs0)
            lab = _complete_family(g, env.entries, u, f0)
            if lab is None or lab not in tgt:
                raise ValueError("packaged family fails the membership clauses")
            return lab

        return fn(src, tgt, move)

    def comp(env: EnvL):
        if env.level == 0:
            return comp0(env)
        if env.level != 1 or env.witnessed:
            raise ValueError("transposed components live at levels 0/1")
        return _forced_by_faces(
            comp0, env, evaluate(f, env, u), forall1_value(g, env.entries, u),
            ValueError("packaged families fail to stay related"))

    return NatRep(f, FForall(g), comp, u, f"pack({eta.name})")


# ---------------------------------------------------------------------------
# universe closure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosureBound:
    """Budget for universe growth.

    Rounds are deliberately few: a well-behaved argument stabilizes in
    two or three, while a quantified argument keeps minting fresh
    family carriers whose evaluation cost compounds round over round,
    so a long leash buys minutes of work only to fail anyway.
    """
    max_objects: int = 12
    max_carrier: int = 48
    max_relations: int = 48
    max_rounds: int = 4


@dataclass(frozen=True, eq=False)
class ClosureResult:
    universe: ProbeUniverse
    ok: bool
    rounds: int
    reason: Optional[str] = None


def universe_closure(ty_args: Sequence[TypeFunctor], seed: ProbeUniverse,
                     bound: ClosureBound = ClosureBound()) -> ClosureResult:
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
    for round_no in range(1, bound.max_rounds + 1):
        fresh: list = []
        seen = set(u.objs0)
        for t in ty_args:
            for combo in itertools.product(u.objs0, repeat=t.arity):
                val = evaluate(t, EnvL(0, combo), u)
                if len(val) > bound.max_carrier:
                    return ClosureResult(u, False, round_no,
                                         f"carrier of size {len(val)} exceeds "
                                         f"{bound.max_carrier}")
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
        if len(seen) > bound.max_objects:
            return ClosureResult(u, False, round_no,
                                 f"{len(seen)} objects exceed {bound.max_objects}")
        if len(seen1) > bound.max_relations:
            return ClosureResult(u, False, round_no,
                                 f"{len(seen1)} relations exceed "
                                 f"{bound.max_relations}")
        fresh.sort(key=lambda a: label_key(a.elements))
        fresh_rels.sort(key=lambda r: label_key((r.dom.elements, r.cod.elements,
                                                 r.entries)))
        u = make_universe(u.policy, u.objs0 + tuple(fresh),
                          u.objs1 + tuple(eq_rel(a) for a in fresh)
                          + tuple(fresh_rels))
    return ClosureResult(u, False, bound.max_rounds,
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
                    seed: int = 0, rounds: int = 100,
                    report: Optional[Report] = None) -> Report:
    """Substitution, splitness, coherence and adjunction checks in one run.

    bound caps the probe carrier sizes; rounds scales the random
    sampling of context morphisms.
    """
    import random

    report = report or Report()
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
            eps = epsilon_of(t, env.entries, u)
            report.check(f"coherence: comparison at {_env_tag(env)} of {t!r}",
                         None if eps.holds() else "legs not identity or not iso")

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
    ccc = fiber_ccc(1, u)
    a, b = FProj(1, 0), FUnit(1)
    fpair = ccc.pair(ccc.p2(a, b), ccc.p1(a, b))
    beta1 = nats_agree(nat_compose(ccc.p1(b, a), fpair), ccc.p2(a, b), u)
    report.check("fiber: first projection beta law", beta1)
    beta2 = nats_agree(nat_compose(ccc.p2(b, a), fpair), ccc.p1(a, b), u)
    report.check("fiber: second projection beta law", beta2)
    curried = ccc.lam(ccc.p2(b, a))
    lhs = nat_compose(ccc.ev(a, a), _nat_cross(ccc, curried, nat_id(a, u)))
    beta3 = nats_agree(lhs, ccc.p2(b, a), u)
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

    # adjunction triangle: instantiation is the transpose's inverse
    g = FArrow(FProj(1, 0), FProj(1, 0))
    inst = counit(g, u)
    packed = transpose(FForall(g), g, inst, u)
    tri = nats_agree(packed, nat_id(FForall(g), u), u)
    report.check("adjunction: repackaged instantiation is the identity", tri)

    # informational: hunt for non-uniform transformations breaking the
    # round trip; outcome is recorded either way, never asserted
    found = adhoc_roundtrip_search(u, g)
    report.add("adjunction: non-uniform counterexample search", True, found)
    return report


def _nat_cross(ccc: FiberCcc, f: NatRep, g: NatRep) -> NatRep:
    """f × g on a product source."""
    a, b = f.source, g.source
    return ccc.pair(nat_compose(f, ccc.p1(a, b)), nat_compose(g, ccc.p2(a, b)))


def adhoc_roundtrip_search(u: ProbeUniverse, body: TypeFunctor,
                           cap: int = 4096) -> str:
    """Hunt for componentwise-defined transformations that break the
    instantiation round trip.

    Candidates are arbitrary per-probe element choices for a map from
    the weakened unit into an arity-1 body; a candidate counts as a
    transformation when every level-1 component exists and it commutes
    with the policy's isomorphisms.  Whether non-uniform survivors can
    break the round trip over a finite universe is an open matter, so
    the outcome is reported, never asserted.
    """
    if body.arity != 1:
        return "search restricted to one-slot bodies"
    unit = FUnit(0)
    wunit = weaken(unit)
    choices = [evaluate(body, EnvL(0, (a,)), u).elements for a in u.objs0]
    total = 1
    for c in choices:
        total *= len(c)
    if total > cap:
        return f"skipped: {total} candidates exceed the cap"

    def candidate(combo) -> NatRep:
        def comp(env: EnvL):
            if env.level == 0:
                a = env.entries[-1]
                if a not in u.index0:
                    raise ClosureError("off-probe candidate query")
                return fn(terminal0(), evaluate(body, env, u),
                          lambda _x: combo[u.index0[a]])
            return _forced_by_faces(comp, env, evaluate(wunit, env, u),
                                    evaluate(body, env, u),
                                    ValueError("not a transformation"))
        return NatRep(wunit, body, comp, u, "candidate")

    survivors = 0
    broken = 0
    for combo in itertools.product(*choices):
        eta = candidate(combo)
        try:
            for env in probe_envs(u, 1, 1):
                eta.at(env)
            rep = Report()
            validate_nat(eta, u, rep)
            if not rep.ok:
                continue
        except (ValueError, ClosureError):
            continue
        survivors += 1
        packed = transpose(unit, body, eta, u)
        back = nat_compose(counit(body, u), reindex(ctx_proj(0), packed, u))
        if nats_agree(back, eta, u) is not None:
            broken += 1
    if broken:
        return (f"{broken} of {survivors} componentwise transformations "
                f"break the round trip")
    return (f"no counterexample: all {survivors} componentwise "
            f"transformations (of {total} candidates) round-trip")
