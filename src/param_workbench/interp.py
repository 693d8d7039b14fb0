"""System F read into the finite relational semantics, plus checkers.

interp_type turns a type with n free variables into an arity-n tree;
interp_term turns a typing derivation into a transformation from the
interpreted hypothesis context to the interpreted type.  On top of the
interpretation sit three checkers:

* iel_check: at equality environments the comparison iso must be an
  honest bijection with identity element maps, type by type;
* abstraction_check: a term's level-1 components, forced by its
  level-0 components at their faces, exist, and a quantified term's
  single denoted family carries every supplied relation;
* free_theorem_check: the type-erased term satisfies the relational
  reading of its type at propositional relations on finite carriers,
  computed purely by normalization, with no universe involved.

The first two read everything in the ProbeUniverse the caller passes.
Quantifier instantiation reads family entries at probes only, so a type
application is interpretable exactly when its argument type evaluates
inside the universe.  closure_for_term grows a seed universe until that
holds, through ProbeUniverse.extended like every other growth; when it
cannot, interpretation refuses (naming the offending instantiation) and
the erased-term checker remains the fallback route.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Optional, Sequence

from . import fibration as fib
from . import systemf as sf
from .finmodel import PropRel, fin_set, rel
from .fibration import (
    ClosureError,
    ClosureResult,
    CtxMor,
    EnvL,
    FArrow,
    FForall,
    FProd,
    FProj,
    FUnit,
    FiberCcc,
    NatRep,
    ProbeUniverse,
    Report,
    TypeFunctor,
    counit,
    ctx_id,
    ctx_pair,
    epsilon_of,
    evaluate,
    nat_compose,
    probe_envs,
    reindex,
    transpose,
    universe_closure,
    validate_nat,
)


# ---------------------------------------------------------------------------
# types and contexts as trees
# ---------------------------------------------------------------------------

def free_depth(ty: sf.Type) -> int:
    """Smallest binder depth under which the type is closed."""
    def go(t: sf.Type, depth: int) -> int:
        match t:
            case sf.TVar(i):
                return i - depth + 1
            case sf.UnitT():
                return 0
            case sf.ProdT(l, r) | sf.ArrowT(l, r):
                return max(go(l, depth), go(r, depth))
            case sf.ForallT(b):
                return go(b, depth + 1)
        raise TypeError(f"not a type: {t!r}")
    return max(0, go(ty, 0))


def interp_type(depth: int, ty: sf.Type) -> TypeFunctor:
    """Read a type with `depth` free variables as an arity-`depth` tree.

    The innermost binder sits in the last slot, so entering a
    quantifier extends environments on the right, exactly where the
    quantifier node binds.
    """
    match ty:
        case sf.TVar(i):
            if not 0 <= i < depth:
                raise ValueError(f"type variable {i} is unbound at depth {depth}")
            return FProj(depth, depth - 1 - i)
        case sf.UnitT():
            return FUnit(depth)
        case sf.ProdT(l, r):
            return FProd(interp_type(depth, l), interp_type(depth, r))
        case sf.ArrowT(d, c):
            return FArrow(interp_type(depth, d), interp_type(depth, c))
        case sf.ForallT(b):
            return FForall(interp_type(depth + 1, b))
    raise TypeError(f"not a type: {ty!r}")


def context_functor(depth: int, termctx: Sequence[sf.Type]) -> TypeFunctor:
    """Hypotheses as right-nested products seeded by the terminal.

    The innermost hypothesis (variable 0) is the leftmost factor, so
    variable i is reached by i second projections and one first.
    """
    out: TypeFunctor = FUnit(depth)
    for ty in reversed(tuple(termctx)):
        out = FProd(interp_type(depth, ty), out)
    return out


# ---------------------------------------------------------------------------
# terms as transformations
# ---------------------------------------------------------------------------

def interp_term(tyctx_depth: int, termctx: Sequence[sf.Type], t: sf.Term,
                u: ProbeUniverse) -> NatRep:
    """Interpret a typing derivation as a fiber morphism.

    The result runs from the interpreted context to the interpreted
    type, over tyctx_depth slots.  Raises TypecheckError on ill-typed
    input and ClosureError when some type application argument
    evaluates outside the universe (close the universe first; see
    closure_for_term).
    """
    ctx = tuple(termctx)
    sf.typecheck(tyctx_depth, ctx, t)
    nat = _interp(tyctx_depth, ctx, t, u)
    pretty = sf.pretty_term(t, tyctx_depth, len(ctx))
    return replace(nat, name=f"interp({pretty})")


def _interp(n: int, ctx: tuple, t: sf.Term, u: ProbeUniverse) -> NatRep:
    ccc = FiberCcc(n, u)
    c = context_functor(n, ctx)
    match t:
        case sf.Var(i):
            nat = None
            cur = c
            for _ in range(i):
                step = ccc.p2(cur.left, cur.right)
                nat = step if nat is None else nat_compose(step, nat)
                cur = cur.right
            head = ccc.p1(cur.left, cur.right)
            return head if nat is None else nat_compose(head, nat)
        case sf.Lam(annot, body):
            a = interp_type(n, annot)
            inner = _interp(n, (annot,) + ctx, body, u)
            return ccc.lam(nat_compose(inner, ccc.swap(c, a)))
        case sf.App(f, x):
            nf = _interp(n, ctx, f, u)
            nx = _interp(n, ctx, x, u)
            arr = nf.target
            return nat_compose(ccc.ev(arr.dom, arr.cod), ccc.pair(nf, nx))
        case sf.Pair(l, r):
            return ccc.pair(_interp(n, ctx, l, u), _interp(n, ctx, r, u))
        case sf.Fst(b):
            nb = _interp(n, ctx, b, u)
            return nat_compose(ccc.p1(nb.target.left, nb.target.right), nb)
        case sf.Snd(b):
            nb = _interp(n, ctx, b, u)
            return nat_compose(ccc.p2(nb.target.left, nb.target.right), nb)
        case sf.UnitV():
            return ccc.bang(c)
        case sf.TyLam(body):
            shifted = tuple(sf.shift_type(ty, 1) for ty in ctx)
            inner = _interp(n + 1, shifted, body, u)
            return transpose(c, inner.target, inner, u)
        case sf.TyApp(f, argty):
            nf = _interp(n, ctx, f, u)
            arg = interp_type(n, argty)
            _require_probe_values(t, arg, argty, n, u)
            m = ctx_pair(ctx_id(n), CtxMor(n, 1, (arg,)))
            inst = reindex(m, counit(nf.target.body, u))
            return nat_compose(inst, nf)
    raise TypeError(f"not a term: {t!r}")


def _require_probe_values(t: sf.Term, arg: TypeFunctor, argty: sf.Type,
                          depth: int, u: ProbeUniverse) -> None:
    """Instantiation looks family entries up at the argument's values,
    so those must be probes at both levels; failing eagerly here names
    the offending instantiation instead of some component later."""
    for level, index in ((0, u.index0), (1, u.index1)):
        for env in probe_envs(u, depth, level):
            if evaluate(arg, env, u) not in index:
                raise ClosureError(
                    f"cannot instantiate {sf.pretty_term(t, depth)}: argument "
                    f"{sf.pretty_type(argty, depth)} evaluates outside the "
                    f"probe universe at level {level}, {fib._env_tag(env)}")


def collect_tyapp_args(t: sf.Term) -> list[tuple[int, sf.Type]]:
    """Every type application argument with its binder depth."""
    out: list[tuple[int, sf.Type]] = []

    def go(term: sf.Term, d: int) -> None:
        match term:
            case sf.Var(_) | sf.UnitV():
                pass
            case sf.Lam(_, body) | sf.Fst(body) | sf.Snd(body):
                go(body, d)
            case sf.App(f, x):
                go(f, d)
                go(x, d)
            case sf.Pair(l, r):
                go(l, d)
                go(r, d)
            case sf.TyLam(body):
                go(body, d + 1)
            case sf.TyApp(f, arg):
                go(f, d)
                out.append((d, arg))
            case _:
                raise TypeError(f"not a term: {term!r}")

    go(t, 0)
    return out


def closure_for_term(t: sf.Term, seed: ProbeUniverse) -> ClosureResult:
    """Grow a universe until every instantiation in t reads inside it."""
    args = [interp_type(d, ty) for d, ty in collect_tyapp_args(t)]
    return universe_closure(args, seed)


# ---------------------------------------------------------------------------
# equality extension
# ---------------------------------------------------------------------------

def iel_check(ty: sf.Type, u: ProbeUniverse) -> Report:
    """Equality environments land on equality: the identity extension lemma.

    At every probe object environment, the comparison from the
    equality on the level-0 value to the level-1 value at equalities
    must exist (every equal pair is related there), have identity legs
    and be an iso, i.e. relate nothing but equal pairs.  The law names
    keep the paper's witness vocabulary: "witness action is a
    bijection" is that iso, and "witness sets match" compares the
    numbers of related pairs on the two sides.
    """
    report = Report()
    depth = free_depth(ty)
    f = interp_type(depth, ty)
    pretty = sf.pretty_type(ty, depth)
    for env in probe_envs(u, depth, 0):
        tag = f"{pretty} at {fib._env_tag(env)}"
        try:
            eps = epsilon_of(f, env.entries, u)
        except ClosureError as exc:
            report.add(f"iel {tag}: comparison exists", False, str(exc))
            continue
        legs = eps.f.is_identity and eps.g.is_identity
        report.add(f"iel {tag}: element and face maps are identities", legs,
                   "" if legs else f"legs {eps.f.table} / {eps.g.table}")
        report.add(f"iel {tag}: witness action is a bijection", eps.is_iso,
                   "" if eps.is_iso else "comparison is not invertible")
        ns, nt = len(eps.src.entries), len(eps.tgt.entries)
        report.add(f"iel {tag}: witness sets match", ns == nt,
                   f"|Eq| = {ns}, |value at Eq| = {nt}")
    return report


# ---------------------------------------------------------------------------
# relatedness of interpreted terms
# ---------------------------------------------------------------------------

def abstraction_check(t: sf.Term, u: ProbeUniverse,
                      rel_env: Sequence[PropRel] = ()) -> Report:
    """Face conditions for a closed term at chosen probe relations.

    The universe is extended by rel_env (with any missing carriers and
    their equalities) and re-closed for t's instantiations.  The
    interpreted term is validated there: naturality, the existence of
    each level-1 component (forced by the level-0 ones at its faces),
    and the degeneracy squares saying components at equalities are the
    equalities of the level-0 components modulo the comparison isos.
    A quantified term moreover denotes one family, which must carry
    every supplied relation; those findings name the element maps the
    relation pins down.
    """
    report = Report()
    base = u.extended(relations=rel_env)
    res = closure_for_term(t, base)
    if not res.ok:
        # Closure-exceeded is a refusal to interpret, not a refutation;
        # record it as a skip and leave the term to the erased checker.
        report.skip("universe closure for the term",
                    res.reason or "closure exceeded")
        return report
    uu = res.universe
    nat = interp_term(0, (), t, uu)
    validate_nat(nat, report)
    if isinstance(nat.target, FForall):
        seed = evaluate(nat.source, EnvL(0, ()), uu)
        fam = nat.at(EnvL(0, ()))(seed.elements[0])
        body = nat.target.body
        for r in rel_env:
            lhs = fam[1][uu.index0[r.dom]]
            rhs = fam[1][uu.index0[r.cod]]
            val = evaluate(body, EnvL(1, (r,)), uu)
            report.add(f"{nat.name} carries {_rel_tag(r)}", val.holds(lhs, rhs),
                       f"components {lhs!r} and {rhs!r}")
    return report


def _pairs_tag(r: PropRel) -> str:
    return "{" + ",".join(f"({a},{b})" for a, b in r.entries) + "}"


def _carrier_tag(a: tuple) -> str:
    return "{" + ",".join(map(str, a)) + "}"


def _rel_tag(r: PropRel) -> str:
    return (f"{_pairs_tag(r)} on {_carrier_tag(r.dom.elements)}"
            f"->{_carrier_tag(r.cod.elements)}")


# ---------------------------------------------------------------------------
# erased-term checking
# ---------------------------------------------------------------------------
#
# Carrier elements become opaque free variables far above any bound
# index: element k of quantifier slot s is UVar(ATOM_BASE + 1024*s + k).
# De Bruijn substitution keeps free indices coherent, and comparisons
# only ever happen at the top level after full application, where no
# binders enclose the atoms, so equality of normal forms is equality
# of atoms.

ATOM_BASE = 10_000
_SLOT_STRIDE = 1024
_STUCK = object()


def _atom(slot: int, k: int) -> sf.UVar:
    return sf.UVar(ATOM_BASE + _SLOT_STRIDE * slot + k)


def _atom_value(t, slot: int, side: tuple):
    """Decode a normal form as an element of `side`, or _STUCK."""
    if isinstance(t, sf.UVar) and t.index >= ATOM_BASE:
        s, k = divmod(t.index - ATOM_BASE, _SLOT_STRIDE)
        if s == slot and k < len(side):
            return side[k]
    return _STUCK


def _enumerate_related(ty: sf.Type, rho: Sequence[PropRel]):
    """All related argument pairs at a type, already encoded.

    rho holds one relation per quantifier slot.  None means the position
    is not finitely enumerable from them (arrow or quantified arguments).
    """
    match ty:
        case sf.TVar(i):
            slot = len(rho) - 1 - i
            slot_rel = rho[slot]
            li = {a: k for k, a in enumerate(slot_rel.dom.elements)}
            ri = {b: k for k, b in enumerate(slot_rel.cod.elements)}
            return [(_atom(slot, li[a]), _atom(slot, ri[b]))
                    for a, b in slot_rel.entries]
        case sf.UnitT():
            return [(sf.UUnit(), sf.UUnit())]
        case sf.ProdT(l, r):
            ls = _enumerate_related(l, rho)
            rs = _enumerate_related(r, rho)
            if ls is None or rs is None:
                return None
            return [(sf.UPair(la, ra), sf.UPair(lb, rb))
                    for (la, lb), (ra, rb) in itertools.product(ls, rs)]
        case sf.ArrowT(_, _) | sf.ForallT(_):
            return None
    raise TypeError(f"not a type: {ty!r}")


def _check_related(ty: sf.Type, rho: Sequence[PropRel], lhs, rhs,
                   skips: list) -> Optional[str]:
    """None when the two normal forms are related; else a counterexample."""
    match ty:
        case sf.TVar(i):
            slot = len(rho) - 1 - i
            slot_rel = rho[slot]
            a = _atom_value(lhs, slot, slot_rel.dom.elements)
            b = _atom_value(rhs, slot, slot_rel.cod.elements)
            if a is _STUCK or b is _STUCK:
                return f"values are not carrier atoms: {lhs!r} / {rhs!r}"
            if not slot_rel.holds(a, b):
                return f"({a!r}, {b!r}) is not in the relation"
            return None
        case sf.UnitT():
            return None
        case sf.ProdT(l, r):
            if not (isinstance(lhs, sf.UPair) and isinstance(rhs, sf.UPair)):
                return f"values are not pairs: {lhs!r} / {rhs!r}"
            return (_check_related(l, rho, lhs.left, rhs.left, skips)
                    or _check_related(r, rho, lhs.right, rhs.right, skips))
        case sf.ArrowT(d, c):
            args = _enumerate_related(d, rho)
            if args is None:
                skips.append(f"argument type {sf.pretty_type(d, len(rho))} "
                             "is not finitely enumerable from the instances")
                return None
            for ua, ub in args:
                la = sf.unormalize(sf.UApp(lhs, ua))
                rb = sf.unormalize(sf.UApp(rhs, ub))
                why = _check_related(c, rho, la, rb, skips)
                if why is not None:
                    return f"at arguments ({ua!r}, {ub!r}): {why}"
            return None
        case sf.ForallT(_):
            skips.append("nested quantifier is not instantiated "
                         "by the erased checker")
            return None
    raise TypeError(f"not a type: {ty!r}")


_ID_SHAPE = sf.ForallT(sf.ArrowT(sf.TVar(0), sf.TVar(0)))
_CHOOSE_SHAPE = sf.ForallT(sf.ArrowT(sf.TVar(0),
                                     sf.ArrowT(sf.TVar(0), sf.TVar(0))))


def free_theorem_check(t: sf.Term,
                       relations: Optional[Sequence[PropRel]] = None) -> Report:
    """Check the erased term against the relational reading of its type.

    The carriers are {0}, {0,1}, {0,1,2} and {0,1,2,3}.  Without
    explicit relations, the singleton diagonals {(a, a)} of every
    carrier stand in; they are the instances that pin elementwise
    behavior.  The two flagship quantified shapes also get a verdict
    finding computed by direct normalization: "identity" for the
    one-argument shape, a projection classification for the
    two-argument one.  May raise FuelExhausted on runaway terms.
    """
    report = Report()
    ty = sf.typecheck(0, (), t)
    if not isinstance(ty, sf.ForallT):
        raise ValueError("free theorems want a quantified type")
    er = sf.unormalize(sf.erase(t))
    sets = [tuple(range(k)) for k in (1, 2, 3, 4)]

    if ty == _ID_SHAPE:
        bad = ""
        for a in sets:
            mism = ""
            for k, x in enumerate(a):
                out = sf.unormalize(sf.UApp(er, _atom(0, k)))
                if out != _atom(0, k):
                    mism = f"image of {x!r} is {out!r}"
                    break
            report.add(f"acts as the identity on {_carrier_tag(a)}",
                       not mism, mism)
            if mism and not bad:
                bad = f"{_carrier_tag(a)}: {mism}"
        report.add("verdict", not bad,
                   "identity" if not bad else f"unclassified: {bad}")
    elif ty == _CHOOSE_SHAPE:
        overall = {"first", "second"}
        cex = ""
        for a in sets:
            local = {"first", "second"}
            for i, x in enumerate(a):
                for j, y in enumerate(a):
                    out = sf.unormalize(
                        sf.UApp(sf.UApp(er, _atom(0, i)), _atom(0, j)))
                    if out != _atom(0, i):
                        local.discard("first")
                    if out != _atom(0, j):
                        local.discard("second")
                    if not local and not cex:
                        cex = f"image of ({x!r}, {y!r}) is {out!r}"
            report.add(f"projects one argument on {_carrier_tag(a)}",
                       bool(local), cex if not local else "")
            overall &= local
        if not overall:
            report.add("verdict", False, f"unclassified: {cex}")
        elif len(overall) == 2:
            report.add("verdict", True,
                       "projection (carriers too small to tell which)")
        else:
            report.add("verdict", True, f"{overall.pop()} projection")

    slots = 0
    body = ty
    while isinstance(body, sf.ForallT):
        body = body.body
        slots += 1
    if relations is None:
        relations = [rel(fin_set(a), fin_set(a), [(x, x)])
                     for a in sets for x in a]
    for combo in itertools.product(relations, repeat=slots):
        skips: list[str] = []
        why = _check_related(body, combo, er, er, skips)
        tag = "*".join(_pairs_tag(r) for r in combo)
        report.add(f"related to itself at {tag}", why is None, why or "")
        for reason in skips:
            report.skip(f"related to itself at {tag}", reason)
    return report

