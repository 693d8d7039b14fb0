"""Independent oracles the tests freeze expected values against.

The type oracle runs the declarative typing rules with environment
semantics: types evaluate to closures, foralls open with fresh atoms,
and equality is comparison of reified normal spines. No shifting and
no syntactic substitution anywhere, so agreement with the library's
shift/subst_type typechecker is evidence rather than tautology.
"""

from __future__ import annotations

import itertools
from typing import Optional

from param_workbench import cubemodel as cb
from param_workbench import fibration as fib
from param_workbench import systemf as sf
from param_workbench.finmodel import (FinFn, all_functions, apply_label, expo0,
                                      fn, fn_id, fn_label, label_key, prod_fn,
                                      rel, terminal0, try_rel_mor)
from param_workbench.rgalg import RgCategory, RgFunctorTab, RgNatTab

# Semantic types are tuples:
#   ("atom", level) | ("unit",) | ("prod", l, r) | ("arrow", d, c)
#   | ("forall", body_syntax, env)
# env maps a de Bruijn index to a semantic value; closure bodies stay
# syntactic until applied.


class OracleTypeError(Exception):
    pass


def ty_eval(ty, env):
    if isinstance(ty, sf.TVar):
        if ty.index >= len(env):
            raise OracleTypeError(f"type index {ty.index} escapes")
        return env[ty.index]
    if isinstance(ty, sf.UnitT):
        return ("unit",)
    if isinstance(ty, sf.ProdT):
        return ("prod", ty_eval(ty.left, env), ty_eval(ty.right, env))
    if isinstance(ty, sf.ArrowT):
        return ("arrow", ty_eval(ty.dom, env), ty_eval(ty.cod, env))
    if isinstance(ty, sf.ForallT):
        return ("forall", ty.body, env)
    raise TypeError(f"not a type: {ty!r}")


def ty_reify(v, depth):
    tag = v[0]
    if tag == "atom":
        return sf.TVar(depth - 1 - v[1])
    if tag == "unit":
        return sf.UnitT()
    if tag == "prod":
        return sf.ProdT(ty_reify(v[1], depth), ty_reify(v[2], depth))
    if tag == "arrow":
        return sf.ArrowT(ty_reify(v[1], depth), ty_reify(v[2], depth))
    if tag == "forall":
        opened = ty_eval(v[1], (("atom", depth),) + v[2])
        return sf.ForallT(ty_reify(opened, depth + 1))
    raise TypeError(f"not a semantic type: {v!r}")


def sem_equal(a, b, depth):
    return ty_reify(a, depth) == ty_reify(b, depth)


def _rules(t, tyenv, ctx, depth):
    if isinstance(t, sf.Var):
        if t.index >= len(ctx):
            raise OracleTypeError(f"unbound variable {t.index}")
        return ctx[t.index]
    if isinstance(t, sf.UnitV):
        return ("unit",)
    if isinstance(t, sf.Lam):
        dom = ty_eval(t.annot, tyenv)
        cod = _rules(t.body, tyenv, (dom,) + ctx, depth)
        return ("arrow", dom, cod)
    if isinstance(t, sf.App):
        fn = _rules(t.fn, tyenv, ctx, depth)
        arg = _rules(t.arg, tyenv, ctx, depth)
        if fn[0] != "arrow":
            raise OracleTypeError("application head is not an arrow")
        if not sem_equal(fn[1], arg, depth):
            raise OracleTypeError("argument type mismatch")
        return fn[2]
    if isinstance(t, sf.Pair):
        return ("prod", _rules(t.left, tyenv, ctx, depth),
                _rules(t.right, tyenv, ctx, depth))
    if isinstance(t, sf.Fst):
        body = _rules(t.body, tyenv, ctx, depth)
        if body[0] != "prod":
            raise OracleTypeError("fst of a non-product")
        return body[1]
    if isinstance(t, sf.Snd):
        body = _rules(t.body, tyenv, ctx, depth)
        if body[0] != "prod":
            raise OracleTypeError("snd of a non-product")
        return body[2]
    if isinstance(t, sf.TyLam):
        opened = _rules(t.body, (("atom", depth),) + tyenv, ctx, depth + 1)
        # re-close over the fresh atom so instantiation stays lazy
        return ("forall", ty_reify(opened, depth + 1), tyenv)
    if isinstance(t, sf.TyApp):
        fn = _rules(t.fn, tyenv, ctx, depth)
        if fn[0] != "forall":
            raise OracleTypeError("type application head is not a forall")
        return ty_eval(fn[1], (ty_eval(t.arg, tyenv),) + fn[2])
    raise TypeError(f"not a term: {t!r}")


def oracle_typecheck(t, tyctx_depth=0, termctx=()):
    """Declarative-rules type of t, reified to de Bruijn syntax."""
    tyenv = tuple(("atom", tyctx_depth - 1 - i) for i in range(tyctx_depth))
    ctx = tuple(ty_eval(ty, tyenv) for ty in termctx)
    return ty_reify(_rules(t, tyenv, ctx, tyctx_depth), tyctx_depth)


def all_wit_mors(src: cb.WitRel, tgt: cb.WitRel) -> list:
    """Every witnessed-relation morphism src -> tgt, by brute force.

    Enumerates all leg pairs and all witness assignments, keeping
    whatever the constructor accepts. Used to assert uniqueness claims
    by search rather than by the library's own solving code.
    """
    out = []
    triples = list(src.triples())
    for f in all_functions(src.dom, tgt.dom):
        for g in all_functions(src.cod, tgt.cod):
            choices = [tgt.wits(f(a), g(b)) for a, b, _ in triples]
            if not all(choices):
                continue
            for chosen in itertools.product(*choices):
                send = dict(zip(((a, b, w) for a, b, w in triples), chosen))
                out.append(cb.wit_mor(src, tgt, f, g, send))
    return out


def componentwise_families(u: fib.ProbeUniverse, body: sf.Type) -> list:
    """The families of the quantified one-slot body, by brute force.

    Every choice of one element of body's value per probe object is
    read as a transformation from the weakened unit into body.  A
    choice is kept, as a family label, when validate_nat passes: the
    definition of a transformation, searched exhaustively instead of
    built by the library's propagation.
    """
    def candidate(combo) -> fib.NatRep:
        def comp(env):
            x = combo[u.index0[env.entries[0]]]
            return fn(terminal0(), fib.evaluate(body, env, u), lambda _: x)

        return fib.NatRep(1, sf.UnitT(), body, comp, u, "candidate")

    choices = [fib.evaluate(body, fib.EnvL(0, (a,)), u).elements for a in u.objs0]
    return [("fam", combo) for combo in itertools.product(*choices)
            if fib.validate_nat(candidate(combo)).ok]


def fn_inverse(f: FinFn) -> FinFn:
    if not f.is_bijection:
        raise ValueError("not a bijection")
    return FinFn(f.cod, f.dom, tuple(sorted(((y, x) for x, y in f.table),
                                            key=lambda p: label_key(p[0]))))


def expo0_action(d, c):
    """The exponential's action on a pair of bijections, tabulated: every
    table lbl of (d.dom ⇒ c.dom) goes to c∘lbl∘d⁻¹."""
    back = fn_inverse(d)

    def go(lbl):
        return fn_label(fn(d.cod, c.cod, lambda x: c(apply_label(lbl, back(x)))))

    return fn(expo0(d.dom, c.dom), expo0(d.cod, c.cod), go)


def evaluate_mor(f: sf.Type, isos, u: fib.ProbeUniverse) -> FinFn:
    """A type's action on a tuple of level-0 bijections, one per slot,
    tabulated through the library's transport: the bijection between the
    type's values at the isos' domains and codomains."""
    isos = tuple(isos)
    if not all(isinstance(m, FinFn) and m.is_bijection for m in isos):
        raise ValueError("transports must be level-0 bijections")
    return fn(fib.evaluate(f, fib.EnvL(0, tuple(m.dom for m in isos)), u),
              fib.evaluate(f, fib.EnvL(0, tuple(m.cod for m in isos)), u),
              lambda x: fib.transport(f, isos, x, u))


def tabulated_action(f: sf.Type, isos: tuple, u: fib.ProbeUniverse):
    """A type's action on level-0 bijections, one whole table per node.

    A type variable TVar(i) is the iso of its slot, isos[-1-i]; a
    product is the parallel map, an arrow the conjugation of its whole
    function space, and a quantifier moves every family, each component
    by the body's table at that probe, the bound slot held fixed.  The
    library's transport moves one element structurally instead.
    """
    match f:
        case sf.TVar(i):
            return isos[-1 - i]
        case sf.UnitT():
            return fn_id(terminal0())
        case sf.ProdT(l, r):
            return prod_fn(tabulated_action(l, isos, u), tabulated_action(r, isos, u))
        case sf.ArrowT(d, c):
            return expo0_action(tabulated_action(d, isos, u),
                                tabulated_action(c, isos, u))
        case sf.ForallT(b):
            moves = [tabulated_action(b, isos + (fn_id(a),), u) for a in u.objs0]
            return fn(fib.forall0_value(b, tuple(i.dom for i in isos), u),
                      fib.forall0_value(b, tuple(i.cod for i in isos), u),
                      lambda fam: ("fam", tuple(m(c) for m, c in zip(moves, fam[1]))))
    raise TypeError(f"not a type: {f!r}")


def transpose2(q: cb.TwoRel) -> cb.TwoRel:
    """Flip a square across its main diagonal."""
    cells = [((a, c, b, d), (qq, p, s, r)) for (a, b, c, d), (p, qq, r, s) in q.cells]
    return cb.two_rel(q.left, q.top, q.right, q.bottom, cells)


def quadratic_inverses(cat) -> dict:
    """Two-sided inverses by scanning every morphism pair.

    The scan FinCategory.inverses made before it grouped candidates by
    hom-set; for each morphism it keeps the first inverse in mor_ids
    order.
    """
    out = {}
    for f in cat.mor_ids:
        s, t = cat.src[f], cat.tgt[f]
        for g in cat.mor_ids:
            if cat.src[g] != t or cat.tgt[g] != s:
                continue
            if (cat.comp.get((g, f)) == cat.id_of[s]
                    and cat.comp.get((f, g)) == cat.id_of[t]):
                out[f] = g
                break
    return out


def brute_expo1(r, s):
    """The level-1 exponential by exhaustive search.

    Tries every pair of functions between the carriers and keeps the
    pairs that carry each pair of r to a pair of s; rel() sorts the
    result, so nothing here depends on enumeration order.
    """
    related = [(fn_label(f), fn_label(g))
               for f in all_functions(r.dom, s.dom)
               for g in all_functions(r.cod, s.cod)
               if all(s.holds(f(a), g(b)) for a, b in r.entries)]
    return rel(expo0(r.dom, s.dom), expo0(r.cod, s.cod), related)


def brute_all_rel_mors(r, s):
    """Every relation morphism r -> s by trying each pair of legs, f
    then g, both in the function spaces' canonical order."""
    for f in all_functions(r.dom, s.dom):
        for g in all_functions(r.cod, s.cod):
            m = try_rel_mor(r, s, f, g)
            if m is not None:
                yield m


def graph_mor_count(h, k) -> int:
    """The number of relation morphisms graph(h) -> graph(k), in closed
    form over the left leg.

    (f, g) carries graph(h) into graph(k) iff g(h a) = k(f a) for every
    a.  So f qualifies iff k∘f is constant on each fiber of h; g is then
    forced on the image of h and free off it.
    """
    image = {y for _, y in h.table}
    free = len(k.cod) ** (len(h.cod) - len(image))
    return free * sum(len({(h(a), k(f(a))) for a in h.dom}) == len(image)
                      for f in all_functions(h.dom, k.dom))


def erases_to(t, u) -> bool:
    """The erasure relation by structural induction, independent of
    the erase function's recursion shape."""
    if isinstance(t, sf.TyLam):
        return erases_to(t.body, u)
    if isinstance(t, sf.TyApp):
        return erases_to(t.fn, u)
    if isinstance(t, sf.Var):
        return isinstance(u, sf.UVar) and u.index == t.index
    if isinstance(t, sf.UnitV):
        return isinstance(u, sf.UUnit)
    if isinstance(t, sf.Lam):
        return isinstance(u, sf.ULam) and erases_to(t.body, u.body)
    if isinstance(t, sf.App):
        return (isinstance(u, sf.UApp) and erases_to(t.fn, u.fn)
                and erases_to(t.arg, u.arg))
    if isinstance(t, sf.Pair):
        return (isinstance(u, sf.UPair) and erases_to(t.left, u.left)
                and erases_to(t.right, u.right))
    if isinstance(t, sf.Fst):
        return isinstance(u, sf.UFst) and erases_to(t.body, u.body)
    if isinstance(t, sf.Snd):
        return isinstance(u, sf.USnd) and erases_to(t.body, u.body)
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# reflexive-graph tables only the tests build: a projection, tuples of
# functors and of transformations, and mutants that break one entry on
# purpose
# ---------------------------------------------------------------------------

def proj_functor(rg: RgCategory, arity: int, i: int) -> RgFunctorTab:
    if not 0 <= i < arity:
        raise ValueError("projection index out of range")
    return RgFunctorTab(
        rg, arity, 1,
        obj0=lambda t: (t[i],), mor0=lambda t: (t[i],),
        obj1=lambda t: (t[i],), mor1=lambda t: (t[i],),
        eps=lambda t: (rg.level1.id_of[rg.degen.on_obj[t[i]]],),
        name=f"pr{arity}_{i}")


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


def tuple_nat(nats: list[RgNatTab]) -> RgNatTab:
    if not nats:
        raise ValueError("empty transformation tuples are not used")
    return RgNatTab(
        tuple_functor([n.src for n in nats]), tuple_functor([n.tgt for n in nats]),
        eta0=lambda t: tuple(x for n in nats for x in n.eta0(t)),
        eta1=lambda t: tuple(x for n in nats for x in n.eta1(t)),
        name="<" + ", ".join(n.name for n in nats) + ">")


def remap_tables(f: RgFunctorTab, **renamings) -> RgFunctorTab:
    """f with each named table (obj0, mor0, obj1 or mor1) followed by a
    renaming of single ids; an id a renaming lacks stays."""
    tabs = {n: getattr(f, n) for n in ("obj0", "mor0", "obj1", "mor1")}
    for n, ren in renamings.items():
        tabs[n] = lambda t, base=tabs[n], ren=ren: tuple(ren.get(x, x) for x in base(t))
    return RgFunctorTab(f.rg, f.arity_in, f.arity_out, **tabs, eps=f.eps,
                        name=f"{f.name}[!]")


def override_eps(f: RgFunctorTab, env: tuple, value: tuple) -> RgFunctorTab:
    base = f.eps
    return RgFunctorTab(
        f.rg, f.arity_in, f.arity_out, obj0=f.obj0, mor0=f.mor0,
        obj1=f.obj1, mor1=f.mor1,
        eps=lambda t: value if t == env else base(t),
        name=f"{f.name}[eps!]")


def override_nat_component(nat: RgNatTab, level: int, env: tuple,
                           value: tuple) -> RgNatTab:
    e0, e1 = nat.eta0, nat.eta1
    if level == 0:
        e0 = lambda t, _b=nat.eta0: value if t == env else _b(t)
    else:
        e1 = lambda t, _b=nat.eta1: value if t == env else _b(t)
    return RgNatTab(nat.src, nat.tgt, eta0=e0, eta1=e1, name=f"{nat.name}[!]")


# ---------------------------------------------------------------------------
# the printers with one recursive call per node: the library's
# explicit-stack printers must print what these print
# ---------------------------------------------------------------------------

def recursive_pretty_type(ty, depth=0):
    def go(ty, d, prec):
        # prec: 0 = forall/arrow position, 1 = product, 2 = atom
        match ty:
            case sf.TVar(i):
                return sf._ty_name(d - 1 - i) if i < d else f"?{i}"
            case sf.UnitT():
                return "unit"
            case sf.ArrowT(dom, c):
                s = f"{go(dom, d, 1)} -> {go(c, d, 0)}"
                return f"({s})" if prec > 0 else s
            case sf.ProdT(l, r):
                s = f"{go(l, d, 2)} * {go(r, d, 1)}"
                return f"({s})" if prec > 1 else s
            case sf.ForallT(b):
                s = f"forall {sf._ty_name(d)}. {go(b, d + 1, 0)}"
                return f"({s})" if prec > 0 else s
        raise TypeError(f"not a type: {ty!r}")

    return go(ty, depth, 0)


def recursive_pretty_term(t, ty_depth=0, tm_depth=0):
    def go(t, tyd, tmd, prec):
        # prec: 0 = binder position, 1 = application, 2 = atom
        match t:
            case sf.Var(i):
                return sf._tm_name(tmd - 1 - i) if i < tmd else f"?v{i}"
            case sf.UnitV():
                return "()"
            case sf.Lam(a, b):
                name, ann = sf._tm_name(tmd), recursive_pretty_type(a, tyd)
                s = f"\\{name}:{ann}. {go(b, tyd, tmd + 1, 0)}"
                return f"({s})" if prec > 0 else s
            case sf.TyLam(b):
                name = sf._ty_name(tyd)
                s = f"/\\{name}. {go(b, tyd + 1, tmd, 0)}"
                return f"({s})" if prec > 0 else s
            case sf.App(f, x):
                s = f"{go(f, tyd, tmd, 1)} {go(x, tyd, tmd, 2)}"
                return f"({s})" if prec > 1 else s
            case sf.TyApp(f, ty):
                s = f"{go(f, tyd, tmd, 1)} [{recursive_pretty_type(ty, tyd)}]"
                return f"({s})" if prec > 1 else s
            case sf.Pair(l, r):
                return f"({go(l, tyd, tmd, 0)}, {go(r, tyd, tmd, 0)})"
            case sf.Fst(b):
                s = f"fst {go(b, tyd, tmd, 2)}"
                return f"({s})" if prec > 1 else s
            case sf.Snd(b):
                s = f"snd {go(b, tyd, tmd, 2)}"
                return f"({s})" if prec > 1 else s
        raise TypeError(f"not a term: {t!r}")

    return go(t, ty_depth, tm_depth, 0)


# ---------------------------------------------------------------------------
# the typed small-step reference, with the substitutions it needs
# ---------------------------------------------------------------------------

def step(t):
    """One normal-order (leftmost-outermost) reduction step, or None."""
    match t:
        case sf.App(sf.Lam(_, body), arg):
            return subst_term(body, arg)
        case sf.TyApp(sf.TyLam(body), ty):
            return subst_type_in_term(body, ty)
        case sf.Fst(sf.Pair(l, _)):
            return l
        case sf.Snd(sf.Pair(_, r)):
            return r
        case sf.App(f, x):
            s = step(f)
            if s is not None:
                return sf.App(s, x)
            s = step(x)
            return None if s is None else sf.App(f, s)
        case sf.TyApp(f, ty):
            s = step(f)
            return None if s is None else sf.TyApp(s, ty)
        case sf.Lam(a, b):
            s = step(b)
            return None if s is None else sf.Lam(a, s)
        case sf.TyLam(b):
            s = step(b)
            return None if s is None else sf.TyLam(s)
        case sf.Pair(l, r):
            s = step(l)
            if s is not None:
                return sf.Pair(s, r)
            s = step(r)
            return None if s is None else sf.Pair(l, s)
        case sf.Fst(b):
            s = step(b)
            return None if s is None else sf.Fst(s)
        case sf.Snd(b):
            s = step(b)
            return None if s is None else sf.Snd(s)
        case sf.Var(_) | sf.UnitV():
            return None
    raise TypeError(f"not a term: {t!r}")


def shift_term(t, amount, cutoff=0):
    """Shift term variables only."""
    match t:
        case sf.Var(i):
            return sf.Var(i + amount) if i >= cutoff else t
        case sf.Lam(a, b):
            return sf.Lam(a, shift_term(b, amount, cutoff + 1))
        case sf.App(f, x):
            return sf.App(shift_term(f, amount, cutoff), shift_term(x, amount, cutoff))
        case sf.Pair(l, r):
            return sf.Pair(shift_term(l, amount, cutoff), shift_term(r, amount, cutoff))
        case sf.Fst(b):
            return sf.Fst(shift_term(b, amount, cutoff))
        case sf.Snd(b):
            return sf.Snd(shift_term(b, amount, cutoff))
        case sf.UnitV():
            return t
        case sf.TyLam(b):
            return sf.TyLam(shift_term(b, amount, cutoff))
        case sf.TyApp(f, ty):
            return sf.TyApp(shift_term(f, amount, cutoff), ty)
    raise TypeError(f"not a term: {t!r}")


def shift_term_types(t, amount, cutoff=0):
    """Shift type variables occurring in a term's annotations."""
    match t:
        case sf.Var(_) | sf.UnitV():
            return t
        case sf.Lam(a, b):
            return sf.Lam(sf.shift_type(a, amount, cutoff),
                          shift_term_types(b, amount, cutoff))
        case sf.App(f, x):
            return sf.App(shift_term_types(f, amount, cutoff),
                          shift_term_types(x, amount, cutoff))
        case sf.Pair(l, r):
            return sf.Pair(shift_term_types(l, amount, cutoff),
                           shift_term_types(r, amount, cutoff))
        case sf.Fst(b):
            return sf.Fst(shift_term_types(b, amount, cutoff))
        case sf.Snd(b):
            return sf.Snd(shift_term_types(b, amount, cutoff))
        case sf.TyLam(b):
            return sf.TyLam(shift_term_types(b, amount, cutoff + 1))
        case sf.TyApp(f, ty):
            return sf.TyApp(shift_term_types(f, amount, cutoff),
                            sf.shift_type(ty, amount, cutoff))
    raise TypeError(f"not a term: {t!r}")


def subst_term(t, replacement, target=0):
    match t:
        case sf.Var(i):
            if i == target:
                return shift_term(replacement, target)
            return sf.Var(i - 1) if i > target else t
        case sf.Lam(a, b):
            return sf.Lam(a, subst_term(b, replacement, target + 1))
        case sf.App(f, x):
            return sf.App(subst_term(f, replacement, target),
                          subst_term(x, replacement, target))
        case sf.Pair(l, r):
            return sf.Pair(subst_term(l, replacement, target),
                           subst_term(r, replacement, target))
        case sf.Fst(b):
            return sf.Fst(subst_term(b, replacement, target))
        case sf.Snd(b):
            return sf.Snd(subst_term(b, replacement, target))
        case sf.UnitV():
            return t
        case sf.TyLam(b):
            return sf.TyLam(subst_term(b, shift_term_types(replacement, 1), target))
        case sf.TyApp(f, ty):
            return sf.TyApp(subst_term(f, replacement, target), ty)
    raise TypeError(f"not a term: {t!r}")


def subst_type_in_term(t, replacement, target=0):
    match t:
        case sf.Var(_) | sf.UnitV():
            return t
        case sf.Lam(a, b):
            return sf.Lam(sf.subst_type(a, replacement, target),
                          subst_type_in_term(b, replacement, target))
        case sf.App(f, x):
            return sf.App(subst_type_in_term(f, replacement, target),
                          subst_type_in_term(x, replacement, target))
        case sf.Pair(l, r):
            return sf.Pair(subst_type_in_term(l, replacement, target),
                           subst_type_in_term(r, replacement, target))
        case sf.Fst(b):
            return sf.Fst(subst_type_in_term(b, replacement, target))
        case sf.Snd(b):
            return sf.Snd(subst_type_in_term(b, replacement, target))
        case sf.TyLam(b):
            return sf.TyLam(subst_type_in_term(b, replacement, target + 1))
        case sf.TyApp(f, ty):
            return sf.TyApp(subst_type_in_term(f, replacement, target),
                            sf.subst_type(ty, replacement, target))
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# the untyped small-step reference: one normal-order step at a time
# ---------------------------------------------------------------------------

def ustep(t):
    """One normal-order (leftmost-outermost) step of an erased term, or None."""
    match t:
        case sf.UApp(sf.ULam(body), arg):
            return usubst(body, arg)
        case sf.UFst(sf.UPair(l, _)):
            return l
        case sf.USnd(sf.UPair(_, r)):
            return r
        case sf.UApp(f, x):
            s = ustep(f)
            if s is not None:
                return sf.UApp(s, x)
            s = ustep(x)
            return None if s is None else sf.UApp(f, s)
        case sf.ULam(b):
            s = ustep(b)
            return None if s is None else sf.ULam(s)
        case sf.UPair(l, r):
            s = ustep(l)
            if s is not None:
                return sf.UPair(s, r)
            s = ustep(r)
            return None if s is None else sf.UPair(l, s)
        case sf.UFst(b):
            s = ustep(b)
            return None if s is None else sf.UFst(s)
        case sf.USnd(b):
            s = ustep(b)
            return None if s is None else sf.USnd(s)
        case sf.UVar(_) | sf.UUnit():
            return None
    raise TypeError(f"not an untyped term: {t!r}")


def ushift(t, amount, cutoff=0):
    match t:
        case sf.UVar(i):
            return sf.UVar(i + amount) if i >= cutoff else t
        case sf.ULam(b):
            return sf.ULam(ushift(b, amount, cutoff + 1))
        case sf.UApp(f, x):
            return sf.UApp(ushift(f, amount, cutoff), ushift(x, amount, cutoff))
        case sf.UPair(l, r):
            return sf.UPair(ushift(l, amount, cutoff), ushift(r, amount, cutoff))
        case sf.UFst(b):
            return sf.UFst(ushift(b, amount, cutoff))
        case sf.USnd(b):
            return sf.USnd(ushift(b, amount, cutoff))
        case sf.UUnit():
            return t
    raise TypeError(f"not an untyped term: {t!r}")


def usubst(t, replacement, target=0):
    match t:
        case sf.UVar(i):
            if i == target:
                return ushift(replacement, target)
            return sf.UVar(i - 1) if i > target else t
        case sf.ULam(b):
            return sf.ULam(usubst(b, replacement, target + 1))
        case sf.UApp(f, x):
            return sf.UApp(usubst(f, replacement, target), usubst(x, replacement, target))
        case sf.UPair(l, r):
            return sf.UPair(usubst(l, replacement, target), usubst(r, replacement, target))
        case sf.UFst(b):
            return sf.UFst(usubst(b, replacement, target))
        case sf.USnd(b):
            return sf.USnd(usubst(b, replacement, target))
        case sf.UUnit():
            return t
    raise TypeError(f"not an untyped term: {t!r}")


def iterate_steps(step, t, fuel):
    """Apply `step` until it returns None: the normal form, or None when
    more than `fuel` steps would be needed."""
    for _ in range(fuel + 1):
        s = step(t)
        if s is None:
            return t
        t = s
    return None
