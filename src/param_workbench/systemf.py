"""System F with de Bruijn binders: parsing, typechecking, normalization, erasure.

Terms are Church-style (lambdas carry full domain annotations), so
typechecking is syntax-directed. Both binder kinds use de Bruijn
indices; the pretty-printer regenerates fresh names. `normalize` and
`unormalize` share one NbE core.

Syntax nodes are interned (finmodel.hash_cons) and built by positional
fields only, so `==` is identity and the hash is the identity hash: a
normal form deeper than the recursion limit compares and hashes without
a walker, and prints through its stored repr.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .finmodel import hash_cons

DEFAULT_FUEL = 10**6


# ---------------------------------------------------------------------------
# Syntax
# ---------------------------------------------------------------------------

@hash_cons
class TVar:
    """Type variable (de Bruijn index, 0 = innermost binder)."""
    index: int


@hash_cons
class UnitT:
    """The unit type."""


@hash_cons
class ProdT:
    """Binary product type."""
    left: Type
    right: Type


@hash_cons
class ArrowT:
    """Function type."""
    dom: Type
    cod: Type


@hash_cons
class ForallT:
    """Universal type; body lives under one extra type binder."""
    body: Type


Type = Union[TVar, UnitT, ProdT, ArrowT, ForallT]


@hash_cons
class Var:
    index: int


@hash_cons
class Lam:
    annot: Type
    body: Term


@hash_cons
class App:
    fn: Term
    arg: Term


@hash_cons
class Pair:
    left: Term
    right: Term


@hash_cons
class Fst:
    body: Term


@hash_cons
class Snd:
    body: Term


@hash_cons
class UnitV:
    pass


@hash_cons
class TyLam:
    body: Term


@hash_cons
class TyApp:
    fn: Term
    arg: Type


Term = Union[Var, Lam, App, Pair, Fst, Snd, UnitV, TyLam, TyApp]


@hash_cons
class UVar:
    index: int


@hash_cons
class ULam:
    body: UntypedTerm


@hash_cons
class UApp:
    fn: UntypedTerm
    arg: UntypedTerm


@hash_cons
class UPair:
    left: UntypedTerm
    right: UntypedTerm


@hash_cons
class UFst:
    body: UntypedTerm


@hash_cons
class USnd:
    body: UntypedTerm


@hash_cons
class UUnit:
    pass


UntypedTerm = Union[UVar, ULam, UApp, UPair, UFst, USnd, UUnit]


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class SyntaxFError(Exception):
    """Parse failure with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class TypecheckError(Exception):
    """Typechecking failure; carries expected/actual where applicable."""

    def __init__(self, message: str, expected: Optional[Type] = None,
                 actual: Optional[Type] = None):
        if expected is not None and actual is not None:
            message = (f"{message}: expected {pretty_type(expected)}, "
                       f"got {pretty_type(actual)}")
        super().__init__(message)
        self.expected = expected
        self.actual = actual


class FuelExhausted(Exception):
    """More beta, type-beta and projection contractions than the fuel allows.
    System F is strongly normalizing: on well-typed input this signals a bug."""


# ---------------------------------------------------------------------------
# Scope checks and substitution
# ---------------------------------------------------------------------------

def type_well_scoped(ty: Type, depth: int) -> bool:
    """Every TVar index is strictly below the binder depth."""
    match ty:
        case TVar(i):
            return 0 <= i < depth
        case UnitT():
            return True
        case ProdT(l, r) | ArrowT(l, r):
            return type_well_scoped(l, depth) and type_well_scoped(r, depth)
        case ForallT(b):
            return type_well_scoped(b, depth + 1)
    raise TypeError(f"not a type: {ty!r}")


def shift_type(ty: Type, amount: int, cutoff: int = 0) -> Type:
    match ty:
        case TVar(i):
            return TVar(i + amount) if i >= cutoff else ty
        case UnitT():
            return ty
        case ProdT(l, r):
            return ProdT(shift_type(l, amount, cutoff), shift_type(r, amount, cutoff))
        case ArrowT(d, c):
            return ArrowT(shift_type(d, amount, cutoff), shift_type(c, amount, cutoff))
        case ForallT(b):
            return ForallT(shift_type(b, amount, cutoff + 1))
    raise TypeError(f"not a type: {ty!r}")


def subst_type(ty: Type, replacement: Type, target: int = 0) -> Type:
    """Substitute `replacement` for TVar(target) in ty, capture-avoiding."""
    match ty:
        case TVar(i):
            if i == target:
                return shift_type(replacement, target)
            return TVar(i - 1) if i > target else ty
        case UnitT():
            return ty
        case ProdT(l, r):
            return ProdT(subst_type(l, replacement, target),
                         subst_type(r, replacement, target))
        case ArrowT(d, c):
            return ArrowT(subst_type(d, replacement, target),
                          subst_type(c, replacement, target))
        case ForallT(b):
            return ForallT(subst_type(b, replacement, target + 1))
    raise TypeError(f"not a type: {ty!r}")


# ---------------------------------------------------------------------------
# Typechecking
# ---------------------------------------------------------------------------

def typecheck(tyctx_depth: int, termctx: tuple[Type, ...], t: Term) -> Type:
    """Return the unique type of t under the given contexts.

    termctx is indexed by de Bruijn level: termctx[0] is Var(0), the
    innermost binding. All annotations must be well-scoped under
    tyctx_depth; TyApp substitutes capture-avoidingly into the body
    of the forall.

    Runs over an explicit stack, as _normal_form does: a (term, type
    depth, context) item is checked, and a (None, n, rule) item
    replaces the last n types found with rule(*types).  A head's rule
    runs before its argument is checked, so errors come in the order
    of a left-to-right recursive descent.
    """
    todo: list = [(t, tyctx_depth, termctx)]
    out: list = []
    while todo:
        t, d, ctx = todo.pop()
        if t is None:
            out[len(out) - d:] = [ctx(*out[len(out) - d:])]
            continue
        match t:
            case Var(i):
                if not 0 <= i < len(ctx):
                    raise TypecheckError(f"unbound term variable {i}")
                out.append(ctx[i])
            case Lam(annot, body):
                if not type_well_scoped(annot, d):
                    raise TypecheckError("annotation escapes type context")
                todo += [(None, 1, lambda cod, a=annot: ArrowT(a, cod)),
                         (body, d, (annot,) + ctx)]
            case App(fn, arg):
                todo += [(None, 2, _apply_type), (arg, d, ctx),
                         (None, 1, _function_type), (fn, d, ctx)]
            case Pair(l, r):
                todo += [(None, 2, ProdT), (r, d, ctx), (l, d, ctx)]
            case Fst(b):
                todo += [(None, 1, lambda ty: _pair_type(ty, "fst").left),
                         (b, d, ctx)]
            case Snd(b):
                todo += [(None, 1, lambda ty: _pair_type(ty, "snd").right),
                         (b, d, ctx)]
            case UnitV():
                out.append(UnitT())
            case TyLam(body):
                shifted = tuple(shift_type(ty, 1) for ty in ctx)
                todo += [(None, 1, ForallT), (body, d + 1, shifted)]
            case TyApp(fn, arg):
                todo += [(None, 1, lambda ty, a=arg, d=d: _instantiate(ty, a, d)),
                         (fn, d, ctx)]
            case _:
                raise TypeError(f"not a term: {t!r}")
    return out[0]


def _function_type(ty: Type) -> ArrowT:
    if not isinstance(ty, ArrowT):
        raise TypecheckError("applying a non-function", actual=ty,
                             expected=ArrowT(UnitT(), UnitT()))
    return ty


def _apply_type(fn_ty: ArrowT, arg_ty: Type) -> Type:
    if arg_ty != fn_ty.dom:
        raise TypecheckError("argument type mismatch",
                             expected=fn_ty.dom, actual=arg_ty)
    return fn_ty.cod


def _pair_type(ty: Type, proj: str) -> ProdT:
    if not isinstance(ty, ProdT):
        raise TypecheckError(f"{proj} of a non-pair", actual=ty,
                             expected=ProdT(UnitT(), UnitT()))
    return ty


def _instantiate(fn_ty: Type, arg: Type, depth: int) -> Type:
    if not isinstance(fn_ty, ForallT):
        raise TypecheckError("type-applying a non-forall", actual=fn_ty,
                             expected=ForallT(TVar(0)))
    if not type_well_scoped(arg, depth):
        raise TypecheckError("type argument escapes type context")
    return subst_type(fn_ty.body, arg)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def normalize(t: Term, fuel: Optional[int] = None) -> Term:
    """Full beta-normal form. Reduces under binders; idempotent."""
    return _normal_form(t, fuel, typed=True)


def unormalize(t: UntypedTerm, fuel: Optional[int] = None) -> UntypedTerm:
    """Full normal form of an erased term; free variables stay free."""
    return _normal_form(t, fuel, typed=False)


# Normalization by evaluation (Berger & Schwichtenberg 1991). A value is a
# closure of a Lam, ULam or TyLam, a pair of thunks, UnitV() or UUnit(), a
# variable level (negative when free), or a neutral: a value and the ctor and
# argument (thunk, (type, tyenv) or None) of an elimination it cannot contract.

_Clo = namedtuple("_Clo", "lam env tyenv")
_TyClo = namedtuple("_TyClo", "body env tyenv")
_PairV = namedtuple("_PairV", "ctor left right")
_Neu = namedtuple("_Neu", "head ctor arg")


class _Thunk:
    """A term under its environments; `value` is set once it is forced."""
    __slots__ = ("term", "env", "tyenv", "value")

    def __init__(self, term, env: tuple, tyenv: tuple, value=None):
        self.term, self.env, self.tyenv, self.value = term, env, tyenv, value


def _memo(forced: list, v):
    for th in forced:
        th.value = v
    return v


def _eval(t, env: tuple, tyenv: tuple, fuel: list):
    """Weak head value of a term or thunk. Contractions and thunks in head
    position loop instead of recursing; each thunk entered gets the value."""
    forced: list = []
    while True:
        match t:
            case _Thunk() if t.value is None:
                forced.append(t)
                t, env, tyenv = t.term, t.env, t.tyenv
                continue
            case _Thunk():
                return _memo(forced, t.value)
            case Var(i) | UVar(i) if i < len(env):
                t = env[i]
                continue
            case Var(i) | UVar(i):
                return _memo(forced, len(env) - 1 - i)
            case Lam() | ULam():
                return _memo(forced, _Clo(t, env, tyenv))
            case TyLam(b):
                return _memo(forced, _TyClo(b, env, tyenv))
            case Pair(l, r) | UPair(l, r):
                pair = _PairV(type(t), _Thunk(l, env, tyenv), _Thunk(r, env, tyenv))
                return _memo(forced, pair)
            case UnitV() | UUnit():
                return _memo(forced, t)
            case App(f, x) | UApp(f, x):
                v, arg = _eval(f, env, tyenv, fuel), _Thunk(x, env, tyenv)
                if not isinstance(v, _Clo):
                    return _memo(forced, _Neu(v, type(t), arg))
                t, env, tyenv = v.lam.body, (arg,) + v.env, v.tyenv
            case TyApp(f, ty):
                v = _eval(f, env, tyenv, fuel)
                if not isinstance(v, _TyClo):
                    return _memo(forced, _Neu(v, TyApp, (ty, tyenv)))
                t, env, tyenv = v.body, v.env, ((ty, tyenv),) + v.tyenv
            case Fst(b) | UFst(b) | Snd(b) | USnd(b):
                v = _eval(b, env, tyenv, fuel)
                if not isinstance(v, _PairV):
                    return _memo(forced, _Neu(v, type(t), None))
                t = v.left if isinstance(t, (Fst, UFst)) else v.right
            case _:
                raise TypeError(f"not a term: {t!r}")
        fuel[0] -= 1  # one beta, type-beta or projection contraction
        if fuel[0] < 0:
            raise FuelExhausted("no normal form within fuel bound")


def _quote_type(ty: Type, tyenv: tuple, depth: int) -> Type:
    """ty under tyenv (levels and (type, tyenv) closures) at type depth `depth`."""
    match ty:
        case TVar(i) if i >= len(tyenv):
            return TVar(i + depth - len(tyenv))
        case TVar(i):
            v = tyenv[i]
            return TVar(depth - 1 - v) if isinstance(v, int) else _quote_type(*v, depth)
        case ProdT(l, r) | ArrowT(l, r):
            return type(ty)(_quote_type(l, tyenv, depth), _quote_type(r, tyenv, depth))
        case ForallT(b):
            return ForallT(_quote_type(b, (depth,) + tyenv, depth + 1))
    return ty


def _normal_form(t, fuel: Optional[int], typed: bool):
    """Evaluate t and read it back with a stack of (value or thunk, term
    depth, type depth) items and (None, n, build) ones that build from n outputs."""
    budget = [DEFAULT_FUEL if fuel is None else fuel]
    out: list = []
    todo: list = [(_Thunk(t, (), ()), 0, 0)]
    while todo:
        v, d, dd = todo.pop()
        if v is None:
            out[len(out) - d:] = [dd(*out[len(out) - d:])]
            continue
        v = _eval(v, (), (), budget) if isinstance(v, _Thunk) else v
        match v:
            case int():
                out.append((Var if typed else UVar)(d - 1 - v))
            case _Clo(lam, env, tyenv):
                x = _Thunk(None, (), (), d)
                build = (ULam if isinstance(lam, ULam)
                         else lambda b, a=_quote_type(lam.annot, tyenv, dd): Lam(a, b))
                todo += [(None, 1, build), (_Thunk(lam.body, (x,) + env, tyenv), d + 1, dd)]
            case _TyClo(body, env, tyenv):
                todo += [(None, 1, TyLam), (_Thunk(body, env, (dd,) + tyenv), d, dd + 1)]
            case _PairV(ctor, l, r):
                todo += [(None, 2, ctor), (r, d, dd), (l, d, dd)]
            case _Neu(head, ctor, None):
                todo += [(None, 1, ctor), (head, d, dd)]
            case _Neu(head, ctor, arg):
                todo += [(None, 2, ctor), (arg, d, dd), (head, d, dd)]
            case (ty, tyenv):  # the type argument of a stuck TyApp
                out.append(_quote_type(ty, tyenv, dd))
            case _:
                out.append(v)
    return out[0]


def erase(t: Term) -> UntypedTerm:
    """Forget types: TyLam/TyApp vanish, the term skeleton remains.

    Post-order over an explicit stack, as in iter_subterms: an untyped
    constructor waits on the stack under its children and is applied
    to their erasures once they are done.
    """
    todo: list = [t]
    done: list = []
    while todo:
        t = todo.pop()
        match t:
            case Var(i):
                done.append(UVar(i))
            case UnitV():
                done.append(UUnit())
            case TyLam(b) | TyApp(b, _):
                todo.append(b)
            case Lam(_, b):
                todo += (ULam, b)
            case Fst(b):
                todo += (UFst, b)
            case Snd(b):
                todo += (USnd, b)
            case App(f, x):
                todo += (UApp, x, f)
            case Pair(l, r):
                todo += (UPair, r, l)
            case type() if t in (UApp, UPair):
                right = done.pop()
                done.append(t(done.pop(), right))
            case type():
                done.append(t(done.pop()))
            case _:
                raise TypeError(f"not a term: {t!r}")
    return done.pop()


def term_size(t: Union[Term, UntypedTerm]) -> int:
    """Number of term nodes; types are not counted."""
    return sum(1 for _ in iter_subterms(t))


# ---------------------------------------------------------------------------
# Pretty-printing
# ---------------------------------------------------------------------------

def _ty_name(i: int) -> str:
    # a, b, ..., z, a1, b1, ...
    letter = chr(ord("a") + i % 26)
    return letter if i < 26 else f"{letter}{i // 26}"


def _tm_name(i: int) -> str:
    letter = chr(ord("x") + i % 3)
    return letter if i < 3 else f"{letter}{i // 3}"


def _render(task: tuple, parts) -> str:
    """Concatenate the pieces that parts(*task) splits a task into,
    depth first over an explicit stack: a piece is a string or a
    further task."""
    out: list = []
    todo: list = [task]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            todo += reversed(parts(*item))
    return "".join(out)


def _paren(wrap: bool, *parts) -> tuple:
    return ("(", *parts, ")") if wrap else parts


def pretty_type(ty: Type, depth: int = 0) -> str:
    def parts(ty: Type, d: int, prec: int) -> tuple:
        # prec: 0 = forall/arrow position, 1 = product, 2 = atom
        match ty:
            case TVar(i):
                return (_ty_name(d - 1 - i) if i < d else f"?{i}",)
            case UnitT():
                return ("unit",)
            case ArrowT(dom, c):
                return _paren(prec > 0, (dom, d, 1), " -> ", (c, d, 0))
            case ProdT(l, r):
                return _paren(prec > 1, (l, d, 2), " * ", (r, d, 1))
            case ForallT(b):
                return _paren(prec > 0, f"forall {_ty_name(d)}. ", (b, d + 1, 0))
        raise TypeError(f"not a type: {ty!r}")

    return _render((ty, depth, 0), parts)


def pretty_term(t: Term, ty_depth: int = 0, tm_depth: int = 0) -> str:
    def parts(t: Term, tyd: int, tmd: int, prec: int) -> tuple:
        # prec: 0 = binder position, 1 = application, 2 = atom
        match t:
            case Var(i):
                return (_tm_name(tmd - 1 - i) if i < tmd else f"?v{i}",)
            case UnitV():
                return ("()",)
            case Lam(a, b):
                head = f"\\{_tm_name(tmd)}:{pretty_type(a, tyd)}. "
                return _paren(prec > 0, head, (b, tyd, tmd + 1, 0))
            case TyLam(b):
                head = f"/\\{_ty_name(tyd)}. "
                return _paren(prec > 0, head, (b, tyd + 1, tmd, 0))
            case App(f, x):
                return _paren(prec > 1, (f, tyd, tmd, 1), " ", (x, tyd, tmd, 2))
            case TyApp(f, ty):
                arg = f" [{pretty_type(ty, tyd)}]"
                return _paren(prec > 1, (f, tyd, tmd, 1), arg)
            case Pair(l, r):
                return ("(", (l, tyd, tmd, 0), ", ", (r, tyd, tmd, 0), ")")
            case Fst(b):
                return _paren(prec > 1, "fst ", (b, tyd, tmd, 2))
            case Snd(b):
                return _paren(prec > 1, "snd ", (b, tyd, tmd, 2))
        raise TypeError(f"not a term: {t!r}")

    return _render((t, ty_depth, tm_depth, 0), parts)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<tylam>/\\)
  | (?P<lam>\\)
  | (?P<arrow>->)
  | (?P<unitval>\(\))
  | (?P<punct>[().,:*\[\]=])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
""", re.VERBOSE)

_KEYWORDS = {"forall", "unit", "fst", "snd"}


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise SyntaxFError(f"unexpected character {src[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind not in ("ws", "comment"):
            if kind == "ident" and text in _KEYWORDS:
                kind = text
            toks.append(_Tok(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    """Recursive descent over the token list.

    Binder names are resolved to de Bruijn indices against two scope
    stacks (innermost last). `defs` supplies closed terms for free
    identifiers, so corpus files can reference earlier definitions.
    """

    def __init__(self, toks: list[_Tok], defs: Optional[dict[str, Term]] = None):
        self.toks = toks
        self.pos = 0
        self.tyvars: list[str] = []
        self.tmvars: list[str] = []
        self.defs = defs or {}

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Tok:
        tok = self.next()
        if tok.kind != kind:
            raise SyntaxFError(f"expected {kind}, got {tok.text!r}", tok.line, tok.col)
        return tok

    def fail(self, msg: str) -> SyntaxFError:
        tok = self.peek()
        return SyntaxFError(msg, tok.line, tok.col)

    # types: arrow (right assoc) > product (right assoc) > atom

    def parse_type(self) -> Type:
        left = self.parse_prod_type()
        if self.peek().kind == "arrow":
            self.next()
            return ArrowT(left, self.parse_type())
        return left

    def parse_prod_type(self) -> Type:
        left = self.parse_atom_type()
        if self.peek().kind == "punct" and self.peek().text == "*":
            self.next()
            return ProdT(left, self.parse_prod_type())
        return left

    def parse_atom_type(self) -> Type:
        tok = self.peek()
        if tok.kind == "unit":
            self.next()
            return UnitT()
        if tok.kind == "forall":
            self.next()
            name = self.expect("ident").text
            self.expect_punct(".")
            self.tyvars.append(name)
            body = self.parse_type()
            self.tyvars.pop()
            return ForallT(body)
        if tok.kind == "ident":
            self.next()
            try:
                return TVar(self.tyvars[::-1].index(tok.text))
            except ValueError:
                raise SyntaxFError(f"unbound type variable {tok.text!r}",
                                   tok.line, tok.col) from None
        if tok.kind == "punct" and tok.text == "(":
            self.next()
            ty = self.parse_type()
            self.expect_punct(")")
            return ty
        raise self.fail(f"expected a type, got {tok.text!r}")

    def expect_punct(self, text: str) -> None:
        tok = self.next()
        if tok.kind != "punct" or tok.text != text:
            raise SyntaxFError(f"expected {text!r}, got {tok.text!r}", tok.line, tok.col)

    # terms: binders extend right; application and [T] are left-assoc;
    # fst/snd bind a prefix operand

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "lam":
            self.next()
            name = self.expect("ident").text
            self.expect_punct(":")
            annot = self.parse_type()
            self.expect_punct(".")
            self.tmvars.append(name)
            body = self.parse_term()
            self.tmvars.pop()
            return Lam(annot, body)
        if tok.kind == "tylam":
            self.next()
            name = self.expect("ident").text
            self.expect_punct(".")
            self.tyvars.append(name)
            body = self.parse_term()
            self.tyvars.pop()
            return TyLam(body)
        return self.parse_app_term()

    def parse_app_term(self) -> Term:
        t = self.parse_prefix_term()
        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.text == "[":
                self.next()
                ty = self.parse_type()
                self.expect_punct("]")
                t = TyApp(t, ty)
            elif self._starts_prefix_term(tok):
                t = App(t, self.parse_prefix_term())
            else:
                return t

    def _starts_prefix_term(self, tok: _Tok) -> bool:
        if tok.kind in ("ident", "fst", "snd", "unitval", "lam", "tylam"):
            return True
        return tok.kind == "punct" and tok.text == "("

    def parse_prefix_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "fst":
            self.next()
            return Fst(self.parse_prefix_term())
        if tok.kind == "snd":
            self.next()
            return Snd(self.parse_prefix_term())
        return self.parse_atom_term()

    def parse_atom_term(self) -> Term:
        tok = self.next()
        if tok.kind == "ident":
            try:
                rindex = self.tmvars[::-1].index(tok.text)
                return Var(rindex)
            except ValueError:
                pass
            if tok.text in self.defs:
                return self.defs[tok.text]
            raise SyntaxFError(f"unbound identifier {tok.text!r}", tok.line, tok.col)
        if tok.kind == "unitval":
            return UnitV()
        if tok.kind == "lam" or tok.kind == "tylam":
            self.pos -= 1
            return self.parse_term()
        if tok.kind == "punct" and tok.text == "(":
            t = self.parse_term()
            nxt = self.next()
            if nxt.kind == "punct" and nxt.text == ",":
                r = self.parse_term()
                self.expect_punct(")")
                return Pair(t, r)
            if nxt.kind == "punct" and nxt.text == ")":
                return t
            raise SyntaxFError(f"expected ',' or ')', got {nxt.text!r}", nxt.line, nxt.col)
        raise SyntaxFError(f"expected a term, got {tok.text!r}", tok.line, tok.col)


def parse_type_str(src: str) -> Type:
    p = _Parser(_tokenize(src))
    ty = p.parse_type()
    p.expect("eof")
    return ty


def parse_term_str(src: str, defs: Optional[dict[str, Term]] = None) -> Term:
    p = _Parser(_tokenize(src), defs)
    t = p.parse_term()
    p.expect("eof")
    return t


@dataclass(frozen=True)
class Definition:
    name: str
    declared: Type
    term: Term


def parse_program(src: str) -> list[Definition]:
    """Parse a .sysf file: one `name : T = t` per line.

    Blank lines and `#` comments are skipped. Later definitions may
    mention earlier ones by name; the closed term is inlined. Each
    definition is typechecked against its declared type.
    """
    defs: dict[str, Term] = {}
    out: list[Definition] = []
    for lineno, raw in enumerate(src.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, eq, body = line.partition("=")
        if not eq:
            raise SyntaxFError("expected 'name : T = t'", lineno, 1)
        name, colon, ty_src = head.partition(":")
        if not colon:
            raise SyntaxFError("expected ':' before the declared type", lineno, 1)
        name = name.strip()
        declared = parse_type_str(ty_src.strip())
        term = parse_term_str(body.strip(), defs)
        actual = typecheck(0, (), term)
        if actual != declared:
            raise TypecheckError(f"definition {name!r}", expected=declared,
                                 actual=actual)
        defs[name] = term
        out.append(Definition(name, declared, term))
    return out


def iter_subterms(t: Union[Term, UntypedTerm]) -> Iterator[Union[Term, UntypedTerm]]:
    """Every subterm in preorder, typed or erased, with an explicit stack."""
    todo = [t]
    while todo:
        t = todo.pop()
        yield t
        match t:
            case (Lam(_, b) | TyLam(b) | TyApp(b, _) | Fst(b) | Snd(b)
                  | ULam(b) | UFst(b) | USnd(b)):
                todo.append(b)
            case App(f, x) | Pair(f, x) | UApp(f, x) | UPair(f, x):
                todo += (x, f)
            case _ if not isinstance(t, (Var, UVar, UnitV, UUnit)):
                raise TypeError(f"not a term: {t!r}")
