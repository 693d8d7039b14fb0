"""Seeded Church-arithmetic programs for the `church` workload.

Programs are closed System F terms built from Church `add`, `mul` and
`exp` over the numerals 0..6, at most two operators deep, written as
`.sysf` source.  The draw is stratified by value, so every seed gives
the same programs per normal-form size band up to their spelling.

Generation is pure Python (the parent process uses it to compute the
expected values).  The decoders walk the public term dataclasses of
`param_workbench.systemf` without recursion, so decoding a deep normal
form cannot itself raise RecursionError.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict

NAT = "forall a. (a -> a) -> a -> a"
NUMERALS = range(7)
MAX_EXPONENT = 5

# (lowest value, highest value, programs drawn).  A Church numeral k
# normalizes to 2k + 4 nodes.  Every value from 1000 up raises
# RecursionError in both normalizers at the parent commit, after about
# 2 s, and every value up to 900 (the largest below 1000 that the
# grammar reaches) normalizes, so each seed draws the same number of
# known failures.  Narrow bands keep the pass time steady, since cost
# grows with value; the small bands are the largest so that most ops
# take milliseconds to tenths of a second.  Values 600..999 (1 to 2.5 s
# each) are not drawn, so that several passes fit one run; the normal
# forms that succeed still span 4 to 1,200 nodes.
BANDS = (
    (0, 15, 10),
    (16, 63, 12),
    (64, 199, 10),
    (200, 399, 2),
    (400, 599, 1),
    (1000, 1300, 1),
)
FREE_THEOREM_SHARE = 5  # every fifth program of a band is also wrapped

PRELUDE = [
    *(f"c{k} : {NAT} = /\\a. \\f:a -> a. \\x:a. " + "f (" * k + "x" + ")" * k
      for k in NUMERALS),
    f"add : ({NAT}) -> ({NAT}) -> {NAT} = "
    f"\\m:{NAT}. \\n:{NAT}. /\\a. \\f:a -> a. \\x:a. m [a] f (n [a] f x)",
    f"mul : ({NAT}) -> ({NAT}) -> {NAT} = "
    f"\\m:{NAT}. \\n:{NAT}. /\\a. \\f:a -> a. m [a] (n [a] f)",
    f"exp : ({NAT}) -> ({NAT}) -> {NAT} = "
    f"\\m:{NAT}. \\n:{NAT}. /\\a. n [a -> a] (m [a])",
]

_OPS = {
    "add": lambda m, n: m + n,
    "mul": lambda m, n: m * n,
    "exp": lambda m, n: m ** n,
}


def value(expr) -> int:
    if isinstance(expr, int):
        return expr
    op, left, right = expr
    return _OPS[op](value(left), value(right))


def source(expr) -> str:
    if isinstance(expr, int):
        return f"c{expr}"
    op, left, right = expr
    return f"{op} ({source(left)}) ({source(right)})"


def _pool() -> list:
    """Every expression of depth at most two whose value is at most the
    top band's ceiling, paired with its value, in a fixed order.

    `exp` takes numerals only and never sits under `mul`: normal-order
    reduction of `mul (exp 5 4) (add 1 0)` takes 20 s where the other
    spellings of 625 take about one, and so heavy a tail would make a
    pass's time depend more on the draw than on the code.
    """
    ceiling = BANDS[-1][1]
    leaves = [(k, k) for k in NUMERALS]

    def combine(ops, lefts, rights):
        out = []
        for op in ops:
            for (l, lv), (r, rv) in itertools.product(lefts, rights):
                if op == "exp" and rv > MAX_EXPONENT:
                    continue
                v = _OPS[op](lv, rv)
                if v <= ceiling:
                    out.append(((op, l, r), v))
        return out

    depth1 = combine(("add", "mul", "exp"), leaves, leaves)
    no_exp = [e for e in depth1 if e[0][0] != "exp"]
    depth2 = (combine(("add",), depth1, leaves + depth1)
              + combine(("add",), leaves, depth1)
              + combine(("mul",), no_exp, leaves + no_exp)
              + combine(("mul",), leaves, no_exp))
    return depth1 + depth2


def _slot(expr) -> tuple:
    """What every spelling of a program shares: its top operator and
    value if both operands are numerals, else its top operator and each
    operand's operator and value."""
    op, left, right = expr
    if isinstance(left, int) and isinstance(right, int):
        return (op, value(expr))
    return (op, _operand(left), _operand(right))


def _operand(expr) -> tuple:
    return ("c", expr) if isinstance(expr, int) else (expr[0], value(expr))


def draw(seed: int) -> list[dict]:
    """The seed's programs: name, expression source, expected value and
    whether the free-theorem checker also sees it.

    The slots (a program's shape and the values at its top two levels)
    are one fixed stratified sample of the pool; the seed picks each
    slot's spelling, the numerals that make those values.  Normal-order
    cost follows the slot closely (`mul` copies its left operand's
    work), so every seed's pass costs about the same while the terms
    differ.
    """
    pool = _pool()
    spellings = defaultdict(list)
    for expr, _ in pool:
        spellings[_slot(expr)].append(expr)
    slots = random.Random("church:slots")
    rng = random.Random(f"church:{seed}")
    programs = []
    for lo, hi, count in BANDS:
        band = [e for e in pool if lo <= e[1] <= hi]
        for k, (slot, v) in enumerate(slots.sample(band, count)):
            expr = rng.choice(spellings[_slot(slot)])
            programs.append({"name": f"p{len(programs)}", "expr": source(expr),
                             "value": v,
                             "free_theorem": k % FREE_THEOREM_SHARE == 0})
    return programs


def program_source(programs: list[dict]) -> str:
    """One `.sysf` file: the prelude, every program, and for the marked
    programs the identity-shaped wrapper `/\\a. \\x:a. N [a] (\\y:a. y) x`."""
    lines = list(PRELUDE)
    for p in programs:
        lines.append(f"{p['name']} : {NAT} = {p['expr']}")
        if p["free_theorem"]:
            lines.append(f"{p['name']}_id : forall a. a -> a = "
                         f"/\\a. \\x:a. {p['name']} [a] (\\y:a. y) x")
    return "\n".join(lines) + "\n"


def decode(nf, typed: bool):
    """The number a Church normal form denotes, or None.

    Accepts `/\\a. \\f. \\x. f (... (f x))` and its eta-short spelling
    `/\\a. \\f. f` for one; the erased form has no type abstraction.
    """
    from param_workbench import systemf as sf

    lam, app, var = (sf.Lam, sf.App, sf.Var) if typed else (sf.ULam, sf.UApp, sf.UVar)
    if typed:
        if not isinstance(nf, sf.TyLam):
            return None
        nf = nf.body
    if not isinstance(nf, lam):
        return None
    body = nf.body
    if isinstance(body, var):
        return 1 if body.index == 0 else None
    if not isinstance(body, lam):
        return None
    t, n = body.body, 0
    while isinstance(t, app):
        if not (isinstance(t.fn, var) and t.fn.index == 1):
            return None
        t, n = t.arg, n + 1
    return n if isinstance(t, var) and t.index == 0 else None


def nodes(t) -> int:
    """term_size of a term, counted without recursion."""
    from param_workbench import systemf as sf

    types = (sf.TVar, sf.UnitT, sf.ProdT, sf.ArrowT, sf.ForallT)
    count, todo = 0, [t]
    while todo:
        t = todo.pop()
        count += 1
        for name in ("body", "fn", "arg", "left", "right"):
            child = getattr(t, name, None)
            if child is not None and not isinstance(child, types):
                todo.append(child)
    return count
