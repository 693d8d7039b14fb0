"""The frozen verdict rows of the checkers and law suites.

verdict_rows.json holds every (law, status, detail) row of:

* abstraction_check and iel_check on each corpus definition, and
  free_theorem_check on each quantified one;
* fibration_suite(policy, bound, rounds=1) for every policy at bounds 1-2;
* validate_rg on the REY bound-2 instance, associativity sampled;
* build_instance(policy, bound) for every policy at bounds 1-2, as a
  sha256 of its tables and selection plus each level's sizes;
* equality_suite over the bound-2 cube universe, and that universe's
  squares and square morphisms as a sha256 of their reprs plus counts.

The tests that run these reports compare them with the file, so a
refactor that moves a single row fails tier-1.  Regenerate the file only
when a verdict is meant to change, and say why in the change:

    PYTHONPATH=src python tests/verdict_rows.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib

from param_workbench import systemf as sf

HERE = pathlib.Path(__file__).resolve().parent
PATH = HERE / "verdict_rows.json"
CORPUS = HERE.parent / "corpus"
FIB_BOUNDS = (1, 2)
INSTANCE_BOUNDS = (1, 2)
ASSOC_LIMIT = 20_000
CUBE_BOUND = 2


def corpus_defs() -> dict:
    return {d.name: d for path in sorted(CORPUS.glob("*.sysf"))
            for d in sf.parse_program(path.read_text())}


def quantified(defs: dict) -> list:
    return sorted(n for n, d in defs.items() if isinstance(d.declared, sf.ForallT))


def rows(report) -> list:
    return [[f.law, f.status, f.detail] for f in report.findings]


@functools.cache
def _frozen() -> dict:
    return json.loads(PATH.read_text(encoding="utf-8"))


def frozen(key: str) -> list:
    return _frozen()[key]


def fib_key(policy, bound: int) -> str:
    return f"fibration_suite:{policy.name.lower()}:{bound}"


def instance_key(policy, bound: int) -> str:
    return f"build_instance:{policy.name.lower()}:{bound}"


def instance_rows(rg, sub) -> list:
    """A sha256 over the repr of both levels' (objects, morphisms,
    identity, compose), the face and degeneracy maps and the repr-sorted
    selections, then one [level, objects, morphisms, composites] row per
    level.  The tables are canonically ordered, so the digest depends
    neither on construction order nor on the hash seed."""
    levels = (rg.level0, rg.level1)
    parts = [(c.objects, c.morphisms, c.identity, c.compose) for c in levels]
    parts += [(f.obj_map, f.mor_map)
              for f in (rg.face_top, rg.face_bot, rg.degen)]
    parts += [sorted(map(repr, sel)) for sel in (sub.selected0, sub.selected1)]
    digest = hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()
    return [["sha256", digest]] + [
        [f"level{i}", len(c.objects), len(c.morphisms), len(c.compose)]
        for i, c in enumerate(levels)]


def square_rows(universe) -> list:
    """A sha256 over the reprs of every square construction on every
    relation of universe, then of every construction's action on the
    equality image of every function, with both counts.  Reprs are
    built from canonically ordered tables, so the digest does not
    depend on the hash seed."""
    from param_workbench import cubemodel as cm

    squares = [repr(cm.square_on(tag, r))
               for tag in cm.SQUARE_TAGS for r in universe.relations]
    mors = [repr(cm.square_mor_on(tag, cm.eq_wmor(u)))
            for tag in cm.SQUARE_TAGS for u in universe.functions]
    digest = hashlib.sha256("\n".join(squares + mors).encode("utf-8")).hexdigest()
    return [["sha256", digest], ["squares", len(squares)],
            ["square_morphisms", len(mors)]]


def reports():
    """Each key of the file with a thunk that computes its rows, in file
    order.  Listing the keys parses the corpus but runs no report."""
    from param_workbench import cubemodel as cm
    from param_workbench import fibration as fib
    from param_workbench import finmodel as fm
    from param_workbench import interp
    from param_workbench import rgalg

    defs = corpus_defs()
    for name, d in sorted(defs.items()):
        yield f"abstraction_check:{name}", lambda d=d: rows(
            interp.abstraction_check(d.term, u=fib.default_universe()))
        yield f"iel_check:{name}", lambda d=d: rows(
            interp.iel_check(d.declared, u=fib.default_universe()))
    for name in quantified(defs):
        yield f"free_theorem_check:{name}", lambda d=defs[name]: rows(
            interp.free_theorem_check(d.term))
    for policy in fm.IsoPolicy:
        for bound in FIB_BOUNDS:
            yield fib_key(policy, bound), lambda p=policy, b=bound: rows(
                fib.fibration_suite(p, b, rounds=1))
    yield "validate_rg:rey:2", lambda: rows(rgalg.validate_rg(
        *fm.build_instance(fm.IsoPolicy.REY, 2), assoc_limit=ASSOC_LIMIT))
    for policy in fm.IsoPolicy:
        for bound in INSTANCE_BOUNDS:
            yield instance_key(policy, bound), lambda p=policy, b=bound: (
                instance_rows(*fm.build_instance(p, b)))
    yield f"equality_suite:{CUBE_BOUND}", lambda: rows(
        cm.equality_suite(cm.cube_universe(CUBE_BOUND)))
    yield f"squares:{CUBE_BOUND}", lambda: square_rows(cm.cube_universe(CUBE_BOUND))


def generate() -> dict:
    return {key: run() for key, run in reports()}


def dump(table: dict) -> str:
    """JSON with one row per line, so a moved row is a one-line diff."""
    def block(key, key_rows):
        lines = ",\n".join(json.dumps(r, ensure_ascii=False) for r in key_rows)
        return f"{json.dumps(key)}: [\n{lines}\n]"
    return "{\n" + ",\n".join(block(k, v) for k, v in table.items()) + "\n}\n"


if __name__ == "__main__":
    PATH.write_text(dump(generate()), encoding="utf-8")
    print(f"wrote {PATH}")
