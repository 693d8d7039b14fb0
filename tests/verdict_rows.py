"""The frozen verdict rows of the checkers and law suites.

verdict_rows.json holds every (law, status, detail) row of:

* abstraction_check and iel_check on each corpus definition, and
  free_theorem_check on each quantified one;
* fibration_suite(policy, bound, rounds=1) for every policy at bounds 1-2;
* validate_rg on the REY bound-2 instance, associativity sampled;
* build_instance(policy, bound) for every policy at bounds 1-2, as a
  sha256 of its tables and selection plus each level's sizes.

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


def generate() -> dict:
    from param_workbench import fibration as fib
    from param_workbench import finmodel as fm
    from param_workbench import interp
    from param_workbench import rgalg

    defs = corpus_defs()
    out = {}
    for name, d in sorted(defs.items()):
        out[f"abstraction_check:{name}"] = rows(
            interp.abstraction_check(d.term, u=fib.default_universe()))
        out[f"iel_check:{name}"] = rows(
            interp.iel_check(d.declared, u=fib.default_universe()))
    for name in quantified(defs):
        out[f"free_theorem_check:{name}"] = rows(
            interp.free_theorem_check(defs[name].term))
    for policy in fm.IsoPolicy:
        for bound in FIB_BOUNDS:
            out[fib_key(policy, bound)] = rows(
                fib.fibration_suite(policy, bound, rounds=1))
    rg, sub = fm.build_instance(fm.IsoPolicy.REY, 2)
    out["validate_rg:rey:2"] = rows(
        rgalg.validate_rg(rg, sub, assoc_limit=ASSOC_LIMIT))
    for policy in fm.IsoPolicy:
        for bound in INSTANCE_BOUNDS:
            out[instance_key(policy, bound)] = instance_rows(
                *fm.build_instance(policy, bound))
    return out


def dump(table: dict) -> str:
    """JSON with one row per line, so a moved row is a one-line diff."""
    def block(key, key_rows):
        lines = ",\n".join(json.dumps(r, ensure_ascii=False) for r in key_rows)
        return f"{json.dumps(key)}: [\n{lines}\n]"
    return "{\n" + ",\n".join(block(k, v) for k, v in table.items()) + "\n}\n"


if __name__ == "__main__":
    PATH.write_text(dump(generate()), encoding="utf-8")
    print(f"wrote {PATH}")
