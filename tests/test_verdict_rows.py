"""The frozen verdict table holds exactly the rows generate() writes, and
the rows do not depend on the heap layout or the hash seed."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import param_workbench
import verdict_rows

# recomputed in each child of the layout test
LAYOUT_KEYS = ("validate_rg:rey:2", "build_instance:rey:2", "build_instance:crey:2",
               "fibration_suite:rey:2", "abstraction_check:tru",
               "iel_check:pick_fst", "free_theorem_check:konst",
               "equality_suite:2", "squares:2")

# argv: the number of junk tuples to allocate first, then LAYOUT_KEYS as JSON
LAYOUT_CHILD = textwrap.dedent("""\
    import json, sys
    junk = [(i,) * (i % 7) for i in range(int(sys.argv[1]))]
    import verdict_rows
    from param_workbench import finmodel as fm, rgalg
    thunks = dict(verdict_rows.reports())
    rows = {key: thunks[key]() for key in json.loads(sys.argv[2])}
    rg, sub = fm.build_instance(fm.IsoPolicy.REY, 2)
    rank = {m: i for i, m in enumerate(rg.level1.mor_ids)}
    # two non-isos selected at each level: the one named must not follow
    # the selection's set order
    bad = [[m for m in cat.mor_ids if not cat.is_iso(m)][:2]
           for cat in (rg.level0, rg.level1)]
    rep = rgalg.Report()
    rgalg._check_iso_subcategory(rg, rgalg.IsoSubcategory(
        sub.selected0.union(bad[0]), sub.selected1.union(bad[1])), rep)
    print(json.dumps({
        "rows": rows,
        "set_order": [rank[m] for m in set(rg.level1.mor_ids)],
        "witnesses": [f.detail for f in rep.findings if "all isos" in f.law]}))
    """)


def test_frozen_keys_are_the_generated_keys():
    # a row whose checker or policy is gone fails here instead of lingering
    assert list(verdict_rows._frozen()) == [k for k, _ in verdict_rows.reports()]


def test_rows_do_not_depend_on_the_heap_layout(rey_instance):
    """Records hash by address, so set order changes with the heap layout
    and the hash seed.  Two children with different junk allocated before
    the import and different seeds must still reach the frozen rows."""
    src = str(Path(param_workbench.__file__).resolve().parent.parent)
    tests = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
    procs = [subprocess.Popen(
        [sys.executable, "-c", LAYOUT_CHILD, str(junk), json.dumps(LAYOUT_KEYS)],
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed})
        for junk, seed in ((0, "0"), (100_003, "4242"))]
    try:
        outs = [p.communicate(timeout=300)[0] for p in procs]
    finally:
        for p in procs:
            p.kill()
    assert [p.returncode for p in procs] == [0, 0]
    got = [json.loads(out.strip().splitlines()[-1]) for out in outs]

    # the perturbation bites: the same table, iterated as a set, differs
    assert got[0]["set_order"] != got[1]["set_order"]
    for child in got:
        for key in LAYOUT_KEYS:
            assert child["rows"][key] == verdict_rows.frozen(key), key
    rg, _ = rey_instance
    first = [next(m for m in cat.mor_ids if not cat.is_iso(m))
             for cat in (rg.level0, rg.level1)]
    assert [c["witnesses"] for c in got] == [
        [f"{m!r} is not an isomorphism" for m in first]] * 2
