"""The three workloads: their set-up, their op lists and the verdicts
each op must reach.

An op is one call (or, for `church`, one pair of calls) through the
public API of `param_workbench`, timed from call to verdict.  The
expectations are written by hand from the paper; they are not read off
a run of the checkers.  This module imports `param_workbench` only
inside the set-up functions, so the parent process can read the
expectations without loading the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import church

ROOT = Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# corpus: every definition in corpus/*.sysf through the three checkers
# ---------------------------------------------------------------------------

# (file, definition, quantified type, free-theorem classification).
# Every report is expected to be ok.  The classifications are the
# paper's: the two Church booleans are the two projections, and every
# spelling of the polymorphic identity is the identity.
CORPUS = (
    ("church", "tru", True, "first projection"),
    ("church", "fls", True, "second projection"),
    ("church", "bnot", False, None),
    ("compose", "twice", True, None),
    ("compose", "to_unit", True, None),
    ("identity", "id", True, "identity"),
    ("identity", "id_inst", True, "identity"),
    ("identity", "id_redex", True, "identity"),
    ("pairs", "diag", True, None),
    ("pairs", "swap2", True, None),
    ("pairs", "first", True, None),
    ("pairs", "konst", True, None),
    ("pairs", "swap_units", False, None),
    ("selfapp", "polyid", True, "identity"),
    ("selfapp", "idid", True, "identity"),
    ("unit", "triv", False, None),
    ("unit", "pairu", False, None),
    ("unit", "mono_id", False, None),
    ("unit", "inst_unit", False, None),
    ("unit", "pick_fst", False, None),
    ("unit", "pick_fn", False, None),
)

# Ops too long for several passes to fit one run: at the parent commit
# abstraction_check(swap_units) takes ~24 s, iel_check(swap2) ~6 s and
# each of twice's two ~5 s.  abstraction_check(swap2) (~6 s, almost all
# of it in expo1) stays in as the pass's one long op, and so does
# free_theorem_check(twice), whose skipped findings it reports.
CORPUS_LEFT_OUT = {("abstraction_check", "swap_units"),
                   ("iel_check", "swap2"),
                   ("abstraction_check", "twice"),
                   ("iel_check", "twice")}

# ---------------------------------------------------------------------------
# laws: the acceptance suites over structures built once per pass
# ---------------------------------------------------------------------------

LAW_ROUNDS = 3
# validate_rg checks associativity exhaustively up to this many triples
# and samples this many beyond it.  Level 1 of build_instance(REY, 2)
# has 576,094 triples: exhaustively they take ~14 s of validate_rg's
# ~18 s, sampled ~0.5 s, and every other law is still checked in full.
ASSOC_LIMIT = 20_000
# fibration_suite is split into calls of FIB_ROUNDS rounds over fixed
# seeds: its cost per call is steady at these seeds, while some longer
# calls (seed 10 with 5 rounds or more) run for over 15 s.
FIB_SEEDS = tuple(range(20))
FIB_ROUNDS = 1
LAW_LONG_OPS = ("validate_rg", "law_suite", "equality_suite")


@dataclass
class Op:
    label: str
    run: Callable
    judge: Callable  # result -> (verdict, findings, skipped)


def _report_verdict(report) -> tuple:
    skipped = sum(1 for f in report.findings
                  if str(f.detail or "").startswith("skipped"))
    return ("ok" if report.ok else "fail"), len(report.findings), skipped


def _free_theorem_verdict(report) -> tuple:
    verdict, n, skipped = _report_verdict(report)
    labels = [f.detail for f in report.findings if f.law == "verdict"]
    if labels:
        verdict += "; " + "; ".join(labels)
    return verdict, n, skipped


def expected_ops(workload: str, seed: int) -> dict:
    """Op label -> the verdict it must reach, in pass order."""
    if workload == "corpus":
        out = {}
        for _, name, quantified, shape in CORPUS:
            for check in ("abstraction_check", "iel_check"):
                if (check, name) not in CORPUS_LEFT_OUT:
                    out[f"{check}:{name}"] = "ok"
            if quantified:
                out[f"free_theorem_check:{name}"] = (
                    "ok" if shape is None else f"ok; {shape}")
        return out
    if workload == "laws":
        # the short fibration_suite calls are spread between the long
        # ops, so the per-op percentiles sample the whole pass
        out = {}
        for i, long_op in enumerate(LAW_LONG_OPS + ("",)):
            fib_seeds = FIB_SEEDS[5 * i:5 * i + 5]
            out.update({f"fibration_suite:{s}": "ok" for s in fib_seeds})
            if long_op:
                out[long_op] = "ok"
        return out
    if workload == "church":
        out = {}
        for p in church.draw(seed):
            out[f"normalize:{p['name']}"] = f"{p['value']},{p['value']}"
            if p["free_theorem"]:
                out[f"free_theorem_check:{p['name']}_id"] = "ok; identity"
        return out
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# set-up and op lists (run inside the pass process)
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int):
    """Everything a pass needs before its first op: parsing and
    generation, plus the shared structures for `laws`."""
    from param_workbench import finmodel as fm
    from param_workbench import rgalg
    from param_workbench import systemf as sf

    if workload == "corpus":
        defs = {}
        for path in sorted((ROOT / "corpus").glob("*.sysf")):
            for d in sf.parse_program(path.read_text()):
                defs[d.name] = d
        return defs
    if workload == "laws":
        rg, sub = fm.build_instance(fm.IsoPolicy.REY, 2)
        return {"rg": rg, "sub": sub, "probes": rgalg.Probes(rg),
                "functors": fm.stock_functors(rg, fm.IsoPolicy.REY, 2),
                "chains": fm.stock_nat_chains(rg, fm.IsoPolicy.REY, 2)}
    if workload == "church":
        programs = church.draw(seed)
        defs = sf.parse_program(church.program_source(programs))
        return {d.name: d for d in defs}
    raise ValueError(f"unknown workload {workload!r}")


def ops(workload: str, seed: int, state) -> list[Op]:
    from param_workbench import cubemodel as cm
    from param_workbench import fibration as fib
    from param_workbench import finmodel as fm
    from param_workbench import interp
    from param_workbench import rgalg
    from param_workbench import systemf as sf

    out = []
    if workload == "corpus":
        for label in expected_ops(workload, seed):
            check, name = label.split(":")
            d = state[name]
            if check == "abstraction_check":
                run = (lambda d=d: interp.abstraction_check(
                    d.term, u=fib.default_universe()))
                judge = _report_verdict
            elif check == "iel_check":
                run = (lambda d=d: interp.iel_check(
                    d.declared, u=fib.default_universe()))
                judge = _report_verdict
            else:
                run = lambda d=d: interp.free_theorem_check(d.term)
                judge = _free_theorem_verdict
            out.append(Op(label, run, judge))
        return out
    if workload == "laws":
        s = state
        runs = {
            "validate_rg": lambda: rgalg.validate_rg(s["rg"], s["sub"],
                                                     assoc_limit=ASSOC_LIMIT),
            "law_suite": lambda: rgalg.law_suite(
                s["rg"], s["sub"], s["functors"], s["chains"],
                rounds=LAW_ROUNDS, seed=seed, probes=s["probes"]),
            "equality_suite": lambda: cm.equality_suite(cm.cube_universe(2)),
        }
        for label in expected_ops(workload, seed):
            if label in runs:
                out.append(Op(label, runs[label], _report_verdict))
            else:
                fs = int(label.split(":")[1])
                out.append(Op(label, lambda fs=fs: fib.fibration_suite(
                    fm.IsoPolicy.REY, 2, seed=fs, rounds=FIB_ROUNDS),
                    _report_verdict))
        return out
    if workload == "church":
        def normal_forms(term):
            return sf.normalize(term), sf.unormalize(sf.erase(term))

        def decoded(nfs):
            typed, erased = nfs
            return (f"{church.decode(typed, True)},{church.decode(erased, False)}",
                    0, 0)

        for label in expected_ops(workload, seed):
            check, name = label.split(":")
            term = state[name].term
            if check == "normalize":
                out.append(Op(label, lambda t=term: normal_forms(t), decoded))
            else:
                out.append(Op(label, lambda t=term: interp.free_theorem_check(t),
                              _free_theorem_verdict))
        return out
    raise ValueError(f"unknown workload {workload!r}")
