"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import church  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

CHEAP = ("tru", "fls", "id", "id_inst", "id_redex", "polyid", "to_unit")


def _cheap_corpus_pass() -> tuple[dict, list]:
    """The corpus ops on CHEAP definitions, run in this process."""
    state = workloads.setup("corpus", 0)
    expected = {label: verdict
                for label, verdict in workloads.expected_ops("corpus", 0).items()
                if label.split(":")[1] in CHEAP}
    results = []
    for op in workloads.ops("corpus", 0, state):
        if op.label in expected:
            verdict, findings, skipped = op.judge(op.run())
            results.append({"op": op.label, "time_s": 0.0, "verdict": verdict,
                            "findings": findings, "skipped": skipped})
    return expected, results


def test_expectations_cover_the_corpus():
    expected = workloads.expected_ops("corpus", 0)
    assert len(expected) == 55 - len(workloads.CORPUS_LEFT_OUT)
    assert sum(q for _, _, q, _ in workloads.CORPUS) == 13
    assert expected["free_theorem_check:tru"] == "ok; first projection"
    assert expected["free_theorem_check:idid"] == "ok; identity"


def test_a_flipped_expectation_counts_as_failed():
    expected, results = _cheap_corpus_pass()
    assert run.judge(expected, results)["failed_ratio"] == 0
    flipped = dict(expected, **{"free_theorem_check:tru": "ok; second projection"})
    verdict = run.judge(flipped, results)
    assert verdict["failed_ratio"] > 0 and verdict["wrong"] == 1


def test_tracing_changes_no_verdict_and_restores_every_name():
    from param_workbench import fibration, finmodel, interp

    before = (interp.evaluate, fibration.expo1, finmodel.expo1,
              fibration.ProbeUniverse.memo_eval)
    _, plain = _cheap_corpus_pass()
    with tracing.Tracer() as t:
        assert interp.evaluate is not before[0]
        assert fibration.expo1 is finmodel.expo1 is not before[1]
        _, traced = _cheap_corpus_pass()
    assert (interp.evaluate, fibration.expo1, finmodel.expo1,
            fibration.ProbeUniverse.memo_eval) == before
    assert [r["verdict"] for r in traced] == [r["verdict"] for r in plain]
    assert [r["findings"] for r in traced] == [r["findings"] for r in plain]
    metrics = t.metrics()
    assert set(metrics) == set(tracing.metric_names())
    assert metrics["interp.abstraction_check.calls"] == 7
    assert metrics["rgalg.check_category.calls"] == 0
    assert metrics["fibration.memo_eval.calls"] > 0
    assert 0 < metrics["fibration.memo_eval.hit_ratio"] < 1
    assert all(parent < sid for sid, _, _, _, parent, _ in t.spans)


def test_church_draw_is_seeded_and_decodes():
    from param_workbench import systemf as sf

    assert church.draw(4) == church.draw(4) != church.draw(5)
    programs = church.draw(4)
    assert len(programs) == sum(c for _, _, c in church.BANDS)
    defs = {d.name: d for d in sf.parse_program(church.program_source(programs))}
    for p in programs:
        if p["value"] >= 1000:  # the known RecursionError
            continue
        term = defs[p["name"]].term
        assert church.decode(sf.normalize(term), True) == p["value"]
        erased = sf.unormalize(sf.erase(term))
        assert church.decode(erased, False) == p["value"]
        assert church.nodes(erased) == sf.term_size(erased)


def test_tail_percentile_leaves_ten_ops_beyond():
    times = [float(i) for i in range(54)]
    pct, value = run.tail(times)
    assert pct == 81 and 42 < value < 44
    assert abs(run.quantile(times, 0.5) - 26.5) < 1e-6


def test_run_metrics_take_each_ops_median_over_passes():
    def fake_pass(times, setup_s):
        ops = [{"op": f"o{i}", "time_s": t, "verdict": "ok", "findings": 1,
                "skipped": 0} for i, t in enumerate(times)]
        return {"ops": ops, "setup_s": setup_s, "peak_rss_mib": 20.0}

    passes = [fake_pass([1.0] * 10 + [5.0, 9.0], 0.5),
              fake_pass([2.0] * 10 + [4.0, 7.0], 0.1),
              fake_pass([3.0] * 10 + [6.0, 8.0], 0.3)]
    expected = {f"o{i}": "ok" for i in range(12)}
    verdicts = [run.judge(expected, p["ops"]) for p in passes]
    metrics = run.run_metrics(passes, verdicts)
    assert metrics["wall_s"] == 2.0 * 10 + 5.0 + 8.0
    assert metrics["setup_s"] == 0.3
    assert metrics["ok_ratio"] == metrics["checked_ratio"] == 1.0
    assert metrics["findings_checked"] == 12


def test_traced_run_matches_the_plain_run():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "church",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    *_, record, result = proc.stdout.strip().splitlines()
    record, result = json.loads(record), json.loads(result)
    assert result["correct"] and record["traced_matches_plain"]
    assert "trace.overhead_ratio" in result["metrics"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["finmodel.expo1.calls"] == 0
    assert all(values[k] == 0 for k in values
               if k.startswith("rgalg.") and k.endswith(".calls"))
    assert values["systemf.normalize.calls"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
