"""Benchmark driver for param-workbench.

    python3 perfbench/run.py --workload {corpus,laws,church} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Every pass runs in a fresh interpreter
(`child.py`) with PYTHONHASHSEED fixed from the seed, so no
process-wide cache can make a later pass cheaper than a user's single
run, and no warm-up pass precedes the timed ones.  With --trace 0 the
driver repeats passes while another one fits in S seconds (at least
one) and reports the end-to-end metrics: the time metrics from each
op's median time over the passes, set-up time and memory as medians
over passes.
With --trace 1 it runs one plain pass and one traced pass, reports the
per-layer metrics of the traced one and the tracing overhead, and
requires both passes to reach the same verdicts and finding counts.

Every op's verdict is checked against workloads.expected_ops.  The last
line of output is one JSON object: correct, attempted, failed, metrics.
The lines before it name every metric with its unit and record the
seed, hash seed, Python version, failures and (for `church`) the drawn
programs.  Exits non-zero, printing no result, when a pass cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import church  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("corpus", "laws", "church")
HARD_LIMIT_S = 170.0

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "op_tail_s": "s",
    "ok_ratio": "ratio",
    "checked_ratio": "ratio",
    "findings_checked": "count",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    pass


def hash_seed(seed: int) -> int:
    """PYTHONHASHSEED for a workload seed; 0 would switch hashing to
    its unrandomized mode, so the range starts at 1."""
    return 1 + seed % 4294967295


def run_child(workload: str, seed: int, trace: bool, deadline: float,
              spans_path=None) -> dict:
    env = dict(os.environ)
    env.pop("PARAM_WORKBENCH_FUEL", None)
    env["PYTHONHASHSEED"] = str(hash_seed(seed))
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed),
           "1" if trace else "0"]
    if spans_path:
        cmd.append(str(spans_path))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded the time limit: {exc}") from None
    if proc.returncode != 0:
        raise BenchError(f"pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(times: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass of each
    rank's interval.  It moves less than a single order statistic when
    the ops near rank p(n+1) trade places from run to run."""
    xs = sorted(times)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 64
    weights = []
    for i in range(n):
        mass = 0.0
        for j in range(steps):
            x = (i + (j + 0.5) / steps) / n
            mass += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(mass)
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, xs)) / total


def tail(times: list) -> tuple:
    """(percentile, value): the highest whole percentile that has at
    least ten ops beyond it, estimated as in `quantile`."""
    n = len(times)
    if n < 11:
        raise BenchError(f"{n} ops are too few for a tail percentile")
    p = math.floor(100 * (n - 10) / n)
    return p, quantile(times, p / 100)


def judge(expected: dict, ops: list) -> dict:
    """Compare one pass's ops with the expected verdicts."""
    labels = [o["op"] for o in ops]
    if labels != list(expected):
        raise BenchError("the pass ran a different op list than expected")
    failures, wrong = [], 0
    for o in ops:
        if "raised" in o:
            failures.append({"op": o["op"], "raised": o["raised"]})
        elif o["verdict"] != expected[o["op"]]:
            wrong += 1
            failures.append({"op": o["op"], "verdict": o["verdict"],
                             "expected": expected[o["op"]]})
    findings = sum(o.get("findings", 0) for o in ops)
    skipped = sum(o.get("skipped", 0) for o in ops)
    return {
        "attempted": len(ops),
        "failed": len(failures),
        "wrong": wrong,
        "failures": failures,
        "failed_ratio": len(failures) / len(ops),
        "skipped_ratio": skipped / findings if findings else 0.0,
        "findings_checked": findings - skipped,
        "verdicts": [o.get("verdict", o.get("raised")) for o in ops],
        "ok_ratio": 1 - len(failures) / len(ops),
        "checked_ratio": 1 - skipped / findings if findings else 1.0,
    }


def op_medians(passes: list) -> list:
    """Each op's median time over the passes.  The machine's speed
    drifts while a run lasts; the median of an op's samples, each taken
    in a fresh interpreter, moves less than any single pass."""
    return [statistics.median(times) for times in
            zip(*([o["time_s"] for o in p["ops"]] for p in passes))]


def run_metrics(passes: list, verdicts: list) -> dict:
    """The end-to-end metrics of a run: wall_s is one pass at each op's
    median time, op_tail_s the tail of those times; set-up time and
    memory are medians over the passes."""
    times = op_medians(passes)
    _, tail_s = tail(times)
    first = verdicts[0]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": sum(times),
        "op_tail_s": tail_s,
        "ok_ratio": first["ok_ratio"],
        "checked_ratio": first["checked_ratio"],
        "findings_checked": first["findings_checked"],
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """(record, result): what to print before the last line, and the
    last line itself."""
    if not (ROOT / "src" / "param_workbench" / "__init__.py").is_file():
        raise BenchError(f"no param_workbench package under {ROOT / 'src'}")
    expected = workloads.expected_ops(workload, seed)
    started = monotonic()
    deadline = started + HARD_LIMIT_S
    passes = []
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{workload}-{seed}.jsonl"
        passes.append(run_child(workload, seed, False, deadline))
        passes.append(run_child(workload, seed, True, deadline, spans))
    else:
        longest = 0.0
        while True:
            begun = monotonic()
            passes.append(run_child(workload, seed, False, deadline))
            longest = max(longest, monotonic() - begun)
            if monotonic() - started + longest > seconds:
                break

    verdicts = [judge(expected, p["ops"]) for p in passes]
    # every pass runs the same ops on the same input
    correct = all(v["wrong"] == 0 and v["verdicts"] == verdicts[0]["verdicts"]
                  for v in verdicts)
    times = op_medians(passes)
    record = {
        "workload": workload,
        "seed": seed,
        "pythonhashseed": hash_seed(seed),
        "python": sorted({p["python"] for p in passes}),
        "passes": len(passes),
        "ops_per_pass": len(expected),
        "op_tail_percentile": tail(times)[0],
        "op_p50_s": quantile(times, 0.5),
        "failed_ratio": verdicts[0]["failed_ratio"],
        "skipped_ratio": verdicts[0]["skipped_ratio"],
        "failures": verdicts[0]["failures"],
        "pass_wall_s": [p["wall_s"] for p in passes],
    }
    if workload == "church":
        record["programs"] = church.draw(seed)
    if trace:
        plain, traced = verdicts
        same = (plain["verdicts"] == traced["verdicts"]
                and plain["findings_checked"] == traced["findings_checked"])
        correct = correct and same
        overhead = passes[1]["wall_s"] / passes[0]["wall_s"] - 1
        record["traced_matches_plain"] = same
        record["trace_overhead_ratio"] = overhead
        record["spans"] = passes[1]["spans"]
        record["end_to_end"] = run_metrics(passes[:1], verdicts[:1])
        units = {name: _layer_unit(name) for name in tracer.metric_names()}
        values = dict(passes[1]["layers"], **{"trace.overhead_ratio": overhead})
        units["trace.overhead_ratio"] = "ratio"
    else:
        units = END_TO_END
        values = run_metrics(passes, verdicts)
    result = {
        "correct": correct,
        "attempted": sum(v["attempted"] for v in verdicts),
        "failed": sum(v["failed"] for v in verdicts),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return record, result


def _layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        record, result = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"(op_tail_s is p{record['op_tail_percentile']} of "
              f"{record['ops_per_pass']} ops; op_p50_s = "
              f"{record['op_p50_s']:.6g} s, failed_ratio = "
              f"{record['failed_ratio']:.6g}, skipped_ratio = "
              f"{record['skipped_ratio']:.6g})")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
