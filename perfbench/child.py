"""One pass of a workload, in the interpreter that runs this file.

    python3 perfbench/child.py WORKLOAD SEED TRACE [SPANS_PATH]

Imports the package, sets the workload up, runs every op once and
prints one JSON object: set-up time, per-op times, verdicts and finding
counts, peak resident memory and, when TRACE is 1, the per-layer
metrics.  Judging the verdicts is left to the caller.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
from contextlib import nullcontext
from time import perf_counter


def run_pass(workload: str, seed: int, trace: bool, spans_path=None) -> dict:
    start = perf_counter()
    import param_workbench  # noqa: F401  (import time is part of set-up)
    import_s = perf_counter() - start

    import tracer as tracing
    import workloads

    tracer = tracing.Tracer() if trace else None
    with tracer or nullcontext():
        t0 = perf_counter()
        state = workloads.setup(workload, seed)
        setup_s = perf_counter() - t0
        results = []
        pass_start = perf_counter()
        for op in workloads.ops(workload, seed, state):
            if tracer is not None:
                tracer.op = op.label
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # the op boundary: record and go on
                took = perf_counter() - t0
                results.append({"op": op.label, "time_s": took,
                                "raised": type(exc).__name__,
                                "message": str(exc)[:200]})
                continue
            took = perf_counter() - t0
            verdict, findings, skipped = op.judge(out)
            results.append({"op": op.label, "time_s": took, "verdict": verdict,
                            "findings": findings, "skipped": skipped})
        wall_s = perf_counter() - pass_start

    out = {
        "setup_s": import_s + setup_s,
        "import_s": import_s,
        "wall_s": wall_s,
        "ops": results,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": platform.python_version(),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["spans"] = len(tracer.spans)
        if spans_path:
            tracer.dump(spans_path)
    return out


if __name__ == "__main__":
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    spans = sys.argv[4] if len(sys.argv) > 4 else None
    print(json.dumps(run_pass(workload, seed, trace, spans)))
