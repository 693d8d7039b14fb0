"""Per-layer tracing by wrapping the public functions of each module.

`Tracer` replaces each listed function with a timing wrapper in every
module namespace that binds it: `fibration` and `interp` import names
from `finmodel` and `fibration` with `from ... import`, so patching the
defining module alone would miss their calls.  Leaving the `with`
block restores every patched name.

Each call becomes a span (id, function, start, end, parent span, op).
Spans stay in memory until `dump`.  Self time is a span's duration
minus the time its traced children cover, accumulated as calls return.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

import church

TARGETS = {
    "systemf": ("parse_program", "typecheck", "normalize", "unormalize"),
    "finmodel": ("build_instance", "try_rel_mor", "rel", "expo0", "expo1"),
    "rgalg": ("category_from_morphisms", "check_category", "check_cat_functor",
              "check_seven_maps", "check_functor_tab", "check_nat_tab",
              "functors_equal", "nats_equal"),
    "cubemodel": ("cube_universe", "equality_suite", "wexpo"),
    "fibration": ("evaluate", "forall0_value", "forall1_value", "epsilon_of",
                  "validate_nat", "reindex", "fibration_suite",
                  "universe_closure", "ProbeUniverse.memo_eval"),
    "interp": ("interp_term", "closure_for_term", "abstraction_check",
               "iel_check", "free_theorem_check"),
}

# counters reported as they are, beside calls, self time and ratios
RAW_COUNTS = ("fibration.universe_closure.rounds",
              "fibration.universe_closure.probes",
              "systemf.normalize.out_nodes", "systemf.unormalize.out_nodes")


def metric_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = []
    for module, fns in TARGETS.items():
        for fn in fns:
            key = f"{module}.{fn.rsplit('.', 1)[-1]}"
            names += [f"{key}.calls", f"{key}.self_s"]
        names.append(f"{module}.self_s")
    names += ["finmodel.expo1.kept_ratio", "finmodel.try_rel_mor.hit_ratio",
              "fibration.memo_eval.hit_ratio", *RAW_COUNTS]
    return names


class Tracer:
    def __init__(self):
        import param_workbench

        self.modules = {name: getattr(param_workbench, name) for name in TARGETS}
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.op = None
        self._next_id = 0
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    # -- installation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        for module, fns in TARGETS.items():
            home = self.modules[module]
            for fn in fns:
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    owner = getattr(home, cls_name)
                    orig = owner.__dict__[meth]
                    self._patch(owner, meth, self._wrap(f"{module}.{meth}", orig))
                    continue
                orig = getattr(home, fn)
                wrapper = self._wrap(f"{module}.{fn}", orig)
                for mod in self.modules.values():
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()

    def _patch(self, owner, name: str, new) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    # -- the wrapper ----------------------------------------------------

    def _wrap(self, key: str, fn):
        pre = _PRE.get(key)
        post = _POST.get(key)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                args = pre(tracer, args)
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                tracer.self_s[key] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                tracer.calls[key] += 1
                tracer.spans.append((sid, key, start, end, parent, tracer.op))
            if post is not None:
                post(tracer, args, out)
            return out

        return traced

    # -- results --------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for module, fns in TARGETS.items():
            total = 0.0
            for fn in fns:
                key = f"{module}.{fn.rsplit('.', 1)[-1]}"
                out[f"{key}.calls"] = self.calls[key]
                out[f"{key}.self_s"] = self.self_s[key]
                total += self.self_s[key]
            out[f"{module}.self_s"] = total
        c = self.counts
        out["finmodel.expo1.kept_ratio"] = _ratio(
            c["finmodel.expo1.kept"], c["finmodel.expo1.enumerated"])
        out["finmodel.try_rel_mor.hit_ratio"] = _ratio(
            c["finmodel.try_rel_mor.hits"], self.calls["finmodel.try_rel_mor"])
        memo_calls = self.calls["fibration.memo_eval"]
        out["fibration.memo_eval.hit_ratio"] = _ratio(
            memo_calls - c["fibration.memo_eval.builds"], memo_calls)
        for key in RAW_COUNTS:
            out[key] = c[key]
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: one header, then one span each."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "fn", "start", "end",
                                            "parent", "op"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _count_builds(tracer: Tracer, args):
    u, key, build = args

    def counted():
        tracer.counts["fibration.memo_eval.builds"] += 1
        return build()

    return (u, key, counted)


def _expo1_post(tracer: Tracer, args, out) -> None:
    r, s = args
    tracer.counts["finmodel.expo1.kept"] += len(out.entries)
    tracer.counts["finmodel.expo1.enumerated"] += (
        len(s.dom) ** len(r.dom) * len(s.cod) ** len(r.cod))


def _rel_mor_post(tracer: Tracer, args, out) -> None:
    if out is not None:
        tracer.counts["finmodel.try_rel_mor.hits"] += 1


def _closure_post(tracer: Tracer, args, out) -> None:
    tracer.counts["fibration.universe_closure.rounds"] += out.rounds
    tracer.counts["fibration.universe_closure.probes"] += (
        len(out.universe.objs0) + len(out.universe.objs1))


def _nodes_post(key: str):
    def post(tracer: Tracer, args, out) -> None:
        tracer.counts[key] += church.nodes(out)
    return post


_PRE = {"fibration.memo_eval": _count_builds}
_POST = {
    "finmodel.expo1": _expo1_post,
    "finmodel.try_rel_mor": _rel_mor_post,
    "fibration.universe_closure": _closure_post,
    "systemf.normalize": _nodes_post("systemf.normalize.out_nodes"),
    "systemf.unormalize": _nodes_post("systemf.unormalize.out_nodes"),
}
