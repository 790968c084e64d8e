"""Per-layer spans, recorded from outside the program.

Each layer's public functions are wrapped wherever the name is bound:
in the defining module and in every ``slicenet`` module that imported
it (``game.solve_lp_oracle``, ``cli.estimate_access``, ...).  A span
records its group, the request it belongs to, its parent span and its
start and end; a few groups also keep counts read off the function's
return value.  Spans stay in memory and are reduced to per-layer
metrics when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    group: str
    request: object
    parent: int | None
    start: float
    end: float = 0.0
    info: dict | None = None


def _sim_info(outcome) -> dict:
    tx = sum(st.tx_count + st.collision_count for st in outcome.stats.values())
    collided = sum(st.collision_count for st in outcome.stats.values())
    return {"tx": tx, "collided": collided}


def _estimate_info(estimate) -> dict:
    return dict(Counter(estimate.provenance.values()))


def _solver_info(result) -> dict:
    _, trace = result
    return {"iters": len(trace.rows)}


#: (group, defining module, attribute, only rebind in this module, info)
LAYERS = (
    ("coexist.sim", "slicenet.coexist", "simulate_graph", None, _sim_info),
    ("coexist.sim", "slicenet.coexist", "run_coexistence", None, _sim_info),
    ("coexist.graph_build", "slicenet.coexist", "build_contention_graph", None, None),
    ("coexist.table_io", "slicenet.coexist", "AccessTable.save", None, None),
    ("coexist.table_io", "slicenet.coexist", "AccessTable.load", None, None),
    ("contention.enumerate", "slicenet.contention", "enumerate_connected_colored_graphs", None, None),
    ("contention.canonical", "slicenet.contention", "canonical_form", None, None),
    ("contention.mis", "slicenet.contention", "maximum_independent_sets", None, None),
    ("mboe.estimate", "slicenet.mboe", "estimate_access", None, _estimate_info),
    ("scenario.load", "slicenet.scenario", "load_scenario", None, None),
    ("problem.build", "slicenet.problem", "build_problem", None, None),
    ("problem.lp", "slicenet.problem", "solve_lp_oracle", None, None),
    ("solvers.admm", "slicenet.solvers", "solve_admm", None, _solver_info),
    ("solvers.subgrad", "slicenet.solvers", "solve_subgradient", None, _solver_info),
    # project_budget_box calls project_capped_simplex_eq inside its own
    # module; counting only the solvers' bindings counts each projection
    # the solvers ask for once
    ("projections", "slicenet.projections", "project_capped_simplex_eq", "slicenet.solvers", None),
    ("projections", "slicenet.projections", "project_budget_box", "slicenet.solvers", None),
    ("game.division", "slicenet.game", "default_division", None, None),
    ("game.worth", "slicenet.game", "compute_worth", None, None),
    ("game.core", "slicenet.game", "check_core", None, None),
    ("game.probe", "slicenet.game", "convexity_probe", None, None),
    ("topology.generate", "slicenet.topology", "generate_topology", None, None),
    ("topology.generate", "slicenet.topology", "random_problem", None, None),
)


class Tracer:
    """Collects spans while installed; ``request`` tags the spans that
    follow, and ``paused`` keeps harness-side calls (output checks) out
    of the record."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: object = None
        self._stack: list[int] = []
        self._recording = True

    def _wrap(self, group: str, fn, info):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._recording:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(group, tracer.request, parent, time.perf_counter())
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if info is not None:
                span.info = info(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        patches = []
        try:
            program = [
                m
                for name, m in list(sys.modules.items())
                if name == "slicenet" or name.startswith("slicenet.")
            ]
            for group, module_name, attr, only_in, info in LAYERS:
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self._wrap(group, raw.__func__, info))
                    else:
                        wrapped = self._wrap(group, raw, info)
                    patches.append((cls, meth, raw))
                    setattr(cls, meth, wrapped)
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(group, original, info)
                targets = program if only_in is None else [sys.modules[only_in]]
                for module in targets:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, name, original))
                            setattr(module, name, wrapped)
            yield self
        finally:
            for obj, name, old in reversed(patches):
                setattr(obj, name, old)

    @contextmanager
    def paused(self):
        self._recording = False
        try:
            yield
        finally:
            self._recording = True


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(
    spans: list[Span], requests: int, admm_gap_max: float, overhead_ms: float
) -> dict[str, tuple[float, str]]:
    """Reduce spans to per-layer metrics: self times and counts per
    request, the one set-up's generation time, and the ratios built
    from them."""
    own = self_times(spans)
    time_in: Counter = Counter()
    calls: Counter = Counter()
    setup_time: Counter = Counter()
    info: dict[str, Counter] = {}
    game_lp_calls = 0
    for span, t in zip(spans, own):
        if span.request == "setup":
            setup_time[span.group] += t
            continue
        time_in[span.group] += t
        calls[span.group] += 1
        if span.info:
            info.setdefault(span.group, Counter()).update(span.info)
        if span.group == "problem.lp":
            up = span.parent
            while up is not None:
                if spans[up].group.startswith("game."):
                    game_lp_calls += 1
                    break
                up = spans[up].parent

    def per_request(x: float) -> float:
        return x / requests if requests else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    sim = info.get("coexist.sim", Counter())
    prov = info.get("mboe.estimate", Counter())
    estimated = sum(prov.values())
    admm_iters = info.get("solvers.admm", Counter())["iters"]
    subgrad_iters = info.get("solvers.subgrad", Counter())["iters"]

    out: dict[str, tuple[float, str]] = {}

    def seconds(name: str, group: str) -> None:
        out[name] = (per_request(time_in[group]), "s")

    seconds("coexist.sim_s", "coexist.sim")
    out["coexist.tx_per_s"] = (ratio(sim["tx"], time_in["coexist.sim"]), "1/s")
    out["coexist.collision_ratio"] = (ratio(sim["collided"], sim["tx"]), "ratio")
    seconds("coexist.graph_build_s", "coexist.graph_build")
    seconds("coexist.table_io_s", "coexist.table_io")
    seconds("contention.enumerate_s", "contention.enumerate")
    out["contention.canonical_calls"] = (per_request(calls["contention.canonical"]), "count")
    seconds("contention.canonical_s", "contention.canonical")
    out["contention.mis_calls"] = (per_request(calls["contention.mis"]), "count")
    seconds("contention.mis_s", "contention.mis")
    seconds("mboe.estimate_s", "mboe.estimate")
    for kind in ("table", "pruned", "fallback"):
        out[f"mboe.share_{kind}"] = (ratio(prov[kind], estimated), "ratio")
    seconds("scenario.load_s", "scenario.load")
    seconds("problem.build_s", "problem.build")
    out["problem.lp_calls"] = (per_request(calls["problem.lp"]), "count")
    seconds("problem.lp_s", "problem.lp")
    seconds("solvers.admm_s", "solvers.admm")
    out["solvers.admm_iters"] = (per_request(admm_iters), "count")
    out["solvers.admm_ms_per_iter"] = (
        1e3 * ratio(time_in["solvers.admm"], admm_iters),
        "ms",
    )
    seconds("solvers.subgrad_s", "solvers.subgrad")
    out["solvers.subgrad_ms_per_iter"] = (
        1e3 * ratio(time_in["solvers.subgrad"], subgrad_iters),
        "ms",
    )
    out["solvers.admm_gap_max"] = (admm_gap_max, "ratio")
    out["projections.calls"] = (per_request(calls["projections"]), "count")
    seconds("projections.s", "projections")
    seconds("game.division_s", "game.division")
    seconds("game.worth_s", "game.worth")
    seconds("game.core_s", "game.core")
    seconds("game.probe_s", "game.probe")
    out["game.lp_calls"] = (per_request(game_lp_calls), "count")
    out["topology.generate_s"] = (setup_time["topology.generate"], "s")
    out["trace.overhead_ms"] = (overhead_ms, "ms")
    return out
