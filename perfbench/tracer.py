"""Layer tracer for one ``python -m repro.bench`` command.

Run as::

    python perfbench/tracer.py --out SPANS.json -- fig5 --jobs 1 ...

It imports the experiment CLI, wraps the public function each layer
exposes (a function imported by name is wrapped in every module that
binds it), calls ``repro.bench.__main__.main`` with the remaining
arguments, restores every original, and writes the spans to ``--out``.
Stdout is left to the CLI, so a traced command prints exactly what the
untraced one does.

A span is ``[name, start_ns, end_ns, parent_index, outermost]``; span 0
is the whole process, back-dated to the launch time the driver passes
in ``PERFBENCH_LAUNCH_NS``.  :func:`summarize` turns the span files of
one sample into the per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

#: layers in report order; a span's layer is its name up to the first dot.
LAYERS = (
    "datasets", "graph", "ordering", "partition", "community", "apps",
    "simulator", "measures", "bench",
)

#: the schemes whose ``compute`` time is reported as ``ordering.<s>.ms``.
REPORTED_SCHEMES = (
    "grappolo", "grappolo_rcm", "nested_dissection", "metis", "slashburn",
    "rabbit", "gorder", "rcm",
)

#: (span name, "module:qualname", result hook) for every wrapped call.
TARGETS = (
    ("datasets.load", "repro.datasets.registry:load", None),
    ("graph.store.load", "repro.graph.store:GraphStore.load", "graph_store"),
    ("graph.apply_ordering", "repro.graph.permute:apply_ordering", None),
    ("ordering.order", "repro.ordering.base:OrderingScheme.order", "cost"),
    ("ordering.store.load", "repro.ordering.store:OrderingStore.load",
     "ordering_store"),
    ("ordering.store.write", "repro.ordering.store:OrderingStore.store",
     None),
    ("partition.partition_graph",
     "repro.partition.multilevel:partition_graph", None),
    ("partition.vertex_separator",
     "repro.partition.separator:vertex_separator", None),
    ("community.louvain", "repro.community.louvain:louvain", "louvain"),
    ("apps.run_community_detection",
     "repro.apps.community_detection:run_community_detection", None),
    ("apps.build_sweep_items",
     "repro.apps.community_detection:build_sweep_items", None),
    ("apps.run_influence_maximization",
     "repro.apps.influence_max:run_influence_maximization", None),
    ("apps.rrr_sampling", "repro.apps.batch:sample_rrr_ic_pinned_batch",
     "rrr_batch"),
    ("apps.rrr_sampling", "repro.apps.influence_max:sample_rrr_ic_pinned",
     "rrr_one"),
    ("apps.rrr_sampling", "repro.apps.influence_max:sample_rrr_ic",
     "rrr_one"),
    ("apps.greedy_seed_selection",
     "repro.apps.influence_max:greedy_seed_selection", None),
    ("simulator.run", "repro.simulator.parallel:SimulatedMachine.run",
     "loads"),
    ("simulator.run_dynamic",
     "repro.simulator.parallel:SimulatedMachine.run_dynamic", "loads"),
    ("simulator.access_batch",
     "repro.simulator.hierarchy:MemoryHierarchy.access_batch", None),
    ("measures.gap_measures", "repro.measures.gaps:gap_measures", None),
    ("measures.performance_profile",
     "repro.measures.profiles:performance_profile", None),
    ("bench.report", "repro.bench.report:format_table", None),
    ("bench.report", "repro.bench.report:format_profile", None),
    ("bench.report", "repro.bench.report:format_heat_row", None),
)

_MISSING = object()


def _hook_graph_store(tracer, result, outer):
    tracer.counts["graph.store.misses" if result is None
                  else "graph.store.hits"] += 1


def _hook_ordering_store(tracer, result, outer):
    hit = result is not None
    tracer.counts["ordering.store.hits" if hit
                  else "ordering.store.misses"] += 1
    if tracer.warm_store:
        tracer.counts["ordering.store.warm_lookups"] += 1
        tracer.counts["ordering.store.warm_hits"] += hit


def _hook_cost(tracer, result, outer):
    tracer.counts["ordering.cost_ops"] += int(result.cost)


def _hook_louvain(tracer, result, outer):
    for phase in result.phases:
        tracer.counts["community.louvain.iterations"] += phase.iteration_count
        tracer.counts["community.louvain.edges_scanned"] += sum(
            it.edges_scanned for it in phase.iterations
        )


def _hook_rrr_batch(tracer, result, outer):
    if outer:
        tracer.counts["apps.rrr_samples"] += len(result)


def _hook_rrr_one(tracer, result, outer):
    if outer:
        tracer.counts["apps.rrr_samples"] += 1


def _hook_loads(tracer, result, outer):
    if outer:
        tracer.counts["simulator.loads"] += sum(result.thread_loads)


HOOKS = {
    "graph_store": _hook_graph_store,
    "ordering_store": _hook_ordering_store,
    "cost": _hook_cost,
    "louvain": _hook_louvain,
    "rrr_batch": _hook_rrr_batch,
    "rrr_one": _hook_rrr_one,
    "loads": _hook_loads,
}


class Tracer:
    """Spans and counters kept in memory for one process.

    :meth:`install` swaps wrappers in; :meth:`restore` puts every
    original back, in reverse order, whatever happened in between.
    """

    def __init__(self, launch_ns: int | None = None) -> None:
        now = time.perf_counter_ns()
        back = 0 if launch_ns is None else max(0, time.time_ns() - launch_ns)
        self.spans: list[list] = [["bench.process", now - back, 0, -1, True]]
        self.counts: Counter = Counter()
        self.warm_store = False
        self._stack = [0]
        self._active: Counter = Counter()
        self._patches: list[tuple] = []

    # -- wrapping --------------------------------------------------------
    def _wrap(self, name, func, hook):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            outer = active[name] == 0
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1], outer])
            stack.append(index)
            active[name] += 1
            try:
                result = func(*args, **kwargs)
            finally:
                active[name] -= 1
                stack.pop()
                spans[index][2] = clock()
            if hook is not None:
                hook(self, result, outer)
            return result

        return wrapper

    def _patch(self, owner, attr, value, original) -> None:
        self._patches.append((owner, attr, original))
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def wrap_function(self, name, module, attr, hook=None) -> None:
        """Wrap ``module.attr`` and every ``repro`` module binding it."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper, original)

    def wrap_method(self, name, cls, attr, hook=None) -> None:
        """Wrap a method on ``cls`` (inherited ones get an own attribute)."""
        original = cls.__dict__.get(attr, _MISSING)
        wrapper = self._wrap(name, getattr(cls, attr), hook)
        self._patch(cls, attr, wrapper, original)

    def install(self) -> None:
        """Wrap every layer boundary (imports the CLI's module tree)."""
        importlib.import_module("repro.bench.__main__")
        for name, target, hook in TARGETS:
            module_name, qualname = target.split(":")
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            hook_fn = HOOKS[hook] if hook else None
            if isinstance(owner, type):
                self.wrap_method(name, owner, attr, hook_fn)
            else:
                self.wrap_function(name, owner, attr, hook_fn)
        from repro.ordering import PAPER_SCHEMES
        from repro.ordering.base import get_scheme

        for scheme in PAPER_SCHEMES:
            self.wrap_method(
                f"ordering.{scheme}", type(get_scheme(scheme)), "compute"
            )
        experiments = importlib.import_module("repro.bench.experiments")
        for key, func in list(experiments.ALL_EXPERIMENTS.items()):
            self._patch(
                experiments.ALL_EXPERIMENTS, key,
                self._wrap("bench.experiment", func, None), func,
            )

    def restore(self) -> None:
        """Put every original back (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            elif original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def finish(self) -> dict:
        """Close the process span; the JSON-safe record of this process."""
        self.spans[0][2] = time.perf_counter_ns()
        from repro.resilience import degrade

        health = degrade.health_report()
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "degrade_events": sum(health["counters"].values()),
            "breakers_open": sum(
                1 for b in health["breakers"] if b["state"] == "open"
            ),
        }


def _store_is_warm() -> bool:
    """Whether the ordering store holds entries before this process runs."""
    root = os.path.join(os.environ.get("REPRO_CACHE_DIR", ""), "orderings")
    for _dirpath, _dirnames, filenames in os.walk(root):
        if any(f.endswith(".npz") for f in filenames):
            return True
    return False


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------
#: every per-layer metric the traced run reports; their units are
#: declared in ``BENCHMARK.json``.
METRICS: tuple[str, ...] = (
    "datasets.load.calls",
    "datasets.load.ms",
    "graph.store.hits",
    "graph.store.misses",
    "graph.store.load.ms",
    "graph.apply_ordering.calls",
    "graph.apply_ordering.ms",
    "ordering.order.calls",
    "ordering.order.ms",
    *(f"ordering.{s}.ms" for s in REPORTED_SCHEMES),
    "ordering.cost_ops",
    "ordering.store.hits",
    "ordering.store.misses",
    "ordering.store.load.ms",
    "ordering.store.write.ms",
    "ordering.store.warm_hit_ratio",
    "partition.partition_graph.calls",
    "partition.partition_graph.ms",
    "partition.vertex_separator.calls",
    "partition.vertex_separator.ms",
    "community.louvain.calls",
    "community.louvain.ms",
    "community.louvain.iterations",
    "community.louvain.edges_scanned",
    "apps.run_community_detection.ms",
    "apps.build_sweep_items.ms",
    "apps.run_influence_maximization.ms",
    "apps.rrr_sampling.ms",
    "apps.rrr_samples",
    "apps.greedy_seed_selection.calls",
    "apps.greedy_seed_selection.ms",
    "simulator.run.calls",
    "simulator.run.ms",
    "simulator.run_dynamic.calls",
    "simulator.run_dynamic.ms",
    "simulator.access_batch.calls",
    "simulator.access_batch.ms",
    "simulator.loads",
    "measures.gap_measures.calls",
    "measures.gap_measures.ms",
    "measures.performance_profile.ms",
    "bench.startup_ms",
    "bench.self_ms",
    "bench.report.ms",
    "resilience.degrade_events",
    "native.breakers_open",
    *(f"layer.{layer}.self_ms" for layer in LAYERS),
    "trace.run_s",
    "trace.untraced_run_s",
    "trace.overhead_pct",
    "trace.layer_share",
)


def summarize(records: list[dict], traced_s: float) -> dict[str, float]:
    """Per-layer metrics of one sample (the records of its processes).

    ``.ms`` sums the outermost spans of a name (a nested call of the same
    name is not counted twice), ``.calls`` counts every call, and a
    layer's self time is each span's duration minus its children's.
    ``traced_s`` is the wall time of the sample as the driver saw it;
    ``trace.layer_share`` is the non-``bench`` self time over it.
    """
    calls: Counter = Counter()
    total_ns: Counter = Counter()
    self_ns: Counter = Counter()
    counts: Counter = Counter()
    startup_ns = 0
    degrade_events = breakers_open = 0
    for record in records:
        spans = record["spans"]
        child_ns = defaultdict(int)
        for name, start, end, parent, outer in spans:
            calls[name] += 1
            if outer:
                total_ns[name] += end - start
            if parent >= 0:
                child_ns[parent] += end - start
        for index, (name, start, end, _parent, _outer) in enumerate(spans):
            self_ns[name.split(".", 1)[0]] += end - start - child_ns[index]
        entry = next(
            (s[1] for s in spans if s[0] == "bench.experiment"), spans[0][2]
        )
        startup_ns += entry - spans[0][1]
        counts.update(record["counts"])
        degrade_events += record["degrade_events"]
        breakers_open += record["breakers_open"]

    def ms(ns: float) -> float:
        return ns / 1e6

    # ``.calls``/``.ms`` come from the spans of that name, every other
    # plain name from the counters; the derived ones are set below.
    out: dict[str, float] = {}
    for name in METRICS:
        if name.endswith(".calls"):
            out[name] = calls[name.removesuffix(".calls")]
        elif name.endswith(".ms"):
            out[name] = ms(total_ns[name.removesuffix(".ms")])
        else:
            out[name] = counts[name]
    lookups = counts["ordering.store.warm_lookups"]
    out["ordering.store.warm_hit_ratio"] = (
        counts["ordering.store.warm_hits"] / lookups if lookups else 0.0
    )
    out["bench.startup_ms"] = ms(startup_ns)
    out["bench.self_ms"] = ms(self_ns["bench"])
    out["resilience.degrade_events"] = degrade_events
    out["native.breakers_open"] = breakers_open
    for layer in LAYERS:
        out[f"layer.{layer}.self_ms"] = ms(self_ns[layer])
    out["trace.run_s"] = traced_s
    covered = sum(self_ns[layer] for layer in LAYERS if layer != "bench")
    out["trace.layer_share"] = covered / 1e9 / traced_s if traced_s else 0.0
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python perfbench/tracer.py",
        description="Run one repro.bench command with layer tracing.",
    )
    parser.add_argument("--out", required=True, help="span file to write")
    parser.add_argument("bench_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    bench_args = args.bench_args
    if bench_args[:1] == ["--"]:
        bench_args = bench_args[1:]
    launch = os.environ.get("PERFBENCH_LAUNCH_NS")
    tracer = Tracer(int(launch) if launch else None)
    tracer.warm_store = _store_is_warm()
    status = 1
    try:
        tracer.install()
        cli = importlib.import_module("repro.bench.__main__")
        status = cli.main(bench_args)
    finally:
        tracer.restore()
        sys.stdout.flush()
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(tracer.finish(), handle)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
