"""Per-layer spans around the public functions of each ``repro`` layer.

:class:`Tracer` replaces each function in :data:`SPANS` with a timing
wrapper.  A span's *self* time is its duration minus the time spent in
spans it called.  The outermost span, :data:`CATCH_ALL` around
``repro.cli.main``, takes as self time whatever no named layer covers,
so :meth:`Tracer.named_self_s` leaves it out: the import time plus the
named layers' self times must add up to the traced process's wall time
(less interpreter start-up and teardown), and a layer whose time goes
unmeasured shows as a gap.
Spans are aggregated in memory — call count, total and self seconds,
and every duration for the spans whose percentiles are reported — and
turned into the benchmark's per-layer metrics by :meth:`Tracer.report`.

Only the traced process is instrumented: spawn-started campaign workers
import ``repro`` afresh, so the campaign's per-cell numbers come from
the returned ``ExperimentResult.wall_seconds`` instead.
"""

from __future__ import annotations

import importlib
import statistics
import time

#: The outermost span; its self time is time no named layer accounts for.
CATCH_ALL = "cli"

#: (module, class or None for a module function, attribute, span name).
SPANS = (
    ("repro.cli", None, "main", CATCH_ALL),
    ("repro.cli", None, "generate_trace", "workload.generate_trace"),
    ("repro.experiments.engine", "ClusterEngine", "__init__", "engine.build"),
    ("repro.experiments.engine", "ClusterEngine", "start", "engine.start"),
    ("repro.experiments.engine", "ClusterEngine", "advance", "engine.advance"),
    ("repro.experiments.engine", "ClusterEngine", "finalize", "engine.finalize"),
    ("repro.core.scheduler", "FixedScheduler", "active_policy", "scheduler"),
    ("repro.core.scheduler", "PortfolioScheduler", "active_policy", "scheduler"),
    ("repro.core.selection", "TimeConstrainedSelector", "select", "selection.select"),
    ("repro.core.online_sim", "OnlineSimulator", "prepare", "online_sim.prepare"),
    ("repro.core.online_sim", "OnlineSimulator", "evaluate_prepared", "online_sim.evaluate"),
    ("repro.core.online_sim", "OnlineSimulator", "evaluate", "online_sim.evaluate"),
    ("repro.policies.combined", "CombinedPolicy", "new_vms", "policies.new_vms"),
    ("repro.policies.combined", "CombinedPolicy", "allocate", "policies.allocate"),
    ("repro.cloud.profile", "CloudProfile", "capture", "cloud.profile_capture"),
    ("repro.cloud.provider", "CloudProvider", "lease", "cloud.lease"),
    ("repro.metrics.collector", "MetricsCollector", "summarize", "metrics.summarize"),
    ("repro.experiments.export", None, "dump_result_json", "export.write"),
    ("repro.parallel.campaign", "Campaign", "run", "campaign.run"),
)

#: Spans whose every duration is kept for percentiles.
SAMPLED = ("selection.select", "online_sim.evaluate")


def percentile(values: list[float], q: int) -> float:
    """The *q*-th percentile (1..99) of *values*; 0.0 for an empty list."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tracer:
    """Timing wrappers with a span stack; see the module docstring."""

    def __init__(self) -> None:
        #: span name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.samples: dict[str, list[float]] = {name: [] for name in SAMPLED}
        self._stack: list[float] = []
        self.jobs = 0
        self.vms_leased = 0
        self.scores_distinct = 0
        self.scores_total = 0
        self.engines: list = []
        self.results: list = []
        self.campaign: tuple | None = None

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        durations = self.samples.get(name)
        stack = self._stack
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
                if durations is not None:
                    durations.append(elapsed)
            if on_return is not None:
                on_return(args, result)
            return result

        setattr(owner, attr, classmethod(timed) if is_classmethod else timed)

    def install(self) -> None:
        hooks = {
            "workload.generate_trace": self._on_trace,
            "engine.build": lambda args, _: self.engines.append(args[0]),
            "engine.finalize": lambda _, result: self.results.append(result),
            "selection.select": self._on_select,
            "cloud.lease": self._on_lease,
            "campaign.run": lambda args, out: setattr(self, "campaign", (args[0], out)),
        }
        for module_name, class_name, attr, name in SPANS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            self.wrap(owner, attr, name, hooks.get(name))

    def _on_trace(self, _args, jobs) -> None:
        self.jobs += len(jobs)

    def _on_select(self, _args, outcome) -> None:
        self.scores_distinct += len({ps.score for ps in outcome.simulated})
        self.scores_total += len(outcome.simulated)

    def _on_lease(self, _args, vms) -> None:
        self.vms_leased += len(vms)

    def _calls(self, name: str) -> int:
        return self.stats[name][0]

    def _total(self, name: str) -> float:
        return self.stats[name][1]

    def _self(self, name: str) -> float:
        return self.stats[name][2]

    def named_self_s(self) -> float:
        """Sum of the self times of every span but :data:`CATCH_ALL`."""
        return sum(stat[2] for name, stat in self.stats.items() if name != CATCH_ALL)

    def report(self) -> dict:
        """Per-layer metrics as ``{name: [value, unit]}`` plus the named self-time sum."""
        results = list(self.results)
        campaign_metrics = {
            "campaign.cells": [0, "count"],
            "campaign.cells_computed": [0, "count"],
            "campaign.cell_p50_s": [0.0, "s"],
            "campaign.cell_max_s": [0.0, "s"],
            "campaign.worker_busy_frac": [0.0, "1"],
        }
        if self.campaign is not None:
            campaign, outcomes = self.campaign
            results = [o.result for o in outcomes]
            walls = [r.wall_seconds for r in results]
            run_s = self._total("campaign.run")
            workers = max(1, campaign.workers)
            campaign_metrics = {
                "campaign.cells": [len(outcomes), "count"],
                "campaign.cells_computed": [
                    sum(1 for o in outcomes if o.source == "ran"), "count"],
                "campaign.cell_p50_s": [statistics.median(walls), "s"],
                "campaign.cell_max_s": [max(walls), "s"],
                "campaign.worker_busy_frac": [sum(walls) / (workers * run_s), "1"],
            }
        events = sum(r.sim_events for r in results)
        memo_hits = charged = 0
        for engine in self.engines:
            selector = getattr(engine.scheduler, "selector", None)
            if selector is not None:
                memo_hits += selector.memo_hits
                charged += selector.total_simulated
        select_ms = [d * 1e3 for d in self.samples["selection.select"]]
        eval_us = [d * 1e6 for d in self.samples["online_sim.evaluate"]]
        dispatch_self = self._self("engine.advance")
        metrics = {
            "workload.generate_trace_s": [self._total("workload.generate_trace"), "s"],
            "workload.jobs": [self.jobs, "count"],
            "engine.build_s": [
                self._total("engine.build") + self._total("engine.start"), "s"],
            "engine.advance_s": [self._total("engine.advance"), "s"],
            "engine.finalize_s": [self._total("engine.finalize"), "s"],
            "engine.events": [events, "count"],
            "engine.ticks": [sum(r.ticks for r in results), "count"],
            "engine.dispatch_self_s": [dispatch_self, "s"],
            "engine.dispatch_us_per_event": [
                dispatch_self * 1e6 / events if events else 0.0, "us"],
            "scheduler.self_s": [self._self("scheduler"), "s"],
            "selection.calls": [self._calls("selection.select"), "count"],
            "selection.select_s": [self._total("selection.select"), "s"],
            "selection.self_s": [self._self("selection.select"), "s"],
            "selection.p50_ms": [percentile(select_ms, 50), "ms"],
            "selection.p99_ms": [percentile(select_ms, 99), "ms"],
            "selection.memo_hits": [memo_hits, "count"],
            "selection.memo_hit_ratio": [memo_hits / charged if charged else 0.0, "1"],
            "online_sim.prepare_s": [self._total("online_sim.prepare"), "s"],
            "online_sim.evaluations": [self._calls("online_sim.evaluate"), "count"],
            "online_sim.evaluate_s": [self._total("online_sim.evaluate"), "s"],
            "online_sim.eval_p50_us": [percentile(eval_us, 50), "us"],
            "online_sim.eval_p99_us": [percentile(eval_us, 99), "us"],
            "online_sim.distinct_score_ratio": [
                self.scores_distinct / self.scores_total if self.scores_total else 0.0,
                "1"],
            "policies.new_vms_s": [self._total("policies.new_vms"), "s"],
            "policies.allocate_calls": [self._calls("policies.allocate"), "count"],
            "policies.allocate_s": [self._total("policies.allocate"), "s"],
            "cloud.profile_capture_s": [self._total("cloud.profile_capture"), "s"],
            "cloud.vms_leased": [self.vms_leased, "count"],
            "resilience.vm_failures": [
                sum(r.resilience.vm_failures for r in results), "count"],
            "resilience.job_kills": [
                sum(r.resilience.job_kills for r in results), "count"],
            "spot.preemptions": [
                sum(r.spot.preemptions for r in results if r.spot is not None),
                "count"],
            "metrics.summarize_s": [self._total("metrics.summarize"), "s"],
            "export.write_s": [self._total("export.write"), "s"],
            "campaign.run_s": [self._total("campaign.run"), "s"],
            "cli.self_s": [self._self(CATCH_ALL), "s"],
        }
        metrics.update(campaign_metrics)
        return {
            "metrics": metrics,
            "self_sum_s": self.named_self_s(),
        }
