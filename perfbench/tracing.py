"""Span tracing of the decision path, installed from outside the program.

:class:`Tracer` replaces the public entry points of each layer with timing
wrappers.  Every call records one span ``(site, start, end, parent)`` in
memory; a layer's self time is its spans' duration minus the part their
child spans cover.  Nothing in the program changes: the wrappers are set on
the classes and modules at :meth:`Tracer.install` and the originals put back
at :meth:`Tracer.uninstall`.

Kernel counters come from what the simulator already exposes: the first
time a kernel entry point sees a :class:`ClusterSimulator`, the tracer calls
its ``enable_profiling()`` and later reads the returned ``KernelProfile``
and the simulator's ``event_stats``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

from repro.cluster.simulator import ClusterSimulator
from repro.core.banditware import BanditWare
from repro.core.models.linear import LeastSquaresModel
from repro.core.policies.base import BanditPolicy
from repro.evaluation import engine
from repro.evaluation.engine import ExperimentEngine, ScenarioAccountant
from repro.evaluation.simulation import OnlineSimulation
from repro.integration.recommender_service import RecommendationService
from repro.integration.sharding import ServiceShard

#: Layers in reporting order, each with the public entry points timed for it.
#: A target is a class (methods) or a module (functions looked up by name in
#: every loaded ``repro`` module that imported them).
LAYERS: List[Tuple[str, object, Tuple[str, ...]]] = [
    ("engine", ExperimentEngine, ("run",)),
    ("ledger", ScenarioAccountant, ("record",)),
    ("oracle", engine, ("oracle_runtimes",)),
    ("setup", engine, ("build_scenario_service", "tenant_feature_streams")),
    ("setup", OnlineSimulation, ("__init__",)),
    ("service", RecommendationService,
     ("submit_workflow", "submit_workflows", "complete_workflows", "complete_workflow")),
    ("shard", ServiceShard, ("recommend", "recommend_batch", "observe", "observe_batch")),
    ("bandit", BanditWare,
     ("recommend", "recommend_vector", "recommend_batch",
      "observe", "observe_vector", "observe_batch", "warm_start")),
    ("policy", BanditPolicy, ("select",)),
    ("model", LeastSquaresModel,
     ("update", "update_vector", "update_batch", "fit",
      "predict", "predict_vector", "predict_batch")),
    ("kernel", ClusterSimulator, ("submit", "run_until", "run_until_idle", "peek_next_event_time")),
    ("replay", engine, ("run_online_replication",)),
    ("scoring", OnlineSimulation, ("run",)),
]

LAYER_NAMES: List[str] = list(dict.fromkeys(layer for layer, _, _ in LAYERS))

#: Model entry points that solve once for the rows they ingest; the batched
#: ones take their targets as ``y``.
_SOLVES = ("update", "update_vector", "update_batch", "fit")
_MISSING = object()


def _policy_classes() -> List[type]:
    """Every loaded policy class that defines its own ``select``."""
    found, todo = [], [BanditPolicy]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "select" in cls.__dict__ and not getattr(cls.select, "__isabstractmethod__", False):
            found.append(cls)
    return found


class Tracer:
    """Records spans at the layer boundaries while installed."""

    def __init__(self) -> None:
        #: ``(site, start, end, parent span index or -1)`` in call order.
        self.spans: List[Tuple[int, float, float, int]] = []
        #: ``(layer, qualified name)`` per site id.
        self.sites: List[Tuple[str, str]] = []
        self.counters: Counter = Counter()
        #: Simulators seen this repetition, with the profile enabled on each.
        self.simulators: Dict[int, Tuple[ClusterSimulator, object]] = {}
        self._stack: List[int] = [-1]
        self._saved: List[Tuple[object, str, object]] = []
        self._plan: Optional[List[Tuple[object, str, object]]] = None

    # ------------------------------------------------------------------ #
    def _site(self, layer: str, qualname: str) -> int:
        self.sites.append((layer, qualname))
        return len(self.sites) - 1

    def _timed(self, fn, site: int):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (site, start, end, parent)

        return wrapper

    def _counted(self, fn, name: str):
        """Count model solves and rows, and service completion batch sizes."""
        counters = self.counters
        if name in _SOLVES:
            batched = name in ("update_batch", "fit")

            def counting(model, *args, **kwargs):
                rows = len(args[1] if len(args) > 1 else kwargs["y"]) if batched else 1
                if rows:
                    counters["model.solves"] += 1
                    counters["model.rows"] += rows
                return fn(model, *args, **kwargs)

            return counting
        if name == "complete_workflows":

            def counting(service, completions, *args, **kwargs):
                counters["service.batches"] += 1
                counters["service.completions"] += len(completions)
                return fn(service, completions, *args, **kwargs)

            return counting
        return fn

    def _profiled(self, fn):
        """Enable the kernel profile of every simulator a kernel call touches."""
        simulators = self.simulators

        def profiling(simulator, *args, **kwargs):
            if id(simulator) not in simulators:
                simulators[id(simulator)] = (simulator, simulator.enable_profiling())
            return fn(simulator, *args, **kwargs)

        return profiling

    def _patch(self, owner, attr: str, replacement) -> None:
        # Only what the owner itself defines is restored; an inherited
        # attribute is deleted again so lookup falls back to the base.
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def _wrappers(self) -> List[Tuple[object, str, object]]:
        """``(owner, attribute, wrapper)`` for every entry point of every layer."""
        plan = []
        for layer, target, names in LAYERS:
            owners = _policy_classes() if target is BanditPolicy else [target]
            for owner in owners:
                for name in names:
                    original = getattr(owner, name)
                    site = self._site(layer, f"{owner.__name__}.{name}")
                    inner = self._counted(original, name) if layer in ("model", "service") else original
                    if layer == "kernel":
                        inner = self._profiled(inner)
                    wrapper = functools.update_wrapper(self._timed(inner, site), original)
                    if isinstance(owner, type):
                        plan.append((owner, name, wrapper))
                        continue
                    # A module function: rebind it in every repro module that
                    # holds a reference, since callers look it up by name there.
                    plan.extend(
                        (module, name, wrapper)
                        for module in list(sys.modules.values())
                        if getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, name, None) is original
                    )
        return plan

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        if self._plan is None:
            self._plan = self._wrappers()
        for owner, attr, wrapper in self._plan:
            self._patch(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()
        self.discard()

    def discard(self) -> None:
        """Drop everything recorded so far (e.g. spans of an untimed build)."""
        self.spans.clear()
        self.counters.clear()
        self.simulators.clear()

    # ------------------------------------------------------------------ #
    def take_repetition(self) -> Dict[str, object]:
        """Fold the spans and counters of one repetition, then clear them.

        Returns per-layer self seconds and calls, the raw counters, and the
        kernel totals read from each simulator's profile and event stats.
        """
        if len(self._stack) != 1:
            raise RuntimeError("spans still open at the end of a repetition")
        spans = self.spans
        child = [0.0] * len(spans)
        for site, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_seconds: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (site, start, end, _), covered in zip(spans, child):
            layer = self.sites[site][0]
            self_seconds[layer] += (end - start) - covered
            calls[layer] += 1
        kernel: Counter = Counter()
        for simulator, profile in self.simulators.values():
            stats = simulator.event_stats
            kernel["events_processed"] += stats["popped"]
            kernel["events_skipped"] += stats["skipped"]
            kernel["reschedule_calls"] += profile.reschedule_calls
            kernel["pods_rescheduled"] += profile.pods_rescheduled
            kernel["reintegration_seconds"] += profile.reintegration_seconds
            kernel["scheduling_seconds"] += profile.scheduling_seconds
            kernel["placement_seconds"] += profile.placement_seconds
        folded = {
            "self_seconds": dict(self_seconds),
            "calls": dict(calls),
            "counters": dict(self.counters),
            "kernel": dict(kernel),
        }
        self.discard()
        return folded

    def chrome_events(self, origin: float) -> List[Dict[str, object]]:
        """The current spans as Chrome trace-event ``X`` records (Perfetto opens them)."""
        return [
            {
                "name": self.sites[site][1],
                "cat": self.sites[site][0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
            }
            for site, start, end, _ in self.spans
        ]
