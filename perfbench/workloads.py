"""The four benchmark workloads of the decision path.

Each workload splits into three steps so the harness can time them apart:

* ``inputs(seed)`` -- the benchmark generates everything the program is fed
  from the seed (never timed, never program code);
* ``build(inputs)`` -- the program's own set-up before the first decision
  (timed as ``setup_s``);
* ``run(state)`` -- one repetition of the decision loop (timed as
  ``decision_us``), returning the program's raw result;
* ``outcome(state, result)`` -- what the repetition did, read from outside
  the program after the clock stopped, as an :class:`Outcome`.

A repetition is a fixed amount of work: the same inputs give the same
decisions, the same output digest and the same work counters on every
repetition, which the harness asserts.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.cluster.interference import LinearSlowdown
from repro.cluster.node import Node
from repro.cluster.simulator import ClusterSimulator
from repro.evaluation import build_experiment, build_scenario, run_scenario_replications
from repro.evaluation.engine import build_scenario_service, tenant_feature_streams
from repro.evaluation.service_load import (
    ServiceLoadConfig,
    ZipfianAppMix,
    build_load_service,
)
from repro.hardware import HardwareCatalog, HardwareConfig, ndp_catalog
from repro.workloads import LinearRuntimeWorkload

#: The seed whose output digests are pinned in ``digests.json``.
PINNED_SEED = 0

# Repetition sizes.  Each repetition takes roughly 0.2-0.3 s on one core, so a
# 10 s run holds dozens of repetitions and medians settle.  Changing a size
# changes the outputs: re-pin with ``python3 perfbench/pin_digests.py``.
SWEEP_SCENARIO = "interference-heavy"
SWEEP_REPLICATIONS = 16
PAPER_EXPERIMENT = "bp3d_all_features"
PAPER_SIMULATIONS = 100
PAPER_ROUNDS = 50
STRESS_PODS = 512
SERVICE_APPS = 32
SERVICE_SHARDS = 4
SERVICE_ZIPF = 0.9
SERVICE_REQUESTS = 4096
SERVICE_BATCH = 64


@dataclass
class Outcome:
    """What one repetition did, as seen from outside the program."""

    #: Workflow decisions completed (on ``stress`` one pod is one decision).
    decisions: int
    #: JSON-able outputs whose digest must match across repetitions and,
    #: at the pinned seed, the digest in ``digests.json``.
    outputs: Any
    #: Operations that failed (tickets never completed, missing rows).
    failed: int = 0
    #: Violated invariants, one message each.
    violations: List[str] = field(default_factory=list)
    #: Workload-specific results: name -> (value, unit).
    quality: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Client-observed per-call latencies in seconds (``service`` only).
    latencies: Dict[str, List[float]] = field(default_factory=dict)


def _rounded(value: Any) -> Any:
    """Floats to 10 significant digits, so last-bit BLAS noise cannot flip a digest."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {str(k): _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    if isinstance(value, np.ndarray):
        return _rounded(value.tolist())
    if isinstance(value, np.generic):
        return _rounded(value.item())
    return value


def digest(outputs: Any) -> str:
    """SHA-256 of the canonical JSON of a repetition's outputs."""
    text = json.dumps(_rounded(outputs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], Any]
    build: Callable[[Any], Any]
    run: Callable[[Any], Any]
    outcome: Callable[[Any, Any], Outcome]
    #: False when ``run`` consumes its state, so every repetition needs a
    #: fresh ``build``; true when one build serves every repetition.
    reusable: bool


# --------------------------------------------------------------------- #
# sweep: run_scenario_replications on interference-heavy
# --------------------------------------------------------------------- #
def _sweep_build(seed: int):
    # Everything the first replication does before its first decision:
    # the scenario, its warm-started service and its feature streams.  The
    # replication runner repeats the per-replication part inside the loop.
    scenario = build_scenario(SWEEP_SCENARIO, seed=seed)
    build_scenario_service(scenario, scenario.union_catalog())
    tenant_feature_streams(scenario)
    return scenario


def _sweep_run(scenario):
    return run_scenario_replications(scenario, SWEEP_REPLICATIONS, n_workers=1)


def _sweep_outcome(scenario, summary) -> Outcome:
    decisions = 0
    violations = []
    streams = []
    regret = 0.0
    correct = 0
    for seed, result in zip(summary.seeds, summary.results):
        made = sum(len(t.decisions) for t in result.tenants.values())
        if len(result.rows) != made:
            violations.append(
                f"replication seed {seed}: {len(result.rows)} ledger rows for {made} decisions"
            )
        decisions += made
        streams.append({name: t.decisions for name, t in result.tenants.items()})
        regret += result.summary()["interference_inclusive_regret"]
        correct += sum(1 for row in result.rows if row["correct"])
    rows = sum(len(r.rows) for r in summary.results)
    return Outcome(
        decisions=decisions,
        outputs={"decisions": streams, "summary": summary.summary()},
        failed=max(decisions - rows, 0),
        violations=violations,
        quality={
            "regret_s": (regret / max(decisions, 1), "s"),
            "accuracy": (correct / max(decisions, 1), "fraction"),
        },
    )


# --------------------------------------------------------------------- #
# paper-loop: OnlineSimulation of bp3d_all_features (Figs 7a/7b)
# --------------------------------------------------------------------- #
def _paper_build(seed: int):
    definition = build_experiment(
        PAPER_EXPERIMENT,
        n_simulations=PAPER_SIMULATIONS,
        n_rounds=PAPER_ROUNDS,
        seed=seed,
        n_workers=1,
    )
    return definition.simulation()


def _paper_run(simulation):
    return simulation.run()


def _paper_outcome(simulation, result) -> Outcome:
    summary = result.summary()
    return Outcome(
        decisions=int(result.rmse.size),
        outputs={"rmse": result.rmse, "accuracy": result.accuracy},
        quality={
            "rmse_s": (summary["final_rmse_mean"], "s"),
            "accuracy": (summary["final_accuracy_mean"], "fraction"),
        },
    )


# --------------------------------------------------------------------- #
# stress: one fat node, every pod co-resident under LinearSlowdown
# --------------------------------------------------------------------- #
_STRESS_CATALOG = HardwareCatalog([HardwareConfig("s", cpus=2, memory_gb=8)])
_STRESS_WORKLOAD = LinearRuntimeWorkload(
    feature_ranges={"size": (1.0, 8.0)},
    coefficients={"s": ({"size": 100.0}, 50.0)},
    noise_sigma=0.0,
    name="stress",
)


def _stress_inputs(seed: int) -> List[float]:
    return np.random.default_rng(seed).uniform(1.0, 8.0, STRESS_PODS).tolist()


def _stress_build(sizes: List[float]):
    simulator = ClusterSimulator(
        nodes=[Node("fat", cpus=2 * STRESS_PODS, memory_gb=8 * STRESS_PODS)],
        catalog=_STRESS_CATALOG,
        workload=_STRESS_WORKLOAD,
        seed=0,
        interference=LinearSlowdown(alpha=0.5),
    )
    return simulator, sizes


def _stress_run(state):
    simulator, sizes = state
    # One arrival per second; the node fits every pod side by side, so every
    # arrival and finish reschedules every resident.
    for i, size in enumerate(sizes):
        simulator.submit({"size": size}, "s", at_time=float(i))
    return simulator.run_until_idle()


def _stress_outcome(state, completed) -> Outcome:
    _, sizes = state
    return Outcome(
        decisions=len(sizes),
        outputs=[(run.pod_name, run.finish_time) for run in completed],
        failed=max(len(sizes) - len(completed), 0),
    )


# --------------------------------------------------------------------- #
# service: closed loop, one client, Zipfian mix over 32 apps on 4 shards
# --------------------------------------------------------------------- #
def _service_config(seed: int) -> ServiceLoadConfig:
    return ServiceLoadConfig(n_apps=SERVICE_APPS, n_shards=SERVICE_SHARDS, seed=seed)


def _service_inputs(seed: int):
    # The app workloads themselves are fixed by the load harness; only the
    # request stream and the observed runtimes come from the seed.
    _, workloads = build_load_service(_service_config(seed))
    apps = list(workloads)
    catalog = list(ndp_catalog())  # the arm order of every app's recommender
    rng = np.random.default_rng([seed, 77])
    mix = ZipfianAppMix(SERVICE_APPS, SERVICE_ZIPF)
    chosen = rng.choice(SERVICE_APPS, size=SERVICE_REQUESTS, p=mix.weights())
    requests = []
    for index in chosen:
        workload = workloads[apps[index]]
        features = workload.sample_features(rng)
        # Observed runtime on every arm, drawn up front: the loop only looks
        # up the arm the service picked.
        runtimes = [workload.observed_runtime(features, hw, rng) for hw in catalog]
        requests.append((apps[index], features, runtimes))
    return seed, requests


def _service_build(inputs):
    seed, requests = inputs
    service, _ = build_load_service(_service_config(seed))
    return service, requests


def _service_run(state):
    service, requests = state
    clock = time.perf_counter
    submit = service.submit_workflow
    complete = service.complete_workflows
    recommend_lat: List[float] = []
    observe_lat: List[float] = []
    tickets = []
    pending = []
    for app, features, runtimes in requests:
        t0 = clock()
        ticket = submit(app, features)
        recommend_lat.append(clock() - t0)
        tickets.append(ticket)
        pending.append((ticket.ticket_id, runtimes[ticket.recommendation.decision.arm_index]))
        if len(pending) == SERVICE_BATCH:
            t0 = clock()
            complete(pending)
            observe_lat.append(clock() - t0)
            pending = []
    if pending:
        t0 = clock()
        complete(pending)
        observe_lat.append(clock() - t0)
    return tickets, recommend_lat, observe_lat


def _service_outcome(state, result) -> Outcome:
    service, requests = state
    tickets, recommend_lat, observe_lat = result
    left = service.pending_tickets()
    violations = [f"{len(left)} tickets still pending after the loop"] if left else []
    apps = sorted({app for app, _, _ in requests})
    snapshots = {}
    for app in apps:
        snapshot = service.model_snapshot(app)
        snapshots[app] = [snapshot.coefficients, snapshot.intercepts]
    outcomes = [
        (t.ticket_id, t.application, t.recommendation.hardware.name,
         t.recommendation.explored, t.observed_runtime)
        for t in tickets
    ]
    return Outcome(
        decisions=len(requests),
        outputs={"tickets": outcomes, "snapshots": snapshots},
        failed=len(left),
        violations=violations,
        latencies={"recommend": recommend_lat, "observe": observe_lat},
    )


# Why each workload is here, and what it should and should not move:
# README.md, "Workloads, and why each was chosen".
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            inputs=lambda seed: seed,
            build=_sweep_build,
            run=_sweep_run,
            outcome=_sweep_outcome,
            reusable=True,
        ),
        Workload(
            "paper-loop",
            inputs=lambda seed: seed,
            build=_paper_build,
            run=_paper_run,
            outcome=_paper_outcome,
            reusable=True,
        ),
        Workload(
            "stress",
            inputs=_stress_inputs,
            build=_stress_build,
            run=_stress_run,
            outcome=_stress_outcome,
            reusable=False,
        ),
        Workload(
            "service",
            inputs=_service_inputs,
            build=_service_build,
            run=_service_run,
            outcome=_service_outcome,
            reusable=False,
        ),
    )
}
