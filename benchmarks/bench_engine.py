"""Benchmark the vectorised evaluation engine against the seed implementation.

Three benchmarks live here:

* ``run_bench`` -- the PR 1 engine benchmark (``BENCH_eval.json``);
* ``run_contention_bench`` -- the contention-suite benchmark
  (``BENCH_contention.json``): every registered scenario is played through
  the unified event-driven engine, timed per run, and the queue-aware
  headline numbers are recorded, plus the process-pool sweep throughput.
* ``run_interference_bench`` -- the interference-suite benchmark
  (``BENCH_interference.json``): each interference scenario is timed under
  its configured model *and* under the null model (same streams, full
  speed), recording the slowdown statistics and the progress-engine event
  overhead.
* ``run_kernel_bench`` -- the array-kernel benchmark (``BENCH_kernel.json``):
  asserts the golden fingerprint -- every registered scenario x
  {FirstFit, LeastSlowdown} reproduces ``frontier_parity_reference.json``
  **bit for bit** -- then times the interference-heavy replication sweep
  and two co-residency stress runs against pre-refactor wall-clock
  baselines (``kernel_baseline.json``, ``frontier_baseline.json``),
  recording the measured speedup factors either way.
* ``run_service_bench`` -- the serving-layer benchmark
  (``BENCH_service.json``): asserts the sharded ``RecommendationService``
  facade reproduces the pre-refactor reference stream **bit for bit** for
  every shard count (``service_parity_reference.json``) and that a
  checkpoint/restore round trip preserves state exactly, then drives the
  Zipfian / hotspot / bursty traffic mixes through the shard layer at one
  and four shards, recording recommendations/sec and p50/p95/p99 latency
  (event-driven simulated clock anchored to the real calibrated per-request
  cost) plus the real measured batching speedup.  It asserts the headline
  result: four-shard throughput on the Zipfian mix is at least twice the
  single-shard throughput.
* ``run_placement_bench`` -- the placement-suite benchmark
  (``BENCH_placement.json``): the interference scenarios are replayed under
  each placement policy (first-fit, best-fit, spread, pack,
  least-slowdown) across several seeds, recording per-policy slowdown and
  makespan.  It asserts the headline
  result: ``LeastSlowdown`` cuts mean slowdown strictly below ``Pack`` on
  ``interference-heavy`` for every benchmarked seed.

The engine benchmark measures wall-clock rounds/second of the replicated
BP3D online simulation (50 rounds x 10 replications by default) under three
engines:

* ``seed``     -- a verbatim reconstruction of the seed engine: per-arm OLS
  models that re-stack their full data store and re-solve ``lstsq`` after
  every observation, dict-based ``recommend``/``observe`` with per-call
  validation, audit estimates on every round, history tracking, and a full
  re-scoring of the evaluation set after every round of every replication
  (including the seed's ε-decay-during-seeding schedule).
* ``serial``   -- the batched engine (``OnlineSimulation.run``,
  ``n_workers=1``): incremental normal-equation refits, deferred whole-series
  scoring, validation hoisted out of the per-round path.
* ``parallel`` -- the same engine with a process pool over replications.

The headline ``speedup_serial_vs_seed`` compares the new engine to the seed
engine.  Because the seed baseline also carries the old ε schedule, engine
*mechanics* are verified separately: a legacy-style per-round loop with the
fixed semantics and the full solver is compared against the batched engine
running ``arm_model="ols_full"`` (expected: identical decisions, float-level
score differences), and the incremental solver is compared against the full
solver (expected: identical decisions; transient per-round score deviations
on ill-conditioned rounds that re-converge).  Results land in
``BENCH_eval.json`` at the repository root.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_engine.py [--rounds N] [--simulations N]
        [--workers N] [--repeats N] [--output PATH] [--suite engine|contention|all]

This module is not collected by pytest (no ``test_`` prefix); the ``slow``
marked test in ``tests/test_engine_parity.py`` exercises it on a small budget.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core.banditware import BanditWare
from repro.core.models.base import ArmModel
from repro.core.policies import DecayingEpsilonGreedyPolicy
from repro.evaluation.experiment import build_experiment
from repro.evaluation.simulation import OnlineSimulation
from repro.utils.rng import SeedSequencePool
from repro.utils.validation import check_feature_matrix

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_eval.json"
DEFAULT_CONTENTION_OUTPUT = REPO_ROOT / "BENCH_contention.json"
DEFAULT_INTERFERENCE_OUTPUT = REPO_ROOT / "BENCH_interference.json"
DEFAULT_PLACEMENT_OUTPUT = REPO_ROOT / "BENCH_placement.json"
DEFAULT_KERNEL_OUTPUT = REPO_ROOT / "BENCH_kernel.json"
DEFAULT_SERVICE_OUTPUT = REPO_ROOT / "BENCH_service.json"


class _SeedOLS(ArmModel):
    """The seed repository's LeastSquaresModel, reconstructed verbatim.

    Keeps the full data store in Python lists and re-stacks + re-solves
    ``numpy.linalg.lstsq`` on the ``[X | 1]`` design after every observation;
    every call path revalidates its inputs, exactly like the seed.
    """

    def __init__(self, n_features: int):
        super().__init__(n_features)
        self._X: List[np.ndarray] = []
        self._y: List[float] = []
        self._w = np.zeros(self.n_features)
        self._b = 0.0

    @property
    def coefficients(self) -> np.ndarray:
        return self._w.copy()

    @property
    def intercept(self) -> float:
        return float(self._b)

    def _refit(self) -> None:
        X = np.vstack(self._X)
        y = np.asarray(self._y, dtype=float)
        design = np.hstack([X, np.ones((X.shape[0], 1))])
        solution, *_ = np.linalg.lstsq(design, y, rcond=None)
        self._w = solution[:-1]
        self._b = float(solution[-1])

    def update(self, x, runtime: float) -> None:
        context = self._check_context(x)
        self._X.append(context)
        self._y.append(float(runtime))
        self._n_observations += 1
        self._refit()

    def update_vector(self, context: np.ndarray, runtime: float) -> None:
        # The seed had no trusted fast path; reproduce its per-call cost.
        self.update(context, runtime)

    def predict(self, x) -> float:
        context = self._check_context(x)
        return float(self._w @ context + self._b)

    def predict_vector(self, context: np.ndarray) -> float:
        return self.predict(context)

    def predict_batch(self, X) -> np.ndarray:
        X = check_feature_matrix(X, name="X", n_features=self.n_features)
        return np.asarray([self.predict(row) for row in X], dtype=float)


def _seed_score_models(sim: OnlineSimulation, W: np.ndarray, b: np.ndarray) -> tuple:
    """The seed's per-round scorer, verbatim (one round at a time)."""
    predictions_all = sim._X_eval @ W.T + b  # (n_eval, n_arms)
    predicted = predictions_all[np.arange(len(sim._y_eval)), sim._hw_idx]
    rmse_value = float(np.sqrt(np.mean((sim._y_eval - predicted) ** 2)))
    tol = sim.config.tolerance
    fastest = predictions_all.min(axis=1)
    limit = (1.0 + tol.ratio) * fastest + tol.seconds  # the seed's unclamped limit
    candidates = predictions_all <= limit[:, None]
    rank_matrix = np.where(candidates, sim._efficiency_rank[None, :], np.inf)
    chosen = rank_matrix.argmin(axis=1)
    correct = sim._acceptable[np.arange(len(chosen)), chosen]
    return rmse_value, float(np.mean(correct))


def _run_per_round_loop(
    sim: OnlineSimulation, seed_semantics: bool
) -> tuple:
    """The seed engine's replication loop on top of ``sim``'s data.

    With ``seed_semantics=True`` this is the full seed reconstruction
    (ε decays during the deterministic seeding rounds, seed scorer).  With
    ``seed_semantics=False`` it keeps the fixed selection semantics and the
    library scorer, isolating engine *mechanics* for the parity check.
    """
    cfg = sim.config
    pool = SeedSequencePool(cfg.seed)
    rmse = np.empty((cfg.n_simulations, cfg.n_rounds))
    accuracy = np.empty((cfg.n_simulations, cfg.n_rounds))
    n_pool = len(sim._workflow_pool)
    for s in range(cfg.n_simulations):
        rng = pool.generator(s)
        bandit = BanditWare(
            catalog=sim.catalog,
            feature_names=sim.feature_names,
            policy=DecayingEpsilonGreedyPolicy(
                epsilon0=cfg.epsilon0,
                decay=cfg.decay,
                tolerance=cfg.tolerance,
                decay_during_seeding=seed_semantics,
            ),
            arm_model_factory=_SeedOLS,
            seed=rng,
        )
        for r in range(cfg.n_rounds):
            features = dict(sim._workflow_pool[int(rng.integers(n_pool))])
            scaled = sim._scale_context(features)
            recommendation = bandit.recommend(scaled)
            runtime = sim.workload.observed_runtime(features, recommendation.hardware, rng)
            bandit.observe(scaled, recommendation.hardware, runtime)
            W, b = sim._coefficient_matrices(bandit)
            if seed_semantics:
                rmse[s, r], accuracy[s, r] = _seed_score_models(sim, W, b)
            else:
                rmse[s, r], accuracy[s, r] = sim._score_models(W, b)
    return rmse, accuracy


def _build_simulation(n_rounds: int, n_simulations: int, n_workers: int = 1, arm_model: str = "ols") -> OnlineSimulation:
    definition = build_experiment(
        "bp3d_all_features", n_simulations=n_simulations, n_rounds=n_rounds
    )
    config = replace(definition.config, n_workers=n_workers, arm_model=arm_model)
    return OnlineSimulation(
        workload=definition.workload,
        catalog=definition.catalog,
        evaluation_frame=definition.evaluation_frame,
        config=config,
        feature_names=definition.feature_names,
    )


def _time_best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_bench(
    n_rounds: int = 50,
    n_simulations: int = 10,
    n_workers: Optional[int] = None,
    repeats: int = 3,
    output: Optional[os.PathLike] = DEFAULT_OUTPUT,
) -> Dict:
    """Run all engines, check parity, and (optionally) write the JSON report."""
    if n_workers is None:
        n_workers = min(4, os.cpu_count() or 1)
    total_rounds = n_rounds * n_simulations

    sim = _build_simulation(n_rounds, n_simulations, n_workers=1)
    _run_per_round_loop(sim, seed_semantics=True)  # warm caches
    seed_seconds = _time_best(lambda: _run_per_round_loop(sim, seed_semantics=True), repeats)

    serial_result = sim.run()
    serial_seconds = _time_best(lambda: sim.run(), repeats)

    parallel_sim = _build_simulation(n_rounds, n_simulations, n_workers=n_workers)
    parallel_result = parallel_sim.run()
    parallel_seconds = (
        _time_best(lambda: parallel_sim.run(), repeats) if n_workers > 1 else serial_seconds
    )

    # Parity 1: process-pool replications must be bit-identical to serial.
    serial_vs_parallel = bool(
        np.array_equal(serial_result.rmse, parallel_result.rmse)
        and np.array_equal(serial_result.accuracy, parallel_result.accuracy)
    )

    # Parity 2: the batched engine with the full (seed) solver against a
    # per-round legacy loop with the same fixed semantics.
    full_sim = _build_simulation(n_rounds, n_simulations, n_workers=1, arm_model="ols_full")
    full_result = full_sim.run()
    legacy_rmse, legacy_accuracy = _run_per_round_loop(full_sim, seed_semantics=False)
    rmse_scale = max(float(np.abs(legacy_rmse).max()), 1e-12)
    engine_vs_legacy_rmse = float(np.abs(legacy_rmse - full_result.rmse).max() / rmse_scale)
    engine_vs_legacy_accuracy = float(np.abs(legacy_accuracy - full_result.accuracy).max())

    # Parity 3: incremental vs full solver (identical decisions expected;
    # transient fp-amplified score differences allowed on ill-conditioned
    # rounds).
    inc_vs_full_rmse = float(np.abs(serial_result.rmse - full_result.rmse).max() / rmse_scale)
    inc_vs_full_final = float(
        np.abs(serial_result.mean_rmse()[-1] - full_result.mean_rmse()[-1]) / rmse_scale
    )

    best_seconds = min(serial_seconds, parallel_seconds)
    report = {
        "benchmark": "engine_bp3d",
        "n_rounds": n_rounds,
        "n_simulations": n_simulations,
        "n_eval_rows": len(sim._y_eval),
        "cpu_count": os.cpu_count(),
        "seed_seconds": seed_seconds,
        "seed_rounds_per_sec": total_rounds / seed_seconds,
        "serial_seconds": serial_seconds,
        "serial_rounds_per_sec": total_rounds / serial_seconds,
        "parallel_workers": n_workers,
        "parallel_seconds": parallel_seconds,
        "parallel_rounds_per_sec": total_rounds / parallel_seconds,
        "speedup_serial_vs_seed": seed_seconds / serial_seconds,
        "speedup_best_vs_seed": seed_seconds / best_seconds,
        "parity": {
            "serial_vs_parallel_identical": serial_vs_parallel,
            "engine_vs_legacy_rmse_max_rel_diff": engine_vs_legacy_rmse,
            "engine_vs_legacy_accuracy_max_abs_diff": engine_vs_legacy_accuracy,
            "incremental_vs_full_rmse_max_rel_diff": inc_vs_full_rmse,
            "incremental_vs_full_final_rmse_rel_diff": inc_vs_full_final,
        },
    }
    if output is not None:
        Path(output).write_text(json.dumps(report, indent=2) + "\n")
    return report


def run_contention_bench(
    seeds: int = 3,
    n_workers: Optional[int] = None,
    repeats: int = 3,
    output: Optional[os.PathLike] = DEFAULT_CONTENTION_OUTPUT,
) -> Dict:
    """Time every registered contention scenario on the unified engine.

    Per scenario: best-of-``repeats`` wall clock of one seed-0 run plus the
    seed-0 queue-aware headline numbers (queue seconds, occupancy, wasted
    and node-pool cost, queue-inclusive regret).  A final section times the
    whole suite swept over ``seeds`` seeds serially vs. on the process pool
    (scenario pickling is what makes the fan-out possible).
    """
    from repro.evaluation.contention import CONTENTION_SCENARIOS, build_scenario, run_scenario
    from repro.evaluation.engine import run_scenario_sweep

    if n_workers is None:
        n_workers = min(4, os.cpu_count() or 1)
    scenarios: Dict[str, Dict] = {}
    for name in sorted(CONTENTION_SCENARIOS):
        # The warm-up run doubles as the (deterministic) summary source.
        summary = run_scenario(build_scenario(name, seed=0)).summary()
        seconds = _time_best(lambda: run_scenario(build_scenario(name, seed=0)), repeats)
        scenarios[name] = {
            "seconds_per_run": seconds,
            "workflows": summary["workflows"],
            "total_queue_seconds": summary["total_queue_seconds"],
            "occupancy_cost": summary["occupancy_cost"],
            "wasted_occupancy_cost": summary["wasted_occupancy_cost"],
            "node_pool_cost": summary["node_pool_cost"],
            "preemptions": summary["preemptions"],
            "queue_inclusive_regret": summary["queue_inclusive_regret"],
            "accuracy": summary["accuracy"],
        }
    sweep = [
        build_scenario(name, seed=seed)
        for name in sorted(CONTENTION_SCENARIOS)
        for seed in range(seeds)
    ]
    serial_seconds = _time_best(lambda: run_scenario_sweep(sweep, n_workers=1), repeats)
    pool_seconds = (
        _time_best(lambda: run_scenario_sweep(sweep, n_workers=n_workers), repeats)
        if n_workers > 1
        else serial_seconds
    )
    report = {
        "benchmark": "contention_suite",
        "cpu_count": os.cpu_count(),
        "seeds": seeds,
        "scenarios": scenarios,
        "sweep_runs": len(sweep),
        "sweep_serial_seconds": serial_seconds,
        "sweep_pool_workers": n_workers,
        "sweep_pool_seconds": pool_seconds,
        "sweep_speedup": serial_seconds / pool_seconds if pool_seconds else 1.0,
    }
    if output is not None:
        Path(output).write_text(json.dumps(report, indent=2) + "\n")
    return report


def run_interference_bench(
    repeats: int = 3,
    output: Optional[os.PathLike] = DEFAULT_INTERFERENCE_OUTPUT,
) -> Dict:
    """Time the interference suite.

    Per interference scenario: best-of-``repeats`` wall clock under the
    configured model and under the null counterfactual (identical tenants,
    streams and seeds -- the difference is pure progress-engine overhead
    plus the stretched schedule), with the seed-0 slowdown headline numbers.
    """
    from repro.evaluation.contention import build_scenario, run_scenario

    scenarios: Dict[str, Dict] = {}
    for name in ("interference-light", "interference-heavy", "noisy-neighbor"):
        contended = run_scenario(build_scenario(name, seed=0)).summary()
        seconds = _time_best(lambda: run_scenario(build_scenario(name, seed=0)), repeats)
        null_seconds = _time_best(
            lambda: run_scenario(build_scenario(name, seed=0).with_interference(None)),
            repeats,
        )
        scenarios[name] = {
            "seconds_per_run": seconds,
            "seconds_per_run_null_model": null_seconds,
            "workflows": contended["workflows"],
            "mean_slowdown": contended["mean_slowdown"],
            "max_slowdown": contended["max_slowdown"],
            "interference_seconds": contended["interference_seconds"],
            "interference_inclusive_regret": contended["interference_inclusive_regret"],
            "cumulative_regret": contended["cumulative_regret"],
            "makespan_seconds": contended["makespan_seconds"],
            "accuracy": contended["accuracy"],
        }
    report = {
        "benchmark": "interference_suite",
        "cpu_count": os.cpu_count(),
        "scenarios": scenarios,
    }
    if output is not None:
        Path(output).write_text(json.dumps(report, indent=2) + "\n")
    return report


def run_placement_bench(
    seeds: int = 3,
    repeats: int = 3,
    output: Optional[os.PathLike] = DEFAULT_PLACEMENT_OUTPUT,
) -> Dict:
    """Benchmark placement policies.

    Asserted (CI runs this suite in smoke mode): **interference-aware
    placement pays** -- on ``interference-heavy``, ``LeastSlowdown``
    achieves strictly lower mean slowdown than ``Pack`` for *every*
    benchmarked seed.
    """
    from repro.evaluation.contention import build_scenario, run_scenario

    policies = ["first-fit", "best-fit", "spread", "pack", "least-slowdown"]
    comparison_scenarios = ["interference-heavy", "spread-vs-pack", "hetero-nodes"]
    scenarios: Dict[str, Dict] = {}
    for scenario_name in comparison_scenarios:
        per_policy: Dict[str, Dict] = {}
        for policy in policies:
            slowdowns: List[float] = []
            makespans: List[float] = []
            regrets: List[float] = []
            for seed in range(seeds):
                scenario = build_scenario(scenario_name, seed=seed).with_placement(policy)
                summary = run_scenario(scenario).summary()
                slowdowns.append(summary["mean_slowdown"])
                makespans.append(summary["makespan_seconds"])
                regrets.append(summary["interference_inclusive_regret"])
            bench_scenario = build_scenario(scenario_name, seed=0).with_placement(policy)
            seconds = _time_best(lambda: run_scenario(bench_scenario), repeats)
            per_policy[policy] = {
                "seconds_per_run": seconds,
                "mean_slowdown_per_seed": slowdowns,
                "mean_slowdown": float(np.mean(slowdowns)),
                "makespan_seconds_mean": float(np.mean(makespans)),
                "interference_inclusive_regret_mean": float(np.mean(regrets)),
            }
        scenarios[scenario_name] = per_policy

    heavy = scenarios["interference-heavy"]
    least_beats_pack = all(
        ls < pk
        for ls, pk in zip(
            heavy["least-slowdown"]["mean_slowdown_per_seed"],
            heavy["pack"]["mean_slowdown_per_seed"],
        )
    )
    report = {
        "benchmark": "placement_suite",
        "cpu_count": os.cpu_count(),
        "seeds": seeds,
        "policies": policies,
        "scenarios": scenarios,
        "least_slowdown_beats_pack_on_interference_heavy": least_beats_pack,
    }
    if output is not None:
        Path(output).write_text(json.dumps(report, indent=2) + "\n")
    if not least_beats_pack:
        raise AssertionError(
            "LeastSlowdown no longer beats Pack on interference-heavy: "
            f"{heavy['least-slowdown']['mean_slowdown_per_seed']} vs "
            f"{heavy['pack']['mean_slowdown_per_seed']}"
        )
    return report


def run_service_bench(
    n_requests: int = 2000,
    repeats: int = 3,
    shard_counts: tuple = (1, 2, 4),
    output: Optional[os.PathLike] = DEFAULT_SERVICE_OUTPUT,
) -> Dict:
    """Benchmark the sharded serving layer and pin its parity guarantees.

    Three guarantees are asserted (CI runs this suite in smoke mode):

    * **facade parity** -- the sharded ``RecommendationService`` replays the
      pre-refactor reference stream bit for bit at every shard count
      (``service_parity_reference.json``);
    * **checkpoint round trip** -- checkpoint -> restore reproduces the
      service state exactly (same recommenders, tickets, history, pending
      set);
    * **sharding pays** -- four-shard throughput on the Zipfian mix is at
      least 2x single-shard.

    Throughput/latency numbers come from the event-driven load harness: real
    recommendations and real learning on a simulated clock anchored to the
    real calibrated per-request cost (reported as
    ``measured_cost_per_request_seconds``), so the shard scaling measures
    the architecture rather than this container's core count.  The real
    wall-clock batching speedup (coalesced entry points vs one call per
    request) is measured separately.
    """
    import sys

    benchmarks_dir = str(Path(__file__).resolve().parent)
    if benchmarks_dir not in sys.path:  # imported as a module (tests, CI)
        sys.path.insert(0, benchmarks_dir)
    from capture_service_parity import (
        REFERENCE_PATH,
        build_reference_service,
        drive_reference_stream,
        run_reference_stream,
        summarise_service,
    )
    from repro.evaluation.service_load import (
        ServiceLoadConfig,
        calibrate_cost_per_request,
        run_service_load,
    )
    from repro.integration import RecommendationService

    # --- facade parity: sharded service vs pre-refactor reference stream ---
    reference = json.loads(REFERENCE_PATH.read_text())
    parity_drift: Dict[str, str] = {}
    for n_shards in (1, 2, 3, 4):
        summary = json.loads(
            json.dumps(run_reference_stream(n_shards=n_shards, n_rounds=reference["n_rounds"]))
        )
        if summary != reference["summary"]:
            parity_drift[str(n_shards)] = "summary mismatch vs reference"
    parity_exact = not parity_drift

    # --- checkpoint round trip: restored state is bit-identical -----------
    service, workloads = build_reference_service(n_shards=3)
    drive_reference_stream(service, workloads, n_rounds=30)
    restored = RecommendationService.restore(service.checkpoint())
    checkpoint_parity = json.loads(json.dumps(summarise_service(service, []))) == json.loads(
        json.dumps(summarise_service(restored, []))
    )

    # --- real wall-clock anchors ------------------------------------------
    cost = min(calibrate_cost_per_request(seed=s) for s in range(repeats))
    from repro.evaluation.service_load import build_load_service

    batch_size = 64

    def _unbatched_cycle() -> None:
        svc, wls = build_load_service(ServiceLoadConfig(n_apps=4, n_shards=1, seed=0))
        rng = np.random.default_rng(0)
        apps = list(wls)
        tickets = []
        for i in range(batch_size):
            app = apps[i % len(apps)]
            tickets.append((app, svc.submit_workflow(app, wls[app].sample_features(rng))))
        for app, ticket in tickets:
            runtime = wls[app].observed_runtime(
                ticket.features, ticket.recommendation.hardware, rng
            )
            svc.complete_workflow(ticket.ticket_id, runtime)

    def _batched_cycle() -> None:
        svc, wls = build_load_service(ServiceLoadConfig(n_apps=4, n_shards=1, seed=0))
        rng = np.random.default_rng(0)
        apps = list(wls)
        completions = []
        for app in apps:
            share = batch_size // len(apps)
            features = [wls[app].sample_features(rng) for _ in range(share)]
            for ticket in svc.submit_workflows(app, features):
                runtime = wls[app].observed_runtime(
                    ticket.features, ticket.recommendation.hardware, rng
                )
                completions.append((ticket.ticket_id, runtime))
        svc.complete_workflows(completions)

    unbatched_seconds = _time_best(_unbatched_cycle, repeats)
    batched_seconds = _time_best(_batched_cycle, repeats)
    batching_speedup = unbatched_seconds / batched_seconds

    # --- traffic mixes through the shard layer (simulated clock) ----------
    mixes: Dict[str, Dict[str, Dict]] = {}
    for mix in ("zipfian", "hotspot", "bursty"):
        per_shards: Dict[str, Dict] = {}
        for n_shards in shard_counts:
            config = ServiceLoadConfig(
                n_shards=n_shards,
                n_requests=n_requests,
                cost_per_request=cost,
                saturation_shards=max(shard_counts),
            )
            per_shards[str(n_shards)] = run_service_load(mix, config).to_dict()
        mixes[mix] = per_shards

    max_shards = str(max(shard_counts))
    zipf_ratio = (
        mixes["zipfian"][max_shards]["throughput_rps"]
        / mixes["zipfian"]["1"]["throughput_rps"]
    )
    sharding_pays = zipf_ratio >= 2.0

    report = {
        "benchmark": "service_suite",
        "cpu_count": os.cpu_count(),
        "n_requests": n_requests,
        "clock": "simulated (event-driven; anchored to measured per-request cost)",
        "measured_cost_per_request_seconds": cost,
        "measured_recommendations_per_second": 1.0 / cost,
        "batching_speedup_wallclock": batching_speedup,
        "facade_parity_exact": parity_exact,
        "facade_parity_drift": parity_drift,
        "checkpoint_roundtrip_exact": checkpoint_parity,
        "mixes": mixes,
        "zipfian_throughput_ratio": zipf_ratio,
        "sharding_pays": sharding_pays,
    }
    if output is not None:
        Path(output).write_text(json.dumps(report, indent=2) + "\n")
    if not parity_exact:
        raise AssertionError(
            "service facade parity drift: the sharded RecommendationService no "
            f"longer reproduces the pre-refactor reference exactly ({parity_drift})"
        )
    if not checkpoint_parity:
        raise AssertionError(
            "service checkpoint round trip is no longer exact: restored state "
            "differs from the checkpointed service"
        )
    if not sharding_pays:
        raise AssertionError(
            f"sharding no longer pays: {max_shards}-shard Zipfian throughput is "
            f"only {zipf_ratio:.2f}x single-shard (need >= 2.0x)"
        )
    return report


def _kernel_stress(n_pods: int, node_cpus: int, node_memory_gb: float, profile: bool = False):
    """The kernel stress workload: one fat node, every pod co-resident.

    This must mirror ``kernel_baseline.json`` exactly -- the baseline
    seconds were measured on this workload at the pre-refactor commit.
    ``n_pods`` identical-shaped pods (2 CPUs / 8 GiB each) arrive one per
    second on a node big enough to run them all side by side under
    ``LinearSlowdown``, so every arrival and finish reschedules every
    resident: the worst case for per-topology-change interference
    evaluation and progress re-integration.
    """
    from repro.cluster.interference import LinearSlowdown
    from repro.cluster.node import Node
    from repro.cluster.simulator import ClusterSimulator
    from repro.hardware import HardwareCatalog, HardwareConfig
    from repro.workloads import LinearRuntimeWorkload

    catalog = HardwareCatalog([HardwareConfig("s", cpus=2, memory_gb=8)])
    workload = LinearRuntimeWorkload(
        feature_ranges={"size": (1.0, 8.0)},
        coefficients={"s": ({"size": 100.0}, 50.0)},
        noise_sigma=0.0,
        name="stress",
    )
    sim = ClusterSimulator(
        nodes=[Node("fat", cpus=node_cpus, memory_gb=node_memory_gb)],
        catalog=catalog,
        workload=workload,
        seed=0,
        interference=LinearSlowdown(alpha=0.5),
    )
    kernel_profile = sim.enable_profiling() if profile else None
    for i in range(n_pods):
        sim.submit({"size": 1.0 + (i % 7)}, "s", at_time=float(i))
    sim.run_until_idle()
    return kernel_profile


def _event_microbench(n: int = 50_000) -> Dict:
    """Per-event construction cost: dict-payload push vs payload-free frontier push.

    A micro-bench note for the kernel suite: ``push_frontier`` builds the
    event via ``__new__`` with an interned kind, a slot-field node slot and
    ``payload=None``, skipping the kwargs dict and keyword plumbing of the
    generic ``push`` path the hot loop used to take.
    """
    from repro.cluster.events import EventQueue

    q = EventQueue()
    started = time.perf_counter()
    for i in range(n):
        q.push(float(i), "pod_finished", pod_name="x", attempt=0, epoch=i)
    push_seconds = time.perf_counter() - started
    q = EventQueue()
    started = time.perf_counter()
    for i in range(n):
        q.push_frontier(float(i), 0)
    frontier_seconds = time.perf_counter() - started
    return {
        "events": n,
        "push_ns_per_event": push_seconds / n * 1e9,
        "push_frontier_ns_per_event": frontier_seconds / n * 1e9,
        "frontier_push_speedup": push_seconds / frontier_seconds,
        "note": (
            "push_frontier skips the per-event payload dict and keyword "
            "plumbing (interned kind, slot field, __new__)"
        ),
    }


def run_kernel_bench(
    repeats: int = 3,
    output: Optional[os.PathLike] = DEFAULT_KERNEL_OUTPUT,
) -> Dict:
    """Benchmark the array kernel and pin the golden fingerprint.

    Asserted (CI runs this suite in smoke mode):

    * **golden fingerprint** -- every scenario x {FirstFit, LeastSlowdown}
      fingerprint (summary, decision streams, accounting-row digest)
      matches ``frontier_parity_reference.json`` (captured at the
      per-pod-event commit) *exactly*.  Its ``first-fit`` runs are each
      scenario's default run, so this one assert also pins the array
      kernel, the placement refactor and the progress engine;
    * **event-count bound** -- the stress runs process at most
      ``4 x n_pods + topology_changes`` events: heap traffic must stay
      O(completions + topology changes), not O(pods x changes);
    * **kernel throughput floors** -- the co-residency stress runs at least
      2x faster than the per-pod-event kernel (``frontier_baseline.json``)
      and at least 2x faster than the pre-refactor per-object engine
      (``kernel_baseline.json``; the measured factors are recorded
      verbatim, whatever they are).
    """
    from repro.evaluation.contention import build_scenario, scenario_fingerprint
    from repro.evaluation.engine import run_scenario_replications

    bench_dir = Path(__file__).resolve().parent
    baseline = json.loads((bench_dir / "kernel_baseline.json").read_text())
    frontier_reference = json.loads(
        (bench_dir / "frontier_parity_reference.json").read_text()
    )
    frontier_baseline = json.loads((bench_dir / "frontier_baseline.json").read_text())

    frontier_drift: Dict[str, List[str]] = {}
    for name, per_placement in sorted(frontier_reference["scenarios"].items()):
        for placement, pinned in per_placement.items():
            observed = scenario_fingerprint(name, placement)
            bad = [key for key in pinned if observed.get(key) != pinned[key]]
            if bad:
                frontier_drift[f"{name}/{placement}"] = bad
    frontier_exact = not frontier_drift

    sweep_cfg = baseline["replication_sweep"]
    sweep_scenario = build_scenario(sweep_cfg["scenario"], seed=0)
    sweep_seconds = _time_best(
        lambda: run_scenario_replications(
            sweep_scenario, sweep_cfg["n_replications"], n_workers=1
        ),
        repeats,
    )

    stresses: Dict[str, Dict] = {}
    for key in ("kernel_stress", "kernel_stress_512"):
        cfg = baseline[key]
        pr6 = frontier_baseline[key]
        seconds = _time_best(
            lambda: _kernel_stress(
                cfg["n_pods"], cfg["node"]["cpus"], cfg["node"]["memory_gb"]
            ),
            repeats,
        )
        profile = _kernel_stress(
            cfg["n_pods"], cfg["node"]["cpus"], cfg["node"]["memory_gb"], profile=True
        )
        # Every reschedule call is one topology change touching a node.
        event_bound = 4 * cfg["n_pods"] + profile.reschedule_calls
        stresses[key] = {
            "n_pods": cfg["n_pods"],
            "node": dict(cfg["node"]),
            "seconds": seconds,
            "baseline_seconds": cfg["seconds"],
            "speedup_vs_pre_refactor": cfg["seconds"] / seconds,
            "event_engine_seconds": pr6["seconds"],
            "speedup_vs_event_engine": pr6["seconds"] / seconds,
            "events_processed": int(profile.events_processed),
            "events_processed_before_frontier": pr6["events_processed"],
            "events_processed_bound": int(event_bound),
        }

    # One profiled stress run: where the remaining kernel time goes and
    # what the heap traffic looks like under the frontier protocol.
    profile = _kernel_stress(
        baseline["kernel_stress"]["n_pods"],
        baseline["kernel_stress"]["node"]["cpus"],
        baseline["kernel_stress"]["node"]["memory_gb"],
        profile=True,
    )

    report = {
        "benchmark": "array_kernel",
        "cpu_count": os.cpu_count(),
        "baseline_commit": baseline["captured_at_commit"],
        "event_engine_commit": frontier_baseline["captured_at_commit"],
        "frontier_parity_exact": frontier_exact,
        "frontier_parity_drift": frontier_drift,
        "frontier_runs_pinned": sum(
            len(v) for v in frontier_reference["scenarios"].values()
        ),
        "replication_sweep": {
            "scenario": sweep_cfg["scenario"],
            "n_replications": sweep_cfg["n_replications"],
            "seconds": sweep_seconds,
            "baseline_seconds": sweep_cfg["seconds"],
            "speedup_vs_pre_refactor": sweep_cfg["seconds"] / sweep_seconds,
            "event_engine_seconds": frontier_baseline["replication_sweep"]["seconds"],
            "speedup_vs_event_engine": frontier_baseline["replication_sweep"]["seconds"]
            / sweep_seconds,
        },
        "stress": stresses,
        "stress_profile": profile.as_dict() if profile else None,
        "event_microbench": _event_microbench(),
    }
    if output is not None:
        Path(output).write_text(json.dumps(report, indent=2) + "\n")
    if not frontier_exact:
        raise AssertionError(
            "golden fingerprint drift: the simulator no longer reproduces "
            "frontier_parity_reference.json exactly "
            f"({frontier_drift})"
        )
    floor = 2.0
    for key, stress in stresses.items():
        if stress["speedup_vs_pre_refactor"] < floor:
            raise AssertionError(
                f"kernel throughput regression: {key} runs only "
                f"{stress['speedup_vs_pre_refactor']:.2f}x faster than the "
                f"pre-refactor engine (floor: {floor}x)"
            )
        if stress["speedup_vs_event_engine"] < floor:
            raise AssertionError(
                f"frontier throughput regression: {key} runs only "
                f"{stress['speedup_vs_event_engine']:.2f}x faster than the "
                f"per-pod-event kernel (floor: {floor}x)"
            )
        if stress["events_processed"] > stress["events_processed_bound"]:
            raise AssertionError(
                f"event-count regression: {key} processed "
                f"{stress['events_processed']} events, above the frontier "
                f"bound 4 x n_pods + topology_changes = "
                f"{stress['events_processed_bound']}"
            )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=50)
    parser.add_argument("--simulations", type=int, default=10)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT))
    parser.add_argument(
        "--contention-output",
        default=str(DEFAULT_CONTENTION_OUTPUT),
        help="where the contention-suite report lands",
    )
    parser.add_argument(
        "--interference-output",
        default=str(DEFAULT_INTERFERENCE_OUTPUT),
        help="where the interference-suite report lands",
    )
    parser.add_argument(
        "--placement-output",
        default=str(DEFAULT_PLACEMENT_OUTPUT),
        help="where the placement-suite report lands",
    )
    parser.add_argument(
        "--placement-seeds",
        type=int,
        default=3,
        help="seeds per policy in the placement suite (smoke mode: keep at 3, --repeats 1)",
    )
    parser.add_argument(
        "--kernel-output",
        default=str(DEFAULT_KERNEL_OUTPUT),
        help="where the array-kernel report lands",
    )
    parser.add_argument(
        "--service-output",
        default=str(DEFAULT_SERVICE_OUTPUT),
        help="where the serving-layer report lands",
    )
    parser.add_argument(
        "--service-requests",
        type=int,
        default=2000,
        help="requests per mix in the service suite (smoke mode: ~300)",
    )
    parser.add_argument(
        "--suite",
        choices=[
            "engine",
            "contention",
            "interference",
            "placement",
            "kernel",
            "service",
            "all",
        ],
        default="all",
        help="which benchmark(s) to run",
    )
    args = parser.parse_args(argv)
    reports = []
    if args.suite in ("engine", "all"):
        reports.append(
            run_bench(
                n_rounds=args.rounds,
                n_simulations=args.simulations,
                n_workers=args.workers,
                repeats=args.repeats,
                output=args.output,
            )
        )
    if args.suite in ("contention", "all"):
        reports.append(
            run_contention_bench(
                n_workers=args.workers,
                repeats=args.repeats,
                output=args.contention_output,
            )
        )
    if args.suite in ("interference", "all"):
        reports.append(
            run_interference_bench(
                repeats=args.repeats,
                output=args.interference_output,
            )
        )
    if args.suite in ("placement", "all"):
        reports.append(
            run_placement_bench(
                seeds=args.placement_seeds,
                repeats=args.repeats,
                output=args.placement_output,
            )
        )
    if args.suite in ("kernel", "all"):
        reports.append(
            run_kernel_bench(
                repeats=args.repeats,
                output=args.kernel_output,
            )
        )
    if args.suite in ("service", "all"):
        reports.append(
            run_service_bench(
                n_requests=args.service_requests,
                repeats=args.repeats,
                output=args.service_output,
            )
        )
    for report in reports:
        for key, value in report.items():
            print(f"{key}: {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
