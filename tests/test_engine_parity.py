"""Batch/sequential and parallel/serial parity of the evaluation engine.

The engine's contract is that none of its speed machinery changes results:

* ``recommend_batch`` / ``observe_batch`` reproduce the exact decisions and
  final model state of sequential calls under identical seeds;
* ``n_workers > 1`` reproduces the serial per-round RMSE/accuracy series
  bit for bit;
* the array-based tolerant-selection fast path picks the same arm as the
  dict-based audit path;
* the incremental normal-equation solver matches the full per-round lstsq
  refits.
"""

import numpy as np
import pytest

from repro.core.banditware import BanditWare
from repro.core.models import LeastSquaresModel, RecursiveLeastSquaresModel, RidgeModel
from repro.core.policies import DecayingEpsilonGreedyPolicy
from repro.core.selection import ToleranceConfig, TolerantSelector
from repro.evaluation import OnlineSimulation, SimulationConfig
from repro.workloads import LinearRuntimeWorkload, TraceGenerator


@pytest.fixture
def linear_setup(ndp):
    workload = LinearRuntimeWorkload.random(ndp, n_features=2, seed=3, noise_sigma=0.5)
    frame = TraceGenerator(workload, ndp, seed=17).generate_frame(30, grid=True)
    return workload, frame


def _random_features(rng, n=1):
    batch = [{"x0": float(rng.uniform(0, 100)), "x1": float(rng.uniform(0, 100))} for _ in range(n)]
    return batch if n > 1 else batch[0]


class TestBatchSequentialParity:
    def _bandit(self, ndp, seed=11):
        return BanditWare(catalog=ndp, feature_names=["x0", "x1"], seed=seed)

    def test_recommend_batch_matches_sequential(self, ndp):
        rng = np.random.default_rng(0)
        batch = _random_features(rng, 12)
        a, b = self._bandit(ndp), self._bandit(ndp)
        sequential = [a.recommend(f) for f in batch]
        batched = b.recommend_batch(batch)
        assert [r.hardware.name for r in sequential] == [r.hardware.name for r in batched]
        assert [r.explored for r in sequential] == [r.explored for r in batched]

    def test_observe_batch_matches_sequential(self, ndp, linear_workload):
        rng = np.random.default_rng(1)
        batch = _random_features(rng, 20)
        hardware = [ndp[int(rng.integers(len(ndp)))].name for _ in batch]
        runtimes = [
            linear_workload.observed_runtime(f, ndp[hw], np.random.default_rng(i))
            for i, (f, hw) in enumerate(zip(batch, hardware))
        ]
        a, b = self._bandit(ndp), self._bandit(ndp)
        for f, hw, rt in zip(batch, hardware, runtimes):
            a.observe(f, hw, rt)
        b.observe_batch(batch, hardware, runtimes)
        for model_a, model_b in zip(a.models, b.models):
            assert np.array_equal(model_a.coefficients, model_b.coefficients)
            assert model_a.intercept == model_b.intercept
            assert model_a.n_observations == model_b.n_observations
        assert len(a.history) == len(b.history)
        assert [h.hardware for h in a.history] == [h.hardware for h in b.history]

    def test_observe_batch_validates_before_mutating(self, ndp):
        bandit = self._bandit(ndp)
        with pytest.raises(ValueError):
            bandit.observe_batch(
                [{"x0": 1.0, "x1": 2.0}, {"x0": 3.0, "x1": 4.0}],
                ["H0", "H1"],
                [5.0, -1.0],
            )
        assert all(m.n_observations == 0 for m in bandit.models)

    def test_observe_batch_length_mismatch(self, ndp):
        with pytest.raises(ValueError):
            self._bandit(ndp).observe_batch([{"x0": 1.0, "x1": 2.0}], ["H0", "H1"], [1.0])

    def test_observe_batch_rejects_non_finite_context(self, ndp):
        bandit = self._bandit(ndp)
        with pytest.raises(ValueError, match="non-finite"):
            bandit.observe_batch(
                [{"x0": float("nan"), "x1": 1.0}], ["H0"], [10.0]
            )
        assert all(m.n_observations == 0 for m in bandit.models)

    def test_observe_vector_rejects_out_of_range_arm_index(self, ndp):
        bandit = self._bandit(ndp)
        with pytest.raises(IndexError):
            bandit.observe_vector(np.asarray([1.0, 2.0]), -1, 5.0)
        with pytest.raises(IndexError):
            bandit.observe_vector(np.asarray([1.0, 2.0]), len(ndp), 5.0)

    def test_custom_nonlinear_model_estimates_go_through_predict(self, ndp):
        from repro.core.models.base import ArmModel
        from repro.core.policies.base import BanditPolicy

        class SquaredModel(ArmModel):
            def __init__(self, n_features):
                super().__init__(n_features)
                self._w = np.ones(n_features)

            def update(self, x, runtime):
                self._n_observations += 1

            def predict(self, x):
                context = self._check_context(x)
                return float((self._w @ context) ** 2)

            @property
            def coefficients(self):
                return self._w.copy()

            @property
            def intercept(self):
                return 0.0

        models = [SquaredModel(2) for _ in ndp]
        estimates = BanditPolicy.estimate_runtimes(np.asarray([2.0, 1.0]), models, ndp)
        # Default predict_vector must delegate to predict (9.0), not assume
        # linearity (which would give 3.0).
        assert all(v == pytest.approx(9.0) for v in estimates.values())

    def test_warm_start_matches_sequential_observes(self, ndp, linear_workload):
        frame = TraceGenerator(linear_workload, ndp, seed=5).generate_frame(24)
        batched = self._bandit(ndp)
        batched.warm_start(frame)
        sequential = self._bandit(ndp)
        for row in frame.iterrows():
            features = {"x0": float(row["x0"]), "x1": float(row["x1"])}
            sequential.observe(features, str(row["hardware"]), float(row["runtime_seconds"]))
        for model_a, model_b in zip(batched.models, sequential.models):
            assert np.allclose(model_a.coefficients, model_b.coefficients, rtol=1e-10)
            assert model_a.intercept == pytest.approx(model_b.intercept, rel=1e-10)

    def test_predict_runtimes_batch_matches_scalar(self, ndp, linear_workload):
        bandit = self._bandit(ndp)
        frame = TraceGenerator(linear_workload, ndp, seed=5).generate_frame(12)
        bandit.warm_start(frame)
        rng = np.random.default_rng(2)
        batch = _random_features(rng, 7)
        matrix = bandit.predict_runtimes_batch(batch)
        assert matrix.shape == (7, len(ndp))
        for i, features in enumerate(batch):
            scalar = bandit.predict_runtimes(features)
            for j, hw in enumerate(ndp):
                assert matrix[i, j] == pytest.approx(scalar[hw.name], rel=1e-12)


class TestWorkerParity:
    def _series(self, linear_setup, ndp, n_workers):
        workload, frame = linear_setup
        config = SimulationConfig(n_rounds=12, n_simulations=4, seed=9, n_workers=n_workers)
        return OnlineSimulation(workload, ndp, frame, config=config).run()

    def test_parallel_bit_identical_to_serial(self, linear_setup, ndp):
        serial = self._series(linear_setup, ndp, n_workers=1)
        parallel = self._series(linear_setup, ndp, n_workers=2)
        assert np.array_equal(serial.rmse, parallel.rmse)
        assert np.array_equal(serial.accuracy, parallel.accuracy)

    def test_n_workers_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_workers=0)


class TestSelectorFastPath:
    def test_select_index_matches_dict_select(self, ndp):
        rng = np.random.default_rng(4)
        for tolerance in (
            ToleranceConfig(),
            ToleranceConfig(ratio=0.05),
            ToleranceConfig(seconds=20.0),
            ToleranceConfig(ratio=0.1, seconds=5.0),
        ):
            selector = TolerantSelector(tolerance=tolerance)
            for _ in range(200):
                values = rng.uniform(-50.0, 200.0, size=len(ndp))
                outcome = selector.select(ndp, values)
                arm, fastest, limit, n_candidates = selector.select_index(ndp, values)
                assert ndp[arm].name == outcome.chosen.name
                assert ndp[fastest].name == outcome.fastest.name
                assert limit == pytest.approx(outcome.limit)
                assert n_candidates == len(outcome.candidates)

    def test_policy_fast_path_matches_audit_path(self, ndp):
        models = []
        rng = np.random.default_rng(6)
        for _ in ndp:
            model = LeastSquaresModel(2)
            X = rng.uniform(0, 10, size=(8, 2))
            model.fit(X, rng.uniform(1, 100, size=8))
            models.append(model)
        for seed in range(20):
            audit = DecayingEpsilonGreedyPolicy(
                epsilon0=0.5, tolerance=ToleranceConfig(seconds=10.0), audit_estimates=True
            )
            fast = DecayingEpsilonGreedyPolicy(
                epsilon0=0.5, tolerance=ToleranceConfig(seconds=10.0), audit_estimates=False
            )
            context = np.asarray([5.0, 2.0])
            d1 = audit.select(context, models, ndp, np.random.default_rng(seed))
            d2 = fast.select(context, models, ndp, np.random.default_rng(seed))
            assert d1.arm_index == d2.arm_index
            assert d1.explored == d2.explored


class TestIncrementalSolverParity:
    def test_matches_full_refit_on_stream(self, rng):
        incremental = LeastSquaresModel(3)
        full = LeastSquaresModel(3, solver="full")
        for i in range(30):
            x = rng.uniform(0, 10, size=3)
            y = float(2.0 * x[0] - x[1] + 0.5 * x[2] + 7.0 + rng.normal(0, 0.1))
            incremental.update(x, y)
            full.update(x, y)
            if i < 3:
                # Under-determined rounds share the exact lstsq path.
                assert np.array_equal(incremental.coefficients, full.coefficients)
            else:
                assert np.allclose(incremental.coefficients, full.coefficients, rtol=1e-6)
                assert incremental.intercept == pytest.approx(full.intercept, rel=1e-6)

    def test_repeated_contexts_fall_back_gracefully(self):
        model = LeastSquaresModel(2)
        for _ in range(6):
            model.update([1.0, 2.0], 10.0)  # rank-deficient gram
        assert np.isfinite(model.coefficients).all()
        assert model.predict([1.0, 2.0]) == pytest.approx(10.0, rel=1e-6)

    def test_update_batch_matches_sequential(self, rng):
        X = rng.uniform(0, 10, size=(15, 2))
        y = rng.uniform(1, 50, size=15)
        for cls in (LeastSquaresModel, RidgeModel):
            one = cls(2)
            two = cls(2)
            for row, value in zip(X, y):
                one.update(row, float(value))
            two.update_batch(X, y)
            assert np.array_equal(one.coefficients, two.coefficients)
            assert one.intercept == two.intercept

    def test_update_vectors_matches_update_batch(self, rng):
        # The validation-free hot path: least squares ingests and solves
        # once; other models fall back to update_batch.
        X = rng.uniform(0, 10, size=(15, 2))
        y = rng.uniform(1, 50, size=15)
        for cls in (LeastSquaresModel, RidgeModel, RecursiveLeastSquaresModel):
            batch = cls(2)
            vectors = cls(2)
            batch.update_batch(X, y)
            vectors.update_vectors(list(X), y.tolist())
            vectors.update_vectors([], [])
            assert vectors.n_observations == batch.n_observations == 15
            assert np.array_equal(vectors.coefficients, batch.coefficients)
            assert vectors.intercept == batch.intercept


class TestServiceBatchParity:
    def _service(self, ndp, seed=5):
        from repro.integration import RecommendationService

        service = RecommendationService(catalog=ndp, seed=seed)
        service.register_application("app", owner="t", feature_names=["x0", "x1"])
        return service

    def test_submit_and_complete_workflows_match_sequential(self, ndp, linear_workload):
        rng = np.random.default_rng(8)
        batch = _random_features(rng, 10)
        batched = self._service(ndp)
        sequential = self._service(ndp)

        tickets_b = batched.submit_workflows("app", batch)
        tickets_s = [sequential.submit_workflow("app", f) for f in batch]
        assert [t.recommendation.hardware.name for t in tickets_b] == [
            t.recommendation.hardware.name for t in tickets_s
        ]

        runtimes = [float(10 + 5 * i) for i in range(len(batch))]
        batched.complete_workflows(
            [(t.ticket_id, rt) for t, rt in zip(tickets_b, runtimes)]
        )
        for t, rt in zip(tickets_s, runtimes):
            sequential.complete_workflow(t.ticket_id, rt)

        models_b = batched.recommender_for("app").models
        models_s = sequential.recommender_for("app").models
        for mb, ms in zip(models_b, models_s):
            assert np.array_equal(mb.coefficients, ms.coefficients)
        assert not batched.pending_tickets()
        assert len(batched.history.records_for("app")) == len(batch)

    def test_complete_workflows_rejects_unknown_ticket_atomically(self, ndp):
        service = self._service(ndp)
        tickets = service.submit_workflows("app", [{"x0": 1.0, "x1": 2.0}])
        with pytest.raises(KeyError):
            service.complete_workflows([(tickets[0].ticket_id, 5.0), ("nope", 1.0)])
        assert not tickets[0].completed

    def test_complete_workflows_rejects_duplicate_ticket_in_batch(self, ndp):
        service = self._service(ndp)
        tickets = service.submit_workflows("app", [{"x0": 1.0, "x1": 2.0}])
        with pytest.raises(ValueError, match="twice"):
            service.complete_workflows(
                [(tickets[0].ticket_id, 5.0), (tickets[0].ticket_id, 6.0)]
            )
        assert not tickets[0].completed
        assert not service.history.records_for("app")


@pytest.mark.slow
def test_bench_engine_smoke(tmp_path):
    """The benchmark harness runs end to end and emits a valid report."""
    from benchmarks.bench_engine import run_bench

    out = tmp_path / "BENCH_eval.json"
    report = run_bench(n_rounds=6, n_simulations=2, n_workers=2, repeats=1, output=out)
    assert out.exists()
    assert report["parity"]["serial_vs_parallel_identical"]
    assert report["speedup_serial_vs_seed"] > 0
