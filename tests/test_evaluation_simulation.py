"""Tests for the replicated online simulation and the experiment registry."""

import numpy as np
import pytest

from repro.data import build_cycles_dataset
from repro.evaluation import (
    EXPERIMENT_NAMES,
    OnlineSimulation,
    SimulationConfig,
    SimulationResult,
    build_experiment,
    format_series,
    run_experiment,
)
from repro.evaluation.experiment import ExperimentDefinition
from repro.hardware import ndp_catalog
from repro.workloads import LinearRuntimeWorkload, TraceGenerator


@pytest.fixture
def linear_setup(ndp):
    workload = LinearRuntimeWorkload(
        feature_ranges={"x": (1.0, 10.0)},
        coefficients={
            "H0": ({"x": 20.0}, 10.0),
            "H1": ({"x": 4.0}, 10.0),
            "H2": ({"x": 10.0}, 10.0),
        },
        noise_sigma=1.0,
    )
    frame = TraceGenerator(workload, ndp, seed=21).generate_frame(40, grid=True)
    return workload, frame


class TestSimulationConfig:
    def test_defaults_match_paper(self):
        cfg = SimulationConfig()
        assert cfg.epsilon0 == 1.0
        assert cfg.decay == 0.99
        assert cfg.policy == "epsilon_greedy"
        assert cfg.arm_model == "ols"

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_rounds=0)
        with pytest.raises(ValueError):
            SimulationConfig(n_simulations=0)
        with pytest.raises(ValueError):
            SimulationConfig(policy="bogus")
        with pytest.raises(ValueError):
            SimulationConfig(arm_model="bogus")
        with pytest.raises(ValueError):
            SimulationConfig(evaluation_subsample=0)

    def test_policy_factory(self):
        for name in ("epsilon_greedy", "greedy", "random", "linucb", "thompson"):
            policy = SimulationConfig(policy=name).make_policy()
            assert policy is not None

    def test_tolerance_property(self):
        cfg = SimulationConfig(tolerance_ratio=0.05, tolerance_seconds=20.0)
        assert cfg.tolerance.ratio == 0.05
        assert cfg.tolerance.seconds == 20.0


class TestOnlineSimulation:
    def _run(self, workload, frame, ndp, **overrides):
        defaults = dict(n_rounds=30, n_simulations=4, seed=0)
        defaults.update(overrides)
        config = SimulationConfig(**defaults)
        return OnlineSimulation(workload, ndp, frame, config=config).run()

    def test_result_shapes(self, linear_setup, ndp):
        workload, frame = linear_setup
        result = self._run(workload, frame, ndp)
        assert result.rmse.shape == (4, 30)
        assert result.accuracy.shape == (4, 30)
        assert result.rounds[0] == 1 and result.rounds[-1] == 30

    def test_rmse_decreases_toward_reference(self, linear_setup, ndp):
        workload, frame = linear_setup
        result = self._run(workload, frame, ndp)
        early = result.mean_rmse()[:5].mean()
        late = result.mean_rmse()[-5:].mean()
        assert late < early
        assert late < 3.0 * result.reference_rmse

    def test_accuracy_beats_random_on_separable_workload(self, linear_setup, ndp):
        workload, frame = linear_setup
        result = self._run(workload, frame, ndp)
        assert result.accuracy_at(30)[0] > result.random_accuracy

    def test_reproducible_with_same_seed(self, linear_setup, ndp):
        workload, frame = linear_setup
        a = self._run(workload, frame, ndp, seed=7)
        b = self._run(workload, frame, ndp, seed=7)
        assert np.allclose(a.rmse, b.rmse)
        assert np.allclose(a.accuracy, b.accuracy)

    def test_different_seeds_differ(self, linear_setup, ndp):
        workload, frame = linear_setup
        a = self._run(workload, frame, ndp, seed=1)
        b = self._run(workload, frame, ndp, seed=2)
        assert not np.allclose(a.rmse, b.rmse)

    def test_random_policy_has_lower_accuracy(self, linear_setup, ndp):
        workload, frame = linear_setup
        bandit = self._run(workload, frame, ndp, n_rounds=40)
        random = self._run(workload, frame, ndp, n_rounds=40, policy="random")
        # Recommendation quality is scored with the greedy head, so what
        # differs is how informative the collected data is; the random policy
        # should not be better than the bandit.
        assert bandit.accuracy_at(40)[0] >= random.accuracy_at(40)[0] - 0.1

    def test_alternative_arm_models_run(self, linear_setup, ndp):
        workload, frame = linear_setup
        for arm_model in ("ridge", "rls"):
            result = self._run(workload, frame, ndp, arm_model=arm_model, n_rounds=15, n_simulations=2)
            assert np.all(np.isfinite(result.rmse))

    def test_alternative_policies_run(self, linear_setup, ndp):
        workload, frame = linear_setup
        for policy in ("greedy", "linucb", "thompson"):
            result = self._run(
                workload, frame, ndp, policy=policy, arm_model="rls", n_rounds=15, n_simulations=2
            )
            assert np.all(np.isfinite(result.accuracy))

    def test_evaluation_subsample(self, linear_setup, ndp):
        workload, frame = linear_setup
        result = self._run(workload, frame, ndp, evaluation_subsample=10, n_rounds=10, n_simulations=2)
        assert result.rmse.shape == (2, 10)

    def test_tolerance_changes_accuracy_semantics(self, ndp):
        workload = LinearRuntimeWorkload(
            feature_ranges={"x": (1.0, 10.0)},
            coefficients={
                "H0": ({"x": 5.2}, 10.0),   # slightly slower but most efficient
                "H1": ({"x": 5.0}, 10.0),
                "H2": ({"x": 4.9}, 10.0),   # fastest
            },
            noise_sigma=0.5,
        )
        frame = TraceGenerator(workload, ndp, seed=5).generate_frame(40, grid=True)
        strict = OnlineSimulation(
            workload, ndp, frame, config=SimulationConfig(n_rounds=30, n_simulations=3, seed=0)
        ).run()
        tolerant = OnlineSimulation(
            workload,
            ndp,
            frame,
            config=SimulationConfig(n_rounds=30, n_simulations=3, seed=0, tolerance_seconds=20.0),
        ).run()
        assert tolerant.accuracy_at(30)[0] >= strict.accuracy_at(30)[0]

    def test_missing_columns_rejected(self, linear_setup, ndp):
        workload, frame = linear_setup
        bad = frame.drop("runtime_seconds")
        with pytest.raises(KeyError):
            OnlineSimulation(workload, ndp, bad)

    def test_frame_without_workload_features_rejected(self, linear_setup, ndp):
        # The context features are present, but none of the workload's own
        # features are, so the ground-truth tables cannot be built.
        workload, frame = linear_setup
        renamed = frame.rename({"x": "z"})
        with pytest.raises(KeyError, match="none of the features"):
            OnlineSimulation(workload, ndp, renamed, feature_names=["z"])

    def test_sample_from_model_mode(self, linear_setup, ndp):
        workload, frame = linear_setup
        sim = OnlineSimulation(
            workload, ndp, frame,
            config=SimulationConfig(n_rounds=10, n_simulations=2, seed=0),
            sample_from_frame=False,
        )
        result = sim.run()
        assert np.all(np.isfinite(result.rmse))


class TestSimulationResult:
    def _result(self, linear_setup, ndp):
        workload, frame = linear_setup
        config = SimulationConfig(n_rounds=20, n_simulations=3, seed=0)
        return OnlineSimulation(workload, ndp, frame, config=config).run()

    def test_round_indexing_is_one_based(self, linear_setup, ndp):
        result = self._result(linear_setup, ndp)
        with pytest.raises(ValueError):
            result.rmse_at(0)
        with pytest.raises(ValueError):
            result.accuracy_at(21)
        mean, std = result.rmse_at(20)
        assert mean > 0 and std >= 0

    def test_gap_to_reference(self, linear_setup, ndp):
        result = self._result(linear_setup, ndp)
        gap = result.rmse_gap_to_reference(20)
        assert gap == pytest.approx(
            (result.mean_rmse()[-1] - result.reference_rmse) / result.reference_rmse
        )

    def test_to_frame_columns(self, linear_setup, ndp):
        frame = self._result(linear_setup, ndp).to_frame()
        assert {"round", "rmse_mean", "rmse_std", "accuracy_mean", "accuracy_std"} <= set(frame.columns)
        assert len(frame) == 20

    def test_summary_keys(self, linear_setup, ndp):
        summary = self._result(linear_setup, ndp).summary()
        assert {"final_rmse_mean", "reference_rmse", "random_accuracy"} <= set(summary)

    def test_format_series_renders(self, linear_setup, ndp):
        text = format_series(self._result(linear_setup, ndp), every=5, title="demo")
        assert "demo" in text
        assert "reference" in text


class TestExperimentRegistry:
    def test_all_names_buildable(self):
        for name in EXPERIMENT_NAMES:
            definition = build_experiment(name, n_simulations=1, n_rounds=2, evaluation_subsample=30)
            assert isinstance(definition, ExperimentDefinition)
            assert definition.paper_reference

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_experiment("not-an-experiment")

    def test_cycles_experiment_uses_tolerance_20s(self):
        definition = build_experiment("cycles_synthetic", n_simulations=1, n_rounds=2)
        assert definition.config.tolerance_seconds == 20.0

    def test_matmul_subset_filters_small_sizes(self):
        definition = build_experiment(
            "matmul_subset_no_tolerance", n_simulations=1, n_rounds=2
        )
        sizes = definition.evaluation_frame["size"].to_numpy(float)
        assert sizes.min() >= 5000

    def test_bp3d_area_only_has_single_feature(self):
        definition = build_experiment("bp3d_area_only", n_simulations=1, n_rounds=2)
        assert definition.feature_names == ["area"]

    def test_run_experiment_small(self):
        definition = build_experiment(
            "cycles_synthetic", n_simulations=2, n_rounds=10
        )
        outcome = run_experiment(definition)
        summary = outcome.summary()
        assert summary["final_accuracy_mean"] >= 0
        assert "rmse_gap_round_25" in summary
