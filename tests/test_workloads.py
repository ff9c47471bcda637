"""Tests for the application workload models and trace generation."""

import numpy as np
import pytest

from repro.hardware import matmul_catalog, ndp_catalog, synthetic_catalog
from repro.workloads import (
    BP3D_FEATURES,
    BurnPro3DWorkload,
    CyclesWorkload,
    LinearRuntimeWorkload,
    MatrixMultiplicationWorkload,
    RunRecord,
    TraceGenerator,
    records_to_frame,
    tiled_matrix_square,
)


class TestRunRecord:
    def test_negative_runtime_rejected(self):
        with pytest.raises(ValueError):
            RunRecord("r", "app", "H0", -1.0)

    def test_feature_vector_ordering(self):
        rec = RunRecord("r", "app", "H0", 1.0, features={"b": 2.0, "a": 1.0})
        assert rec.feature_vector(["a", "b"]).tolist() == [1.0, 2.0]

    def test_feature_vector_missing(self):
        rec = RunRecord("r", "app", "H0", 1.0, features={"a": 1.0})
        with pytest.raises(KeyError):
            rec.feature_vector(["a", "z"])

    def test_to_row_flattens_features(self):
        rec = RunRecord("r", "app", "H0", 1.0, features={"x": 3.0})
        row = rec.to_row()
        assert row["x"] == 3.0 and row["hardware"] == "H0"

    def test_records_to_frame(self):
        frame = records_to_frame(
            [RunRecord(f"r{i}", "app", "H0", float(i), features={"x": 1.0}) for i in range(3)]
        )
        assert frame.shape == (3, 5)

    def test_records_to_frame_empty(self):
        assert records_to_frame([]).shape == (0, 0)


class TestCyclesWorkload:
    def test_feature_names(self):
        assert CyclesWorkload().feature_names == ["num_tasks"]

    def test_sampled_sizes_come_from_configured_set(self, rng):
        workload = CyclesWorkload(task_sizes=(100, 500))
        sizes = {workload.sample_features(rng)["num_tasks"] for _ in range(50)}
        assert sizes <= {100.0, 500.0}

    def test_runtime_is_linear_in_tasks(self):
        workload = CyclesWorkload()
        hw = synthetic_catalog(4)["H0"]
        r100 = workload.expected_runtime({"num_tasks": 100}, hw)
        r300 = workload.expected_runtime({"num_tasks": 300}, hw)
        r500 = workload.expected_runtime({"num_tasks": 500}, hw)
        assert r500 - r300 == pytest.approx(r300 - r100, rel=1e-9)

    def test_bigger_hardware_is_faster(self):
        workload = CyclesWorkload()
        catalog = synthetic_catalog(4)
        runtimes = [workload.expected_runtime({"num_tasks": 500}, hw) for hw in catalog]
        assert runtimes == sorted(runtimes, reverse=True)

    def test_scale_matches_figure_3(self):
        # ~3000 s for 500 tasks on the smallest configuration (Figure 3's y-axis).
        workload = CyclesWorkload()
        hw0 = synthetic_catalog(4)["H0"]
        assert 1500 <= workload.expected_runtime({"num_tasks": 500}, hw0) <= 4500

    def test_true_coefficients_match_expected_runtime(self):
        workload = CyclesWorkload()
        hw = synthetic_catalog(4)["H1"]
        coeffs = workload.true_coefficients(hw)
        predicted = coeffs["w_num_tasks"] * 250 + coeffs["b"]
        assert predicted == pytest.approx(workload.expected_runtime({"num_tasks": 250}, hw))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CyclesWorkload(task_sizes=())
        with pytest.raises(ValueError):
            CyclesWorkload(task_sizes=(0,))
        with pytest.raises(ValueError):
            CyclesWorkload(parallel_fraction=1.5)

    def test_nonpositive_tasks_rejected(self):
        with pytest.raises(ValueError):
            CyclesWorkload().expected_runtime({"num_tasks": 0}, synthetic_catalog(4)["H0"])


class TestBurnPro3DWorkload:
    def test_table1_features(self):
        assert BurnPro3DWorkload().feature_names == BP3D_FEATURES
        assert len(BP3D_FEATURES) == 7

    def test_feature_table_matches_table1(self):
        rows = BurnPro3DWorkload.feature_table()
        assert {r["feature"] for r in rows} == set(BP3D_FEATURES)
        assert all(r["description"] for r in rows)

    def test_sampled_features_in_range(self, rng):
        workload = BurnPro3DWorkload()
        f = workload.sample_features(rng)
        assert 1.0e6 * 0.97 <= f["area"] <= 2.5e6 * 1.03
        assert 0 <= f["wind_direction"] <= 360

    def test_areas_come_from_six_burn_units(self, rng):
        workload = BurnPro3DWorkload(n_burn_units=6)
        assert len(workload.burn_unit_areas) == 6

    def test_hardware_settings_nearly_identical(self, rng):
        """The NDP configurations differ by at most the configured spread."""
        workload = BurnPro3DWorkload()
        catalog = ndp_catalog()
        for _ in range(20):
            f = workload.sample_features(rng)
            runtimes = [workload.expected_runtime(f, hw) for hw in catalog]
            spread = (max(runtimes) - min(runtimes)) / min(runtimes)
            assert spread <= 2.5 * workload.hardware_spread

    def test_runtime_magnitude_matches_figure_6(self, rng):
        workload = BurnPro3DWorkload()
        hw = ndp_catalog()["H0"]
        runtimes = [
            workload.expected_runtime(workload.sample_features(rng), hw) for _ in range(200)
        ]
        assert max(runtimes) > 3.0e4  # tens of thousands of seconds
        assert min(runtimes) > 0

    def test_runtime_increases_with_area(self, rng):
        workload = BurnPro3DWorkload()
        hw = ndp_catalog()["H0"]
        base = workload.sample_features(rng)
        small = dict(base, area=1.0e6)
        large = dict(base, area=2.5e6)
        assert workload.expected_runtime(large, hw) > workload.expected_runtime(small, hw)

    def test_noise_is_heavy(self, rng):
        workload = BurnPro3DWorkload()
        hw = ndp_catalog()["H0"]
        f = workload.sample_features(rng)
        assert workload.noise_scale(f, hw) >= workload.noise_seconds

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BurnPro3DWorkload(n_burn_units=0)
        with pytest.raises(ValueError):
            BurnPro3DWorkload(area_range=(10, 5))


class TestMatrixMultiplicationWorkload:
    def test_feature_names(self):
        assert MatrixMultiplicationWorkload().feature_names == [
            "size",
            "sparsity",
            "min_value",
            "max_value",
        ]

    def test_size_distribution_matches_paper(self, rng):
        workload = MatrixMultiplicationWorkload()
        sizes = np.array([workload.sample_features(rng)["size"] for _ in range(2000)])
        small_fraction = float((sizes < 5000).mean())
        assert 0.6 < small_fraction < 0.8  # paper: 1800 / 2520 ≈ 0.71

    def test_small_runs_finish_quickly(self):
        workload = MatrixMultiplicationWorkload()
        hw = matmul_catalog()["H4"]
        runtime = workload.expected_runtime(
            {"size": 3000, "sparsity": 0.0, "min_value": 0, "max_value": 10}, hw
        )
        assert runtime < 60

    def test_large_runs_take_many_minutes(self):
        workload = MatrixMultiplicationWorkload()
        hw = matmul_catalog()["H0"]
        runtime = workload.expected_runtime(
            {"size": 12500, "sparsity": 0.0, "min_value": 0, "max_value": 10}, hw
        )
        assert runtime > 600

    def test_best_hardware_crosses_over_with_size(self):
        """Small matrices favour small allocations, large matrices favour big ones."""
        workload = MatrixMultiplicationWorkload()
        catalog = matmul_catalog()
        small = {"size": 300, "sparsity": 0.0, "min_value": 0, "max_value": 10}
        large = {"size": 10000, "sparsity": 0.0, "min_value": 0, "max_value": 10}
        assert workload.best_hardware(small, catalog).cpus < workload.best_hardware(large, catalog).cpus

    def test_size_dominates_other_features(self):
        workload = MatrixMultiplicationWorkload()
        hw = matmul_catalog()["H2"]
        base = {"size": 8000, "sparsity": 0.0, "min_value": 0, "max_value": 10}
        sparse = dict(base, sparsity=0.9)
        bigger = dict(base, size=9000)
        effect_sparsity = abs(
            workload.expected_runtime(base, hw) - workload.expected_runtime(sparse, hw)
        )
        effect_size = abs(
            workload.expected_runtime(base, hw) - workload.expected_runtime(bigger, hw)
        )
        assert effect_size > 3 * effect_sparsity

    def test_more_cores_help_large_matrices(self):
        workload = MatrixMultiplicationWorkload()
        catalog = matmul_catalog()
        f = {"size": 12000, "sparsity": 0.0, "min_value": 0, "max_value": 10}
        runtimes = [workload.expected_runtime(f, hw) for hw in catalog]
        assert runtimes[0] > runtimes[-1]

    def test_generate_matrix_respects_parameters(self, rng):
        workload = MatrixMultiplicationWorkload()
        features = {"size": 30, "sparsity": 0.5, "min_value": -5, "max_value": 5}
        matrix = workload.generate_matrix(features, rng)
        assert matrix.shape == (30, 30)
        assert matrix.min() >= -5 and matrix.max() <= 5
        assert (matrix == 0).mean() > 0.2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MatrixMultiplicationWorkload(size_range=(100, 50))
        with pytest.raises(ValueError):
            MatrixMultiplicationWorkload(small_size_fraction=2.0)
        with pytest.raises(ValueError):
            MatrixMultiplicationWorkload(startup_seconds_per_cpu=-1)


class TestTiledMatrixSquare:
    def test_matches_direct_product(self, rng):
        a = rng.normal(size=(40, 40))
        assert np.allclose(tiled_matrix_square(a, tile_size=16), a @ a)

    def test_tile_size_larger_than_matrix(self, rng):
        a = rng.normal(size=(10, 10))
        assert np.allclose(tiled_matrix_square(a, tile_size=64), a @ a)

    def test_multithreaded_matches(self, rng):
        a = rng.normal(size=(32, 32))
        assert np.allclose(tiled_matrix_square(a, tile_size=8, n_workers=4), a @ a)

    def test_rejects_non_square(self, rng):
        with pytest.raises(ValueError):
            tiled_matrix_square(rng.normal(size=(3, 4)))

    def test_rejects_bad_arguments(self, rng):
        a = rng.normal(size=(4, 4))
        with pytest.raises(ValueError):
            tiled_matrix_square(a, tile_size=0)
        with pytest.raises(ValueError):
            tiled_matrix_square(a, n_workers=0)


class TestLinearRuntimeWorkload:
    def test_expected_runtime_matches_coefficients(self, ndp):
        workload = LinearRuntimeWorkload(
            feature_ranges={"x": (0, 10)},
            coefficients={hw.name: ({"x": 2.0}, 5.0) for hw in ndp},
            noise_sigma=0.0,
        )
        assert workload.expected_runtime({"x": 3.0}, ndp["H0"]) == pytest.approx(11.0)

    def test_missing_hardware_coefficients(self, ndp):
        workload = LinearRuntimeWorkload(
            feature_ranges={"x": (0, 1)},
            coefficients={"H0": ({"x": 1.0}, 0.0)},
        )
        with pytest.raises(KeyError):
            workload.expected_runtime({"x": 0.5}, ndp["H1"])

    def test_random_factory_covers_catalog(self, ndp):
        workload = LinearRuntimeWorkload.random(ndp, n_features=3, seed=0)
        assert set(workload.hardware_names) == set(ndp.names)
        assert len(workload.feature_names) == 3

    def test_random_factory_reproducible(self, ndp):
        a = LinearRuntimeWorkload.random(ndp, seed=5)
        b = LinearRuntimeWorkload.random(ndp, seed=5)
        f = {name: 1.0 for name in a.feature_names}
        assert a.expected_runtime(f, ndp["H0"]) == b.expected_runtime(f, ndp["H0"])

    def test_nonlinearity_hook(self, ndp):
        workload = LinearRuntimeWorkload(
            feature_ranges={"x": (0, 1)},
            coefficients={hw.name: ({"x": 1.0}, 0.0) for hw in ndp},
            nonlinearity=lambda v: v**2,
        )
        assert workload.expected_runtime({"x": 3.0}, ndp["H0"]) == pytest.approx(9.0)

    def test_runtime_never_negative(self, ndp, rng):
        workload = LinearRuntimeWorkload(
            feature_ranges={"x": (0, 1)},
            coefficients={hw.name: ({"x": -100.0}, 1.0) for hw in ndp},
        )
        assert workload.expected_runtime({"x": 1.0}, ndp["H0"]) == 0.0

    def test_invalid_construction(self, ndp):
        with pytest.raises(ValueError):
            LinearRuntimeWorkload(feature_ranges={}, coefficients={"H0": ({}, 0.0)})
        with pytest.raises(ValueError):
            LinearRuntimeWorkload(
                feature_ranges={"x": (0, 1)},
                coefficients={"H0": ({}, 0.0)},
            )


class TestWorkloadModelShared:
    def test_observed_runtime_is_non_negative(self, cycles_workload, synthetic4, rng):
        f = {"num_tasks": 100}
        for _ in range(50):
            assert cycles_workload.observed_runtime(f, synthetic4["H0"], rng) >= 0

    def test_observed_runtime_centres_on_expectation(self, cycles_workload, synthetic4):
        f = {"num_tasks": 500}
        hw = synthetic4["H0"]
        rng = np.random.default_rng(0)
        samples = [cycles_workload.observed_runtime(f, hw, rng) for _ in range(500)]
        assert np.mean(samples) == pytest.approx(
            cycles_workload.expected_runtime(f, hw), rel=0.05
        )

    def test_best_hardware_returns_minimum(self, cycles_workload, synthetic4):
        best = cycles_workload.best_hardware({"num_tasks": 500}, synthetic4)
        expected, _ = cycles_workload.runtime_table({"num_tasks": np.array([500.0])}, synthetic4)
        assert expected[0, synthetic4.index_of(best.name)] == expected[0].min()

    def test_feature_vector_order(self, bp3d_workload, rng):
        f = bp3d_workload.sample_features(rng)
        vec = bp3d_workload.feature_vector(f)
        assert vec.shape == (len(BP3D_FEATURES),)
        assert vec[-1] == f["area"]

    def test_feature_vector_missing_raises(self, bp3d_workload):
        with pytest.raises(KeyError):
            bp3d_workload.feature_vector({"area": 1.0})


class TestTraceGenerator:
    def test_generate_runs_count_and_ids(self, cycles_workload, synthetic4):
        gen = TraceGenerator(cycles_workload, synthetic4, seed=0)
        records = gen.generate_runs(10)
        assert len(records) == 10
        assert len({r.run_id for r in records}) == 10

    def test_generate_runs_fixed_hardware(self, cycles_workload, synthetic4):
        gen = TraceGenerator(cycles_workload, synthetic4, seed=0)
        records = gen.generate_runs(5, hardware=synthetic4["H2"])
        assert {r.hardware for r in records} == {"H2"}

    def test_grid_repeats_workflows_on_every_hardware(self, cycles_workload, synthetic4):
        gen = TraceGenerator(cycles_workload, synthetic4, seed=0)
        records = gen.generate_grid(3)
        assert len(records) == 3 * len(synthetic4)
        per_hw = {}
        for r in records:
            per_hw.setdefault(r.hardware, []).append(r.features["num_tasks"])
        sizes = list(per_hw.values())
        assert all(s == sizes[0] for s in sizes)

    def test_generate_frame_columns(self, cycles_workload, synthetic4):
        gen = TraceGenerator(cycles_workload, synthetic4, seed=0)
        frame = gen.generate_frame(4)
        assert {"run_id", "hardware", "runtime_seconds", "num_tasks"} <= set(frame.columns)

    def test_seeded_generation_is_reproducible(self, cycles_workload, synthetic4):
        a = TraceGenerator(cycles_workload, synthetic4, seed=3).generate_frame(5)
        b = TraceGenerator(cycles_workload, synthetic4, seed=3).generate_frame(5)
        assert a["runtime_seconds"].to_list() == b["runtime_seconds"].to_list()

    def test_negative_counts_rejected(self, cycles_workload, synthetic4):
        gen = TraceGenerator(cycles_workload, synthetic4)
        with pytest.raises(ValueError):
            gen.generate_runs(-1)
        with pytest.raises(ValueError):
            gen.generate_grid(-1)
