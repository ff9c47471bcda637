"""Batched trace generation equals the per-row path bit for bit.

``TraceGenerator.generate_runs`` and ``generate_frame`` draw every row's
random numbers in ``generate_run``'s order and batch only the arithmetic and
the frame building.  Each test runs the method under test on one generator
and a row-by-row ``generate_run`` replay on a twin with the same seed, then
compares every field (float bits, run ids, column order, dtypes) and the
generator state, run counter and next draw afterwards.  The golden paper
digests round to 10 digits, so these tests are what pins the datasets.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest

from repro.dataframe import DataFrame
from repro.hardware import HardwareConfig, matmul_catalog, ndp_catalog, synthetic_catalog
from repro.workloads import (
    BurnPro3DWorkload,
    CyclesWorkload,
    LinearRuntimeWorkload,
    LLMInferenceWorkload,
    MatrixMultiplicationWorkload,
    RunRecord,
    TraceGenerator,
    gpu_catalog,
    records_to_frame,
)
from repro.workloads.base import WorkloadModel

_SYNTHETIC3 = synthetic_catalog(3)


class _NegativeMeans(WorkloadModel):
    """Means of either sign under wide noise: both floors of the runtime bind."""

    name = "negative-means"

    @property
    def feature_names(self) -> List[str]:
        return ["x"]

    def sample_features(self, rng) -> Dict[str, float]:
        return {"x": float(rng.uniform(-5.0, 10.0))}

    def expected_runtime(self, features, hardware: HardwareConfig) -> float:
        return features["x"] * hardware.cpus

    def noise_scale(self, features, hardware: HardwareConfig) -> float:
        return 4.0


CASES = {
    "bp3d": (BurnPro3DWorkload(), ndp_catalog()),
    "matmul": (MatrixMultiplicationWorkload(), matmul_catalog()),
    "cycles": (CyclesWorkload(), synthetic_catalog(4)),
    "llm": (LLMInferenceWorkload(), gpu_catalog()),
    "linear": (LinearRuntimeWorkload.random(_SYNTHETIC3, seed=3, noise_sigma=2.0), _SYNTHETIC3),
    # Noise far above most means: many runtimes sit on the 1% floor.
    "linear-wide-noise": (
        LinearRuntimeWorkload.random(_SYNTHETIC3, seed=3, noise_sigma=400.0),
        _SYNTHETIC3,
    ),
    "negative-means": (_NegativeMeans(), _SYNTHETIC3),
    # sigma == 0: no noise draw per row, so the batch is rewound and replayed.
    "linear-noiseless": (
        LinearRuntimeWorkload.random(_SYNTHETIC3, seed=3, noise_sigma=0.0),
        _SYNTHETIC3,
    ),
}


def _twins(name: str, seed: int = 11):
    workload, catalog = CASES[name]
    return TraceGenerator(workload, catalog, seed=seed), TraceGenerator(workload, catalog, seed=seed)


def _bits(value) -> int:
    return int(np.float64(value).view(np.uint64))


def _replay_grid(generator: TraceGenerator, n_per_hardware: int) -> List[RunRecord]:
    """The per-row grid: one workflow, then one noisy run on every arm."""
    records = []
    for _ in range(n_per_hardware):
        features = generator.workload.sample_features(generator._rng)
        for hw in generator.catalog:
            runtime = generator.workload.observed_runtime(features, hw, generator._rng)
            records.append(
                RunRecord(
                    run_id=generator._next_id(),
                    application=generator.workload.name,
                    hardware=hw.name,
                    runtime_seconds=runtime,
                    features=dict(features),
                )
            )
    return records


def assert_records_identical(got: List[RunRecord], want: List[RunRecord]) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.run_id, a.application, a.hardware) == (b.run_id, b.application, b.hardware)
        assert _bits(a.runtime_seconds) == _bits(b.runtime_seconds), a.run_id
        assert list(a.features) == list(b.features)
        assert [_bits(v) for v in a.features.values()] == [_bits(v) for v in b.features.values()]


def assert_frames_identical(got: DataFrame, want: DataFrame) -> None:
    assert got.columns == want.columns
    for name in want.columns:
        a, b = got[name].values, want[name].values
        assert a.dtype == b.dtype, name
        if a.dtype.kind == "f":
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
        else:
            assert a.tolist() == b.tolist(), name
            assert [type(v) for v in a.tolist()] == [type(v) for v in b.tolist()], name


def assert_same_stream(got: TraceGenerator, want: TraceGenerator) -> None:
    assert got._counter == want._counter
    assert got._rng.bit_generator.state == want._rng.bit_generator.state
    assert got._rng.random() == want._rng.random()


@pytest.mark.parametrize("name", sorted(CASES))
class TestBatchEqualsPerRow:
    @pytest.mark.parametrize("n", [1, 2, 57])
    def test_generate_runs(self, name, n):
        generator, twin = _twins(name)
        got = generator.generate_runs(n)
        want = [twin.generate_run() for _ in range(n)]
        assert_records_identical(got, want)
        assert_same_stream(generator, twin)

    def test_generate_runs_on_fixed_hardware(self, name):
        generator, twin = _twins(name)
        hardware = generator.catalog[len(generator.catalog) - 1]
        got = generator.generate_runs(23, hardware=hardware)
        want = [twin.generate_run(hardware) for _ in range(23)]
        assert_records_identical(got, want)
        assert_same_stream(generator, twin)

    def test_generate_grid(self, name):
        generator, twin = _twins(name)
        assert_records_identical(generator.generate_grid(6), _replay_grid(twin, 6))
        assert_same_stream(generator, twin)

    @pytest.mark.parametrize("grid", [False, True])
    def test_generate_frame(self, name, grid):
        generator, twin = _twins(name)
        got = generator.generate_frame(40, grid=grid)
        want = records_to_frame(
            _replay_grid(twin, 40) if grid else [twin.generate_run() for _ in range(40)]
        )
        assert_frames_identical(got, want)
        assert_same_stream(generator, twin)

    def test_calls_continue_one_stream(self, name):
        generator, twin = _twins(name)
        got_records = generator.generate_runs(9) + generator.generate_grid(2)
        got_frame = generator.generate_frame(13)
        want_records = [twin.generate_run() for _ in range(9)] + _replay_grid(twin, 2)
        want_frame = records_to_frame([twin.generate_run() for _ in range(13)])
        assert_records_identical(got_records, want_records)
        assert_frames_identical(got_frame, want_frame)
        assert_same_stream(generator, twin)


def test_empty_batches_draw_nothing():
    generator, twin = _twins("bp3d")
    assert generator.generate_runs(0) == []
    assert generator.generate_grid(0) == []
    frame = generator.generate_frame(0)
    assert frame.columns == [] and len(frame) == 0
    assert_same_stream(generator, twin)


def test_negative_counts_raise():
    generator, _ = _twins("bp3d")
    with pytest.raises(ValueError, match="n must be non-negative"):
        generator.generate_runs(-1)
    with pytest.raises(ValueError, match="n must be non-negative"):
        generator.generate_frame(-1)
    with pytest.raises(ValueError, match="n_per_hardware must be non-negative"):
        generator.generate_frame(-1, grid=True)


def test_some_noiseless_rows_replay_the_whole_batch():
    # Noise is zero only on one arm: rows placed there make no noise draw,
    # so the batch must fall back to the per-row path for every row.
    class PartlyNoiseless(LinearRuntimeWorkload):
        def noise_scale(self, features, hardware):
            return 0.0 if hardware.name == _SYNTHETIC3[1].name else self.noise_sigma

    base, _ = CASES["linear"]
    workload = PartlyNoiseless(
        feature_ranges={name: (0.0, 100.0) for name in base.feature_names},
        coefficients={hw.name: (base._coefficients[hw.name]) for hw in _SYNTHETIC3},
        noise_sigma=2.0,
    )
    generator = TraceGenerator(workload, _SYNTHETIC3, seed=5)
    twin = TraceGenerator(workload, _SYNTHETIC3, seed=5)
    assert_frames_identical(
        generator.generate_frame(30), records_to_frame([twin.generate_run() for _ in range(30)])
    )
    assert_same_stream(generator, twin)


class _ShiftedNoise(LinearRuntimeWorkload):
    """Overrides the noise model itself, which batching cannot reproduce."""

    def observed_runtime(self, features, hardware, rng=None):
        return 1.0 + super().observed_runtime(features, hardware, rng)


class _RaggedFeatures(WorkloadModel):
    """Some workflows carry an extra feature: no shared columns."""

    name = "ragged"

    @property
    def feature_names(self) -> List[str]:
        return ["x"]

    def sample_features(self, rng) -> Dict[str, float]:
        features = {"x": float(rng.uniform(1.0, 10.0))}
        if features["x"] > 7.0:
            features["tag"] = 1.0
        return features

    def expected_runtime(self, features, hardware: HardwareConfig) -> float:
        return 5.0 + features["x"] * 10.0 / hardware.cpus


@pytest.mark.parametrize("make", [lambda: _ShiftedNoise.random(_SYNTHETIC3, seed=8), _RaggedFeatures])
def test_unbatchable_workloads_fall_back_to_per_row(make):
    generator = TraceGenerator(make(), _SYNTHETIC3, seed=4)
    twin = TraceGenerator(make(), _SYNTHETIC3, seed=4)
    assert_records_identical(generator.generate_runs(12), [twin.generate_run() for _ in range(12)])
    assert_frames_identical(
        generator.generate_frame(12), records_to_frame([twin.generate_run() for _ in range(12)])
    )
    assert_same_stream(generator, twin)


def _bp3d_uniform_sampler(workload: BurnPro3DWorkload, rng) -> Dict[str, float]:
    """The BurnPro3D sampler written with ``rng.uniform``."""
    area = float(workload.burn_unit_areas[int(rng.integers(workload.n_burn_units))])
    area *= float(rng.uniform(0.97, 1.03))
    return {
        "surface_moisture": float(rng.uniform(2.0, 20.0)),
        "canopy_moisture": float(rng.uniform(40.0, 140.0)),
        "wind_direction": float(rng.uniform(0.0, 360.0)),
        "wind_speed": float(rng.uniform(1.0, 12.0)),
        "sim_time": float(rng.integers(2000, 12001)),
        "run_max_mem_rss_bytes": float(rng.uniform(4.0e9, 3.2e10)),
        "area": area,
    }


def _matmul_uniform_sampler(workload: MatrixMultiplicationWorkload, rng) -> Dict[str, float]:
    """The matrix-multiplication sampler written with ``rng.uniform``."""
    lo, hi = workload.size_range
    if rng.random() < workload.small_size_fraction:
        size = int(rng.integers(lo, workload.small_size_threshold))
    else:
        size = int(rng.integers(workload.small_size_threshold, hi + 1))
    min_value = float(rng.integers(-100, 1))
    max_value = float(rng.integers(1, 101))
    return {
        "size": float(size),
        "sparsity": float(rng.uniform(0.0, 0.9)),
        "min_value": min_value,
        "max_value": max_value,
    }


@pytest.mark.parametrize(
    "workload, reference",
    [
        (BurnPro3DWorkload(), _bp3d_uniform_sampler),
        (MatrixMultiplicationWorkload(), _matmul_uniform_sampler),
    ],
    ids=["bp3d", "matmul"],
)
def test_samplers_equal_rng_uniform(workload, reference):
    # ``lo + (hi - lo) * rng.random()`` is numpy's own uniform formula on
    # the same draw: the samplers keep the datasets ``rng.uniform`` made.
    rng, twin = np.random.default_rng(21), np.random.default_rng(21)
    for _ in range(1200):
        got, want = workload.sample_features(rng), reference(workload, twin)
        assert list(got) == list(want)
        assert [_bits(v) for v in got.values()] == [_bits(v) for v in want.values()]
    assert rng.bit_generator.state == twin.bit_generator.state
    assert rng.random() == twin.random()
