"""The batched ``WorkloadModel.runtime_table`` contract.

``OnlineSimulation`` builds its ground-truth and noise tables with one
``runtime_table`` call.  BurnPro3D and matrix multiplication override it
with array code; each override must reproduce the base class's per-cell scalar loop bit for
bit (``np.array_equal``, never ``allclose``), because those tables decide
every replayed observation and every accuracy point.
"""

from typing import List

import numpy as np
import pytest

from repro.dataframe import DataFrame
from repro.evaluation import OnlineSimulation, SimulationConfig
from repro.evaluation.experiment import EXPERIMENT_NAMES, build_experiment
from repro.hardware import HardwareConfig
from repro.workloads import CyclesWorkload, MatrixMultiplicationWorkload, TraceGenerator
from repro.workloads.base import WorkloadModel


def _scalar_table(workload: WorkloadModel, frame: DataFrame, catalog):
    """The reference: the base class's loop over the scalar methods."""
    columns = {
        name: frame[name].to_numpy(float) for name in workload.feature_names if name in frame
    }
    return WorkloadModel.runtime_table(workload, columns, catalog)


@pytest.mark.parametrize("subsample", [None, 40])
@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_simulation_tables_equal_scalar_loop(name, subsample):
    definition = build_experiment(
        name, n_simulations=1, n_rounds=2, evaluation_subsample=subsample
    )
    sim = definition.simulation()
    frame = sim._eval_frame
    if subsample is not None:
        assert len(frame) == subsample
    expected, noise = _scalar_table(sim.workload, frame, sim.catalog)
    assert sim._truth.shape == (len(frame), len(sim.catalog))
    assert np.array_equal(sim._truth, expected)
    assert np.array_equal(sim._pool_sigma, noise)
    # The replay pool holds the same dicts a row-by-row build would.
    assert sim._workflow_pool == [
        {name: float(row[name]) for name in sim.workload.feature_names if name in row}
        for row in frame.iterrows()
    ]


@pytest.mark.parametrize("with_sparsity", [True, False])
def test_matmul_fractional_sizes(matmul_workload, matmul5, rng, with_sparsity):
    # The paper's sizes are integers, whose powers every method computes
    # exactly; fractional sizes expose any other power than the scalar one.
    columns = {"size": rng.uniform(100.0, 12500.0, 400)}
    if with_sparsity:
        columns["sparsity"] = rng.uniform(0.0, 0.9, 400)
    expected, noise = matmul_workload.runtime_table(columns, matmul5)
    reference = WorkloadModel.runtime_table(matmul_workload, columns, matmul5)
    assert np.array_equal(expected, reference[0])
    assert np.array_equal(noise, reference[1])


class _ScalarOnlyWorkload(WorkloadModel):
    """Defines only the scalar methods, as a user workload would."""

    name = "scalar-only"

    @property
    def feature_names(self) -> List[str]:
        return ["x"]

    def sample_features(self, rng):
        return {"x": float(rng.uniform(1.0, 10.0))}

    def expected_runtime(self, features, hardware: HardwareConfig) -> float:
        return 5.0 + features["x"] * 10.0 / hardware.cpus


class TestScalarOnlyWorkload:
    def test_default_table_loops_over_scalar_methods(self, ndp):
        workload = _ScalarOnlyWorkload()
        expected, noise = workload.runtime_table({"x": np.array([1.0, 2.5])}, ndp)
        assert expected.shape == noise.shape == (2, len(ndp))
        for i, x in enumerate([1.0, 2.5]):
            for j, hw in enumerate(ndp):
                assert expected[i, j] == workload.expected_runtime({"x": x}, hw)
                assert noise[i, j] == workload.noise_scale({"x": x}, hw)

    def test_online_simulation_runs(self, ndp):
        workload = _ScalarOnlyWorkload()
        frame = TraceGenerator(workload, ndp, seed=3).generate_frame(8, grid=True)
        config = SimulationConfig(n_rounds=5, n_simulations=2, seed=1)
        result = OnlineSimulation(workload, ndp, frame, config=config).run()
        assert result.rmse.shape == (2, 5)
        assert np.all(np.isfinite(result.rmse))


class TestNonPositiveInputs:
    """The table path raises the scalar path's ValueError, message included."""

    @staticmethod
    def _scalar_message(workload, features, hardware):
        with pytest.raises(ValueError) as info:
            workload.expected_runtime(features, hardware)
        return str(info.value)

    @pytest.mark.parametrize("bad", [0.0, -3.0])
    def test_cycles_num_tasks(self, synthetic4, bad):
        workload = CyclesWorkload()
        columns = {"num_tasks": np.array([100.0, bad, -7.0])}
        message = self._scalar_message(workload, {"num_tasks": bad}, synthetic4[0])
        with pytest.raises(ValueError) as info:
            workload.runtime_table(columns, synthetic4)
        assert str(info.value) == message

    @pytest.mark.parametrize("bad", [0.0, -250.0])
    def test_matmul_size(self, matmul5, bad):
        workload = MatrixMultiplicationWorkload()
        columns = {"size": np.array([500.0, bad]), "sparsity": np.array([0.1, 0.2])}
        message = self._scalar_message(workload, {"size": bad, "sparsity": 0.2}, matmul5[0])
        with pytest.raises(ValueError) as info:
            workload.runtime_table(columns, matmul5)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            WorkloadModel.runtime_table(workload, columns, matmul5)
        assert str(info.value) == message
