"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import build_bp3d_dataset, build_cycles_dataset, build_matmul_dataset
from repro.hardware import (
    HardwareCatalog,
    HardwareConfig,
    matmul_catalog,
    ndp_catalog,
    synthetic_catalog,
)
from repro.workloads import (
    BurnPro3DWorkload,
    CyclesWorkload,
    LinearRuntimeWorkload,
    MatrixMultiplicationWorkload,
    TraceGenerator,
)


def constant_workload(runtimes, name="const"):
    """A workload with exact, noise-free per-hardware runtimes.

    Shared by the cluster and contention suites for deterministic timing
    assertions; ``runtimes`` maps hardware name -> constant runtime seconds.
    """
    return LinearRuntimeWorkload(
        feature_ranges={"x": (0.0, 0.0)},
        coefficients={hw: ({"x": 0.0}, rt) for hw, rt in runtimes.items()},
        noise_sigma=0.0,
        name=name,
    )


def resident_speed(model, pod, node, others):
    """``pod``'s progress rate on ``node`` alongside ``others`` under ``model``."""
    return model.node_speeds(node, [pod, *others])[0]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def ndp():
    """The NDP hardware triple H0=(2,16), H1=(3,24), H2=(4,16)."""
    return ndp_catalog()


@pytest.fixture
def synthetic4():
    """The four-way synthetic catalog of Experiment 1."""
    return synthetic_catalog(4)


@pytest.fixture
def matmul5():
    """The five-way catalog of Experiment 3."""
    return matmul_catalog()


@pytest.fixture
def cycles_workload():
    return CyclesWorkload()


@pytest.fixture
def bp3d_workload():
    return BurnPro3DWorkload()


@pytest.fixture
def matmul_workload():
    return MatrixMultiplicationWorkload()


@pytest.fixture
def linear_workload(ndp):
    """A random-but-fixed linear workload with genuinely different arms."""
    return LinearRuntimeWorkload.random(ndp, n_features=2, seed=7, noise_sigma=0.5)


@pytest.fixture
def small_cycles_frame(cycles_workload, synthetic4):
    """A small grid trace of the Cycles workload (5 workflows x 4 hardware)."""
    generator = TraceGenerator(cycles_workload, synthetic4, seed=11)
    return generator.generate_frame(5, grid=True)


@pytest.fixture(scope="session")
def cycles_bundle():
    return build_cycles_dataset()


@pytest.fixture(scope="session")
def bp3d_bundle():
    return build_bp3d_dataset()


@pytest.fixture(scope="session")
def matmul_bundle():
    return build_matmul_dataset()
