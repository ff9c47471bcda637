"""Abstractions shared by every application workload model."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.dataframe import DataFrame
from repro.hardware import HardwareCatalog, HardwareConfig
from repro.utils.rng import SeedLike, as_generator

__all__ = ["WorkloadModel", "RunRecord", "TraceGenerator", "records_to_frame"]


@dataclass(frozen=True)
class RunRecord:
    """One observed application run.

    This is the unit of the run-history tables the paper's Figure 1 pipeline
    parses: workflow features, the hardware it ran on, and the observed
    runtime in seconds.
    """

    run_id: str
    application: str
    hardware: str
    runtime_seconds: float
    features: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.runtime_seconds < 0:
            raise ValueError(
                f"runtime_seconds must be non-negative, got {self.runtime_seconds}"
            )

    def feature_vector(self, feature_names: Sequence[str]) -> np.ndarray:
        """Return the features in the order given by ``feature_names``."""
        missing = [name for name in feature_names if name not in self.features]
        if missing:
            raise KeyError(f"run {self.run_id} is missing features {missing}")
        return np.asarray([float(self.features[name]) for name in feature_names])

    def to_row(self) -> Dict[str, Any]:
        """Flatten into a row dictionary suitable for a :class:`DataFrame`."""
        row: Dict[str, Any] = {
            "run_id": self.run_id,
            "application": self.application,
            "hardware": self.hardware,
            "runtime_seconds": self.runtime_seconds,
        }
        row.update({k: float(v) for k, v in self.features.items()})
        return row


def records_to_frame(records: Iterable[RunRecord]) -> DataFrame:
    """Convert run records into a columnar :class:`DataFrame`."""
    rows = [r.to_row() for r in records]
    if not rows:
        return DataFrame({})
    return DataFrame.from_records(rows)


class WorkloadModel(abc.ABC):
    """A feature sampler plus a per-hardware ground-truth runtime function.

    Subclasses describe one application.  They must expose:

    * :attr:`name` -- application name used in run records.
    * :attr:`feature_names` -- ordered feature names (the context ``x``).
    * :meth:`sample_features` -- draw one workflow's feature dictionary.
    * :meth:`expected_runtime` -- noise-free expected runtime of the workflow
      on a hardware configuration (seconds).
    * :meth:`noise_scale` -- standard deviation of the runtime noise for a
      given workflow/hardware pair (may depend on both).

    :meth:`observed_runtime` then draws a noisy, non-negative runtime, which
    is what the cluster simulator reports back to BanditWare.
    """

    #: application name; subclasses override.
    name: str = "workload"

    @property
    @abc.abstractmethod
    def feature_names(self) -> List[str]:
        """Ordered names of the context features."""

    @abc.abstractmethod
    def sample_features(self, rng: np.random.Generator) -> Dict[str, float]:
        """Draw the feature dictionary of one incoming workflow."""

    @abc.abstractmethod
    def expected_runtime(self, features: Dict[str, float], hardware: HardwareConfig) -> float:
        """Noise-free expected runtime (seconds) of ``features`` on ``hardware``."""

    def noise_scale(self, features: Dict[str, float], hardware: HardwareConfig) -> float:
        """Standard deviation of runtime noise; default 2% of the expectation."""
        return 0.02 * self.expected_runtime(features, hardware)

    # ------------------------------------------------------------------ #
    def feature_vector(self, features: Dict[str, float]) -> np.ndarray:
        """Order ``features`` according to :attr:`feature_names`."""
        missing = [name for name in self.feature_names if name not in features]
        if missing:
            raise KeyError(f"features missing {missing} for workload {self.name!r}")
        return np.asarray([float(features[name]) for name in self.feature_names])

    def observed_runtime(
        self,
        features: Dict[str, float],
        hardware: HardwareConfig,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Draw a noisy runtime observation (never below 1% of the expectation)."""
        rng = as_generator(rng)
        mean = self.expected_runtime(features, hardware)
        sigma = self.noise_scale(features, hardware)
        value = float(rng.normal(mean, sigma)) if sigma > 0 else mean
        return max(value, 0.01 * mean, 0.0)

    def best_hardware(
        self, features: Dict[str, float], catalog: HardwareCatalog
    ) -> HardwareConfig:
        """The configuration with the smallest *expected* runtime for ``features``."""
        return min(catalog, key=lambda hw: (self.expected_runtime(features, hw), hw.name))

    def runtime_table(
        self, columns: Mapping[str, np.ndarray], catalog: HardwareCatalog
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Expected runtimes and noise scales of many workflows on every arm.

        ``columns`` maps feature names to equal-length 1-D float64 arrays,
        one entry per workflow.  Returns ``(expected, noise)``, two
        ``(n_workflows, len(catalog))`` arrays whose ``[i, j]`` entries are
        :meth:`expected_runtime` and :meth:`noise_scale` of workflow ``i``
        on ``catalog[j]``.

        This default calls the scalar methods once per cell, so a workload
        that defines only those works unchanged.  An override must return
        tables bit-identical to this loop.
        """
        names = list(columns)
        rows = list(zip(*(columns[name].tolist() for name in names)))
        expected = np.empty((len(rows), len(catalog)))
        noise = np.empty_like(expected)
        for i, values in enumerate(rows):
            features = dict(zip(names, values))
            for j, hw in enumerate(catalog):
                expected[i, j] = self.expected_runtime(features, hw)
                noise[i, j] = self.noise_scale(features, hw)
        return expected, noise


class _Runs(NamedTuple):
    """A batch of generated runs, one entry per run in generation order."""

    features: List[Dict[str, float]]
    hardware: List[str]
    runtimes: np.ndarray
    columns: Dict[str, np.ndarray]


class TraceGenerator:
    """Generate run-history tables from a workload model and hardware catalog.

    The paper starts from "a small dataset of application runs collected
    previously"; this class manufactures the equivalent synthetic dataset so
    experiments and benchmarks have a deterministic stand-in.

    :meth:`generate_runs` and :meth:`generate_frame` produce exactly the
    datasets a loop of :meth:`generate_run` calls would (same float bits, run
    ids and generator state afterwards), but only the random draws stay per
    row.  Phase 1 makes every row's RNG calls in ``generate_run``'s order,
    drawing ``standard_normal()`` where ``generate_run`` draws
    ``normal(mean, sigma)`` (numpy computes the latter as
    ``mean + sigma * standard_normal()``).  Phase 2 takes every row's mean
    and sigma from the workload's batched
    :meth:`WorkloadModel.runtime_table` and applies the noise and the floor
    of :meth:`WorkloadModel.observed_runtime` in arrays.  ``generate_run``
    makes no noise draw when ``sigma <= 0``, so a batch with such a row is
    rewound and replayed row by row.

    Parameters
    ----------
    workload:
        The application model to sample from.
    catalog:
        Hardware configurations runs may be placed on.
    seed:
        Seed controlling both feature sampling and runtime noise.
    """

    def __init__(self, workload: WorkloadModel, catalog: HardwareCatalog, seed: SeedLike = None):
        self.workload = workload
        self.catalog = catalog
        self._rng = as_generator(seed)
        self._counter = 0

    def _next_id(self) -> str:
        self._counter += 1
        return f"{self.workload.name}-{self._counter:06d}"

    def _record(self, features: Dict[str, float], hardware: str, runtime: float) -> RunRecord:
        return RunRecord(
            run_id=self._next_id(),
            application=self.workload.name,
            hardware=hardware,
            runtime_seconds=runtime,
            features=features,
        )

    def generate_run(self, hardware: Optional[HardwareConfig] = None) -> RunRecord:
        """Sample one workflow and run it on ``hardware`` (random if omitted)."""
        features = self.workload.sample_features(self._rng)
        if hardware is None:
            hardware = self.catalog[int(self._rng.integers(len(self.catalog)))]
        runtime = self.workload.observed_runtime(features, hardware, self._rng)
        return self._record(features, hardware.name, runtime)

    def _draw(self, n: int, hardware: Optional[HardwareConfig]) -> Optional[_Runs]:
        """Draw ``n`` runs in two phases (see the class docstring).

        Returns ``None``, with the generator rewound, when the runs must be
        drawn row by row instead (also for ``n == 0``, which draws nothing).
        """
        workload = self.workload
        if not n or type(workload).observed_runtime is not WorkloadModel.observed_runtime:
            return None
        rng = self._rng
        saved = rng.bit_generator.state
        sample = workload.sample_features
        integers = rng.integers
        normal = rng.standard_normal
        n_arms = len(self.catalog)
        workflows: List[Dict[str, float]] = []
        arms: List[int] = []
        draws: List[float] = []
        # Phase 1: generate_run's RNG calls, in generate_run's order.
        for _ in range(n):
            workflows.append(sample(rng))
            if hardware is None:
                arms.append(int(integers(n_arms)))
            draws.append(normal())
        if hardware is None:
            arm_configs = self.catalog.configs
            arm_of = np.asarray(arms, dtype=np.intp)
        else:
            arm_configs = [hardware]
            arm_of = np.zeros(n, dtype=np.intp)
        names = workflows[0].keys()
        if any(features.keys() != names for features in workflows):
            # No shared feature columns to batch over.
            rng.bit_generator.state = saved
            return None
        columns = {
            name: np.array([features[name] for features in workflows], dtype=float)
            for name in names
        }
        # Phase 2: each run's mean and sigma, on its own arm only.
        mean = np.empty(n)
        sigma = np.empty(n)
        for j, hw in enumerate(arm_configs):
            rows = np.flatnonzero(arm_of == j)
            if rows.size:
                expected, noise = workload.runtime_table(
                    {name: values[rows] for name, values in columns.items()},
                    HardwareCatalog([hw]),
                )
                mean[rows] = expected[:, 0]
                sigma[rows] = noise[:, 0]
        if not np.all(sigma > 0):
            rng.bit_generator.state = saved
            return None
        # max(value, 0.01 * mean, 0.0) as Python evaluates it: a later
        # argument replaces the current one only when strictly greater.
        runtimes = mean + sigma * np.asarray(draws)
        floor = 0.01 * mean
        runtimes = np.where(floor > runtimes, floor, runtimes)
        runtimes = np.where(0.0 > runtimes, 0.0, runtimes)
        return _Runs(
            features=workflows,
            hardware=[arm_configs[j].name for j in arm_of.tolist()],
            runtimes=runtimes,
            columns=columns,
        )

    def generate_runs(self, n: int, hardware: Optional[HardwareConfig] = None) -> List[RunRecord]:
        """Generate ``n`` runs (each on ``hardware`` or on random hardware)."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        runs = self._draw(n, hardware)
        if runs is None:
            return [self.generate_run(hardware) for _ in range(n)]
        return [
            self._record(features, hw, runtime)
            for features, hw, runtime in zip(runs.features, runs.hardware, runs.runtimes.tolist())
        ]

    def generate_grid(self, n_per_hardware: int) -> List[RunRecord]:
        """Generate ``n_per_hardware`` runs on *every* configuration.

        This mirrors how the paper collected its datasets: the same burn units
        / workflow sizes repeated "across all hardware configurations".
        Grids stay row by row: they are a few rows each, too few for the
        batch set-up to pay off.
        """
        if n_per_hardware < 0:
            raise ValueError(f"n_per_hardware must be non-negative, got {n_per_hardware}")
        records: List[RunRecord] = []
        for _ in range(n_per_hardware):
            features = self.workload.sample_features(self._rng)
            for hw in self.catalog:
                runtime = self.workload.observed_runtime(features, hw, self._rng)
                records.append(self._record(dict(features), hw.name, runtime))
        return records

    def generate_frame(self, n: int, grid: bool = False) -> DataFrame:
        """Generate a dataset and return it as a :class:`DataFrame`.

        With ``grid=True``, ``n`` is interpreted as runs *per hardware* and the
        same sampled workflows are repeated on every configuration.  Other
        datasets are built column by column from one batch, in the column
        order :func:`records_to_frame` gives them.
        """
        if grid:
            return records_to_frame(self.generate_grid(n))
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        runs = self._draw(n, None)
        if runs is None:
            return records_to_frame([self.generate_run() for _ in range(n)])
        start = self._counter
        self._counter += n
        name = self.workload.name
        data: Dict[str, np.ndarray] = {
            "run_id": np.array(
                [f"{name}-{i:06d}" for i in range(start + 1, start + n + 1)], dtype=object
            ),
            "application": np.full(n, name, dtype=object),
            "hardware": np.array(runs.hardware, dtype=object),
            "runtime_seconds": runs.runtimes,
        }
        data.update(runs.columns)
        return DataFrame(data)
